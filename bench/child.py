"""Run one `twoatom` CLI call in this fresh interpreter and report its timings.

Usage: python3 -I child.py REPORT SRC TRACE ARG...

Imports ``twoatom.cli`` from the source tree SRC, calls
``twoatom.cli.main([ARG...])`` as the console script does, writes a JSON
report to REPORT and exits with the CLI's exit code.  With TRACE = 1 it
also times the numpy and twoatom imports apart, counts the modules they
add, and wraps the program's public functions (see ``tracer``).
"""
import os
import sys
import time


def _exit_code(code) -> int:
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


def main() -> int:
    report_path, src, trace = sys.argv[1], os.path.abspath(sys.argv[2]), sys.argv[3] == "1"
    argv = sys.argv[4:]
    sys.path.insert(0, src)
    report = {}
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer

        before = len(sys.modules)
        t0 = time.perf_counter()
        import numpy  # noqa: F401

        t1 = time.perf_counter()
        import twoatom.cli

        t2 = time.perf_counter()
        report["import"] = {
            "numpy_s": t1 - t0,
            "twoatom_s": t2 - t1,
            "modules": len(sys.modules) - before,
        }
        rec = tracer.Recorder()
        tracer.install(rec)
    else:
        t0 = time.perf_counter()
        import twoatom.cli

        t2 = time.perf_counter()
    report["import_s"] = t2 - t0
    report["import_done"] = time.monotonic()
    if not os.path.abspath(twoatom.cli.__file__).startswith(src + os.sep):
        print(f"twoatom was imported from {twoatom.cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    rc = 1
    start = time.perf_counter()
    try:
        rc = _exit_code(twoatom.cli.main(argv))
    except SystemExit as exc:
        rc = _exit_code(exc.code)
    finally:
        report["main_s"] = time.perf_counter() - start
        report["rc"] = rc
        if trace:
            report["trace"] = rec.report()
        import json

        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
