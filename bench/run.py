#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `twoatom` command line.

Usage (from the root of a source checkout):

    python3 bench/run.py [--workload NAME|all] --seed N [--seconds S] [--trace 0|1]

One process drives the load: it writes a workload's inputs from the seed,
then runs rounds of `twoatom` calls, one CLI subprocess at a time, until
the next round would end after S seconds; with ``all`` (the default) it does
so for every workload in turn.  Every output is checked against the
independent ``reference``.  The last line printed is one JSON object: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
(traced rounds alternate with untraced ones to measure the overhead); for
``all`` the metric names are prefixed with the workload's.  The exit code
is 0 when every check passed.  See README.md.
"""
import os

if __name__ == "__main__":
    # one BLAS thread per process, set before numpy loads: the driver and its
    # one child at a time stay within nproc
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import outputs  # noqa: E402
import reference  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 60

# Workload sizes.  The detuning sweep follows scripts/detuning_sweep.py
# (atom 1 excited, x = pi/6, t_end = 6, 3000 points); the separation sweep
# starts with both atoms excited and resolves the slow subradiant tail.
DETUNING_VALUES = 8
DETUNING_RANGE = (0.0, 20.0)
DETUNING_T_END, DETUNING_POINTS = 6.0, 3000
SEPARATION_VALUES = 8
SEPARATION_RANGE = (0.2, 10.0)
SEPARATION_T_END, SEPARATION_POINTS = 10.0, 10001


@dataclass(frozen=True)
class Call:
    """One CLI process: its arguments, output file, operation count, and the
    check that turns its output into (failed operations, points, problems)."""

    label: str
    argv: list
    out: Path
    operations: int
    check: Callable


def stratified(seed: int, lo: float, hi: float, n: int) -> list:
    """One uniform draw in each of n equal bins of [lo, hi], so that every
    seed spreads the same amount of work over the range."""
    u = np.random.default_rng(seed).random(n)
    return [float(lo + (hi - lo) * (k + u[k]) / n) for k in range(n)]


def figures(seed: int, work: Path) -> list:
    """`twoatom figure figN` for the paper's figure set, in seeded order."""
    calls = []
    for name in np.random.default_rng(seed).permutation(sorted(outputs.FIGURE_HEADERS)):
        name = str(name)
        ref = reference.figure(name)
        out = work / f"{name}.csv"

        def check(path, name=name, ref=ref):
            problems = outputs.check_figure(name, path, ref)
            return 0, len(outputs.read_csv(path)[1]), problems

        calls.append(Call(name, ["figure", name, "--out", str(out)], out, 1, check))
    return calls


def _sweep(work: Path, name: str, axis: str, scenario: str, values: list, refs: list,
           points: int, tol: float) -> list:
    scenario_path = work / f"{name}.txt"
    scenario_path.write_text(scenario, encoding="utf-8")
    out = work / f"{name}.csv"
    argv = [
        "sweep", "--scenario", str(scenario_path), "--axis", axis,
        "--values=" + ",".join(repr(v) for v in values), "--out", str(out),
    ]

    def check(path):
        rows, problems = outputs.read_sweep(path)
        problems += outputs.check_sweep(rows, values, refs, tol)
        failed = outputs.failed_rows(rows)
        return failed, (len(rows) - failed) * points, problems

    return [Call(name, argv, out, len(values), check)]


def detuning_sweep(seed: int, work: Path) -> list:
    """`twoatom sweep --axis delta` over seeded detunings: the RK45 route."""
    values = stratified(seed, *DETUNING_RANGE, DETUNING_VALUES)
    gamma12, omega12 = (float(v) for v in reference.collective_rates(reference.FIG_X))
    t = reference.grid(DETUNING_T_END, DETUNING_POINTS)
    start = reference.product_state((True, False))
    refs = [reference.master_equation(start, gamma12, omega12, d, t) for d in values]
    scenario = (
        "initial = atom1_excited\n"
        f"x = {reference.FIG_X!r}\n"
        "mu_dot_r = 0.0\n"
        f"t_end = {DETUNING_T_END!r}\n"
        f"points = {DETUNING_POINTS}\n"
    )
    return _sweep(work, "detuning_sweep", "delta", scenario, values, refs,
                  DETUNING_POINTS, outputs.TOL_PROPAGATED)


def separation_sweep(seed: int, work: Path) -> list:
    """`twoatom sweep --axis x` over seeded separations: the closed-form route."""
    values = stratified(seed, *SEPARATION_RANGE, SEPARATION_VALUES)
    t = reference.grid(SEPARATION_T_END, SEPARATION_POINTS)
    refs = [reference.both_excited(float(reference.collective_rates(x)[0]), t) for x in values]
    scenario = (
        "initial = both_excited\n"
        "mu_dot_r = 0.0\n"
        f"t_end = {SEPARATION_T_END!r}\n"
        f"points = {SEPARATION_POINTS}\n"
    )
    return _sweep(work, "separation_sweep", "x", scenario, values, refs,
                  SEPARATION_POINTS, outputs.TOL_CLOSED_FORM)


WORKLOADS = {
    "figures": figures,
    "detuning_sweep": detuning_sweep,
    "separation_sweep": separation_sweep,
}


def spawn(call: Call, traced: bool, work: Path) -> dict:
    """Run one CLI call in a fresh interpreter; time it from spawn to exit."""
    report = work / f"{call.label}.report.json"
    report.unlink(missing_ok=True)
    call.out.unlink(missing_ok=True)
    cmd = [sys.executable, "-I", str(BENCH / "child.py"), str(report), str(SRC),
           "1" if traced else "0", *call.argv]
    with open(work / f"{call.label}.log", "w", encoding="utf-8") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {
        "label": call.label,
        "rc": proc.returncode,
        "wall_s": end - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    if report.exists():
        child = json.loads(report.read_text(encoding="utf-8"))
        # both clocks are CLOCK_MONOTONIC, which Linux shares between processes
        result["setup_s"] = child["import_done"] - start
        result["main_s"] = child["main_s"]
        result["import"] = child.get("import")
        result["trace"] = child.get("trace")
    return result


def run_round(calls: list, traced: bool, work: Path) -> dict:
    procs, problems = [], []
    attempted = failed = points = 0
    for call in calls:
        res = spawn(call, traced, work)
        procs.append(res)
        attempted += call.operations
        if res["rc"] != 0 or "main_s" not in res or not call.out.exists():
            failed += call.operations
            continue
        n_failed, n_points, found = call.check(call.out)
        failed += n_failed
        points += n_points
        problems += found
    main_s = sum(p.get("main_s", 0.0) for p in procs)
    return {
        "traced": traced,
        "procs": procs,
        "attempted": attempted,
        "failed": failed,
        "points": points,
        "problems": problems,
        "wall_s": sum(p["wall_s"] for p in procs),
        "points_per_s": points / main_s if main_s > 0 else 0.0,
    }


def end_to_end(rounds: list) -> dict:
    procs = [p for r in rounds for p in r["procs"]]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in procs if "setup_s" in p),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "points_per_s": statistics.median(r["points_per_s"] for r in rounds),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in procs),
    }


def _median(name: str, values: list):
    """Median of times; a count stays a whole number of the sample."""
    return statistics.median(values) if name.endswith("_s") else statistics.median_low(values)


def per_layer(rounds: list) -> dict:
    """Per-layer metrics of the traced rounds."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    procs = [p for r in traced for p in r["procs"] if p.get("trace")]
    metrics = {
        "trace.overhead_s": statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain),
    }
    for key in ("numpy_s", "twoatom_s", "modules"):
        metrics[f"import.{key}"] = _median(key, [p["import"][key] for p in procs])
    totals = []  # per traced round: metric -> sum over its processes
    for r in traced:
        total: dict = {}
        for p in r["procs"]:
            if not p.get("trace"):
                continue
            for name, span in p["trace"]["spans"].items():
                for key in ("calls", "self_s"):
                    total[f"{name}.{key}"] = total.get(f"{name}.{key}", 0) + span[key]
            for name, n in p["trace"]["counts"].items():
                total[name] = total.get(name, 0) + n
        totals.append(total)
    for name in totals[0] if totals else ():
        metrics[name] = _median(name, [t.get(name, 0) for t in totals])
    return metrics


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine() -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "git_sha": git_sha(),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool, declared: list) -> dict:
    """Run one workload for about `seconds`; print its metrics and checks."""
    work = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    calls = WORKLOADS[name](seed, work)

    # untraced rounds only, or untraced and traced rounds in turn
    modes = (False, True) if trace else (False,)
    rounds = []
    start = time.monotonic()
    while True:
        rounds.append(run_round(calls, modes[len(rounds) % len(modes)], work))
        elapsed = time.monotonic() - start
        if len(rounds) >= len(modes) and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = sorted({p for r in rounds for p in r["problems"]})
    measured = per_layer(rounds) if trace else end_to_end(rounds)
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
        for m in declared
        if m["name"] in measured
    }
    # a per-layer metric is absent when the program no longer has its function
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if not trace and missing:
        problems.append(f"end-to-end metrics not measured: {missing}")

    (work / "result.json").write_text(
        json.dumps({"machine": machine(), "seed": seed, "rounds": rounds}, indent=1),
        encoding="utf-8",
    )
    print(f"workload {name}: seed {seed}, {len(rounds)} rounds, "
          f"{attempted} operations attempted, {failed} failed")
    for metric, m in metrics.items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    if missing and trace:
        print(f"  absent: {', '.join(missing)}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "twoatom" / "cli.py").is_file():
        print(f"no twoatom source tree at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    print("machine: " + json.dumps(machine()))
    results = {n: run_workload(n, args.seed, seconds, bool(args.trace), declared) for n in names}
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{metric}": m for n, r in results.items() for metric, m in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
