"""The benchmark's tracer wraps functions by their ``twoatom.<module>.<func>``
names and silently leaves out any it cannot find, so every traced name must
keep resolving after ``import twoatom.cli``."""
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import twoatom.cli  # noqa: F401  (the import the benchmark's child makes)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _spans() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


@pytest.mark.parametrize("name", [*_spans(), "dynamics.solve_ivp"])
def test_traced_name_resolves(name):
    module, func = name.split(".")
    assert callable(getattr(importlib.import_module(f"twoatom.{module}"), func, None))


def test_no_traced_name_is_absent_after_importing_only_the_cli():
    # as the benchmark's child does: a fresh isolated interpreter that
    # imports twoatom.cli and nothing else of the package before tracing
    paths = [str(TRACER.parents[1] / "src"), str(TRACER.parent)]
    code = (
        f"import sys; sys.path[:0] = {paths!r}\n"
        "import twoatom.cli, tracer\n"
        "rec = tracer.Recorder(); tracer.install(rec); print(rec.absent)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
