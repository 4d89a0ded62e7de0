"""The benchmark's tracer wraps functions by their ``twoatom.<module>.<func>``
names and silently leaves out any it cannot find, so every traced name must
keep resolving after ``import twoatom.cli``."""
import importlib
import importlib.util
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
