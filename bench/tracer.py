"""Spans and counters around twoatom's public functions, for the traced run.

Each traced function is replaced by a wrapper at every ``twoatom`` module
attribute that refers to it, so the wrapper sits at the name its caller
looks it up by (``twoatom.scenarios.block_report``, for example).  Spans are
kept in memory, aggregated per name as call count, total time and self time
(total minus the time of child spans), and returned by ``Recorder.report``
when the run ends.  A name the program no longer has is left out and listed
as absent.
"""
from __future__ import annotations

import functools
import os
import sys
import time

# "<module>.<function>" under the twoatom package
SPANS = (
    "cli.main",
    "scenarios.figure_rows",
    "scenarios.sweep",
    "scenarios.run_scenario",
    "scenarios.record_from_state",
    "scenarios.write_csv",
    "couplings.rates_from_geometry",
    "statespace.to_collective",
    "statespace.from_collective",
    "dynamics.evolve_analytic",
    "dynamics.evolve_block_ode",
    "entanglement.block_report",
)


class Recorder:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._children: list[float] = []  # child time of each open span

    def span(self, name: str, fn):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stat[0] += 1
                stat[1] += took
                stat[2] += took - children.pop()
                if children:
                    children[-1] += took

        return traced

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def report(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "total_s": total, "self_s": own}
                for name, (c, total, own) in self.spans.items()
            },
            "counts": self.counts,
            "absent": self.absent,
        }


def _replace(modules, fn, wrapper) -> None:
    """Point every twoatom module attribute that names fn at wrapper."""
    for modname, mod in list(modules.items()):
        if modname == "twoatom" or modname.startswith("twoatom."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)


def _counting_rhs_evals(rec: Recorder, solve_ivp):
    @functools.wraps(solve_ivp)
    def counted(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        rec.add("dynamics.rhs_evals", int(sol.nfev))
        return sol

    return counted


def _counting_bytes(rec: Recorder, write_csv):
    @functools.wraps(write_csv)
    def counted(path, *args, **kwargs):
        out = write_csv(path, *args, **kwargs)
        rec.add("scenarios.write_csv.bytes", os.path.getsize(path))
        return out

    return counted


def install(rec: Recorder, modules=sys.modules) -> None:
    """Wrap the traced functions of the twoatom package loaded in ``modules``."""
    for name in SPANS:
        module, func = name.split(".")
        fn = getattr(modules.get(f"twoatom.{module}"), func, None)
        if fn is None:
            rec.absent.append(name)
            continue
        wrapper = rec.span(name, fn)
        if name == "scenarios.write_csv":
            rec.counts.setdefault("scenarios.write_csv.bytes", 0)
            wrapper = _counting_bytes(rec, wrapper)
        _replace(modules, fn, wrapper)
    dynamics = modules.get("twoatom.dynamics")
    solve_ivp = getattr(dynamics, "solve_ivp", None)
    if solve_ivp is None:
        rec.absent.append("dynamics.rhs_evals")
    else:
        rec.counts.setdefault("dynamics.rhs_evals", 0)
        dynamics.solve_ivp = _counting_rhs_evals(rec, solve_ivp)
