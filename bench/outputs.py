"""Reading and checking the CSV files the `twoatom` CLI writes.

Every check returns a list of problems; an empty list means the output is
correct.  Values are compared with the independent ``reference`` module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import reference

# documented headers of `twoatom figure`
FIGURE_HEADERS = {
    "fig2": ("t", "C", "aa_minus_ss", "aa_plus_ss"),
    "fig3": ("t", "C", "N"),
    "fig4": ("t", "C", "N", "rho_aa"),
    "fig5": ("t", "C", "aa_minus_ss", "aa_plus_ss"),
}
SWEEP_HEADER = ("value", "first_max_c", "t_first_max", "c_at_t5", "error")

# Agreement with the reference: closed forms agree to rounding; the adaptive
# integrator of detuned atoms runs at rtol 1e-10.
TOL_CLOSED_FORM = 1e-9
TOL_PROPAGATED = 1e-6
# slack on the physical bounds
EPS = 1e-12


def read_csv(path) -> tuple[tuple[str, ...], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return (), []
    return tuple(lines[0].split(",")), [line.split(",") for line in lines[1:]]


def _numeric(rows: list[list[str]], width: int) -> np.ndarray | None:
    if any(len(r) != width for r in rows):
        return None
    try:
        return np.array([[float(v) for v in r] for r in rows], dtype=float).reshape(-1, width)
    except ValueError:
        return None


def _reference_columns(ref: dict) -> dict[str, np.ndarray]:
    return {
        "t": ref["t"],
        "C": ref["C"],
        "N": ref["N"],
        "aa_minus_ss": ref["raa"] - ref["rss"],
        "aa_plus_ss": ref["raa"] + ref["rss"],
        "rho_aa": ref["raa"],
    }


def check_figure(name: str, path, ref: dict) -> list[str]:
    """Compare one figure CSV column by column with the reference trajectory."""
    header, rows = read_csv(path)
    expected = FIGURE_HEADERS[name]
    if header != expected:
        return [f"{name}: header {header} != {expected}"]
    if len(rows) != len(ref["t"]):
        return [f"{name}: {len(rows)} rows, expected {len(ref['t'])} grid points"]
    data = _numeric(rows, len(header))
    if data is None:
        return [f"{name}: malformed row"]
    if not np.all(np.isfinite(data)):
        return [f"{name}: non-finite value"]
    col = dict(zip(header, data.T))
    problems = []
    c = col["C"]
    if c.min() < -EPS or c.max() > 1.0 + EPS:
        problems.append(f"{name}: C outside [0, 1]")
    if "N" in col and (col["N"].min() < -EPS or np.any(col["N"] > c + EPS)):
        problems.append(f"{name}: N outside [0, C]")
    if "aa_plus_ss" in col:
        total = col["aa_plus_ss"]
        if total.min() < -EPS or total.max() > 1.0 + EPS:
            problems.append(f"{name}: rho_aa + rho_ss outside [0, 1]")
        if np.any(np.abs(col["aa_minus_ss"]) > total + EPS):
            problems.append(f"{name}: |rho_aa - rho_ss| exceeds rho_aa + rho_ss")
    if "rho_aa" in col and (col["rho_aa"].min() < -EPS or col["rho_aa"].max() > 1.0 + EPS):
        problems.append(f"{name}: rho_aa outside [0, 1]")
    tol = TOL_PROPAGATED if name == "fig5" else TOL_CLOSED_FORM
    want = _reference_columns(ref)
    for h in header:
        err = float(np.max(np.abs(col[h] - want[h])))
        if err > tol:
            problems.append(f"{name}: column {h} deviates from the reference by {err:.3g}")
    return problems


@dataclass(frozen=True)
class SweepRow:
    value: float
    first_max_c: float
    t_first_max: float
    c_at_t5: float
    error: str


def read_sweep(path) -> tuple[list[SweepRow], list[str]]:
    """Rows of a sweep CSV, and the problems with its layout."""
    header, rows = read_csv(path)
    if header != SWEEP_HEADER:
        return [], [f"sweep: header {header} != {SWEEP_HEADER}"]
    out = []
    for k, r in enumerate(rows):
        # the free-text error column may itself contain commas
        if len(r) < len(SWEEP_HEADER):
            return out, [f"sweep: row {k} has {len(r)} fields"]
        try:
            numbers = [float(v) for v in r[:4]]
        except ValueError:
            return out, [f"sweep: row {k} is not numeric"]
        out.append(SweepRow(*numbers, error=",".join(r[4:])))
    return out, []


def failed_rows(rows: list[SweepRow]) -> int:
    """A sweep row whose error column is not empty is a failed operation."""
    return sum(1 for r in rows if r.error)


def check_sweep_row(row: SweepRow, ref: dict, tol: float) -> list[str]:
    """Check one successful summary row against the reference trajectory.

    The time of the first maximum may differ by one grid step and its value
    may exceed the grid value by the local curvature, so that a refinement
    of the maximum between grid points still passes.
    """
    label = f"sweep value {row.value!r}"
    numbers = (row.first_max_c, row.t_first_max, row.c_at_t5)
    if not all(math.isfinite(v) for v in numbers):
        return [f"{label}: non-finite summary {numbers}"]
    t, c = ref["t"], ref["C"]
    k, excess = reference.first_maximum(t, c)
    dt = t[1] - t[0]
    problems = []
    if not -EPS <= row.first_max_c <= 1.0 + EPS or not -EPS <= row.c_at_t5 <= 1.0 + EPS:
        problems.append(f"{label}: concurrence outside [0, 1]")
    if abs(row.t_first_max - t[k]) > dt * (1.0 + 1e-9):
        problems.append(f"{label}: t_first_max {row.t_first_max} != reference {t[k]}")
    if not c[k] - tol <= row.first_max_c <= c[k] + excess + tol:
        problems.append(f"{label}: first_max_c {row.first_max_c} != reference {c[k]}")
    c5 = reference.value_at(t, c, 5.0)
    if not abs(row.c_at_t5 - c5) <= tol:
        problems.append(f"{label}: c_at_t5 {row.c_at_t5} != reference {c5}")
    return problems


def check_sweep(rows: list[SweepRow], values: list[float], refs: list[dict], tol: float) -> list[str]:
    """Check a sweep's rows, one per requested value in order; failed rows are skipped."""
    if len(rows) != len(values):
        return [f"sweep: {len(rows)} rows for {len(values)} values"]
    problems = []
    for row, value, ref in zip(rows, values, refs):
        if row.value != value:
            problems.append(f"sweep: row value {row.value!r} != requested {value!r}")
        elif not row.error:
            problems.extend(check_sweep_row(row, ref, tol))
    return problems
