"""Named simulation scenarios, trajectory assembly, sweeps and figure data.

A scenario bundles an initial state, the interatomic geometry (or explicit
rate overrides), the detuning and an output time grid.  Scenario files are a
flat ``key = value`` text format with ``#`` comments.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .couplings import Geometry, rates_from_geometry
from .dynamics import (
    STATE_ROWS,
    AtomPairParams,
    InvariantError,
    TimeGrid,
    fill,
    generator,
    propagators,
    state_vector,
)
from .statespace import (
    TOL_PSD,
    BlockState,
    at_index,
    check_block,
    first_violation,
    to_collective,
)

ALL_OUTPUTS = (
    "concurrence",
    "negativity",
    "populations",
    "coherences",
    "s_squared",
)

INITIAL_STATES = {
    "atom1_excited": BlockState(r44=1.0),
    "both_excited": BlockState(r22=1.0),
    "symmetric": BlockState(r33=0.5, r44=0.5, r34=0.5 + 0j),
    "antisymmetric": BlockState(r33=0.5, r44=0.5, r34=-0.5 + 0j),
}


class Scenario(NamedTuple):
    """One run's inputs; a named tuple, so ``s._replace(delta=1.0)`` makes a
    changed copy."""

    initial: str = "atom1_excited"
    custom_state: BlockState | None = None
    x: float = math.pi / 6
    mu_dot_r: float = 0.0
    gamma: float = 1.0
    gamma12: float | None = None  # explicit overrides win over the geometry
    omega12: float | None = None
    delta: float = 0.0
    grid: TimeGrid = TimeGrid(0.0, 3.0, 3000)
    outputs: tuple[str, ...] = ALL_OUTPUTS

    def initial_block(self) -> BlockState:
        if self.initial == "custom":
            if self.custom_state is None:
                raise ValueError("custom initial state requires explicit entries")
            b = self.custom_state
        else:
            try:
                b = INITIAL_STATES[self.initial]
            except KeyError:
                raise ValueError(f"unknown initial state {self.initial!r}") from None
        check_block(b)
        return b

    def params(self) -> AtomPairParams:
        if self.gamma12 is not None and self.omega12 is not None:
            g12, o12 = self.gamma12, self.omega12
        else:
            rates = rates_from_geometry(Geometry(self.x, self.mu_dot_r), self.gamma)
            g12 = self.gamma12 if self.gamma12 is not None else rates.gamma12
            o12 = self.omega12 if self.omega12 is not None else rates.omega12
        return AtomPairParams(
            gamma=self.gamma, gamma12=g12, omega12=o12, delta=self.delta
        )


class Trajectory(NamedTuple):
    """Output columns of one scenario, each an array over its time grid."""

    t: np.ndarray
    concurrence: np.ndarray
    negativity: np.ndarray
    rho_ee: np.ndarray
    rho_ss: np.ndarray
    rho_aa: np.ndarray
    rho_gg: np.ndarray
    re_rho_as: np.ndarray
    im_rho_as: np.ndarray
    s_squared: np.ndarray


_OUTPUT_COLUMNS = {
    "concurrence": ("concurrence",),
    "negativity": ("negativity",),
    "populations": ("rho_ee", "rho_ss", "rho_aa", "rho_gg"),
    "coherences": ("re_rho_as", "im_rho_as"),
    "s_squared": ("s_squared",),
}


# Rows of a record workspace (see ``record_from_state``): four contiguous
# output columns, ten temporaries and two rows that hold the interleaved
# (n, 2) parts of r34, whose second column is Im ras.
WORK_ROWS = 16


def record_from_state(
    t: np.ndarray, ys: np.ndarray, work: np.ndarray | None = None
) -> Trajectory:
    """Output columns of a trajectory, from the rows ``evolve_block_ode`` fills.

    Raises InvariantError unless every point is a physical state: finite,
    unit trace, positive populations, both 2x2 blocks positive and N <= C,
    each to within 1e-9.  The first five are ``statespace.first_violation``,
    the checks of ``block_violation``; the message names the first broken
    invariant, in that order, and its first index.
    The columns, the concurrence and the negativity are those of
    ``entanglement.block_report`` on ``statespace.from_collective`` of the
    rows, computed in real arithmetic with the same rounding steps, so they
    agree bit for bit.

    ``work``, a C-contiguous float array of shape (WORK_ROWS, n), receives
    the output columns and the temporaries; the returned trajectory's
    columns are views of it and of ``ys``.  Without it, a new one is made.
    The Re ras row of ``ys`` becomes the ``re_rho_as`` column in place: it
    changes at most the sign of a zero, or becomes NaN where Im ras is not
    finite.  The |reg| row becomes its ``np.abs`` in place, as the oracle
    reads it: a negative or -0.0 entry of hand-made rows changes sign.
    """
    n = ys.shape[1]
    if work is None:
        work = np.empty((WORK_ROWS, n))
    ree, rss, raa, re_as, as_im, eg = ys
    rgg, conc, neg, s_sq, r33, r44, s1, s2, up, low, a34, sq12, sq34, tmp = work[:14]
    r = work[14:16].reshape(n, 2)  # Re r34 and Im ras = -Im r34
    im_as = r[:, 1]
    # inf - inf and inf * 0 at non-finite entries; a coherence near 1e300
    # overflows |r|**2 to inf, which still fails the positivity checks
    with np.errstate(invalid="ignore", over="ignore"):
        # rho_gg, and Re ras as the complex as_re + 1j * as_im holds it:
        # 0 * as_im reproduces its signed zeros
        np.subtract(1.0, ree, out=rgg)
        np.subtract(rgg, rss, out=rgg)
        np.subtract(rgg, raa, out=rgg)
        np.add(re_as, np.multiply(as_im, 0.0, out=tmp), out=re_as)
        # the block state: r11 = rgg, r22 = ree, r33, r44, |r12| = |reg|,
        # r34 = (rss - raa) / 2 - 1j Im ras
        np.multiply(np.add(rss, raa, out=r33), 0.5, out=r33)
        np.add(r33, re_as, out=r44)
        np.subtract(r33, re_as, out=r33)
        # Im ras as the complex holds it: + 0.0 reproduces its signed zeros
        np.multiply(np.subtract(rss, raa, out=tmp), 0.5, out=r[:, 0])
        np.add(as_im, 0.0, out=im_as)
        # |r34| as np.abs of a complex view: hypot of the parts, signs aside
        np.abs(r.view(np.complex128)[:, 0], out=a34)
        np.add(rgg, ree, out=s2)
        np.add(r33, r44, out=s1)
        trace = np.add(np.add(s2, r33, out=tmp), r44, out=tmp)
        # |reg|**2, whatever the sign of the row
        np.multiply(eg, eg, out=sq12)
        np.multiply(a34, a34, out=sq34)
        np.multiply(rgg, ree, out=up)
        np.multiply(r33, r44, out=low)
        # a sum is finite only when every term is: trace + Re r12 + Re r34,
        # where Re r12 is the reg row as it is; a non-finite Im ras has made
        # Re ras, and so the trace, NaN already
        finite = np.isfinite(np.add(np.add(trace, eg, out=conc), r[:, 0], out=conc))
        problem = first_violation(finite, trace, (rgg, ree, r33, r44), ((sq12, up), (sq34, low)))
    if not problem:
        a12 = np.abs(eg, out=eg)
        # C = 2 max(0, |r12| - sqrt(r33 r44), |r34| - sqrt(r11 r22)); the
        # factor 2 is exact, so it may come last
        for branch, a, product in ((conc, a12, low), (tmp, a34, up)):
            np.sqrt(np.maximum(product, 0.0, out=branch), out=branch)
            np.subtract(a, branch, out=branch)
        np.multiply(np.maximum(0.0, np.maximum(conc, tmp, out=conc), out=conc), 2.0, out=conc)
        # N = max(0, n1, n2), n = sqrt(4 (|r|^2 - product) + s^2) - s
        for branch, sq, product, s in ((neg, sq12, low, s1), (tmp, sq34, up, s2)):
            np.multiply(np.subtract(sq, product, out=branch), 4.0, out=branch)
            np.add(branch, np.multiply(s, s, out=sq), out=branch)
            np.sqrt(np.maximum(branch, 0.0, out=branch), out=branch)
            np.subtract(branch, s, out=branch)
        np.maximum(0.0, np.maximum(neg, tmp, out=neg), out=neg)
        bad = neg > np.add(conc, TOL_PSD, out=sq12)
        if bad.any():
            problem = at_index("negativity exceeds concurrence", bad)
    if problem:
        raise InvariantError(
            f"unphysical trajectory between t = {t[0]:g} and t = {t[-1]:g}: {problem}"
        )
    np.subtract(2.0, np.multiply(raa, 2.0, out=s_sq), out=s_sq)
    return Trajectory(
        t=t,
        concurrence=conc,
        negativity=neg,
        rho_ee=ree,
        rho_ss=rss,
        rho_aa=raa,
        rho_gg=rgg,
        re_rho_as=re_as,
        im_rho_as=im_as,
        s_squared=s_sq,
    )


# a huge or negative gamma, which AtomPairParams refuses, overflows here
@np.errstate(over="ignore", invalid="ignore")
def excitation_bounds(y0: np.ndarray, gamma: float, t: np.ndarray) -> tuple[np.ndarray, float]:
    """Bounds on ree - rgg = n - 1 at the times t, each widened by TOL_PSD,
    for the trajectory from the state vector y0 at t = 0.

    The excitation number n = 2 ree + rss + raa = 1 + ree - rgg obeys
    dn/dt = -gamma n - gamma12 (rss - raa), which lies in [-2 gamma n, 0]
    for any rates and detuning while the populations are positive, so
    n(0) exp(-2 gamma t) <= n(t) <= n(0).  The trace check cannot see a
    population lost to the ground state, since rgg completes the trace;
    these bounds can.
    """
    n0 = 2.0 * y0[0] + y0[1] + y0[2]
    return n0 * np.exp(-2.0 * gamma * t) - (1.0 + TOL_PSD), n0 - 1.0 + TOL_PSD


def workspace(grid: TimeGrid) -> np.ndarray:
    """Room for one trajectory on the grid, 22 float rows: the STATE_ROWS
    rows of the state (the record turns Re ras into the ``re_rho_as`` column
    in place), then the WORK_ROWS rows of ``record_from_state``."""
    return np.empty((STATE_ROWS + WORK_ROWS, grid.n_points))


def _trajectory(y0, props, k, t, bounds, work) -> Trajectory:
    """Trajectory k of ``props`` from y0 over the times t, in ``work``, a
    ``workspace`` of their grid.  Raises InvariantError, naming the first
    offending index, unless it passes the checks of ``record_from_state``
    and its excitation number stays within ``excitation_bounds``."""
    traj = record_from_state(t, fill(y0, props, k, work[:STATE_ROWS]), work[STATE_ROWS:])
    low, high = bounds
    # the record's last temporary row, free once the record is made
    m = np.subtract(traj.rho_ee, traj.rho_gg, out=work[-3])
    if m.max() > high or np.subtract(m, low, out=m).min() < 0.0:
        m = np.subtract(traj.rho_ee, traj.rho_gg, out=m)
        bad = (m < low) | (m > high)
        problem = at_index("excitation number outside [n(0) exp(-2 gamma t), n(0)]", bad)
        raise InvariantError(
            f"unphysical trajectory between t = {t[0]:g} and t = {t[-1]:g}: {problem}"
        )
    return traj


def run_scenario(s: Scenario) -> Trajectory:
    """Propagate the scenario's initial state over its grid.

    The propagation is ``dynamics.evolve_block_ode``'s: ``propagators`` of
    the one generator, then ``fill``.  Raises InvariantError unless the
    trajectory passes the checks of ``_trajectory``.  It owns its arrays.
    """
    y0 = state_vector(to_collective(s.initial_block()))
    props = propagators(generator(s.params())[np.newaxis], s.grid)
    t = s.grid.times()
    return _trajectory(y0, props, 0, t, excitation_bounds(y0, s.gamma, t), workspace(s.grid))


def scenario_columns(s: Scenario) -> tuple[str, ...]:
    cols = ["t"]
    for name in s.outputs:
        cols.extend(_OUTPUT_COLUMNS[name])
    return tuple(cols)


# ---------------------------------------------------------------------------
# sweeps

SWEEP_AXES = ("x", "mu_dot_r", "delta", "gamma12", "omega12")


class SweepRow(NamedTuple):
    value: float
    first_max_c: float
    t_first_max: float
    c_at_t5: float
    error: str = ""


def _first_maximum(t: np.ndarray, c: np.ndarray) -> tuple[float, float]:
    """Value and time of the first local maximum of the concurrence above
    1e-12; the global maximum if there is none."""
    peak = (c[1:-1] >= c[:-2]) & (c[1:-1] > c[2:]) & (c[1:-1] > 1e-12)
    hits = np.flatnonzero(peak)
    k = int(hits[0]) + 1 if len(hits) else int(np.argmax(c))
    return float(c[k]), float(t[k])


# axis values propagated as one stack: bounds the propagators held at once
_SWEEP_STACK = 64


def sweep(base: Scenario, axis: str, values) -> list[SweepRow]:
    """One summary row per axis value.

    No axis changes the initial state or the grid, so the sweep checks and
    converts the initial state, builds the output times and the excitation
    bounds and allocates one workspace once.  It exponentiates the generators
    of up to _SWEEP_STACK values in one ``dynamics.propagators`` call; each
    value's trajectory is then made in the workspace by ``_trajectory``, as
    in ``run_scenario``, and summarised before the next value overwrites it.

    ``c_at_t5`` is the concurrence at t = 5: interpolated on the scenario's
    grid when the grid spans t = 5, propagated exactly to t = 5 otherwise,
    on a 2-point grid of its own.  A value that is invalid or gives an
    unphysical trajectory is reported in its row's ``error``, and an invalid
    initial state in every row; any other exception propagates.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    values = [float(v) for v in values]
    try:
        y0 = state_vector(to_collective(base.initial_block()))
    except ValueError as exc:
        return [SweepRow(v, math.nan, math.nan, math.nan, str(exc)) for v in values]
    t = base.grid.times()
    work = workspace(base.grid)
    bounds = excitation_bounds(y0, base.gamma, t)
    # a grid that misses t = 5: C(5) ends a trajectory on a grid of its own
    grid5 = None if t[0] <= 5.0 <= t[-1] else TimeGrid(0.0, 5.0, 2)
    if grid5 is not None:
        t5, work5 = grid5.times(), workspace(grid5)
        bounds5 = excitation_bounds(y0, base.gamma, t5)
    rows = []
    for first in range(0, len(values), _SWEEP_STACK):
        chunk = values[first : first + _SWEEP_STACK]
        # an invalid value keeps a NaN generator in its place of the stack
        gens = np.full((len(chunk), STATE_ROWS, STATE_ROWS), np.nan)
        errors: list[str | None] = [None] * len(chunk)
        for k, v in enumerate(chunk):
            try:
                gens[k] = generator(base._replace(**{axis: v}).params())
            except ValueError as exc:
                errors[k] = str(exc)
        props = propagators(gens, base.grid)
        if grid5 is not None:
            props5 = propagators(gens, grid5)
        for k, v in enumerate(chunk):
            error = errors[k]
            if error is None:
                try:
                    traj = at5 = _trajectory(y0, props, k, t, bounds, work)
                    if grid5 is not None:
                        at5 = _trajectory(y0, props5, k, t5, bounds5, work5)
                except InvariantError as exc:
                    error = str(exc)
            if error is not None:
                rows.append(SweepRow(v, math.nan, math.nan, math.nan, error))
                continue
            cmax, tmax = _first_maximum(t, traj.concurrence)
            # bench/reference.py interpolates C(5) on the grid in the same way
            c5 = float(np.interp(5.0, at5.t, at5.concurrence))
            rows.append(SweepRow(v, cmax, tmax, c5))
    return rows


def sweep_table(rows: list[SweepRow]) -> dict:
    """The CSV columns of a sweep: four float arrays and the error texts."""
    table = {
        name: np.array([getattr(r, name) for r in rows], dtype=float)
        for name in ("value", "first_max_c", "t_first_max", "c_at_t5")
    }
    table["error"] = [r.error for r in rows]
    return table


# ---------------------------------------------------------------------------
# figure data

# The one-excitation figures resolve the fast 2*omega12 oscillation; the
# both-excited figure needs the long subradiant tail instead.
FIGURE_SCENARIOS = {
    "fig2": Scenario(initial="atom1_excited", grid=TimeGrid(0.0, 3.0, 3000)),
    "fig3": Scenario(initial="atom1_excited", grid=TimeGrid(0.0, 3.0, 3000)),
    "fig4": Scenario(initial="both_excited", grid=TimeGrid(0.0, 10.0, 5000)),
    # detuned preset: the interaction is fixed at twice the geometric value,
    # the convention under which its first maximum reaches 0.88
    "fig5": Scenario(
        initial="atom1_excited",
        delta=10.0,
        omega12=9.304221923123156,
        grid=TimeGrid(0.0, 3.0, 3000),
    ),
}

FIGURE_COLUMNS = {
    "fig2": ("t", "C", "aa_minus_ss", "aa_plus_ss"),
    "fig3": ("t", "C", "N"),
    "fig4": ("t", "C", "N", "rho_aa"),
    "fig5": ("t", "C", "aa_minus_ss", "aa_plus_ss"),
}


def figure_rows(name: str, points: int | None = None) -> dict[str, np.ndarray]:
    """The columns of one of the canned figures, by header.

    ``points`` replaces the number of grid points over the figure's time span.
    """
    if name not in FIGURE_SCENARIOS:
        raise ValueError(f"unknown figure {name!r}; expected {sorted(FIGURE_SCENARIOS)}")
    s = FIGURE_SCENARIOS[name]
    if points is not None:
        s = with_keys(s, points=points)
    traj = run_scenario(s)
    values = {
        "t": traj.t,
        "C": traj.concurrence,
        "N": traj.negativity,
        "aa_minus_ss": traj.rho_aa - traj.rho_ss,
        "aa_plus_ss": traj.rho_aa + traj.rho_ss,
        "rho_aa": traj.rho_aa,
    }
    return {c: values[c] for c in FIGURE_COLUMNS[name]}


# ---------------------------------------------------------------------------
# scenario files and CSV output


def _csv_field(text: str) -> str:
    # RFC 4180: quote only a field that holds a separator, quote or line break
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


# rows formatted per write: bounds the text held at once at MAX_POINTS rows
_CSV_CHUNK = 2048


def write_csv(path, table) -> None:
    """Deterministic CSV of named columns.

    ``table`` maps each header to its column: a float array, written to 17
    significant digits, or a list of str, quoted only where it must be.
    Fixed header order, LF line endings.
    """
    columns = list(table.values())
    n = len(columns[0]) if columns else 0
    if any(len(column) != n for column in columns):
        raise ValueError("CSV columns differ in length")
    # "%.17g" formats a float exactly as format(v, ".17g"); one template per
    # row, repeated over a chunk of rows, formats the chunk in one operation
    row = ",".join(
        "%.17g" if isinstance(column, np.ndarray) else "%s" for column in columns
    ) + "\n"
    width = len(columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(table) + "\n")
        for start in range(0, n, _CSV_CHUNK):
            stop = min(start + _CSV_CHUNK, n)
            # one flat list in row order: column j fills every width-th cell from j
            cells = [None] * ((stop - start) * width)
            for j, column in enumerate(columns):
                part = column[start:stop]
                cells[j::width] = (
                    part.tolist() if isinstance(column, np.ndarray) else list(map(_csv_field, part))
                )
            fh.write((row * (stop - start)) % tuple(cells))


def finite_float(text: str, name: str = "value") -> float:
    """Parse a float, refusing NaN and infinities with ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {text!r}")
    return value


def _outputs(text: str, key: str) -> tuple[str, ...]:
    names = tuple(n.strip() for n in text.split(",") if n.strip())
    unknown = set(names) - set(ALL_OUTPUTS)
    if unknown:
        raise ValueError(f"unknown outputs {sorted(unknown)}")
    return names


# every scenario-file key, with the converter of its text, called as
# convert(text, key); ``with_keys`` applies the converted values
SCENARIO_KEYS = {
    "initial": lambda text, key: text,
    "outputs": _outputs,
    "points": lambda text, key: int(text),
    **dict.fromkeys(
        ("x", "mu_dot_r", "gamma", "gamma12", "omega12", "delta", "t_start", "t_end",
         "r11", "r22", "r33", "r44", "r12_re", "r12_im", "r34_re", "r34_im"),
        finite_float,
    ),
}

# the keys that set the time grid, and the TimeGrid field each one sets
_GRID_KEYS = {"t_start": "t_start", "t_end": "t_end", "points": "n_points"}


def with_keys(s: Scenario, **keys) -> Scenario:
    """The scenario with converted scenario-file keys applied: ``t_start``,
    ``t_end`` and ``points`` through ``TimeGrid._replace``, which checks
    them, and every other key to the scenario field of its name."""
    grid = {field: keys.pop(key) for key, field in _GRID_KEYS.items() if key in keys}
    if grid:
        keys["grid"] = s.grid._replace(**grid)
    return s._replace(**keys)


def parse_scenario(text: str) -> Scenario:
    """Parse the flat ``key = value`` scenario format: each key of
    SCENARIO_KEYS at most once, applied to ``Scenario()``."""
    keys: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in keys:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        keys[key] = value
    for key, value in keys.items():
        if key not in SCENARIO_KEYS:
            raise ValueError(f"unknown scenario key {key!r}")
        keys[key] = SCENARIO_KEYS[key](value, key)
    # a key that names no field of the scenario or its grid is a custom entry
    custom = {
        k: keys.pop(k) for k in list(keys) if k not in Scenario._fields and k not in _GRID_KEYS
    }
    if keys.get("initial") == "custom" or custom:
        keys.setdefault("initial", "custom")
        keys["custom_state"] = BlockState(
            r11=custom.get("r11", 0.0),
            r22=custom.get("r22", 0.0),
            r33=custom.get("r33", 0.0),
            r44=custom.get("r44", 0.0),
            r12=complex(custom.get("r12_re", 0.0), custom.get("r12_im", 0.0)),
            r34=complex(custom.get("r34_re", 0.0), custom.get("r34_im", 0.0)),
        )
    return with_keys(Scenario(), **keys)


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())
