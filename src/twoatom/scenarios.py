"""Named simulation scenarios, trajectory assembly, sweeps and figure data.

A scenario bundles an initial state, the interatomic geometry (or explicit
rate overrides), the detuning and an output time grid.  Scenario files are a
flat ``key = value`` text format with ``#`` comments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .couplings import Geometry, rates_from_geometry
from .dynamics import (
    AtomPairParams,
    InvariantError,
    TimeGrid,
    evolve_block_ode,
    total_spin_squared,
)
from .entanglement import EntanglementReport, block_report
from .statespace import (
    TOL_PSD,
    BlockState,
    CollectiveState,
    block_violation,
    check_block,
    from_collective,
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


@dataclass(frozen=True)
class Scenario:
    initial: str = "atom1_excited"
    custom_state: BlockState | None = None
    x: float = math.pi / 6
    mu_dot_r: float = 0.0
    gamma: float = 1.0
    gamma12: float | None = None  # explicit overrides win over the geometry
    omega12: float | None = None
    delta: float = 0.0
    grid: TimeGrid = field(default_factory=lambda: TimeGrid(0.0, 3.0, 3000))
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


@dataclass(frozen=True)
class Trajectory:
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


def _check_physical(t: np.ndarray, b: BlockState, rep: EntanglementReport) -> None:
    """Raise InvariantError unless every point is a physical state.

    Checks finiteness, unit trace, positive populations, positivity of
    both 2x2 blocks and N <= C, each to within 1e-9.
    """
    problem = block_violation(b)
    if not problem:
        bad = ~(rep.negativity <= rep.concurrence + TOL_PSD)
        if bad.any():
            problem = f"negativity exceeds concurrence at index {int(np.argmax(bad))}"
    if problem:
        raise InvariantError(
            f"unphysical trajectory between t = {t[0]:g} and t = {t[-1]:g}: {problem}"
        )


def record_from_state(t: np.ndarray, c: CollectiveState) -> Trajectory:
    """Output columns of a collective-state trajectory at the times t."""
    b = from_collective(c)
    rep = block_report(b)
    _check_physical(t, b, rep)
    return Trajectory(
        t=t,
        concurrence=rep.concurrence,
        negativity=rep.negativity,
        rho_ee=c.ree,
        rho_ss=c.rss,
        rho_aa=c.raa,
        rho_gg=c.rgg,
        re_rho_as=c.ras.real,
        im_rho_as=c.ras.imag,
        s_squared=total_spin_squared(c),
    )


def run_scenario(s: Scenario) -> Trajectory:
    """Propagate the scenario's initial state over its grid."""
    c0 = to_collective(s.initial_block())
    states = evolve_block_ode(c0, s.params(), s.grid)
    return record_from_state(s.grid.times(), states)


def scenario_columns(s: Scenario) -> tuple[str, ...]:
    cols = ["t"]
    for name in s.outputs:
        cols.extend(_OUTPUT_COLUMNS[name])
    return tuple(cols)


# ---------------------------------------------------------------------------
# sweeps

SWEEP_AXES = ("x", "mu_dot_r", "delta", "gamma12", "omega12")


@dataclass(frozen=True)
class SweepRow:
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


def sweep(base: Scenario, axis: str, values) -> list[SweepRow]:
    """One summary row per axis value.

    ``c_at_t5`` is the concurrence at t = 5: interpolated on the scenario's
    grid when the grid spans t = 5, propagated exactly to t = 5 otherwise.
    A value that is invalid or gives an unphysical trajectory is reported in
    its row's ``error``; any other exception propagates.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    rows = []
    for v in values:
        s = replace(base, **{axis: float(v)})
        try:
            traj = run_scenario(s)
            # bench/reference.py interpolates C(5) on the grid in the same way
            at5 = traj
            if not traj.t[0] <= 5.0 <= traj.t[-1]:
                at5 = run_scenario(replace(s, grid=TimeGrid(0.0, 5.0, 2)))
        except (ValueError, InvariantError) as exc:
            rows.append(
                SweepRow(float(v), float("nan"), float("nan"), float("nan"), str(exc))
            )
            continue
        cmax, tmax = _first_maximum(traj.t, traj.concurrence)
        c5 = float(np.interp(5.0, at5.t, at5.concurrence))
        rows.append(SweepRow(float(v), cmax, tmax, c5))
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
        s = replace(s, grid=TimeGrid(s.grid.t_start, s.grid.t_end, points))
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


_SCENARIO_FLOAT_KEYS = {
    "x",
    "mu_dot_r",
    "gamma",
    "gamma12",
    "omega12",
    "delta",
    "t_start",
    "t_end",
}
_CUSTOM_KEYS = {
    "r11",
    "r22",
    "r33",
    "r44",
    "r12_re",
    "r12_im",
    "r34_re",
    "r34_im",
}


def parse_scenario(text: str) -> Scenario:
    """Parse the flat ``key = value`` scenario format."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    kwargs: dict = {}
    if "initial" in raw:
        kwargs["initial"] = raw.pop("initial")
    grid_args = {
        "t_start": 0.0,
        "t_end": 3.0,
        "n_points": 3000,
    }
    if "points" in raw:
        grid_args["n_points"] = int(raw.pop("points"))
    custom: dict[str, float] = {}
    for key, value in raw.items():
        if key in _CUSTOM_KEYS:
            custom[key] = finite_float(value, key)
        elif key in ("t_start", "t_end"):
            grid_args[key] = finite_float(value, key)
        elif key in _SCENARIO_FLOAT_KEYS:
            kwargs[key] = finite_float(value, key)
        elif key == "outputs":
            names = tuple(n.strip() for n in value.split(",") if n.strip())
            unknown = set(names) - set(ALL_OUTPUTS)
            if unknown:
                raise ValueError(f"unknown outputs {sorted(unknown)}")
            kwargs["outputs"] = names
        else:
            raise ValueError(f"unknown scenario key {key!r}")
    kwargs["grid"] = TimeGrid(**grid_args)
    if kwargs.get("initial") == "custom" or custom:
        kwargs.setdefault("initial", "custom")
        kwargs["custom_state"] = BlockState(
            r11=custom.get("r11", 0.0),
            r22=custom.get("r22", 0.0),
            r33=custom.get("r33", 0.0),
            r44=custom.get("r44", 0.0),
            r12=complex(custom.get("r12_re", 0.0), custom.get("r12_im", 0.0)),
            r34=complex(custom.get("r34_re", 0.0), custom.get("r34_im", 0.0)),
        )
    return Scenario(**kwargs)


def load_scenario(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())
