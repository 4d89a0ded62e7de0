"""The record kernel against its oracles.

``scenarios.record_from_state`` maps the propagator's rows straight to the
output columns in real arithmetic.  Its oracle is the chain it replaced on
the run path: the rows as a ``CollectiveState`` (``conftest.collective``),
``from_collective``, ``block_report`` for the measures and
``block_violation`` plus N <= C for the invariants.  Both must agree bit
for bit, and a broken trajectory must be refused with the same invariant
and index.  ``run_scenario``, the command line's path, must give the
record's bits too.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twoatom.scenarios as scenarios
from twoatom.dynamics import InvariantError, TimeGrid, evolve_block_ode, total_spin_squared
from twoatom.entanglement import block_report
from twoatom.scenarios import Scenario, Trajectory, record_from_state, run_scenario, sweep
from twoatom.statespace import TOL_PSD, BlockState, block_violation, from_collective, to_collective

from conftest import block_states, collective, random_block_states


def _oracle_columns(ys) -> dict:
    c = collective(ys)
    rep = block_report(from_collective(c))
    return {
        "concurrence": rep.concurrence,
        "negativity": rep.negativity,
        "rho_ee": c.ree,
        "rho_ss": c.rss,
        "rho_aa": c.raa,
        "rho_gg": c.rgg,
        "re_rho_as": c.ras.real,
        "im_rho_as": c.ras.imag,
        "s_squared": total_spin_squared(c),
    }


def _oracle_problem(ys) -> str:
    b = from_collective(collective(ys))
    problem = block_violation(b)
    if not problem:
        rep = block_report(b)
        bad = ~(rep.negativity <= rep.concurrence + TOL_PSD)
        if bad.any():
            problem = f"negativity exceeds concurrence at index {int(np.argmax(bad))}"
    return problem


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _assert_same_bits(t, ys) -> Trajectory:
    traj = record_from_state(t, ys)
    assert traj.t is t
    for name, want in _oracle_columns(ys).items():
        np.testing.assert_array_equal(_bits(getattr(traj, name)), _bits(want), err_msg=name)
    return traj


def _scenario(initial, custom, gamma12, omega12, delta, t_start, span, n) -> Scenario:
    return Scenario(
        initial=initial,
        custom_state=custom,
        gamma12=gamma12,
        omega12=omega12,
        delta=delta,
        grid=TimeGrid(t_start, t_start + span, n),
    )


def _assert_scenario_same_bits(s: Scenario) -> None:
    """The record of the library path, ``record_from_state`` of
    ``evolve_block_ode``, has the oracles' bits, and every column of
    ``run_scenario``, the command line's path, has the record's."""
    rows = evolve_block_ode(to_collective(s.initial_block()), s.params(), s.grid)
    traj = _assert_same_bits(s.grid.times(), rows)
    run = run_scenario(s)
    for name in Trajectory._fields:
        np.testing.assert_array_equal(
            _bits(getattr(run, name)), _bits(getattr(traj, name)), err_msg=name
        )


class TestSameBitsAsTheOracles:
    @pytest.mark.parametrize("gamma12", [1.0, -1.0])
    @pytest.mark.parametrize("initial", [*scenarios.INITIAL_STATES])
    def test_dicke_points(self, initial, gamma12):
        s = _scenario(initial, None, gamma12, 0.0, 0.0, 0.0, 8.0, 801)
        _assert_scenario_same_bits(s)

    def test_figures(self):
        for s in scenarios.FIGURE_SCENARIOS.values():
            _assert_scenario_same_bits(s)

    def test_random_scenarios(self, rng):
        pops, r12, r34 = random_block_states(rng, 60)
        for k in range(60):
            custom = BlockState(*pops[k], r12=complex(r12[k]), r34=complex(r34[k]))
            initial = "custom" if k % 2 else [*scenarios.INITIAL_STATES][k // 2 % 4]
            s = _scenario(
                initial,
                custom,
                float(rng.uniform(-1.0, 1.0)),
                float(rng.normal(0.0, 5.0)),
                float(rng.normal(0.0, 10.0)) if k % 3 else 0.0,  # detuned atoms
                float(rng.uniform(0.0, 4.0)) if k % 5 < 2 else 0.0,  # t_start > 0
                float(rng.uniform(0.01, 15.0)),
                int(rng.integers(2, 2000)),
            )
            _assert_scenario_same_bits(s)

    @settings(max_examples=60, deadline=None)
    @given(
        initial=st.sampled_from([*scenarios.INITIAL_STATES, "custom"]),
        custom=block_states(),
        gamma12=st.one_of(st.sampled_from([1.0, -1.0]), st.floats(-1.0, 1.0)),
        omega12=st.floats(-10.0, 10.0),
        delta=st.one_of(st.just(0.0), st.floats(-20.0, 20.0)),
        t_start=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
        span=st.floats(0.01, 20.0),
        n=st.integers(2, 300),
    )
    def test_generated_scenarios(self, initial, custom, gamma12, omega12, delta, t_start, span, n):
        s = _scenario(initial, custom, gamma12, omega12, delta, t_start, span, n)
        _assert_scenario_same_bits(s)


# ---------------------------------------------------------------------------
# one broken row set per invariant; the break sits at indices 4 and 6, so the
# first must be named

N_POINTS = 9
_VALID = (0.1, 0.3, 0.4, 0.05, 0.02, 0.01)  # ree, rss, raa, Re ras, Im ras, |reg|


def _broken(column) -> np.ndarray:
    ys = np.tile(np.array(_VALID)[:, None], N_POINTS)
    for k in (4, 6):
        for row, value in column.items():
            ys[row, k] = value
    return ys


BROKEN = {
    # a hand-made |reg| row may be negative: -inf is as non-finite as inf
    "non-finite entry": [{4: math.nan}, {3: math.inf}, {5: -math.inf}, {5: math.inf}],
    "populations do not sum to 1": [{3: 1e8 + 0.1}],
    "negative population": [{0: -0.05, 1: 0.35}, {3: 0.4}, {3: -0.4}],
    # r11 r22 = 0.02 and r33 r44 = 0.12 in the valid rows; the second case of
    # each block exceeds its bound by 1e-8, past the 1e-9 tolerance
    "upper-block coherence violates positivity": [{5: 0.5}, {5: math.sqrt(0.02 + 1e-8)}],
    "lower-block coherence violates positivity": [{4: 0.5}, {4: math.sqrt(0.1175 + 1e-8)}],
    # rgg just inside -1e-9 lets the negativity exceed the concurrence
    "negativity exceeds concurrence": [{0: 0.5, 1: 0.25 + 0.45e-9, 2: 0.25 + 0.45e-9, 3: 0.0,
                                        4: 0.0, 5: 0.0}],
}


@pytest.mark.parametrize(
    "what,column",
    [(what, column) for what, columns in BROKEN.items() for column in columns],
)
def test_broken_rows_are_refused_like_the_oracle(what, column, monkeypatch):
    ys = _broken(column)
    # the oracle's 1j * inf is nan + inf j, which numpy warns about
    with np.errstate(invalid="ignore"):
        assert _oracle_problem(ys) == f"{what} at index 4"
    with pytest.raises(InvariantError, match=f": {what} at index 4$"):
        record_from_state(np.linspace(0.0, 1.0, N_POINTS), ys)

    # the propagation that run_scenario and sweep share
    monkeypatch.setattr(scenarios, "fill", lambda y0, props, k, out: ys)
    with pytest.raises(InvariantError, match=f": {what} at index 4$"):
        run_scenario(Scenario(grid=TimeGrid(0.0, 1.0, N_POINTS)))
    (row,) = sweep(Scenario(grid=TimeGrid(0.0, 1.0, N_POINTS)), "x", [1.0])
    assert row.error.endswith(f": {what} at index 4")


VALID = {
    "plain": {},
    "ras_both_negative_zero": {3: -0.0, 4: -0.0},
    "re_ras_negative_zero": {3: -0.0, 4: 0.0},
    "im_ras_negative_zero": {3: 0.0, 4: -0.0},
    "reg_negative_zero": {5: -0.0},
    # the oracle reads a negative |reg| row by its modulus; here the r12
    # branch carries the concurrence
    "reg_negative": {0: 0.4, 1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0, 5: -0.3},
    # a population just below 0, inside the tolerance: its product with the
    # other population of its block is clamped to 0 under the root
    "r33_slightly_negative": {0: 0.5, 1: 0.25, 2: 0.25, 3: 0.25 + 0.2e-9, 4: 0.0, 5: 0.0},
    "r11_slightly_negative": {0: 0.5, 1: 0.25 + 0.1e-9, 2: 0.25 + 0.1e-9, 3: 0.0, 4: 0.0,
                              5: 0.0},
}


@pytest.mark.parametrize("column", VALID.values(), ids=VALID.keys())
def test_valid_rows_keep_the_oracles_signed_zeros(column):
    ys = _broken(column)
    assert _oracle_problem(ys) == ""
    _assert_same_bits(np.linspace(0.0, 1.0, N_POINTS), ys)


# ---------------------------------------------------------------------------
# the sweep's shared workspace


def _row_bits(value, first_max_c, t_first_max, c_at_t5, error):
    return (value.hex(), first_max_c.hex(), t_first_max.hex(), c_at_t5.hex(), error)


def _fresh_row(s: Scenario, value: float) -> tuple:
    """A sweep row's fields from fresh ``run_scenario`` calls."""
    try:
        traj = run_scenario(s)
        at5 = traj
        if not traj.t[0] <= 5.0 <= traj.t[-1]:
            at5 = run_scenario(s._replace(grid=TimeGrid(0.0, 5.0, 2)))
    except (ValueError, InvariantError) as exc:
        return _row_bits(value, math.nan, math.nan, math.nan, str(exc))
    cmax, tmax = scenarios._first_maximum(traj.t, traj.concurrence)
    return _row_bits(value, cmax, tmax, float(np.interp(5.0, at5.t, at5.concurrence)), "")


# more values than one stack: invalid detunings (inf, nan) and one that
# overflows the propagator (1e200) among them
_MANY = [
    math.inf if k % 17 == 3 else math.nan if k % 23 == 9 else 1e200 if k == 40 else 0.3 * k
    for k in range(scenarios._SWEEP_STACK + 10)
]


@pytest.mark.parametrize(
    "base,axis,values",
    [
        # a good row, an error row, two more good rows; the grid ends before
        # t = 5, so every good row also propagates C(5) on a grid of its own
        (Scenario(grid=TimeGrid(0.0, 4.0, 801)), "gamma12", [0.3, 1.5, -0.6, 0.9]),
        (Scenario(grid=TimeGrid(0.5, 6.0, 700)), "delta", [0.0, 3.0, 1e200, 7.5]),
        (Scenario(grid=TimeGrid(5.5, 9.0, 351)), "mu_dot_r", [0.0, 0.5, 1.5, -0.9]),
        (Scenario(grid=TimeGrid(0.7, 4.0, 333)), "x", [-1.0, 0.3, 1.2, 100.0]),
        (Scenario(grid=TimeGrid(0.0, 6.0, 3000)), "delta", _MANY),
        # an invalid initial state is every row's error, ahead of the value's
        (
            Scenario(initial="custom", custom_state=BlockState(r11=1.5, r22=-0.5),
                     grid=TimeGrid(0.0, 4.0, 50)),
            "gamma12",
            [0.5, 1.5, -0.2],
        ),
        (Scenario(initial="nosuchstate", grid=TimeGrid(0.0, 3.0, 50)), "x", [-1.0, 0.5]),
    ],
    ids=["t_end_below_5", "t_start_above_0", "t_start_above_5", "t_start_above_0_t_end_below_5",
         "stacks", "invalid_state", "unknown_state"],
)
def test_sweep_rows_do_not_alias_the_workspace(base, axis, values, monkeypatch):
    calls = {"initial_block": 0, "to_collective": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    with monkeypatch.context() as m:
        m.setattr(Scenario, "initial_block", counted("initial_block", Scenario.initial_block))
        m.setattr(scenarios, "to_collective", counted("to_collective", to_collective))
        rows = sweep(base, axis, values)
    try:
        base.initial_block()
        converted = 1
    except ValueError:
        converted = 0
    # the initial state is checked and converted once per sweep
    assert calls == {"initial_block": 1, "to_collective": converted}
    assert len(rows) == len(values)
    for v, row in zip(values, rows):
        want = _fresh_row(base._replace(**{axis: v}), v)
        assert _row_bits(row.value, row.first_max_c, row.t_first_max, row.c_at_t5, row.error) == want
    good = [r.first_max_c for r in rows if not r.error]
    assert len(set(good)) == len(good)
    if values is _MANY:
        assert any(r.error.startswith("unphysical trajectory") for r in rows)
        assert any(r.error.endswith("must be finite, got inf") for r in rows)


def test_sweep_allocates_one_workspace(monkeypatch):
    made = []
    workspace = scenarios.workspace
    monkeypatch.setattr(scenarios, "workspace", lambda grid: made.append(grid) or workspace(grid))
    rows = sweep(Scenario(grid=TimeGrid(0.0, 6.0, 601)), "delta", [0.0, 2.0, 4.0])
    assert all(r.error == "" for r in rows)
    assert made == [TimeGrid(0.0, 6.0, 601)]


def test_run_scenario_owns_its_arrays():
    a = run_scenario(Scenario(grid=TimeGrid(0.0, 3.0, 300)))
    kept = a.concurrence.copy()
    b = run_scenario(Scenario(delta=5.0, grid=TimeGrid(0.0, 3.0, 300)))
    assert not np.shares_memory(a.concurrence, b.concurrence)
    np.testing.assert_array_equal(a.concurrence, kept)
