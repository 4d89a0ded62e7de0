"""The record kernel against its oracles.

``scenarios.record_from_state`` maps the propagator's rows straight to the
output columns in real arithmetic.  Its oracle is the chain it replaced on
the run path: the rows as a ``CollectiveState`` (``conftest.collective``),
``from_collective``, ``block_report`` for the measures and
``block_violation`` plus N <= C for the invariants.  Both must agree bit
for bit, and a broken trajectory must be refused with the same invariant
and index.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twoatom.scenarios as scenarios
from twoatom.dynamics import InvariantError, TimeGrid, evolve_block_ode, total_spin_squared
from twoatom.entanglement import block_report
from twoatom.scenarios import Scenario, record_from_state, run_scenario, sweep
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


def _assert_same_bits(t, ys) -> None:
    traj = record_from_state(t, ys)
    assert traj.t is t
    for name, want in _oracle_columns(ys).items():
        np.testing.assert_array_equal(_bits(getattr(traj, name)), _bits(want), err_msg=name)


def _scenario(initial, custom, gamma12, omega12, delta, t_start, span, n) -> Scenario:
    return Scenario(
        initial=initial,
        custom_state=custom,
        gamma12=gamma12,
        omega12=omega12,
        delta=delta,
        grid=TimeGrid(t_start, t_start + span, n),
    )


def _rows(s: Scenario) -> np.ndarray:
    return evolve_block_ode(to_collective(s.initial_block()), s.params(), s.grid)


class TestSameBitsAsTheOracles:
    @pytest.mark.parametrize("gamma12", [1.0, -1.0])
    @pytest.mark.parametrize("initial", [*scenarios.INITIAL_STATES])
    def test_dicke_points(self, initial, gamma12):
        s = _scenario(initial, None, gamma12, 0.0, 0.0, 0.0, 8.0, 801)
        _assert_same_bits(s.grid.times(), _rows(s))

    def test_figures(self):
        for s in scenarios.FIGURE_SCENARIOS.values():
            _assert_same_bits(s.grid.times(), _rows(s))

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
            _assert_same_bits(s.grid.times(), _rows(s))

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
        _assert_same_bits(s.grid.times(), _rows(s))


# ---------------------------------------------------------------------------
# one broken row set per invariant; the break sits at indices 4 and 6, so the
# first must be named

N_POINTS = 9
_VALID = (0.1, 0.3, 0.4, 0.05, 0.02, 0.01, 0.0)  # ree, rss, raa, Re ras, Im ras, Re reg, Im reg


def _broken(column) -> np.ndarray:
    ys = np.tile(np.array(_VALID)[:, None], N_POINTS)
    for k in (4, 6):
        for row, value in column.items():
            ys[row, k] = value
    return ys


BROKEN = {
    # Im reg enters only the imaginary part of r12
    "non-finite entry": [{4: math.nan}, {3: math.inf}, {5: -math.inf}, {6: math.inf}],
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

    monkeypatch.setattr(scenarios, "evolve_block_ode", lambda c0, p, grid, out=None: ys)
    with pytest.raises(InvariantError, match=f": {what} at index 4$"):
        run_scenario(Scenario(grid=TimeGrid(0.0, 1.0, N_POINTS)))
    (row,) = sweep(Scenario(grid=TimeGrid(0.0, 1.0, N_POINTS)), "x", [1.0])
    assert row.error.endswith(f": {what} at index 4")


VALID = {
    "plain": {},
    "ras_both_negative_zero": {3: -0.0, 4: -0.0},
    "re_ras_negative_zero": {3: -0.0, 4: 0.0},
    "im_ras_negative_zero": {3: 0.0, 4: -0.0},
    "reg_negative_zero": {5: -0.0, 6: -0.0},
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


def test_sweep_rows_do_not_alias_the_workspace():
    # a good row, an error row, two more good rows; the grid ends before t = 5,
    # so every good row also propagates C(5) on a grid of its own
    base = Scenario(grid=TimeGrid(0.0, 4.0, 801))
    values = [0.3, 1.5, -0.6, 0.9]
    rows = sweep(base, "gamma12", values)
    assert [r.value for r in rows] == values
    for v, row in zip(values, rows):
        s = replace(base, gamma12=v)
        if v == 1.5:
            with pytest.raises(ValueError) as exc:
                run_scenario(s)
            assert row.error == str(exc.value)
            assert all(math.isnan(x) for x in (row.first_max_c, row.t_first_max, row.c_at_t5))
            continue
        traj = run_scenario(s)
        cmax, tmax = scenarios._first_maximum(traj.t, traj.concurrence)
        c5 = run_scenario(replace(s, grid=TimeGrid(0.0, 5.0, 2))).concurrence[1]
        assert (row.first_max_c, row.t_first_max, row.c_at_t5, row.error) == (cmax, tmax, c5, "")
    assert len({r.first_max_c for r in rows if not r.error}) == 3


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
