import cmath
import math

import numpy as np
import pytest

from scipy.integrate import solve_ivp
from scipy.linalg import expm as scipy_expm

from twoatom.dynamics import (
    MAX_POINTS,
    STATE_ROWS,
    AtomPairParams,
    DickeSingularityError,
    TimeGrid,
    _squarings,
    evolve_analytic,
    evolve_block_ode,
    evolve_full_master,
    expm,
    generator,
    lindblad_generator,
    total_spin_squared,
)
from twoatom.entanglement import block_report
from twoatom.scenarios import FIGURE_SCENARIOS, Scenario, run_scenario
from twoatom.statespace import (
    BlockState,
    CollectiveState,
    block_to_matrix,
    from_collective,
    is_block_form,
    matrix_to_block,
    to_collective,
    validate,
)

from conftest import collective, state_at

PARAMS = AtomPairParams(gamma12=0.95, omega12=4.65)

ANTISYMMETRIC = CollectiveState(raa=1.0)
SYMMETRIC = CollectiveState(rss=1.0)
BOTH_EXCITED = CollectiveState(ree=1.0)
ATOM1_EXCITED = to_collective(BlockState(r44=1.0))


def _components(c: CollectiveState) -> np.ndarray:
    return np.array(
        [c.rgg, c.ree, c.rss, c.raa, c.reg.real, c.reg.imag, c.ras.real, c.ras.imag]
    )


def _modulus(c: CollectiveState) -> CollectiveState:
    """c as ``evolve_block_ode`` carries it: reg by its modulus."""
    return c._replace(reg=abs(c.reg))


class TestEvolveAnalytic:
    def test_antisymmetric_decay(self):
        c = evolve_analytic(ANTISYMMETRIC, PARAMS, 1.0)
        assert c.raa == pytest.approx(math.exp(-0.05), abs=1e-6)

    def test_identity_at_t0(self):
        c0 = to_collective(BlockState(r44=0.6, r33=0.2, r22=0.2, r34=0.1j))
        c = evolve_analytic(c0, PARAMS, 0.0)
        assert np.allclose(_components(c), _components(c0), atol=1e-15)

    def test_symmetric_feeding_from_double_excitation(self):
        c = evolve_analytic(BOTH_EXCITED, PARAMS, 3.0)
        expected = (1.95 / 0.05) * (math.exp(-5.85) - math.exp(-6.0))
        assert c.rss == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.01565, abs=2e-5)

    def test_dicke_singularity_refused(self):
        dicke = AtomPairParams(gamma12=1.0)
        with pytest.raises(DickeSingularityError):
            evolve_analytic(BOTH_EXCITED, dicke, 1.0)
        anti_dicke = AtomPairParams(gamma12=-1.0)
        with pytest.raises(DickeSingularityError):
            evolve_analytic(BOTH_EXCITED, anti_dicke, 1.0)

    def test_dicke_point_fine_without_double_excitation(self):
        dicke = AtomPairParams(gamma12=1.0)
        c = evolve_analytic(ANTISYMMETRIC, dicke, 2.0)
        assert c.raa == pytest.approx(1.0)  # fully subradiant

    def test_requires_zero_detuning(self):
        with pytest.raises(ValueError):
            evolve_analytic(ANTISYMMETRIC, AtomPairParams(delta=1.0), 1.0)


class TestExpm:
    def test_matches_scipy_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for scale in (1e-3, 0.5, 3.0, 20.0):
            a = scale * rng.normal(size=(7, 7))
            want = scipy_expm(a)
            assert np.max(np.abs(expm(a) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_defective_jordan_block(self):
        # exp(t [[l, 1], [0, l]]) = exp(l t) [[1, t], [0, 1]]
        lam, t = -2.0, 3.0
        out = expm(t * np.array([[lam, 1.0], [0.0, lam]]))
        want = math.exp(lam * t) * np.array([[1.0, t], [0.0, 1.0]])
        assert np.max(np.abs(out - want)) < 1e-15

    def test_generator_matches_scipy_at_both_dicke_points(self):
        for g12 in (1.0, -1.0, 0.95):
            a = generator(AtomPairParams(gamma12=g12, omega12=4.65, delta=3.0))
            for t in (1e-3, 0.7, 40.0):
                assert np.max(np.abs(expm(a * t) - scipy_expm(a * t))) < 1e-13

    def test_non_finite_matrix_gives_nan(self):
        assert np.all(np.isnan(expm(np.array([[np.inf, 0.0], [0.0, 1.0]]))))

    def test_each_matrix_of_a_stack_has_the_bits_of_its_own_call(self):
        rng = np.random.default_rng(11)
        mats = [
            scale * rng.normal(size=(STATE_ROWS, STATE_ROWS))
            for scale in (1e-3, 0.5, 3.0, 40.0, 1e4)
        ]
        for g12 in (1.0, -1.0):  # the generator at both Dicke points
            a = generator(AtomPairParams(gamma12=g12, omega12=4.65, delta=3.0))
            mats += [a * 1e-3, a * 40.0]
        stack = np.stack(mats)
        squarings = [_squarings(norm) for norm in np.abs(stack).sum(axis=1).max(axis=1)]
        assert min(squarings) == 0
        assert any(1 <= k <= 4 for k in squarings)
        assert max(squarings) >= 10
        nested = expm(stack.reshape(3, 3, STATE_ROWS, STATE_ROWS)).reshape(stack.shape)
        for out in (expm(stack), nested):
            for a, got in zip(mats, out):
                np.testing.assert_array_equal(got.view(np.uint64), expm(a).view(np.uint64))

    def test_non_finite_matrix_in_a_stack_gives_nan_in_its_place_only(self):
        a = generator(PARAMS)
        stack = np.stack([a, a * 40.0, a, a * 1e-3])
        stack[2, 3, 4] = np.inf
        out = expm(stack)
        assert np.all(np.isnan(out[2]))
        for k in (0, 1, 3):
            np.testing.assert_array_equal(out[k].view(np.uint64), expm(stack[k]).view(np.uint64))


class TestEvolveBlockOde:
    def test_matches_analytic_for_identical_atoms(self):
        grid = TimeGrid(0.0, 10.0, 201)
        states = collective(evolve_block_ode(ATOM1_EXCITED, PARAMS, grid))
        for k, t in enumerate(grid.times()):
            ref = evolve_analytic(ATOM1_EXCITED, PARAMS, t)
            assert np.max(np.abs(_components(state_at(states, k)) - _components(ref))) < 1e-8

    def test_single_point_grid_is_initial_state(self):
        grid = TimeGrid(0.0, 1e-12, 2)
        states = collective(evolve_block_ode(ATOM1_EXCITED, PARAMS, grid))
        assert np.allclose(
            _components(state_at(states, 0)), _components(ATOM1_EXCITED), atol=1e-12
        )

    def test_state_is_prepared_at_time_zero(self):
        grid = TimeGrid(1.0, 2.0, 3)
        c0 = to_collective(BlockState(r22=0.3, r44=0.7, r12=0.1j))
        states = collective(evolve_block_ode(c0, PARAMS, grid))
        mats = evolve_full_master(block_to_matrix(from_collective(c0)), PARAMS, grid)
        for k, t in enumerate(grid.times()):
            ref = evolve_analytic(c0, PARAMS, float(t))
            ode = _components(state_at(states, k)) - _components(_modulus(ref))
            assert np.max(np.abs(ode)) < 1e-13
            cm = to_collective(matrix_to_block(mats[k]))
            assert np.max(np.abs(_components(cm) - _components(ref))) < 1e-8

    def test_detuning_transfers_population_in_antiphase(self):
        p = AtomPairParams(gamma12=0.95, omega12=4.65, delta=10.0)
        grid = TimeGrid(0.0, 2.0, 2001)
        states = collective(evolve_block_ode(ATOM1_EXCITED, p, grid))
        rss, raa = states.rss, states.raa
        # the exchange oscillation adds up in the difference and cancels in
        # the sum, so the sum must be far smoother than the difference
        wiggle = lambda y: float(np.abs(np.diff(y, 2)).sum())
        assert wiggle(raa - rss) > 10.0 * wiggle(raa + rss)
        # and it genuinely moves population back and forth
        assert np.sum(np.diff(np.sign(np.diff(rss))) != 0) >= 4

    def test_dicke_point_supported(self):
        dicke = AtomPairParams(gamma12=1.0)
        grid = TimeGrid(0.0, 5.0, 101)
        states = collective(evolve_block_ode(BOTH_EXCITED, dicke, grid))
        # the antisymmetric state stays empty at the small-sample point
        assert np.max(np.abs(states.raa)) < 1e-9

    def test_anti_dicke_point_matches_master_equation(self):
        anti = AtomPairParams(gamma12=-1.0)
        grid = TimeGrid(0.0, 5.0, 101)
        states = collective(evolve_block_ode(BOTH_EXCITED, anti, grid))
        mats = evolve_full_master(block_to_matrix(BlockState(r22=1.0)), anti, grid)
        for k, m in enumerate(mats):
            cm = to_collective(matrix_to_block(m))
            assert np.max(np.abs(_components(cm) - _components(state_at(states, k)))) < 1e-8
        # now the symmetric state is the one that stays empty
        assert np.max(np.abs(states.rss)) < 1e-9

    def test_trace_preserved(self):
        grid = TimeGrid(0.0, 10.0, 101)
        c = collective(evolve_block_ode(BOTH_EXCITED, PARAMS, grid))
        total = c.rgg + c.ree + c.rss + c.raa
        assert np.max(np.abs(total - 1.0)) <= 1e-9


class TestEvolveFullMaster:
    @pytest.mark.parametrize(
        "grid",
        [FIGURE_SCENARIOS["fig5"].grid, TimeGrid(1.5, 4.0, 700)],
        ids=["fig5", "t_start"],
    )
    def test_matches_rk45(self, grid):
        # the fig5 scenario (delta = 10), integrated by RK45 from t = 0
        fig5 = FIGURE_SCENARIOS["fig5"]
        p = fig5.params()
        m0 = block_to_matrix(fig5.initial_block())
        gen = lindblad_generator(p)
        sol = solve_ivp(
            lambda t, y: gen(y.reshape(4, 4)).ravel(),
            (0.0, grid.t_end),
            m0.ravel(),
            t_eval=grid.times(),
            method="RK45",
            rtol=1e-10,
            atol=1e-12,
        )
        assert sol.success, sol.message
        mats = evolve_full_master(m0, p, grid)
        assert mats.shape == (grid.n_points, 4, 4)
        assert np.max(np.abs(mats - sol.y.T.reshape(-1, 4, 4))) < 1e-9

    def test_block_form_preserved(self):
        m0 = block_to_matrix(BlockState(r22=0.5, r44=0.5, r34=0.0))
        grid = TimeGrid(0.0, 5.0, 51)
        for m in evolve_full_master(m0, PARAMS, grid):
            assert is_block_form(m, tol=1e-9)

    def test_ground_state_stationary(self):
        m0 = np.diag([1.0, 0, 0, 0]).astype(complex)
        grid = TimeGrid(0.0, 10.0, 21)
        for m in evolve_full_master(m0, PARAMS, grid):
            assert np.max(np.abs(m - m0)) < 1e-10

    def test_matches_block_ode(self):
        m0 = block_to_matrix(BlockState(r44=1.0))
        grid = TimeGrid(0.0, 5.0, 101)
        mats = evolve_full_master(m0, PARAMS, grid)
        states = collective(evolve_block_ode(ATOM1_EXCITED, PARAMS, grid))
        for k, m in enumerate(mats):
            cm = to_collective(matrix_to_block(m))
            assert np.max(np.abs(_components(cm) - _components(state_at(states, k)))) < 1e-7

    def test_matches_block_ode_with_detuning(self):
        p = AtomPairParams(gamma12=0.9, omega12=2.0, delta=5.0)
        m0 = block_to_matrix(BlockState(r44=1.0))
        grid = TimeGrid(0.0, 3.0, 61)
        mats = evolve_full_master(m0, p, grid)
        states = collective(evolve_block_ode(to_collective(matrix_to_block(m0)), p, grid))
        for k, m in enumerate(mats):
            cm = to_collective(matrix_to_block(m))
            assert np.max(np.abs(_components(cm) - _components(state_at(states, k)))) < 1e-7

    def test_state_stays_physical(self):
        m0 = block_to_matrix(BlockState(r22=1.0))
        grid = TimeGrid(0.0, 10.0, 51)
        for m in evolve_full_master(m0, PARAMS, grid):
            d = validate(m)
            assert d.hermiticity_residual < 1e-9
            assert d.trace_residual < 1e-9
            assert d.min_eigenvalue > -1e-8

    def test_nonblock_initial_state_supported(self):
        # coherence between the two blocks decays but evolves consistently
        m0 = np.full((4, 4), 0.25, dtype=complex)  # projector onto equal superposition
        grid = TimeGrid(0.0, 2.0, 21)
        mats = evolve_full_master(m0, PARAMS, grid)
        assert not is_block_form(mats[1])
        d = validate(mats[-1])
        assert d.trace_residual < 1e-9 and d.min_eigenvalue > -1e-8


class TestDecayStructure:
    def test_superradiant_vs_subradiant_ordering(self):
        c0 = CollectiveState(rss=0.5, raa=0.5)
        for t in np.linspace(0.01, 10.0, 50):
            c = evolve_analytic(c0, PARAMS, float(t))
            assert c.rss <= c.raa

    @pytest.mark.parametrize("delta", [0.0, 3.0])
    def test_no_output_depends_on_the_phase_of_reg(self, delta):
        # states that differ only in arg(r12) = -arg(reg)
        grid = TimeGrid(0.0, 4.0, 401)
        states = [
            BlockState(r11=0.3, r22=0.3, r33=0.1, r44=0.3, r12=r12, r34=0.05 - 0.1j)
            for r12 in (0.2, 0.2j, -0.2, 0.2 * cmath.exp(0.7j))
        ]
        assert {abs(b.r12) for b in states} == {0.2}
        runs, reports = [], []
        for b in states:
            s = Scenario(initial=b, gamma12=0.95, omega12=4.65, delta=delta, grid=grid)
            runs.append(run_scenario(s))
            m = evolve_full_master(block_to_matrix(b), s.params(), grid)
            reports.append(block_report(BlockState(
                m[:, 0, 0].real, m[:, 1, 1].real, m[:, 2, 2].real, m[:, 3, 3].real,
                m[:, 0, 1], m[:, 2, 3],
            )))
        # the r12 branch carries the concurrence at first
        assert reports[0].c1[0] > 0.0
        for run, rep in zip(runs[1:], reports[1:]):
            for name, column in run._asdict().items():
                np.testing.assert_array_equal(
                    column.view(np.uint64), getattr(runs[0], name).view(np.uint64), err_msg=name
                )
            # the oracle propagates the complex reg: the physical reason
            # the phase can be dropped
            for name, column in rep._asdict().items():
                np.testing.assert_allclose(
                    column, getattr(reports[0], name), rtol=0.0, atol=1e-12, err_msg=name
                )


class TestTotalSpinSquared:
    @pytest.mark.parametrize(
        "raa,expected", [(1.0, 0.0), (0.0, 2.0), (0.5, 1.0)]
    )
    def test_values(self, raa, expected):
        assert total_spin_squared(CollectiveState(raa=raa)) == expected

    def test_conserved_only_at_small_sample_point(self):
        dicke = AtomPairParams(gamma12=1.0)
        grid = TimeGrid(0.0, 5.0, 101)
        s2 = total_spin_squared(collective(evolve_block_ode(BOTH_EXCITED, dicke, grid)))
        assert np.max(np.abs(s2 - 2.0)) < 1e-9

        s2_ext = [
            total_spin_squared(evolve_analytic(ANTISYMMETRIC, PARAMS, float(t)))
            for t in grid.times()
        ]
        assert np.all(np.diff(s2_ext) > 0.0)
        assert s2_ext[-1] < 2.0
        late = total_spin_squared(evolve_analytic(ANTISYMMETRIC, PARAMS, 300.0))
        assert late == pytest.approx(2.0, abs=1e-6)


class TestTimeGridValidation:
    def test_bad_grids(self):
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 1.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, MAX_POINTS + 1)
        for t_start, t_end in ((0.0, math.inf), (math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(ValueError):
                TimeGrid(t_start, t_end, 10)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            AtomPairParams(gamma12=1.5)
        for name in ("gamma12", "omega12", "delta"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError):
                    AtomPairParams(**{name: bad})
