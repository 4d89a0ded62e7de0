import math

import numpy as np
import pytest
from hypothesis import given, settings

from twoatom.dynamics import (
    AtomPairParams,
    DickeSingularityError,
    evolve_analytic,
)
from twoatom.entanglement import (
    block_report,
    closed_form_C2_double,
    closed_form_C2_single,
    closed_form_N2_single,
    concurrence_bell_form,
    negativity_generic,
    partial_transpose_atom1,
    relation_negativity,
    wootters_generic,
)
from twoatom.statespace import (
    BlockState,
    block_to_matrix,
    to_bell,
    to_collective,
    from_collective,
)

from conftest import block_states, random_pure_block_states

PARAMS = AtomPairParams(gamma12=0.95, omega12=4.65)

SYMMETRIC_BELL = BlockState(r33=0.5, r44=0.5, r34=0.5)
ANTISYMMETRIC_BELL = BlockState(r33=0.5, r44=0.5, r34=-0.5)
MAXIMALLY_MIXED = BlockState(r11=0.25, r22=0.25, r33=0.25, r44=0.25)


class TestBlockClosedForms:
    def test_bell_state_concurrence_unity(self):
        assert block_report(SYMMETRIC_BELL).concurrence == pytest.approx(1.0)

    def test_maximally_mixed_separable(self):
        rep = block_report(MAXIMALLY_MIXED)
        assert rep.concurrence == 0.0
        assert rep.negativity == 0.0

    def test_partial_coherence(self):
        rep = block_report(BlockState(r33=0.5, r44=0.5, r34=0.25))
        assert rep.concurrence == pytest.approx(0.5)
        assert rep.c2 == pytest.approx(0.5)

    def test_antisymmetric_negativity_unity(self):
        assert block_report(ANTISYMMETRIC_BELL).negativity == pytest.approx(1.0)

    def test_product_state_unentangled(self):
        rep = block_report(BlockState(r11=1.0))
        assert rep.concurrence == 0.0 and rep.negativity == 0.0

    def test_partial_coherence_negativity(self):
        # here the unexcited block is empty and N collapses to C
        rep = block_report(BlockState(r33=0.5, r44=0.5, r34=0.25))
        assert rep.negativity == pytest.approx(0.5)
        m = block_to_matrix(BlockState(r33=0.5, r44=0.5, r34=0.25))
        assert negativity_generic(m) == pytest.approx(0.5, abs=1e-12)


class TestRelationNegativity:
    def test_pure_bell_state(self):
        rep = block_report(SYMMETRIC_BELL)
        assert relation_negativity(rep, SYMMETRIC_BELL) == pytest.approx(1.0)

    def test_zero_branch(self):
        b = BlockState(r11=0.5, r33=0.25, r44=0.25)
        rep = block_report(b)
        assert rep.concurrence == 0.0
        assert relation_negativity(rep, b) == 0.0

    @settings(max_examples=300)
    @given(block_states())
    def test_matches_direct_closed_form(self, b):
        rep = block_report(b)
        assert relation_negativity(rep, b) == pytest.approx(
            rep.negativity, abs=1e-12
        )


class TestGenericOracles:
    def test_wootters_two_photon_bell(self):
        b = BlockState(r11=0.5, r22=0.5, r12=0.5)
        assert wootters_generic(block_to_matrix(b)) == pytest.approx(1.0, abs=1e-10)

    def test_wootters_product_state(self):
        for b in (BlockState(r11=1.0), BlockState(r44=1.0)):
            assert wootters_generic(block_to_matrix(b)) < 1e-10

    def test_negativity_antisymmetric(self):
        m = block_to_matrix(ANTISYMMETRIC_BELL)
        assert negativity_generic(m) == pytest.approx(1.0, abs=1e-12)

    def test_negativity_maximally_mixed(self):
        assert negativity_generic(np.eye(4, dtype=complex) / 4.0) == 0.0

    def test_partial_transpose_block_structure(self):
        b = BlockState(
            r11=0.4, r22=0.1, r33=0.3, r44=0.2, r12=0.15 + 0.05j, r34=0.1 - 0.2j
        )
        m = block_to_matrix(b)
        pt = partial_transpose_atom1(m)
        # the transpose swaps the coherences between the blocks
        assert pt[0, 1] == np.conj(b.r34)
        assert pt[1, 0] == b.r34
        assert pt[2, 3] == np.conj(b.r12)
        assert pt[3, 2] == b.r12
        assert np.allclose(np.diag(pt), np.diag(m))

    @settings(max_examples=300)
    @given(block_states())
    def test_closed_forms_match_oracles(self, b):
        # the oracle takes the spin-flip roots as singular values, so no
        # square root of eigensolver noise enters even for rank-deficient
        # states; they agree to about 1e-15
        m = block_to_matrix(b)
        rep = block_report(b)
        assert rep.concurrence == pytest.approx(wootters_generic(m), abs=1e-12)
        assert rep.negativity == pytest.approx(negativity_generic(m), abs=1e-10)

    @settings(max_examples=200)
    @given(block_states())
    def test_measure_ordering_and_exclusivity(self, b):
        rep = block_report(b)
        assert rep.negativity <= rep.concurrence + 1e-12
        assert not (rep.c1 > 0.0 and rep.c2 > 0.0)
        assert rep.c1_plus >= abs(rep.c1) - 1e-15
        assert rep.c2_plus >= abs(rep.c2) - 1e-15

    def test_pure_states_measures_agree(self, rng):
        for b in random_pure_block_states(rng, 200):
            rep = block_report(b)
            assert abs(rep.negativity - rep.concurrence) < 1e-10

    def test_local_phase_invariance(self, rng):
        b = BlockState(
            r11=0.3, r22=0.2, r33=0.3, r44=0.2, r12=0.1 + 0.1j, r34=-0.05 + 0.2j
        )
        m = block_to_matrix(b)
        c0, n0 = wootters_generic(m), negativity_generic(m)
        for _ in range(20):
            f1, f2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
            u = np.diag(
                [1.0, np.exp(1j * (f1 + f2)), np.exp(1j * f2), np.exp(1j * f1)]
            )
            mr = u @ m @ u.conj().T
            assert wootters_generic(mr) == pytest.approx(c0, abs=1e-12)
            assert negativity_generic(mr) == pytest.approx(n0, abs=1e-12)


class TestBellBasisForms:
    def test_bell_projectors(self):
        c1, c2 = concurrence_bell_form(to_bell(SYMMETRIC_BELL))
        assert max(c1, c2) == pytest.approx(1.0, abs=1e-12)
        c1, c2 = concurrence_bell_form(to_bell(BlockState(r11=0.5, r22=0.5, r12=0.5)))
        assert max(c1, c2) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200)
    @given(block_states())
    def test_matches_block_branches(self, b):
        # a population far below the ulp of its block's trace survives in
        # to_bell's extended-precision entries; where np.longdouble is plain
        # double it is rounded away and a branch can be off by ~1e-8
        rep = block_report(b)
        c1, c2 = concurrence_bell_form(to_bell(b))
        assert c1 == pytest.approx(rep.c1, abs=1e-9)
        assert c2 == pytest.approx(rep.c2, abs=1e-9)


class TestSingleExcitationClosedForms:
    def test_starts_unentangled(self):
        assert closed_form_C2_single(PARAMS, 0.0) == 0.0
        assert closed_form_N2_single(PARAMS, 0.0) == 0.0

    def test_first_maximum(self):
        p = AtomPairParams(gamma12=0.9459687343404735, omega12=4.652110961561577)
        t = np.linspace(0.0, 3.0, 30_000)
        c = closed_form_C2_single(p, t)
        assert float(c.max()) == pytest.approx(0.86, abs=0.01)
        assert 2.0 * p.omega12 * t[int(c.argmax())] == pytest.approx(
            math.pi / 2, abs=0.15
        )

    def test_touches_upper_envelope(self):
        # where the oscillatory factor is exactly 1 the value must sit on the
        # envelope rss + raa; the cross term collapses algebraically because
        # exp(-2 g t) is the product of the two envelope exponentials
        p = PARAMS
        t = math.pi / (4.0 * p.omega12)  # sin(2 omega12 t) = 1
        c = float(closed_form_C2_single(p, t))
        a = math.exp(-(1.0 + p.gamma12) * t)
        b = math.exp(-(1.0 - p.gamma12) * t)
        assert c == pytest.approx(0.5 * (a + b), abs=1e-14)
        state = evolve_analytic(to_collective(BlockState(r44=1.0)), p, t)
        assert c == pytest.approx(state.rss + state.raa, abs=1e-12)

    def test_matches_trajectory_report(self):
        c0 = to_collective(BlockState(r44=1.0))
        for t in np.linspace(0.0, 6.0, 100):
            state = evolve_analytic(c0, PARAMS, float(t))
            rep = block_report(from_collective(state))
            assert float(closed_form_C2_single(PARAMS, t)) == pytest.approx(
                rep.concurrence, abs=1e-12
            )
            assert float(closed_form_N2_single(PARAMS, t)) == pytest.approx(
                rep.negativity, abs=1e-9
            )

    def test_negativity_below_concurrence(self):
        t = np.linspace(0.0, 8.0, 500)
        assert np.all(
            closed_form_N2_single(PARAMS, t) <= closed_form_C2_single(PARAMS, t) + 1e-12
        )


class TestDoubleExcitationClosedForm:
    def test_starts_unentangled(self):
        assert float(closed_form_C2_double(PARAMS, 0.0)) == pytest.approx(0.0, abs=1e-15)

    def test_negative_then_positive(self):
        t = np.linspace(0.0, 10.0, 2000)
        c2 = closed_form_C2_double(PARAMS, t)
        assert np.all(c2[(t > 0.05) & (t < 2.0)] < 0.0)
        assert np.any(c2[t > 5.0] > 0.0)

    def test_matches_trajectory_report(self):
        c0 = to_collective(BlockState(r22=1.0))
        for t in np.linspace(0.0, 10.0, 200):
            state = evolve_analytic(c0, PARAMS, float(t))
            rep = block_report(from_collective(state))
            assert float(closed_form_C2_double(PARAMS, t)) == pytest.approx(
                rep.c2, abs=1e-10
            )

    def test_dicke_point_refused(self):
        with pytest.raises(DickeSingularityError):
            closed_form_C2_double(AtomPairParams(gamma12=1.0), 1.0)


class TestEntangledStateDecayLaw:
    @pytest.mark.parametrize(
        "initial,rate",
        [
            (ANTISYMMETRIC_BELL, 0.05),
            (SYMMETRIC_BELL, 1.95),
        ],
    )
    def test_concurrence_equals_population(self, initial, rate):
        c0 = to_collective(initial)
        for t in np.linspace(0.0, 10.0, 200):
            state = evolve_analytic(c0, PARAMS, float(t))
            rep = block_report(from_collective(state))
            assert rep.concurrence == pytest.approx(math.exp(-rate * t), abs=1e-12)
