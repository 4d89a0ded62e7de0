import math

import numpy as np
import pytest
from hypothesis import given, settings

from twoatom.statespace import (
    BellState4,
    BlockState,
    U_BELL,
    bell_to_matrix,
    block_to_matrix,
    block_violation,
    check_block,
    from_bell,
    from_collective,
    is_block_form,
    matrix_to_block,
    to_bell,
    to_collective,
    validate,
)

from conftest import block_states


def _close(a: BlockState, b: BlockState, tol=1e-12) -> bool:
    return (
        abs(a.r11 - b.r11) < tol
        and abs(a.r22 - b.r22) < tol
        and abs(a.r33 - b.r33) < tol
        and abs(a.r44 - b.r44) < tol
        and abs(a.r12 - b.r12) < tol
        and abs(a.r34 - b.r34) < tol
    )


def test_bell_matrix_is_unitary():
    assert np.max(np.abs(U_BELL @ U_BELL.conj().T - np.eye(4))) < 1e-15


class TestToBell:
    def test_phi_plus(self):
        p = to_bell(BlockState(r11=0.5, r22=0.5, r12=0.5))
        assert p.p11 == pytest.approx(1.0, abs=1e-14)
        assert abs(p.p22) < 1e-14 and abs(p.p33) < 1e-14 and abs(p.p44) < 1e-14
        assert abs(p.p12) < 1e-14 and abs(p.p34) < 1e-14

    def test_psi_minus(self):
        p = to_bell(BlockState(r33=0.5, r44=0.5, r34=-0.5))
        assert p.p44 == pytest.approx(1.0, abs=1e-14)

    def test_single_product_state_in_lower_block(self):
        p = to_bell(BlockState(r33=1.0))
        assert p.p33 == pytest.approx(0.5, abs=1e-14)
        assert p.p44 == pytest.approx(0.5, abs=1e-14)
        assert p.p34 == pytest.approx(-0.5, abs=1e-14)


class TestFromBell:
    def test_symmetric_bell_projector(self):
        b = from_bell(BellState4(p33=1.0))
        assert b.r33 == pytest.approx(0.5, abs=1e-14)
        assert b.r44 == pytest.approx(0.5, abs=1e-14)
        assert b.r34 == pytest.approx(0.5, abs=1e-14)

    @settings(max_examples=200)
    @given(block_states())
    def test_round_trip(self, b):
        assert _close(from_bell(to_bell(b)), b)

    def test_full_rank_round_trip(self, rng):
        pops = rng.dirichlet(np.ones(4))
        b = BlockState(
            r11=pops[0],
            r22=pops[1],
            r33=pops[2],
            r44=pops[3],
            r12=0.3 * np.sqrt(pops[0] * pops[1]) * np.exp(0.7j),
            r34=0.8 * np.sqrt(pops[2] * pops[3]) * np.exp(-1.1j),
        )
        assert _close(from_bell(to_bell(b)), b)


class TestCollectiveTransforms:
    def test_atom1_excited(self):
        c = to_collective(BlockState(r44=1.0))
        assert c.rss == pytest.approx(0.5)
        assert c.raa == pytest.approx(0.5)
        assert c.ras == pytest.approx(0.5 + 0j)

    def test_symmetric_state(self):
        c = to_collective(BlockState(r33=0.5, r44=0.5, r34=0.5))
        assert c.rss == pytest.approx(1.0)
        assert c.raa == pytest.approx(0.0, abs=1e-15)

    def test_antisymmetric_state(self):
        c = to_collective(BlockState(r33=0.5, r44=0.5, r34=-0.5))
        assert c.raa == pytest.approx(1.0)

    @settings(max_examples=200)
    @given(block_states())
    def test_round_trip(self, b):
        assert _close(from_collective(to_collective(b)), b)

    @settings(max_examples=100)
    @given(block_states())
    def test_trace_and_spectrum_preserved(self, b):
        m = block_to_matrix(b)
        mb = bell_to_matrix(to_bell(b))
        assert abs(np.trace(mb) - np.trace(m)) < 1e-12
        sm = np.sort(np.linalg.eigvalsh(m))
        sb = np.sort(np.linalg.eigvalsh(mb))
        assert np.max(np.abs(sm - sb)) < 1e-10

    def test_collective_trace(self):
        c = to_collective(BlockState(r11=0.1, r22=0.2, r33=0.3, r44=0.4))
        assert c.rgg + c.ree + c.rss + c.raa == pytest.approx(1.0, abs=1e-12)


class TestValidate:
    def test_maximally_mixed(self):
        d = validate(np.eye(4) / 4.0)
        assert d.valid
        assert d.hermiticity_residual == 0.0
        assert d.trace_residual == 0.0
        assert d.min_eigenvalue == pytest.approx(0.25)

    def test_ground_state(self):
        assert validate(np.diag([1.0, 0, 0, 0]).astype(complex)).valid

    def test_negative_population_flagged(self):
        d = validate(np.diag([1.5, -0.5, 0, 0]).astype(complex))
        assert not d.positive
        assert d.hermitian and d.unit_trace
        assert not d.valid


class TestIsBlockForm:
    def test_block_matrix(self):
        assert is_block_form(block_to_matrix(BlockState(r11=0.5, r22=0.5, r12=0.4j)))

    def test_cross_entry_detected(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 2] = m[2, 0] = 0.1
        assert not is_block_form(m)


def test_matrix_block_round_trip():
    b = BlockState(r11=0.4, r22=0.1, r33=0.2, r44=0.3, r12=0.1j, r34=0.05 - 0.1j)
    assert matrix_to_block(block_to_matrix(b)) == b


def test_check_block_rejects_bad_trace():
    with pytest.raises(ValueError):
        check_block(BlockState(r11=0.7, r22=0.7))


def test_check_block_rejects_overlarge_coherence():
    with pytest.raises(ValueError):
        check_block(BlockState(r11=0.5, r22=0.5, r12=0.6))


@pytest.mark.parametrize(
    "entry",
    [{"r12": complex(0.0, math.inf)}, {"r34": complex(math.nan, 0.0)}, {"r34": complex(0.0, -math.inf)}],
)
def test_block_violation_names_a_non_finite_coherence(entry):
    assert block_violation(BlockState(r11=1.0, **entry)) == "non-finite entry"


INSIDE, OUTSIDE = 0.5e-9, 2e-9  # within and beyond the 1e-9 tolerances


@pytest.mark.parametrize(
    "what,state",
    [
        ("populations do not sum to 1", lambda e: BlockState(r11=1.0 + e)),
        ("negative population", lambda e: BlockState(r11=-e, r22=1.0 + e)),
        ("upper-block coherence violates positivity",
         lambda e: BlockState(r11=0.5, r22=0.5, r12=math.sqrt(0.25 + e))),
        ("lower-block coherence violates positivity",
         lambda e: BlockState(r33=0.5, r44=0.5, r34=1j * math.sqrt(0.25 + e))),
    ],
)
def test_block_violation_tolerances(what, state):
    assert block_violation(state(INSIDE)) == ""
    assert block_violation(state(OUTSIDE)) == what
