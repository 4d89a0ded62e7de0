"""Acceptance suite: one test per criterion, each prints its own verdict."""
import math

import numpy as np
import pytest

from twoatom.couplings import Geometry, collective_damping, rates_from_geometry
from twoatom.dynamics import (
    AtomPairParams,
    TimeGrid,
    evolve_analytic,
    evolve_block_ode,
    evolve_full_master,
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
)

from conftest import (
    collective,
    random_block_states,
    random_pure_block_states,
    state_at,
)

SEED = 987654321

GEOM = Geometry(x=math.pi / 6, mu_dot_r=0.0)
RATES = rates_from_geometry(GEOM)
PARAMS = AtomPairParams(gamma12=RATES.gamma12, omega12=RATES.omega12)


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{label}: {status}{suffix}")
    assert ok, f"{label} failed{suffix}"


def _batched_concurrence(mats: np.ndarray) -> np.ndarray:
    """Vectorized spin-flip concurrence for a stack of 4x4 matrices."""
    flip = np.array(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    w, v = np.linalg.eigh(mats)
    w = np.clip(w, 0.0, None)
    sqrt_rho = (v * np.sqrt(w)[:, None, :]) @ np.conj(np.swapaxes(v, -1, -2))
    tilde = flip @ np.conj(mats) @ flip
    lam = np.linalg.eigvalsh(sqrt_rho @ tilde @ sqrt_rho)
    roots = np.sqrt(np.clip(lam, 0.0, None))[:, ::-1]
    return np.maximum(0.0, roots[:, 0] - roots[:, 1] - roots[:, 2] - roots[:, 3])


def _batched_negativity(mats: np.ndarray) -> np.ndarray:
    pt = np.empty_like(mats)
    bits = ((0, 0), (1, 1), (0, 1), (1, 0))
    index = {b: k for k, b in enumerate(bits)}
    for r, (a, b) in enumerate(bits):
        for c, (ap, bp) in enumerate(bits):
            pt[:, r, c] = mats[:, index[(ap, b)], index[(a, bp)]]
    mu = np.linalg.eigvalsh(pt)
    return np.maximum(0.0, -2.0 * np.where(mu < 0.0, mu, 0.0).sum(axis=1))


def _stack(pops, r12, r34) -> np.ndarray:
    n = len(r12)
    mats = np.zeros((n, 4, 4), dtype=complex)
    mats[:, 0, 0] = pops[:, 0]
    mats[:, 1, 1] = pops[:, 1]
    mats[:, 2, 2] = pops[:, 2]
    mats[:, 3, 3] = pops[:, 3]
    mats[:, 0, 1] = r12
    mats[:, 1, 0] = np.conj(r12)
    mats[:, 2, 3] = r34
    mats[:, 3, 2] = np.conj(r34)
    return mats


def test_ac01_collective_damping_at_sixth_wavelength():
    value = collective_damping(GEOM)
    _verdict(
        "AC-01 collective damping at x=pi/6",
        abs(value - 0.947) <= 0.005,
        f"gamma12 = {value:.6f}",
    )


def test_ac02_first_maximum_single_excitation():
    assert RATES.omega12 == pytest.approx(4.65, abs=0.01)
    cmax = float(run_scenario(FIGURE_SCENARIOS["fig2"]).concurrence.max())
    _verdict(
        "AC-02 first maximum, one atom excited",
        abs(cmax - 0.86) <= 0.01,
        f"max C = {cmax:.4f}",
    )


def test_ac03_first_maximum_nonidentical_atoms():
    cmax2 = float(run_scenario(FIGURE_SCENARIOS["fig2"]).concurrence.max())
    cmax5 = float(run_scenario(FIGURE_SCENARIOS["fig5"]).concurrence.max())
    _verdict(
        "AC-03 first maximum, detuned atoms",
        abs(cmax5 - 0.88) <= 0.01 and cmax5 > cmax2,
        f"max C = {cmax5:.4f} > {cmax2:.4f}",
    )


def test_ac04_entangled_state_decay_law():
    g12 = PARAMS.gamma12
    times = np.linspace(0.0, 10.0, 1001)
    worst = 0.0
    for initial, rate in (
        (BlockState(r33=0.5, r44=0.5, r34=-0.5), 1.0 - g12),
        (BlockState(r33=0.5, r44=0.5, r34=0.5), 1.0 + g12),
    ):
        c0 = to_collective(initial)
        for t in times:
            state = evolve_analytic(c0, PARAMS, float(t))
            rep = block_report(from_collective(state))
            worst = max(worst, abs(rep.concurrence - math.exp(-rate * t)))
    _verdict(
        "AC-04 entangled-state decay law", worst < 1e-10, f"max |C - pop| = {worst:.2e}"
    )


def test_ac05_oracle_equivalence_suite():
    rng = np.random.default_rng(SEED)
    pops, r12, r34 = random_block_states(rng, 10_000)
    mats = _stack(pops, r12, r34)
    rep = block_report(BlockState(*pops.T, r12, r34))
    dev_c = float(np.max(np.abs(rep.concurrence - _batched_concurrence(mats))))
    dev_n = float(np.max(np.abs(rep.negativity - _batched_negativity(mats))))

    pure = random_pure_block_states(rng, 1000)
    dev_pure = 0.0
    for b in pure:
        rep = block_report(b)
        dev_pure = max(dev_pure, abs(rep.negativity - rep.concurrence))
    ok = dev_c < 1e-10 and dev_n < 1e-10 and dev_pure < 1e-10
    _verdict(
        "AC-05 closed forms vs generic oracles",
        ok,
        f"dC = {dev_c:.2e}, dN = {dev_n:.2e}, pure |N-C| = {dev_pure:.2e}",
    )


def test_ac06_ordering_and_exclusivity():
    rng = np.random.default_rng(SEED + 1)
    pops, r12, r34 = random_block_states(rng, 10_000)
    rep = block_report(BlockState(*pops.T, r12, r34))
    ok = bool(np.all(rep.negativity <= rep.concurrence + 1e-12))
    ok = ok and not bool(np.any((rep.c1 > 0) & (rep.c2 > 0)))

    for name in ("fig2", "fig4", "fig5"):
        r = run_scenario(FIGURE_SCENARIOS[name])
        rep = block_report(
            BlockState(
                r11=r.rho_gg,
                r22=r.rho_ee,
                r33=0.5 * (r.rho_ss + r.rho_aa) - r.re_rho_as,
                r44=0.5 * (r.rho_ss + r.rho_aa) + r.re_rho_as,
                r34=0.5 * (r.rho_ss - r.rho_aa) - 1j * r.im_rho_as,
            )
        )
        ok = ok and bool(np.all(rep.negativity <= rep.concurrence + 1e-12))
        ok = ok and not bool(np.any((rep.c1 > 0) & (rep.c2 > 0)))
    _verdict("AC-06 N <= C and branch exclusivity", ok)


def test_ac07_dynamics_cross_validation():
    scenarios = {
        "one excited": BlockState(r44=1.0),
        "both excited": BlockState(r22=1.0),
        "symmetric": BlockState(r33=0.5, r44=0.5, r34=0.5),
        "antisymmetric": BlockState(r33=0.5, r44=0.5, r34=-0.5),
        "mixed": BlockState(r11=0.2, r22=0.3, r33=0.25, r44=0.25, r12=0.1j, r34=0.1),
    }
    grid = TimeGrid(0.0, 10.0, 201)
    worst = 0.0
    block_ok = True
    for b0 in scenarios.values():
        c0 = to_collective(b0)
        ode = collective(evolve_block_ode(c0, PARAMS, grid))
        mats = evolve_full_master(block_to_matrix(b0), PARAMS, grid)
        for k, (t, m) in enumerate(zip(grid.times(), mats)):
            ode_state = state_at(ode, k)
            ana = evolve_analytic(c0, PARAMS, float(t))
            cm = to_collective(matrix_to_block(m))
            # the propagator carries reg by its modulus
            for a, b in ((ana._replace(reg=abs(ana.reg)), ode_state), (ana, cm)):
                worst = max(
                    worst,
                    abs(a.ree - b.ree),
                    abs(a.rss - b.rss),
                    abs(a.raa - b.raa),
                    abs(a.rgg - b.rgg),
                    abs(a.ras - b.ras),
                    abs(a.reg - b.reg),
                )
            block_ok = block_ok and is_block_form(m, tol=1e-9)
    _verdict(
        "AC-07 analytic / ODE / master agreement",
        worst < 1e-7 and block_ok,
        f"max component deviation = {worst:.2e}",
    )


def test_ac08_envelope_and_long_time_behaviour():
    s = Scenario(grid=TimeGrid(0.0, 10.0, 2000))
    r = run_scenario(s)
    lower = np.maximum(0.0, r.rho_aa - r.rho_ss)
    upper = r.rho_aa + r.rho_ss
    env_ok = bool(
        np.all((lower - 1e-12 <= r.concurrence) & (r.concurrence <= upper + 1e-12))
    )
    late = r.t >= 5.0
    tail = float(np.max(np.abs(r.concurrence[late] - r.rho_aa[late])))
    _verdict(
        "AC-08 envelope bounds and long-time law",
        env_ok and tail < 1e-3,
        f"tail |C - rho_aa| = {tail:.2e}",
    )


def test_ac09_double_excitation_qualitative():
    r = run_scenario(FIGURE_SCENARIOS["fig4"])
    t, c = r.t, r.concurrence
    zero_early = bool(np.all(c[t < 1.0] == 0.0))
    positive_late = bool(np.any(c[t > 4.0] > 0.0))
    small = float(c.max()) < 0.1
    # no oscillations: the positive part is one contiguous unimodal hump
    pos = np.flatnonzero(c > 0.0)
    contiguous = bool(np.all(np.diff(pos) == 1)) if len(pos) else False
    hump = c[pos]
    k = int(np.argmax(hump))
    unimodal = bool(
        np.all(np.diff(hump[: k + 1]) >= -1e-12)
        and np.all(np.diff(hump[k:]) <= 1e-12)
    )
    ok = zero_early and positive_late and small and contiguous and unimodal
    _verdict(
        "AC-09 both-excited start: late, small, oscillation-free",
        ok,
        f"max C = {float(c.max()):.4f}, onset t = {t[pos[0]] if len(pos) else -1:.2f}",
    )


def test_ac10_total_spin_law():
    worst = 0.0
    for name in ("fig2", "fig4", "fig5"):
        r = run_scenario(FIGURE_SCENARIOS[name])
        worst = max(worst, float(np.max(np.abs(r.s_squared - (2.0 - 2.0 * r.rho_aa)))))
    # against the full master equation as well
    grid = TimeGrid(0.0, 5.0, 101)
    mats = evolve_full_master(block_to_matrix(BlockState(r44=1.0)), PARAMS, grid)
    for m in mats:
        c = to_collective(matrix_to_block(m))
        worst = max(worst, abs(total_spin_squared(c) - (2.0 - 2.0 * c.raa)))

    dicke = AtomPairParams(gamma12=1.0)
    s2 = total_spin_squared(collective(evolve_block_ode(CollectiveState(ree=1.0), dicke, grid)))
    constant = float(np.max(np.abs(s2 - 2.0)))
    _verdict(
        "AC-10 total-spin law and small-sample conservation",
        worst < 1e-9 and constant < 1e-9,
        f"max residual = {worst:.2e}, drift at Dicke point = {constant:.2e}",
    )
