"""Independent reference for the benchmark's output checks.

Everything here is written from the paper's formulas with numpy alone; it
never imports ``twoatom``.  Times are in units of 1/gamma and all rates in
units of the single-atom decay rate gamma = 1.

* ``collective_rates`` -- the paper's gamma12(x) and Omega12(x).
* ``one_excitation`` / ``both_excited`` -- closed forms for identical atoms.
* ``master_equation`` -- the two-atom Lindblad master equation, built as a
  16x16 superoperator and stepped on the output grid with a matrix
  exponential of its own (scaling and squaring of a Taylor series).

Trajectories are dicts of arrays with keys t, C, N, ree, rss, raa, rgg.
"""
from __future__ import annotations

import math

import numpy as np

GAMMA = 1.0


def collective_rates(x, mu_dot_r=0.0):
    """gamma12 and Omega12 for separation x = k0*r12 and dipole angle cos = mu_dot_r."""
    x = np.asarray(x, dtype=float)
    a = 1.0 - mu_dot_r**2
    b = 1.0 - 3.0 * mu_dot_r**2
    s, c = np.sin(x), np.cos(x)
    gamma12 = 1.5 * GAMMA * (a * s / x + b * (c / x**2 - s / x**3))
    omega12 = 0.75 * GAMMA * (-a * c / x + b * (s / x**2 + c / x**3))
    return gamma12, omega12


def grid(t_end: float, points: int) -> np.ndarray:
    return np.linspace(0.0, t_end, points)


def x_state_measures(ree, rgg, r_eg, r_ge, coh_one, coh_two):
    """Concurrence and negativity of an X state (Yu & Eberly 2007).

    ``coh_one`` is <eg|rho|ge>, ``coh_two`` is <ee|rho|gg>.  The negativity is
    -2 x (sum of the negative eigenvalues of the partial transpose).
    """
    c_one = np.abs(coh_one) - np.sqrt(np.clip(ree * rgg, 0.0, None))
    c_two = np.abs(coh_two) - np.sqrt(np.clip(r_eg * r_ge, 0.0, None))
    conc = np.maximum(0.0, 2.0 * np.maximum(c_one, c_two))
    # the partial transpose moves coh_one into the {ee, gg} block and
    # coh_two into the {eg, ge} block
    n_one = np.sqrt((ree - rgg) ** 2 + 4.0 * np.abs(coh_one) ** 2) - (ree + rgg)
    n_two = np.sqrt((r_eg - r_ge) ** 2 + 4.0 * np.abs(coh_two) ** 2) - (r_eg + r_ge)
    neg = np.maximum(0.0, np.maximum(n_one, n_two))
    return conc, neg


def one_excitation(gamma12: float, omega12: float, t) -> dict:
    """Identical atoms, atom 1 excited at t = 0 (the paper's closed forms)."""
    t = np.asarray(t, dtype=float)
    fast = np.exp(-(GAMMA + gamma12) * t)
    slow = np.exp(-(GAMMA - gamma12) * t)
    rss = 0.5 * fast
    raa = 0.5 * slow
    rgg = 1.0 - rss - raa
    conc = np.sqrt(
        0.25 * (fast - slow) ** 2
        + np.exp(-2.0 * GAMMA * t) * np.sin(2.0 * omega12 * t) ** 2
    )
    neg = np.sqrt(conc**2 + rgg**2) - rgg
    return {"t": t, "C": conc, "N": neg, "ree": np.zeros_like(t), "rss": rss, "raa": raa, "rgg": rgg}


def both_excited(gamma12: float, t) -> dict:
    """Identical atoms, both excited at t = 0; needs gamma12 != +/-gamma."""
    t = np.asarray(t, dtype=float)
    top = np.exp(-2.0 * GAMMA * t)
    ree = top
    rss = (GAMMA + gamma12) / (GAMMA - gamma12) * (np.exp(-(GAMMA + gamma12) * t) - top)
    raa = (GAMMA - gamma12) / (GAMMA + gamma12) * (np.exp(-(GAMMA - gamma12) * t) - top)
    rgg = 1.0 - ree - rss - raa
    # the one-excitation coherence is (rss - raa)/2; ee-gg coherence stays 0
    half = 0.5 * (rss + raa)
    conc, neg = x_state_measures(ree, rgg, half, half, 0.5 * (rss - raa), 0.0)
    return {"t": t, "C": conc, "N": neg, "ree": ree, "rss": rss, "raa": raa, "rgg": rgg}


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a degree-20 Taylor series."""
    norm = float(np.abs(a).sum(axis=0).max())
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    a = a / 2.0**squarings
    term = np.eye(a.shape[0], dtype=a.dtype)
    out = term.copy()
    for k in range(1, 21):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


# single-atom basis (|e>, |g>); pair basis |ee>, |eg>, |ge>, |gg>, atom 1 first
_LOWER = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
_SZ = 0.5 * np.diag([1.0, -1.0]).astype(complex)
_I2 = np.eye(2, dtype=complex)
EE, EG, GE, GG = range(4)


def liouvillian(gamma12: float, omega12: float, delta: float) -> np.ndarray:
    """16x16 generator of d rho/dt for row-major vec(rho).

    H = sum_i w_i S_i^z + Omega12 (S1+ S2- + S2+ S1-) in the frame rotating
    at the mean frequency, with w_{1,2} = +/- delta, and the dissipator
    sum_ij gamma_ij/2 (2 S_j- rho S_i+ - S_i+ S_j- rho - rho S_i+ S_j-).
    The sign of delta is the one under which atom 1 excited reproduces the
    paper's first maximum 0.88 for Fig. 5; the opposite sign amounts to
    exciting atom 2 instead and gives 0.94.
    """
    lower = [np.kron(_LOWER, _I2), np.kron(_I2, _LOWER)]
    raise_ = [m.conj().T for m in lower]
    sz = [np.kron(_SZ, _I2), np.kron(_I2, _SZ)]
    h = delta * sz[0] - delta * sz[1] + omega12 * (
        raise_[0] @ lower[1] + raise_[1] @ lower[0]
    )
    eye = np.eye(4, dtype=complex)
    gam = ((GAMMA, gamma12), (gamma12, GAMMA))
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for i in range(2):
        for j in range(2):
            pm = raise_[i] @ lower[j]
            gen += 0.5 * gam[i][j] * (
                2.0 * np.kron(lower[j], raise_[i].T) - np.kron(pm, eye) - np.kron(eye, pm.T)
            )
    return gen


def master_equation(rho0: np.ndarray, gamma12: float, omega12: float, delta: float, t) -> dict:
    """Step the master equation exactly on a uniform grid starting at t[0] = 0."""
    t = np.asarray(t, dtype=float)
    step = expm(liouvillian(gamma12, omega12, delta) * (t[1] - t[0]))
    vecs = np.empty((len(t), 16), dtype=complex)
    vecs[0] = np.asarray(rho0, dtype=complex).ravel()
    for k in range(1, len(t)):
        vecs[k] = step @ vecs[k - 1]
    rho = vecs.reshape(-1, 4, 4)
    pop = rho[:, range(4), range(4)].real
    coh_one = rho[:, EG, GE]
    conc, neg = x_state_measures(pop[:, EE], pop[:, GG], pop[:, EG], pop[:, GE], coh_one, rho[:, EE, GG])
    half = 0.5 * (pop[:, EG] + pop[:, GE])
    return {
        "t": t,
        "C": conc,
        "N": neg,
        "ree": pop[:, EE],
        "rss": half + coh_one.real,
        "raa": half - coh_one.real,
        "rgg": pop[:, GG],
    }


def product_state(excited: tuple[bool, bool]) -> np.ndarray:
    """Density matrix of a product of |e> / |g> atoms."""
    index = {(True, True): EE, (True, False): EG, (False, True): GE, (False, False): GG}[excited]
    rho = np.zeros((4, 4), dtype=complex)
    rho[index, index] = 1.0
    return rho


def first_maximum(t: np.ndarray, c: np.ndarray) -> tuple[int, float]:
    """Index of the first local maximum of C above 1e-12 (global maximum if none)
    and an upper bound on how far the true maximum near it lies above the grid
    value, from the local second difference."""
    rising = (c[1:-1] >= c[:-2]) & (c[1:-1] > c[2:]) & (c[1:-1] > 1e-12)
    hits = np.flatnonzero(rising)
    k = int(hits[0]) + 1 if len(hits) else int(np.argmax(c))
    if 0 < k < len(c) - 1:
        excess = abs(c[k + 1] - 2.0 * c[k] + c[k - 1])
    else:
        excess = 0.0
    return k, excess


def value_at(t: np.ndarray, c: np.ndarray, when: float) -> float:
    """Linear interpolation on the grid; nan beyond its end."""
    return float(np.interp(when, t, c)) if t[-1] >= when else float("nan")


# The paper's figure set at x = pi/6 (dipoles perpendicular to the axis).
FIG_X = math.pi / 6


def figure(name: str) -> dict:
    gamma12, omega12 = (float(v) for v in collective_rates(FIG_X))
    if name in ("fig2", "fig3"):
        return one_excitation(gamma12, omega12, grid(3.0, 3000))
    if name == "fig4":
        return both_excited(gamma12, grid(10.0, 5000))
    if name == "fig5":
        # nonidentical atoms, delta = 10, with the interaction fixed at twice
        # its geometric value
        return master_equation(
            product_state((True, False)), gamma12, 2.0 * omega12, 10.0, grid(3.0, 3000)
        )
    raise ValueError(f"unknown figure {name!r}")
