import numpy as np
import pytest
from hypothesis import strategies as st

from twoatom.statespace import BlockState, CollectiveState


def random_block_states(rng: np.random.Generator, n: int):
    """Vectorized sampler of valid block states.

    Populations are Dirichlet, coherences are drawn inside the positivity
    disc of each 2x2 block.
    """
    pops = rng.dirichlet(np.ones(4), size=n)
    u = rng.uniform(0.0, 1.0, size=(n, 2))
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(n, 2)))
    r12 = u[:, 0] * np.sqrt(pops[:, 0] * pops[:, 1]) * phases[:, 0]
    r34 = u[:, 1] * np.sqrt(pops[:, 2] * pops[:, 3]) * phases[:, 1]
    return pops, r12, r34


def random_pure_block_states(rng: np.random.Generator, n: int):
    """Pure states supported on a single 2x2 block (the only pure block states)."""
    amps = rng.normal(size=(n, 2, 2)).view(np.complex128)[:, :, 0]
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    upper = rng.uniform(size=n) < 0.5
    states = []
    for k in range(n):
        a, b = amps[k]
        p, q, coh = abs(a) ** 2, abs(b) ** 2, a * np.conj(b)
        if upper[k]:
            states.append(BlockState(r11=p, r22=q, r12=coh))
        else:
            states.append(BlockState(r33=p, r44=q, r34=coh))
    return states


def collective(ys) -> CollectiveState:
    """The rows ``evolve_block_ode`` returns, as one CollectiveState with
    array fields (rgg = 1 - ree - rss - raa, and reg real: the rows carry
    only its modulus): the input of the ``from_collective`` /
    ``block_report`` oracles."""
    ree, rss, raa, as_re, as_im, eg = ys
    return CollectiveState(
        rgg=1.0 - ree - rss - raa,
        ree=ree,
        rss=rss,
        raa=raa,
        reg=eg + 0j,
        ras=as_re + 1j * as_im,
    )


def state_at(c: CollectiveState, k: int) -> CollectiveState:
    """Point k of a trajectory whose fields are arrays."""
    return CollectiveState(**{name: getattr(c, name)[k] for name in c._fields})


def as_block_state(pops, r12, r34) -> BlockState:
    return BlockState(
        r11=float(pops[0]),
        r22=float(pops[1]),
        r33=float(pops[2]),
        r44=float(pops[3]),
        r12=complex(r12),
        r34=complex(r34),
    )


@st.composite
def block_states(draw):
    """Hypothesis strategy over valid block states."""
    weights = [draw(st.floats(0.0, 1.0)) for _ in range(4)]
    total = sum(weights)
    if total == 0.0:
        weights = [1.0, 0.0, 0.0, 0.0]
        total = 1.0
    pops = [w / total for w in weights]
    u12 = draw(st.floats(0.0, 1.0))
    u34 = draw(st.floats(0.0, 1.0))
    phi12 = draw(st.floats(0.0, 2.0 * np.pi))
    phi34 = draw(st.floats(0.0, 2.0 * np.pi))
    r12 = u12 * np.sqrt(pops[0] * pops[1]) * np.exp(1j * phi12)
    r34 = u34 * np.sqrt(pops[2] * pops[3]) * np.exp(1j * phi34)
    return BlockState(
        r11=pops[0],
        r22=pops[1],
        r33=pops[2],
        r44=pops[3],
        r12=complex(r12),
        r34=complex(r34),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)
