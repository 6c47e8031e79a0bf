"""Physical invariants of the correlation measures on random two-qubit states.

Hypothesis draws the states; ``derandomize=True`` fixes the examples, so
every run checks the same states.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinboson.correlations import (
    SIDES,
    classical_correlation_batch,
    concurrence_batch,
    mutual_information_batch,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None)

entries = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
angles = st.floats(0.0, 2.0 * np.pi, allow_nan=False, allow_infinity=False)


@st.composite
def mixed_states(draw):
    """rho = G G^dagger / Tr(G G^dagger) for a random complex 4x4 G."""
    x = np.array(draw(st.lists(entries, min_size=32, max_size=32))).reshape(2, 4, 4)
    g = x[0] + 1j * x[1]
    rho = g @ g.conj().T
    tr = np.trace(rho).real
    assume(tr > 1e-3)
    return rho / tr


@st.composite
def pure_states(draw):
    x = np.array(draw(st.lists(entries, min_size=8, max_size=8))).reshape(2, 4)
    psi = x[0] + 1j * x[1]
    norm = np.linalg.norm(psi)
    assume(norm > 1e-3)
    psi = psi / norm
    return np.outer(psi, psi.conj())


@st.composite
def unitaries(draw):
    """exp(i d) Rz(a) Ry(b) Rz(c): every 2x2 unitary for some angles."""
    a, b, c, d = (draw(angles) for _ in range(4))
    ry = np.array([[np.cos(b / 2), -np.sin(b / 2)], [np.sin(b / 2), np.cos(b / 2)]])
    return np.exp(1j * d) * np.diag(np.exp([-0.5j * a, 0.5j * a])) @ ry @ np.diag(np.exp([-0.5j * c, 0.5j * c]))


def entropy(m):
    lam = np.clip(np.linalg.eigvalsh(m), 0.0, 1.0)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log2(lam)))


def unmeasured(rho, side):
    r4 = rho.reshape(2, 2, 2, 2)
    return np.einsum("abcb->ac", r4) if side == "second" else np.einsum("abad->bd", r4)


def classical(rho, side):
    return float(classical_correlation_batch(rho[None], side)[0][0])


@PROPERTY
@given(mixed_states(), st.sampled_from(SIDES))
def test_bounds(rho, side):
    c = classical(rho, side)
    info = float(mutual_information_batch(rho[None])[0])
    assert 0.0 <= c <= entropy(unmeasured(rho, side)) + 1e-9
    assert c <= info + 1e-9
    assert info - c >= -1e-8
    assert 0.0 <= concurrence_batch(rho[None])[0] <= 1.0


@PROPERTY
@given(pure_states(), st.sampled_from(SIDES))
def test_pure_states(rho, side):
    # C = Q = S(A) = S(B) for a pure two-qubit state
    s_a = entropy(unmeasured(rho, side))
    c = classical(rho, side)
    q = float(mutual_information_batch(rho[None])[0]) - c
    assert abs(c - s_a) < 1e-6
    assert abs(q - s_a) < 1e-6


@PROPERTY
@given(mixed_states(), unitaries(), unitaries(), st.sampled_from(SIDES))
def test_local_unitary_invariance(rho, u, v, side):
    uv = np.kron(u, v)
    rotated = uv @ rho @ uv.conj().T
    assert abs(classical(rotated, side) - classical(rho, side)) < 1e-6
