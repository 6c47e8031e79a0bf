"""Physical invariants of the correlation measures on random two-qubit states.

Hypothesis draws the states; ``derandomize=True`` fixes the examples, so
every run checks the same states.
"""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinboson.correlations import (
    _OFF_X,
    SIDES,
    classical_correlation_batch,
    classical_correlation_spins_two_exc,
    concurrence_batch,
    concurrence_closed,
    mutual_information_batch,
    quantum_correlation_spins_one_exc,
    reservoir_correlations_two_exc,
)
from spinboson.model import FAMILIES, Amplitudes, pure_state, reduced_batch

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


@st.composite
def x_states(draw):
    """Positive X states: weights p, coherences |rho14| <= sqrt(p1 p4) and |rho23| <= sqrt(p2 p3)."""
    p = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)))
    assume(p.sum() > 1e-3)
    p = p / p.sum()
    rho = np.diag(p).astype(complex)
    for j, k in ((0, 3), (1, 2)):
        z = np.sqrt(p[j] * p[k]) * draw(st.floats(0.0, 1.0)) * np.exp(1j * draw(angles))
        rho[j, k], rho[k, j] = z, np.conj(z)
    return rho


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


@PROPERTY
@given(x_states(), unitaries(), unitaries())
def test_x_state_concurrence_matches_wootters_route(rho, u, v):
    # a local unitary keeps the concurrence; the turned state is no longer an
    # X state, so it takes Wootters' route, within the eigensolver's slack
    uv = np.kron(u, v)
    turned = uv @ rho @ uv.conj().T
    assume(not np.all(turned[_OFF_X] == 0.0))
    c = concurrence_batch(rho[None])[0]
    assert 0.0 <= c <= 1.0
    assert abs(concurrence_batch(turned[None])[0] - c) < 1e-7


@PROPERTY
@given(st.lists(entries, min_size=4, max_size=4), st.booleans())
def test_pure_x_state_concurrence(x, parallel):
    # a|00> + d|11> has concurrence 2|ad|, and b|01> + c|10> has 2|bc|
    z = np.array(x[:2]) + 1j * np.array(x[2:])
    norm = np.linalg.norm(z)
    assume(norm > 1e-3)
    z = z / norm
    psi = np.zeros(4, dtype=complex)
    psi[[0, 3] if parallel else [1, 2]] = z
    rho = np.outer(psi, psi.conj())
    assert np.all(rho[_OFF_X] == 0.0)
    assert abs(concurrence_batch(rho[None])[0] - 2.0 * abs(z[0]) * abs(z[1])) < 1e-15


@PROPERTY
@given(st.sampled_from(FAMILIES), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.booleans())
@example("two_exc", 0.0, 0.0, False)
@example("one_exc", 1.0, 1.0, False)
@example("two_exc", 0.1, 0.5, False)
@example("one_exc", 0.1, 0.5, False)
@example("two_exc", 0.0, 0.0005, False)  # a product state: reservoir C is round-off near -1.8e-15
@example("one_exc", 0.0, 0.003, False)  # a product state: reservoir Q is round-off near -2.8e-17
def test_closed_forms_mirror_onto_the_reservoirs(family, alpha2, xi2, negative):
    # the spin pair's closed forms at (xi, chi) and the reservoir pair's at
    # (chi, xi) meet the brute-force route and never round below zero; xi
    # may be negative, as under a Lorentzian spectrum
    alpha, beta = np.sqrt(alpha2), np.sqrt(1.0 - alpha2)
    xi, chi = (-1.0 if negative else 1.0) * np.sqrt(xi2), np.sqrt(1.0 - xi2)
    psi = pure_state(family, alpha, beta, Amplitudes(xi, chi))
    for part, (x, y) in (("s1s2", (xi, chi)), ("r1r2", (chi, xi))):
        rhos = reduced_batch(psi[None], part)
        c_brute = classical_correlation_batch(rhos)[0]
        q_brute = mutual_information_batch(rhos) - c_brute
        c = classical_correlation_spins_two_exc(1.0 - alpha2, x * x, y * y)
        q = c if family == "two_exc" else quantum_correlation_spins_one_exc(alpha2, x * x, y * y)
        assert c >= 0.0 and q >= 0.0
        assert abs(c - c_brute[0]) <= 1e-12
        assert abs(q - q_brute[0]) <= 1e-12
        assert abs(concurrence_closed(family, alpha, beta, x, y) - concurrence_batch(rhos)[0]) <= 1e-12
    if family == "two_exc":
        # the reservoir pair's own name for the mirrored form, c of r1r2 above: the same bits
        assert reservoir_correlations_two_exc(1.0 - alpha2, xi * xi, chi * chi) == (c, c)
