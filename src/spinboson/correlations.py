"""Correlation measures for two-qubit states.

Two independent routes are provided for the classical correlation C and the
quantum correlation (discord) Q:

* a brute-force optimiser over orthogonal projective measurements on one
  qubit, valid for any two-qubit state, and
* closed forms for the spin pair and the reservoir pair of the two
  evolving initial-state families of :mod:`spinboson.model`.

The optimiser has two paths.  X states, whose eight entries off the
diagonal and the anti-diagonal are exactly zero (every partition of both
families is one at every time), get the measurement azimuth in closed
form from the state's correlation matrix and a one-dimensional search
over the polar angle.  Every other state gets a deterministic mesh scan
over (polar, azimuth) on the upper hemisphere plus local refinement.  Both
paths work on the real Bloch form of the state.  The test is for exact
zeros, so a state with round-off in those entries takes the mesh scan.

The measurement class is restricted to rank-1 projective measurements.
General POVMs never beat them for any state handled here (the closed-form
optima are themselves projective), and the restriction keeps the optimiser
at most two-dimensional.  Discord is asymmetric, so every brute-force
routine takes a ``side`` argument naming the measured qubit; the default
measures the second (last-listed) qubit of the pair.

Closed forms take squared magnitudes (``beta2 = |beta|^2`` etc.) and return
bits.  Their arguments may be scalars or arrays, broadcast together: a
whole time grid is one call, and scalar arguments give scalar results.
The concurrence normalisation is Wootters': a Bell state has concurrence 1.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    binary_entropy,
    entropy2_batch,
    entropy_from_eigenvalues,
)

# sigma_y x sigma_y, the spin flip of Wootters' concurrence
_SPIN_FLIP = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex
)
# identity first: R_uv = Tr(rho sigma_u x sigma_v) holds a, b and T of the
# Bloch form in its first column, first row and lower-right block
_PAULI = np.stack([np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z])
_PAULI_XY = _PAULI[1:3]

# Entries off the diagonal and the anti-diagonal; all are exactly zero in
# an X state.
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])

# Outcome probabilities below this carry no weight; their conditional
# state is undefined and the branch contributes nothing.
_P_FLOOR = 1e-14

_DISCORD_CLAMP = -1e-8

# Measurement axes per slice of states, bounding the (states, axes) work arrays.
# On the benchmark panel the first mesh took 0.27, 0.36 and 0.41 s and the
# refinement 0.089, 0.100 and 0.083 s at 2^13, 2^14 and 2^15.
_SLICE_AXES = 2**13

# Points per side of each refinement box of the general-state optimiser: on
# panel seeds 0-10 at grid 64, 4 rounds, 9 falls at most 4.3e-10 bits short
# of the benchmark's reference, 13 at most 1.8e-10 for 1.35x the time.
_BOX = 9

SIDES = ("first", "second")


class MeasurementAxis(NamedTuple):
    """Bloch axis (polar, azimuth) of a projective qubit measurement."""

    theta: float
    phi: float

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """The pair (P+, P-) = ((I +- n.sigma)/2) for this axis."""
        st = np.sin(self.theta)
        n = np.array([st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)])
        plus = 0.5 * (_PAULI[0] + np.tensordot(n, _PAULI[1:], 1))
        return plus, _PAULI[0] - plus


def _require_state(rho: np.ndarray, who: str) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"{who}: expected a 4x4 two-qubit state, got shape {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        raise ValueError(f"{who}: state is not Hermitian")
    tr = rho.trace()
    if abs(tr.real - 1.0) > 1e-10 or abs(tr.imag) > 1e-10:
        raise ValueError(f"{who}: state trace is not 1")
    low = np.linalg.eigvalsh(rho)[0]
    if low < -1e-8:
        raise ValueError(f"{who}: state has eigenvalue {low:.3e} < -1e-8")
    return rho


def mutual_information_batch(rhos: np.ndarray) -> np.ndarray:
    """I = S(A) + S(B) - S(AB) for a stack of two-qubit states, in bits."""
    r4 = rhos.reshape(-1, 2, 2, 2, 2)
    s_a = entropy2_batch(np.einsum("nabcb->nac", r4))
    s_b = entropy2_batch(np.einsum("nabad->nbd", r4))
    return s_a + s_b - entropy_from_eigenvalues(np.linalg.eigvalsh(rhos))


def mutual_information(rho: np.ndarray) -> float:
    """Quantum mutual information of a two-qubit state, in bits."""
    rho = _require_state(rho, "mutual_information")
    return float(mutual_information_batch(rho[None])[0])


def classical_correlation_batch(
    rhos: np.ndarray,
    side: str = "second",
    grid: int = 64,
    refine_iters: int = 4,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brute-force classical correlation for a stack of two-qubit states.

    States whose eight entries off the diagonal and the anti-diagonal are
    exactly zero (X states) take a one-dimensional search: the azimuth phi
    follows in closed form from the correlation matrix, and ``grid`` points
    of the polar angle theta in [0, pi/2] are scanned and then refined
    ``refine_iters`` times, the search interval shrinking five-fold around
    the best theta each round.  Every other state scans a ``grid`` x
    ``grid`` mesh over the upper hemisphere, theta in [0, pi/2] and phi in
    [0, 2 pi), and refines around the best axis ``refine_iters`` times,
    each round shrinking the box eight-fold in three halving steps of 9 x 9
    axes, grid^2 + 243 ``refine_iters`` axes in all; the box is not
    clipped, so it may cross the pole or phi = 2 pi.  The search is
    deterministic, a larger ``refine_iters`` never lowers a value, and each
    state's result is independent of its batch.  States are processed in
    slices of at most ``_SLICE_AXES`` measurement axes per scan.

    Returns (values, thetas, phis), each of shape (N,), with theta in
    [0, pi] and phi in [0, 2 pi).
    """
    if side not in SIDES:
        raise ValueError(f"classical_correlation: side must be one of {SIDES}")
    if grid < 2 or refine_iters < 0:
        raise ValueError("classical_correlation: grid must be >= 2 and refine_iters >= 0")
    rhos = np.asarray(rhos, dtype=complex)
    n = rhos.shape[0]
    values = np.empty(n)
    thetas = np.empty(n)
    phis = np.empty(n)
    is_x = np.all(rhos[:, _OFF_X] == 0.0, axis=1)
    for rows, solve, axes in (
        (np.flatnonzero(is_x), _cc_x, grid),
        (np.flatnonzero(~is_x), _cc_mesh, _BOX * _BOX),
    ):
        size = max(1, _SLICE_AXES // axes)
        for lo in range(0, len(rows), size):
            sel = rows[lo:lo + size]
            values[sel], thetas[sel], phis[sel] = solve(rhos[sel], side, grid, refine_iters)
    return values, thetas, phis


def _cc_x(rhos, side, grid, refine_iters):
    """Optimiser for X states in the real Bloch form.

    With rho = (I + a.sigma x I + I x b.sigma + sum T_ij sigma_i x sigma_j)/4
    and the second qubit measured along n, the first is left with Bloch
    vector (a +- T n) / (2 p+-) with probability p+- = (1 +- b.n)/2 (Luo,
    PRA 77, 042303 (2008)).  An X state has a = a3 z, b = b3 z and T block
    diagonal, so |a +- T n|^2 = (a3 +- T33 cos theta)^2 + |T_xy u|^2
    sin^2 theta with u the azimuthal unit vector.  p+- does not depend on
    phi, so the best phi maximises |T_xy u| for every theta: u is the top
    right-singular vector of T_xy, and the search over theta is
    one-dimensional (Chen et al., PRA 84, 042313 (2011)).  n and -n are the
    same measurement, so theta stays in [0, pi/2].
    """
    n = rhos.shape[0]
    d = np.diagonal(rhos, axis1=1, axis2=2).real
    z_first = d[:, 0] + d[:, 1] - d[:, 2] - d[:, 3]
    z_second = d[:, 0] - d[:, 1] + d[:, 2] - d[:, 3]
    t33 = d[:, 0] - d[:, 1] - d[:, 2] + d[:, 3]
    # T_ij = Tr(rho sigma_i x sigma_j) for i, j in {x, y}
    t_xy = np.einsum("nabcd,ica,jdb->nij", rhos.reshape(n, 2, 2, 2, 2), _PAULI_XY, _PAULI_XY).real
    if side == "second":
        a3, b3 = z_first, z_second
    else:
        a3, b3 = z_second, z_first
        t_xy = np.swapaxes(t_xy, 1, 2)
    # top eigenpair of the symmetric 2x2 T_xy^T T_xy
    g = np.einsum("nki,nkj->nij", t_xy, t_xy)
    half_diff = 0.5 * (g[:, 0, 0] - g[:, 1, 1])
    sigma2 = 0.5 * (g[:, 0, 0] + g[:, 1, 1]) + np.hypot(half_diff, g[:, 0, 1])
    phi = np.mod(0.5 * np.arctan2(g[:, 0, 1], half_diff), np.pi)
    s_est = _entropy_half(np.minimum(np.abs(a3), 1.0))

    a3, b3, t33, sigma2 = (x[:, None] for x in (a3, b3, t33, sigma2))
    frac = np.linspace(0.0, 1.0, grid)[None, :]
    t_lo = np.zeros(n)
    t_hi = np.full(n, 0.5 * np.pi)
    best_v = np.full(n, -np.inf)
    best_t = np.zeros(n)
    rows = np.arange(n)
    for _ in range(refine_iters + 1):
        th = t_lo[:, None] + (t_hi - t_lo)[:, None] * frac
        ct = np.cos(th)
        st2 = np.sin(th) ** 2
        val = s_est[:, None]
        for sign in (1.0, -1.0):
            p = 0.5 * (1.0 + sign * b3 * ct)
            length = np.sqrt((a3 + sign * t33 * ct) ** 2 + sigma2 * st2)
            ok = p > _P_FLOOR
            radius = np.minimum(np.where(ok, length / np.where(ok, 2.0 * p, 1.0), 0.0), 1.0)
            val = val - np.where(ok, p, 0.0) * _entropy_half(radius)

        # theta rises along each row: the last maximum has the largest theta
        idx = grid - 1 - np.argmax(val[:, ::-1], axis=1)
        cand_v, cand_t = val[rows, idx], th[rows, idx]
        better = (cand_v > best_v) | ((cand_v == best_v) & (cand_t > best_t))
        best_v = np.where(better, cand_v, best_v)
        best_t = np.where(better, cand_t, best_t)

        span = (t_hi - t_lo) / 5.0
        t_lo = np.clip(best_t - span / 2.0, 0.0, 0.5 * np.pi)
        t_hi = np.clip(best_t + span / 2.0, 0.0, 0.5 * np.pi)

    return np.maximum(best_v, 0.0), best_t, phi


def _cc_mesh(rhos, side, grid, refine_iters):
    """Optimiser for general states in the real Bloch form.

    The objective of :func:`_cc_x`, S(A) - sum_+- p+- H((1 + |a +- T n| /
    (2 p+-)) / 2), over both angles of n (Girolami & Adesso, PRA 83, 052108
    (2011)).  n and -n are the same measurement, so the first mesh, ``grid``
    x ``grid`` axes, covers the upper hemisphere.  Each of the
    ``refine_iters`` rounds then shrinks the box eight-fold in three
    halving steps, each scanning ``_BOX`` x ``_BOX`` axes centred on the
    best axis so far; the first box spans 1/8 of the mesh.  (theta, phi) ->
    n is smooth and periodic, so the boxes need no clipping; n(-theta, phi)
    = n(theta, phi + pi) normalises the returned axis.

    Each scan is an outer product of polar angles and azimuths, and so is
    every term: v.n = sin theta (v_x cos phi + v_y sin phi) + v_z cos theta,
    and |a +- T n|^2 = |a|^2 + n.G n +- 2 (a^T T).n with G = T^T T, clamped
    at 0 against round-off before the square root.
    """
    n = rhos.shape[0]
    r = np.einsum("nabcd,uca,vdb->nuv", rhos.reshape(n, 2, 2, 2, 2), _PAULI, _PAULI).real
    if side == "first":
        r = np.swapaxes(r, 1, 2)
    # a of the kept qubit, b of the measured one; trailing axes span the scan
    a, b, t = r[:, 1:, 0], r[:, 0, 1:, None, None], r[:, 1:, 1:]
    a2 = np.einsum("ni,ni->n", a, a)[:, None, None]
    s_est = binary_entropy(0.5 * (1.0 + np.minimum(np.sqrt(a2), 1.0)))
    g = np.einsum("nki,nkj->nij", t, t)[..., None, None]
    at2 = 2.0 * np.einsum("ni,nij->nj", a, t)[..., None, None]
    best_v, best_t, best_p = np.full(n, -np.inf), np.zeros(n), np.zeros(n)

    def scan(sel, th, ph):
        """Score the outer product of th and ph, (k, m) each, for states sel."""
        m = th.shape[1]
        st, ct = np.sin(th)[:, :, None], np.cos(th)[:, :, None]
        cp, sp = np.cos(ph)[:, None, :], np.sin(ph)[:, None, :]
        gs = g[sel]
        bn, an2 = (st * (v[:, 0] * cp + v[:, 1] * sp) + v[:, 2] * ct for v in (b[sel], at2[sel]))
        # |a|^2 + n.G n, the part of |a +- T n|^2 even in the sign
        even = a2[sel] + gs[:, 2, 2] * ct * ct + 2.0 * st * ct * (gs[:, 0, 2] * cp + gs[:, 1, 2] * sp) + (
            st * st * (gs[:, 0, 0] * cp * cp + 2.0 * gs[:, 0, 1] * cp * sp + gs[:, 1, 1] * sp * sp))
        val = 0.0
        for q, len2 in ((1.0 + bn, even + an2), (1.0 - bn, even - an2)):
            # q = 2 p+-; an empty branch (p <= _P_FLOOR) gets weight 0 and any radius
            radius = np.minimum(np.sqrt(np.maximum(len2, 0.0)) / np.maximum(q, 2.0 * _P_FLOOR), 1.0)
            val = val + np.where(q > 2.0 * _P_FLOOR, q, 0.0) * _entropy_half(radius)
        val = (s_est[sel] - 0.5 * val).reshape(-1, m * m)

        # ties keep the first maximum, in scan order and then round order
        idx = np.argmax(val, axis=1)
        rows = np.arange(len(idx))
        cand_v = val[rows, idx]
        better = cand_v > best_v[sel]
        best_v[sel] = np.where(better, cand_v, best_v[sel])
        best_t[sel] = np.where(better, th[rows, idx // m], best_t[sel])
        best_p[sel] = np.where(better, ph[rows, idx % m], best_p[sel])

    frac = np.linspace(0.0, 1.0, grid)
    span_t = 0.5 * np.pi
    span_p = 2.0 * np.pi * (grid - 1) / grid
    size = max(1, _SLICE_AXES // (grid * grid))
    for lo in range(0, n, size):
        k = min(size, n - lo)
        scan(slice(lo, lo + k), np.tile(span_t * frac, (k, 1)), np.tile(span_p * frac, (k, 1)))

    # a box of width w has steps of w / (_BOX - 1), so the next, of width w / 2
    # around the best point, reaches (_BOX - 1) / 4 steps past it either way
    frac = np.linspace(0.0, 1.0, _BOX)
    for step in range(3, 3 * refine_iters + 3):
        box_t, box_p = span_t / 2**step, span_p / 2**step
        scan(slice(None), best_t[:, None] - box_t / 2.0 + box_t * frac,
             best_p[:, None] - box_p / 2.0 + box_p * frac)

    phi = np.mod(best_p + np.where(best_t < 0.0, np.pi, 0.0), 2.0 * np.pi)
    # mod of a tiny negative angle rounds up to 2 pi itself
    return np.maximum(best_v, 0.0), np.abs(best_t), np.where(phi < 2.0 * np.pi, phi, 0.0)


def _entropy_half(r):
    """H((1 + r) / 2) in bits for r in [0, 1], unchecked."""
    x = 0.5 * (1.0 + r)
    y = 1.0 - x  # exact for x >= 1/2; at y = 0 the term is 0 times a finite log
    return -x * np.log2(x) - y * np.log2(np.maximum(y, np.finfo(float).tiny))


def classical_correlation_bruteforce(
    rho: np.ndarray,
    side: str = "second",
    grid: int = 64,
    refine_iters: int = 4,
) -> tuple[float, MeasurementAxis]:
    """Maximal entropy reduction of one qubit by measuring the other.

    Returns the correlation in bits together with a maximising axis.  Flat
    maxima are common (any X state is azimuthally degenerate), so only the
    value is meaningful for comparisons; the axis is one deterministic
    representative of the optimal family.
    """
    rho = _require_state(rho, "classical_correlation")
    v, t, p = classical_correlation_batch(rho[None], side, grid, refine_iters)
    return float(v[0]), MeasurementAxis(float(t[0]), float(p[0]))


def discord(
    rho: np.ndarray,
    side: str = "second",
    grid: int = 64,
    refine_iters: int = 4,
) -> float:
    """Quantum correlation Q = I - C via the brute-force optimiser, in bits.

    Optimiser slack can leave values a hair below zero; anything in
    [-1e-8, 0) is reported as 0.
    """
    rho = _require_state(rho, "discord")
    c, _ = classical_correlation_bruteforce(rho, side, grid, refine_iters)
    q = float(mutual_information_batch(rho[None])[0]) - c
    if q < 0.0:
        if q < _DISCORD_CLAMP:
            raise ValueError(f"discord: negative value {q:.3e} beyond clamp")
        q = 0.0
    return q


# ---------------------------------------------------------------------------
# Closed forms for the two evolving families.
# ---------------------------------------------------------------------------


def _check_unit_interval(who: str, **kwargs) -> dict:
    """Arguments as floats clipped to [0, 1], with xi2 + chi2 = 1 checked."""
    out = {}
    for name, val in kwargs.items():
        v = np.asarray(val, dtype=float)
        bad = (v < -1e-12) | (v > 1.0 + 1e-12)
        if bad.any():
            raise ValueError(f"{who}: {name} = {float(v[bad][0])!r} outside [0, 1]")
        out[name] = np.clip(v, 0.0, 1.0)
    if np.any(np.abs(out["xi2"] + out["chi2"] - 1.0) > 1e-10):
        raise ValueError(f"{who}: xi2 + chi2 must be 1")
    return out


def _disturbed_entropy(prod):
    """H((1 + sqrt(1 - 4 u)) / 2) with the radicand clipped at zero."""
    return binary_entropy(0.5 * (1.0 + np.sqrt(np.maximum(0.0, 1.0 - 4.0 * prod))))


def classical_correlation_spins_two_exc(beta2: float, xi2: float, chi2: float) -> float:
    """Closed-form C of the spin pair, two-excitation family.

    C = H(beta2 * xi2) - H((1 + sqrt(1 - 4 beta2 xi2 chi2)) / 2); the
    optimum is attained by equatorial measurements.
    """
    a = _check_unit_interval("classical_correlation_spins_two_exc", beta2=beta2, xi2=xi2, chi2=chi2)
    return binary_entropy(a["beta2"] * a["xi2"]) - _disturbed_entropy(a["beta2"] * a["xi2"] * a["chi2"])


def quantum_correlation_spins_two_exc(beta2: float, xi2: float, chi2: float) -> float:
    """Closed-form Q of the spin pair, two-excitation family.

    Identical to the classical correlation: for this family Q stays equal
    to C throughout the evolution.
    """
    return classical_correlation_spins_two_exc(beta2, xi2, chi2)


def reservoir_correlations_two_exc(beta2: float, xi2: float, chi2: float) -> tuple[float, float]:
    """Closed-form (C, Q) of the reservoir pair, two-excitation family.

    The reservoir pair mirrors the spin pair with the roles of xi and chi
    exchanged, and again C = Q.
    """
    a = _check_unit_interval("reservoir_correlations_two_exc", beta2=beta2, xi2=xi2, chi2=chi2)
    c = binary_entropy(a["beta2"] * a["chi2"]) - _disturbed_entropy(a["beta2"] * a["xi2"] * a["chi2"])
    return c, c


def classical_correlation_spins_one_exc(alpha2: float, xi2: float, chi2: float) -> float:
    """Closed-form C of the spin pair, one-excitation family.

    Takes the same value as the two-excitation expression with
    beta2 = 1 - alpha2; only Q distinguishes the two families.
    """
    a = _check_unit_interval("classical_correlation_spins_one_exc", alpha2=alpha2, xi2=xi2, chi2=chi2)
    return classical_correlation_spins_two_exc(1.0 - a["alpha2"], a["xi2"], a["chi2"])


def quantum_correlation_spins_one_exc(alpha2: float, xi2: float, chi2: float) -> float:
    """Closed-form Q of the spin pair, one-excitation family.

    Q = -H(xi2) + H(alpha2 * xi2) + H((1 + sqrt(1 - 4 beta2 xi2 chi2)) / 2),
    with beta2 = 1 - alpha2.  At t = 0 this reduces to H(alpha2).
    """
    a = _check_unit_interval("quantum_correlation_spins_one_exc", alpha2=alpha2, xi2=xi2, chi2=chi2)
    beta2 = 1.0 - a["alpha2"]
    return (
        -binary_entropy(a["xi2"])
        + binary_entropy(a["alpha2"] * a["xi2"])
        + _disturbed_entropy(beta2 * a["xi2"] * a["chi2"])
    )


def reservoir_correlations_one_exc(alpha2: float, xi2: float, chi2: float) -> tuple[float, float]:
    """Closed-form (C, Q) of the reservoir pair, one-excitation family.

    C = H(beta2 chi2) - H((1 - sqrt(1 - 4 beta2 xi2 chi2)) / 2) and
    Q = H((1 + sqrt(...)) / 2) - H(chi2) + H(alpha2 chi2); the reservoirs
    inherit the spin formulas with xi and chi exchanged.
    """
    a = _check_unit_interval("reservoir_correlations_one_exc", alpha2=alpha2, xi2=xi2, chi2=chi2)
    beta2 = 1.0 - a["alpha2"]
    u = beta2 * a["xi2"] * a["chi2"]
    c = binary_entropy(beta2 * a["chi2"]) - binary_entropy(
        0.5 * (1.0 - np.sqrt(np.maximum(0.0, 1.0 - 4.0 * u)))
    )
    q = (
        _disturbed_entropy(u)
        - binary_entropy(a["chi2"])
        + binary_entropy(a["alpha2"] * a["chi2"])
    )
    return c, q


# ---------------------------------------------------------------------------
# Concurrence.
# ---------------------------------------------------------------------------


def concurrence_batch(rhos: np.ndarray) -> np.ndarray:
    """Wootters concurrence for a stack of two-qubit states.

    Uses the Hermitian form sqrt(rho) rho~ sqrt(rho), whose spectrum equals
    that of rho rho~, so the whole computation stays inside the Hermitian
    eigensolver.
    """
    rhos = np.asarray(rhos, dtype=complex)
    vals, vecs = np.linalg.eigh(rhos)
    # square roots amplify round-off near zero: weights below 1e-13 of the
    # leading (last, ascending order) one are rank-deficiency noise and are
    # removed exactly
    vals = np.where(vals > 1e-13 * vals[:, -1:], vals, 0.0)
    sqrt_rho = np.einsum("nij,nj,nkj->nik", vecs, np.sqrt(vals), vecs.conj())
    rho_tilde = np.einsum("ij,njk,kl->nil", _SPIN_FLIP, rhos.conj(), _SPIN_FLIP)
    m = sqrt_rho @ rho_tilde @ sqrt_rho
    mv = np.linalg.eigvalsh(m)[:, ::-1]
    mv = np.where(mv > np.maximum(1e-13 * mv[:, :1], 1e-28), mv, 0.0)
    lam = np.sqrt(mv)
    return np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])


def concurrence_wootters(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit state; 0 for separable, 1 for Bell."""
    rho = _require_state(rho, "concurrence_wootters")
    return float(concurrence_batch(rho[None])[0])


def concurrence_closed(family: str, alpha: complex, beta: complex, xi: float, chi: float) -> float:
    """Closed-form spin-pair concurrence for the evolving families.

    two_exc: 2 * max(0, |alpha beta| xi^2 - |beta|^2 xi^2 chi^2); vanishes
    at finite time (sudden death) whenever |alpha| < |beta|.
    one_exc: 2 * |alpha beta| xi^2, strictly positive while xi is nonzero.
    Normalised so the spin-flip (Wootters) value of a Bell state is 1.
    """
    ab = abs(alpha) * abs(beta)
    x2 = xi * xi
    if family == "two_exc":
        return 2.0 * np.maximum(0.0, ab * x2 - (abs(beta) ** 2) * x2 * chi * chi)
    if family == "one_exc":
        return 2.0 * ab * x2
    raise ValueError(f"concurrence_closed: unknown family {family!r}")


def concurrence_closed_reservoirs(
    family: str, alpha: complex, beta: complex, xi: float, chi: float
) -> float:
    """Closed-form reservoir-pair concurrence (spin formulas with xi <-> chi)."""
    return concurrence_closed(family, alpha, beta, chi, np.abs(xi))
