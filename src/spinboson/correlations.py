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
over (polar, azimuth) plus local refinement.  The test is for exact
zeros, so a state with round-off in those entries takes the mesh scan.

The measurement class is restricted to rank-1 projective measurements.
General POVMs never beat them for any state handled here (the closed-form
optima are themselves projective), and the restriction keeps the optimiser
at most two-dimensional.  Discord is asymmetric, so every brute-force
routine takes a ``side`` argument naming the measured qubit; the default
measures the second (last-listed) qubit of the pair.

Closed forms take squared magnitudes (``beta2 = |beta|^2`` etc.) and return
bits.  The concurrence normalisation is Wootters': a Bell state has
concurrence 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .linalg import (
    SIGMA_X,
    SIGMA_Y,
    binary_entropy,
    entropy2_batch,
    entropy_from_eigenvalues,
    jacobi_eigh_batch,
    tensor,
)

_SPIN_FLIP = tensor(SIGMA_Y, SIGMA_Y)
_PAULI_XY = np.stack([SIGMA_X, SIGMA_Y])

# Entries off the diagonal and the anti-diagonal; all are exactly zero in
# an X state.
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])

# Outcome probabilities below this carry no weight; their conditional
# state is undefined and the branch contributes nothing.
_P_FLOOR = 1e-14

_DISCORD_CLAMP = -1e-8

SIDES = ("first", "second")


class MeasurementAxis(NamedTuple):
    """Bloch axis (polar, azimuth) of a projective qubit measurement."""

    theta: float
    phi: float

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """The pair (P+, P-) = ((I +- n.sigma)/2) for this axis."""
        plus = _axis_projectors(np.array([[self.theta]]), np.array([[self.phi]]))[0, 0]
        return plus, np.eye(2, dtype=complex) - plus


def _axis_projectors(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Projector P+ for each axis; theta/phi of shape (N, K) -> (N, K, 2, 2)."""
    st = np.sin(theta)
    ct = np.cos(theta)
    off = 0.5 * st * np.exp(-1j * phi)
    p = np.empty(theta.shape + (2, 2), dtype=complex)
    p[..., 0, 0] = 0.5 * (1.0 + ct)
    p[..., 1, 1] = 0.5 * (1.0 - ct)
    p[..., 0, 1] = off
    p[..., 1, 0] = off.conj()
    return p


def _require_state(rho: np.ndarray, who: str) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"{who}: expected a 4x4 two-qubit state, got shape {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > 1e-10:
        raise ValueError(f"{who}: state is not Hermitian")
    tr = rho.trace()
    if abs(tr.real - 1.0) > 1e-10 or abs(tr.imag) > 1e-10:
        raise ValueError(f"{who}: state trace is not 1")
    vals = jacobi_eigh_batch(rho[None])[0]
    if vals.min() < -1e-8:
        raise ValueError(f"{who}: state has eigenvalue {vals.min():.3e} < -1e-8")
    return rho


def _marginals_batch(rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r4 = rhos.reshape(-1, 2, 2, 2, 2)
    return np.einsum("nabcb->nac", r4), np.einsum("nabad->nbd", r4)


def mutual_information_batch(rhos: np.ndarray) -> np.ndarray:
    """I = S(A) + S(B) - S(AB) for a stack of two-qubit states, in bits."""
    ra, rb = _marginals_batch(rhos)
    s_ab = entropy_from_eigenvalues(jacobi_eigh_batch(rhos))
    return entropy2_batch(ra) + entropy2_batch(rb) - s_ab


def mutual_information(rho: np.ndarray) -> float:
    """Quantum mutual information of a two-qubit state, in bits."""
    rho = _require_state(rho, "mutual_information")
    return float(mutual_information_batch(rho[None])[0])


def _conditional_entropy_term(m00, m01, m11) -> np.ndarray:
    """p * S(m / p) for unnormalised 2x2 conditionals, 0 when p vanishes."""
    p = m00.real + m11.real
    det = (m00 * m11).real - (m01.real**2 + m01.imag**2)
    disc = np.sqrt(np.clip(p * p - 4.0 * det, 0.0, None))
    ok = p > _P_FLOOR
    lam = np.where(ok, (p + disc) / np.where(ok, 2.0 * p, 1.0), 0.0)
    return np.where(ok, p, 0.0) * binary_entropy(np.clip(lam, 0.0, 1.0))


def _lex_argmax(val: np.ndarray, th: np.ndarray, ph: np.ndarray) -> np.ndarray:
    """Per-row argmax of (val, th, ph) tuples with exact lexicographic ties."""
    vmax = val.max(axis=1, keepdims=True)
    tie = val == vmax
    tmax = np.where(tie, th, -1.0).max(axis=1, keepdims=True)
    tie &= th == tmax
    pmax = np.where(tie, ph, -1.0).max(axis=1, keepdims=True)
    tie &= ph == pmax
    return np.argmax(tie, axis=1)


def classical_correlation_batch(
    rhos: np.ndarray,
    side: str = "second",
    grid: int = 64,
    refine_iters: int = 4,
    chunk: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brute-force classical correlation for a stack of two-qubit states.

    States whose eight entries off the diagonal and the anti-diagonal are
    exactly zero (X states) take a one-dimensional search: the azimuth phi
    follows in closed form from the correlation matrix, and ``grid`` points
    of the polar angle theta in [0, pi/2] are scanned and then refined
    ``refine_iters`` times, the search interval shrinking five-fold around
    the best theta each round.  Every other state scans a uniform ``grid``
    x ``grid`` mesh over theta in [0, pi] and phi in [0, 2 pi] and refines
    the box around the best axis the same way.  Ties are broken
    lexicographically on (value, theta, phi), so the result is
    deterministic and independent of batching.  ``chunk`` bounds the work
    arrays: states per mesh scan, or ``chunk * grid`` X states per scan.

    Returns (values, thetas, phis), each of shape (N,).
    """
    if side not in SIDES:
        raise ValueError(f"classical_correlation: side must be one of {SIDES}")
    if grid < 2 or refine_iters < 0:
        raise ValueError("classical_correlation: grid must be >= 2 and refine_iters >= 0")
    rhos = np.asarray(rhos, dtype=complex)
    n = rhos.shape[0]
    if chunk is None:
        # keep the (chunk, grid^2, 4) work arrays comfortably in cache
        chunk = max(8, min(2048, 300_000 // (grid * grid)))
    values = np.empty(n)
    thetas = np.empty(n)
    phis = np.empty(n)
    is_x = np.all(rhos[:, _OFF_X] == 0.0, axis=1)
    for rows, solve, size in (
        (np.flatnonzero(is_x), _cc_x, chunk * grid),
        (np.flatnonzero(~is_x), _cc_chunk, chunk),
    ):
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
    s_est = binary_entropy(0.5 * (1.0 + np.minimum(np.abs(a3), 1.0)))

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
            val = val - np.where(ok, p, 0.0) * binary_entropy(0.5 * (1.0 + radius))

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


def _cc_chunk(rhos, side, grid, refine_iters):
    n = rhos.shape[0]
    r4 = rhos.reshape(n, 2, 2, 2, 2)
    ra, rb = _marginals_batch(rhos)
    est = ra if side == "second" else rb
    s_est = entropy2_batch(est)

    # Flatten so a conditional state is one matvec: rows index the kept
    # pair (a, c) of the conditional, columns the projector pair (d, b).
    if side == "second":
        rmat = np.ascontiguousarray(np.transpose(r4, (0, 1, 3, 4, 2)).reshape(n, 4, 4))
    else:
        rmat = np.ascontiguousarray(np.transpose(r4, (0, 2, 4, 3, 1)).reshape(n, 4, 4))
    rmat_t = np.ascontiguousarray(np.swapaxes(rmat, 1, 2))
    est_flat = est.reshape(n, 4)

    frac = np.linspace(0.0, 1.0, grid)
    mesh_t, mesh_p = np.meshgrid(frac, frac, indexing="ij")
    mesh_t = mesh_t.ravel()[None, :]  # (1, K)
    mesh_p = mesh_p.ravel()[None, :]

    t_lo = np.zeros(n)
    t_hi = np.full(n, np.pi)
    p_lo = np.zeros(n)
    p_hi = np.full(n, 2.0 * np.pi)
    best_v = np.full(n, -np.inf)
    best_t = np.zeros(n)
    best_p = np.zeros(n)

    proj = np.empty((n, mesh_t.shape[1], 4), dtype=complex)
    for _ in range(refine_iters + 1):
        th = t_lo[:, None] + (t_hi - t_lo)[:, None] * mesh_t
        ph = p_lo[:, None] + (p_hi - p_lo)[:, None] * mesh_p
        ct = np.cos(th)
        off = 0.5 * np.sin(th) * np.exp(1j * ph)
        proj[..., 0] = 0.5 * (1.0 + ct)  # P[0, 0]
        proj[..., 1] = off.conj()        # P[0, 1]
        proj[..., 2] = off               # P[1, 0]
        proj[..., 3] = 0.5 * (1.0 - ct)  # P[1, 1]
        m_plus = proj @ rmat_t           # (n, K, 4) conditional entries (00, 01, 10, 11)
        m_minus = est_flat[:, None, :] - m_plus
        val = (
            s_est[:, None]
            - _conditional_entropy_term(m_plus[..., 0], m_plus[..., 1], m_plus[..., 3])
            - _conditional_entropy_term(m_minus[..., 0], m_minus[..., 1], m_minus[..., 3])
        )

        idx = _lex_argmax(val, th, ph)
        rows = np.arange(n)
        cand_v, cand_t, cand_p = val[rows, idx], th[rows, idx], ph[rows, idx]
        better = (cand_v > best_v) | (
            (cand_v == best_v) & ((cand_t > best_t) | ((cand_t == best_t) & (cand_p > best_p)))
        )
        best_v = np.where(better, cand_v, best_v)
        best_t = np.where(better, cand_t, best_t)
        best_p = np.where(better, cand_p, best_p)

        span_t = (t_hi - t_lo) / 5.0
        span_p = (p_hi - p_lo) / 5.0
        t_lo = np.clip(best_t - span_t / 2.0, 0.0, np.pi)
        t_hi = np.clip(best_t + span_t / 2.0, 0.0, np.pi)
        p_lo = np.clip(best_p - span_p / 2.0, 0.0, 2.0 * np.pi)
        p_hi = np.clip(best_p + span_p / 2.0, 0.0, 2.0 * np.pi)

    return np.maximum(best_v, 0.0), best_t, best_p


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
    out = {}
    for name, val in kwargs.items():
        v = float(val)
        if v < -1e-12 or v > 1.0 + 1e-12:
            raise ValueError(f"{who}: {name} = {v!r} outside [0, 1]")
        out[name] = min(max(v, 0.0), 1.0)
    return out


def _disturbed_entropy(prod: float) -> float:
    """H((1 + sqrt(1 - 4 u)) / 2) with the radicand clipped at zero."""
    return binary_entropy(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * prod))))


def classical_correlation_spins_two_exc(beta2: float, xi2: float, chi2: float) -> float:
    """Closed-form C of the spin pair, two-excitation family.

    C = H(beta2 * xi2) - H((1 + sqrt(1 - 4 beta2 xi2 chi2)) / 2); the
    optimum is attained by equatorial measurements.
    """
    a = _check_unit_interval("classical_correlation_spins_two_exc", beta2=beta2, xi2=xi2, chi2=chi2)
    if abs(a["xi2"] + a["chi2"] - 1.0) > 1e-10:
        raise ValueError("classical_correlation_spins_two_exc: xi2 + chi2 must be 1")
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
    if abs(a["xi2"] + a["chi2"] - 1.0) > 1e-10:
        raise ValueError("reservoir_correlations_two_exc: xi2 + chi2 must be 1")
    c = binary_entropy(a["beta2"] * a["chi2"]) - _disturbed_entropy(a["beta2"] * a["xi2"] * a["chi2"])
    return c, c


def classical_correlation_spins_one_exc(alpha2: float, xi2: float, chi2: float) -> float:
    """Closed-form C of the spin pair, one-excitation family.

    Takes the same value as the two-excitation expression with
    beta2 = 1 - alpha2; only Q distinguishes the two families.
    """
    return classical_correlation_spins_two_exc(1.0 - float(alpha2), xi2, chi2)


def quantum_correlation_spins_one_exc(alpha2: float, xi2: float, chi2: float) -> float:
    """Closed-form Q of the spin pair, one-excitation family.

    Q = -H(xi2) + H(alpha2 * xi2) + H((1 + sqrt(1 - 4 beta2 xi2 chi2)) / 2),
    with beta2 = 1 - alpha2.  At t = 0 this reduces to H(alpha2).
    """
    a = _check_unit_interval("quantum_correlation_spins_one_exc", alpha2=alpha2, xi2=xi2, chi2=chi2)
    if abs(a["xi2"] + a["chi2"] - 1.0) > 1e-10:
        raise ValueError("quantum_correlation_spins_one_exc: xi2 + chi2 must be 1")
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
    if abs(a["xi2"] + a["chi2"] - 1.0) > 1e-10:
        raise ValueError("reservoir_correlations_one_exc: xi2 + chi2 must be 1")
    beta2 = 1.0 - a["alpha2"]
    u = beta2 * a["xi2"] * a["chi2"]
    c = binary_entropy(beta2 * a["chi2"]) - binary_entropy(
        0.5 * (1.0 - math.sqrt(max(0.0, 1.0 - 4.0 * u)))
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
    vals, vecs = jacobi_eigh_batch(rhos, vectors=True)
    # square roots amplify round-off near zero: weights below 1e-13 of the
    # leading one are rank-deficiency noise and are removed exactly
    vals = np.where(vals > 1e-13 * vals[:, :1], vals, 0.0)
    sqrt_rho = np.einsum("nij,nj,nkj->nik", vecs, np.sqrt(vals), vecs.conj())
    rho_tilde = np.einsum("ij,njk,kl->nil", _SPIN_FLIP, rhos.conj(), _SPIN_FLIP)
    m = sqrt_rho @ rho_tilde @ sqrt_rho
    mv = jacobi_eigh_batch(m)
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
        return 2.0 * max(0.0, ab * x2 - (abs(beta) ** 2) * x2 * chi * chi)
    if family == "one_exc":
        return 2.0 * ab * x2
    raise ValueError(f"concurrence_closed: unknown family {family!r}")


def concurrence_closed_reservoirs(
    family: str, alpha: complex, beta: complex, xi: float, chi: float
) -> float:
    """Closed-form reservoir-pair concurrence (spin formulas with xi <-> chi)."""
    return concurrence_closed(family, alpha, beta, chi, abs(xi))
