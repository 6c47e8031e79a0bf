"""Correlation measures for two-qubit states.

Two independent routes are provided for the classical correlation C and the
quantum correlation (discord) Q:

* a brute-force optimiser over orthogonal projective measurements on one
  qubit, valid for any two-qubit state, and
* closed forms for the spin pair and the reservoir pair of the two
  evolving initial-state families of :mod:`spinboson.model`.

The optimiser works on the real Bloch form of the state: a deterministic
mesh scan over (polar, azimuth) on the upper hemisphere, then local
refinement.  X states, whose eight entries off the diagonal and the
anti-diagonal are exactly zero (every partition of both families is one
at every time), scan a single azimuth, which follows in closed form from
the state's correlation matrix.  The test is for exact zeros, so a state
with round-off in those entries scans every azimuth.

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
    require_state,
)

# sigma_y x sigma_y, the spin flip of Wootters' concurrence
_SPIN_FLIP = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex
)
# identity first: R_uv = Tr(rho sigma_u x sigma_v) holds a, b and T of the
# Bloch form in its first column, first row and lower-right block
_PAULI = np.stack([np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z])

# Entries off the diagonal and the anti-diagonal; all are exactly zero in
# an X state.
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])

# Outcome probabilities below this carry no weight; their conditional
# state is undefined and the branch contributes nothing.
_P_FLOOR = 1e-14

_DISCORD_CLAMP = -1e-8

# Measurement axes per slice of states, bounding the (states, axes) work arrays
# to 32 KiB each.  Timed interleaved in one process on a 2-vCPU Xeon (48 KiB L1d
# per core), 2^12 beat 2^13 in 15 of 16 calls on the benchmark's seed-1 panel of
# 606 general states (median 0.22 against 0.31 s) and in 115 of 120 on the
# README sweep's 606 X states (12 against 16 ms), and beat 2^11 in every call.
_SLICE_AXES = 2**12

# Points per side of each refinement box (in theta only for X states): on
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


def mutual_information_batch(rhos: np.ndarray) -> np.ndarray:
    """I = S(A) + S(B) - S(AB) for a stack of two-qubit states, in bits."""
    r4 = rhos.reshape(-1, 2, 2, 2, 2)
    s_a = entropy2_batch(np.einsum("nabcb->nac", r4))
    s_b = entropy2_batch(np.einsum("nabad->nbd", r4))
    return s_a + s_b - entropy_from_eigenvalues(np.linalg.eigvalsh(rhos))


def mutual_information(rho: np.ndarray) -> float:
    """Quantum mutual information of a two-qubit state, in bits."""
    rho, _ = require_state(rho, "mutual_information", 4)
    return float(mutual_information_batch(rho[None])[0])


def classical_correlation_batch(
    rhos: np.ndarray,
    side: str = "second",
    grid: int = 64,
    refine_iters: int = 4,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brute-force classical correlation for a stack of two-qubit states.

    Scans a ``grid`` x ``grid`` mesh over the upper hemisphere, polar angle
    theta in [0, pi/2] and azimuth phi in [0, 2 pi), and refines around the
    best axis ``refine_iters`` times, each round shrinking the box
    eight-fold in three halving steps of 9 x 9 axes: grid^2 + 243
    ``refine_iters`` axes in all.  The box is not clipped, so it may cross
    the pole or phi = 2 pi.  States whose eight entries off the diagonal
    and the anti-diagonal are exactly zero (X states) scan one azimuth,
    known in closed form, in every box: grid + 27 ``refine_iters`` axes.
    The search is deterministic and each state's result is independent of
    its batch.  Each scan covers as many states as fit in ``_SLICE_AXES``
    measurement axes, and at least one; above grid 64 a general state's
    first mesh is scanned in bands of theta that fit.

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
    for x_states in (True, False):
        rows = np.flatnonzero(is_x == x_states)
        values[rows], thetas[rows], phis[rows] = _cc_mesh(rhos[rows], side, grid, refine_iters, x_states)
    return values, thetas, phis


def _cc_mesh(rhos, side, grid, refine_iters, x_states):
    """Measurement optimiser in the real Bloch form.

    With rho = (I + a.sigma x I + I x b.sigma + sum T_ij sigma_i x sigma_j)/4
    and the second qubit measured along n, the first is left with Bloch
    vector (a +- T n) / (2 p+-) with probability p+- = (1 +- b.n)/2 (Luo,
    PRA 77, 042303 (2008)), so C is the maximum over n of S(A) - sum_+- p+-
    H((1 + |a +- T n| / (2 p+-)) / 2) (Girolami & Adesso, PRA 83, 052108
    (2011)).  n and -n are the same measurement, so the first box, a
    ``grid`` x ``grid`` mesh, covers the upper hemisphere.  Each of the
    ``refine_iters`` rounds then shrinks the box eight-fold in three
    halving steps, each scanning ``_BOX`` x ``_BOX`` axes centred on the
    best axis so far; the second box spans 1/8 of the mesh.  (theta, phi) ->
    n is smooth and periodic, so the boxes need no clipping; n(-theta, phi)
    = n(theta, phi + pi) normalises the returned axis.

    With ``x_states`` every state is an X state: a = a_z z, b = b_z z and T
    is block diagonal, so p+- does not depend on phi and the best phi
    maximises n.G n for every theta, with G = T^T T.  That phi, along the
    top eigenvector of G's xy block, is the only azimuth scanned (Chen et
    al., PRA 84, 042313 (2011)), and the boxes have azimuthal width 0.

    Each scan is an outer product of polar angles and azimuths, and so is
    every term: v.n = sin theta (v_x cos phi + v_y sin phi) + v_z cos theta,
    and |a +- T n|^2 = |a|^2 + n.G n +- 2 (a^T T).n, clamped at 0 against
    round-off before the square root.  Near an empty branch that expansion
    loses digits, so the winning axis is scored once more with |a +- T n|
    computed directly, and that value is returned.
    """
    n = rhos.shape[0]
    r = np.einsum("nabcd,uca,vdb->nuv", rhos.reshape(n, 2, 2, 2, 2), _PAULI, _PAULI).real
    if side == "first":
        r = np.swapaxes(r, 1, 2)
    # a of the kept qubit, b of the measured one
    a, b, t = r[:, 1:, 0], r[:, 0, 1:], r[:, 1:, 1:]
    a2 = np.einsum("ni,ni->n", a, a)
    s_est = binary_entropy(0.5 * (1.0 + np.minimum(np.sqrt(a2), 1.0)))
    g = np.einsum("nki,nkj->nij", t, t)
    # the first box, the mesh, is centred on the middle of the hemisphere; X
    # states scan one azimuth column, the closed-form one
    span_t = 0.5 * np.pi
    best_v, best_t = np.full(n, -np.inf), np.full(n, span_t / 2.0)
    if x_states:
        best_p = np.mod(0.5 * np.arctan2(g[:, 0, 1], 0.5 * (g[:, 0, 0] - g[:, 1, 1])), np.pi)
        span_p, cols = 0.0, 1
    else:
        span_p, cols = 2.0 * np.pi * (grid - 1) / grid, None
        best_p = np.full(n, span_p / 2.0)
    # trailing axes span the scan
    bs, gs, at2 = b[..., None, None], g[..., None, None], 2.0 * np.einsum("ni,nij->nj", a, t)[..., None, None]

    def scan(sel, th, ph):
        """Score the outer product of th (k, mt) and ph (k, mp) for states sel."""
        mp = ph.shape[1]
        st, ct = np.sin(th)[:, :, None], np.cos(th)[:, :, None]
        cp, sp = np.cos(ph)[:, None, :], np.sin(ph)[:, None, :]
        gk = gs[sel]
        bn, an2 = (st * (v[:, 0] * cp + v[:, 1] * sp) + v[:, 2] * ct for v in (bs[sel], at2[sel]))
        # |a|^2 + n.G n, the part of |a +- T n|^2 even in the sign
        even = a2[sel, None, None] + gk[:, 2, 2] * ct * ct + 2.0 * st * ct * (gk[:, 0, 2] * cp + gk[:, 1, 2] * sp) + (
            st * st * (gk[:, 0, 0] * cp * cp + 2.0 * gk[:, 0, 1] * cp * sp + gk[:, 1, 1] * sp * sp))
        lengths = (np.sqrt(np.maximum(even + an2, 0.0)), np.sqrt(np.maximum(even - an2, 0.0)))
        val = _objective(s_est[sel, None, None], bn, lengths).reshape(len(th), -1)

        # ties keep the first maximum, in scan order and then round order
        idx = np.argmax(val, axis=1)
        rows = np.arange(len(idx))
        cand_v = val[rows, idx]
        better = cand_v > best_v[sel]
        best_v[sel] = np.where(better, cand_v, best_v[sel])
        best_t[sel] = np.where(better, th[rows, idx // mp], best_t[sel])
        best_p[sel] = np.where(better, ph[rows, idx % mp], best_p[sel])

    def slices(axes):
        """Slices of the states, as many per slice as fit in _SLICE_AXES axes."""
        size = max(1, _SLICE_AXES // axes)
        return [slice(lo, min(lo + size, n)) for lo in range(0, n, size)]

    # a box of width w has steps of w / (_BOX - 1), so the next, of width w / 2
    # around the best point, reaches (_BOX - 1) / 4 steps past it either way;
    # the scales are exact powers of two, and on the mesh best - w / 2 is 0
    for points, scale in [(grid, 1.0)] + [(_BOX, 2.0**-step) for step in range(3, 3 * refine_iters + 3)]:
        frac = np.linspace(0.0, 1.0, points)
        w_t, w_p = span_t * scale, span_p * scale
        # above grid 64 a state's mesh is scanned in theta bands, in order: the first maximum still wins
        band = max(1, _SLICE_AXES // len(frac[:cols]))
        for sel in slices(points * len(frac[:cols])):
            th = best_t[sel, None] - w_t / 2.0 + w_t * frac
            ph = best_p[sel, None] - w_p / 2.0 + w_p * frac[:cols]
            for lo in range(0, points, band):
                scan(sel, th[:, lo:lo + band], ph)

    st = np.sin(best_t)
    axis = np.stack([st * np.cos(best_p), st * np.sin(best_p), np.cos(best_t)], axis=1)
    tn = np.einsum("nij,nj->ni", t, axis)
    value = _objective(s_est, np.einsum("ni,ni->n", b, axis),
                       (np.linalg.norm(a + tn, axis=1), np.linalg.norm(a - tn, axis=1)))
    phi = np.mod(best_p + np.where(best_t < 0.0, np.pi, 0.0), 2.0 * np.pi)
    # mod of a tiny negative angle rounds up to 2 pi itself
    return np.maximum(value, 0.0), np.abs(best_t), np.where(phi < 2.0 * np.pi, phi, 0.0)


def _objective(s_est, bn, lengths):
    """S(A) - sum_+- p+- H((1 + |a +- T n| / (2 p+-)) / 2) from b.n and (|a + T n|, |a - T n|)."""
    val = 0.0
    for q, length in zip((1.0 + bn, 1.0 - bn), lengths):
        # q = 2 p+-; an empty branch (p <= _P_FLOOR) gets weight 0 and any radius
        radius = np.minimum(length / np.maximum(q, 2.0 * _P_FLOOR), 1.0)
        val = val + np.where(q > 2.0 * _P_FLOOR, q, 0.0) * _entropy_half(radius)
    return s_est - 0.5 * val


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
    maxima are common (the model's X states are azimuthally degenerate), so
    only the value is meaningful for comparisons; the axis is one
    deterministic representative of the optimal family.
    """
    rho, _ = require_state(rho, "classical_correlation", 4)
    v, t, p = classical_correlation_batch(rho[None], side, grid, refine_iters)
    return float(v[0]), MeasurementAxis(float(t[0]), float(p[0]))


def discord(
    rho: np.ndarray,
    side: str = "second",
    grid: int = 64,
    refine_iters: int = 4,
) -> float:
    """Quantum correlation Q = I - C via the brute-force optimiser, in bits (see ``discord_from``)."""
    rho, _ = require_state(rho, "discord", 4)
    c, _ = classical_correlation_bruteforce(rho, side, grid, refine_iters)
    return float(discord_from(mutual_information_batch(rho[None]), c)[0])


def discord_from(info, classical) -> np.ndarray:
    """Q = I - C from arrays of I and optimiser C, in bits.

    Optimiser slack can leave values a hair below zero; anything in
    [-1e-8, 0) is reported as 0, and anything below raises.
    """
    q = np.asarray(info) - classical
    if np.any(q < _DISCORD_CLAMP):
        raise ValueError(f"discord: negative value {np.nanmin(q):.3e} beyond clamp")
    # not np.maximum, which can keep -0.0
    return np.where(q > 0.0, q, 0.0)


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
    rho, _ = require_state(rho, "concurrence_wootters", 4)
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
