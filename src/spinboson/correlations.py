"""Correlation measures for two-qubit states.

Two independent routes are provided for the classical correlation C and the
quantum correlation (discord) Q:

* a brute-force optimiser over orthogonal projective measurements on one
  qubit, valid for any two-qubit state, and
* closed forms for the two evolving families of :mod:`spinboson.model`:
  ``classical_correlation_spins_two_exc``, ``quantum_correlation_spins_one_exc``,
  ``reservoir_correlations_two_exc`` and ``concurrence_closed``.  The reservoir
  pair obeys the spin pair's formulas with xi and chi exchanged.

The optimiser works on the real Bloch form of the state: a deterministic
mesh scan over (polar, azimuth) on the upper hemisphere, then Newton
steps in the tangent plane at the mesh's best axis.  X states, whose
eight entries off the diagonal and the anti-diagonal are exactly zero
(every partition of both families is one at every time), scan a single
azimuth, which follows in closed form from the state's correlation
matrix, and take their concurrence in closed form from their entries;
other states take Wootters' spin-flip route.  The test is for exact
zeros, so a state with round-off in those entries takes the general ones.

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

from .linalg import (SIGMA_X, SIGMA_Y, SIGMA_Z, binary_entropy, entropy2_batch, entropy_from_eigenvalues,
                     require_finite, require_stack, require_state)

# the spin flip of Wootters' concurrence
_SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y)
# identity first: R_uv = Tr(rho sigma_u x sigma_v) holds a, b and T of the
# Bloch form in its first column, first row and lower-right block
_PAULI = np.stack([np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z])

# Entries off the diagonal and the anti-diagonal; all are exactly zero in
# an X state.
_OFF_X = ~(np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1])

# Outcome probabilities below this carry no weight; their conditional
# state is undefined and the branch contributes nothing.
_P_FLOOR = 1e-14

# Bounds of grid and refine_iters, far above any value in use; classical_correlation_batch gives the axes they cost.
MAX_GRID = 256
MAX_REFINE_ITERS = 20

# Measurement axes per slice of states, bounding the (states, axes) work arrays
# to 32 KiB each; one state's first mesh at MAX_GRID, 64 x 63 + 1 axes, fills a
# slice.  Timed interleaved in one process on a 2-vCPU Xeon (CPU time, medians
# of 40 calls, two runs), 2^11 took 1.15-1.29x as long on the benchmark's seed-1
# panel of 606 general states and on the README sweep's 606 X states, and 2^13
# 1.07-1.08x.
_SLICE_AXES = 2**12

# Step of the central differences that give each Newton step its gradient and
# Hessian.  On panel seeds 0-10 of the benchmark, both sides, the search ends at
# most 1.6e-15 bits below its reference at grids 16 to 64.
_H = 1e-4

# A state leaves the Newton loop once its Hessian is negative definite and its full
# Newton step models a gain of at most this, about 4 ulps of a 1-bit value.  On panel
# seeds 0-10 of the benchmark and the README sweep, both sides, at grids 32 to 64, it
# is the least of 1e-16, 5e-16 and 1e-15 that gives the same bits at refine 8, and C
# ends 2.4e-15 below its reference (1.6e-15 with no exit, 1.1e-14 at 1e-14).
_GAIN = 1e-15

_TINY = np.finfo(float).tiny

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
    rhos = require_stack(rhos, "mutual_information_batch")
    r4 = rhos.reshape(-1, 2, 2, 2, 2)
    s_a = entropy2_batch(np.einsum("nabcb->nac", r4))
    s_b = entropy2_batch(np.einsum("nabad->nbd", r4))
    # eigvalsh gives the small weights of near-pure states to ~1e-16 absolute
    return _floor_roundoff(s_a + s_b - entropy_from_eigenvalues(np.linalg.eigvalsh(rhos)), "mutual_information")


def mutual_information(rho: np.ndarray) -> float:
    """Quantum mutual information of a two-qubit state, in bits."""
    rho, _ = require_state(rho, "mutual_information", 4)
    return float(mutual_information_batch(rho[None])[0])


def classical_correlation_batch(rhos: np.ndarray, side: str = "second", grid: int = 64,
                                refine_iters: int = 4) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brute-force classical correlation for a stack of two-qubit states.

    Scans an m x m mesh of the upper hemisphere, m = max(12, grid // 4), the
    pole once: polar angles theta in [0, pi/2] times azimuths phi in [0, 2
    pi).  From its best axis it takes at most 2 ``refine_iters`` Newton steps
    in the tangent plane, each scoring the 3 x 3 stencil centred on its trial
    axis, and stops where a step can gain only round-off: at most m^2 - m + 1
    + 9 (2 ``refine_iters`` + 1) axes.  States whose eight entries off the
    diagonal and the anti-diagonal are exactly zero (X states) scan ``grid``
    polar angles at one azimuth, known in closed form, and step in the polar
    direction only: at most grid + 3 (2 ``refine_iters`` + 1) axes.  ``grid``
    is an integer in [2, MAX_GRID], ``refine_iters`` one in [0,
    MAX_REFINE_ITERS].  The search is deterministic and a state's result
    depends neither on its batch nor, once converged, on ``refine_iters``:
    each scan covers as many states as fit in ``_SLICE_AXES`` axes.

    Returns (values, thetas, phis), each of shape (N,), with theta in
    [0, pi] and phi in [0, 2 pi).
    """
    if side not in SIDES:
        raise ValueError(f"classical_correlation: side must be one of {SIDES}")
    for name, value, lo, hi in (("grid", grid, 2, MAX_GRID), ("refine_iters", refine_iters, 0, MAX_REFINE_ITERS)):
        # a bool is an int too; NaN and 64.0 are not
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not lo <= value <= hi:
            raise ValueError(f"classical_correlation: {name} must be an integer in [{lo}, {hi}], got {value!r}")
    rhos = require_stack(rhos, "classical_correlation_batch")
    values, thetas, phis = np.empty((3, len(rhos)))
    for x_states, rows, sub in _split_x(rhos):
        values[rows], thetas[rows], phis[rows] = _cc_mesh(sub, side, grid, refine_iters, x_states)
    return values, thetas, phis


def _split_x(rhos):
    """(is_x, rows, states) for the X states, exactly zero at ``_OFF_X``, then the rest; empty groups are left out."""
    is_x = np.all(rhos[:, _OFF_X] == 0.0, axis=1)
    return [(x, rows, rhos[rows]) for x in (True, False) if (rows := np.flatnonzero(is_x == x)).size]


def _cc_mesh(rhos, side, grid, refine_iters, x_states):
    """Measurement optimiser in the real Bloch form.

    With rho = (I + a.sigma x I + I x b.sigma + sum T_ij sigma_i x sigma_j)/4
    and the second qubit measured along n, the first is left with Bloch
    vector (a +- T n) / (2 p+-) with probability p+- = (1 +- b.n)/2 (Luo,
    PRA 77, 042303 (2008)), so C is the maximum over n of S(A) - sum_+- p+-
    H((1 + |a +- T n| / (2 p+-)) / 2) (Girolami & Adesso, PRA 83, 052108
    (2011)).  n and -n are the same measurement, so the mesh covers the
    upper hemisphere.  The steps work in the chart n = (n0 + u e1 + w e2) /
    sqrt(1 + u^2 + w^2) at the mesh's best axis n0, with (e1, e2) the
    (theta, phi) frame of n0.  Each reads the gradient g and Hessian H in
    (u, w) from a central-difference stencil and tries -H^-1 g where H is
    negative definite, else g, no longer than a trust radius.  The trial is
    the centre of its own stencil, kept, with that stencil, only if it scores
    strictly higher; a rejected one quarters the radius.  Away from an empty
    branch the objective is smooth, so the steps converge quadratically.  A
    state leaves once H is negative definite and the full step s = -H^-1 g
    models a gain g.s / 2 of at most ``_GAIN``, which bounds every capped or
    later step from that stencil; gradient steps go on to the budget's end.

    With ``x_states`` every state is an X state: a = a_z z, b = b_z z and T
    is block diagonal, so p+- does not depend on phi and the best phi
    maximises n.G n for every theta, with G = T^T T.  That phi, along the
    top eigenvector of G's xy block, is the only azimuth of the mesh (Chen
    et al., PRA 84, 042313 (2011)), and the steps keep w = 0.

    Every axis, of the mesh or a stencil, is scored one way: from
    b.n and the three components of T n, with |a +- T n| summed from its
    components.  The mesh takes b.e and T e of the frame at the pole, turned
    by the X-state azimuth, and gives each of its axes the coefficients
    (cos theta, sin theta cos phi, sin theta sin phi) in that frame.
    """
    n = rhos.shape[0]
    r = np.einsum("nabcd,uca,vdb->nuv", rhos.reshape(n, 2, 2, 2, 2), _PAULI, _PAULI).real
    if side == "first":
        r = np.swapaxes(r, 1, 2)
    # a of the kept qubit; b and T of the measured one, stacked
    a, bt = r[:, 1:, 0], r[:, :, 1:]
    s_est = binary_entropy(0.5 * (1.0 + np.minimum(np.sqrt(np.einsum("ni,ni->n", a, a)), 1.0)))[:, None]
    # the components of a, each a (states, 1) column
    a = a.T[..., None]

    def slices(axes):
        """Slices of the states, as many per slice as fit in _SLICE_AXES axes."""
        size = max(1, _SLICE_AXES // axes)
        return [slice(lo, min(lo + size, n)) for lo in range(0, n, size)]

    def frame(theta, phi):
        """The axes at (theta, phi) with their (theta, phi) frames, n0, e1 and e2 along axis 1, and b.e and T e."""
        (st, ct), (sp, cp) = (np.sin(theta), np.cos(theta)), (np.sin(phi), np.cos(phi))
        axes = np.stack([np.stack(v, axis=-1) for v in (
            (st * cp, st * sp, ct), (ct * cp, ct * sp, -st), (-sp, cp, np.zeros_like(sp)))], axis=1)
        return axes, np.einsum("nij,nkj->nik", bt, axes)

    rows = grid if x_states else max(12, grid // 4)
    # the frame's azimuth: the X states' closed-form one, else 0
    g = np.einsum("nki,nkj->nij", r[:, 1:, 1:3], r[:, 1:, 1:3])
    spin = np.mod(0.5 * np.arctan2(g[:, 0, 1], 0.5 * (g[:, 0, 0] - g[:, 1, 1])), np.pi) if x_states else np.zeros(n)
    az = 1 if x_states else rows  # azimuths; the pole keeps its first, the one ties would pick
    theta, phi = (np.delete(x.ravel(), np.s_[1:az]) for x in np.meshgrid(
        np.linspace(0.0, 0.5 * np.pi, rows), np.arange(az) * (2.0 * np.pi / rows), indexing="ij"))
    coeffs = np.stack([np.cos(theta), np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi)])
    _, proj = frame(np.zeros(n), spin)
    best_i = np.empty(n, dtype=int)
    for sel in slices(coeffs.shape[1]):
        # ties keep the first maximum, in scan order
        best_i[sel] = np.argmax(_objective(s_est[sel], a[:, sel], np.einsum("nkj,ja->kna", proj[sel], coeffs)), axis=1)

    axes, proj = frame(theta[best_i], spin + phi[best_i])
    # the central-difference stencil: 3 x 3 points, 3 x 1 for X states
    ticks = np.array([-_H, 0.0, _H])
    du, dw = (x.ravel() for x in np.meshgrid(ticks, ticks[1:2] if x_states else ticks, indexing="ij"))

    def stencil(idx, at):
        """The objective on the stencils of states ``idx`` centred on chart points ``at``, (states, 3, 3 or 1)."""
        u, w = at[:, :1] + du, at[:, 1:] + dw
        norm = np.sqrt(1.0 + u * u + w * w)
        return _objective(s_est[idx], a[:, idx], [(v[:, :1] + u * v[:, 1:2] + w * v[:, 2:]) / norm
                                                  for v in np.moveaxis(proj[idx], 1, 0)]).reshape(len(at), 3, -1)

    # the chart point, its value, and the trust radius: one polar mesh step, quartered on every rejected trial
    uw, best_v, radius = np.zeros((n, 2)), np.empty(n), np.full(n, 0.5 * np.pi / (rows - 1))
    for sel in slices(len(du)):
        live = np.arange(n)[sel]  # the states still stepping; f holds their stencils
        f = stencil(live, uw[live])
        m = f.shape[2] // 2
        for _ in range(2 * refine_iters):
            r = radius[live]
            gu, huu = (f[:, 2, m] - f[:, 0, m]) / (2.0 * _H), (f[:, 2, m] - 2.0 * f[:, 1, m] + f[:, 0, m]) / _H**2
            # X states move along u only: no slope along w, and a curvature that keeps Newton's w at 0
            gw, hww, huw = (0.0, -1.0, 0.0) if x_states else (
                (f[:, 1, 2] - f[:, 1, 0]) / (2.0 * _H), (f[:, 1, 2] - 2.0 * f[:, 1, 1] + f[:, 1, 0]) / _H**2,
                (f[:, 2, 2] - f[:, 2, 0] - f[:, 0, 2] + f[:, 0, 0]) / (4.0 * _H**2))
            det = huu * hww - huw * huw
            # Newton's step -H^-1 g where the Hessian is negative definite, else the gradient at full radius
            newton = (huu < 0.0) & (det > 0.0)
            det, scale = np.where(newton, det, 1.0), r / np.maximum(np.hypot(gu, gw), _TINY)
            step = np.stack([np.where(newton, (huw * gw - hww * gu) / det, gu * scale),
                             np.where(newton, (huw * gu - huu * gw) / det, gw * scale)], -1)
            # a state whose full Newton step models a gain of at most _GAIN leaves, with its value
            done = newton & (0.5 * (gu * step[:, 0] + gw * step[:, 1]) <= _GAIN)
            best_v[live[done]] = f[done, 1, m]
            live, f, step, r = live[~done], f[~done], step[~done], r[~done]
            if not live.size:
                break
            trial = uw[live] + step * (r / np.maximum(np.hypot(step[:, 0], step[:, 1]), r))[:, None]
            f_trial = stencil(live, trial)
            # only a strictly better trial moves the point; a rejected one leaves it and its stencil as they were
            better = f_trial[:, 1, m] > f[:, 1, m]
            radius[live], f = np.where(better, r, 0.25 * r), np.where(better[:, None, None], f_trial, f)
            uw[live] = np.where(better[:, None], trial, uw[live])
        best_v[live] = f[:, 1, m]

    axis = (axes[:, 0] + uw[:, :1] * axes[:, 1] + uw[:, 1:] * axes[:, 2]) / np.sqrt(
        1.0 + uw[:, :1] * uw[:, :1] + uw[:, 1:] * uw[:, 1:])
    phi = np.mod(np.arctan2(axis[:, 1], axis[:, 0]), 2.0 * np.pi)
    # mod of a tiny negative angle rounds up to 2 pi itself
    return np.maximum(best_v, 0.0), np.arctan2(np.hypot(axis[:, 0], axis[:, 1]), axis[:, 2]), np.where(phi < 2.0 * np.pi, phi, 0.0)


def _objective(s_est, a, projections):
    """S(A) - sum_+- p+- H((1 + |a +- T n| / (2 p+-)) / 2) from S(A), a and each axis's (b.n, T n), component-wise."""
    bn, *tn = projections
    val = 0.0
    for q, branch in ((1.0 + bn, np.add), (1.0 - bn, np.subtract)):
        # q = 2 p+-; an empty branch (p <= _P_FLOOR) gets weight 0 and any radius
        length = np.sqrt(sum(branch(ai, ti) ** 2 for ai, ti in zip(a, tn)))
        radius = np.minimum(length / np.maximum(q, 2.0 * _P_FLOOR), 1.0)
        val = val + np.where(q > 2.0 * _P_FLOOR, q, 0.0) * _entropy_half(radius)
    return s_est - 0.5 * val


def _entropy_half(r):
    """H((1 + r) / 2) in bits for r in [0, 1], unchecked."""
    x = 0.5 * (1.0 + r)
    y = 1.0 - x  # exact for x >= 1/2; at y = 0 the term is 0 times a finite log
    return -x * np.log2(x) - y * np.log2(np.maximum(y, _TINY))


def classical_correlation_bruteforce(rho: np.ndarray, side: str = "second", grid: int = 64,
                                     refine_iters: int = 4) -> tuple[float, MeasurementAxis]:
    """Maximal entropy reduction of one qubit by measuring the other.

    Returns the correlation in bits together with a maximising axis.  Flat
    maxima are common (the model's X states are azimuthally degenerate), so
    only the value is meaningful for comparisons; the axis is one
    deterministic representative of the optimal family.
    """
    rho, _ = require_state(rho, "classical_correlation", 4)
    v, t, p = classical_correlation_batch(rho[None], side, grid, refine_iters)
    return float(v[0]), MeasurementAxis(float(t[0]), float(p[0]))


def discord(rho: np.ndarray, side: str = "second", grid: int = 64, refine_iters: int = 4) -> float:
    """Quantum correlation Q = I - C via the brute-force optimiser, in bits (see ``discord_from``)."""
    rho, _ = require_state(rho, "discord", 4)
    c, _, _ = classical_correlation_batch(rho[None], side, grid, refine_iters)
    return float(discord_from(mutual_information_batch(rho[None]), c)[0])


def discord_from(info, classical) -> np.ndarray:
    """Q = I - C from arrays of I and optimiser C, in bits.

    Optimiser slack can leave values a hair below zero; anything in
    [-1e-8, 0) is reported as 0, and anything below raises.
    """
    return _floor_roundoff(np.asarray(info) - classical, "discord")


def _floor_roundoff(values: np.ndarray, who: str) -> np.ndarray:
    """Entropy differences with round-off in [-1e-8, 0) set to 0, a scalar kept scalar; raises on lower or non-finite."""
    values = require_finite(values, who)
    if np.any(values < -1e-8):
        raise ValueError(f"{who}: negative value {values.min():.3e} beyond clamp")
    # not np.maximum, which can keep -0.0
    return np.where(values > 0.0, values, 0.0)[()]


# ---------------------------------------------------------------------------
# Closed forms for the two evolving families.
# ---------------------------------------------------------------------------


def _check_unit_interval(who: str, **kwargs) -> tuple:
    """Arguments as floats clipped to [0, 1], in order, with xi2 + chi2 = 1 checked; NaN fails both."""
    out = {}
    for name, val in kwargs.items():
        v = np.asarray(val, dtype=float)
        bad = ~((v >= -1e-12) & (v <= 1.0 + 1e-12))
        if bad.any():
            raise ValueError(f"{who}: {name} = {float(v[bad][0])!r} outside [0, 1]")
        out[name] = np.clip(v, 0.0, 1.0)
    if not np.all(np.abs(out["xi2"] + out["chi2"] - 1.0) <= 1e-10):
        raise ValueError(f"{who}: xi2 + chi2 must be 1")
    return tuple(out.values())


def _entropy_drop(p, q, d, direct):
    """H(p) - H(q) in bits, from d = p - q formed without a subtraction.

    As d ln((1 - p) / p) - q log1p(d / q) - (1 - q) log1p(-d / (1 - q)) nats it does not cancel as
    q nears p <= 1/2; ``direct`` cells, q <= 0 and a subnormal p, whose (1 - p) / p overflows, take H(p) - H(q).
    """
    direct = direct | (q <= 0.0) | (p < _TINY)
    # where the direct form serves, this one may divide by zero or overflow: those cells are dropped
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        small = d * np.log((1.0 - p) / p) - q * np.log1p(d / q) - (1.0 - q) * np.log1p(-d / (1.0 - q))
    return np.where(direct, binary_entropy(p) - binary_entropy(q), small / np.log(2.0))


def _classical(beta2, x2, y2):
    """C = H(p) - H(q) with p = beta2 x2 and q = (1 - s) / 2, s = sqrt(1 - 4 beta2 x2 y2).

    H is symmetric about 1/2; q is taken as 2 beta2 x2 y2 / (1 + s), which has
    no cancellation, with the radicand clipped at 0.  For x2 <= 1/2 the two
    entropies cancel as x2 shrinks, so there C comes from d = p - q = 4 beta2
    (1 - beta2) x2^2 y2 / ((1 + s) (1 + s - 2 x2)) by ``_entropy_drop``.
    """
    s = np.sqrt(np.maximum(0.0, 1.0 - 4.0 * beta2 * x2 * y2))
    p, q = beta2 * x2, 2.0 * beta2 * x2 * y2 / (1.0 + s)
    d = 4.0 * beta2 * (1.0 - beta2) * x2 * x2 * y2 / np.maximum((1.0 + s) * (1.0 + s - 2.0 * x2), _TINY)
    return _floor_roundoff(_entropy_drop(p, q, d, x2 > 0.5), "closed-form C")


def classical_correlation_spins_two_exc(beta2: float, xi2: float, chi2: float) -> float:
    """Closed-form C of the spin pair in both families, with beta2 = |beta|^2.

    C = H(beta2 * xi2) - H((1 + sqrt(1 - 4 beta2 xi2 chi2)) / 2), attained by
    equatorial measurements; in the two-excitation family Q = C.
    """
    beta2, xi2, chi2 = _check_unit_interval("classical_correlation_spins_two_exc", beta2=beta2, xi2=xi2, chi2=chi2)
    return _classical(beta2, xi2, chi2)


def reservoir_correlations_two_exc(beta2: float, xi2: float, chi2: float) -> tuple[float, float]:
    """Closed-form (C, Q) of the reservoir pair, two-excitation family.

    The reservoir pair mirrors the spin pair with the roles of xi and chi
    exchanged, and again C = Q.
    """
    beta2, xi2, chi2 = _check_unit_interval("reservoir_correlations_two_exc", beta2=beta2, xi2=xi2, chi2=chi2)
    c = _classical(beta2, chi2, xi2)
    return c, c


def quantum_correlation_spins_one_exc(alpha2: float, xi2: float, chi2: float) -> float:
    """Closed-form Q of the spin pair, one-excitation family.

    Q = H(alpha2 xi2) - (H(xi2) - H(q)), q = (1 - sqrt(1 - 4 beta2 xi2 chi2)) / 2, beta2 = 1 - alpha2;
    at t = 0 it is H(alpha2).  H(xi2) = H(p) for p = min(xi2, chi2), and p (1 - p) - q (1 - q) =
    alpha2 xi2 chi2 gives d = p - q for ``_entropy_drop``; the radicand is taken as (xi2 - chi2)^2
    + 4 alpha2 xi2 chi2, which keeps a small alpha2.
    """
    alpha2, xi2, chi2 = _check_unit_interval("quantum_correlation_spins_one_exc", alpha2=alpha2, xi2=xi2, chi2=chi2)
    u, gap = xi2 * chi2, np.abs(xi2 - chi2)
    s = np.sqrt(gap * gap + 4.0 * alpha2 * u)
    # d = alpha2 u / (1 - p - q); at alpha2 = 1, q = 0 and p = xi2 make Q exactly 0
    p, d = np.where(alpha2 < 1.0, np.minimum(xi2, chi2), xi2), 2.0 * alpha2 * u / np.maximum(gap + s, _TINY)
    q = binary_entropy(alpha2 * xi2) - _entropy_drop(p, 2.0 * (1.0 - alpha2) * u / (1.0 + s), d, False)
    return _floor_roundoff(q, "closed-form Q")


# ---------------------------------------------------------------------------
# Concurrence.
# ---------------------------------------------------------------------------


def concurrence_batch(rhos: np.ndarray) -> np.ndarray:
    """Wootters concurrence for a stack of two-qubit states.

    X states (exact zeros off the diagonal and the anti-diagonal) take the
    exact 2 max(0, |rho14| - sqrt(rho22 rho33), |rho23| - sqrt(rho11 rho44))
    (Yu & Eberly, Quantum Inf. Comput. 7, 459 (2007)).  The rest take max(0,
    lambda_1 - lambda_2 - lambda_3 - lambda_4), with the lambdas the singular
    values of tau = W^T (sigma_y x sigma_y) W, rho = W W^dagger and W = V
    diag(sqrt(p)) from rho's eigensystem (Wootters, PRL 80, 2245 (1998)).
    """
    rhos, out = require_stack(rhos, "concurrence_batch"), np.empty(len(rhos))
    for x_states, rows, r in _split_x(rhos):
        if x_states:  # a product of round-off-negative weights is clipped at 0
            d = np.maximum(r[:, [1, 0], [1, 0]].real * r[:, [2, 3], [2, 3]].real, 0.0)
            out[rows] = 2.0 * np.maximum(0.0, (np.abs(r[:, [0, 1], [3, 2]]) - np.sqrt(d)).max(axis=1))
        else:
            vals, vecs = np.linalg.eigh(r)
            # negative round-off has no root; a small positive weight is genuine and moves the lambdas
            w = vecs * np.sqrt(np.maximum(vals, 0.0))[:, None, :]
            lam = np.linalg.svd(np.swapaxes(w, 1, 2) @ _SPIN_FLIP @ w, compute_uv=False)
            out[rows] = np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])
    return out


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
    The reservoir pair's concurrence is this formula at (chi, xi).
    """
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if not abs(norm - 1.0) <= 1e-10:  # Scenario's rule; also rejects NaN
        raise ValueError(f"concurrence_closed: |alpha|^2 + |beta|^2 = {norm!r}, must be 1")
    _check_unit_interval("concurrence_closed", xi2=np.square(xi), chi2=np.square(chi))
    ab, x2 = abs(alpha) * abs(beta), xi * xi
    if family == "two_exc":
        return 2.0 * np.maximum(0.0, ab * x2 - (abs(beta) ** 2) * x2 * chi * chi)
    if family == "one_exc":
        return 2.0 * ab * x2
    raise ValueError(f"concurrence_closed: unknown family {family!r}")

