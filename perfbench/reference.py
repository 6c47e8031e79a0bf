"""Independent reference for the classical correlation C of two-qubit states.

The library's optimiser scans a (theta, phi) box with complex projectors and
shrinks the box around the best point, clipping it to [0, pi] x [0, 2 pi].
This module shares none of that.  It works on the real Bloch form

    rho = (I + a.sigma x I + I x b.sigma + sum_ij T_ij sigma_i x sigma_j) / 4,

where measuring the second qubit along the unit vector n leaves the first in
the state with Bloch vector (a +- T n) / (1 +- b.n), reached with probability
p+- = (1 +- b.n) / 2 (Luo, PRA 77, 042303 (2008)).  Hence

    C = S(A) - min_n sum_+- p+- H((1 + |a +- T n| / (2 p+-)) / 2).

n and -n give the same measurement, so the search covers the upper
hemisphere only: a dense Fibonacci scan, then a multi-start local search
from the best few scan points.  The local search steps on a small grid in
the tangent plane of the current point and re-centres there, so it has no
coordinate boundary to get stuck on.  Everything is vectorised over states.
"""

from __future__ import annotations

import numpy as np

SCAN_POINTS = 4096
STARTS = 4
ROUNDS = 48
# Stencil of the local search: STENCIL x STENCIL points in the tangent plane.
STENCIL = 7
# States searched at once; bounds the (states x points x 3) work arrays.
CHUNK = 128
# Outcome probabilities below this carry no weight (their branch is empty).
P_FLOOR = 1e-14

_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
_FIRST = np.stack([np.kron(p, np.eye(2)) for p in _PAULI])
_SECOND = np.stack([np.kron(np.eye(2), p) for p in _PAULI])
_BOTH = np.einsum("aij,bkl->abikjl", _PAULI, _PAULI).reshape(3, 3, 4, 4)


def bloch_form(rhos: np.ndarray):
    """(a, b, T) of a stack of 4x4 states: shapes (N, 3), (N, 3), (N, 3, 3)."""
    rhos = np.asarray(rhos, dtype=complex)
    a = np.einsum("aij,nji->na", _FIRST, rhos).real
    b = np.einsum("aij,nji->na", _SECOND, rhos).real
    t = np.einsum("abij,nji->nab", _BOTH, rhos).real
    return a, b, t


def h2(x: np.ndarray) -> np.ndarray:
    """Binary entropy in bits, 0 at the endpoints."""
    x = np.clip(x, 0.0, 1.0)
    inner = (x > 0.0) & (x < 1.0)
    xs = np.where(inner, x, 0.5)
    return np.where(inner, -xs * np.log2(xs) - (1.0 - xs) * np.log2(1.0 - xs), 0.0)


def conditional_entropy(a, b, t, n) -> np.ndarray:
    """sum_+- p+- S(A | +-) for measurement axes n of shape (N, K, 3) -> (N, K)."""
    bn = np.einsum("ni,nki->nk", b, n)
    tn = np.einsum("nij,nkj->nki", t, n)
    total = np.zeros(bn.shape)
    for sign in (1.0, -1.0):
        p = 0.5 * (1.0 + sign * bn)
        length = np.sqrt(np.sum((a[:, None, :] + sign * tn) ** 2, axis=-1))
        live = p > P_FLOOR
        radius = np.where(live, length / np.where(live, 2.0 * p, 1.0), 0.0)
        total += np.where(live, p, 0.0) * h2(0.5 * (1.0 + np.minimum(radius, 1.0)))
    return total


def hemisphere(points: int) -> np.ndarray:
    """Fibonacci lattice of unit vectors with z > 0, shape (points, 3)."""
    k = np.arange(points) + 0.5
    z = k / points
    azimuth = k * np.pi * (3.0 - np.sqrt(5.0))
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(azimuth), r * np.sin(azimuth), z], axis=-1)


def _tangent_basis(n: np.ndarray):
    helper = np.where(np.abs(n[:, :1]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
    e1 = np.cross(n, helper)
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    return e1, np.cross(n, e1)


def classical_correlation(rhos: np.ndarray) -> np.ndarray:
    """Reference C (bits) of each state, measuring the second qubit."""
    a, b, t = bloch_form(rhos)
    s_first = h2(0.5 * (1.0 + np.minimum(np.linalg.norm(a, axis=-1), 1.0)))
    scan = hemisphere(SCAN_POINTS)
    step = np.linspace(-1.0, 1.0, STENCIL)
    du, dw = (g.ravel() for g in np.meshgrid(step, step, indexing="ij"))
    centre = len(du) // 2
    out = np.empty(len(a))
    for lo in range(0, len(a), CHUNK):
        sl = slice(lo, lo + CHUNK)
        m = len(a[sl])
        scan_vals = conditional_entropy(a[sl], b[sl], t[sl], np.broadcast_to(scan, (m,) + scan.shape))
        pick = np.argsort(scan_vals, axis=1)[:, :STARTS]
        n = scan[pick].reshape(-1, 3)
        best = np.take_along_axis(scan_vals, pick, axis=1).reshape(-1)
        aa, bb, tt = (np.repeat(x, STARTS, axis=0) for x in (a[sl], b[sl], t[sl]))
        # start at twice the scan spacing; halve whenever the centre stays best
        width = np.full(len(n), 2.0 * np.sqrt(2.0 * np.pi / SCAN_POINTS))
        rows = np.arange(len(n))
        for _ in range(ROUNDS):
            e1, e2 = _tangent_basis(n)
            cand = n[:, None, :] + width[:, None, None] * (
                du[None, :, None] * e1[:, None, :] + dw[None, :, None] * e2[:, None, :]
            )
            cand /= np.linalg.norm(cand, axis=-1, keepdims=True)
            vals = conditional_entropy(aa, bb, tt, cand)
            j = np.argmin(vals, axis=1)
            moved = vals[rows, j] < best
            n = np.where(moved[:, None], cand[rows, j], n)
            best = np.where(moved, vals[rows, j], best)
            width = np.where(moved & (j != centre), width, width / 2.0)
        out[sl] = s_first[sl] - best.reshape(m, STARTS).min(axis=1)
    return np.maximum(out, 0.0)
