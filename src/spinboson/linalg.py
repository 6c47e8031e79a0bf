"""Dense complex linear algebra for small Hermitian operators.

Every Hilbert space in this package has dimension 2, 4, 8 or 16 (two spins
plus two collective reservoir modes).  Spectra come from numpy's LAPACK
eigensolver (``np.linalg.eigh``/``eigvalsh``), which diagonalises each
matrix of a stack on its own, so a state's eigenvalues do not depend on
what else shares its batch.  :func:`require_state` is the one check of a
single density matrix that the public single-state functions share.

All entropies are in bits (log base 2).
"""

from __future__ import annotations

import numpy as np

MAX_DIM = 16

_HERM_TOL = 1e-10
_TRACE_TOL = 1e-10
_EIG_REJECT = -1e-8

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def require_state(rho: np.ndarray, who: str, dim: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """A density matrix as a complex array, and its ascending spectrum.

    Rejects anything but a square matrix of dimension at most 16 (exactly
    ``dim`` when given) that is Hermitian and of unit trace within 1e-10,
    with no eigenvalue below -1e-8; smaller negative eigenvalues are
    treated as partial-trace round-off.
    """
    rho = np.asarray(rho, dtype=complex)
    n = rho.shape[0] if rho.ndim == 2 else 0
    if rho.shape != (n, n) or not 0 < n <= MAX_DIM or dim not in (None, n):
        want = f"{dim}x{dim}" if dim else f"square, at most {MAX_DIM}x{MAX_DIM},"
        raise ValueError(f"{who}: expected a {want} density matrix, got shape {rho.shape}")
    if np.abs(rho - rho.conj().T).max() > _HERM_TOL:
        raise ValueError(f"{who}: matrix is not Hermitian within {_HERM_TOL}")
    tr = rho.trace()
    if abs(tr.real - 1.0) > _TRACE_TOL or abs(tr.imag) > _TRACE_TOL:
        raise ValueError(f"{who}: trace must be 1")
    vals = np.linalg.eigvalsh(rho)
    if vals[0] < _EIG_REJECT:
        raise ValueError(f"{who}: eigenvalue {vals[0]:.3e} below {_EIG_REJECT}; not a state")
    return rho, vals


def binary_entropy(x):
    """Shannon entropy of a binary distribution, in bits.

    Accepts a scalar or array in [0, 1]; endpoints give 0 by the usual
    0 log 0 = 0 convention.  Inputs outside the interval by less than
    1e-12 are clamped, anything further out is rejected.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
        raise ValueError("binary_entropy: argument outside [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)
    out = np.zeros_like(arr)
    mask = (arr > 0.0) & (arr < 1.0)
    xm = arr[mask]
    # log1p keeps the (1-x) term accurate when x is close to 0 or 1
    out[mask] = -xm * np.log2(xm) - (1.0 - xm) * (np.log1p(-xm) / np.log(2.0))
    return float(out) if out.ndim == 0 else out


def entropy_from_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """-sum(lam * log2 lam) along the last axis, clamping round-off."""
    lam = np.clip(np.asarray(vals, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # a NaN weight stays NaN, so the caller sees it
        terms = np.where(lam == 0.0, 0.0, lam * np.log2(np.where(lam > 0.0, lam, 1.0)))
    return -np.sum(terms, axis=-1)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy of a density matrix, in bits.

    The input is checked as by :func:`require_state`; eigenvalues in
    [-1e-8, 0) count as zero.
    """
    return float(entropy_from_eigenvalues(require_state(rho, "von_neumann_entropy")[1]))


def entropy2_batch(mats: np.ndarray) -> np.ndarray:
    """Entropy of a batch of 2x2 Hermitian unit-trace matrices (closed form)."""
    m = np.asarray(mats)
    tr = (m[..., 0, 0] + m[..., 1, 1]).real
    det = (m[..., 0, 0] * m[..., 1, 1]).real - (m[..., 0, 1] * m[..., 1, 0]).real
    disc = np.sqrt(np.clip(tr * tr - 4.0 * det, 0.0, None))
    lam = np.clip((tr + disc) / 2.0, 0.0, 1.0)
    return binary_entropy(np.clip(lam, 0.0, 1.0))


def random_pure_state(rng: np.random.Generator, dim: int = 16) -> np.ndarray:
    """Haar-like random pure state vector (complex normal, normalised)."""
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)
