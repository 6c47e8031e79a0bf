"""Dense complex linear algebra for small Hermitian operators.

Every Hilbert space in this package has dimension 2, 4, 8 or 16 (two spins
plus two collective reservoir modes).  Spectra come from numpy's LAPACK
eigensolver (``np.linalg.eigh``/``eigvalsh``), which diagonalises each
matrix of a stack on its own, so a state's eigenvalues do not depend on
what else shares its batch.  The single-matrix wrappers here validate
their input and return eigenvalues in descending order.

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


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square operators.

    The result dimension is capped at 16, the largest space used anywhere
    in this package.  Hermiticity of the factors carries over to the
    product exactly, so no re-symmetrisation is performed.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("tensor: first factor is not a square matrix")
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("tensor: second factor is not a square matrix")
    dim = a.shape[0] * b.shape[0]
    if dim > MAX_DIM:
        raise ValueError(f"tensor: result dimension {dim} exceeds supported maximum {MAX_DIM}")
    return np.kron(a, b)


def partial_trace(rho: np.ndarray, keep, dims) -> np.ndarray:
    """Reduced density matrix over the subsystems listed in ``keep``.

    Parameters
    ----------
    rho : (D, D) density matrix, Hermitian with unit trace.
    keep : indices of the subsystems to retain, in any order; the output
        keeps them in their original relative order.
    dims : dimension of each subsystem; the product must equal D.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ValueError("partial_trace: subsystem dimensions must be positive")
    total = int(np.prod(dims))
    if rho.ndim != 2 or rho.shape != (total, total):
        raise ValueError(
            f"partial_trace: dims {dims} imply dimension {total}, got matrix of shape {rho.shape}"
        )
    keep = sorted(set(int(k) for k in keep))
    if not keep or any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"partial_trace: keep indices {keep} invalid for {len(dims)} subsystems")
    if np.abs(rho - rho.conj().T).max() > _HERM_TOL:
        raise ValueError("partial_trace: input is not Hermitian")
    if abs(rho.trace().real - 1.0) > _TRACE_TOL or abs(rho.trace().imag) > _TRACE_TOL:
        raise ValueError("partial_trace: input does not have unit trace")

    n = len(dims)
    row = [chr(ord("a") + i) for i in range(n)]
    col = [row[i] if i not in keep else chr(ord("a") + n + i) for i in range(n)]
    out = "".join(row[i] for i in keep) + "".join(col[i] for i in keep)
    sub = "".join(row) + "".join(col) + "->" + out
    reduced = np.einsum(sub, rho.reshape(dims + dims))
    d_keep = int(np.prod([dims[i] for i in keep]))
    return reduced.reshape(d_keep, d_keep)


def _check_hermitian(m: np.ndarray, who: str) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{who}: expected a square matrix, got shape {m.shape}")
    if m.shape[0] > MAX_DIM:
        raise ValueError(f"{who}: dimension {m.shape[0]} exceeds supported maximum {MAX_DIM}")
    if np.abs(m - m.conj().T).max() > _HERM_TOL:
        raise ValueError(f"{who}: matrix is not Hermitian within {_HERM_TOL}")
    return m


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, descending."""
    m = _check_hermitian(m, "hermitian_eigenvalues")
    return np.linalg.eigvalsh(m)[::-1]


def hermitian_eigensystem(m: np.ndarray):
    """Eigenvalues (descending) and matching eigenvector columns."""
    m = _check_hermitian(m, "hermitian_eigensystem")
    vals, vecs = np.linalg.eigh(m)
    return vals[::-1], vecs[:, ::-1]


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
        terms = np.where(lam > 0.0, lam * np.log2(np.where(lam > 0.0, lam, 1.0)), 0.0)
    return -np.sum(terms, axis=-1)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy of a density matrix, in bits.

    Rejects inputs that are not Hermitian unit-trace matrices or whose
    spectrum dips below -1e-8; smaller negative eigenvalues are treated
    as partial-trace round-off and clamped to zero.
    """
    rho = _check_hermitian(rho, "von_neumann_entropy")
    tr = rho.trace()
    if abs(tr.real - 1.0) > _TRACE_TOL or abs(tr.imag) > _TRACE_TOL:
        raise ValueError("von_neumann_entropy: trace must be 1")
    vals = hermitian_eigenvalues(rho)
    if vals.min() < _EIG_REJECT:
        raise ValueError(
            f"von_neumann_entropy: eigenvalue {vals.min():.3e} below {_EIG_REJECT}; not a state"
        )
    return float(entropy_from_eigenvalues(vals))


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
