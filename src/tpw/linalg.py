"""Complex linear algebra helpers: thresholded ranks, nullspaces, subspaces.

Every rank decision in the workbench goes through the same singular-value
cutoff: tol * (largest singular value) * max(matrix dimension, 1), the rule of
``numpy.linalg.matrix_rank``.  ``nullspace`` reduces a tall system to its
triangular QR factor R before the SVD, so no rows x rows factor is ever
formed; the cutoff still uses the original matrix's shape.
"""

from __future__ import annotations

import numpy as np


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def max_abs(a) -> float:
    """Entrywise max-modulus; 0.0 for empty arrays."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def svd_cutoff(singular_values: np.ndarray, shape, tol: float, scale: float = 0.0) -> float:
    """Cutoff tol * max(s_max, scale) * max(dim, 1).

    ``scale`` is an absolute floor for systems whose matrix is a difference
    of same-scale quantities and may be numerically zero: without the floor,
    pure rounding noise would register as full rank.
    """
    s_max = float(singular_values[0]) if singular_values.size else 0.0
    return tol * max(s_max, scale) * max(max(shape), 1)


def rank(a, tol: float, scale: float = 0.0) -> int:
    a = as_complex(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > svd_cutoff(s, a.shape, tol, scale)))


def nullspace(a, tol: float, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis (columns) of {x : a @ x = 0}.

    A tall ``a`` (rows > cols) is first reduced to the cols x cols factor R
    of ``a = QR``: R has the singular values and right singular vectors of
    ``a``, so the SVD never forms a ``U`` larger than cols x cols.  The
    cutoff is taken with ``a.shape``, as if ``a`` itself had been factored.
    """
    a = as_complex(a)
    rows, cols = a.shape
    if rows == 0:
        return np.eye(cols, dtype=complex)
    # LAPACK's gesdd takes the same QR step internally for tall input
    square_or_wide = np.linalg.qr(a, mode="r") if rows > cols else a
    _, s, vh = np.linalg.svd(square_or_wide, full_matrices=True)
    r = int(np.sum(s > svd_cutoff(s, a.shape, tol, scale)))
    return vh[r:].conj().T


def column_space(a, tol: float, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis (columns) of the range of a."""
    a = as_complex(a)
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    r = int(np.sum(s > svd_cutoff(s, a.shape, tol, scale)))
    return u[:, :r]


def orthonormalize(vectors, tol: float, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis for the span of the given vectors (as columns)."""
    a = as_complex(vectors)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    return column_space(a, tol, scale)


def projector(basis: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the span of orthonormal columns."""
    basis = as_complex(basis)
    return basis @ basis.conj().T


def subspace_contains(basis: np.ndarray, vectors, tol: float) -> tuple[bool, float]:
    """Whether every column of `vectors` lies in span(basis).

    Returns (verdict, max residual), residuals measured in max-norm after
    projecting out the subspace, each column divided by max(1, its max-norm).
    """
    v = as_complex(vectors)
    if v.ndim == 1:
        v = v.reshape(-1, 1)
    if v.shape[1] == 0:
        return True, 0.0
    p = projector(basis)
    resid = v - p @ v
    scale = np.maximum(1.0, np.max(np.abs(v), axis=0, initial=0.0))
    worst = float(np.max(np.max(np.abs(resid), axis=0, initial=0.0) / scale))
    return worst <= tol, worst


def subspaces_equal(basis_a: np.ndarray, basis_b: np.ndarray, tol: float) -> tuple[bool, float]:
    """Set equality of two subspaces given by orthonormal column bases."""
    if basis_a.shape[1] != basis_b.shape[1]:
        return False, float("inf")
    ok_ab, r_ab = subspace_contains(basis_b, basis_a, tol)
    ok_ba, r_ba = subspace_contains(basis_a, basis_b, tol)
    return ok_ab and ok_ba, max(r_ab, r_ba)


def solve_consistent(a, b, tol: float) -> np.ndarray | None:
    """Minimal-norm solution of a @ x = b, or None when inconsistent."""
    a = as_complex(a)
    b = as_complex(b)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    if max_abs(a @ x - b) > tol * max(1.0, max_abs(b)):
        return None
    return x
