"""Complex linear algebra helpers: thresholded ranks, nullspaces, subspaces.

Only this module turns singular values into a rank, by one rule: a singular
value counts when it exceeds tol * max(largest singular value, scale) *
max(matrix dimension, 1), the rule of ``numpy.linalg.matrix_rank`` with a
floor, stated by ``svd_cutoff`` and counted by ``_rank``.  Two decisions
elsewhere are not ranks and keep their own rules:
``characters._joint_eigenvalue_branches`` clusters eigenvalues, and
``corpus._structure_from_matrices`` fits the built-in tensors by lstsq.

``nullspace`` reduces a tall system to its
triangular QR factor R before the SVD, so no rows x rows factor is ever
formed; the cutoff still uses the original matrix's shape.  A system too
large to hold can be given to ``nullspace`` as a stream of row blocks, which
are folded into R one at a time (tall-skinny QR by stacked R factors;
Demmel, Grigori, Hoemmen and Langou, SIAM J. Sci. Comput. 34, 2012).  The
Leibniz system of ``amenability.derivation_space``, n^3 x n^2 for an algebra
of dim n, is solved this way in about 3 * 5 n^4 * 16 B instead of
3 n^5 * 16 B.  Many small systems of one shape, such as the invariant-element
systems of every character of an algebra, go to ``nullspaces`` as one stack.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def max_abs(a) -> float:
    """Entrywise max-modulus; 0.0 for empty arrays."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def svd_cutoff(singular_values: np.ndarray, shape, tol: float, scale=0.0) -> float | np.ndarray:
    """Cutoff tol * max(s_max, scale) * max(dim, 1).

    ``scale`` is an absolute floor for systems whose matrix is a difference
    of same-scale quantities and may be numerically zero: without the floor,
    pure rounding noise would register as full rank.  A stack of spectra of
    shape (k, m), from k matrices of one ``shape``, gives k cutoffs, with
    ``scale`` one floor or k.
    """
    s = singular_values
    s_max = s[..., 0] if s.shape[-1] else np.zeros(s.shape[:-1])
    return tol * np.maximum(s_max, scale) * max(max(shape), 1)


def _rank(singular_values: np.ndarray, shape, tol: float, scale=0.0):
    """Number of singular values above ``svd_cutoff``, or one such count per spectrum of a (k, m) stack."""
    return (singular_values.T > svd_cutoff(singular_values, shape, tol, scale)).sum(axis=0)


def rank(a, tol: float, scale: float = 0.0) -> int:
    a = as_complex(a)
    if a.size == 0:
        return 0
    return int(_rank(np.linalg.svd(a, compute_uv=False), a.shape, tol, scale))


def nullspace(a, tol: float, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis (columns) of {x : a @ x = 0}.

    ``a`` is a matrix, or an iterable of row blocks with equal column counts
    whose vertical stack is the matrix; a matrix is the one-block case.  The
    blocks are folded into the triangular factor R of the stack one at a
    time, R = qr([R; block]), with R kept in the top rows of one reused
    column-major buffer.  R has the singular values and right singular
    vectors of the stack, so the SVD never forms a ``U`` larger than
    cols x cols, and the stack is never held whole.  For blocks of b rows the
    fold holds the (cols + b) x cols buffer and the two copies of it that
    ``numpy.linalg.qr`` makes; a block that nothing else holds is released
    before the QR.  The cutoff is taken with the stack's shape
    (total rows, cols), as if the stack had been factored whole.
    """
    top = total = 0  # rows in use at the top of stack; rows folded in so far
    cols = None
    for block in (a,) if isinstance(a, np.ndarray) else a:
        block = as_complex(block)
        rows, width = block.shape
        if cols is None:
            cols = width
            stack = np.empty((0, cols), dtype=complex, order="F")
        elif width != cols:
            raise ShapeError(f"row block has {width} columns, expected {cols}")
        if top + rows > stack.shape[0]:
            # top <= cols, so blocks no taller than this one fit from now on
            grown = np.empty((cols + rows, cols), dtype=complex, order="F")
            grown[:top] = stack[:top]
            stack = grown
        stack[top : top + rows] = block
        del block  # a block nothing else holds is freed before qr copies the stack
        top += rows
        total += rows
        if top > cols:
            # LAPACK's gesdd would take the same QR step internally for tall input
            stack[:cols] = np.linalg.qr(stack[:top], mode="r")
            top = cols
    if cols is None:
        raise ShapeError("nullspace of an empty sequence of row blocks")
    if total == 0:
        return np.eye(cols, dtype=complex)
    _, s, vh = np.linalg.svd(stack[:top], full_matrices=True)
    return vh[_rank(s, (total, cols), tol, scale) :].conj().T


def nullspaces(stack, tol: float, scales) -> tuple[np.ndarray, np.ndarray]:
    """``nullspace`` of each matrix in a stack of shape (k, rows, cols).

    The stack is solved as a whole: one stacked QR (R factor only, for tall
    matrices) and one stacked SVD, then the cutoffs and ranks as arrays, each
    matrix's cutoff with its own floor from ``scales``, exactly as
    ``nullspace`` would.  Returns the bases as one (k, cols, w) array, w the
    widest nullity, with matrix i's basis in its first ``dims[i]`` columns
    and zero columns after them, and the nullities ``dims``.
    """
    stack = as_complex(stack)
    _, rows, cols = stack.shape
    r_factors = np.linalg.qr(stack, mode="r") if rows > cols else stack
    _, s, vh = np.linalg.svd(r_factors, full_matrices=True)
    ranks = _rank(s, (rows, cols), tol, scales)
    dims = cols - ranks
    # column t of basis i is row ranks[i] + t of vh[i], where that row exists
    picked = ranks[:, None] + np.arange(int(dims.max(initial=0)))
    bases = np.take_along_axis(vh, np.minimum(picked, cols - 1)[:, :, None], axis=1)
    return np.where((picked < cols)[:, :, None], bases, 0).conj().transpose(0, 2, 1), dims


def column_space(a, tol: float, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis (columns) of the range of a."""
    a = as_complex(a)
    if a.size == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, : _rank(s, a.shape, tol, scale)]


def column_spaces(stack, tol: float, scales) -> tuple[np.ndarray, np.ndarray]:
    """``column_space`` of each matrix in a stack (k, rows, cols), with the floor ``scales`` (one, or
    one per matrix), by one stacked SVD: the bases as one (k, rows, min(rows, cols)) array, matrix
    i's in its first ``ranks[i]`` columns and zero columns after them, and the ranks."""
    stack = as_complex(stack)
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    ranks = _rank(s, stack.shape[1:], tol, scales)
    return u * (np.arange(u.shape[2]) < ranks[:, None])[:, None, :], ranks


def projector(basis: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the span of orthonormal columns."""
    basis = as_complex(basis)
    return basis @ basis.conj().swapaxes(-1, -2)


def subspace_contains(basis: np.ndarray, vectors, tol: float) -> tuple[bool, float]:
    """Whether every column of `vectors` lies in span(basis).

    Returns (verdict, max residual), residuals measured in max-norm after
    projecting out the subspace, each column divided by max(1, its max-norm).
    ``basis`` and ``vectors`` may be stacks of shape (k, n, .), padded with
    zero columns, which add nothing to a projector or a residual; the
    verdicts and residuals then come as arrays of k.
    """
    v = as_complex(vectors)
    if v.ndim == 1:
        v = v.reshape(-1, 1)
    resid = v - projector(basis) @ v
    scale = np.maximum(1.0, np.max(np.abs(v), axis=-2, initial=0.0))
    worst = np.max(np.max(np.abs(resid), axis=-2, initial=0.0) / scale, axis=-1, initial=0.0)
    return (bool(worst <= tol), float(worst)) if worst.ndim == 0 else (worst <= tol, worst)


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
