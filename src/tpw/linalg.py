"""Complex linear algebra helpers: thresholded ranks, nullspaces, subspaces.

This module turns singular values into a rank by one rule: a singular
value counts when it exceeds tol * max(largest singular value, scale) *
max(matrix dimension, 1), the rule of ``numpy.linalg.matrix_rank`` with a
floor, stated by ``svd_cutoff`` and counted by ``_rank``.

``nullspaces`` solves a stack of systems of one shape, such as the
invariant-element systems of every character of an algebra, by one stacked
SVD, after reducing each tall system to its triangular QR factor R, so no
rows x rows factor is ever formed; the cutoff still uses the original
matrix's shape.  ``nullspace`` is its one-matrix case, as ``column_space``
is of ``column_spaces``.  ``nullspace_cuts`` keeps one SVD of a square
matrix with its U, which every later cut and every solve on the singular
values above the cut reads (``SvdCuts``).  A system too large to form, such as the
n^3 x n^2 Leibniz system of ``amenability.derivation_space`` for an algebra
of dim n, goes to ``sketched_nullspace`` as a sketch and an operator: the
kernel V of a few random combinations of its row blocks contains its kernel
(a randomized range finder; Halko, Martinsson and Tropp, SIAM Review 53,
2011), and the system applied to V, folded into its R factor a few row
blocks at a time, decides the kernel exactly, under the cutoff of the whole system
with its largest singular value estimated by power steps.  V is read off one
Hermitian eigensolve of the sketch's Gram matrix under a threshold tau that
only bounds V: a larger V costs time, and ``_rank`` still decides every rank.

Every random draw of tpw comes from ``complex_gaussians``, a pure function of
a seed and a stream, so ``numpy.random`` is never imported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def _rank(singular_values: np.ndarray, shape, tol: float, scale=0.0, top: float | None = None):
    """Number of singular values above ``svd_cutoff``, or one such count per spectrum of a (k, m) stack.

    ``top`` stands in for the largest singular value when the spectrum is not
    the whole system's but a restriction's of the system of ``shape``.
    """
    lead = singular_values if top is None else np.array([top])
    return (singular_values.T > svd_cutoff(lead, shape, tol, scale)).sum(axis=0)


def rank(a, tol: float, scale: float = 0.0) -> int:
    a = as_complex(a)
    if a.size == 0:
        return 0
    return int(_rank(np.linalg.svd(a, compute_uv=False), a.shape, tol, scale))


def _right_singular(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and all cols x cols right singular vectors (rows of ``vh``) of a
    matrix, or of each matrix of a stack.  A tall matrix is first reduced to its triangular
    QR factor R, which has the same singular values and right singular vectors, so no
    ``U`` larger than cols x cols is formed."""
    if a.shape[-2] > a.shape[-1]:
        # LAPACK's gesdd would take the same QR step internally for tall input
        a = np.linalg.qr(a, mode="r")
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    return s, vh


# power steps on L^H L that estimate the largest singular value of a sketched system
POWER_STEPS = 2


def sketched_nullspace(build_sketch, apply, adjoint, shape, tol: float, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of a linear map L of ``shape`` (rows, cols), from a sketch.

    L is given by ``apply``, (x, i) -> the rows of L x in the row blocks of the
    slice i, for the columns of a (cols, k) matrix, and ``adjoint``,
    y -> L^H y for one vector of length rows.  ``build_sketch()`` yields the r
    blocks B_t of a sketch S, each the combination sum_i a_i (row block i of L)
    for a unit vector a.  Then |S x| <= sqrt(r) |L x|, and S's kernel contains L's.

    * One Hermitian eigensolve of S's Gram matrix G = sum_t B_t^H B_t gives its
      eigenvalues lam and a start for the power steps.  G is built one block at
      a time, an eighth of its rows per product, and each block is dropped
      before the next is built, so only G, one block and two pieces of an
      eighth of G's size are alive;
    * ``POWER_STEPS`` steps of x -> L^H L x estimate s_max(L) from below, by
      s = sqrt(|L^H L x|) for a unit x, and L's cutoff cut is
      tol * max(s, scale) * max(shape), the rule of ``svd_cutoff``;
    * V is every eigenvector of G with lam <= tau = max(r cut^2, tau_acc), and the
      kernel of L V under L's cutoff, mapped back by V, is the result.  L V is
      folded into its R factor as many row blocks at a time as fit in cols^2
      entries, or one; the cut uses L's shape and estimate.

    r cut^2 is the square of sqrt(r) times L's cut.  The computed G is off by
    about (rows of S + cols) eps lam_max, and tau_acc is 10 times that, times
    s / cut, so by the Davis-Kahan sin theta theorem (SIAM J. Numer. Anal. 7,
    1970) each exact null direction of L lies within cut / (10 s) of span V,
    and L moves its part in V by about cut / 10: the last step keeps it.  That
    step decides every direction V keeps, so tau and the draw of the a's set
    only the size of V, and so the cost.  A direction with a nonzero singular
    value under the cut is kept in V only mixed with S's other small
    directions, so a singular value near the cut can be decided otherwise than
    by an SVD of L.  S is never whole, and no block of it is alive on entry to
    the eigensolve, when G, numpy's copy of it, the eigenvectors and LAPACK's
    workspace, each about cols^2 entries, set the peak.
    """
    gram, step, r = np.zeros((shape[1], shape[1]), dtype=complex), max(1, shape[1] // 8), 0
    for block in build_sketch():
        r, block_rows = r + 1, len(block)
        for i in range(0, shape[1], step):
            gram[i : i + step] += block[:, i : i + step].conj().T @ block
        del block  # before the next block is built: G is all the eigensolve reads
    lam, q = np.linalg.eigh(gram)
    x, top = q[:, -1], 0.0
    for _ in range(POWER_STEPS):
        z = adjoint(apply(x[:, None], slice(None))[:, 0])
        size = np.linalg.norm(z)
        if size == 0.0:
            break  # L x = 0: the estimate stays 0, and the cutoff falls to the floor ``scale``
        top, x = np.sqrt(size), z / size
    cut = svd_cutoff(np.array([top]), shape, tol, scale)
    tau_acc = 10 * (r * block_rows + shape[1]) * np.finfo(float).eps * lam[-1] * top / cut if cut else 0.0
    v = q[:, : np.count_nonzero(lam <= max(r * cut**2, tau_acc))].copy(order="F")  # columns contiguous for ``apply``
    del gram, q, x  # x may be a column of q; the fold below, which sets the peak when V is large, reads none
    if v.shape[1] == 0:
        return v
    step = max(1, shape[1] ** 2 // (block_rows * v.shape[1]))
    factor = np.zeros((0, v.shape[1]), dtype=complex)
    for i in range(0, shape[0] // block_rows, step):
        factor = np.linalg.qr(np.vstack([factor, apply(v, slice(i, i + step))]), mode="r")
    s, wh = _right_singular(factor)
    return v @ wh[_rank(s, shape, tol, scale, top) :].conj().T


# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): the increment of its counter and its output mix
_GAMMA = 0x9E3779B97F4A7C15
_MASK = 2**64 - 1

# the stream of each random use, so that no two uses share draws; stream 2 is retired, not reused
SPLITTER_STREAM, SKETCH_STREAM = 1, 3


def _mix64(z):
    """SplitMix64's output function, of a Python int below 2^64 or of a uint64 array."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


def complex_gaussians(seed: int, stream: int, shape) -> np.ndarray:
    """Standard complex Gaussians (real and imaginary parts independent N(0, 1)) of ``shape``,
    a pure function of ``seed`` and ``stream`` computed with numpy alone.

    The bits are SplitMix64 outputs of a counter, keyed by (seed, stream).  The two
    32-bit halves of each output are a point of the square [-1, 1)^2, and each point
    inside the unit disc becomes one entry by Marsaglia's polar method, so a draw is
    the first entries of one sequence: a smaller draw is a prefix of a larger one.
    """
    key = _mix64(_mix64((int(seed) + _GAMMA) & _MASK) ^ (int(stream) & _MASK))
    parts, start, left = [np.zeros(0, dtype=complex)], 1, int(np.prod(shape))
    while left > 0:
        count = left * 4 // 3 + 16  # the disc holds pi/4 of the points: about 5% to spare
        bits = _mix64(np.arange(start, start + count, dtype=np.uint64) * _GAMMA + key)
        start += count
        points = (bits.astype("<u8", copy=False).view("<i4") * 2.0**-31).view(complex)
        s = points.real**2 + points.imag**2
        inside = np.flatnonzero((s > 0) & (s < 1))[:left]
        parts.append(points[inside] * np.sqrt(-2.0 * np.log(s[inside]) / s[inside]))
        left -= len(inside)
    return np.concatenate(parts).reshape(shape)


def nullspace(a, tol: float, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis (columns) of {x : a @ x = 0}: the one-matrix case of ``nullspaces``."""
    s, vh = _right_singular(as_complex(a))
    return vh[_rank(s, np.shape(a), tol, scale) :].conj().T


@dataclass(frozen=True)
class SvdCuts:
    """One SVD a = u diag(s) vh, kept and cut at any tol by ``_rank`` with the floor ``scale``.

    ``cuts(tol)`` is ``nullspace(a, tol, scale)``.  ``cuts.solve(b, tol)`` is
    the minimal-norm least-squares solution of a x = b for each column of b
    on the singular values above the cut, vh_r^H diag(1 / s_r) u_r^H b: the
    inverse of a applied to b where a has full rank at tol, and no division
    by a singular value under the cut where it has not.
    """

    shape: tuple[int, int]
    u: np.ndarray
    s: np.ndarray
    vh: np.ndarray
    scale: float

    def rank(self, tol: float) -> int:
        return int(_rank(self.s, self.shape, tol, self.scale))

    def __call__(self, tol: float) -> np.ndarray:
        return self.vh[self.rank(tol) :].conj().T

    def solve(self, b, tol: float) -> np.ndarray:
        r = self.rank(tol)
        return self.vh[:r].conj().T @ ((self.u[:, :r].conj().T @ as_complex(b)) / self.s[:r, None])


def nullspace_cuts(a, scale: float = 0.0) -> SvdCuts:
    """``SvdCuts`` of a square matrix a: every cut, and every solve, from one SVD with its whole U."""
    a = as_complex(a)
    return SvdCuts(a.shape, *np.linalg.svd(a, full_matrices=True), scale)


def nullspaces(stack, tol: float, scales) -> tuple[np.ndarray, np.ndarray]:
    """``nullspace`` of each matrix in a stack of shape (k, rows, cols).

    The stack is solved as a whole: one stacked QR (R factor only, for tall
    matrices) and one stacked SVD, then the cutoffs and ranks as arrays, each
    matrix's cutoff with its own floor from ``scales``, exactly as
    ``nullspace`` would.  Returns the bases as one (k, cols, w) array, w the
    widest nullity, with matrix i's basis in its last ``dims[i]`` columns
    and zero columns before them, and the nullities ``dims``.
    """
    stack = as_complex(stack)
    _, rows, cols = stack.shape
    s, vh = _right_singular(stack)
    ranks = _rank(s, (rows, cols), tol, scales)
    # column t of basis i is row low + t of vh[i], low the least rank, and zero while that row is under ranks[i]
    low = ranks.min(initial=cols)
    bases = vh[:, low:]
    bases[np.arange(low, cols) < ranks[:, None]] = 0
    return bases.conj().transpose(0, 2, 1), cols - ranks


def column_space(a, tol: float, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis (columns) of the range of a: the one-matrix case of ``column_spaces``."""
    bases, ranks = column_spaces(as_complex(a)[None], tol, scale)
    return bases[0, :, : ranks[0]]


def column_spaces(stack, tol: float, scales) -> tuple[np.ndarray, np.ndarray]:
    """``column_space`` of each matrix in a stack (k, rows, cols), with the floor ``scales`` (one, or
    one per matrix), by one stacked SVD: the bases as one (k, rows, min(rows, cols)) array, matrix
    i's in its first ``ranks[i]`` columns and zero columns after them, and the ranks."""
    stack = as_complex(stack)
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    ranks = _rank(s, stack.shape[1:], tol, scales)
    return u * (np.arange(u.shape[2]) < ranks[:, None])[:, None, :], ranks


def joint_eigenvalues(operators, weights) -> np.ndarray:
    """The eigenvalues of k commuting diagonalizable operators (k, m, m) on their m common
    eigenvectors, as an (m, k) array: row b holds b^H op_i b for every i, for the unit
    eigenvectors b of the one combination sum_i weights[i] op_i.

    For weights in general position the combination's eigenvalues are distinct, so each of
    its eigenvectors spans a joint eigenspace; no rank is decided here.
    """
    ops = as_complex(operators)
    _, vectors = np.linalg.eig(np.tensordot(weights, ops, axes=1))
    return np.sum(vectors.conj() * (ops @ vectors), axis=1).T


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
