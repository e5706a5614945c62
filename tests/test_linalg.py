"""linalg.nullspace against a full-SVD reference, and counted guards on its shapes.

``nullspace`` folds a matrix, or a stream of its row blocks, into the R
factor of its QR before the SVD.  The reference below takes the full SVD of
the whole matrix, with the same cutoff, and the two must agree on the rank
and on the subspace, however the rows are split into blocks.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from tpw.amenability import derivation_space
from tpw.errors import ShapeError
from tpw.linalg import column_space, column_spaces, nullspace, subspaces_equal, svd_cutoff

from conftest import TOL, matrix_unit_algebra, random_unitary, rebased


def reference_nullspace(a, tol, scale=0.0):
    """Kernel from the full SVD of ``a``, rows x rows ``U`` and all."""
    a = np.asarray(a, dtype=complex)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    r = int(np.sum(s > svd_cutoff(s, a.shape, tol, scale)))
    return vh[r:].conj().T


def gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def seeded_matrices():
    """(label, matrix): tall, square and wide; full rank and rank deficient; rounding noise."""
    rng = np.random.default_rng(11)
    for rows, cols in ((40, 6), (64, 16), (9, 9), (16, 16), (5, 12), (3, 20)):
        shape = f"{rows}x{cols}"
        yield f"{shape}-full", gaussian(rng, rows, cols)
        for r in (1, min(rows, cols) // 2, min(rows, cols) - 1):
            yield f"{shape}-rank{r}", gaussian(rng, rows, r) @ gaussian(rng, r, cols)
        # noise a scale floor of 1 declares zero, while the relative cutoff alone sees full rank
        yield f"{shape}-noise", 1e-15 * gaussian(rng, rows, cols)
        yield f"{shape}-zero", np.zeros((rows, cols))
    # a singular value of 3e-8 lies under the cutoff taken with the 64 x 16 shape
    # (6.4e-8) and over one taken with the shape of R (1.6e-8)
    u, _ = np.linalg.qr(gaussian(rng, 64, 16))
    v, _ = np.linalg.qr(gaussian(rng, 16, 16))
    s = np.r_[np.ones(12), 3e-8, np.zeros(3)]
    yield "64x16-near-cut", (u * s) @ v.conj().T


@pytest.mark.parametrize("scale", [0.0, 1.0, 50.0])
def test_nullspace_matches_full_svd_reference(scale):
    for label, a in seeded_matrices():
        got, want = nullspace(a, TOL, scale), reference_nullspace(a, TOL, scale)
        assert got.shape == want.shape, (label, scale)
        equal, residual = subspaces_equal(got, want, 1e-10)
        assert equal, (label, scale, residual)
        assert np.allclose(got.conj().T @ got, np.eye(got.shape[1]), atol=1e-12), label


def row_blocks(a, split):
    """The rows of ``a`` as a generator of blocks: one block, one row each, or uneven blocks of 5."""
    if split == "one":
        yield a
    else:
        size = 1 if split == "rows" else 5
        for start in range(0, a.shape[0], size):
            yield a[start : start + size]


@pytest.mark.parametrize("split", ["one", "rows", "uneven"])
@pytest.mark.parametrize("scale", [0.0, 1.0])
def test_block_fed_nullspace_matches_full_svd_reference(split, scale):
    for label, a in seeded_matrices():
        got, want = nullspace(row_blocks(a, split), TOL, scale), reference_nullspace(a, TOL, scale)
        assert got.shape == want.shape, (label, split, scale)
        equal, residual = subspaces_equal(got, want, 1e-10)
        assert equal, (label, split, scale, residual)
        assert np.allclose(got.conj().T @ got, np.eye(got.shape[1]), atol=1e-12), label


def test_block_fed_cutoff_uses_the_total_shape():
    """A singular value of 3e-7 lies under the cutoff of the whole 640 x 16 matrix (6.4e-7)
    and over the cutoff of any stack the fold factors, at most (16 + 64) x 16 (8e-8)."""
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(gaussian(rng, 640, 16))
    v, _ = np.linalg.qr(gaussian(rng, 16, 16))
    a = (u * np.r_[np.ones(12), 3e-7, np.zeros(3)]) @ v.conj().T
    for blocks in ([a], (a[start : start + 64] for start in range(0, 640, 64))):
        got = nullspace(blocks, TOL, 1.0)
        assert got.shape == (16, 4)
        assert subspaces_equal(got, reference_nullspace(a, TOL, 1.0), 1e-10)[0]


def test_block_fed_nullspace_rejects_ragged_or_empty_input():
    with pytest.raises(ShapeError):
        nullspace([np.ones((3, 4)), np.ones((3, 1))], TOL)
    with pytest.raises(ShapeError):
        nullspace(iter(()), TOL)


def test_derivation_space_folds_blocks_of_at_most_five_n_squared_rows(monkeypatch):
    """Every QR input holds R and one block of the Leibniz system, and the system is never formed."""
    shapes = []
    qr = np.linalg.qr

    def counted_qr(a, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "nullspace":
            shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted_qr)
    m4 = matrix_unit_algebra("M", 4)
    alg = rebased(m4, random_unitary(np.random.default_rng(4), m4.dim))
    n = alg.dim
    tracemalloc.start()
    try:
        space = derivation_space(alg, TOL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.dim_der == space.dim_inner == 15
    # 4 blocks of 4 values of i: the first QR sees one block, the others R on top of one
    assert shapes == [(4 * n * n, n * n)] + [(5 * n * n, n * n)] * 3
    assert peak < n**5 * 16, peak  # the whole n^3 x n^2 complex system


def test_nullspace_of_zero_rows_is_everything():
    for cols in (1, 4):
        basis = nullspace(np.zeros((0, cols)), TOL)
        assert basis.shape == (cols, cols)
        assert subspaces_equal(basis, reference_nullspace(np.zeros((0, cols)), TOL), 1e-10)[0]


def test_nullspace_never_forms_a_tall_u(monkeypatch):
    """Every SVD taken inside nullspace sees rows <= cols, so its U has at most cols^2 entries."""
    shapes = []
    svd = np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "nullspace":
            shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    m4 = matrix_unit_algebra("M", 4)
    space = derivation_space(rebased(m4, random_unitary(np.random.default_rng(4), m4.dim)), TOL)
    assert space.dim_der == space.dim_inner == 15
    # the Leibniz system is 16^3 x 16^2; its SVD is taken of the 256 x 256 R factor
    assert shapes == [(256, 256)]
    assert all(rows <= cols for rows, cols in shapes)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_derivation_dims_closed_forms(k):
    rng = np.random.default_rng(k)
    for family, expected in (("M", k * k - 1), ("T", k * (k - 1) // 2)):
        alg = matrix_unit_algebra(family, k)
        for candidate in (alg, rebased(alg, random_unitary(rng, alg.dim))):
            space = derivation_space(candidate, TOL)
            assert space.dim_der == space.dim_inner == expected, (candidate.name, space.dim_der, space.dim_inner)


def test_derivation_dims_closed_form_rebased_m5():
    m5 = matrix_unit_algebra("M", 5)
    space = derivation_space(rebased(m5, random_unitary(np.random.default_rng(5), m5.dim)), TOL)
    assert space.dim_der == space.dim_inner == 24


def test_stacked_svd_cutoff_matches_scalar(rng):
    """A (k, m) stack of spectra gets each spectrum's scalar cutoff, with its own floor."""
    s = -np.sort(-np.abs(rng.standard_normal((4, 5))), axis=1)
    s[2] = 0.0
    scales = np.array([0.0, 10.0, 1.0, 0.0])
    cutoffs = svd_cutoff(s, (9, 5), TOL, scales)
    assert cutoffs.shape == (4,)
    assert cutoffs.tolist() == [svd_cutoff(row, (9, 5), TOL, scale) for row, scale in zip(s, scales)]
    assert svd_cutoff(np.zeros((3, 0)), (4, 0), TOL, 1.0).tolist() == [svd_cutoff(np.zeros(0), (4, 0), TOL, 1.0)] * 3


def test_column_spaces_match_per_matrix(rng):
    """Full rank, rank deficient, zero, and one tiny matrix at two floors: floor 1 cuts it to rank 0.
    The bases are padded with zero columns to min(rows, cols)."""
    tiny = 1e-12 * gaussian(rng, 7, 4)
    stack = np.stack([gaussian(rng, 7, 4), gaussian(rng, 7, 2) @ gaussian(rng, 2, 4), np.zeros((7, 4)), tiny, tiny])
    scales = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
    bases, ranks = column_spaces(stack, TOL, scales)
    assert ranks.tolist() == [4, 2, 0, 0, 4]
    assert bases.shape == (5, 7, 4)
    for basis, r, a, scale in zip(bases, ranks, stack, scales):
        # column_space is the one-matrix case of column_spaces, so the reference is numpy's own SVD
        want = np.linalg.svd(a, full_matrices=False)[0][:, :r]
        assert column_space(a, TOL, scale).shape == (7, r) and not basis[:, r:].any()
        assert subspaces_equal(basis[:, :r], want, 1e-10)[0]
    bases, ranks = column_spaces(np.zeros((3, 5, 0)), TOL, np.zeros(3))
    assert bases.shape == (3, 5, 0) and ranks.tolist() == [0, 0, 0]
    assert column_space(np.zeros((5, 0)), TOL).shape == (5, 0)

