"""linalg.nullspace against a full-SVD reference, and counted guards on its shapes.

``nullspace`` reduces a tall matrix to the R factor of its QR before the
SVD.  The reference below takes the full SVD of the whole matrix, with the
same cutoff, and the two must agree on the rank and on the subspace.  The
sketched solve of the Leibniz system is held to the full system in
``test_amenability``; here its shapes and memory are pinned.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from tpw import amenability
from tpw.amenability import _leibniz_space, derivation_space
from tpw.linalg import (column_space, column_spaces, complex_gaussians, nullspace, nullspaces, sketched_nullspace,
                        subspaces_equal, svd_cutoff)

from conftest import TOL, matrix_unit_algebra, power_estimates, random_unitary, rebased, zero_product_algebra


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


def block_systems():
    """(label, matrix of 6 row blocks of 5 x 12): generic ranks 12, 7 and 1, rounding noise, zero,
    and a near-cut case."""
    rng = np.random.default_rng(13)
    for r in (12, 7, 1):
        yield f"rank{r}", gaussian(rng, 30, r) @ gaussian(rng, r, 12)
    yield "noise", 1e-15 * gaussian(rng, 30, 12)
    yield "zero", np.zeros((30, 12))
    # |L w| = 20 tol s_max(L) for a unit w: under the cutoff taken with the 30 x 12 shape (at least
    # 25 tol s_max with an estimate of s_max within 0.85 of it) and over one taken with the 12 columns
    # (at most 12 tol s_max).  Row 0 of each block holds w's image and rows 1-4 the others', so every
    # sketch keeps w exactly.
    q, _ = np.linalg.qr(gaussian(rng, 12, 12))
    blocks = np.zeros((6, 5, 12), dtype=complex)
    blocks[:, 1:] = gaussian(rng, 24, 4).reshape(6, 4, 4) @ q[:, 1:5].conj().T
    s_max = np.linalg.svd(blocks.reshape(30, 12), compute_uv=False)[0]
    blocks[:, 0] = 20 * TOL * s_max / np.sqrt(6) * q[:, 0].conj()
    yield "near-cut", blocks.reshape(30, 12)


@pytest.mark.parametrize("scale", [0.0, 1.0])
def test_sketched_nullspace_matches_full_svd_reference(scale):
    """Two unit combinations of the row blocks as the sketch, the matrix and its adjoint as
    the operator: the kernel has the full SVD's rank and span."""
    rng = np.random.default_rng(17)
    for label, a in block_systems():
        elements = gaussian(rng, 2, 6)
        elements /= np.sqrt(np.sum(np.abs(elements) ** 2, axis=1, keepdims=True))
        sketch = np.einsum("ti,irc->trc", elements, a.reshape(6, 5, 12))
        blocks = a.reshape(6, 5, 12)
        got = sketched_nullspace(lambda: sketch, lambda x, i: blocks[i].reshape(-1, 12) @ x,
                                 lambda y: a.conj().T @ y, a.shape, TOL, scale)
        want = reference_nullspace(a, TOL, scale)
        assert got.shape == want.shape, (label, scale)
        assert subspaces_equal(got, want, 1e-10)[0], (label, scale)
        assert np.allclose(got.conj().T @ got, np.eye(got.shape[1]), atol=1e-12), label


def test_sketch_keeps_null_directions_that_the_gram_matrix_rounds_over_the_cut():
    """At tol 1e-12 a rank-7 system of 6 row blocks of 5 x 12 has null directions whose
    computed Gram eigenvalues, rounding of size eps lam_max, lie above r cut^2, the squared
    sketch cut, and under the floor tau_acc; the kernel has the full SVD's rank and span."""
    rng, tol, scale = np.random.default_rng(19), 1e-12, 1.0
    a = gaussian(rng, 30, 7) @ gaussian(rng, 7, 12)
    blocks, elements = a.reshape(6, 5, 12), gaussian(rng, 2, 6)
    elements /= np.sqrt(np.sum(np.abs(elements) ** 2, axis=1, keepdims=True))
    sketch = np.einsum("ti,irc->trc", elements, blocks)
    got = sketched_nullspace(lambda: sketch, lambda x, i: blocks[i].reshape(-1, 12) @ x,
                             lambda y: a.conj().T @ y, a.shape, tol, scale)
    want = reference_nullspace(a, tol, scale)
    assert got.shape == want.shape == (12, 5)
    assert subspaces_equal(got, want, 1e-10)[0]
    # G as the solver sums it; cut <= tol * s_max * 30, and with s_max(L) >= 2 scale the estimate's
    # factor s / cut is 1 / (30 tol), so tau_acc = 10 (10 + 12) eps lam_max / (30 tol)
    lam = np.linalg.eigh(sum(block.conj().T @ block for block in sketch))[0]
    s_max = np.linalg.svd(a, compute_uv=False)[0]
    assert s_max >= 2 * scale
    tau_acc = 10 * (10 + 12) * np.finfo(float).eps * lam[-1] / (30 * tol)
    assert np.any((lam[:5] > 2 * (tol * s_max * 30) ** 2) & (lam[:5] <= tau_acc)), lam[:5]


def test_derivation_space_sketches_at_most_two_n_squared_rows(monkeypatch):
    """The sketch is two n^2 x n^2 blocks, one per element, added one at a time into the
    n^2 x n^2 Gram matrix, whose eigensolve is the only step over n^2 columns; the restricted
    system has dim Der columns and is folded into its R factor in chunks of at most n^4
    entries, and the n^3 x n^2 system is never formed: not on rebased M4, whose n^3 x 15
    restricted system is one chunk, nor on Z16, where every one of the n^2 maps is a
    derivation and a chunk is one row block of n^2 rows."""
    shapes = []
    qr, eigh, svd, sketch = np.linalg.qr, np.linalg.eigh, np.linalg.svd, amenability._leibniz_sketch

    def counted(fn, name):
        def wrapper(a, *args, **kwargs):
            if sys._getframe(1).f_code.co_name in ("_right_singular", "sketched_nullspace"):
                shapes.append((name, np.shape(a)))
            return fn(a, *args, **kwargs)
        return wrapper

    def counted_block(c, a):
        block = sketch(c, a)
        shapes.append(("block", block.shape))
        return block

    monkeypatch.setattr(np.linalg, "qr", counted(qr, "qr"))
    monkeypatch.setattr(np.linalg, "eigh", counted(eigh, "eigh"))
    monkeypatch.setattr(np.linalg, "svd", counted(svd, "svd"))
    monkeypatch.setattr(amenability, "_leibniz_sketch", counted_block)
    m4 = matrix_unit_algebra("M", 4)
    m4_restricted = [("qr", (16**3, 15))]
    z16_restricted = [("qr", (256, 256))] + [("qr", (512, 256))] * 15
    # traced peaks in units of n^4 entries: on M4 the Gram build's G, the one block alive and the
    # second block's construction (2.32 measured); on Z16 the fold's R factor so far, one row
    # block, their stack and numpy's copies of it (7.08 measured)
    for alg, dims, restricted, bound in (
            (rebased(m4, random_unitary(np.random.default_rng(4), m4.dim)), (15, 15), m4_restricted, 2.4),
            (zero_product_algebra(16), (256, 0), z16_restricted, 7.1)):
        n = alg.dim
        shapes.clear()
        tracemalloc.start()
        try:
            space = _leibniz_space(alg, TOL)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (space.dim_der, space.dim_inner) == dims, alg.name
        # two sketch blocks and the eigensolve of their Gram matrix; then the system restricted to
        # the sketch's kernel, chunk by chunk on top of the R factor so far, and the SVD of its R factor
        k = dims[0]
        blocks = [("block", (n * n, n * n))] * 2
        assert shapes == [*blocks, ("eigh", (n * n, n * n)), *restricted, ("svd", (k, k))], alg.name
        assert peak < bound * n**4 * 16 < n**5 * 16, (alg.name, peak / (n**4 * 16))


def test_sketch_is_released_before_the_eigensolve_of_its_gram_matrix(monkeypatch):
    """On rebased M4, the traced memory on entry to the eigensolve of the sketch's n^2 x n^2 Gram
    matrix is under 2 n^4 * 16 B: G (n^4 entries) and small arrays, and not the n^4 entries of
    the last sketch block, which nothing reads once it is added into G."""
    eigh, on_entry = np.linalg.eigh, []
    m4 = matrix_unit_algebra("M", 4)
    alg = rebased(m4, random_unitary(np.random.default_rng(4), m4.dim))
    n = alg.dim

    def spy(a, *args, **kwargs):
        on_entry.append(tracemalloc.get_traced_memory()[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    tracemalloc.start()
    try:
        space = _leibniz_space(alg, TOL)
    finally:
        tracemalloc.stop()
    assert space.dim_der == space.dim_inner == 15
    assert len(on_entry) == 1 and on_entry[0] < 2 * n**4 * 16, on_entry


def test_complex_gaussians_are_a_pure_function_of_seed_and_stream():
    """One (seed, stream) gives one draw, and a smaller draw is a prefix of a larger one, also
    for seed 2165 and 100 entries, whose first batch of points holds too few inside the disc;
    another seed or stream gives other entries; 20000 entries have the moments of independent
    standard normal real and imaginary parts, within five standard errors."""
    a = complex_gaussians(3, 1, (4, 5))
    assert a.shape == (4, 5) and a.dtype == complex
    assert np.array_equal(a, complex_gaussians(3, 1, (4, 5)))
    assert np.array_equal(a.ravel(), complex_gaussians(3, 1, 1000)[:20])
    assert np.array_equal(complex_gaussians(2165, 0, 100), complex_gaussians(2165, 0, 1000)[:100])
    assert not np.isin(a, complex_gaussians(4, 1, 20)).any() and not np.isin(a, complex_gaussians(3, 2, 20)).any()
    assert complex_gaussians(0, 0, (0, 3)).shape == (0, 3)
    z = complex_gaussians(0, 0, 20000)
    se = 1 / np.sqrt(z.size)
    for part in (z.real, z.imag):
        assert abs(part.mean()) < 5 * se and abs(np.mean(part**2) - 1) < 5 * np.sqrt(2) * se
    assert abs(np.mean(z.real * z.imag)) < 5 * se


def test_nullspace_of_zero_rows_is_everything():
    for cols in (1, 4):
        basis = nullspace(np.zeros((0, cols)), TOL)
        assert basis.shape == (cols, cols)
        assert subspaces_equal(basis, reference_nullspace(np.zeros((0, cols)), TOL), 1e-10)[0]


def test_nullspace_never_forms_a_tall_u(monkeypatch):
    """Every SVD that ``nullspace`` and the Leibniz solve ``_leibniz_space`` take sees rows <= cols,
    so its U has at most cols^2 entries."""
    shapes = []
    svd = np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "_right_singular":
            shapes.append(np.shape(a)[-2:])  # nullspace hands over a stack of one
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    tall = gaussian(np.random.default_rng(4), 64, 16)
    assert nullspace(tall, TOL).shape == (16, 0)
    m4 = matrix_unit_algebra("M", 4)
    space = _leibniz_space(rebased(m4, random_unitary(np.random.default_rng(4), m4.dim)), TOL)
    assert space.dim_der == space.dim_inner == 15
    # the 64 x 16 matrix's R factor; the 16^3 x 15 restricted system's R factor
    assert shapes == [(16, 16), (15, 15)]
    assert all(rows <= cols for rows, cols in shapes)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_derivation_dims_closed_forms(k, monkeypatch):
    """C_k has no derivations, T_k has k(k-1)/2 and M_k has k^2 - 1, all inner; every map of
    Z_k is a derivation, none inner, and the power steps read its s_max as 0, not NaN."""
    tops = power_estimates(monkeypatch)
    rng = np.random.default_rng(k)
    for family, expected in (("C", (0, 0)), ("M", (k * k - 1,) * 2), ("T", (k * (k - 1) // 2,) * 2), ("Z", (k * k, 0))):
        alg = zero_product_algebra(k) if family == "Z" else matrix_unit_algebra(family, k)
        for candidate in (alg, rebased(alg, random_unitary(rng, alg.dim))):
            tops.clear()
            space = _leibniz_space(candidate, TOL)
            assert (space.dim_der, space.dim_inner) == expected, (candidate.name, space.dim_der, space.dim_inner)
            assert tops and np.all(np.isfinite(tops)), candidate.name
            if family == "Z":
                assert tops == [0.0], candidate.name


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



def test_nullspaces_match_per_matrix(rng):
    """Full rank, rank 2, zero and tiny 7 x 4 systems at two floors, and a wide 2 x 4 stack: each
    basis is the last dims[i] columns of its padded block, bit for bit the one-matrix solve's
    basis, with zero columns before it, and an empty stack gives an empty block."""
    tiny = 1e-12 * gaussian(rng, 7, 4)
    stack = np.stack([gaussian(rng, 7, 4), gaussian(rng, 7, 2) @ gaussian(rng, 2, 4), np.zeros((7, 4)), tiny, tiny])
    scales = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
    for systems, floors, want_dims in ((stack, scales, [0, 2, 4, 4, 0]), (gaussian(rng, 6, 4).reshape(3, 2, 4), 0.0, [2] * 3)):
        bases, dims = nullspaces(systems, TOL, floors)
        assert dims.tolist() == want_dims and bases.shape == (len(systems), 4, max(want_dims))
        for basis, d, a, floor in zip(bases, dims, systems, np.broadcast_to(floors, len(systems))):
            single = nullspace(a, TOL, floor)
            assert single.shape == (4, d) and not basis[:, : basis.shape[1] - d].any()
            assert np.array_equal(basis[:, basis.shape[1] - d :], single)
            assert np.allclose(a @ single, 0, atol=1e-10 * max(1.0, np.abs(a).max()))
    bases, dims = nullspaces(np.zeros((0, 7, 4)), TOL, 1.0)
    assert bases.shape == (0, 4, 0) and dims.tolist() == []
