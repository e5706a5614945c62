"""linalg.nullspace against a full-SVD reference, and a counted guard on SVD shapes.

``nullspace`` reduces a tall matrix to its R factor before the SVD.  The
reference below takes the full SVD of the matrix itself, with the same
cutoff, and the two must agree on the rank and on the subspace.
"""

import sys

import numpy as np
import pytest

from tpw.amenability import derivation_space
from tpw.linalg import nullspace, subspaces_equal, svd_cutoff

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
