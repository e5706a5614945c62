"""Core algebra calculus: validation, products, multiplication operators."""

import numpy as np
import pytest

from tpw.core import (
    FiniteAlgebra,
    center,
    find_left_identity,
    find_right_identity,
    validate_algebra,
)
from tpw.errors import ShapeError
from tpw.linalg import max_abs, subspace_contains

from conftest import TOL, matrix_unit_algebra, random_element


def matrix_unit(i, j, size=2):
    m = np.zeros((size, size), dtype=complex)
    m[i, j] = 1.0
    return m


def oracle_m2_structure():
    """Structure constants of M2 computed from literal 2x2 matrix products."""
    units = [matrix_unit(0, 0), matrix_unit(0, 1), matrix_unit(1, 0), matrix_unit(1, 1)]
    c = np.zeros((4, 4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            prod = units[i] @ units[j]
            for k in range(4):
                # unit basis is orthonormal in the Frobenius pairing
                c[i, j, k] = np.sum(prod * units[k].conj())
    return c


def test_m2_matches_matrix_product_oracle(alg_m2):
    assert max_abs(alg_m2.structure - oracle_m2_structure()) == 0.0


def test_builtin_matrix_unit_algebras_are_exact(alg_m2, alg_ut2, alg_c2):
    """The built-in M2, UT2 and C2 are the matrix-unit spans in the same basis order, exactly."""
    for alg, family in ((alg_m2, "M"), (alg_ut2, "T"), (alg_c2, "C")):
        assert np.array_equal(alg.structure, matrix_unit_algebra(family, 2).structure), alg.name


def test_builtin_row2_and_group_z2_tables(alg_row2, alg_z2):
    row2 = np.zeros((2, 2, 2))
    row2[0, 0, 0] = row2[0, 1, 1] = 1.0  # E11 E11 = E11, E11 E12 = E12, E12 E11 = E12 E12 = 0
    z2 = np.zeros((2, 2, 2))
    z2[0, 0, 0] = z2[0, 1, 1] = z2[1, 0, 1] = z2[1, 1, 0] = 1.0  # 1 is the unit and g g = 1
    assert np.array_equal(alg_row2.structure, row2)
    assert np.array_equal(alg_z2.structure, z2)


def test_validate_one_dimensional_idempotent(alg_c):
    report = validate_algebra(alg_c, TOL)
    assert report.valid
    assert report.associativity_residual == 0.0
    assert report.unital
    np.testing.assert_allclose(report.identity, [1.0])


def test_validate_rejects_non_associative_tensor():
    # e1 e1 = e2 and e2 e1 = e1 make (e1 e1) e1 = e1 but e1 (e1 e1) = e1 e2 = 0
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0
    c[1, 0, 0] = 1.0
    alg = FiniteAlgebra(name="bad", basis_labels=("e1", "e2"), structure=c)
    report = validate_algebra(alg, TOL)
    assert not report.valid
    assert report.associativity_residual > TOL


def test_validate_m2(alg_m2):
    report = validate_algebra(alg_m2, TOL)
    assert report.valid
    assert report.unital
    np.testing.assert_allclose(report.identity, [1, 0, 0, 1])


def test_shape_error_on_bad_tensor():
    with pytest.raises(ShapeError):
        FiniteAlgebra(name="bad", basis_labels=("e1", "e2"), structure=np.zeros((2, 2, 3)))


def test_multiply_pointwise(alg_c2):
    out = alg_c2.multiply([1, 2], [3, 4])
    np.testing.assert_allclose(out, [3, 8])


def test_multiply_by_zero_is_zero(alg_m2, rng):
    x = random_element(rng, 4)
    np.testing.assert_allclose(alg_m2.multiply(x, np.zeros(4)), np.zeros(4))


def test_multiply_matrix_units(alg_m2):
    e12 = alg_m2.basis_vector(1)
    e21 = alg_m2.basis_vector(2)
    np.testing.assert_allclose(alg_m2.multiply(e12, e21), alg_m2.basis_vector(0))


def test_mult_operators_diagonal(alg_c2):
    a = np.array([2.0, 3.0])
    np.testing.assert_allclose(alg_c2.left_mult_operator(a), np.diag([2.0, 3.0]))
    np.testing.assert_allclose(alg_c2.right_mult_operator(a), np.diag([2.0, 3.0]))


def test_mult_operators_row2(alg_row2):
    # left multiplication by E11 fixes both basis elements; right multiplication
    # keeps E11 and kills E12
    e1 = alg_row2.basis_vector(0)
    np.testing.assert_allclose(alg_row2.left_mult_operator(e1), np.eye(2))
    np.testing.assert_allclose(alg_row2.right_mult_operator(e1), np.diag([1.0, 0.0]))


def test_mult_operator_of_zero(alg_ut2):
    np.testing.assert_allclose(alg_ut2.left_mult_operator(np.zeros(3)), np.zeros((3, 3)))


def test_left_operator_agrees_with_multiply(corpus, rng):
    for entry in corpus:
        for alg in (entry.algebra_a, entry.algebra_b):
            a = random_element(rng, alg.dim)
            x = random_element(rng, alg.dim)
            np.testing.assert_allclose(
                alg.left_mult_operator(a) @ x, alg.multiply(a, x), atol=10 * TOL
            )
            np.testing.assert_allclose(
                alg.right_mult_operator(a) @ x, alg.multiply(x, a), atol=10 * TOL
            )


def test_associativity_fuzz(corpus, rng):
    for entry in corpus:
        for alg in (entry.algebra_a, entry.algebra_b):
            for _ in range(20):
                x, y, z = (random_element(rng, alg.dim) for _ in range(3))
                lhs = alg.multiply(alg.multiply(x, y), z)
                rhs = alg.multiply(x, alg.multiply(y, z))
                assert max_abs(lhs - rhs) <= 10 * TOL


def test_center_m2(alg_m2):
    basis = center(alg_m2, TOL)
    assert basis.shape[1] == 1
    ok, _ = subspace_contains(basis, np.array([1, 0, 0, 1], dtype=complex), TOL)
    assert ok


def test_center_commutative_is_everything(alg_c2):
    assert center(alg_c2, TOL).shape[1] == 2


def test_center_row2_trivial(alg_row2):
    assert center(alg_row2, TOL).shape[1] == 0


def test_center_elements_commute(corpus, rng):
    for entry in corpus:
        alg = entry.algebra_a
        basis = center(alg, TOL)
        for k in range(basis.shape[1]):
            z = basis[:, k]
            for j in range(alg.dim):
                e = alg.basis_vector(j)
                assert max_abs(alg.multiply(z, e) - alg.multiply(e, z)) <= 10 * TOL


def test_center_closed_under_multiplication(alg_m2):
    basis = center(alg_m2, TOL)
    for p in range(basis.shape[1]):
        for q in range(basis.shape[1]):
            prod = alg_m2.multiply(basis[:, p], basis[:, q])
            ok, _ = subspace_contains(basis, prod, TOL)
            assert ok


def test_identities_m2(alg_m2):
    np.testing.assert_allclose(find_left_identity(alg_m2, TOL), [1, 0, 0, 1], atol=TOL)
    np.testing.assert_allclose(find_right_identity(alg_m2, TOL), [1, 0, 0, 1], atol=TOL)


def test_identities_row2(alg_row2):
    left = find_left_identity(alg_row2, TOL)
    np.testing.assert_allclose(left, [1, 0], atol=TOL)
    assert find_right_identity(alg_row2, TOL) is None


def test_identities_null1(alg_null1):
    assert find_left_identity(alg_null1, TOL) is None
    assert find_right_identity(alg_null1, TOL) is None


def test_left_identity_property(corpus):
    for entry in corpus:
        for alg in (entry.algebra_a, entry.algebra_b):
            e = find_left_identity(alg, TOL)
            if e is None:
                continue
            for j in range(alg.dim):
                a = alg.basis_vector(j)
                assert max_abs(alg.multiply(e, a) - a) <= 10 * TOL
