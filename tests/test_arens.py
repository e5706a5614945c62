"""Dual module actions, Arens products, adjoints, and the bidual identification."""

import numpy as np
import pytest

from tpw.arens import (
    arens_first,
    arens_second,
    dual_actions,
    hom_adjoints,
    product_dual_actions,
    theta_homomorphism_residual,
    topological_center,
    topological_center_membership,
)
from tpw.corpus import hom_identity, hom_zero
from tpw.linalg import max_abs
from tpw.product import build_product

from conftest import TOL, random_element, stacking_triples


def test_dual_actions_pointwise(alg_c2):
    f = np.array([5.0, 7.0], dtype=complex)
    a = np.array([2.0, 3.0], dtype=complex)
    f_dot_a, a_dot_f = dual_actions(alg_c2, f, a)
    np.testing.assert_allclose(f_dot_a, [10.0, 21.0])
    np.testing.assert_allclose(a_dot_f, [10.0, 21.0])


def test_dual_actions_identity_acts_trivially(alg_m2, rng):
    one = np.array([1, 0, 0, 1], dtype=complex)
    f = random_element(rng, 4)
    f_dot_a, a_dot_f = dual_actions(alg_m2, f, one)
    np.testing.assert_allclose(f_dot_a, f, atol=10 * TOL)
    np.testing.assert_allclose(a_dot_f, f, atol=10 * TOL)


def test_dual_action_row2_oracle(alg_row2):
    # f dual to E12, a = E11: (f.a)(x) = f(E11 x) reads the E12-coefficient
    # of E11 x, which is the E12-coefficient of x itself
    f = np.array([0.0, 1.0], dtype=complex)
    a = np.array([1.0, 0.0], dtype=complex)
    f_dot_a, _ = dual_actions(alg_row2, f, a)
    np.testing.assert_allclose(f_dot_a, f)


def test_product_dual_actions_zero_hom_collapses(alg_m2, alg_z2, rng):
    product = build_product(alg_m2, alg_z2, hom_zero(alg_z2, alg_m2), TOL)
    f, a = random_element(rng, 4), random_element(rng, 4)
    g, b = random_element(rng, 2), random_element(rng, 2)
    acts = product_dual_actions(product, f, g, a, b)
    assert acts.agreement_residual <= 10 * TOL
    fa, af = dual_actions(alg_m2, f, a)
    gb, bg = dual_actions(alg_z2, g, b)
    np.testing.assert_allclose(acts.right_block, np.r_[fa, gb], atol=10 * TOL)
    np.testing.assert_allclose(acts.left_block, np.r_[af, bg], atol=10 * TOL)


def test_product_dual_actions_scalar_example(alg_c):
    product = build_product(alg_c, alg_c, hom_identity(alg_c), TOL)
    acts = product_dual_actions(product, [1.0], [1.0], [1.0], [1.0])
    np.testing.assert_allclose(acts.right_direct, [2.0, 2.0])
    np.testing.assert_allclose(acts.right_block, [2.0, 2.0])


def test_product_dual_actions_agree_on_basis(corpus):
    """The block half comes from ``block_table``, as the product's own tensor does, so the two
    halves agree to the bit on every basis pair, rebased products included."""
    for label, a, b, hom in stacking_triples(corpus):
        product = build_product(a, b, hom, TOL)
        n = product.algebra.dim
        for i in range(n):
            fa, fb = product.split(np.eye(n, dtype=complex)[:, i])
            for j in range(n):
                xa, xb = product.split(np.eye(n, dtype=complex)[:, j])
                acts = product_dual_actions(product, fa, fb, xa, xb)
                assert acts.agreement_residual == 0.0, (label, i, j)


def test_arens_chain_example(alg_c2):
    phi = np.array([1.0, 2.0], dtype=complex)
    psi = np.array([3.0, 4.0], dtype=complex)
    np.testing.assert_allclose(arens_first(alg_c2, phi, psi), [3.0, 8.0])
    np.testing.assert_allclose(arens_second(alg_c2, phi, psi), [3.0, 8.0])


def test_arens_zero_absorbing(alg_ut2, rng):
    phi = random_element(rng, 3)
    np.testing.assert_allclose(arens_first(alg_ut2, phi, np.zeros(3)), np.zeros(3))
    np.testing.assert_allclose(arens_second(alg_ut2, np.zeros(3), phi), np.zeros(3))


def test_arens_products_equal_multiplication_fuzz(corpus, rng):
    for entry in corpus:
        product = build_product(entry.algebra_a, entry.algebra_b, entry.hom, TOL)
        for alg in (entry.algebra_a, entry.algebra_b, product.algebra):
            for _ in range(25):
                x = random_element(rng, alg.dim)
                y = random_element(rng, alg.dim)
                direct = alg.multiply(x, y)
                assert max_abs(arens_first(alg, x, y) - direct) <= 10 * TOL
                assert max_abs(arens_second(alg, x, y) - direct) <= 10 * TOL


def test_hom_adjoints_embedding(alg_c2, alg_ut2):
    from tpw.corpus import hom_c2_diag_into_ut2

    adj = hom_adjoints(hom_c2_diag_into_ut2(alg_c2, alg_ut2), TOL)
    assert adj.embedding_residual <= 1e-12
    assert adj.mult_residual_first <= 10 * TOL
    assert adj.mult_residual_second <= 10 * TOL
    # T'(f) = f o T reads off the diagonal dual coordinates
    f = np.array([2.0, 3.0, 5.0], dtype=complex)
    np.testing.assert_allclose(adj.t_prime(f), [2.0, 5.0])


def test_hom_adjoints_zero(alg_m2, alg_z2):
    adj = hom_adjoints(hom_zero(alg_z2, alg_m2), TOL)
    assert max_abs(adj.t_prime.matrix) == 0.0
    assert max_abs(adj.t_second.matrix) == 0.0
    assert not adj.source_epi


def test_hom_adjoints_identity(alg_c2):
    adj = hom_adjoints(hom_identity(alg_c2), TOL)
    np.testing.assert_allclose(adj.t_prime.matrix, np.eye(2))
    np.testing.assert_allclose(adj.t_second.matrix, np.eye(2))
    assert adj.source_epi and adj.second_epi


def block_product(product, pair1, pair2, which):
    """Theta of the bidual block formula (P1 # P2 + P1 # T''(Q2) + T''(Q1) # P2, Q1 # Q2),
    with # the chosen Arens product inside the factor biduals."""
    (phi1, psi1), (phi2, psi2) = pair1, pair2
    op, m = {"first": arens_first, "second": arens_second}[which], product.hom.matrix
    a_part = op(product.a, phi1, phi2) + op(product.a, phi1, m @ psi2) + op(product.a, m @ psi1, phi2)
    return product.join(a_part, op(product.b, psi1, psi2))


def test_theta_pairing(alg_c):
    # <Theta(Phi, Psi), (f, g)> = Phi(f) + Psi(g): Theta is the concatenation
    product = build_product(alg_c, alg_c, hom_identity(alg_c), TOL)
    vec = product.join([2.0], [3.0])
    assert np.dot(vec, np.array([1.0, 1.0])) == pytest.approx(5.0)


def test_theta_first_block_is_subalgebra(alg_c2):
    product = build_product(alg_c2, alg_c2, hom_zero(alg_c2, alg_c2), TOL)
    phi1 = np.array([1.0, 2.0], dtype=complex)
    phi2 = np.array([3.0, 4.0], dtype=complex)
    lhs = arens_first(
        product.algebra,
        product.join(phi1, np.zeros(2)),
        product.join(phi2, np.zeros(2)),
    )
    rhs = product.join(arens_first(alg_c2, phi1, phi2), np.zeros(2))
    np.testing.assert_allclose(lhs, rhs, atol=10 * TOL)


def test_theta_block_product_by_hand(alg_c):
    # Theta(1,1) [] Theta(1,1) = Theta(1*1 + 1*1 + 1*1, 1*1) = Theta(3, 1)
    product = build_product(alg_c, alg_c, hom_identity(alg_c), TOL)
    one = np.ones(1, dtype=complex)
    block = block_product(product, (one, one), (one, one), "first")
    np.testing.assert_allclose(block, [3.0, 1.0])
    direct = arens_first(product.algebra, product.join(one, one), product.join(one, one))
    np.testing.assert_allclose(direct, [3.0, 1.0])


def test_theta_homomorphism_both_products(corpus):
    for entry in corpus:
        product = build_product(entry.algebra_a, entry.algebra_b, entry.hom, TOL)
        assert theta_homomorphism_residual(product, "first") <= 10 * TOL, entry.entry_id
        assert theta_homomorphism_residual(product, "second") <= 10 * TOL, entry.entry_id


def test_topological_center_membership_everywhere(alg_m2, rng):
    phi = random_element(rng, 4)
    for side in ("left", "right"):
        member, residual = topological_center_membership(alg_m2, phi, side, 10 * TOL)
        assert member
        assert residual <= 10 * TOL


def test_topological_center_zero_member(alg_ut2):
    member, residual = topological_center_membership(alg_ut2, np.zeros(3), "left", TOL)
    assert member and residual == 0.0


def test_topological_center_is_whole_bidual(corpus):
    for entry in corpus:
        for alg in (entry.algebra_a, entry.algebra_b):
            for side in ("left", "right"):
                assert topological_center(alg, side, TOL).shape[1] == alg.dim


def test_center_shift_maps(corpus):
    """(P, Q) in the product center shifts to factor centers and back."""
    for entry in corpus:
        product = build_product(entry.algebra_a, entry.algebra_b, entry.hom, TOL)
        m = entry.hom.matrix
        na = product.dim_a
        z_prod = topological_center(product.algebra, "left", TOL)
        for k in range(z_prod.shape[1]):
            phi, psi = z_prod[:na, k], z_prod[na:, k]
            ok_a, _ = topological_center_membership(entry.algebra_a, phi + m @ psi, "left", 10 * TOL)
            ok_b, _ = topological_center_membership(entry.algebra_b, psi, "left", 10 * TOL)
            assert ok_a and ok_b, entry.entry_id
