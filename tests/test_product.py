"""Morphism-product construction, hom checks, ideal and quotient."""

import numpy as np
import pytest

from tpw.core import FiniteAlgebra
from tpw.corpus import (
    algebra_c,
    algebra_c2,
    hom_identity,
    hom_scaled_character,
    hom_zero,
)
from tpw.errors import HomInvalid, ValidationError
from tpw.linalg import max_abs
from tpw.product import AlgebraHom, block_table, build_product, check_hom, ideal_and_quotient

from conftest import TOL, direct_sum, random_element, random_unitary, rebased, stacking_triples


def test_check_hom_zero(alg_c2, alg_m2):
    hom = hom_zero(alg_c2, alg_m2)
    report = check_hom(hom, TOL)
    assert report.multiplicative
    assert report.op_norm == 0.0
    assert not report.surjective


def test_check_hom_identity(alg_c):
    report = check_hom(hom_identity(alg_c), TOL)
    assert report.multiplicative
    assert report.op_norm == 1.0
    assert report.surjective and report.injective


def test_check_hom_lau_is_multiplicative(alg_c, alg_c2):
    # b -> phi(b) e for the identity character of C and the unit of C2
    hom = hom_scaled_character(alg_c, alg_c2, np.array([1.0 + 0j]), np.array([1.0, 1.0]))
    report = check_hom(hom, TOL)
    assert report.multiplicative
    assert report.op_norm == 2.0  # unit weights make the unit have norm 2
    assert report.warnings  # non-contractive, warn-only


def test_non_multiplicative_map_detected(alg_c2):
    bad = AlgebraHom(source=alg_c2, target=alg_c2, matrix=np.array([[1.0, 0.5], [0.0, 1.0]]))
    assert bad.mult_residual > TOL
    assert not check_hom(bad, TOL).multiplicative


def test_build_product_identity_hom_by_hand(alg_c):
    """(a1, b1)(a2, b2) = (a1 a2 + a1 b2 + b1 a2, b1 b2) for A = B = C, T = id."""
    product = build_product(alg_c, alg_c, hom_identity(alg_c), TOL)
    a1, b1, a2, b2 = 2.0, 3.0, 5.0, 7.0
    out = product.algebra.multiply([a1, b1], [a2, b2])
    np.testing.assert_allclose(out, [a1 * a2 + a1 * b2 + b1 * a2, b1 * b2])


def test_build_product_structure_is_block_table(corpus):
    """The product's tensor is ``block_table`` of its factors and T's matrix, to the bit, on every
    corpus triple, a rebased copy of each and both cross-term triples."""
    for label, a, b, hom in stacking_triples(corpus):
        structure = build_product(a, b, hom, TOL).algebra.structure
        assert structure.tobytes() == block_table(a.structure, b.structure, hom.matrix).tobytes(), label


def test_block_table_with_zero_map_is_direct_sum(corpus):
    for label, a, b, _ in stacking_triples(corpus):
        assert np.array_equal(block_table(a.structure, b.structure, 0), direct_sum(a, b).structure), label


def test_build_product_zero_hom_is_block_diagonal(alg_m2, alg_z2):
    product = build_product(alg_m2, alg_z2, hom_zero(alg_z2, alg_m2), TOL)
    c = product.algebra.structure
    na = alg_m2.dim
    assert max_abs(c[:na, na:, :]) == 0.0
    assert max_abs(c[na:, :na, :]) == 0.0
    assert max_abs(c[:na, :na, :na] - alg_m2.structure) == 0.0
    assert max_abs(c[na:, na:, na:] - alg_z2.structure) == 0.0


def test_build_product_norm_weights_concatenate(alg_ut2, alg_c2):
    from tpw.corpus import hom_c2_diag_into_ut2

    product = build_product(alg_ut2, alg_c2, hom_c2_diag_into_ut2(alg_c2, alg_ut2), TOL)
    np.testing.assert_allclose(
        product.algebra.norm_weights,
        np.concatenate([alg_ut2.norm_weights, alg_c2.norm_weights]),
    )
    # the product norm is the sum of the factor norms
    x = np.array([1, -2, 3, 4j, -5], dtype=complex)
    assert product.algebra.l1_norm(x) == pytest.approx(
        alg_ut2.l1_norm(x[:3]) + alg_c2.l1_norm(x[3:])
    )


def test_build_product_lau_special_case(alg_c, alg_c2):
    """With A unital and T = (character) * unit, (a,b) multiplies Lau-style."""
    hom = hom_scaled_character(alg_c, alg_c2, np.array([1.0 + 0j]), np.array([1.0, 1.0]))
    product = build_product(alg_c2, alg_c, hom, TOL)
    a1 = np.array([1.0, 2.0], dtype=complex)
    a2 = np.array([3.0, 5.0], dtype=complex)
    b1, b2 = 2.0, 7.0
    out = product.algebra.multiply(np.r_[a1, b1], np.r_[a2, b2])
    expected_a = a1 * a2 + a1 * b2 + b1 * a2  # theta(b) acts as the scalar b
    np.testing.assert_allclose(out, np.r_[expected_a, b1 * b2])


def test_build_product_rejects_bad_hom(alg_c2):
    bad = AlgebraHom(source=alg_c2, target=alg_c2, matrix=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(HomInvalid):
        build_product(alg_c2, alg_c2, bad, TOL)


def test_build_product_rejects_non_associative_factor(alg_c):
    """e0 e0 = e1 and e1 e0 = e0, so (e0 e0) e0 = e0 while e0 (e0 e0) = e0 e1 = 0."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = c[1, 0, 0] = 1.0
    bad = FiniteAlgebra(name="NA2", basis_labels=("e0", "e1"), structure=c)
    with pytest.raises(ValidationError, match="factor 'NA2' fails associativity"):
        build_product(bad, alg_c, hom_zero(alg_c, bad), TOL)
    with pytest.raises(ValidationError, match="factor 'NA2' fails associativity"):
        build_product(alg_c, bad, hom_zero(bad, alg_c), TOL)
    with pytest.raises(ValidationError, match="factor 'NA2' fails associativity"):
        build_product(bad, bad, hom_zero(bad, bad), TOL)


def test_build_product_matches_hom_endpoints_by_content(alg_ut2, alg_c2):
    """A namesake with other structure is not the algebra; a renamed copy of it is."""
    namesake = FiniteAlgebra(name=alg_ut2.name, basis_labels=alg_ut2.basis_labels,
                             structure=np.zeros((3, 3, 3)))
    with pytest.raises(HomInvalid):
        build_product(alg_ut2, alg_c2, hom_zero(alg_c2, namesake), TOL)
    with pytest.raises(HomInvalid):
        build_product(namesake, alg_c2, hom_zero(alg_c2, alg_ut2), TOL)
    other_c2 = FiniteAlgebra(name=alg_c2.name, basis_labels=alg_c2.basis_labels,
                             structure=np.zeros((2, 2, 2)))
    with pytest.raises(HomInvalid):
        build_product(alg_ut2, alg_c2, hom_zero(other_c2, alg_ut2), TOL)
    copy = FiniteAlgebra(name="UT2-copy", basis_labels=alg_ut2.basis_labels, structure=alg_ut2.structure)
    product = build_product(alg_ut2, alg_c2, hom_zero(alg_c2, copy), TOL)
    assert product.a is alg_ut2


def test_product_associativity_fuzz(corpus, rng):
    for entry in corpus:
        product = build_product(entry.algebra_a, entry.algebra_b, entry.hom, TOL)
        alg = product.algebra
        for _ in range(20):
            x, y, z = (random_element(rng, alg.dim) for _ in range(3))
            lhs = alg.multiply(alg.multiply(x, y), z)
            rhs = alg.multiply(x, alg.multiply(y, z))
            assert max_abs(lhs - rhs) <= 10 * TOL


def test_embedding_is_monomorphism(corpus, rng):
    for entry in corpus:
        product = build_product(entry.algebra_a, entry.algebra_b, entry.hom, TOL)
        a_alg = entry.algebra_a
        x = random_element(rng, a_alg.dim)
        y = random_element(rng, a_alg.dim)
        lhs = product.algebra.multiply(product.embed_a(x), product.embed_a(y))
        np.testing.assert_allclose(lhs, product.embed_a(a_alg.multiply(x, y)), atol=10 * TOL)


def test_ideal_and_quotient_identity_hom(alg_c):
    product = build_product(alg_c, alg_c, hom_identity(alg_c), TOL)
    report = ideal_and_quotient(product, TOL)
    assert report.ideal_ok
    assert report.quotient_iso_ok
    # the quotient map sends (a, b) to b
    np.testing.assert_allclose(report.quotient_map(np.array([2.0, 5.0])), [5.0])


def test_ideal_holds_corpus_wide(corpus):
    for entry in corpus:
        product = build_product(entry.algebra_a, entry.algebra_b, entry.hom, TOL)
        report = ideal_and_quotient(product, TOL)
        assert report.ideal_ok, entry.entry_id
        assert report.quotient_iso_ok, entry.entry_id


def _corpus_products(corpus):
    """Every corpus product and one rebased copy of each (A, B, T)."""
    rng = np.random.default_rng(0)
    for e in corpus:
        yield e.entry_id, build_product(e.algebra_a, e.algebra_b, e.hom, TOL)
        ua, ub = random_unitary(rng, e.algebra_a.dim), random_unitary(rng, e.algebra_b.dim)
        a, b = rebased(e.algebra_a, ua), rebased(e.algebra_b, ub)
        hom = AlgebraHom(source=b, target=a, matrix=ua.conj().T @ e.hom.matrix @ ub)
        yield f"{e.entry_id}-rebased", build_product(a, b, hom, TOL)


def test_block_maps_equal_the_explicit_formulas(corpus):
    """The shear and the maps that come from it, bit for bit against the block formulas."""
    rng = np.random.default_rng(1)
    for label, product in _corpus_products(corpus):
        m, na, nb = product.hom.matrix, product.dim_a, product.dim_b
        shear = np.eye(na + nb, dtype=complex)
        shear[:na, na:] = m
        assert np.array_equal(product.shear, shear) and not product.shear.flags.writeable, label
        phi, x = random_element(rng, na), random_element(rng, na)
        psi = random_element(rng, nb)
        columns = rng.standard_normal((nb, 3)) + 1j * rng.standard_normal((nb, 3))
        a_columns = rng.standard_normal((na, 2)) + 1j * rng.standard_normal((na, 2))
        assert np.array_equal(product.lift_first(phi), np.concatenate([phi, m.T @ phi])), label
        assert np.array_equal(product.lift_second(psi), np.concatenate([np.zeros(na), psi])), label
        assert np.array_equal(product.graph(psi), np.concatenate([-(m @ psi), psi])), label
        assert np.array_equal(product.graph(columns), np.vstack([-(m @ columns), columns])), label
        assert np.array_equal(product.embed_a(x), np.concatenate([x, np.zeros(nb)])), label
        assert np.array_equal(product.embed_a(a_columns), np.vstack([a_columns, np.zeros((nb, 2))])), label


def test_shear_rows_are_the_lifting_projections(corpus):
    """The rows of the shear are the p1 and p2 that ``lift_derivation`` once built by hand."""
    for label, product in _corpus_products(corpus):
        na, nb = product.dim_a, product.dim_b
        p1 = np.hstack([np.eye(na), product.hom.matrix])
        p2 = np.hstack([np.zeros((nb, na)), np.eye(nb)])
        assert np.array_equal(product.shear[:na], p1) and np.array_equal(product.shear[na:], p2), label


def test_product_keeps_the_hom_report_of_its_build(corpus):
    for label, product in _corpus_products(corpus):
        assert vars(product.hom_report) == vars(check_hom(product.hom, TOL)), label


def test_worst_pair_is_the_first_worst_basis_pair(alg_c2, alg_ut2, alg_m2):
    """The pair kept at construction is the one the per-pair maximum picks first."""
    rng = np.random.default_rng(2)
    for source, target in ((alg_c2, alg_c2), (alg_c2, alg_ut2), (alg_ut2, alg_m2), (alg_m2, alg_m2)):
        for matrix in (rng.standard_normal((target.dim, source.dim)), np.ones((target.dim, source.dim))):
            hom = AlgebraHom(source=source, target=target, matrix=matrix)
            m = hom.matrix
            table = np.einsum("km,ijm->ijk", m, source.structure) - np.einsum("pi,qj,pqk->ijk", m, m, target.structure)
            flat = np.max(np.abs(table), axis=2)
            assert hom.worst_pair == np.unravel_index(np.argmax(flat), flat.shape)
            assert hom.mult_residual == max_abs(table)
