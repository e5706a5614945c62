"""Character verification, enumeration, and the product decomposition."""

from dataclasses import replace

import numpy as np
import pytest

import tpw.characters
from tpw.characters import (
    CharacterEnumeration,
    character_decomposition,
    character_defect,
    commutative_quotient,
    commutator_ideal,
    enumerate_characters,
    product_characters,
    verify_character,
)
from tpw.core import FiniteAlgebra
from tpw.corpus import algebra_cn, hom_identity, hom_zero
from tpw.errors import CharacterRejected
from tpw.linalg import SPLITTER_STREAM, column_space, complex_gaussians, max_abs, subspaces_equal
from tpw.product import AlgebraHom, build_product

from conftest import (TOL, matrix_unit_algebra, random_unitary, rebased, rebased_triple, right_mult_operator,
                      stacking_triples)


def oracle_cn_characters(n):
    """Solve lambda_i lambda_j = delta_ij lambda_i by hand: coordinate projections."""
    return [np.eye(n, dtype=complex)[:, i] for i in range(n)]


def zero_product_algebra(n):
    return FiniteAlgebra(
        name=f"zero{n}", basis_labels=tuple(f"z{i}" for i in range(n)), structure=np.zeros((n, n, n))
    )


def test_verify_accepts_projection(alg_c2):
    ch = verify_character(alg_c2, [1.0, 0.0], TOL)
    assert ch.residual <= TOL


def test_verify_rejects_sum_of_projections(alg_c2):
    # f(e1 e2) = 0 but f(e1) f(e2) = 1
    with pytest.raises(CharacterRejected) as info:
        verify_character(alg_c2, [1.0, 1.0], TOL)
    assert info.value.basis_pair in ((0, 1), (1, 0))


def test_verify_rejects_zero_product_functional(alg_null1):
    with pytest.raises(CharacterRejected):
        verify_character(alg_null1, [1.0], TOL)


def test_verify_rejects_zero_functional(alg_c2):
    with pytest.raises(CharacterRejected):
        verify_character(alg_c2, [0.0, 0.0], TOL)


def contraction_algebras(corpus):
    """Every corpus algebra and product, and rebased C_k, T_k and M_k for k <= 4."""
    for e in corpus:
        yield from (e.algebra_a, e.algebra_b, build_product(e.algebra_a, e.algebra_b, e.hom, TOL).algebra)
    rng = np.random.default_rng(4)
    for family in "CTM":
        for k in range(1, 5):
            alg = matrix_unit_algebra(family, k)
            yield rebased(alg, random_unitary(rng, alg.dim))


def reference_commutator_ideal(alg, tol):
    """The ideal grown one basis vector at a time from the multiplication operators."""
    c = alg.structure
    scale = max(1.0, max_abs(c))
    basis = column_space((c - c.transpose(1, 0, 2)).reshape(-1, alg.dim).T, tol, scale)
    while basis.shape[1] > 0:
        grown = [basis]
        for k in range(alg.dim):
            e = alg.basis_vector(k)
            grown.append(alg.left_mult_operator(e) @ basis)
            grown.append(right_mult_operator(alg, e) @ basis)
        new_basis = column_space(np.hstack(grown), tol, scale)
        if new_basis.shape[1] == basis.shape[1]:
            break
        basis = new_basis
    return basis


def test_commutator_ideal_matches_per_basis_loop(corpus):
    for alg in contraction_algebras(corpus):
        ideal, ref = commutator_ideal(alg, TOL), reference_commutator_ideal(alg, TOL)
        assert ideal.shape == ref.shape, alg.name
        assert subspaces_equal(ideal, ref, 1e-12)[0], alg.name


def test_quotient_operators_match_left_mult_operators(monkeypatch, corpus):
    """The operators enumeration refines by are the transposed left-multiplication
    operators of the seeded splitter and of each quotient basis vector."""
    seen = []

    def record(operators, dim, cluster_tol):
        seen.append(operators)
        return branches(operators, dim, cluster_tol)

    branches = tpw.characters._joint_eigenvalue_branches
    monkeypatch.setattr(tpw.characters, "_joint_eigenvalue_branches", record)
    for alg in contraction_algebras(corpus):
        q = commutative_quotient(alg, TOL).quotient
        seen.clear()
        enumerate_characters(alg, TOL, seed=3)
        if q is None:
            assert not seen, alg.name
            continue
        splitter = complex_gaussians(3, SPLITTER_STREAM, q.dim)
        want = [(None, q.left_mult_operator(splitter).T)]
        want += [(j, q.left_mult_operator(q.basis_vector(j)).T) for j in range(q.dim)]
        (ops,) = seen
        assert [label for label, _ in ops] == [label for label, _ in want], alg.name
        bound = 1e-12 * max(1.0, max_abs(q.structure)) * max(1.0, max_abs(splitter))
        for (_, op), (_, ref) in zip(ops, want):
            assert max_abs(op - ref) <= bound, alg.name


def test_commutator_ideal_row2(alg_row2):
    # [E11, E12] = E12 generates span{E12}
    basis = commutator_ideal(alg_row2, TOL)
    assert basis.shape[1] == 1
    np.testing.assert_allclose(np.abs(basis[:, 0]), [0.0, 1.0], atol=TOL)


def test_commutator_ideal_m2_is_everything(alg_m2):
    assert commutator_ideal(alg_m2, TOL).shape[1] == 4
    assert commutative_quotient(alg_m2, TOL).quotient is None


def test_commutator_ideal_commutative_is_trivial(alg_c2, alg_z2):
    assert commutator_ideal(alg_c2, TOL).shape[1] == 0
    assert commutator_ideal(alg_z2, TOL).shape[1] == 0


@pytest.mark.parametrize("n", [2, 3])
def test_enumerate_pointwise(n):
    alg = algebra_cn(n)
    enum = enumerate_characters(alg, TOL, seed=0)
    assert enum.complete
    assert len(enum.characters) == n
    expected = oracle_cn_characters(n)
    for want in expected:
        assert any(max_abs(ch.functional - want) <= 10 * TOL for ch in enum.characters)


def test_enumerate_m2_empty(alg_m2):
    enum = enumerate_characters(alg_m2, TOL, seed=0)
    assert enum.complete
    assert len(enum.characters) == 0


def test_enumerate_row2(alg_row2):
    # mu^2 = 0, lam*mu = mu, lam^2 = lam force (lam, mu) = (1, 0)
    enum = enumerate_characters(alg_row2, TOL, seed=0)
    assert enum.complete
    assert len(enum.characters) == 1
    np.testing.assert_allclose(enum.characters[0].functional, [1.0, 0.0], atol=10 * TOL)


def test_enumerate_null1(alg_null1):
    enum = enumerate_characters(alg_null1, TOL, seed=0)
    assert enum.complete
    assert len(enum.characters) == 0


def test_enumerate_zero_product_dim2_incomplete():
    """All joint eigenspaces stay 2-dimensional, so the verdict is incomplete."""
    enum = enumerate_characters(zero_product_algebra(2), TOL, seed=0)
    assert not enum.complete
    assert len(enum.characters) == 0
    assert enum.notes


def test_enumerate_deterministic(alg_ut2):
    first = enumerate_characters(alg_ut2, TOL, seed=0)
    second = enumerate_characters(alg_ut2, TOL, seed=0)
    assert len(first.characters) == len(second.characters)
    for a, b in zip(first.characters, second.characters):
        assert max_abs(a.functional - b.functional) == 0.0


def test_enumerate_merges_declared_characters(alg_c2):
    declared = FiniteAlgebra(
        name="C2d",
        basis_labels=("e1", "e2"),
        structure=alg_c2.structure,
        declared_characters=(np.array([1.0 + 0j, 0.0]),),
    )
    enum = enumerate_characters(declared, TOL, seed=0)
    # the declared projection is already found; dedup keeps the count at 2
    assert len(enum.characters) == 2


def test_every_returned_character_verifies(corpus):
    for entry in corpus:
        for alg in (entry.algebra_a, entry.algebra_b):
            for ch in enumerate_characters(alg, TOL, seed=0).characters:
                assert ch.residual <= TOL
                assert max_abs(ch.functional) > TOL


def test_product_characters_identity_hom(alg_c):
    product = build_product(alg_c, alg_c, hom_identity(alg_c), TOL)
    pc = product_characters(product, TOL, seed=0)
    assert pc.complete
    assert pc.decomposition_ok
    assert len(pc.lifted) == 1 and len(pc.pure_b) == 1
    # (a, b) -> a + b and (a, b) -> b
    got = sorted(np.real(c.functional).tolist() for c in pc.lifted + pc.pure_b)
    assert got == [[0.0, 1.0], [1.0, 1.0]]


def test_product_characters_m2_factor(alg_m2, alg_c):
    # sigma(M2) is empty, so only the pure character survives, for any hom
    embed = np.zeros((4, 1))
    embed[0, 0] = 1.0  # 1 -> E11, an idempotent: a multiplicative hom C -> M2
    hom = AlgebraHom(source=alg_c, target=alg_m2, matrix=embed)
    product = build_product(alg_m2, alg_c, hom, TOL)
    pc = product_characters(product, TOL, seed=0)
    assert pc.decomposition_ok
    assert len(pc.lifted) == 0
    assert len(pc.pure_b) == 1


def test_product_characters_zero_hom(alg_c2, alg_c):
    product = build_product(alg_c2, alg_c, hom_zero(alg_c, alg_c2), TOL)
    pc = product_characters(product, TOL, seed=0)
    assert pc.decomposition_ok
    # lifted characters are (phi, phi o 0) = (phi, 0)
    for ch in pc.lifted:
        assert max_abs(ch.functional[2:]) <= TOL


def test_product_decomposition_corpus_wide(corpus):
    for entry in corpus:
        product = build_product(entry.algebra_a, entry.algebra_b, entry.hom, TOL)
        pc = product_characters(product, TOL, seed=0)
        assert pc.complete, entry.entry_id
        assert pc.decomposition_ok, entry.entry_id
        assert pc.disjoint, entry.entry_id


def test_pullback_lands_in_spectrum_or_zero(corpus):
    for entry in corpus:
        m = entry.hom.matrix
        for ch in enumerate_characters(entry.algebra_a, TOL, seed=0).characters:
            pullback = m.T @ ch.functional
            if max_abs(pullback) <= TOL:
                continue
            defect, _ = character_defect(entry.algebra_b, pullback)
            assert defect <= 10 * TOL


def test_pullback_defect_is_bounded_by_its_lifted_members_defect(corpus):
    """The pullback lemma needs no claim of its own: phi o T is the second block of the lifted
    member (phi, phi o T), whose defect on the product's B x B block is phi o T's defect on B.
    So on every ``stacking_triples`` product and a rebased copy, each nonzero pullback's defect
    is at most its lifted member's, which ``lifted-family-verified`` holds to tol.  Disjointness
    needs none either: ``decomposition_ok`` is never True while the families overlap."""
    rng = np.random.default_rng(5)
    for label, a, b, hom in stacking_triples(corpus):
        for copy, triple in (("", (a, b, hom)), ("-copy", rebased_triple(a, b, hom, rng))):
            product = build_product(*triple, TOL)
            pc = product_characters(product, TOL, seed=0)
            for member in pc.lifted:
                pullback = member.functional[product.dim_a :]
                if max_abs(pullback) > TOL:
                    assert character_defect(product.b, pullback)[0] <= member.residual + 1e-15, label + copy
            assert not (pc.decomposition_ok and not pc.disjoint), label + copy


def reference_cluster(values, tol):
    """Greedy chain clustering, one value at a time; returns the cluster means."""
    order = np.lexsort((values.imag, values.real))
    groups = []
    for v in values[order]:
        if groups and abs(v - groups[-1][-1]) <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    return [complex(np.mean(g)) for g in groups]


def reference_nullspace_abs(a, cutoff):
    """Nullspace of one matrix with an absolute singular-value cutoff."""
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    return vh[int(np.sum(s > cutoff)):].conj().T


def reference_branches(operators, dim, cluster_tol):
    """The refinement with an eigensolve, a clustering and a nullspace on every branch,
    lines included."""
    branches = [(np.eye(dim, dtype=complex), ())]
    for label, op in operators:
        refined = []
        for basis, values in branches:
            restricted = basis.conj().T @ op @ basis
            eigs = np.linalg.eigvals(restricted)
            scale = max(1.0, float(np.max(np.abs(eigs))) if eigs.size else 1.0)
            for mu in reference_cluster(eigs, cluster_tol * scale):
                shifted = restricted - mu * np.eye(restricted.shape[0])
                eigvecs = reference_nullspace_abs(shifted, cluster_tol * scale)
                if eigvecs.shape[1] == 0:
                    continue
                refined.append((basis @ eigvecs, values + (mu,) if label is not None else values))
        branches = refined
    return branches


def test_refinement_matches_eigensolve_on_every_branch(monkeypatch, corpus):
    """Skipping the eigensolve on one-dimensional branches changes no branch and no character."""
    seen = []

    def record(operators, dim, cluster_tol):
        seen.append((operators, dim, cluster_tol))
        return branches(operators, dim, cluster_tol)

    branches = tpw.characters._joint_eigenvalue_branches
    monkeypatch.setattr(tpw.characters, "_joint_eigenvalue_branches", record)
    algebras = [*contraction_algebras(corpus), zero_product_algebra(2)]
    enumerations = [enumerate_characters(alg, TOL, seed=3) for alg in algebras]
    refined = [alg for alg in algebras if commutative_quotient(alg, TOL).quotient is not None]
    assert len(refined) == len(seen)
    for alg, args in zip(refined, seen):
        got, want = branches(*args), reference_branches(*args)
        assert len(got) == len(want), alg.name
        for (basis, values), (ref_basis, ref_values) in zip(got, want):
            assert basis.shape == ref_basis.shape and len(values) == len(ref_values), alg.name
            assert max_abs(np.array(values) - np.array(ref_values)) <= 1e-12, alg.name
            assert subspaces_equal(basis, ref_basis, 1e-12)[0], alg.name

    monkeypatch.setattr(tpw.characters, "_joint_eigenvalue_branches", reference_branches)
    for alg, enum in zip(algebras, enumerations):
        ref = enumerate_characters(alg, TOL, seed=3)
        assert (enum.complete, len(enum), enum.notes) == (ref.complete, len(ref), ref.notes), alg.name
        for ch, ref_ch in zip(enum.characters, ref.characters):
            assert max_abs(ch.functional - ref_ch.functional) <= 1e-12, alg.name
    assert not enumerations[-1].complete and len(enumerations[-1]) == 0


def test_one_eigensolve_per_enumeration_with_a_complete_splitter(monkeypatch):
    """Counted guard: on rebased C5 and C5 x C5 the splitter separates every joint
    eigenspace, so each enumeration takes one eigensolve, on the whole quotient."""
    eigvals, calls = np.linalg.eigvals, []

    def counted(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    c5 = rebased(matrix_unit_algebra("C", 5), random_unitary(np.random.default_rng(3), 5), "C5")
    product = build_product(c5, c5, AlgebraHom(source=c5, target=c5, matrix=np.eye(5)), TOL)
    for alg, count in ((c5, 5), (product.algebra, 10)):
        calls.clear()
        enum = enumerate_characters(alg, TOL)
        assert enum.complete and len(enum) == count
        assert calls == [(count, count)]


def reference_enumeration(alg, tol, seed):
    """Enumeration one branch, one candidate and one character at a time: the eigensolve
    refinement on every branch, one verification per candidate, deduplication against the
    characters accepted so far, and a sort key built coordinate by coordinate."""
    cq = commutative_quotient(alg, tol)
    found, notes = [], []
    if cq.quotient is not None:
        q = cq.quotient
        splitter = complex_gaussians(seed, SPLITTER_STREAM, q.dim)
        ops = [(None, np.einsum("i,ijk->jk", splitter, q.structure))] + [(j, q.structure[j]) for j in range(q.dim)]
        for basis, values in reference_branches(ops, q.dim, max(np.sqrt(tol), 100 * tol)):
            if basis.shape[1] != 1:
                notes.append(f"joint eigenspace of dimension {basis.shape[1]} could not be split further; "
                             "enumeration incomplete")
            found.append(cq.section.conj() @ np.array(values, dtype=complex))
    accepted = []
    for f in found + list(alg.declared_characters):
        try:
            ch = verify_character(alg, f, tol)
        except CharacterRejected:
            continue
        if not any(max_abs(ch.functional - other.functional) <= 10 * tol for other in accepted):
            accepted.append(ch)
    accepted.sort(key=lambda ch: tuple((round(z.real, 9), round(z.imag, 9)) for z in ch.functional))
    return accepted, not notes, tuple(notes)


def stacking_algebras(corpus):
    """Both factors and the product of every stacking triple, the contraction algebras,
    and C2 declaring its two characters, one of them twice with a perturbation."""
    for _, a, b, hom in stacking_triples(corpus):
        yield from (a, b, build_product(a, b, hom, TOL).algebra)
    yield from contraction_algebras(corpus)
    c2 = matrix_unit_algebra("C", 2)
    yield FiniteAlgebra(name="C2-declared", basis_labels=c2.basis_labels, structure=c2.structure,
                        declared_characters=([0.0, 1.0], [1.0, 0.0], [1.0 + 1e-11, 0.0]))


def test_enumeration_matches_per_candidate_loop(corpus):
    """The stacked enumeration gives the loop reference's characters to 1e-12, in the
    same order, with the same completeness and notes, on every stacking algebra."""
    for alg in stacking_algebras(corpus):
        for seed in (0, 3):
            enum = enumerate_characters(alg, TOL, seed)
            ref, complete, notes = reference_enumeration(alg, TOL, seed)
            assert (enum.complete, enum.notes, len(enum)) == (complete, notes, len(ref)), alg.name
            for ch, want in zip(enum.characters, ref):
                assert max_abs(ch.functional - want.functional) <= 1e-12, alg.name
                assert abs(ch.residual - want.residual) <= 1e-12, alg.name


def reference_decomposition(product, sigma_a, sigma_b, enumerated, tol):
    """The decomposition one member and one pair at a time."""
    members = [product.lift_first(ch.functional) for ch in sigma_a.characters]
    pure = [product.lift_second(ch.functional) for ch in sigma_b.characters]
    disjoint = all(max_abs(f - g) > 10 * tol for f in members for g in pure)
    members += pure

    def unmatched(fs, gs):
        return next((f for f in fs if not any(max_abs(f - g) <= 10 * tol for g in gs)), None)

    mismatch = ok = None
    if sigma_a.complete and sigma_b.complete and enumerated.complete:
        found = [ch.functional for ch in enumerated.characters]
        mismatch = unmatched(found, members)
        mismatch = unmatched(members, found) if mismatch is None else mismatch
        ok = mismatch is None and disjoint
    return members, [character_defect(product.algebra, f)[0] for f in members], disjoint, ok, mismatch


def test_decomposition_matches_per_pair_loop(corpus):
    """The stacked decomposition against the loop reference on every stacking triple, also
    with an enumeration of the product that misses its first character, so that a mismatch
    is found."""
    for label, a, b, hom in stacking_triples(corpus):
        product = build_product(a, b, hom, TOL)
        sigmas = [enumerate_characters(alg, TOL) for alg in (a, b, product.algebra)]
        found = sigmas[2].characters
        short = CharacterEnumeration(product.algebra, found[1:], sigmas[2].complete)
        # a first character moved off the family: unmatched on both sides, the enumerated one reported
        moved = replace(short, characters=tuple(replace(ch, functional=ch.functional + 1e-3) for ch in found[:1]) + found[1:])
        for enumerated in (sigmas[2], short, moved):
            pc = character_decomposition(product, *sigmas[:2], enumerated, TOL)
            members, defects, disjoint, ok, mismatch = reference_decomposition(product, *sigmas[:2], enumerated, TOL)
            got = pc.lifted + pc.pure_b
            assert len(got) == len(members) and len(pc.lifted) == len(sigmas[0]), label
            for ch, f, defect in zip(got, members, defects):
                assert max_abs(ch.functional - f) <= 1e-12 and abs(ch.residual - defect) <= 1e-12, label
            assert (pc.disjoint, pc.decomposition_ok) == (disjoint, ok), label
            assert (pc.mismatch is None) == (mismatch is None), label
            assert mismatch is None or max_abs(pc.mismatch - mismatch) <= 1e-12, label
            if enumerated is not sigmas[2] and enumerated.complete and found:
                assert ok is False, label
