"""Derivation spaces, invariant elements, inner means, and the decision procedures."""

from collections import Counter

import numpy as np
import pytest

from tpw.amenability import (
    TLI_STACK_ENTRIES,
    Analysis,
    _leibniz_adjoint,
    _leibniz_map,
    _leibniz_sketch,
    _leibniz_space,
    _lifted,
    commutation_residual,
    derivation_space,
    inner_amenability_suite,
    is_character_amenable,
    is_character_inner_amenable,
    is_weakly_amenable,
    leibniz_residual,
    lift_derivation,
    product_analyses,
    solve_inner_mean,
    solve_tli,
    tli_product_characterization,
)
from tpw.characters import enumerate_characters, radical
from tpw.core import center
from tpw.corpus import (algebra_group_z2, algebra_null1, algebra_row2, algebra_ut2, hom_identity, hom_scaled_character,
                        hom_zero)
from tpw.errors import NotADerivation
from tpw.linalg import column_space, max_abs, nullspace, subspaces_equal, svd_cutoff
from tpw.product import build_product
from tpw.suite import RunConfig, verify_product, verify_theorems

from conftest import (
    TOL,
    c2_eps,
    cross_term_triple,
    inner_derivation,
    matrix_unit_algebra,
    power_estimates,
    random_element,
    random_unitary,
    rebased,
    rebased_triple,
    right_mult_operator,
    stacking_triples,
    zero_product_algebra,
)


def oracle_derivation_dims(alg):
    """Rank oracle built with explicit loops, independent of the solver path."""
    n = alg.dim
    c = alg.structure

    def f_dot_a(f, a):
        out = np.zeros(n, dtype=complex)
        for x in range(n):
            for i in range(n):
                for k in range(n):
                    out[x] += a[i] * c[i, x, k] * f[k]
        return out

    def a_dot_f(a, f):
        out = np.zeros(n, dtype=complex)
        for x in range(n):
            for j in range(n):
                for k in range(n):
                    out[x] += a[j] * c[x, j, k] * f[k]
        return out

    unit = lambda i: np.eye(n, dtype=complex)[:, i]
    rows = []
    for i in range(n):
        for j in range(n):
            for m in range(n):
                row = np.zeros((n, n), dtype=complex)
                for k in range(n):
                    row[m, k] += c[i, j, k]
                for p in range(n):
                    row[p, i] -= f_dot_a(unit(p), unit(j))[m]
                    row[p, j] -= a_dot_f(unit(i), unit(p))[m]
                rows.append(row.reshape(-1))
    system = np.array(rows)
    dim_der = n * n - np.linalg.matrix_rank(system, tol=1e-9)

    cols = []
    for p in range(n):
        adf = np.zeros((n, n), dtype=complex)
        for i in range(n):
            adf[:, i] = a_dot_f(unit(i), unit(p)) - f_dot_a(unit(p), unit(i))
        cols.append(adf.reshape(-1))
    dim_inner = np.linalg.matrix_rank(np.column_stack(cols), tol=1e-9)
    return int(dim_der), int(dim_inner)


@pytest.mark.parametrize(
    "fixture_name,expected",
    [
        ("alg_c", (0, 0)),
        ("alg_null1", (1, 0)),
        ("alg_m2", (3, 3)),
        ("alg_ut2", (1, 1)),
        ("alg_row2", (1, 1)),
    ],
)
def test_derivation_dims_against_oracle(request, fixture_name, expected):
    alg = request.getfixturevalue(fixture_name)
    assert oracle_derivation_dims(alg) == expected
    space = derivation_space(alg, TOL)
    assert (space.dim_der, space.dim_inner) == expected


def test_derivation_basis_satisfies_leibniz(corpus):
    for entry in corpus:
        for alg in (entry.algebra_a, entry.algebra_b):
            space = derivation_space(alg, TOL)
            for d in space.der_basis:
                assert leibniz_residual(alg, d) <= 10 * TOL
            for d in space.inner_basis:
                assert leibniz_residual(alg, d) <= 10 * TOL
            assert space.dim_inner <= space.dim_der


def reference_leibniz_residual(alg, d):
    """The Leibniz residual one basis pair at a time, from the multiplication operators."""
    n = alg.dim
    d = np.asarray(d, dtype=complex).reshape(n, n)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            lhs = d @ alg.structure[i, j, :]
            rhs = alg.left_mult_operator(alg.basis_vector(j)).T @ d[:, i]
            rhs = rhs + right_mult_operator(alg, alg.basis_vector(i)).T @ d[:, j]
            worst = max(worst, max_abs(lhs - rhs))
    return worst


def test_leibniz_residual_matches_per_pair_reference(corpus, rng):
    for entry in corpus:
        product = build_product(entry.algebra_a, entry.algebra_b, entry.hom, TOL)
        for alg in (entry.algebra_a, entry.algebra_b, product.algebra):
            n = alg.dim
            maps = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
                    inner_derivation(alg, random_element(rng, n))]
            maps += list(derivation_space(alg, TOL).der_basis)
            for d in maps:
                want = reference_leibniz_residual(alg, d)
                assert abs(leibniz_residual(alg, d) - want) <= 1e-12 * max(1.0, want), entry.entry_id


def test_leibniz_residual_flags_identity_on_m2(alg_m2):
    identity = np.eye(alg_m2.dim)
    residual = leibniz_residual(alg_m2, identity)
    assert residual == reference_leibniz_residual(alg_m2, identity)
    assert residual >= 1.0


def reference_leibniz_matrix(alg):
    """The whole n^3 x n^2 Leibniz system, one basis pair (i, j) at a time from the
    multiplication operators: row (i, j, m) and column (q, k), for D[q, k], hold the
    coefficients of the m-th coordinate of D(e_i e_j) - D(e_i).e_j - e_i.D(e_j)."""
    n, c = alg.dim, alg.structure
    rows = np.zeros((n, n, n, n, n), dtype=complex)  # (i, j, m, q, k)
    for i in range(n):
        right = right_mult_operator(alg, alg.basis_vector(i)).T
        for j in range(n):
            block = rows[i, j]
            block[np.arange(n), np.arange(n), :] += c[i, j]
            block[:, :, i] -= alg.left_mult_operator(alg.basis_vector(j)).T
            block[:, :, j] -= right
    return rows.reshape(n**3, n * n)


def test_leibniz_map_adjoint_and_sketch_are_the_reference_matrix(corpus, rng):
    """The solver's three views of the Leibniz system, on the corpus algebras and rebased M3:
    the map of the basis maps is the matrix (its rows for the last basis index are the
    matrix's last row block), the adjoint its conjugate transpose, and the
    sketch of an element a the sum over i of a_i times row block i."""
    m3 = matrix_unit_algebra("M", 3)
    algebras = [alg for e in corpus for alg in (e.algebra_a, e.algebra_b)]
    for alg in algebras + [rebased(m3, random_unitary(rng, m3.dim))]:
        n, c, system = alg.dim, alg.structure, reference_leibniz_matrix(alg)
        units = np.eye(n * n).reshape(n * n, n, n)
        assert np.allclose(_leibniz_map(c, units).reshape(n * n, -1).T, system, atol=1e-12), alg.name
        last = _leibniz_map(c, units, slice(n - 1, n)).reshape(n * n, -1).T
        assert np.allclose(last, system[(n - 1) * n * n :], atol=1e-12), alg.name
        y = random_element(rng, n**3)
        assert np.allclose(_leibniz_adjoint(c, y), system.conj().T @ y, atol=1e-12), alg.name
        elements = np.array([random_element(rng, n), random_element(rng, n)])
        want = np.einsum("ti,irc->trc", elements, system.reshape(n, n * n, n * n))
        got = np.array([_leibniz_sketch(c, a) for a in elements])
        assert np.allclose(got, want, atol=1e-12), alg.name


def leibniz_oracle_algebras(corpus):
    """(label, algebra): A, B and the product of every stacking triple, then rebased M3, T4, T5 and M4."""
    algebras = []
    for label, a, b, hom in stacking_triples(corpus):
        product = build_product(a, b, hom, TOL).algebra
        algebras += [(f"{label}/A", a), (f"{label}/B", b), (f"{label}/product", product)]
    rng = np.random.default_rng(16)
    for family, k in (("M", 3), ("T", 4), ("T", 5), ("M", 4)):
        base = matrix_unit_algebra(family, k)
        algebras.append((f"{family}{k}-rebased", rebased(base, random_unitary(rng, base.dim))))
    return algebras


def assert_matches_the_whole_system(label, alg, tol, tops):
    """The sketched solve, ``_leibniz_space``, against the SVD of the whole Leibniz system under its
    own cutoff at ``tol``: the same dimension and span, every basis map a derivation, and the
    power-step estimate of s_max, which the solve appends to ``tops`` once, within [0.5, 1] of the
    exact one."""
    tops.clear()
    space = _leibniz_space(alg, tol)
    assert len(tops) == 1, (label, tol, tops)
    system = reference_leibniz_matrix(alg)
    _, s, vh = np.linalg.svd(system, full_matrices=False)
    want = vh[int(np.sum(s > svd_cutoff(s, system.shape, tol, alg.cutoff_scale))) :].conj().T
    got = np.array(space.der_basis).reshape(-1, alg.dim**2).T
    assert space.dim_der == want.shape[1], (label, tol)
    equal, residual = subspaces_equal(got, want, 1e-10)
    assert equal, (label, tol, residual)
    for d in space.der_basis:
        assert leibniz_residual(alg, d) <= 10 * tol, (label, tol)
    if s[0] == 0.0:
        assert tops[0] == 0.0, label
    else:
        assert 0.5 <= tops[0] / s[0] <= 1.0 + 1e-12, (label, tol, tops[0] / s[0])


def test_sketched_derivation_space_matches_the_whole_system(corpus, monkeypatch):
    """``assert_matches_the_whole_system`` on all 82 algebras at TOL."""
    tops = power_estimates(monkeypatch)
    algebras = leibniz_oracle_algebras(corpus)
    assert len(algebras) == 82
    for label, alg in algebras:
        assert_matches_the_whole_system(label, alg, TOL, tops)


@pytest.mark.parametrize("tol", [1e-12, 1e-10, 1e-7])
def test_sketched_derivation_space_matches_the_whole_system_at_other_tolerances(corpus, monkeypatch, tol):
    """The same on rebased M3, T4, T5 and M4 at tolerances from 1e-12, where the Gram matrix's
    rounding lies far above the squared sketch cut and its floor tau_acc keeps V whole, to 1e-7."""
    tops = power_estimates(monkeypatch)
    for label, alg in leibniz_oracle_algebras(corpus)[-4:]:
        assert_matches_the_whole_system(label, alg, tol, tops)


@pytest.mark.parametrize("family,k", [("M", 4), ("T", 5)])
def test_derivation_space_is_independent_of_the_seed(family, k):
    """Seeds 0-4 draw other sketching elements, so other bases, of one derivation space from the
    Leibniz solve."""
    base = matrix_unit_algebra(family, k)
    alg = rebased(base, random_unitary(np.random.default_rng(k), base.dim))
    bases = [np.array(_leibniz_space(alg, TOL, seed).der_basis).reshape(-1, alg.dim**2).T for seed in range(5)]
    assert [basis.shape for basis in bases] == [bases[0].shape] * 5
    for basis in bases[1:]:
        assert subspaces_equal(basis, bases[0], 1e-10)[0]
        assert not np.allclose(basis, bases[0])
    assert Analysis(alg, TOL, 3).derivations.dim_der == bases[0].shape[1]


def semisimple_algebras(corpus):
    """C_k and M_k for k <= 4, C[Z2], and every factor and product object of the built-in corpus
    whose trace form gives rad A = 0."""
    algebras = [matrix_unit_algebra(family, k) for family in "CM" for k in range(1, 5)] + [algebra_group_z2()]
    objects = {id(alg): alg for e in corpus
               for alg in (e.algebra_a, e.algebra_b, build_product(e.algebra_a, e.algebra_b, e.hom, TOL).algebra)}
    return algebras + [alg for alg in objects.values() if radical(alg).shape[1] == 0]


@pytest.mark.parametrize("basis", ["plain", "rebased"])
def test_semisimple_shortcut_matches_the_leibniz_solve(corpus, basis):
    """On every algebra with rad A = 0, ``derivation_space`` takes the inner map's space with no
    Leibniz solve, and it has the dims and the span of ``_leibniz_space``: Der = Inn."""
    rng = np.random.default_rng(27)
    algebras = semisimple_algebras(corpus)
    assert len(algebras) == 9 + 9
    for alg in algebras:
        if basis == "rebased":
            alg = rebased(alg, random_unitary(rng, alg.dim))
        shortcut, solved = derivation_space(alg, TOL), _leibniz_space(alg, TOL)
        assert shortcut.semisimple and not solved.semisimple, alg.name
        assert (shortcut.dim_der, shortcut.dim_inner) == (solved.dim_der, solved.dim_inner), alg.name
        assert shortcut.dim_der == solved.dim_inner, alg.name
        if solved.der_basis:
            equal, residual = subspaces_equal(flat_span(shortcut.der_basis, TOL), flat_span(solved.der_basis, TOL), 1e-10)
            assert equal, (alg.name, residual)


def test_algebras_with_a_radical_solve_the_leibniz_system():
    """T_k, N_k and Z_k have rad A != 0, so ``derivation_space`` is the Leibniz solve."""
    for alg in [matrix_unit_algebra(family, k) for family in "TN" for k in (2, 3)] + [zero_product_algebra(2)]:
        space, solved = derivation_space(alg, TOL), _leibniz_space(alg, TOL)
        assert not space.semisimple and radical(alg).shape[1], alg.name
        assert (space.dim_der, space.dim_inner) == (solved.dim_der, solved.dim_inner), alg.name


@pytest.mark.parametrize("tol, eps, shortcut", [
    (TOL, 1.0, True), (TOL, 1e-2, True), (TOL, 1e-4, True), (TOL, 5e-5, True), (TOL, 4e-5, False),
    (TOL, 1e-5, False), (TOL, 1e-7, False), (TOL, 1e-10, False),
    (1e-5, 1e-2, True), (1e-5, 3e-3, False), (1e-5, 1e-4, False), (1e-5, 1e-5, False),
])
def test_c2_eps_takes_the_shortcut_only_where_its_trace_form_has_full_rank_at_tol(tol, eps, shortcut):
    """C2_eps: its trace form's smallest singular value is eps^2, so the shortcut holds from
    eps = sqrt(2 tol) up, where the Leibniz solve finds Der = Inn = 0 too; below it the Leibniz
    system is solved, and it finds the outer derivation e2 -> e2* once eps is within about 10 tol."""
    alg = c2_eps(eps)
    space, solved = derivation_space(alg, tol), _leibniz_space(alg, tol)
    assert space.semisimple == shortcut
    assert (space.dim_der, space.dim_inner) == (solved.dim_der, solved.dim_inner)


def test_near_radical_factors_keep_the_weak_amenability_equivalence_at_a_loose_tol():
    """At tol 1e-5, C2_eps(1e-5) has codim(A^2) = 1 and the outer derivation e2 -> e2*, so it is not
    weakly amenable and takes the Leibniz solve; its product with itself by the zero hom keeps
    the 06 equivalence, as it does at tol 1e-9, where the factor is weakly amenable."""
    alg = c2_eps(1e-5)
    for tol, weak in ((1e-5, False), (TOL, True)):
        space, solved = derivation_space(alg, tol), _leibniz_space(alg, tol)
        assert not space.semisimple
        assert (space.dim_der, space.dim_inner) == (solved.dim_der, solved.dim_inner) == (int(not weak), 0)
        report = verify_theorems(alg, alg, hom_zero(alg, alg), RunConfig(tol=tol))
        equivalence = next(v for v in report.verdicts if v.claim == "06-weak-amenability/equivalence")
        assert equivalence.status == "pass", (tol, equivalence.detail)


def test_every_ad_is_a_derivation(corpus, rng):
    for entry in corpus:
        alg = entry.algebra_a
        f = random_element(rng, alg.dim)
        assert leibniz_residual(alg, inner_derivation(alg, f)) <= 10 * TOL


def test_weak_amenability_decisions(alg_c, alg_m2, alg_null1):
    assert is_weakly_amenable(alg_c, TOL)
    assert is_weakly_amenable(alg_m2, TOL)
    assert not is_weakly_amenable(alg_null1, TOL)


def shear_oracle_triples(corpus):
    """The triples on which the product's transported derivation space is checked
    against its own Leibniz solve: the built-in entries; C_k x C_k with the identity
    hom for k = 2, 3, 4 and 8; seven triples with A^2 != A, the last with a nonzero
    hom; and N3 x_T null1 with T(z) = E12, whose multiplication has cross terms."""
    triples = [(e.entry_id, e.algebra_a, e.algebra_b, e.hom) for e in corpus]
    for k in (2, 3, 4, 8):
        ck = matrix_unit_algebra("C", k)
        triples.append((f"C{k}-C{k}-id", ck, ck, hom_identity(ck)))
    null1, n3 = algebra_null1(), matrix_unit_algebra("N", 3)
    for a, b in ((null1, null1), (zero_product_algebra(2), zero_product_algebra(3)), (n3, zero_product_algebra(2)),
                 (algebra_row2(), zero_product_algebra(2)), (n3, matrix_unit_algebra("N", 4)), (algebra_ut2(), n3)):
        triples.append((f"{a.name}-{b.name}-zero", a, b, hom_zero(b, a)))
    triples.append(("N3-null1-E13", *cross_term_triple()))
    triples.append(("N3-null1-E12", *cross_term_triple("E01")))
    return triples


def flat_span(maps, tol):
    """Orthonormal basis of the span of n x n maps, flattened row-major."""
    n = maps[0].shape[0] if maps else 0
    return column_space(np.array(maps, dtype=complex).reshape(len(maps), n * n).T, tol)


@pytest.mark.parametrize("basis", ["plain", "rebased"])
def test_transported_derivations_match_the_product_solve(corpus, basis):
    """The product's derivation space, carried from its factors' through the shear,
    has the dims and the span of the product's own Leibniz solve, on every oracle triple."""
    rng = np.random.default_rng(11)
    with_cross = 0
    for name, a, b, hom in shear_oracle_triples(corpus):
        if basis == "rebased":
            a, b, hom = rebased_triple(a, b, hom, rng)
        product = build_product(a, b, hom, TOL)
        an_a, an_b, an_p = product_analyses(product, TOL)
        carried, solved = an_p.derivations, _leibniz_space(product.algebra, TOL)
        assert carried.parts is not None, name
        assert (carried.dim_der, carried.dim_inner) == (solved.dim_der, solved.dim_inner), name
        codims = an_a.square_annihilator.shape[1] * an_b.square_annihilator.shape[1]
        assert carried.dim_der == an_a.derivations.dim_der + an_b.derivations.dim_der + 2 * codims, name
        assert carried.dim_inner == an_a.derivations.dim_inner + an_b.derivations.dim_inner, name
        for got, want in ((carried.der_basis, solved.der_basis), (carried.inner_basis, solved.inner_basis)):
            if want:
                assert subspaces_equal(flat_span(got, TOL), flat_span(want, TOL), 1e-8)[0], name
        with_cross += bool(carried.parts["cross"])
    assert with_cross == 6


def test_weakly_amenable_algebras_equal_their_square(corpus):
    """Weak amenability implies A^2 = A: a functional f that vanishes on A^2 gives
    the derivation D(x) = f(x) f, which is not inner, since D(x)(x) = f(x)^2."""
    algebras = [alg for e in corpus for alg in (e.algebra_a, e.algebra_b)]
    algebras += [matrix_unit_algebra(family, k) for family in "CTM" for k in (1, 2, 3)]
    algebras += [matrix_unit_algebra("N", k) for k in (2, 3, 4)] + [zero_product_algebra(k) for k in (1, 2, 3)]
    seen = Counter()
    for alg in algebras:
        an = Analysis(alg, TOL)
        annihilator = an.square_annihilator
        if an.weakly_amenable:
            assert annihilator.shape[1] == 0, alg.name
        for f in annihilator.T:
            assert leibniz_residual(alg, np.outer(f, f)) <= 10 * TOL, alg.name
        seen[an.weakly_amenable, annihilator.shape[1] > 0] += 1
    assert seen[True, False] and seen[False, True]


def test_lift_zero_derivation(alg_c2):
    product = build_product(alg_c2, alg_c2, hom_zero(alg_c2, alg_c2), TOL)
    lifted = lift_derivation(np.zeros((2, 2)), "p1", product, TOL)
    assert max_abs(lifted) == 0.0


def test_lift_inner_derivation_zero_hom(alg_row2, alg_c):
    """With a zero hom, lifting ad_f gives ad of the embedded functional."""
    product = build_product(alg_row2, alg_c, hom_zero(alg_c, alg_row2), TOL)
    f = np.array([2.0, -1.5], dtype=complex)
    lifted = lift_derivation(inner_derivation(alg_row2, f), "p1", product, TOL)
    embedded = inner_derivation(product.algebra, np.r_[f, 0.0])
    np.testing.assert_allclose(lifted, embedded, atol=10 * TOL)


def test_lift_preserves_leibniz(corpus):
    for entry in corpus:
        product = build_product(entry.algebra_a, entry.algebra_b, entry.hom, TOL)
        for which, alg in (("p1", entry.algebra_a), ("p2", entry.algebra_b)):
            for d in derivation_space(alg, TOL).der_basis:
                lifted = lift_derivation(d, which, product, TOL)
                assert leibniz_residual(product.algebra, lifted) <= 10 * TOL


def test_lift_derivation_is_the_one_map_case_of_the_broadcast_lift(corpus):
    """Group 06 lifts a whole derivation basis with one broadcast p^T d p; ``lift_derivation``
    gives the same map for each derivation alone, on both factors of every corpus triple."""
    for entry in corpus:
        product = build_product(entry.algebra_a, entry.algebra_b, entry.hom, TOL)
        for which, alg in (("p1", entry.algebra_a), ("p2", entry.algebra_b)):
            basis = derivation_space(alg, TOL).der_basis
            lifted = _lifted(basis, which, product)
            assert lifted.shape == (len(basis),) + (product.algebra.dim,) * 2, entry.entry_id
            for d, got in zip(basis, lifted):
                np.testing.assert_array_equal(got, lift_derivation(d, which, product, TOL))


def test_lift_rejects_non_derivation(alg_c2):
    product = build_product(alg_c2, alg_c2, hom_zero(alg_c2, alg_c2), TOL)
    with pytest.raises(NotADerivation):
        lift_derivation(np.array([[1.0, 0.0], [0.0, 0.0]]), "p1", product, TOL)


def test_tli_c2_first_projection(alg_c2):
    sol = solve_tli(alg_c2, np.array([1.0, 0.0], dtype=complex), "left", TOL)
    assert sol.dim == 1
    assert sol.exists_nonvanishing
    got = sol.basis[:, 0] / sol.basis[0, 0]
    np.testing.assert_allclose(got, [1.0, 0.0], atol=10 * TOL)


def test_tli_row2_trivial(alg_row2):
    sol = solve_tli(alg_row2, np.array([1.0, 0.0], dtype=complex), "left", TOL)
    assert sol.dim == 0
    assert not sol.exists_nonvanishing


def test_tli_zero_solution_always_exists(alg_m2):
    # the zero functional is allowed; its solution space pairs to nothing
    sol = solve_tli(alg_m2, np.zeros(4), "left", TOL)
    assert not sol.exists_nonvanishing


def test_tli_characterization_pure_character_identity_hom(alg_c):
    """For A = B = C, T = id: solutions over (0, psi) are multiples of (-1, 1)."""
    product = build_product(alg_c, alg_c, hom_identity(alg_c), TOL)
    prod_sol = solve_tli(product.algebra, np.array([0.0, 1.0], dtype=complex), "left", TOL)
    assert prod_sol.dim == 1
    v = prod_sol.basis[:, 0]
    np.testing.assert_allclose(v / v[1], [-1.0, 1.0], atol=10 * TOL)

    report = tli_product_characterization(product, np.array([1.0 + 0j]), "pure", TOL, "left")
    assert report.all_pass


def test_tli_characterization_zero_hom(alg_c2, alg_c):
    product = build_product(alg_c2, alg_c, hom_zero(alg_c, alg_c2), TOL)
    # pure character: with T = 0 the solutions are (0, Psi)
    report = tli_product_characterization(product, np.array([1.0 + 0j]), "pure", TOL, "left")
    assert report.all_pass
    prod_sol = solve_tli(product.algebra, np.array([0.0, 0.0, 1.0], dtype=complex), "left", TOL)
    for k in range(prod_sol.dim):
        assert max_abs(prod_sol.basis[:2, k]) <= 10 * TOL
    # lifted character phi1: solutions are the embedded C2 ones
    report = tli_product_characterization(product, np.array([1.0, 0.0], dtype=complex), "lifted", TOL, "left")
    assert report.all_pass


def test_tli_characterization_corpus_wide(corpus):
    for entry in corpus:
        product = build_product(entry.algebra_a, entry.algebra_b, entry.hom, TOL)
        for side in ("left", "right"):
            for ch in enumerate_characters(entry.algebra_a, TOL, 0).characters:
                assert tli_product_characterization(product, ch.functional, "lifted", TOL, side).all_pass
            for ch in enumerate_characters(entry.algebra_b, TOL, 0).characters:
                assert tli_product_characterization(product, ch.functional, "pure", TOL, side).all_pass


def test_character_amenability_m2(alg_m2):
    result = is_character_amenable(alg_m2, "left", TOL)
    assert result.verdict is True  # unital, empty character space


def test_character_amenability_row2_left_false(alg_row2):
    result = is_character_amenable(alg_row2, "left", TOL)
    assert result.verdict is False
    assert result.identity_exists  # left identity exists; the invariant element fails
    assert result.failing_character is not None


def test_character_amenability_null1_false(alg_null1):
    result = is_character_amenable(alg_null1, "left", TOL)
    assert result.verdict is False
    assert not result.identity_exists


def test_inner_mean_unital(alg_m2, alg_c2):
    # the identity is always a feasible mean for a character of a unital algebra
    phi = np.array([1.0, 0.0], dtype=complex)
    m = solve_inner_mean(alg_c2, phi, TOL)
    assert m is not None
    assert np.dot(m, phi) == pytest.approx(1.0)
    assert commutation_residual(alg_c2, m) <= 10 * TOL
    # minimal-norm witness for the first projection is (1, 0)
    np.testing.assert_allclose(m, [1.0, 0.0], atol=10 * TOL)


def test_inner_mean_row2_infeasible(alg_row2):
    assert solve_inner_mean(alg_row2, np.array([1.0, 0.0], dtype=complex), TOL) is None


def test_character_inner_amenability_decisions(alg_row2, alg_null1, alg_ut2):
    assert is_character_inner_amenable(alg_row2, TOL).verdict is False
    # no characters at all: vacuously inner amenable
    assert is_character_inner_amenable(alg_null1, TOL).verdict is True
    assert is_character_inner_amenable(alg_ut2, TOL).verdict is True


def test_inner_suite_identity_hom(alg_c):
    product = build_product(alg_c, alg_c, hom_identity(alg_c), TOL)
    report = inner_amenability_suite(product, TOL)
    assert report.all_pass
    claims = {v.claim: v.status for v in report.verdicts}
    # with an epi hom nothing is skipped for the first-factor character
    assert claims["inner/first-factor-character-0/witness-embedded-second-mean"] == "pass"


def test_inner_suite_explicit_witnesses_identity_hom(alg_c):
    """m = 1, n = 1 give the witnesses (1, 0) and (-1, 1) on the product."""
    product = build_product(alg_c, alg_c, hom_identity(alg_c), TOL)
    palg = product.algebra
    lifted_char = np.array([1.0, 1.0], dtype=complex)
    pure_char = np.array([0.0, 1.0], dtype=complex)
    m_embedded = np.array([1.0, 0.0], dtype=complex)
    graph = np.array([-1.0, 1.0], dtype=complex)
    assert np.dot(m_embedded, lifted_char) == pytest.approx(1.0)
    assert commutation_residual(palg, m_embedded) <= 10 * TOL
    assert np.dot(graph, pure_char) == pytest.approx(1.0)
    assert commutation_residual(palg, graph) <= 10 * TOL


def test_inner_suite_non_epi_branches_skipped(alg_c2, alg_c):
    hom = hom_scaled_character(alg_c, alg_c2, np.array([1.0 + 0j]), np.array([1.0, 1.0]))
    product = build_product(alg_c2, alg_c, hom, TOL)
    report = inner_amenability_suite(product, TOL)
    assert report.all_pass
    skipped = [v for v in report.verdicts if v.status == "skip"]
    assert any("not applicable: hom is not onto" in v.detail for v in skipped)


def test_inner_suite_row2_negative(alg_row2, alg_c):
    product = build_product(alg_row2, alg_c, hom_zero(alg_c, alg_row2), TOL)
    report = inner_amenability_suite(product, TOL)
    assert report.all_pass
    claims = {v.claim: v for v in report.verdicts}
    eq = claims["inner/first-factor-character-0/equivalence"]
    assert eq.status == "pass"  # both sides are False together
    final = claims["inner/character-inner-amenability-equivalence"]
    assert final.status == "pass"
    assert is_character_inner_amenable(product.algebra, TOL).verdict is False


def test_inner_suite_row2_squared_skips_every_witness(alg_row2):
    """On row2 x_id row2 neither algebra has an inner mean, so each witness claim kind is skipped
    with its own detail, including the branches that no corpus triple reaches."""
    product = build_product(alg_row2, alg_row2, hom_identity(alg_row2), TOL)
    report = inner_amenability_suite(product, TOL)
    first, second = "inner/first-factor-character-0/", "inner/second-factor-character-0/"
    assert {v.claim: v.detail for v in report.verdicts if v.status == "skip"} == {
        first + "witness-embedded-factor-mean": "factor has no mean to embed",
        first + "witness-combined-blocks": "product has no mean to split",
        first + "witness-normalized-second-block": "product has no mean to split",
        first + "witness-embedded-second-mean": "second factor has no mean for the pulled-back character",
        second + "witness-graph-embedding": "second factor has no mean to embed",
        second + "witness-second-block": "product has no mean to split",
    }
    assert report.counts() == {"pass": 3, "fail": 0, "unknown": 0, "skip": 6}


def test_inner_suite_corpus_wide(corpus):
    for entry in corpus:
        product = build_product(entry.algebra_a, entry.algebra_b, entry.hom, TOL)
        report = inner_amenability_suite(product, TOL)
        assert report.all_pass, entry.entry_id


def test_run_solves_each_fact_once_per_algebra(monkeypatch, capsys, corpus):
    """Counted guard: a run asks each algebra for each fact once, through one Analysis per algebra.

    The inner suite takes one centre per distinct algebra object on every
    corpus entry; one ``verify_theorems`` on rebased C5 x C5 and one built-in
    ``corpus run`` take one enumeration and centre per distinct algebra
    object of each triple (a factor that is both A and B is one object, with
    one analysis), and ``corpus run`` builds each product once.  Derivation
    spaces are solved for the distinct factor objects only: every product
    passes its shear claim, so its space is carried from its factors'.  A
    ladder-shaped rung (C5 x C5, one object, identity hom) solves the
    invariant-element systems in 2 ``solve_tli`` calls, each of both sides:
    one for the factor, and one for the product's own characters, whose
    solutions the lifted and the pure family read through the
    decomposition's matching.
    """
    import sys

    import tpw.amenability
    import tpw.characters
    import tpw.core
    import tpw.product
    from tpw.cli import main
    from tpw.product import AlgebraHom

    from conftest import random_unitary, rebased

    solvers = {
        "enumerate_characters": tpw.characters.enumerate_characters,
        "center": tpw.core.center,
        "derivation_space": tpw.amenability.derivation_space,
        "solve_tli": tpw.amenability.solve_tli,
        "build_product": tpw.product.build_product,
    }
    calls, center_args = Counter(), []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "center":
                center_args.append(args[0])
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in solvers.items():
        for module_name, module in list(sys.modules.items()):
            if module_name == "tpw" or module_name.startswith("tpw."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted(name, fn))

    for entry in corpus:
        product = build_product(entry.algebra_a, entry.algebra_b, entry.hom, TOL)
        center_args.clear()
        inner_amenability_suite(product, TOL)
        distinct = {id(product.a), id(product.b), id(product.algebra)}
        assert len(center_args) == len(distinct), entry.entry_id
        assert {id(alg) for alg in center_args} == distinct, entry.entry_id

    c5 = rebased(matrix_unit_algebra("C", 5), random_unitary(np.random.default_rng(3), 5), "C5")
    calls.clear()
    verify_theorems(c5, c5, AlgebraHom(source=c5, target=c5, matrix=np.eye(5)), RunConfig())
    assert (calls["enumerate_characters"], calls["center"], calls["derivation_space"]) == (2, 2, 1)
    assert calls["solve_tli"] == 2

    monkeypatch.delenv("TPW_CORPUS_DIR", raising=False)
    calls.clear()
    assert main(["corpus", "run", "--format", "json"]) == 0
    capsys.readouterr()
    assert calls["build_product"] == len(corpus) == 8
    # c-c-id, c-c-zero and c2-c2-swap take one object as both factors
    assert (calls["enumerate_characters"], calls["center"]) == (21, 21)
    assert calls["derivation_space"] == sum(len({id(e.algebra_a), id(e.algebra_b)}) for e in corpus) == 13


def spy_solve_tli(monkeypatch) -> list:
    """The list that each later ``solve_tli`` call made from ``tpw`` appends (algebra, stack, side) to."""
    import sys

    calls, real = [], solve_tli

    def spy(alg, phi, side, tol):
        calls.append((alg, np.reshape(phi, (-1, alg.dim)), side))
        return real(alg, phi, side, tol)

    for name, module in list(sys.modules.items()):
        if name == "tpw" or name.startswith("tpw."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, spy)
    return calls


def ladder_triples(ks):
    """(label, A, A, identity) on rebased C_k, the shape of the benchmark's ladder rungs."""
    rng = np.random.default_rng(5)
    for k in ks:
        c = rebased(matrix_unit_algebra("C", k), random_unitary(rng, k), f"C{k}")
        yield f"C{k}", c, c, hom_identity(c)


def test_product_solves_one_system_per_character_and_its_families_share_them(monkeypatch, corpus):
    """The product's invariant-element stack has one row per enumerated product character, both
    sides solved in one call, every family member matches a character there, and its solution is
    that character's own solution object."""
    calls = spy_solve_tli(monkeypatch)
    for label, a, b, hom in [*stacking_triples(corpus), *ladder_triples(range(2, 6))]:
        product = build_product(a, b, hom, TOL)
        analyses = product_analyses(product, TOL)
        calls.clear()
        verify_product(product, analyses, RunConfig())
        an_a, an_b, an_p = analyses
        own = [(len(phis), side) for alg, phis, side in calls if alg is product.algebra]
        assert own == [(len(an_p.characters), ("left", "right"))], label
        match = an_p.decomposition.match
        assert len(match) == len(an_a.characters) + len(an_b.characters) and np.all(match >= 0), label
        for side in ("left", "right"):
            lifted, pure = an_p.family_tli[side]
            assert len(lifted) == len(an_a.characters), label
            assert all(sol is an_p.tli[side][i] for sol, i in zip(lifted + pure, match)), (label, side)


def test_every_solve_tli_stack_has_at_most_dim_rows(monkeypatch, capsys, corpus):
    """Counted guard: no ``solve_tli`` call from ``tpw`` stacks more systems than the algebra's
    dimension, on the built-in ``corpus run``, every ``stacking_triples`` triple and the ladder
    shapes C2 x C2 to C8 x C8, so one ``nullspaces`` call per stack holds at most n systems."""
    from tpw.cli import main

    calls = spy_solve_tli(monkeypatch)
    monkeypatch.delenv("TPW_CORPUS_DIR", raising=False)
    assert main(["corpus", "run", "--format", "json"]) == 0
    capsys.readouterr()
    for _, a, b, hom in [*stacking_triples(corpus), *ladder_triples(range(2, 9))]:
        verify_theorems(a, b, hom, RunConfig())
    over = [(alg.name, len(phis)) for alg, phis, _ in calls if len(phis) > alg.dim]
    assert calls and not over, over


def reference_characterization(product, chi, kind, side):
    """Group 07's claims for one character: its own solves, orthonormalization and subspace
    comparison.  Returns {claim suffix: (status, residual, witness)}."""
    factor = product.a if kind == "lifted" else product.b
    tag = "embedded-first-factor" if kind == "lifted" else "second-factor-graph"
    factor_sol = solve_tli(factor, chi, side, TOL)
    lift = product.lift_first(chi) if kind == "lifted" else product.lift_second(chi)
    prod_sol = solve_tli(product.algebra, lift, side, TOL)
    claimed = product.embed_a(factor_sol.basis) if kind == "lifted" else product.graph(factor_sol.basis)
    claimed = column_space(claimed, TOL) if claimed.size else claimed
    nv_p, nv_f = prod_sol.exists_nonvanishing, factor_sol.exists_nonvanishing
    out = {f"tli/{side}/{tag}/nonvanishing-agreement":
           ("pass" if nv_p == nv_f else "fail", None, None if nv_p == nv_f else {"product": nv_p, "factor": nv_f})}
    equality = f"tli/{side}/{tag}/solution-space-equality"
    if nv_p or nv_f:
        equal, residual = subspaces_equal(prod_sol.basis, claimed, 100 * TOL)
        witness = None if equal else {"product_dim": prod_sol.dim, "claimed_dim": int(claimed.shape[1])}
        out[equality] = ("pass" if equal else "fail", residual if prod_sol.dim == claimed.shape[1] else None, witness)
    else:
        out[equality] = ("skip", None, None)
    return out


def test_group_07_matches_per_character_loop(corpus):
    """Group 07 of a run, solved from the product's one stack per side and checked as one
    stack per family, gives each character's verdicts, witnesses and residuals (to 1e-12)
    as solving and checking that character alone does."""
    for label, a, b, hom in stacking_triples(corpus):
        product = build_product(a, b, hom, TOL)
        report = verify_theorems(a, b, hom, RunConfig())
        got = {v.claim: v for v in report.verdicts if v.claim.startswith("07-invariant-elements/")
               and not v.claim.endswith("character-coverage")}
        want = {}
        for alg, kind, prefix in ((a, "lifted", "first-factor"), (b, "pure", "second-factor")):
            for idx, ch in enumerate(enumerate_characters(alg, TOL).characters):
                for side in ("left", "right"):
                    for claim, verdict in reference_characterization(product, ch.functional, kind, side).items():
                        want[f"07-invariant-elements/{prefix}-{idx}/{claim}"] = verdict
        assert got.keys() == want.keys(), label
        for claim, (status, residual, witness) in want.items():
            v = got[claim]
            assert (v.status, v.witness) == (status, witness), (label, claim)
            assert (v.residual is None) == (residual is None), (label, claim)
            assert residual is None or residual == v.residual or abs(residual - v.residual) <= 1e-12, (label, claim)


def test_stacked_tli_and_group_07_match_the_per_side_and_per_kind_calls(corpus):
    """Each analysis's two-sided solve gives, per side, what ``solve_tli`` on that side alone
    gives, and group 07's one pass over both kinds and both sides gives the statuses, witnesses
    and residuals (to 1e-12) of one ``tli_product_characterization`` per kind and side, which
    solves its own systems: on every ``stacking_triples`` triple, plain and rebased, and on the
    ladder shapes C4 x C4 and C5 x C5, whose products fall on either side of ``TLI_STACK_ENTRIES``."""
    for label, a, b, hom in [*stacking_triples(corpus), *ladder_triples((4, 5))]:
        product = build_product(a, b, hom, TOL)
        analyses = product_analyses(product, TOL)
        for an in analyses:
            for side in ("left", "right"):
                alone = solve_tli(an.algebra, an.characters.functionals, side, TOL)
                assert [(sol.dim, sol.exists_nonvanishing) for sol in an.tli[side]] == [
                    (sol.dim, sol.exists_nonvanishing) for sol in alone], (label, side)
                assert all(np.array_equal(got.basis, want.basis) for got, want in zip(an.tli[side], alone)), label
        got = {v.claim: v for v in verify_product(product, analyses, RunConfig()).verdicts
               if v.claim.startswith("07-invariant-elements/") and not v.claim.endswith("character-coverage")}
        want = {}
        for an, kind in zip(analyses, ("lifted", "pure")):
            for side in ("left", "right"):
                one = tli_product_characterization(product, an.characters.functionals, kind, TOL, side,
                                                   prefix="07-invariant-elements/{family}-{index}/")
                want.update((v.claim, v) for v in one.verdicts)
        assert got.keys() == want.keys(), label
        for claim, v in want.items():
            assert (got[claim].status, got[claim].witness) == (v.status, v.witness), (label, claim)
            assert (got[claim].residual is None) == (v.residual is None), (label, claim)
            assert v.residual is None or abs(got[claim].residual - v.residual) <= 1e-12, (label, claim)


def test_two_sided_tli_is_one_stack_up_to_the_entry_limit_and_one_per_side_past_it(monkeypatch):
    """Counted guard: an algebra's left and right invariant-element systems are one ``nullspaces``
    stack while they hold at most ``TLI_STACK_ENTRIES`` entries (2 k n^3), and one stack per side
    past it: the ladder products of dim 8 (8192 entries) and dim 10 (20000)."""
    import tpw.amenability

    stacks, real = [], tpw.amenability.nullspaces

    def spy(stack, tol, scales):
        stacks.append(np.shape(stack))
        return real(stack, tol, scales)

    monkeypatch.setattr(tpw.amenability, "nullspaces", spy)
    for (_, a, b, hom), want in zip(ladder_triples((4, 5)), ([(16, 64, 8)], [(10, 100, 10)] * 2)):
        analysis = product_analyses(build_product(a, b, hom, TOL), TOL)[2]
        stacks.clear()
        assert len(analysis.tli["left"]) == len(analysis.tli["right"]) == analysis.algebra.dim
        assert stacks == want
    assert 2 * 8 * 8**3 <= TLI_STACK_ENTRIES < 2 * 10 * 10**3


def reference_inner_mean(alg, phi):
    """The minimal-norm central mean of one functional, or None."""
    z = center(alg, TOL)
    pair_row = phi @ z
    if z.shape[1] == 0 or max_abs(pair_row) <= TOL * max(1.0, max_abs(phi)):
        return None
    return z @ (pair_row.conj() / np.real(pair_row @ pair_row.conj()))


def test_inner_means_match_per_character_loop(corpus):
    """One contraction with the centre gives each functional's mean, and one product with the
    commutator system each mean's commutation residual, as one functional at a time does:
    for every character of each stacking algebra, the zero functional, random ones, and a
    large one that pairs to 1e-5 with the centre, infeasible at a bound relative to its size."""
    rng = np.random.default_rng(8)
    for _, a, b, hom in stacking_triples(corpus):
        for alg in (a, b, build_product(a, b, hom, TOL).algebra):
            an = Analysis(alg, TOL)
            z, phis = an.center, [random_element(rng, alg.dim) for _ in range(2)]
            if z.shape[1]:
                phis.append(1e6 * nullspace(z.T, TOL) @ random_element(rng, alg.dim - z.shape[1]) + 1e-5 * z[:, 0].conj())
            phis = np.vstack([an.characters.functionals, np.zeros(alg.dim), *phis])
            means = an.inner_mean(phis)
            assert len(means) == len(phis)
            found = []
            for phi, mean in zip(phis, means):
                want = reference_inner_mean(alg, phi)
                assert (mean is None) == (want is None), alg.name
                assert want is None or max_abs(mean - want) <= 1e-12, alg.name
                if mean is not None:
                    found.append(mean)
                    assert an.inner_mean(phi) is not None
            if found:
                residuals = commutation_residual(alg, np.array(found))
                for mean, residual in zip(found, residuals):
                    assert abs(residual - commutation_residual(alg, mean)) <= 1e-12, alg.name
