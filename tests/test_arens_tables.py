"""The Arens tables against a per-basis reference chain, and counted guards.

Every Arens consumer is a slice or contraction of ``arens_tables``.  The
reference below evaluates the pairing chain one basis vector at a time from
the multiplication operators, the way the chain is written down, and every
consumer is compared against it.
"""

import sys
from collections import Counter

import numpy as np
import pytest

import tpw.arens
from tpw.amenability import TliSolution, _tli_system, product_analyses, solve_tli
from tpw.arens import (
    ArensTables,
    _center_system,
    arens_first,
    arens_second,
    arens_tables,
    hom_adjoints,
    product_dual_actions,
    theta_homomorphism_residual,
    topological_center,
)
from tpw.characters import enumerate_characters
from tpw.core import FiniteAlgebra
from tpw.errors import ShapeError
from tpw.linalg import max_abs, nullspace, subspaces_equal
from tpw.product import AlgebraHom, build_product
from tpw.corpus import builtin_corpus
from tpw.suite import RunConfig, verify_product, verify_theorems

from conftest import (TOL, dual_actions, matrix_unit_algebra, random_element, random_unitary, rebased,
                      rebased_triple, right_mult_operator, split)


class ReferenceChain:
    """<P [] Q, f> = <P, Q . f> and <P <> Q, f> = <Q, f . P>, one basis vector at a time."""

    def __init__(self, alg):
        basis = np.eye(alg.dim, dtype=complex)
        self.left = [alg.left_mult_operator(e) for e in basis]
        self.right = [right_mult_operator(alg, e) for e in basis]

    def first(self, phi, psi):
        # row i of f -> Psi . f is the functional f -> <Psi, f . e_i> = <Psi, L_i^T f>
        return phi @ np.array([l_i @ psi for l_i in self.left])

    def second(self, phi, psi):
        # row i of f -> f . Phi is the functional f -> <Phi, e_i . f> = <Phi, R_i^T f>
        return psi @ np.array([r_i @ phi for r_i in self.right])


def stacked(n, column):
    """Block j, column i of the stacked system is column(i, j)."""
    return np.vstack([np.column_stack([column(i, j) for i in range(n)]) for j in range(n)])


def family_homs():
    """Rebased C_k, T_k and M_k (k <= 4), each with the identity hom between two rebasings."""
    rng = np.random.default_rng(5)
    for family in "CTM":
        for k in range(1, 5):
            alg = matrix_unit_algebra(family, k)
            u1, u2 = random_unitary(rng, alg.dim), random_unitary(rng, alg.dim)
            source, target = rebased(alg, u1, f"{alg.name}s"), rebased(alg, u2, f"{alg.name}t")
            yield target, source, AlgebraHom(source=source, target=target, matrix=u2.conj().T @ u1)


def triples(corpus):
    yield from ((e.algebra_a, e.algebra_b, e.hom) for e in corpus)
    yield from family_homs()
    # non-square, nonzero homs in separate random bases for A and B: a transposed
    # index in a hom contraction shows here, where an identity hom or A = B hides it
    rng = np.random.default_rng(7)
    for e in corpus:
        if e.entry_id in ("c2-c-lau", "ut2-c2-diag"):
            yield rebased_triple(e.algebra_a, e.algebra_b, e.hom, rng)


def bound(*algs):
    return 1e-12 * max(1.0, *(max_abs(alg.structure) for alg in algs))


def test_tables_are_the_chain_on_basis_pairs(corpus):
    for a, b, hom in triples(corpus):
        for alg in (a, b, build_product(a, b, hom, TOL).algebra):
            ref, tables = ReferenceChain(alg), arens_tables(alg)
            e = np.eye(alg.dim, dtype=complex)
            for p in range(alg.dim):
                for q in range(alg.dim):
                    assert max_abs(tables.first[p, q] - ref.first(e[p], e[q])) <= bound(alg)
                    assert max_abs(tables.second[p, q] - ref.second(e[p], e[q])) <= bound(alg)


def test_tables_equal_the_structure_tensor(corpus):
    """On basis pairs the chain pairs with identity matrices only, so both tables
    are the structure tensor exactly, and every consumer of the tables sees the
    multiplication's own values."""
    for a, b, _ in triples(corpus):
        for alg in (a, b):
            tables = arens_tables(alg)
            assert np.array_equal(tables.first, alg.structure), alg.name
            assert np.array_equal(tables.second, alg.structure), alg.name


def test_batched_chain_matches_per_pair_reference(corpus):
    """A stack of pairs through the chain equals the chain run one pair at a time."""
    rng = np.random.default_rng(2)
    for a, b, hom in triples(corpus):
        for alg in (a, b, build_product(a, b, hom, TOL).algebra):
            ref, n = ReferenceChain(alg), alg.dim
            x = rng.standard_normal((3, 4, n)) + 1j * rng.standard_normal((3, 4, n))
            y = rng.standard_normal((3, 4, n)) + 1j * rng.standard_normal((3, 4, n))
            first, second = arens_first(alg, x, y), arens_second(alg, x, y)
            assert first.shape == second.shape == (3, 4, n)
            for p in np.ndindex(3, 4):
                assert max_abs(first[p] - ref.first(x[p], y[p])) <= bound(alg), alg.name
                assert max_abs(second[p] - ref.second(x[p], y[p])) <= bound(alg), alg.name


@pytest.mark.parametrize("chain", [arens_first, arens_second])
def test_chain_rejects_wrong_length_stack(alg_ut2, chain):
    good = np.ones((5, alg_ut2.dim))
    for bad in (np.ones((5, alg_ut2.dim + 1)), np.ones(alg_ut2.dim - 1), np.ones((alg_ut2.dim, 5))):
        with pytest.raises(ShapeError):
            chain(alg_ut2, bad, good)
        with pytest.raises(ShapeError):
            chain(alg_ut2, good, bad)


def test_tli_and_center_systems_match_reference(corpus):
    rng = np.random.default_rng(1)
    for a, b, hom in triples(corpus):
        for alg in (a, b, build_product(a, b, hom, TOL).algebra):
            ref, n, e = ReferenceChain(alg), alg.dim, np.eye(alg.dim, dtype=complex)
            phis = [ch.functional for ch in enumerate_characters(alg, TOL).characters]
            phis += [np.zeros(n, dtype=complex), random_element(rng, n)]
            for phi in phis:
                left = stacked(n, lambda i, j: ref.first(e[i], e[j]) - phi[j] * e[i])
                right = stacked(n, lambda i, j: ref.first(e[j], e[i]) - phi[j] * e[i])
                scale = max(1.0, max_abs(phi))
                left_system, right_system = _tli_system(alg, phi, ("left", "right"))
                assert max_abs(left_system - left) <= bound(alg) * scale
                assert max_abs(right_system - right) <= bound(alg) * scale
            left = stacked(n, lambda i, j: ref.first(e[i], e[j]) - ref.second(e[i], e[j]))
            right = stacked(n, lambda i, j: ref.first(e[j], e[i]) - ref.second(e[j], e[i]))
            assert max_abs(_center_system(alg, "left") - left) <= bound(alg)
            assert max_abs(_center_system(alg, "right") - right) <= bound(alg)


def test_hom_adjoint_residuals_match_reference(corpus):
    for a, b, hom in triples(corpus):
        ref_a, ref_b, m = ReferenceChain(a), ReferenceChain(b), hom.matrix
        e = np.eye(b.dim, dtype=complex)
        res = {"first": 0.0, "second": 0.0}
        for i in range(b.dim):
            for j in range(b.dim):
                for which in res:
                    lhs = m @ getattr(ref_b, which)(e[i], e[j])
                    rhs = getattr(ref_a, which)(m @ e[i], m @ e[j])
                    res[which] = max(res[which], max_abs(lhs - rhs))
        adj = hom_adjoints(hom, TOL)
        assert abs(adj.mult_residual_first - res["first"]) <= bound(a, b)
        assert abs(adj.mult_residual_second - res["second"]) <= bound(a, b)


def test_theta_residual_matches_reference(corpus):
    for a, b, hom in triples(corpus):
        product = build_product(a, b, hom, TOL)
        refs = {alg.name: ReferenceChain(alg) for alg in (a, b, product.algebra)}
        m, na, e = hom.matrix, product.dim_a, np.eye(product.algebra.dim, dtype=complex)
        for which in ("first", "second"):
            op_a, op_b = getattr(refs[a.name], which), getattr(refs[b.name], which)
            op_p = getattr(refs[product.algebra.name], which)
            worst = 0.0
            for p in range(product.algebra.dim):
                for q in range(product.algebra.dim):
                    (phi1, psi1), (phi2, psi2) = split(product, e[p]), split(product, e[q])
                    a_part = op_a(phi1, phi2) + op_a(phi1, m @ psi2) + op_a(m @ psi1, phi2)
                    block = np.concatenate([a_part, op_b(psi1, psi2)])
                    worst = max(worst, max_abs(block - op_p(e[p], e[q])))
            residual = theta_homomorphism_residual(product, which)
            assert abs(residual - worst) <= bound(product.algebra), (a.name, which)


def reference_product_dual_actions(product, fg, ab):
    """Direct and block dual actions of one basis pair, from the multiplication operators."""
    m = product.hom.matrix
    (f, g), (a, b) = split(product, fg), split(product, ab)
    fa, af = dual_actions(product.a, f, a)
    ftb, tbf = dual_actions(product.a, f, m @ b)
    gb, bg = dual_actions(product.b, g, b)
    right_direct, left_direct = dual_actions(product.algebra, fg, ab)
    return {
        "right_direct": right_direct,
        "right_block": np.concatenate([fa + ftb, m.T @ fa + gb]),
        "left_direct": left_direct,
        "left_block": np.concatenate([af + tbf, m.T @ af + bg]),
    }


def test_dual_action_tables_match_per_pair_loop(corpus):
    for a, b, hom in triples(corpus):
        product = build_product(a, b, hom, TOL)
        e = np.eye(product.algebra.dim, dtype=complex)
        worst = got = 0.0
        for i in range(product.algebra.dim):
            for j in range(product.algebra.dim):
                acts = product_dual_actions(product, *split(product, e[i]), *split(product, e[j]))
                ref = reference_product_dual_actions(product, e[i], e[j])
                for key, value in ref.items():
                    assert max_abs(getattr(acts, key) - value) <= bound(a, b, product.algebra), key
                worst = max(worst, max_abs(ref["right_direct"] - ref["right_block"]),
                            max_abs(ref["left_direct"] - ref["left_block"]))
                got = max(got, acts.agreement_residual)
        assert abs(got - worst) <= 1e-12 * max(1.0, max_abs(product.algebra.structure))


def _rebind(monkeypatch, original, wrapper):
    """Replace a function under every name a tpw module holds it by."""
    for name, module in list(sys.modules.items()):
        if name == "tpw" or name.startswith("tpw."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)


def test_suite_run_counts_chain_and_operator_calls(monkeypatch):
    """One suite run on C5 x C5 evaluates the chain only where it builds the Arens tables, once per
    algebra (C5 and the product), and builds no multiplication operator."""
    c5 = rebased(matrix_unit_algebra("C", 5), random_unitary(np.random.default_rng(3), 5), "C5")
    hom = AlgebraHom(source=c5, target=c5, matrix=np.eye(5))
    calls, scopes = Counter(), []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def scoped(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            scopes.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                scopes.pop()
        return wrapper

    for fn in (arens_first, arens_second):
        _rebind(monkeypatch, fn, counted("chain", fn))
    monkeypatch.setattr(tpw.arens, "_chain_tables", counted("tables", tpw.arens._chain_tables))
    for name, fn in (("solve_tli", solve_tli), ("topological_center", topological_center),
                     ("hom_adjoints", hom_adjoints)):
        _rebind(monkeypatch, fn, scoped(name, fn))
    left_mult = FiniteAlgebra.left_mult_operator

    def counted_left_mult(self, a):
        calls["left_mult_in_consumers" if scopes else "left_mult_elsewhere"] += 1
        return left_mult(self, a)

    monkeypatch.setattr(FiniteAlgebra, "left_mult_operator", counted_left_mult)
    report = verify_theorems(c5, c5, hom, RunConfig())

    assert not [v.claim for v in report.verdicts if v.status in ("fail", "unknown")]
    # group 02 and every other consumer read the tables; no public chain is evaluated
    assert calls["chain"] == 0
    assert calls["tables"] == 2
    assert calls["left_mult_in_consumers"] == 0
    assert min(calls["solve_tli"], calls["hom_adjoints"]) > 0
    # group 04: the product's center, once per side
    assert calls["topological_center"] == 2
    # character enumeration contracts the structure tensor too
    assert calls["left_mult_elsewhere"] == 0
    c5.left_mult_operator(c5.basis_vector(0))
    assert calls["left_mult_elsewhere"] == 1


@pytest.mark.parametrize("which", ["first", "second"], ids=["arens_first", "arens_second"])
def test_swapped_chain_fails_arens_cross_check(monkeypatch, which):
    """Group 02 catches a chain that builds one Arens table in the wrong order, e_q # e_p at [p, q]."""
    claim = "02-bidual-identification/arens-equals-multiplication"

    def status():
        # fresh algebra objects, since the tables are kept on the algebra that built them
        entry = next(e for e in builtin_corpus() if e.entry_id == "ut2-c2-diag")
        report = verify_theorems(entry.algebra_a, entry.algebra_b, entry.hom, RunConfig())
        return next(v.status for v in report.verdicts if v.claim == claim)

    assert status() == "pass"
    chain_tables = tpw.arens._chain_tables

    def swapped(alg):
        tables = chain_tables(alg)
        return tables._replace(**{which: getattr(tables, which).transpose(1, 0, 2)})

    monkeypatch.setattr(tpw.arens, "_chain_tables", swapped)
    assert status() == "fail"


def test_perturbed_product_tables_fail_arens_cross_check():
    """Both of m2-cz2-zero's product tables moved alike by 1e-6 at one entry after the build: the
    two tables still agree, so the topological centers do not see it, and group 02 is the one
    claim that fails."""
    entry = next(e for e in builtin_corpus() if e.entry_id == "m2-cz2-zero")
    product = build_product(entry.algebra_a, entry.algebra_b, entry.hom, TOL)
    palg = product.algebra
    delta = np.zeros((palg.dim,) * 3)
    delta[0, 0, 0] = 1e-6
    object.__setattr__(palg, "_arens_tables", ArensTables(*(t + delta for t in arens_tables(palg))))
    report = verify_product(product, product_analyses(product, TOL, 0), RunConfig())
    failed = {v.claim for v in report.verdicts if v.status not in ("pass", "skip")}
    assert failed == {"02-bidual-identification/arens-equals-multiplication"}


def reference_tli(alg, phi, side):
    """One invariant-element solve per functional: its own system, nullspace and pairing test."""
    basis = nullspace(_tli_system(alg, phi, (side,))[0], TOL, scale=max(alg.cutoff_scale, max_abs(phi)))
    return basis, bool(basis.shape[1] and max_abs(phi @ basis) > TOL * max(1.0, max_abs(phi)))


def test_stacked_tli_matches_per_functional_loop(corpus):
    """One stacked ``solve_tli`` per side gives what one solve per functional gives:
    the same dimensions, nonvanishing verdicts and solution spaces, for every
    character, the zero functional and two functionals that are no character.
    One of them is large, so a cutoff floor shared across the stack would
    show on the other rows."""
    rng = np.random.default_rng(4)
    for a, b, hom in triples(corpus):
        for alg in (a, b, build_product(a, b, hom, TOL).algebra):
            n = alg.dim
            phis = [ch.functional for ch in enumerate_characters(alg, TOL).characters]
            phis += [np.zeros(n), random_element(rng, n), 1e9 * random_element(rng, n)]
            phis = np.array(phis, dtype=complex)
            for side in ("left", "right"):
                solutions = solve_tli(alg, phis, side, TOL)
                assert len(solutions) == len(phis)
                for phi, sol in zip(phis, solutions):
                    basis, nonvanishing = reference_tli(alg, phi, side)
                    assert sol.dim == basis.shape[1], (alg.name, side)
                    assert sol.exists_nonvanishing == nonvanishing, (alg.name, side)
                    assert subspaces_equal(sol.basis, basis, 1e-12)[0], (alg.name, side)
                    (one,) = solve_tli(alg, phi[None], side, TOL)
                    single = solve_tli(alg, phi, side, TOL)
                    assert isinstance(single, TliSolution) and single.dim == one.dim == sol.dim
                    assert single.exists_nonvanishing == one.exists_nonvanishing == nonvanishing
            assert solve_tli(alg, np.zeros((0, n)), "left", TOL) == ()
    with pytest.raises(ShapeError):
        solve_tli(a, np.zeros((2, a.dim + 1)), "left", TOL)


def test_arens_tables_are_built_once_per_algebra_and_read_only(monkeypatch, capsys):
    """Counted guard: one ``verify_theorems`` and one built-in ``corpus run``
    build the Arens tables at most once per algebra object, and the tables
    they share cannot be written to."""
    from tpw.cli import main

    builds, chain_tables, held = Counter(), tpw.arens._chain_tables, []

    def counted(alg):
        builds[id(alg)] += 1
        held.append(alg)  # a freed algebra's id could be given to a later one
        return chain_tables(alg)

    monkeypatch.setattr(tpw.arens, "_chain_tables", counted)
    rng = np.random.default_rng(6)
    c5 = rebased(matrix_unit_algebra("C", 5), random_unitary(rng, 5), "C5")
    t3 = rebased(matrix_unit_algebra("T", 3), random_unitary(rng, 6), "T3")
    zero = AlgebraHom(source=c5, target=t3, matrix=np.zeros((6, 5)))
    for a, b, hom in ((c5, c5, AlgebraHom(source=c5, target=c5, matrix=np.eye(5))), (t3, c5, zero)):
        builds.clear()
        verify_theorems(a, b, hom, RunConfig())
        assert builds and max(builds.values()) == 1
    tables = arens_tables(c5)
    for table in tables:
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1.0
    assert arens_tables(c5) is tables

    builds.clear()
    monkeypatch.delenv("TPW_CORPUS_DIR", raising=False)
    assert main(["corpus", "run", "--format", "json"]) == 0
    capsys.readouterr()
    assert builds and max(builds.values()) == 1
