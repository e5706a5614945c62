"""Claim liveness: every claim kind of the suite fails under a named mutation.

A claim that cannot fail reads as evidence and is none (mutation analysis:
DeMillo, Lipton and Sayward, "Hints on test data selection", IEEE Computer
11, 1978).  Each entry of ``MUTATIONS`` breaks one run of ``verify_product``
on a small fixed triple in one of three ways, and no other:

* an input that still loads: a corpus entry with a wrong verdict tag, whose
  group 10 claim (``cli._append_tag_checks``) follows the run;
* an object perturbed after ``build_product``: the product's tensor, its
  Arens tables, a factor's Arens table, the hom or the hom's report;
* one named solver returning a wrong but well-formed result:
  ``enumerate_characters``, ``center``, ``derivation_space``,
  ``square_annihilator``, ``solve_tli`` or ``find_*_identity``, patched
  where ``amenability.Analysis`` reads it, or ``radical``, patched where
  ``amenability.derivation_space`` reads it, each wrong on one algebra only.

No mutation touches a claim's own check (``character_defect``,
``leibniz_residual``, ``subspace_contains``, ``CheckReport``).  Each entry
records the exact outcome of its run: every claim kind, with per-character
indices folded to ``{}``, whose status is not pass or skip.  ``REGISTRY``
maps every kind to the mutations that fail it (or, for a kind that can only
be unknown, that make it unknown).  A kind that no mutation fails alone is
listed in ``RESTATES`` with the claims it fails with, and the ``suite``
docstring says why it stays.
"""

import json
import re
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import pytest

import tpw.amenability
import tpw.suite
from tpw.amenability import TliSolution, product_analyses
from tpw.arens import ArensTables, arens_tables
from tpw.characters import Character
from tpw.cli import _append_tag_checks, main
from tpw.core import FiniteAlgebra
from tpw.corpus import CorpusEntry, algebra_c, algebra_null1, algebra_row2, algebra_ut2, builtin_corpus, hom_zero
from tpw.product import AlgebraHom, block_table, build_product
from tpw.report import FAIL, UNKNOWN
from tpw.suite import RunConfig, verify_product, verify_theorems

from conftest import TOL, direct_sum, stacking_triples, undecidable_triple
from test_amenability import reference_characterization, spy_solve_tli


def _corpus_triple(entry_id):
    e = next(e for e in builtin_corpus() if e.entry_id == entry_id)
    return e.algebra_a, e.algebra_b, e.hom


def _c_ut2(character):
    """C x_T UT2 with T = b -> character(b): a hom onto C, or the zero hom."""
    c, ut2 = algebra_c(), algebra_ut2()
    return c, ut2, AlgebraHom(source=ut2, target=c, matrix=np.array([character], dtype=float))


def _with_zero_hom(a, b):
    return a, b, hom_zero(b, a)


# small fixed triples, each built fresh for every run; their unmutated outcomes are ``BASELINE``
TRIPLES = {
    "ut2-c2-diag": lambda: _corpus_triple("ut2-c2-diag"),
    "m2-cz2-zero": lambda: _corpus_triple("m2-cz2-zero"),
    "c-c-id": lambda: _corpus_triple("c-c-id"),
    "row2-c-zero": lambda: _corpus_triple("row2-c-zero"),
    "c-row2-zero": lambda: _with_zero_hom(algebra_c(), algebra_row2()),
    # T = E11*, the character of UT2 at its first diagonal entry, onto C
    "c-ut2-onto": lambda: _c_ut2([1.0, 0.0, 0.0]),
    "c-ut2-zero": lambda: _c_ut2([0.0, 0.0, 0.0]),
    # (C + null1) x_0 null1: both squares proper, so the product has cross derivations
    "csum-null1-zero": lambda: _with_zero_hom(direct_sum(algebra_c(), algebra_null1()), algebra_null1()),
    # null1 x_0 null1: every factor map is an outer derivation, and the product has 2 cross derivations
    "null1-null1-zero": lambda: (lambda a: _with_zero_hom(a, a))(algebra_null1()),
}
BASELINE = {name: {} for name in TRIPLES}

SHEAR = "01-construction/shear-onto-direct-sum"
ARENS = "02-bidual-identification/arens-equals-multiplication"
ADJOINT = "03-adjoints/second-adjoint-multiplicative-{}-arens"
CENTER = "04-topological-centers/{}/product-center-is-whole-bidual"
LIFTED, PURE = "05-characters/lifted-family-verified", "05-characters/pure-family-verified"
EXHAUSTIVE = "05-characters/decomposition-exhaustive"
WEAK = "06-weak-amenability/{}"
COVERAGE = "07-invariant-elements/character-coverage"
TLI = {"first": "07-invariant-elements/first-factor-{{}}/tli/{}/embedded-first-factor/{}",
       "second": "07-invariant-elements/second-factor-{{}}/tli/{}/second-factor-graph/{}"}
CHAR_AMENABLE = "08-character-amenability/{}/equivalence"
INNER = "09-inner/character-inner-amenability-equivalence"
FIRST, SECOND = "09-inner/first-factor-character-{}/", "09-inner/second-factor-character-{}/"
TAG = "10-corpus-tags/{}"
INDEX = re.compile(r"-\d+/")


def outcome(product, tags=()) -> dict[str, str]:
    """Each claim kind of one default run whose status is not pass or skip, with its status:
    fail when any of its verdicts fails.  With ``tags``, the run is a corpus entry's, as
    ``tpw corpus run`` makes it, and ends with the entry's group 10 claims."""
    config = RunConfig()
    analyses = product_analyses(product, config.tol, config.seed)
    report = verify_product(product, analyses, config)
    if tags:
        _append_tag_checks(report, CorpusEntry("entry", product.a, product.b, product.hom, tags), analyses[2])
    out = {}
    for v in report.verdicts:
        if v.status in (FAIL, UNKNOWN):
            kind = INDEX.sub("-{}/", v.claim)
            out[kind] = FAIL if FAIL in (v.status, out.get(kind)) else v.status
    return out


@dataclass(frozen=True)
class Mutation:
    """``apply(monkeypatch, product)`` breaks one run on ``TRIPLES[triple]`` and returns the product
    to verify, as an entry with ``tags`` if any; ``outcome`` is the exact ``outcome`` of that run."""

    name: str
    triple: str
    apply: Callable
    outcome: dict[str, str]
    tags: tuple[str, ...] = ()


def unchanged(monkeypatch, product):
    return product


def solver(name: str, on: str, alter):
    """The named solver returns ``alter(result, *args)`` on the algebra ``product.<on>`` only."""
    def apply(monkeypatch, product):
        real, target = getattr(tpw.amenability, name), getattr(product, on)

        def wrong(alg, *args):
            result = real(alg, *args)
            return alter(result, *args) if alg is target else result

        monkeypatch.setattr(tpw.amenability, name, wrong)
        return product
    return apply


def tables(on: str, change):
    """The Arens tables of ``product.<on>``, as kept on that object, replaced by ``change(first, second)``."""
    def apply(monkeypatch, product):
        alg = getattr(product, on)
        object.__setattr__(alg, "_arens_tables", ArensTables(*change(*map(np.array, arens_tables(alg)))))
        return product
    return apply


def moved_entry(table, by):
    table[0, 0, 0] += by
    return table


def moved_character(enum, by=3e-9):
    """The first character's first coordinate moved by ``by``: within 10 tol of the true one."""
    first = enum.characters[0]
    f = np.array(first.functional)
    f[0] += by
    return replace(enum, characters=(Character(enum.algebra, f, first.residual), *enum.characters[1:]))


def moved_derivation(space, *args):
    """The first derivation of the basis plus half the identity map, which is no derivation."""
    der = space.der_basis
    return replace(space, der_basis=(der[0] + 0.5 * np.eye(len(der[0])), *der[1:]))


def tli_rows(side: str, rows, change):
    """``solve_tli`` with ``change`` applied to the solutions on ``side`` that ``rows(solutions)`` picks.
    Every call from ``tpw`` solves both sides at once and gives one tuple of solutions per side."""
    def alter(per_side, phi, sides, tol):
        picked = {one: rows(solutions) if one == side else set() for one, solutions in zip(sides, per_side)}
        return tuple(tuple(change(sol) if i in picked[one] else sol for i, sol in enumerate(solutions))
                     for one, solutions in zip(sides, per_side))
    return alter


def family_row(which: str, side: str, member: int):
    """The product's own solution on ``side`` for the character that member ``member`` of the lifted
    (``which`` "first") or the pure family matches, found through the decomposition's ``match``,
    with its nonvanishing flag flipped: a matched member reads its character's solution."""
    def apply(monkeypatch, product):
        pc = product_analyses(product, TOL)[2].decomposition
        row = int(pc.match[member if which == "first" else len(pc.lifted) + member])
        flip = lambda sol: TliSolution(sol.basis, not sol.exists_nonvanishing)  # noqa: E731
        return solver("solve_tli", "algebra", tli_rows(side, lambda sols: {row}, flip))(monkeypatch, product)
    return apply


def first_nonvanishing(solutions):
    return {next(i for i, sol in enumerate(solutions) if sol.exists_nonvanishing and sol.dim)}


def without_first_column(sol):
    return TliSolution(sol.basis[:, 1:], sol.exists_nonvanishing)


def centre_moved(column: int, coordinate: int):
    """The centre's basis with one column moved by a basis vector and reorthonormalized: an
    orthonormal basis of a space that is not the centre."""
    def alter(z, tol):
        z = np.array(z)
        z[coordinate, column] += 1.0
        return np.linalg.qr(z)[0]
    return alter


def direct_sum_tensor(monkeypatch, product):
    """The product's tensor multiplied as A + B, without the cross terms of T."""
    wrong = FiniteAlgebra(product.algebra.name, product.algebra.basis_labels,
                          block_table(product.a.structure, product.b.structure, 0), product.algebra.norm_weights)
    return replace(product, algebra=wrong)


def conjugated_hom(monkeypatch, product):
    """T replaced by u T u^-1, u = 1 + E12 in UT2: another hom, which every character of UT2
    composes to the same functional, so the lifted family does not move."""
    # x -> u x u^-1 on UT2's basis (E11, E12, E22): E11 -> E11 - E12, E12 -> E12, E22 -> E22 + E12
    inner = np.array([[1.0, 0.0, 0.0], [-1.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
    return replace(product, hom=AlgebraHom(source=product.b, target=product.a, matrix=inner @ product.hom.matrix))


def scaled_hom(monkeypatch, product):
    """T's matrix scaled by 1 + 1e-3: no longer multiplicative."""
    return replace(product, hom=AlgebraHom(source=product.b, target=product.a, matrix=1.001 * product.hom.matrix))


def onto(monkeypatch, product):
    """The hom's report says T is onto, which it is not."""
    return replace(product, hom_report=replace(product.hom_report, surjective=True))


def no_radical(basis, tol):
    """The radical read as 0: the shortcut Der = Inn is taken."""
    return basis[:, :0]


def with_zero_column(basis, tol):
    return np.hstack([basis, np.zeros((len(basis), 1))])


def moved_annihilator(basis, tol):
    """The annihilator basis with its coordinates rotated by one: a functional that does not vanish on A^2."""
    return np.roll(basis, 1, axis=0)


def failing(*kinds) -> dict[str, str]:
    return dict.fromkeys(kinds, FAIL)


def tli(which: str, sides=("left", "right"), what=("nonvanishing-agreement", "solution-space-equality")):
    """The group 07 kinds of the lifted (``which`` "first") or the pure family on ``sides``."""
    return [TLI[which].format(side, w) for side in sides for w in what]


MUTATIONS = (
    Mutation("product-tensor-direct-sum", "c-ut2-onto", direct_sum_tensor,
             failing(SHEAR, LIFTED, EXHAUSTIVE, *tli("first"),
                     *tli("second", ("right",), ("solution-space-equality",)))),
    Mutation("hom-conjugated", "ut2-c2-diag", conjugated_hom,
             failing(SHEAR, WEAK.format("derivation-lift-p1"), *tli("second", what=("solution-space-equality",)),
                     SECOND + "witness-graph-embedding")),
    Mutation("hom-scaled", "c-ut2-onto", scaled_hom,
             failing(SHEAR, ADJOINT.format("first"), ADJOINT.format("second"), LIFTED, EXHAUSTIVE, *tli("first"),
                     *tli("second", ("right",), ("solution-space-equality",)))),
    Mutation("product-tables-moved-alike", "ut2-c2-diag",
             tables("algebra", lambda first, second: (moved_entry(first, 5e-9), moved_entry(second, 5e-9))),
             failing(ARENS)),
    Mutation("product-second-table-transposed", "ut2-c2-diag",
             tables("algebra", lambda first, second: (first, second.transpose(1, 0, 2))),
             failing(ARENS, CENTER.format("left"), CENTER.format("right"))),
    Mutation("first-factor-first-table-moved", "ut2-c2-diag",
             tables("a", lambda first, second: (moved_entry(first, 1e-3), second)),
             failing(ARENS, ADJOINT.format("first"), *tli("first", ("right",)))),
    Mutation("second-factor-second-table-moved", "ut2-c2-diag",
             tables("b", lambda first, second: (first, moved_entry(second, 1e-3))),
             failing(ARENS, ADJOINT.format("second"))),
    Mutation("first-factor-character-moved", "ut2-c2-diag",
             solver("enumerate_characters", "a", lambda enum, *args: moved_character(enum)), failing(LIFTED)),
    Mutation("second-factor-character-moved", "ut2-c2-diag",
             solver("enumerate_characters", "b", lambda enum, *args: moved_character(enum)), failing(PURE)),
    Mutation("second-factor-character-dropped", "ut2-c2-diag",
             solver("enumerate_characters", "b", lambda enum, *args: replace(enum, characters=enum.characters[1:])),
             failing(EXHAUSTIVE)),
    Mutation("first-factor-enumeration-incomplete", "ut2-c2-diag",
             solver("enumerate_characters", "a", lambda enum, *args: replace(enum, complete=False)),
             {EXHAUSTIVE: UNKNOWN, COVERAGE: UNKNOWN, INNER: UNKNOWN}),
    Mutation("first-factor-derivation-moved", "ut2-c2-diag", solver("derivation_space", "a", moved_derivation),
             failing(WEAK.format("derivation-lift-p1"))),
    Mutation("second-factor-derivation-moved", "c-ut2-onto", solver("derivation_space", "b", moved_derivation),
             failing(WEAK.format("derivation-lift-p2"))),
    # both factors read Der = Inn = 0, while the product keeps its cross derivations, which are outer
    Mutation("factor-radical-read-zero", "null1-null1-zero", solver("radical", "a", no_radical),
             failing(WEAK.format("equivalence"))),
    Mutation("square-annihilator-zero-column", "c-c-id", solver("square_annihilator", "a", with_zero_column),
             failing(WEAK.format("equivalence"))),
    Mutation("first-factor-square-annihilator-moved", "csum-null1-zero",
             solver("square_annihilator", "a", moved_annihilator),
             {**BASELINE["csum-null1-zero"], WEAK.format("cross-derivations"): FAIL}),
    # the member whose character's flip leaves the product's character amenability (group 08) as it is
    *(Mutation(f"product-{which}-family-{side}-flag-flipped", "ut2-c2-diag", family_row(which, side, member),
               failing(*tli(which, (side,), ("nonvanishing-agreement",))))
      for which, side, member in (("first", "left", 0), ("first", "right", 1), ("second", "left", 0),
                                  ("second", "right", 0))),
    *(Mutation(f"{factor}-factor-{side}-solution-column-dropped", "ut2-c2-diag",
               solver("solve_tli", on, tli_rows(side, first_nonvanishing, without_first_column)),
               failing(*tli(factor, (side,), ("solution-space-equality",))))
      for on, factor in (("a", "first"), ("b", "second")) for side in ("left", "right")),
    *(Mutation(f"first-factor-no-{side}-identity", "m2-cz2-zero",
               solver(f"find_{side}_identity", "a", lambda e, *args: None), failing(CHAR_AMENABLE.format(side)))
      for side in ("left", "right")),
    Mutation("first-factor-centre-empty", "c-row2-zero", solver("center", "a", lambda z, tol: z[:, :0]),
             failing(FIRST + "equivalence")),
    Mutation("second-factor-centre-empty", "row2-c-zero", solver("center", "b", lambda z, tol: z[:, :0]),
             failing(SECOND + "equivalence")),
    Mutation("first-factor-centre-empty-inner-amenable", "ut2-c2-diag",
             solver("center", "a", lambda z, tol: z[:, :0]), failing(FIRST + "equivalence", INNER)),
    Mutation("first-factor-centre-moved", "ut2-c2-diag", solver("center", "a", centre_moved(0, 0)),
             failing(FIRST + "witness-embedded-factor-mean")),
    Mutation("product-centre-moved", "ut2-c2-diag", solver("center", "algebra", centre_moved(0, 0)),
             failing(FIRST + "witness-combined-blocks")),
    Mutation("hom-report-onto", "ut2-c2-diag", onto, failing(FIRST + "witness-embedded-second-mean")),
    Mutation("second-factor-centre-moved", "c-ut2-zero", solver("center", "b", centre_moved(0, 0)),
             failing(SECOND + "witness-graph-embedding")),
    Mutation("product-centre-moved-second-block", "c-ut2-zero", solver("center", "algebra", centre_moved(0, 1)),
             failing(SECOND + "witness-second-block")),
    Mutation("product-centre-moved-normalized-block", "c-ut2-onto", solver("center", "algebra", centre_moved(0, 2)),
             failing(FIRST + "witness-normalized-second-block")),
    *(Mutation(f"entry-tagged-{tag}", "c-c-id", unchanged, failing(TAG.format(key)), (tag,))
      for tag, key in (("non-weakly-amenable", "weakly_amenable"), ("non-char-amenable", "char_amenable"),
                       ("non-char-inner-amenable", "char_inner_amenable"))),
)
# every claim kind with the mutations that fail it (or make it unknown)
REGISTRY = {kind: [m.name for m in MUTATIONS if kind in m.outcome] for each in MUTATIONS for kind in each.outcome}

# kinds that no mutation fails alone, with the claims every one of their mutations also fails
RESTATES = {
    SHEAR: (LIFTED, WEAK.format("derivation-lift-p1")),
    ADJOINT.format("first"): (SHEAR, ARENS),
    ADJOINT.format("second"): (SHEAR, ARENS),
    CENTER.format("left"): (ARENS,),
    CENTER.format("right"): (ARENS,),
    COVERAGE: (EXHAUSTIVE,),
    INNER: (FIRST + "equivalence", SECOND + "equivalence", EXHAUSTIVE),
}


def test_every_triple_passes_unmutated():
    for name, triple in TRIPLES.items():
        assert outcome(build_product(*triple(), TOL)) == BASELINE[name], name


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m.name)
def test_mutation_fails_exactly_its_kinds(monkeypatch, mutation):
    product = build_product(*TRIPLES[mutation.triple](), TOL)
    assert outcome(mutation.apply(monkeypatch, product), mutation.tags) == mutation.outcome


def test_unmatched_family_members_are_solved_as_one_extra_stack(monkeypatch):
    """With the product's tensor that of A + B, the lifted member (phi, phi o T) of C x_T UT2
    (T onto) matches no product character: the product solves its own characters on both sides
    as one stack, and then that member alone on both sides, and group 07's statuses are those of
    the per-character oracle."""
    product = direct_sum_tensor(monkeypatch, build_product(*TRIPLES["c-ut2-onto"](), TOL))
    analyses = product_analyses(product, TOL)
    calls = spy_solve_tli(monkeypatch)
    report = verify_product(product, analyses, RunConfig())
    pc = analyses[2].decomposition
    assert (pc.match < 0).tolist() == [True, False, False]
    assert [(len(phis), side) for alg, phis, side in calls if alg is product.algebra] == [
        (len(pc.enumerated), ("left", "right")), (1, ("left", "right"))]
    got = {v.claim: v.status for v in report.verdicts if v.claim.startswith("07-invariant-elements/")}
    want = {}
    for an, kind, prefix in zip(analyses, ("lifted", "pure"), ("first-factor", "second-factor")):
        for idx, chi in enumerate(an.characters.functionals):
            for side in ("left", "right"):
                for claim, (status, _, _) in reference_characterization(product, chi, kind, side).items():
                    want[f"07-invariant-elements/{prefix}-{idx}/{claim}"] = status
    assert got == want and FAIL in got.values()


def test_every_emitted_claim_kind_has_a_mutation(monkeypatch, capsys, corpus):
    """The kinds of the built-in ``corpus run``, of every ``stacking_triples`` triple and of the
    undecidable triple, the one whose factor enumeration is incomplete, are exactly the
    registered ones."""
    monkeypatch.delenv("TPW_CORPUS_DIR", raising=False)
    assert main(["corpus", "run", "--format", "json"]) == 0
    emitted = {v["claim"] for e in json.loads(capsys.readouterr().out)["entries"] for v in e["report"]["verdicts"]}
    emitted |= {v.claim for _, a, b, hom in stacking_triples(corpus)
                for v in verify_theorems(a, b, hom, RunConfig()).verdicts}
    emitted |= {v.claim for v in verify_theorems(*undecidable_triple(), RunConfig()).verdicts}
    emitted = {INDEX.sub("-{}/", claim) for claim in emitted}
    assert set(REGISTRY) == emitted, sorted(set(REGISTRY) ^ emitted)


def test_a_kind_that_never_fails_alone_restates_named_claims_and_says_why_it_stays():
    alone = {kind for m in MUTATIONS for kind, status in m.outcome.items()
             if status == FAIL and list(m.outcome.values()).count(FAIL) == 1}
    assert set(RESTATES) == set(REGISTRY) - alone
    for kind, others in RESTATES.items():
        mutations = [m for m in MUTATIONS if kind in m.outcome]
        assert all(set(others) & set(m.outcome) for m in mutations), kind
        assert kind in tpw.suite.__doc__, kind
