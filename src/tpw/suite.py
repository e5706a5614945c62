"""The executable theorem suite for a triple (A, B, T).

Each group of claims verifies one structural statement about the morphism
product at desk scale: the construction, the bidual identification with
both Arens products, adjoint plumbing, Arens regularity of the product, the
character-space decomposition, and the amenability transfer theorems.
Group 01 checks the one fact the construction rests on: the product's
``shear`` (a, b) -> (a + T(b), b) is an algebra isomorphism onto the direct
sum A + B.  It implies the ideal, the quotient and the first factor's
embedding, and it is the one claim that sees the cross terms.  The other
groups move characters, invariant elements and means with the product's
block maps and read the hom's facts from ``product.hom_report``.
Group 06 reads the product's derivation space from its analysis, which
carries it from the factors' through the shear when the shear claim's gap
is within bound and solves it directly otherwise.  A carried space's own
maps are checked against the product's Leibniz identity, so a wrong
transport fails a claim: its lifted factor derivations in
``derivation-lift-*`` and its cross derivations, built from the
annihilators of A^2 and B^2, in ``cross-derivations``.  For a space solved
directly, ``derivation-lift-*`` check each factor's derivation basis pulled
back by one broadcast p^T d p, of which ``lift_derivation`` is the one-map
case, and ``cross-derivations`` is skipped.
Finite dimension forces Arens regularity, so group 04 asks one question per
side that fails exactly when the two Arens tables disagree: is the product's
topological center the whole bidual?  A transfer of centers between the
product and its factors would compare the whole space with itself.
Group 02 asks whether the Arens chain reproduces the multiplication: both
Arens tables of A, B and the product, which come from the chain and not
from ``structure``, against their structure tensors.  The block formula for
the product's Arens tables needs no claim of its own: ``block_table`` is
linear in the tables, so its residual (``theta_homomorphism_residual``) is
at most (1 + max(1, |T|_1)) times the worst table error, |T|_1 the largest
column l1-norm of T's matrix, and it stays within 10 tol whenever group 02
passes and |T|_1 <= 9, which covers the contractive homs of the theory.
Group 05 has three claims: both families verified and the decomposition
exhaustive.  The pullback lemma (phi o T is a character of B or zero) is the
B x B block of each lifted member's defect, and the families' disjointness
is a conjunct of ``decomposition_ok``, so neither is a claim of its own.
Every claim kind fails alone under some mutation of the registry in
``tests/test_liveness.py``, except these, which stay:
``01-construction/shear-onto-direct-sum`` fails with
``lifted-family-verified`` or ``derivation-lift-p1``, and stays because
group 06 reads its gap to choose between carrying the derivation space and
solving it, and because it is the one claim on the whole multiplication.
``03-adjoints/second-adjoint-multiplicative-first-arens`` and
``03-adjoints/second-adjoint-multiplicative-second-arens`` fail with group 02
(a moved factor table) or with the shear claim (a hom that is not
multiplicative, whose gap the shear sees on B x B), and stay because
``perfbench/tracer.py`` wraps ``_check_adjoints`` by name.
``04-topological-centers/left/product-center-is-whole-bidual`` and
``04-topological-centers/right/product-center-is-whole-bidual`` fail with
group 02, since the center shrinks only where the two tables disagree and
one of them is then not the multiplication, and stay because the tracer
wraps ``_check_topological_centers`` by name.
``07-invariant-elements/character-coverage`` is never worse than unknown,
and only with ``decomposition-exhaustive``, and stays to mark group 07's
verdicts as covering the verified characters only.
``09-inner/character-inner-amenability-equivalence`` fails with a
per-character ``equivalence`` of group 09 or with
``decomposition-exhaustive``, since the product's characters are the two
families, and stays as the statement of the theorem whose steps those are.
Claims are assembled in claim-id order; reports are deterministic for fixed
inputs, tolerance, and seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amenability import (
    BAI_CAVEAT,
    ZERO_CHARACTER_CAVEAT,
    Analysis,
    ProductAnalysis,
    _lifted,
    add_transfer_claim,
    inner_amenability_suite,
    leibniz_residual,
    product_analyses,
    tli_product_characterization,
)
from .arens import (
    FINITE_DIM_CAVEAT,
    arens_tables,
    hom_adjoints,
    topological_center,
)
from .characters import character_decomposition
from .core import FiniteAlgebra
from .errors import ValidationError
from .linalg import max_abs
from .product import AlgebraHom, MorphismProduct, build_product
from .report import CheckReport, Verdict


@dataclass(frozen=True)
class RunConfig:
    """Run parameters shared by the CLI and the suite."""

    tol: float = 1e-9
    seed: int = 0
    side: str = "both"

    def __post_init__(self):
        if not 0 < self.tol < float("inf"):
            raise ValidationError(f"tolerance must be a positive finite number, got {self.tol}")
        if self.side not in ("left", "right", "both"):
            raise ValidationError(f"side must be left, right, or both, got {self.side!r}")

    @property
    def sides(self) -> tuple[str, ...]:
        return ("left", "right") if self.side == "both" else (self.side,)


def _merge_prefixed(report: CheckReport, sub: CheckReport, prefix: str):
    for v in sub.verdicts:
        report.verdicts.append(Verdict(prefix + v.claim, v.status, v.residual, v.witness, v.detail))
    for c in sub.caveats:
        report.caveat(c)


def _check_construction(report: CheckReport, product: MorphismProduct, tol: float):
    for w in product.hom_report.warnings:
        report.caveat(w)

    # the shear against the direct sum A + B over all basis pairs, kept on the
    # product: group 06 reads the same gap before it transports derivations
    worst, (p, q) = product.shear_gap
    labels = product.algebra.basis_labels
    report.add(
        "01-construction/shear-onto-direct-sum",
        worst <= 10 * tol,
        residual=worst,
        witness=None if worst <= 10 * tol else {"basis_pair": [labels[p], labels[q]], "residual": worst},
        detail="(a, b) -> (a + T(b), b) is an algebra isomorphism onto the direct sum",
    )


def _check_bidual_identification(report: CheckReport, product: MorphismProduct, tol: float):
    worst = max(max_abs(table - alg.structure) for alg in (product.a, product.b, product.algebra)
                for table in arens_tables(alg))
    report.add(
        "02-bidual-identification/arens-equals-multiplication",
        worst <= tol,
        residual=worst,
        detail="both Arens chains reproduce the multiplication under the canonical identification",
    )


def _check_adjoints(report: CheckReport, product: MorphismProduct, tol: float):
    adj = hom_adjoints(product.hom, tol)
    report.add(
        "03-adjoints/second-adjoint-multiplicative-first-arens",
        adj.mult_residual_first <= 10 * tol,
        residual=adj.mult_residual_first,
    )
    report.add(
        "03-adjoints/second-adjoint-multiplicative-second-arens",
        adj.mult_residual_second <= 10 * tol,
        residual=adj.mult_residual_second,
    )


def _check_topological_centers(report: CheckReport, product: MorphismProduct, tol: float, sides: tuple[str, ...]):
    report.caveat(FINITE_DIM_CAVEAT)
    n = product.algebra.dim
    for side in sides:
        center_dim = topological_center(product.algebra, side, tol).shape[1]
        whole = center_dim == n
        report.add(
            f"04-topological-centers/{side}/product-center-is-whole-bidual",
            whole,
            witness=None if whole else {"center_dim": center_dim, "dim": n},
            detail=f"center dimension {center_dim} of {n}",
        )


def _check_characters(report: CheckReport, product: MorphismProduct, analyses: tuple[Analysis, ...], tol: float):
    pc = character_decomposition(product, *(an.characters for an in analyses), tol)
    for family, members, origin in (("lifted", pc.lifted, "lifted from the first factor"),
                                     ("pure", pc.pure_b, "supported on the second factor")):
        report.add(f"05-characters/{family}-family-verified", all(ch.residual <= tol for ch in members),
                   residual=max((ch.residual for ch in members), default=0.0),
                   detail=f"{len(members)} characters {origin}")
    if pc.decomposition_ok is None:
        report.add("05-characters/decomposition-exhaustive", None,
                   detail="a character enumeration is incomplete; exhaustiveness is unknown")
    else:
        report.add("05-characters/decomposition-exhaustive", pc.decomposition_ok,
                   witness=None if pc.decomposition_ok else {"mismatching_functional": pc.mismatch},
                   detail=f"enumeration found {len(pc.enumerated.characters)} characters")


def _check_weak_amenability(report: CheckReport, product: MorphismProduct, analyses: tuple[Analysis, ...],
                            tol: float):
    an_a, an_b, an_p = analyses
    ds_a, ds_b, ds_p = an_a.derivations, an_b.derivations, an_p.derivations
    ok = an_p.weakly_amenable == (an_a.weakly_amenable and an_b.weakly_amenable)
    report.add(
        "06-weak-amenability/equivalence",
        ok,
        witness=None if ok else {
            "first_factor": {"dim_der": ds_a.dim_der, "dim_inner": ds_a.dim_inner},
            "second_factor": {"dim_der": ds_b.dim_der, "dim_inner": ds_b.dim_inner},
            "product": {"dim_der": ds_p.dim_der, "dim_inner": ds_p.dim_inner},
        },
        detail=(
            f"product {ds_p.dim_der}/{ds_p.dim_inner}, "
            f"factors {ds_a.dim_der}/{ds_a.dim_inner} and {ds_b.dim_der}/{ds_b.dim_inner} (der/inner)"
        ),
    )

    # a transported space's own lifts are checked, so a wrong transport fails here
    parts = ds_p.parts
    for which, space in (("p1", ds_a), ("p2", ds_b)):
        if not space.der_basis:
            report.add(f"06-weak-amenability/derivation-lift-{which}", True, residual=0.0,
                       detail="no nonzero derivations to lift")
            continue
        lifts = parts[which] if parts is not None else _lifted(space.der_basis, which, product)
        worst = leibniz_residual(product.algebra, np.array(lifts))
        report.add(
            f"06-weak-amenability/derivation-lift-{which}",
            worst <= 10 * tol,
            residual=worst,
            detail="pulled-back factor derivations satisfy the Leibniz identity on the product",
        )

    # the rest of a transported basis: the cross derivations, in one contraction
    claim = "06-weak-amenability/cross-derivations"
    if parts is None:
        report.skip(claim, detail="the product's derivations were solved directly: its shear gap exceeds 10 tol")
        return
    cross = parts["cross"]
    worst = leibniz_residual(product.algebra, np.array(cross)) if cross else 0.0
    report.add(
        claim,
        worst <= 10 * tol,
        residual=worst,
        detail=f"{len(cross)} cross derivations carried through the shear satisfy the Leibniz identity "
               "on the product",
    )


def _check_tli(report: CheckReport, product: MorphismProduct, analyses: tuple[Analysis, ...], tol: float,
               sides: tuple[str, ...]):
    an_a, an_b, an_p = analyses
    if not (an_a.characters.complete and an_b.characters.complete):
        report.add(
            "07-invariant-elements/character-coverage",
            None,
            detail="factor character enumeration incomplete; characterization checked on verified characters only",
        )
    for side in sides:
        # the product's solutions for the lifted and the pure family come from its one stack per side
        for an, kind, prefix, product_tli in zip((an_a, an_b), ("lifted", "pure"), ("first-factor", "second-factor"),
                                                  an_p.family_tli(side)):
            subs = tli_product_characterization(product, an.characters.functionals, kind, tol, side, an.tli(side),
                                                product_tli)
            for idx, sub in enumerate(subs):
                _merge_prefixed(report, sub, f"07-invariant-elements/{prefix}-{idx}/")


def _check_character_amenability(report: CheckReport, analyses: tuple[Analysis, ...], sides: tuple[str, ...]):
    report.caveat(BAI_CAVEAT)
    report.caveat(ZERO_CHARACTER_CAVEAT)
    for side in sides:
        verdicts = tuple(an.character_amenability(side).verdict for an in analyses)
        add_transfer_claim(
            report, f"08-character-amenability/{side}/equivalence", verdicts,
            f"product={verdicts[2]}, factors=({verdicts[0]}, {verdicts[1]})",
            "a character enumeration is incomplete; equivalence undecidable",
        )


def verify_theorems(algebra_a: FiniteAlgebra, algebra_b: FiniteAlgebra, hom: AlgebraHom,
                    config: RunConfig) -> CheckReport:
    """Run the full structural suite on one (A, B, T) triple."""
    product = build_product(algebra_a, algebra_b, hom, config.tol)
    return verify_product(product, product_analyses(product, config.tol, config.seed), config)


def verify_product(product: MorphismProduct, analyses: tuple[Analysis, Analysis, ProductAnalysis],
                   config: RunConfig) -> CheckReport:
    """Run the full structural suite on a built product; groups 05-09 read every
    per-algebra fact from ``analyses``, the run's ``product_analyses`` of (A, B, product)."""
    report = CheckReport(subject=product.algebra.name)
    _check_construction(report, product, config.tol)
    _check_bidual_identification(report, product, config.tol)
    _check_adjoints(report, product, config.tol)
    _check_topological_centers(report, product, config.tol, config.sides)
    _check_characters(report, product, analyses, config.tol)
    _check_weak_amenability(report, product, analyses, config.tol)
    _check_tli(report, product, analyses, config.tol, config.sides)
    _check_character_amenability(report, analyses, config.sides)
    _merge_prefixed(report, inner_amenability_suite(product, config.tol, config.seed, analyses), "09-")
    return report
