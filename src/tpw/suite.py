"""The executable theorem suite for a triple (A, B, T).

Each group of claims verifies one structural statement about the morphism
product at desk scale: the construction, the bidual identification with
both Arens products, adjoint plumbing, Arens regularity of the product, the
character-space decomposition, and the amenability transfer theorems.
Group 01 checks the one fact the construction rests on: the shear
(a, b) -> (a + T(b), b) is an algebra isomorphism onto the direct sum A + B.
It implies the ideal, the quotient and the embedding of the first factor,
and it is the one claim that sees the cross terms a1 T(b2) + T(b1) a2.
Finite dimension forces Arens regularity, so group 04 asks one question per
side that fails exactly when the two Arens tables disagree: is the product's
topological center the whole bidual?  A transfer of centers between the
product and its factors would compare the whole space with itself.
Claims are assembled in claim-id order; reports are deterministic for fixed
inputs, tolerance, and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .amenability import (
    BAI_CAVEAT,
    ZERO_CHARACTER_CAVEAT,
    Analysis,
    add_transfer_claim,
    inner_amenability_suite,
    leibniz_residual,
    lift_derivation,
    product_analyses,
    tli_product_characterization,
)
from .arens import (
    FINITE_DIM_CAVEAT,
    arens_first,
    arens_second,
    hom_adjoints,
    product_dual_action_tables,
    theta_homomorphism_residual,
    topological_center,
)
from .characters import character_decomposition, character_defect
from .core import FiniteAlgebra
from .errors import ValidationError
from .linalg import max_abs
from .product import AlgebraHom, MorphismProduct, build_product, check_hom
from .report import CheckReport


@dataclass(frozen=True)
class RunConfig:
    """Run parameters shared by the CLI and the suite."""

    tol: float = 1e-9
    seed: int = 0
    side: str = "both"

    def __post_init__(self):
        if not self.tol > 0:
            raise ValidationError(f"tolerance must be positive, got {self.tol}")
        if self.side not in ("left", "right", "both"):
            raise ValidationError(f"side must be left, right, or both, got {self.side!r}")

    @property
    def sides(self) -> tuple[str, ...]:
        return ("left", "right") if self.side == "both" else (self.side,)


def _merge_prefixed(report: CheckReport, sub: CheckReport, prefix: str):
    for v in sub.verdicts:
        report.verdicts.append(replace(v, claim=prefix + v.claim))
    for c in sub.caveats:
        report.caveat(c)


def _check_construction(report: CheckReport, product: MorphismProduct, tol: float):
    for w in check_hom(product.hom, tol).warnings:
        report.caveat(w)

    # the shear S = [[I, M], [0, I]] against the direct sum A + B: S(e_p e_q)
    # and S(e_p) S(e_q) over all basis pairs of the product, two n^4 contractions
    na, n = product.dim_a, product.algebra.dim
    shear = np.eye(n, dtype=complex)
    shear[:na, na:] = product.hom.matrix
    direct_sum = np.zeros((n, n, n), dtype=complex)
    direct_sum[:na, :na, :na] = product.a.structure
    direct_sum[na:, na:, na:] = product.b.structure
    images = product.algebra.structure @ shear.T
    products = np.einsum("pjk,jq->pqk", np.tensordot(shear, direct_sum, axes=(0, 0)), shear)
    gap = np.abs(images - products)
    p, q, k = np.unravel_index(np.argmax(gap), gap.shape)
    worst = float(gap[p, q, k])
    labels = product.algebra.basis_labels
    report.add(
        "01-construction/shear-onto-direct-sum",
        worst <= 10 * tol,
        residual=worst,
        witness=None if worst <= 10 * tol else {"basis_pair": [labels[p], labels[q]], "residual": worst},
        detail="(a, b) -> (a + T(b), b) is an algebra isomorphism onto the direct sum",
    )


def _check_bidual_identification(report: CheckReport, product: MorphismProduct, tol: float, seed: int):
    palg = product.algebra
    for which in ("first", "second"):
        residual = theta_homomorphism_residual(product, which)
        report.add(
            f"02-bidual-identification/product-{which}-arens",
            residual <= 10 * tol,
            residual=residual,
            detail="block bidual product formula matches the product algebra's Arens product",
        )

    worst = product_dual_action_tables(product).agreement_residual
    report.add(
        "02-bidual-identification/dual-action-block-formulas",
        worst <= 10 * tol,
        residual=worst,
        detail="factor-level dual action formulas agree with the direct product computation",
    )

    # 100 random pairs per algebra, one stack each; the direct products come
    # from the structure tensor, so the chain is checked against multiplication
    rng = np.random.default_rng(seed)
    worst = 0.0
    for alg in (product.a, product.b, palg):
        g = rng.standard_normal((100, 4, alg.dim))
        x, y = g[:, 0] + 1j * g[:, 1], g[:, 2] + 1j * g[:, 3]
        direct = np.einsum("pi,pj,ijk->pk", x, y, alg.structure)
        worst = max(worst, max_abs(arens_first(alg, x, y) - direct), max_abs(arens_second(alg, x, y) - direct))
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
    report.add(
        "05-characters/lifted-family-verified",
        all(ch.residual <= tol for ch in pc.lifted),
        residual=max((ch.residual for ch in pc.lifted), default=0.0),
        detail=f"{len(pc.lifted)} characters lifted from the first factor",
    )
    report.add(
        "05-characters/pure-family-verified",
        all(ch.residual <= tol for ch in pc.pure_b),
        residual=max((ch.residual for ch in pc.pure_b), default=0.0),
        detail=f"{len(pc.pure_b)} characters supported on the second factor",
    )
    report.add(
        "05-characters/families-disjoint",
        pc.disjoint,
        witness=None if pc.disjoint else {"overlap": True},
    )
    if pc.decomposition_ok is None:
        report.add(
            "05-characters/decomposition-exhaustive",
            None,
            detail="a character enumeration is incomplete; exhaustiveness is unknown",
        )
    else:
        report.add(
            "05-characters/decomposition-exhaustive",
            pc.decomposition_ok,
            witness=None if pc.decomposition_ok else {"mismatching_functional": pc.mismatch},
            detail=f"enumeration found {len(pc.enumerated.characters)} characters",
        )

    worst = 0.0
    for ch in pc.sigma_a.characters:
        pullback = product.hom.matrix.T @ ch.functional
        if max_abs(pullback) > tol:
            worst = max(worst, character_defect(product.b, pullback)[0])
    report.add(
        "05-characters/pullbacks-multiplicative",
        worst <= 10 * tol,
        residual=worst,
        detail="every first-factor character pulls back to a character of the second factor or to zero",
    )


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

    for which, space in (("p1", ds_a), ("p2", ds_b)):
        if not space.der_basis:
            report.add(f"06-weak-amenability/derivation-lift-{which}", True, residual=0.0,
                       detail="no nonzero derivations to lift")
            continue
        worst = 0.0
        for d in space.der_basis:
            lifted = lift_derivation(d, which, product, tol)
            worst = max(worst, leibniz_residual(product.algebra, lifted))
        report.add(
            f"06-weak-amenability/derivation-lift-{which}",
            worst <= 10 * tol,
            residual=worst,
            detail="pulled-back factor derivations satisfy the Leibniz identity on the product",
        )


def _check_tli(report: CheckReport, product: MorphismProduct, analyses: tuple[Analysis, ...], tol: float,
               sides: tuple[str, ...]):
    an_a, an_b, _ = analyses
    if not (an_a.characters.complete and an_b.characters.complete):
        report.add(
            "07-invariant-elements/character-coverage",
            None,
            detail="factor character enumeration incomplete; characterization checked on verified characters only",
        )
    for an, kind, prefix in ((an_a, "lifted", "first-factor"), (an_b, "pure", "second-factor")):
        for idx, ch in enumerate(an.characters.characters):
            for side in sides:
                sub = tli_product_characterization(product, ch.functional, kind, tol, side, an.tli(side)[idx])
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


def verify_product(product: MorphismProduct, analyses: tuple[Analysis, Analysis, Analysis],
                   config: RunConfig) -> CheckReport:
    """Run the full structural suite on a built product; groups 05-09 read every
    per-algebra fact from ``analyses``, the run's analyses of (A, B, product)."""
    report = CheckReport(subject=product.algebra.name)
    _check_construction(report, product, config.tol)
    _check_bidual_identification(report, product, config.tol, config.seed)
    _check_adjoints(report, product, config.tol)
    _check_topological_centers(report, product, config.tol, config.sides)
    _check_characters(report, product, analyses, config.tol)
    _check_weak_amenability(report, product, analyses, config.tol)
    _check_tli(report, product, analyses, config.tol, config.sides)
    _check_character_amenability(report, analyses, config.sides)
    _merge_prefixed(report, inner_amenability_suite(product, config.tol, config.seed, analyses), "09-")
    return report
