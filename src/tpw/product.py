"""Morphism products: the block algebra built from a pair (A, B) and a hom T: B -> A.

The product carries the multiplication

    (a1, b1) (a2, b2) = (a1 a2 + a1 T(b2) + T(b1) a2,  b1 b2)

on A + B coordinates (A-block first), with the summed l1 norm.  This is the
one module that knows the block layout and decides the hom's facts.  The
block formula is written once, in ``block_table``: it gives the structure
tensor (M = T), the direct sum A + B (M = 0) and, from the factors' Arens
tables, the bidual product's table (M = T'', which has T's matrix).  The
product keeps the ``check_hom`` report made when it was built, and exposes
the shear S(a, b) = (a + T b, b), an algebra isomorphism onto the direct sum
A + B, with its measured distance from one (``shear_gap``) and the block
maps that carry characters, invariant elements, derivations and means
between the product and its factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import FiniteAlgebra, LinearMap, same_content
from .errors import HomInvalid, ShapeError, ValidationError
from .linalg import as_complex, max_abs, rank


def multiplicativity_gap(source_table: np.ndarray, target_table: np.ndarray, m: np.ndarray) -> np.ndarray:
    """T(e_i # e_j) - T(e_i) # T(e_j) at [i, j] for the map T with matrix m, where ``table[p, q]``
    is e_p # e_q for a bilinear product # on each side; T(e_i) # T(e_j) is two products with m^T."""
    nt, ns = m.shape
    images = (m.T @ (m.T @ target_table).reshape(nt, ns * nt)).reshape(ns, ns, nt)
    return source_table @ m.T - images


@dataclass(frozen=True)
class AlgebraHom:
    """A linear map between algebras with its multiplicativity certificate.

    ``matrix`` maps source coordinates to target coordinates.  The
    multiplicativity residual, the source basis pair ``worst_pair`` where it
    is attained (the first in C order) and the l1-induced operator norm are
    computed once at construction; an operator norm above 1 is a warning,
    not an error, because nothing checked downstream depends on contractivity.
    """

    source: FiniteAlgebra
    target: FiniteAlgebra
    matrix: np.ndarray
    mult_residual: float = field(init=False)
    worst_pair: tuple[int, int] = field(init=False)
    op_norm: float = field(init=False)

    def __post_init__(self):
        m = as_complex(self.matrix)
        expected = (self.target.dim, self.source.dim)
        if m.shape != expected:
            raise ShapeError(f"hom matrix has shape {m.shape}, expected {expected}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        gap = np.abs(multiplicativity_gap(self.source.structure, self.target.structure, m))
        i, j, k = np.unravel_index(np.argmax(gap), gap.shape)
        object.__setattr__(self, "mult_residual", float(gap[i, j, k]))
        object.__setattr__(self, "worst_pair", (int(i), int(j)))
        column_norms = self.target.norm_weights @ np.abs(m)
        object.__setattr__(self, "op_norm", float(np.max(column_norms / self.source.norm_weights)))

    def __repr__(self):
        return f"AlgebraHom({self.source.name!r} -> {self.target.name!r})"


@dataclass
class HomValidationReport:
    source: str
    target: str
    mult_residual: float
    op_norm: float
    multiplicative: bool
    surjective: bool
    injective: bool
    warnings: list = field(default_factory=list)


def check_hom(hom: AlgebraHom, tol: float) -> HomValidationReport:
    """Report multiplicativity, operator norm, and rank facts for a hom.

    An operator norm above 1 warns; it does not fail the report.
    """
    r = rank(hom.matrix, tol)
    warnings = []
    if hom.op_norm > 1 + tol:
        warnings.append(f"operator norm {hom.op_norm:.6g} exceeds 1; the map is not contractive")
    return HomValidationReport(
        source=hom.source.name,
        target=hom.target.name,
        mult_residual=hom.mult_residual,
        op_norm=hom.op_norm,
        multiplicative=hom.mult_residual <= tol,
        surjective=(r == hom.target.dim),
        injective=(r == hom.source.dim),
        warnings=warnings,
    )


def block_table(table_a: np.ndarray, table_b: np.ndarray, m) -> np.ndarray:
    """The table (a1, b1) # (a2, b2) = (a1 # a2 + a1 # M(b2) + M(b1) # a2,  b1 # b2) of A x_M B on
    basis pairs, from ``table[p, q] = e_p # e_q`` on each factor and the matrix ``m`` of M: B -> A
    (a scalar is broadcast, so 0 gives A + B).  Each cross term, in the A-block, is one
    two-operand contraction; a pure B-by-B product has no A-component at all."""
    na, nb = table_a.shape[0], table_b.shape[0]
    m = np.broadcast_to(m, (na, nb))
    c = np.zeros((na + nb,) * 3, dtype=complex)
    c[:na, :na, :na] = table_a
    c[:na, na:, :na] = np.einsum("qj,iqk->ijk", m, table_a)
    c[na:, :na, :na] = np.einsum("pi,pjk->ijk", m, table_a)
    c[na:, na:, na:] = table_b
    return c


class ShearGap(NamedTuple):
    """Worst basis-pair deviation of the shear from an algebra hom onto A + B,
    with the first product basis pair (in C order) where it is attained."""

    residual: float
    worst_pair: tuple[int, int]


@dataclass(frozen=True)
class MorphismProduct:
    """The block product algebra of (A, B, T), A-coordinates first, with the
    ``check_hom`` report ``hom_report`` of the hom at the build tolerance."""

    a: FiniteAlgebra
    b: FiniteAlgebra
    hom: AlgebraHom
    algebra: FiniteAlgebra
    hom_report: HomValidationReport

    @property
    def dim_a(self) -> int:
        return self.a.dim

    @property
    def dim_b(self) -> int:
        return self.b.dim

    def embed_a(self, x) -> np.ndarray:
        """(x, 0); x may be a stack of columns."""
        x = as_complex(x)
        return np.concatenate([x, np.zeros((self.dim_b,) + x.shape[1:])])

    def join(self, x, y) -> np.ndarray:
        return np.concatenate([self.a.coerce(x), self.b.coerce(y)])

    @cached_property
    def shear(self) -> np.ndarray:
        """S = [[I, M], [0, I]], read-only; its rows are the multiplicative
        projections p1(a, b) = a + T(b) and p2(a, b) = b."""
        s = np.eye(self.algebra.dim, dtype=complex)
        s[: self.dim_a, self.dim_a :] = self.hom.matrix
        s.setflags(write=False)
        return s

    @cached_property
    def shear_gap(self) -> ShearGap:
        """max |S(e_p e_q) - S(e_p) S(e_q)| over the product's basis pairs, the
        right-hand products taken in the direct sum A + B: two n^4
        contractions, made once per product and read by every consumer."""
        shear = self.shear
        direct_sum = block_table(self.a.structure, self.b.structure, 0)
        images = self.algebra.structure @ shear.T
        products = np.einsum("pjk,jq->pqk", np.tensordot(shear, direct_sum, axes=(0, 0)), shear)
        gap = np.abs(images - products)
        p, q, k = np.unravel_index(np.argmax(gap), gap.shape)
        return ShearGap(float(gap[p, q, k]), (int(p), int(q)))

    def lift_first(self, phi) -> np.ndarray:
        """phi o p1 = (phi, phi o T), the product functional of a first-factor functional;
        phi may be a stack of rows."""
        phi, single = self.a.coerce_rows(phi)
        lifted = np.concatenate([phi, (self.hom.matrix.T @ phi.T).T], axis=1)
        return lifted[0] if single else lifted

    def lift_second(self, psi) -> np.ndarray:
        """psi o p2 = (0, psi), the product functional of a second-factor functional;
        psi may be a stack of rows."""
        psi, single = self.b.coerce_rows(psi)
        lifted = np.concatenate([np.zeros((len(psi), self.dim_a)), psi], axis=1)
        return lifted[0] if single else lifted

    def graph(self, big_psi) -> np.ndarray:
        """S^-1(0, Psi) = (-T''(Psi), Psi); Psi may be a stack of columns."""
        return np.concatenate([-(self.hom.matrix @ big_psi), big_psi])


def build_product(a: FiniteAlgebra, b: FiniteAlgebra, hom: AlgebraHom, tol: float) -> MorphismProduct:
    """Construct the product algebra; the hom must pass check_hom at tol and the factors be associative."""
    # endpoints are matched by identity or content: a name says nothing about the algebra
    if hom.target is not a and not same_content(hom.target, a):
        raise HomInvalid(f"hom targets {hom.target.name!r}, which is not the algebra {a.name!r}")
    if hom.source is not b and not same_content(hom.source, b):
        raise HomInvalid(f"hom sources {hom.source.name!r}, which is not the algebra {b.name!r}")
    report = check_hom(hom, tol)
    if not report.multiplicative:
        raise HomInvalid(
            f"hom {b.name!r} -> {a.name!r} fails multiplicativity (residual {hom.mult_residual:.3e})"
        )
    # with T multiplicative the product is S^-1(A + B), associative exactly when both factors are
    for factor in (a,) if b is a else (a, b):
        residual = factor.associativity_residual()
        if residual > 10 * tol:
            raise ValidationError(f"factor {factor.name!r} fails associativity (residual {residual:.3e})")
    labels = tuple(f"a:{s}" for s in a.basis_labels) + tuple(f"b:{s}" for s in b.basis_labels)
    weights = np.concatenate([a.norm_weights, b.norm_weights])
    product = FiniteAlgebra(
        name=f"prod({a.name},{b.name})",
        basis_labels=labels,
        structure=block_table(a.structure, b.structure, hom.matrix),
        norm_weights=weights,
    )
    return MorphismProduct(a=a, b=b, hom=hom, algebra=product, hom_report=report)


@dataclass
class IdealQuotientReport:
    ideal_ok: bool
    ideal_residual: float
    quotient_iso_ok: bool
    quotient_residual: float
    quotient_map: LinearMap


def ideal_and_quotient(product: MorphismProduct, tol: float) -> IdealQuotientReport:
    """Verify the A-block is a two-sided ideal and the quotient recovers B.

    The quotient map (a, b) + A -> b is realised by the block projection; it
    is an algebra isomorphism exactly when the B-block of B-by-B products
    reproduces B's structure tensor.
    """
    na = product.dim_a
    c = product.algebra.structure
    ideal_residual = max(max_abs(c[:na, :, na:]), max_abs(c[:, :na, na:]))

    quotient_residual = max_abs(c[na:, na:, na:] - product.b.structure)
    nb = product.dim_b
    qmatrix = np.zeros((nb, na + nb), dtype=complex)
    qmatrix[:, na:] = np.eye(nb)
    qmap = LinearMap(source=product.algebra.name, target=product.b.name, matrix=qmatrix)

    return IdealQuotientReport(
        ideal_ok=ideal_residual <= tol,
        ideal_residual=ideal_residual,
        quotient_iso_ok=quotient_residual <= tol,
        quotient_residual=quotient_residual,
        quotient_map=qmap,
    )
