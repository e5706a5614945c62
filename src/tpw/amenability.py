"""Derivation spaces, invariant bidual elements, and the amenability decisions.

Three decision procedures live here, each the finite-dimensional reduction of
a Banach-algebra notion:

* weak amenability: every derivation into the dual module is inner, decided
  by comparing the dimensions of the derivation space and its inner subspace;
* character amenability: a one-sided identity (the finite-dimensional stand-in
  for a bounded one-sided approximate identity) plus, for every character, an
  invariant bidual element not annihilated by it;
* character inner amenability: for every character phi, a central element m
  with <m, phi> = 1 ("phi non-vanishing on the center").

Every transfer claim asks A, B and the product the same questions, so a run
holds one ``Analysis(algebra, tol, seed)`` per algebra: the characters, the
centre, the derivations, the one-sided identities, the invariant elements
(TLI) and the three decisions, each solved on first use.  The ``is_*``
functions and ``solve_inner_mean`` are views over a fresh Analysis.

The product's analysis (``ProductAnalysis``) carries its derivation space
from its factors' through the shear S, an algebra isomorphism onto A + B,
where the Leibniz system splits into A's, B's and two cross blocks (a
derivation A -> B' vanishes on A^2 and takes values in the annihilator of
B^2, and B -> A' likewise).  So dim Der(P) = dim Der(A) + dim Der(B) +
2 codim(A^2) codim(B^2) and dim Inn(P) = dim Inn(A) + dim Inn(B).  This is
used only when the product's shear gap is within 10 tol, the bound of the
suite's shear claim; otherwise the product's own Leibniz system is solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arens import arens_tables, stacked_side_system
from .characters import CharacterEnumeration, enumerate_characters
from .core import FiniteAlgebra, center, find_left_identity, find_right_identity
from .errors import NotADerivation
from .linalg import as_complex, column_space, column_spaces, max_abs, nullspace, nullspaces, subspace_contains
from .product import MorphismProduct
from .report import CheckReport

BAI_CAVEAT = (
    "a bounded one-sided approximate identity reduces, in finite dimension, to an "
    "actual one-sided identity (any bounded net has a convergent subnet whose limit "
    "is one); the identity condition below is that reduction"
)
ZERO_CHARACTER_CAVEAT = (
    "for the zero functional the invariant-element condition is unsatisfiable and "
    "the notion reduces to the approximate-identity condition alone; the verdict "
    "treats it that way"
)
CENTER_REDUCTION_CAVEAT = (
    "an inner mean in finite dimension is a central element not annihilated by the "
    "character; feasibility is decided on the computed center"
)


@dataclass
class DerivationSpace:
    """Solutions of the Leibniz identity into the dual module, with the inner ones.

    ``parts`` is None for a space solved from the algebra's own Leibniz
    system.  For a product's space carried from its factors through the
    shear, it splits ``der_basis`` by origin: "p1" and "p2" hold the lifted
    bases of the first and the second factor, and "cross" the maps from the
    cross blocks of A + B, which no factor derivation accounts for.
    """

    algebra: FiniteAlgebra
    der_basis: tuple[np.ndarray, ...]
    inner_basis: tuple[np.ndarray, ...]
    parts: dict[str, tuple[np.ndarray, ...]] | None = None

    @property
    def dim_der(self) -> int:
        return len(self.der_basis)

    @property
    def dim_inner(self) -> int:
        return len(self.inner_basis)


# values of i per row block of the Leibniz system: one per block costs 1.3-1.4x
# the QR time of the whole system, four cost none, and more cost memory
LEIBNIZ_BLOCK_I = 4


def _leibniz_blocks(alg: FiniteAlgebra):
    """Row blocks of the Leibniz constraints on a map D: A -> A' (n^2 unknowns).

    Unknowns are D[m, k] (row-major), the m-th dual coordinate of D(e_k).
    Row (i, j, m) encodes the m-th coordinate of
    D(e_i e_j) - D(e_i).e_j - e_i.D(e_j) = 0.  Each block holds the rows of
    LEIBNIZ_BLOCK_I consecutive values of i (the last block may be short).
    The generator keeps no reference to a block it has yielded, so a consumer
    that drops the block frees it.
    """
    n = alg.dim
    return (
        _leibniz_rows(alg.structure, np.arange(start, min(start + LEIBNIZ_BLOCK_I, n)))
        for start in range(0, n, LEIBNIZ_BLOCK_I)
    )


def _leibniz_rows(c: np.ndarray, i: np.ndarray) -> np.ndarray:
    """The Leibniz rows (i, j, m) for the given consecutive values of i."""
    n = c.shape[0]
    d = np.arange(n)
    # the buffer is the transpose of the (rows, n^2) block, which is thus
    # column-major, the layout LAPACK's QR reads; it is viewed with axes
    # (i, j, m, q, k), and each term is a diagonal slice of that view, so no
    # other block-sized array is formed
    buffer = np.zeros((n * n, i.size * n * n), dtype=complex)
    block = buffer.reshape(n, n, i.size, n, n).transpose(2, 3, 4, 0, 1)
    # D(e_i e_j)_m = sum_k c[i,j,k] D[m,k]: entries q == m
    block[:, :, d, d, :] = c[i, :, None, :]
    # (D(e_i).e_j)_m = (L_j^T D(:,i))_m = sum_q c[j,m,q] D[q,i]: entries k == i
    block[i - i[0], :, :, :, i] -= c
    # (e_i.D(e_j))_m = (R_i^T D(:,j))_m = sum_q c[m,i,q] D[q,j]: entries k == j
    block[:, d, :, :, d] -= c.transpose(1, 0, 2)[i]
    return buffer.T


def _inner_map(alg: FiniteAlgebra) -> np.ndarray:
    """Matrix of f -> ad_f (flattened), ad_f(a) = a.f - f.a."""
    c = alg.structure
    # column of ad_f at basis e_k: (R_k^T - L_k^T) f; entry (m, k, p)
    return (c - c.transpose(1, 0, 2)).reshape(-1, alg.dim)


def leibniz_residual(alg: FiniteAlgebra, d: np.ndarray) -> float:
    """Worst basis-pair violation of the Leibniz identity for D: A -> A'.

    Entry (i, j, m) is the m-th coordinate of D(e_i e_j) - D(e_i).e_j - e_i.D(e_j),
    with (D(e_i).e_j)_m = sum_k c[j,m,k] D[k,i] and (e_i.D(e_j))_m = sum_k c[m,i,k] D[k,j].
    ``d`` may be a stack of maps of shape (k, n, n); the result is then the
    worst over the stack, from one contraction per term.
    """
    n = alg.dim
    c = alg.structure
    d = as_complex(d)
    d = d.reshape(n, n) if d.ndim < 3 else d
    lhs = np.einsum("...mk,ijk->...ijm", d, c)
    rhs = np.einsum("jmk,...ki->...ijm", c, d) + np.einsum("mik,...kj->...ijm", c, d)
    return max_abs(lhs - rhs)


def derivation_space(alg: FiniteAlgebra, tol: float) -> DerivationSpace:
    """Solve the stacked Leibniz system and the inner-derivation image.

    One linear system of n^3 equations in n^2 unknowns, ranks decided by the
    global singular-value cutoff; this avoids the conditioning problems of
    matching individual basis derivations.  The system is never formed
    whole: its row blocks of 4 n^2 rows are folded into one n^2 x n^2
    triangular factor by ``linalg.nullspace``, which holds about
    3 * 5 n^4 * 16 B (240 MiB at n = 32) where the whole system and the
    copies ``numpy.linalg.qr`` makes of it took 3 n^5 * 16 B (1.5 GiB).
    """
    n = alg.dim
    der_flat = nullspace(_leibniz_blocks(alg), tol, scale=alg.cutoff_scale)
    inner_flat = column_space(_inner_map(alg), tol, scale=alg.cutoff_scale)
    der = tuple(der_flat[:, k].reshape(n, n) for k in range(der_flat.shape[1]))
    inner = tuple(inner_flat[:, k].reshape(n, n) for k in range(inner_flat.shape[1]))
    return DerivationSpace(algebra=alg, der_basis=der, inner_basis=inner)


def square_annihilator(alg: FiniteAlgebra, tol: float) -> np.ndarray:
    """Orthonormal basis (columns) of the functionals that vanish on A^2.

    Row (i, j) of the system is e_i e_j, so the column count is codim(A^2).
    A weakly amenable algebra has none: if f vanishes on A^2, then
    D(x) = f(x) f is a derivation with D(x)(x) = f(x)^2, which no inner
    derivation can match, since ad_g(x)(x) = 0 for every g.
    """
    n = alg.dim
    return nullspace(alg.structure.reshape(n * n, n), tol, scale=alg.cutoff_scale)


def transported_derivation_space(product: MorphismProduct, an_a: Analysis, an_b: Analysis) -> DerivationSpace:
    """The product's derivation space, carried from the factors' through the shear.

    A map D of A + B moves to the product as S^T D S, which for a factor map
    d is p^T d p with p = p1 or p2, as in ``lift_derivation``.  The cross
    map x -> f(x) g of A + B, from A to B' for f vanishing on A^2 and g on
    B^2, moves to x -> (f o p1)(x) (g o p2); its transpose is the cross map
    from B to A'.  The basis is not orthonormal.  It is only a basis of the
    product's derivations when S is an algebra isomorphism onto A + B,
    which the caller checks.
    """
    na, n = product.dim_a, product.algebra.dim
    p1, p2 = product.shear[:na], product.shear[na:]

    def lifted(space_basis, p):
        return tuple(p.T @ d @ p for d in space_basis)

    ds_a, ds_b = an_a.derivations, an_b.derivations
    lf, lg = p1.T @ an_a.square_annihilator, p2.T @ an_b.square_annihilator
    # map [j, i] sends e_k to (f_i o p1)(e_k) (g_j o p2): its entry [m, k] is lg[m, j] lf[k, i]
    a_to_b = (lg.T[:, None, :, None] * lf.T[None, :, None, :]).reshape(-1, n, n)
    parts = {
        "p1": lifted(ds_a.der_basis, p1),
        "p2": lifted(ds_b.der_basis, p2),
        "cross": tuple(a_to_b) + tuple(a_to_b.transpose(0, 2, 1)),
    }
    return DerivationSpace(
        algebra=product.algebra,
        der_basis=parts["p1"] + parts["p2"] + parts["cross"],
        inner_basis=lifted(ds_a.inner_basis, p1) + lifted(ds_b.inner_basis, p2),
        parts=parts,
    )


def is_weakly_amenable(alg: FiniteAlgebra, tol: float) -> bool:
    """Every derivation into the dual is inner, as a rank equality."""
    return Analysis(alg, tol).weakly_amenable


def inner_derivation(alg: FiniteAlgebra, f) -> np.ndarray:
    """The matrix of ad_f : a -> a.f - f.a."""
    f = alg.coerce(f)
    return (_inner_map(alg) @ f).reshape(alg.dim, alg.dim)


def lift_derivation(d: np.ndarray, which: str, product: MorphismProduct, tol: float) -> np.ndarray:
    """Pull a factor derivation back to the product: D = P' o d o P.

    ``which`` selects p1 (a derivation of the first factor) or p2 (second
    factor).  Raises NotADerivation when the input fails the Leibniz identity
    on its own factor.
    """
    factor = product.a if which == "p1" else product.b
    d = np.asarray(d, dtype=complex).reshape(factor.dim, factor.dim)
    residual = leibniz_residual(factor, d)
    if residual > tol:
        raise NotADerivation(
            f"input map on {factor.name!r} violates the Leibniz identity (residual {residual:.3e})"
        )
    # p1 and p2, the rows of the shear, are both algebra homs of the product
    p = product.shear[: product.dim_a] if which == "p1" else product.shear[product.dim_a :]
    return p.T @ d @ p


@dataclass
class TliSolution:
    """Solution space of the invariant-element system for one character."""

    basis: np.ndarray  # n x k orthonormal columns
    exists_nonvanishing: bool

    @property
    def dim(self) -> int:
        return int(self.basis.shape[1])


def _tli_system(alg: FiniteAlgebra, phi: np.ndarray, side: str) -> np.ndarray:
    """Phi [] e_j - phi(e_j) Phi (left) or e_j [] Phi - phi(e_j) Phi (right), stacked over j.

    ``phi`` may be a stack of functionals of shape (k, n); the systems then
    come as one stack of shape (k, n^2, n): copies of the side system, each
    with phi(e_j) taken off the diagonal of block j in place.
    """
    n, phi = alg.dim, as_complex(phi)
    system = np.empty(phi.shape[:-1] + (n * n, n), dtype=complex)
    system[...] = stacked_side_system(arens_tables(alg).first, side)
    # entry (j n + i, i) of a system is its flat entry j n^2 + i (n + 1): a strided view of the diagonals
    system.reshape(phi.shape[:-1] + (n, n * n))[..., :: n + 1] -= phi[..., :, None]
    return system


def solve_tli(alg: FiniteAlgebra, phi, side: str, tol: float) -> TliSolution | tuple[TliSolution, ...]:
    """Solve Phi [] a = phi(a) Phi (left) or a [] Phi = phi(a) Phi (right).

    ``phi`` may be a verified character or the zero functional, or a stack
    of them of shape (k, n), which gives one solution per row; a single
    vector is the one-row case and gives a single solution.  The linear
    systems are slices of the first Arens table over the element basis, and
    a stack is solved as one (``linalg.nullspaces``) in parts of n rows,
    each system with the cutoff floor max(cutoff_scale, max |phi|).
    ``exists_nonvanishing`` reports whether phi fails to annihilate the
    solution space (a rank test on the pairing row).
    """
    phis, single = alg.coerce_rows(phi)
    size = np.max(np.abs(phis), axis=1)
    # n systems at a time, as many as an algebra of dim n can have characters: numpy's QR copies its
    # input, and the product's characters with both families (up to 2n systems) would peak at twice that
    scales, solutions = np.maximum(alg.cutoff_scale, size), []
    for part in (slice(start, start + alg.dim) for start in range(0, len(phis), alg.dim)):
        bases, dims = nullspaces(_tli_system(alg, phis[part], side), tol, scales[part])
        # the padding columns of ``bases`` pair to zero with every functional
        pairing = np.max(np.abs((phis[part, None, :] @ bases)[:, 0]), axis=1, initial=0.0)
        solutions += [TliSolution(basis=basis[:, :d], exists_nonvanishing=bool(nv))
                      for basis, d, nv in zip(bases, dims, pairing > tol * np.maximum(1.0, size[part]))]
    return solutions[0] if single else tuple(solutions)


def _padded(bases: list[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(n, d_i) bases as one (k, n, max d_i) stack padded with zero columns, and the d_i."""
    dims = np.array([basis.shape[1] for basis in bases], dtype=int)
    stack = np.zeros((len(bases), n, int(dims.max(initial=0))), dtype=complex)
    for row, basis in zip(stack, bases):
        row[:, : basis.shape[1]] = basis
    return stack, dims


def tli_product_characterization(product: MorphismProduct, factor_character, kind: str, tol: float, side: str = "left",
                                 factor_solution=None, product_solution=None) -> CheckReport | tuple[CheckReport, ...]:
    """Verify the invariant-element characterization for one product character.

    For a character lifted from the first factor the invariant elements with
    nonzero pairing are exactly the embedded first-factor ones (second block
    zero); for a pure second-factor character they are exactly the graphs
    (-T''(Psi), Psi) over the second factor's invariant elements.  Both
    inclusions are checked at once as subspace equality, which is equivalent
    whenever the pairing does not vanish identically on either side; when it
    vanishes on both, the characterization is vacuous and the claim is
    skipped.  ``factor_solution`` is the factor's own solution for this
    character and side, and ``product_solution`` the product's for its lift,
    when the caller holds them; otherwise they are solved here.

    ``factor_character`` may be a stack of shape (k, n), with sequences of
    solutions, which gives one report per row, checked as one stack: the
    solution spaces are padded to the widest with zero columns, which add
    nothing to a projector and fall below every cutoff, and each claimed
    family is orthonormalized at floor 0 by ``linalg.column_spaces``.
    """
    palg, n = product.algebra, product.algebra.dim
    tag = "embedded-first-factor" if kind == "lifted" else "second-factor-graph"
    factor = product.a if kind == "lifted" else product.b
    chis, single = factor.coerce_rows(factor_character)

    def given(solution, alg, fs):
        return solve_tli(alg, fs, side, tol) if solution is None else (solution,) if single else tuple(solution)

    factor_sols = given(factor_solution, factor, chis)
    prod_sols = given(product_solution, palg, product.lift_first(chis) if kind == "lifted" else product.lift_second(chis))
    f_bases, _ = _padded([sol.basis for sol in factor_sols], factor.dim)
    p_bases, p_dims = _padded([sol.basis for sol in prod_sols], n)
    k, w = f_bases.shape[0], f_bases.shape[2]
    # every claimed family as columns of one matrix: the embedded (x, 0) or the graphs (-T''(x), x)
    columns = f_bases.transpose(1, 0, 2).reshape(factor.dim, k * w)
    claimed = (product.embed_a(columns) if kind == "lifted" else product.graph(columns)).reshape(n, k, w)
    # each family's own shape is (n, dim) with dim < n, so the stack's (n, w) shape gives its cutoff
    claimed, ranks = column_spaces(claimed.transpose(1, 0, 2), tol, 0.0)
    claimed_ok, to_claimed = subspace_contains(claimed, p_bases, 100 * tol)
    prod_ok, to_prod = subspace_contains(p_bases, claimed, 100 * tol)
    same_dim = p_dims == ranks
    equal, residual = same_dim & claimed_ok & prod_ok, np.where(same_dim, np.maximum(to_claimed, to_prod), np.inf)

    reports = []
    for i, (f_sol, p_sol) in enumerate(zip(factor_sols, prod_sols)):
        report = CheckReport(subject=f"invariant elements of {palg.name} ({kind}, {side})")
        nv_prod, nv_factor = p_sol.exists_nonvanishing, f_sol.exists_nonvanishing
        report.add(f"tli/{side}/{tag}/nonvanishing-agreement", nv_prod == nv_factor,
                   witness=None if nv_prod == nv_factor else {"product": nv_prod, "factor": nv_factor},
                   detail="an invariant element with nonzero pairing exists on one level iff on the other")
        if nv_prod or nv_factor:
            report.add(f"tli/{side}/{tag}/solution-space-equality", bool(equal[i]), residual=float(residual[i]),
                       witness=None if equal[i] else {"product_dim": p_sol.dim, "claimed_dim": int(ranks[i])},
                       detail="product-level solutions coincide with the characterized family")
        else:
            report.skip(f"tli/{side}/{tag}/solution-space-equality",
                        detail="pairing vanishes on both solution spaces; the characterization is vacuous here")
        reports.append(report)
    return reports[0] if single else tuple(reports)


@dataclass
class CharacterAmenability:
    """Decision (True / False / None=unknown) with its supporting evidence."""

    algebra: FiniteAlgebra
    side: str
    verdict: bool | None
    identity_exists: bool
    enumeration: CharacterEnumeration
    failing_character: np.ndarray | None
    caveats: tuple[str, ...]


@dataclass
class CharacterInnerAmenability:
    """Decision (True / False / None=unknown), with the centre the means were sought in."""

    algebra: FiniteAlgebra
    verdict: bool | None
    enumeration: CharacterEnumeration
    center: np.ndarray
    failing_character: np.ndarray | None
    caveats: tuple[str, ...]


def _for_every_character(enum: CharacterEnumeration, holds) -> tuple[bool | None, np.ndarray | None]:
    """Verdict of a condition required of every character, given whether it ``holds`` for
    each enumerated one, and the first failing character.  A failing verified character
    refutes soundly; otherwise an incomplete enumeration leaves the verdict unknown."""
    failing = next((ch.functional for ch, ok in zip(enum.characters, holds) if not ok), None)
    if failing is not None:
        return False, failing
    return (True if enum.complete else None), None


@dataclass(frozen=True)
class Analysis:
    """The per-algebra facts of one run, each solved on first use and then kept.

    Each fact goes through its named solver once.  Only results are kept,
    never a solver's system, and nothing outlives the object.
    """

    algebra: FiniteAlgebra
    tol: float
    seed: int = 0

    @cached_property
    def characters(self) -> CharacterEnumeration:
        return enumerate_characters(self.algebra, self.tol, self.seed)

    @cached_property
    def center(self) -> np.ndarray:
        return center(self.algebra, self.tol)

    @cached_property
    def derivations(self) -> DerivationSpace:
        return derivation_space(self.algebra, self.tol)

    @cached_property
    def square_annihilator(self) -> np.ndarray:
        return square_annihilator(self.algebra, self.tol)

    @cached_property
    def left_identity(self) -> np.ndarray | None:
        return find_left_identity(self.algebra, self.tol)

    @cached_property
    def right_identity(self) -> np.ndarray | None:
        return find_right_identity(self.algebra, self.tol)

    @cached_property
    def tli_functionals(self) -> np.ndarray:
        """The functionals whose invariant elements are solved, as one stack: the enumerated characters."""
        return self.characters.functionals

    @cached_property
    def left_tli(self) -> tuple[TliSolution, ...]:
        return solve_tli(self.algebra, self.tli_functionals, "left", self.tol)

    @cached_property
    def right_tli(self) -> tuple[TliSolution, ...]:
        return solve_tli(self.algebra, self.tli_functionals, "right", self.tol)

    def tli(self, side: str) -> tuple[TliSolution, ...]:
        """Invariant-element solutions on ``side``, one per enumerated character."""
        return (self.left_tli if side == "left" else self.right_tli)[: len(self.characters)]

    @cached_property
    def weakly_amenable(self) -> bool:
        return self.derivations.dim_der == self.derivations.dim_inner

    def character_amenability(self, side: str) -> CharacterAmenability:
        """One-sided identity plus a nonvanishing invariant element per character."""
        enum, caveats = self.characters, (BAI_CAVEAT, ZERO_CHARACTER_CAVEAT)
        if (self.left_identity if side == "left" else self.right_identity) is None:
            return CharacterAmenability(self.algebra, side, False, False, enum, None, caveats)
        verdict, failing = _for_every_character(enum, (sol.exists_nonvanishing for sol in self.tli(side)))
        return CharacterAmenability(self.algebra, side, verdict, True, enum, failing, caveats)

    def inner_means(self, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The minimal-norm central m with <m, phi> = 1 for each row phi of a (k, n) stack,
        from one contraction with the centre, and whether each exists (rows without one are zero)."""
        pair = phis @ self.center
        feasible = np.max(np.abs(pair), axis=1, initial=0.0) > self.tol * np.maximum(1.0, np.max(np.abs(phis), axis=1))
        coeffs = pair.conj() / np.where(feasible, np.real(np.sum(pair * pair.conj(), axis=1)), 1.0)[:, None]
        return np.where(feasible[:, None], coeffs @ self.center.T, 0.0), feasible

    def inner_mean(self, phi) -> np.ndarray | None | tuple[np.ndarray | None, ...]:
        """Minimal-norm central m with <m, phi> = 1, or None when infeasible; for a stack
        of shape (k, n), one per row, from ``inner_means``."""
        phis, single = self.algebra.coerce_rows(phi)
        means = tuple(m if ok else None for m, ok in zip(*self.inner_means(phis)))
        return means[0] if single else means

    @cached_property
    def character_inner_amenability(self) -> CharacterInnerAmenability:
        """An inner mean for every character; unknown when enumeration is incomplete."""
        enum = self.characters
        means = self.inner_mean(enum.functionals)
        verdict, failing = _for_every_character(enum, (m is not None for m in means))
        return CharacterInnerAmenability(self.algebra, verdict, enum, self.center, failing, (CENTER_REDUCTION_CAVEAT,))


class ProductAnalysis(Analysis):
    """The analysis of ``product.algebra``, which also holds the product and its factors' analyses.

    Its derivation space is carried from the factors' through the shear when
    the product's shear gap is within 10 tol; otherwise it is solved from the
    product's own Leibniz system.  Its invariant elements are solved for its
    characters and the lifted and pure families in one stack per side.
    """

    def __init__(self, product: MorphismProduct, factors: tuple[Analysis, Analysis], tol: float, seed: int = 0):
        super().__init__(product.algebra, tol, seed)
        object.__setattr__(self, "product", product)  # Analysis is frozen
        object.__setattr__(self, "factors", factors)

    @cached_property
    def families(self) -> tuple[np.ndarray, np.ndarray]:
        """The lifted family (phi, phi o T) and the pure family (0, psi) of the factors' characters, as stacks."""
        an_a, an_b = self.factors
        return self.product.lift_first(an_a.characters.functionals), self.product.lift_second(an_b.characters.functionals)

    @cached_property
    def tli_functionals(self) -> np.ndarray:
        """The enumerated characters, then the lifted and the pure family: one invariant-element stack per side."""
        return np.vstack([self.characters.functionals, *self.families])

    def family_tli(self, side: str) -> tuple[tuple[TliSolution, ...], tuple[TliSolution, ...]]:
        """The invariant-element solutions of the lifted and of the pure family on ``side``."""
        solutions, start = self.left_tli if side == "left" else self.right_tli, len(self.characters)
        middle = start + len(self.families[0])
        return solutions[start:middle], solutions[middle:]

    @cached_property
    def derivations(self) -> DerivationSpace:
        if self.product.shear_gap.residual <= 10 * self.tol:
            return transported_derivation_space(self.product, *self.factors)
        return derivation_space(self.algebra, self.tol)


def product_analyses(product: MorphismProduct, tol: float, seed: int = 0) -> tuple[Analysis, Analysis, Analysis]:
    """Fresh analyses of the first factor, the second factor and the product algebra;
    when both factors are one object, they share one analysis."""
    an_a = Analysis(product.a, tol, seed)
    an_b = an_a if product.b is product.a else Analysis(product.b, tol, seed)
    return an_a, an_b, ProductAnalysis(product, (an_a, an_b), tol, seed)


def is_character_amenable(alg: FiniteAlgebra, side: str, tol: float, seed: int = 0) -> CharacterAmenability:
    """One-sided identity plus a nonvanishing invariant element per character."""
    return Analysis(alg, tol, seed).character_amenability(side)


def is_character_inner_amenable(alg: FiniteAlgebra, tol: float, seed: int = 0) -> CharacterInnerAmenability:
    """An inner mean for every character; unknown when enumeration is incomplete."""
    return Analysis(alg, tol, seed).character_inner_amenability


def solve_inner_mean(alg: FiniteAlgebra, phi, tol: float) -> np.ndarray | None:
    """Minimal-norm central m with <m, phi> = 1, or None when infeasible."""
    return Analysis(alg, tol).inner_mean(phi)


def commutation_residual(alg: FiniteAlgebra, m) -> float | np.ndarray:
    """Worst deviation of m [] a from a [] m over the element basis.

    ``m`` may be a stack of shape (k, n), which gives one residual per row
    from one product with the commutator system.
    """
    first = arens_tables(alg).first
    commutator = stacked_side_system(first, "left") - stacked_side_system(first, "right")
    ms, single = alg.coerce_rows(m)
    worst = np.max(np.abs(ms @ commutator.T), axis=1, initial=0.0)
    return float(worst[0]) if single else worst


def _mean_witness_checks(report: CheckReport, witnesses: list, tol: float):
    """Record pairing-equals-one and commutation residuals for each (algebra, claim, mean,
    character) witness: one pairing and one commutator system per algebra for all of its."""
    for alg in {id(w[0]): w[0] for w in witnesses}.values():
        _, claims, means, chars = zip(*(w for w in witnesses if w[0] is alg))
        means = np.array(means)
        pairings, comms = np.sum(means * np.array(chars), axis=1), commutation_residual(alg, means)
        for claim, mean, pairing, comm in zip(claims, means, pairings.tolist(), comms.tolist()):
            ok = abs(pairing - 1.0) <= 10 * tol and comm <= 10 * tol
            report.add(claim, ok, residual=max(abs(pairing - 1.0), comm),
                       witness=None if ok else {"pairing": pairing, "commutation_residual": comm, "mean": mean},
                       detail="mean pairs to 1 with the character and commutes with every element")


def _means_agree(report: CheckReport, claim: str, factor_has: bool, product_has: bool, detail: str):
    """Record that the factor and the product both have a mean or both lack one."""
    ok = factor_has == product_has
    report.add(claim, ok, witness=None if ok else {"factor_amenable": bool(factor_has),
                                                   "product_amenable": bool(product_has)}, detail=detail)


def add_transfer_claim(report: CheckReport, claim: str, verdicts: tuple, detail: str, unknown_detail: str):
    """Record "the product has the property iff both factors do" from the (A, B, product) verdicts."""
    first, second, prod = verdicts
    if None in verdicts:
        report.add(claim, None, detail=unknown_detail)
        return
    ok = prod == (first and second)
    report.add(claim, ok, detail=detail,
               witness=None if ok else {"product": prod, "first_factor": first, "second_factor": second})


def inner_amenability_suite(product: MorphismProduct, tol: float, seed: int = 0,
                            analyses: tuple[Analysis, Analysis, ProductAnalysis] | None = None) -> CheckReport:
    """Verify the inner-mean transfer claims between the product and its factors.

    Per first-factor character phi (with its lift (phi, phi o T)):
      [a] the factor and the product are inner amenable together;
      [b] the explicit witnesses (m, 0) and m + T''(n) are means;
      [c] a product mean whose second block does not annihilate phi o T
          normalizes to a second-factor mean;
      [d] for onto homs, a second-factor mean embeds as (0, n).
    Per second-factor character psi (with its lift (0, psi)):
      [e] the product and the second factor are inner amenable together, with
          witnesses (-T''(n), n) and the mean's second block.
    Finally [f]: the product is character inner amenable iff both factors are.
    ``analyses`` are the run's ``product_analyses`` of (A, B, product), or None for fresh ones.
    """
    palg = product.algebra
    a_alg, b_alg = product.a, product.b
    report = CheckReport(subject=f"inner amenability transfer for {palg.name}")
    report.caveat(CENTER_REDUCTION_CAVEAT)
    report.caveat(BAI_CAVEAT)

    an_a, an_b, an_p = analyses or product_analyses(product, tol, seed)
    sigma_a, sigma_b = an_a.characters, an_b.characters
    epi, na, ka = product.hom_report.surjective, product.dim_a, len(sigma_a)
    phis, psis, (lifted, pure) = sigma_a.functionals, sigma_b.functionals, an_p.families
    phi_ts = lifted[:, na:]
    # every mean the claims ask for, one contraction per algebra: the product's for the lifted and
    # the pure characters, the second factor's for the pulled-back phi o T and for its own psi
    a_means, a_ok = an_a.inner_means(phis)
    p_means, p_ok = an_p.inner_means(np.vstack([lifted, pure]))
    b_means, b_ok = an_b.inner_means(np.vstack([phi_ts, psis]))
    n_pairs = np.sum(p_means[:ka, na:] * phi_ts, axis=1)
    witnesses = []  # (algebra, claim, mean, character)
    witness = witnesses.append
    for idx in range(ka):
        label = f"inner/first-factor-character-{idx}"
        _means_agree(report, f"{label}/equivalence", a_ok[idx], p_ok[idx],
                     "the factor has a mean for phi iff the product has one for the lifted character")
        if a_ok[idx]:
            witness((palg, f"{label}/witness-embedded-factor-mean", product.embed_a(a_means[idx]), lifted[idx]))
        else:
            report.skip(f"{label}/witness-embedded-factor-mean", detail="factor has no mean to embed")
        if p_ok[idx]:
            witness((a_alg, f"{label}/witness-combined-blocks", product.p1(p_means[idx]), phis[idx]))
            if abs(n_pairs[idx]) > tol * max(1.0, max_abs(phi_ts[idx])):
                witness((b_alg, f"{label}/witness-normalized-second-block", p_means[idx, na:] / n_pairs[idx],
                         phi_ts[idx]))
            else:
                report.skip(f"{label}/witness-normalized-second-block",
                            detail="second block annihilates the pulled-back character; claim not applicable")
        else:
            report.skip(f"{label}/witness-combined-blocks", detail="product has no mean to split")
            report.skip(f"{label}/witness-normalized-second-block", detail="product has no mean to split")
        if not epi:
            report.skip(f"{label}/witness-embedded-second-mean", detail="not applicable: hom is not onto")
        elif b_ok[idx]:
            witness((palg, f"{label}/witness-embedded-second-mean", product.join(np.zeros(na), b_means[idx]),
                     lifted[idx]))
        else:
            report.skip(f"{label}/witness-embedded-second-mean",
                        detail="second factor has no mean for the pulled-back character")

    for idx in range(len(sigma_b)):
        label, row = f"inner/second-factor-character-{idx}", ka + idx
        _means_agree(report, f"{label}/equivalence", b_ok[row], p_ok[row],
                     "the product has a mean for (0, psi) iff the second factor has one for psi")
        if b_ok[row]:
            witness((palg, f"{label}/witness-graph-embedding", product.graph(b_means[row]), pure[idx]))
        else:
            report.skip(f"{label}/witness-graph-embedding", detail="second factor has no mean to embed")
        if p_ok[row]:
            witness((b_alg, f"{label}/witness-second-block", p_means[row, na:], psis[idx]))
        else:
            report.skip(f"{label}/witness-second-block", detail="product has no mean to split")

    _mean_witness_checks(report, witnesses, tol)
    add_transfer_claim(
        report, "inner/character-inner-amenability-equivalence",
        tuple(an.character_inner_amenability.verdict for an in (an_a, an_b, an_p)),
        "the product is character inner amenable iff both factors are",
        "some character enumeration is incomplete",
    )
    if not (sigma_a.complete and sigma_b.complete):
        report.caveat("a factor character enumeration is incomplete; per-character claims cover only verified characters")
    return report
