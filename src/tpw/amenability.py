"""Derivation spaces, invariant bidual elements, and the amenability decisions.

Three decision procedures live here, each the finite-dimensional reduction of
a Banach-algebra notion:

* weak amenability: every derivation into the dual module is inner, decided
  by comparing the dimensions of the derivation space and its inner subspace;
  a semisimple algebra, whose trace form gives rad A = 0 at tol
  (``characters.radical``), takes its space from the inner map, since
  Der = Inn there, and any other solves its Leibniz system;
* character amenability: a one-sided identity (the finite-dimensional stand-in
  for a bounded one-sided approximate identity) plus, for every character, an
  invariant bidual element not annihilated by it;
* character inner amenability: for every character phi, a central element m
  with <m, phi> = 1 ("phi non-vanishing on the center").

Every transfer claim asks A, B and the product the same questions, so a run
holds one ``Analysis(algebra, tol, seed)`` per algebra: the characters, the
centre, the derivations, the one-sided identities, the invariant elements
(TLI) and the three decisions, each solved on first use.  The ``is_*``
functions and ``solve_inner_mean`` are views over a fresh Analysis.  The
inner-mean transfer claims (``inner_amenability_suite``) take every mean
from one contraction per algebra and check each witness claim kind as one
masked stack.

The product's analysis (``ProductAnalysis``) carries its derivation space
from its factors' through the shear S, an algebra isomorphism onto A + B,
where the Leibniz system splits into A's, B's and two cross blocks (a
derivation A -> B' vanishes on A^2 and takes values in the annihilator of
B^2, and B -> A' likewise).  So dim Der(P) = dim Der(A) + dim Der(B) +
2 codim(A^2) codim(B^2) and dim Inn(P) = dim Inn(A) + dim Inn(B).  This is
used only when the product's shear gap is within 10 tol, the bound of the
suite's shear claim; otherwise the product's own space is found as any
algebra's is.  So a product of semisimple factors takes the inner map's
space through its factors, or through its own trace form.
The product's character decomposition (``ProductAnalysis.decomposition``) is
one fact of the run: the product solves the invariant elements of its own
characters, as every algebra does, and each member of the lifted and the
pure family takes the solution of the character it matches within 10 tol.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arens import arens_tables, stacked_side_system
from .characters import (CharacterEnumeration, ProductCharacterReport, character_decomposition, enumerate_characters,
                         radical)
from .core import FiniteAlgebra, center, find_left_identity, find_right_identity
from .errors import NotADerivation
from .linalg import (SKETCH_STREAM, as_complex, column_space, column_spaces, complex_gaussians, max_abs, nullspace,
                     nullspaces, sketched_nullspace, subspace_contains)
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

    ``parts`` is None for an algebra's own space.  For a product's space
    carried from its factors through the shear, it splits ``der_basis`` by
    origin: "p1" and "p2" hold the lifted bases of the first and the second
    factor, and "cross" the maps from the cross blocks of A + B, which no
    factor derivation accounts for.
    ``semisimple`` is True when rad A = 0 decided the space: ``der_basis``
    is then ``inner_basis``, and no Leibniz system was solved.
    """

    algebra: FiniteAlgebra
    der_basis: tuple[np.ndarray, ...]
    inner_basis: tuple[np.ndarray, ...]
    parts: dict[str, tuple[np.ndarray, ...]] | None = None
    semisimple: bool = False

    @property
    def dim_der(self) -> int:
        return len(self.der_basis)

    @property
    def dim_inner(self) -> int:
        return len(self.inner_basis)


# random elements per Leibniz sketch: with one, its kernel was up to 3x too large on T_k and M_k
SKETCH_DRAWS = 2

# entries of a two-sided ``solve_tli`` stack above which one stack per side is faster: both sides of the
# ladder's dim-8 product (8192 entries) solve faster as one stack, those of its dim-10 product (20000) slower
TLI_STACK_ENTRIES = 16384


def _leibniz_map(c: np.ndarray, d: np.ndarray, i: slice = slice(None)) -> np.ndarray:
    """The Leibniz system applied to maps D: A -> A', one matmul per term, on the rows (i, j, m)
    with the basis indices i of the slice ``i``.

    ``d`` has shape (..., n, n), with d[m, k] the m-th dual coordinate of D(e_k).
    Entry (..., i, j, m) of the result is the m-th coordinate of
    D(e_i e_j) - D(e_i).e_j - e_i.D(e_j).
    """
    n, rows = c.shape[0], c[i]
    dt, cube = d.swapaxes(-1, -2), d.shape[:-2] + rows.shape
    # D(e_i e_j)_m = sum_k c[i,j,k] D[m,k]
    out = (rows.reshape(-1, n) @ dt).reshape(cube)
    # (D(e_i).e_j)_m = sum_k c[j,m,k] D[k,i]
    out -= (dt[..., i, :] @ c.reshape(n * n, n).T).reshape(cube)
    # (e_i.D(e_j))_m = sum_k c[m,i,k] D[k,j], computed with axes (i, m, j)
    out -= (c[:, i].transpose(1, 0, 2).reshape(-1, n) @ d).reshape(cube).swapaxes(-1, -2)
    return out


def _leibniz_adjoint(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The conjugate transpose of ``_leibniz_map``: a vector y over (i, j, m) to the flat n x n map."""
    n = c.shape[0]
    flat, y = c.reshape(n * n, n).conj(), y.reshape(n, n, n)
    g = y.reshape(n * n, n).T @ flat
    g -= (y.reshape(n, n * n) @ flat).T
    g -= flat.T @ y.transpose(2, 0, 1).reshape(n * n, n)
    return g.reshape(-1)


def _leibniz_sketch(c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """For an element a, the n^2 x n^2 matrix of D -> D(a e_j) - D(a).e_j - a.D(e_j), rows (j, m)
    and columns (q, k) for D[q, k]: the sum over i of a_i times row block i of the Leibniz
    system, formed from a.e_j, e_m.a and the structure tensor."""
    n, d = c.shape[0], np.arange(c.shape[0])
    # axes (j, m, q, k); D(a).e_j: sum_q c[j,m,q] D[q,k] a_k
    block = -c[:, :, :, None] * a
    # D(a.e_j)_m = sum_k (a.e_j)_k D[m,k]: entries q == m
    block[:, d, d, :] += (a @ c.reshape(n, n * n)).reshape(n, 1, n)
    # (a.D(e_j))_m = sum_q (e_m.a)_q D[q,j]: entries k == j
    block[d, :, :, d] -= (a @ c.transpose(1, 0, 2).reshape(n, n * n)).reshape(n, n)
    return block.reshape(n * n, n * n)


def _unit_elements(n: int, count: int, seed: int) -> np.ndarray:
    """``count`` standard complex Gaussian elements, scaled to unit norm, drawn from ``seed``."""
    a = complex_gaussians(seed, SKETCH_STREAM, (count, n))
    return a / np.sqrt(np.sum(np.abs(a) ** 2, axis=1, keepdims=True))


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
    worst over the stack, from one matmul per term.
    """
    n = alg.dim
    d = as_complex(d)
    return max_abs(_leibniz_map(alg.structure, d.reshape(n, n) if d.ndim < 3 else d))


def derivation_space(alg: FiniteAlgebra, tol: float, seed: int = 0) -> DerivationSpace:
    """The derivations into the dual module and their inner subspace.

    When the trace form gives rad A = 0 at tol (``characters.radical``), A
    is semisimple, so amenable, and every derivation into A' is inner
    (B. E. Johnson, Mem. AMS 127, 1972): the space is the inner map's column
    space, with no Leibniz system.  Otherwise ``_leibniz_space`` solves the
    Leibniz system.  The form is quadratic in the structure constants, so a
    direction of size eps shows in it as eps^2, and its cut at tol asks more
    than the Leibniz system's, which sees eps: an algebra within about
    sqrt(tol) of one with a radical takes the Leibniz system.
    """
    if radical(alg, tol).shape[1]:
        return _leibniz_space(alg, tol, seed)
    inner = _inner_basis(alg, tol)
    return DerivationSpace(algebra=alg, der_basis=inner, inner_basis=inner, semisimple=True)


def _inner_basis(alg: FiniteAlgebra, tol: float) -> tuple[np.ndarray, ...]:
    """An orthonormal basis of the inner derivations, the inner map's column space, as n x n maps."""
    n, flat = alg.dim, column_space(_inner_map(alg), tol, scale=alg.cutoff_scale)
    return tuple(flat[:, k].reshape(n, n) for k in range(flat.shape[1]))


def _leibniz_space(alg: FiniteAlgebra, tol: float, seed: int = 0) -> DerivationSpace:
    """Solve the Leibniz system and the inner-derivation image.

    The Leibniz system has n^3 equations (i, j, m) in the n^2 unknowns D[m, k],
    one n^2 x n^2 row block per basis element e_i, and its rank is decided by
    one global singular-value cutoff; this avoids the conditioning problems of
    matching individual basis derivations.  The system is never formed:
    ``linalg.sketched_nullspace`` takes the kernel V of the blocks of
    SKETCH_DRAWS unit random elements drawn from ``seed`` (``_leibniz_sketch``,
    n^2 x n^2 each), then decides the kernel of the system restricted to V,
    under the whole system's cutoff cut.  The system is applied by the matmuls
    of ``leibniz_residual``.  The space does not depend on the seed; its basis,
    and the cost, do.  V is every eigenvector of the blocks' n^2 x n^2 Gram
    matrix, summed one block at a time, with eigenvalue at most
    tau = max(2 cut^2, tau_acc), and tau_acc keeps each null direction of the
    system within cut / 10 of V despite the Gram matrix's rounding; the
    eigensolve, O(n^6) against O(n^7) for a QR of the whole system, sets the
    peak.  The restricted system, n^3 x dim V, is applied to as many basis
    indices i at a time (n^2 rows each) as fit in n^4 entries and folded into
    its R factor, so it is formed whole only when it is that small, and not
    when every map is a derivation.  It is the oracle of the semisimple case
    of ``derivation_space`` in the tests.
    """
    n, c = alg.dim, alg.structure
    der_flat = sketched_nullspace(
        lambda: (_leibniz_sketch(c, a) for a in _unit_elements(n, SKETCH_DRAWS, seed)),
        lambda x, i: _leibniz_map(c, x.T.reshape(-1, n, n), i).reshape(x.shape[1], -1).T,
        lambda y: _leibniz_adjoint(c, y),
        (n**3, n * n), tol, scale=alg.cutoff_scale,
    )
    der = tuple(der_flat[:, k].reshape(n, n) for k in range(der_flat.shape[1]))
    return DerivationSpace(algebra=alg, der_basis=der, inner_basis=_inner_basis(alg, tol))


def square_annihilator(alg: FiniteAlgebra, tol: float) -> np.ndarray:
    """Orthonormal basis (columns) of the functionals that vanish on A^2.

    Row (i, j) of the system is e_i e_j, so the column count is codim(A^2).
    A weakly amenable algebra has none: if f vanishes on A^2, then
    D(x) = f(x) f is a derivation with D(x)(x) = f(x)^2, which no inner
    derivation can match, since ad_g(x)(x) = 0 for every g.
    """
    n = alg.dim
    return nullspace(alg.structure.reshape(n * n, n), tol, scale=alg.cutoff_scale)


def _lifted(maps, which: str, product: MorphismProduct) -> np.ndarray:
    """P' o d o P = p^T d p for each map d of a factor's (k, m, m) stack, as one broadcast product,
    where p is p1 (``which`` "p1", the first factor) or p2: rows of the shear, both algebra homs."""
    p = product.shear[: product.dim_a] if which == "p1" else product.shear[product.dim_a :]
    return p.T @ np.reshape(maps, (-1, len(p), len(p))) @ p


def transported_derivation_space(product: MorphismProduct, an_a: Analysis, an_b: Analysis) -> DerivationSpace:
    """The product's derivation space, carried from the factors' through the shear.

    A map D of A + B moves to the product as S^T D S, which for a factor map
    d is p^T d p with p = p1 or p2, taken for a factor's whole basis as one
    broadcast product (``_lifted``).  The cross map x -> f(x) g of A + B,
    from A to B' for f vanishing on A^2 and g on B^2, moves to
    x -> (f o p1)(x) (g o p2); its transpose is the cross map from B to A'.
    The basis is not orthonormal.  It is only a basis of the
    product's derivations when S is an algebra isomorphism onto A + B,
    which the caller checks.
    """
    na, n = product.dim_a, product.algebra.dim
    p1, p2 = product.shear[:na], product.shear[na:]
    ds_a, ds_b = an_a.derivations, an_b.derivations
    lf, lg = p1.T @ an_a.square_annihilator, p2.T @ an_b.square_annihilator
    # map [j, i] sends e_k to (f_i o p1)(e_k) (g_j o p2): its entry [m, k] is lg[m, j] lf[k, i]
    a_to_b = (lg.T[:, None, :, None] * lf.T[None, :, None, :]).reshape(-1, n, n)
    parts = {
        "p1": tuple(_lifted(ds_a.der_basis, "p1", product)),
        "p2": tuple(_lifted(ds_b.der_basis, "p2", product)),
        "cross": tuple(a_to_b) + tuple(a_to_b.transpose(0, 2, 1)),
    }
    return DerivationSpace(
        algebra=product.algebra,
        der_basis=parts["p1"] + parts["p2"] + parts["cross"],
        inner_basis=(*_lifted(ds_a.inner_basis, "p1", product), *_lifted(ds_b.inner_basis, "p2", product)),
        parts=parts,
    )


def is_weakly_amenable(alg: FiniteAlgebra, tol: float) -> bool:
    """Every derivation into the dual is inner, as a rank equality."""
    return Analysis(alg, tol).weakly_amenable


def lift_derivation(d: np.ndarray, which: str, product: MorphismProduct, tol: float) -> np.ndarray:
    """Pull a factor derivation back to the product: D = P' o d o P, the one-map case of ``_lifted``.

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
    return _lifted(d, which, product)[0]


@dataclass
class TliSolution:
    """Solution space of the invariant-element system for one character."""

    basis: np.ndarray  # n x k orthonormal columns
    exists_nonvanishing: bool

    @property
    def dim(self) -> int:
        return int(self.basis.shape[1])


def _tli_system(alg: FiniteAlgebra, phi: np.ndarray, sides: tuple[str, ...]) -> np.ndarray:
    """Phi [] e_j - phi(e_j) Phi (left) or e_j [] Phi - phi(e_j) Phi (right), stacked over j, per side.

    ``phi`` may be a stack of functionals of shape (k, n); the systems then
    come as one stack of shape (len(sides), k, n^2, n): copies of each side's
    system, each with phi(e_j) taken off the diagonal of block j in place.
    """
    n, phi = alg.dim, as_complex(phi)
    system = np.empty((len(sides),) + phi.shape[:-1] + (n * n, n), dtype=complex)
    for block, side in zip(system, sides):
        block[...] = stacked_side_system(arens_tables(alg).first, side)
    # entry (j n + i, i) of a system is its flat entry j n^2 + i (n + 1): a strided view of the diagonals
    system.reshape(system.shape[:-2] + (n, n * n))[..., :: n + 1] -= phi[..., :, None]
    return system


def solve_tli(alg: FiniteAlgebra, phi, side, tol: float):
    """Solve Phi [] a = phi(a) Phi (left) or a [] Phi = phi(a) Phi (right).

    ``phi`` may be a verified character or the zero functional, or a stack
    of them of shape (k, n), which gives one solution per row; a single
    vector is the one-row case and gives a single solution.  A tuple of
    sides gives one result per side.  The linear systems are slices of the
    first Arens table over the element basis, solved as one stack
    (``linalg.nullspaces``), or one per side past ``TLI_STACK_ENTRIES``,
    each with the cutoff floor max(cutoff_scale, max |phi|).  A stack holds
    at most n rows per side: distinct characters are linearly independent.
    ``exists_nonvanishing`` reports whether phi fails to annihilate the
    solution space (a rank test on the pairing row).
    """
    phis, single = alg.coerce_rows(phi)
    sides = (side,) if isinstance(side, str) else side
    (k, n), size = phis.shape, np.tile(np.max(np.abs(phis), axis=1), len(sides))
    rows, floors, solutions = np.tile(phis, (len(sides), 1)), np.maximum(alg.cutoff_scale, size), []
    for group in [(one,) for one in sides] if len(sides) * k * n**3 > TLI_STACK_ENTRIES else [sides]:
        m = len(group) * k
        bases, dims = nullspaces(_tli_system(alg, phis, group).reshape(-1, n * n, n), tol, floors[:m])
        # the padding columns of ``bases`` pair to zero with every functional
        pairing = np.abs((rows[:m, None, :] @ bases)[:, 0]).max(axis=1, initial=0.0)
        solutions += [TliSolution(basis=basis[:, basis.shape[1] - d :], exists_nonvanishing=bool(nv))
                      for basis, d, nv in zip(bases, dims, pairing > tol * np.maximum(1.0, size[:m]))]
    per_side = tuple(solutions[i * k] if single else tuple(solutions[i * k : (i + 1) * k]) for i in range(len(sides)))
    return per_side[0] if isinstance(side, str) else per_side


def _padded(bases: list[np.ndarray], n: int) -> np.ndarray:
    """(n, d_i) bases as one (k, n, max d_i) stack padded with zero columns."""
    stack = np.zeros((len(bases), n, max((basis.shape[1] for basis in bases), default=0)), dtype=complex)
    for row, basis in zip(stack, bases):
        row[:, : basis.shape[1]] = basis
    return stack


def tli_product_characterization(product: MorphismProduct, factor_character, kind, tol: float, side="left",
                                 solutions=None, report: CheckReport | None = None, prefix: str = "") -> CheckReport:
    """Verify the invariant-element characterization for product characters.

    For a character lifted from the first factor the invariant elements with
    nonzero pairing are exactly the embedded first-factor ones (second block
    zero); for a pure second-factor character they are exactly the graphs
    (-T''(Psi), Psi) over the second factor's invariant elements.  Both
    inclusions are checked at once as subspace equality, which is equivalent
    whenever the pairing does not vanish identically on either side; when it
    vanishes on both, the characterization is vacuous and the claim is
    skipped.  Spaces of different dimensions fail with no residual.

    ``factor_character`` is a character of the factor of ``kind`` or a (k, m)
    stack; with tuples of kinds (a stack each) and of sides, every pair is
    checked, from the caller's ``solutions`` of each (kind, side) if given.
    All rows are checked as one stack, padded to the widest space with zero
    columns, which fall below every cutoff; each claimed family is
    orthonormalized at floor 0 by ``linalg.column_spaces``.  The verdicts go
    to ``report``, or a new one, each claim after ``prefix`` formatted with
    the row's ``family`` and ``index``.
    """
    palg, n = product.algebra, product.algebra.dim
    kind, factor_character = ((kind,), (factor_character,)) if isinstance(kind, str) else (kind, factor_character)
    sides = (side,) if isinstance(side, str) else side
    report = report or CheckReport(subject=f"invariant elements of {palg.name} ({'/'.join(kind)}, {'/'.join(sides)})")
    rows, claimed = [], []  # rows: (kind, side, index, factor solution, product solution)
    for one, chis in zip(kind, factor_character):
        factor = product.a if one == "lifted" else product.b
        if solutions is None:
            chis = factor.coerce_rows(chis)[0]
            lifts = product.lift_first(chis) if one == "lifted" else product.lift_second(chis)
            pairs = zip(solve_tli(factor, chis, sides, tol), solve_tli(palg, lifts, sides, tol))
        else:
            pairs = (solutions[one, s] for s in sides)
        start = len(rows)
        rows += [(one, s, idx, f, p) for s, pair in zip(sides, pairs) for idx, (f, p) in enumerate(zip(*pair))]
        # every claimed family of the kind as columns of one matrix: the embedded (x, 0) or the graphs (-T''(x), x)
        f_bases = _padded([row[3].basis for row in rows[start:]], factor.dim)
        columns = f_bases.transpose(1, 0, 2).reshape(factor.dim, -1)
        family = product.embed_a(columns) if one == "lifted" else product.graph(columns)
        claimed += list(family.reshape(n, len(f_bases), f_bases.shape[2]).transpose(1, 0, 2))
    p_bases = _padded([row[4].basis for row in rows], n)
    # each family's own shape is (n, dim) with dim < n, so the stack's (n, w) shape gives its cutoff
    claimed, ranks = column_spaces(_padded(claimed, n), tol, 0.0)
    claimed_ok, to_claimed = subspace_contains(claimed, p_bases, 100 * tol)
    prod_ok, to_prod = subspace_contains(p_bases, claimed, 100 * tol)
    residuals = np.maximum(to_claimed, to_prod).tolist()
    for (one, s, idx, f_sol, p_sol), rank, ok, residual in zip(rows, ranks.tolist(), claimed_ok & prod_ok, residuals):
        tag, family = {"lifted": ("embedded-first-factor", "first-factor"),
                       "pure": ("second-factor-graph", "second-factor")}[one]
        claim = prefix.format(family=family, index=idx) + f"tli/{s}/{tag}/"
        nv_prod, nv_factor = p_sol.exists_nonvanishing, f_sol.exists_nonvanishing
        report.add(claim + "nonvanishing-agreement", nv_prod == nv_factor,
                   witness=None if nv_prod == nv_factor else {"product": nv_prod, "factor": nv_factor},
                   detail="an invariant element with nonzero pairing exists on one level iff on the other")
        if not (nv_prod or nv_factor):
            report.skip(claim + "solution-space-equality",
                        detail="pairing vanishes on both solution spaces; the characterization is vacuous here")
            continue
        same_dim = p_sol.dim == rank
        report.add(claim + "solution-space-equality", same_dim and bool(ok), residual=residual if same_dim else None,
                   witness=None if same_dim and ok else {"product_dim": p_sol.dim, "claimed_dim": rank},
                   detail="product-level solutions coincide with the characterized family")
    return report


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
        return derivation_space(self.algebra, self.tol, self.seed)

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
    def tli(self) -> dict[str, tuple[TliSolution, ...]]:
        """Invariant-element solutions by side, one per enumerated character, both sides one stack."""
        sides = ("left", "right")
        return dict(zip(sides, solve_tli(self.algebra, self.characters.functionals, sides, self.tol)))

    @cached_property
    def weakly_amenable(self) -> bool:
        return self.derivations.dim_der == self.derivations.dim_inner

    def character_amenability(self, side: str) -> CharacterAmenability:
        """One-sided identity plus a nonvanishing invariant element per character."""
        enum, caveats = self.characters, (BAI_CAVEAT, ZERO_CHARACTER_CAVEAT)
        if (self.left_identity if side == "left" else self.right_identity) is None:
            return CharacterAmenability(self.algebra, side, False, False, enum, None, caveats)
        verdict, failing = _for_every_character(enum, (sol.exists_nonvanishing for sol in self.tli[side]))
        return CharacterAmenability(self.algebra, side, verdict, True, enum, failing, caveats)

    def inner_means(self, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The minimal-norm central m with <m, phi> = 1 for each row phi of a (k, n) stack,
        from one contraction with the centre, and whether each exists (rows without one are zero)."""
        pair = phis @ self.center
        feasible = np.abs(pair).max(axis=1, initial=0.0) > self.tol * np.maximum(1.0, np.abs(phis).max(axis=1))
        coeffs = pair.conj() / np.where(feasible, (pair * pair.conj()).sum(axis=1).real, 1.0)[:, None]
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
    the product's shear gap is within 10 tol; otherwise it is the product's
    own ``derivation_space``.  Its character decomposition is one fact of
    the run, and the lifted and pure families read their invariant elements
    through its matching: a member within 10 tol of an enumerated character
    shares that character's solution, and the members that match none are
    solved as one extra stack.
    """

    def __init__(self, product: MorphismProduct, factors: tuple[Analysis, Analysis], tol: float, seed: int = 0):
        super().__init__(product.algebra, tol, seed)
        object.__setattr__(self, "product", product)  # Analysis is frozen
        object.__setattr__(self, "factors", factors)

    @cached_property
    def decomposition(self) -> ProductCharacterReport:
        return character_decomposition(self.product, *(an.characters for an in self.factors), self.characters,
                                       self.tol)

    @cached_property
    def family_tli(self) -> dict[str, tuple[tuple[TliSolution, ...], tuple[TliSolution, ...]]]:
        """The invariant-element solutions of the lifted and of the pure family by side: a matched
        member's is its character's own solution object; the unmatched are solved as one stack."""
        pc, own, out = self.decomposition, self.tli, {}
        members = [ch.functional for ch, i in zip(pc.lifted + pc.pure_b, pc.match) if i < 0]
        extra = solve_tli(self.algebra, np.array(members), tuple(own), self.tol) if members else ((), ())
        for side, solved in zip(own, map(iter, extra)):
            solutions = tuple(own[side][i] if i >= 0 else next(solved) for i in pc.match)
            out[side] = solutions[: len(pc.lifted)], solutions[len(pc.lifted) :]
        return out

    @cached_property
    def derivations(self) -> DerivationSpace:
        if self.product.shear_gap.residual <= 10 * self.tol:
            return transported_derivation_space(self.product, *self.factors)
        return derivation_space(self.algebra, self.tol, self.seed)


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
    from one product with the commutator system, built from the first Arens
    table once per algebra object and kept on it beside the tables.
    """
    first = arens_tables(alg).first
    commutator = alg.kept("_commutator", lambda: stacked_side_system(first - first.transpose(1, 0, 2), "left"))
    ms, single = alg.coerce_rows(m)
    worst = np.abs(ms @ commutator.T).max(axis=1, initial=0.0)
    return float(worst[0]) if single else worst


def _check_means(report: CheckReport, alg: FiniteAlgebra, kinds: tuple, tol: float):
    """Record, per claim kind (claim, characters, means, applies, skip) on ``alg``, that each mean of a row where
    the claim ``applies`` pairs to 1 with its character and commutes with every element, from one pairing and
    one commutator product over every kind's rows; other rows are skipped with ``skip``, one detail or one per row."""
    chars, means = (np.concatenate([kind[i] for kind in kinds]) for i in (1, 2))
    checked = zip((means * chars).sum(axis=1).tolist(), commutation_residual(alg, means).tolist())
    for claim, _, kind_means, applies, skip in kinds:
        details = [skip] * len(kind_means) if isinstance(skip, str) else skip
        for idx, (ok_row, detail, mean, (pairing, comm)) in enumerate(zip(applies, details, kind_means, checked)):
            if not ok_row:
                report.skip(claim.format(idx), detail=str(detail))
                continue
            ok = abs(pairing - 1.0) <= 10 * tol and comm <= 10 * tol
            report.add(claim.format(idx), ok, residual=max(abs(pairing - 1.0), comm),
                       witness=None if ok else {"pairing": pairing, "commutation_residual": comm, "mean": mean},
                       detail="mean pairs to 1 with the character and commutes with every element")


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
                            analyses: tuple[Analysis, Analysis, ProductAnalysis] | None = None,
                            report: CheckReport | None = None, prefix: str = "") -> CheckReport:
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
    The witness claim kinds of [b]-[e] are a table grouped by algebra: each
    kind's characters and (k, n) stack of means, each block map applied once
    to the whole stack, the mask of the rows where it applies, and the skip
    detail of the others; ``_check_means`` checks the kinds of one algebra.
    ``analyses`` are the run's ``product_analyses`` of (A, B, product), or None for fresh ones.
    The verdicts go to ``report``, or to a new one, each claim after ``prefix``.
    """
    palg, na, epi = product.algebra, product.dim_a, product.hom_report.surjective
    report = report or CheckReport(subject=f"inner amenability transfer for {palg.name}")
    report.caveat(CENTER_REDUCTION_CAVEAT)
    report.caveat(BAI_CAVEAT)

    an_a, an_b, an_p = analyses or product_analyses(product, tol, seed)
    sigma_a, sigma_b = an_a.characters, an_b.characters
    phis, psis, ka = sigma_a.functionals, sigma_b.functionals, len(sigma_a)
    lifted, pure = product.lift_first(phis), product.lift_second(psis)
    phi_ts = lifted[:, na:]
    # every mean the claims ask for, one contraction per algebra: the product's for the lifted and
    # the pure characters, the second factor's for the pulled-back phi o T and for its own psi
    a_means, a_ok = an_a.inner_means(phis)
    p_means, p_ok = an_p.inner_means(np.vstack([lifted, pure]))
    b_means, b_ok = an_b.inner_means(np.vstack([phi_ts, psis]))
    first, second = prefix + "inner/first-factor-character-{}/", prefix + "inner/second-factor-character-{}/"
    for label, factor_ok, product_ok, detail in (
        (first, a_ok, p_ok[:ka], "the factor has a mean for phi iff the product has one for the lifted character"),
        (second, b_ok[ka:], p_ok[ka:], "the product has a mean for (0, psi) iff the second factor has one for psi"),
    ):
        for idx, (has_factor, has_product) in enumerate(zip(factor_ok, product_ok)):
            ok = has_factor == has_product
            report.add(label.format(idx) + "equivalence", ok, detail=detail, witness=None if ok else {
                "factor_amenable": bool(has_factor), "product_amenable": bool(has_product)})

    # a lifted character's product mean normalizes its second block where that pairs nonzero with phi o T
    blocks = p_means[:ka, na:]
    n_pairs = (blocks * phi_ts).sum(axis=1)
    splits = p_ok[:ka] & (np.abs(n_pairs) > tol * np.maximum(1.0, np.abs(phi_ts).max(axis=1)))
    no_split = "product has no mean to split"
    # per algebra, its claim kinds: characters and means, the rows where each applies, and the others' skip detail
    for alg, kinds in (
        (palg, ((first + "witness-embedded-factor-mean", lifted, product.embed_a(a_means.T).T, a_ok,
                 "factor has no mean to embed"),
                (first + "witness-embedded-second-mean", lifted, np.hstack([np.zeros((ka, na)), b_means[:ka]]),
                 epi & b_ok[:ka], "second factor has no mean for the pulled-back character" if epi
                 else "not applicable: hom is not onto"),
                (second + "witness-graph-embedding", pure, product.graph(b_means[ka:].T).T, b_ok[ka:],
                 "second factor has no mean to embed"))),
        (product.a, ((first + "witness-combined-blocks", phis, p_means[:ka] @ product.shear[:na].T, p_ok[:ka],
                      no_split),)),
        (product.b, ((first + "witness-normalized-second-block", phi_ts, blocks / np.where(splits, n_pairs, 1.0)[:, None],
                      splits, np.where(p_ok[:ka], "second block annihilates the pulled-back character; claim not "
                                       "applicable", no_split)),
                     (second + "witness-second-block", psis, p_means[ka:, na:], p_ok[ka:], no_split))),
    ):
        _check_means(report, alg, kinds, tol)
    add_transfer_claim(
        report, prefix + "inner/character-inner-amenability-equivalence",
        tuple(an.character_inner_amenability.verdict for an in (an_a, an_b, an_p)),
        "the product is character inner amenable iff both factors are",
        "some character enumeration is incomplete",
    )
    if not (sigma_a.complete and sigma_b.complete):
        report.caveat("a factor character enumeration is incomplete; per-character claims cover only verified characters")
    return report
