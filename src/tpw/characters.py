"""Character spaces: verification, enumeration, and the product decomposition.

Characters kill the radical rad A and every commutator (and so the two-sided
ideal I that commutators generate), and Q = A / (rad A + I) is isomorphic to
C^k, so A has exactly k = n - dim(rad A + I) characters.  rad A is read off
one trace form (Dickson's criterion: L. E. Dickson, *Algebras and Their
Arithmetics*, 1923; Cohen, Ivanyos and Wales, J. Pure Appl. Algebra 117-118,
1997).  Enumeration splits Q into its k lines by the eigenvectors of one
random element's transposed left-multiplication operator, on which every
basis operator acts by a character's value.  This is chosen over
polynomial-system solving for robustness and determinism.

Enumeration is certified complete only when it finds exactly k characters and
the computed radical is nilpotent at tol; otherwise the result is flagged
incomplete and callers must downgrade any "for every character" verdict to
unknown.

Every per-character fact is one stacked numpy call per algebra: the
candidates of all lines are lifted, verified (``character_defect`` on a
(k, n) stack) and deduplicated together, and the product decomposition
compares its families through broadcast distance matrices.  A single
functional is the one-row case of each stacked function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import FiniteAlgebra
from .errors import CharacterRejected
from .linalg import (SPLITTER_STREAM, SvdCuts, column_space, complex_gaussians, joint_eigenvalues, max_abs,
                     nullspace, nullspace_cuts)
from .product import MorphismProduct


@dataclass(frozen=True)
class Character:
    """A verified nonzero multiplicative functional, with its residual."""

    algebra: FiniteAlgebra
    functional: np.ndarray
    residual: float

    def __post_init__(self):
        f = self.algebra.coerce(self.functional)
        f.setflags(write=False)
        object.__setattr__(self, "functional", f)


def character_defect(alg: FiniteAlgebra, f) -> tuple[float, tuple[int, int]]:
    """Max of |f(e_i e_j) - f(e_i) f(e_j)| and the worst basis pair.

    ``f`` may be a stack of functionals of shape (k, n); the defects and the
    pairs then come as arrays of shape (k,) and (k, 2), from one contraction.
    """
    (fs, single), n = alg.coerce_rows(f), alg.dim
    table = np.abs((fs @ alg.structure.reshape(n * n, n).T) - (fs[:, :, None] * fs[:, None, :]).reshape(-1, n * n))
    worst = table.argmax(axis=1)
    defects, pairs = table[np.arange(len(fs)), worst], np.stack(np.unravel_index(worst, (n, n)), axis=-1)
    return (float(defects[0]), (int(pairs[0, 0]), int(pairs[0, 1]))) if single else (defects, pairs)


def verify_character(alg: FiniteAlgebra, f, tol: float) -> Character | tuple[Character, ...]:
    """Accept f as a character or raise CharacterRejected with the witness pair.

    ``f`` may be a stack of functionals of shape (k, n); the rows that are
    nonzero and multiplicative to within tol then come back as characters,
    in order, from one defect contraction, and the other rows are dropped.
    """
    fs, single = alg.coerce_rows(f)
    defects, pairs = character_defect(alg, fs)
    nonzero = np.max(np.abs(fs), axis=1, initial=0.0) > tol
    if single and not nonzero[0]:
        raise CharacterRejected(f"zero functional is not a character of {alg.name!r}", residual=0.0)
    if single and defects[0] > tol:
        pair = (int(pairs[0, 0]), int(pairs[0, 1]))
        raise CharacterRejected(f"functional fails multiplicativity on basis pair {pair} of {alg.name!r} "
                                f"(residual {defects[0]:.3e})", basis_pair=pair, residual=float(defects[0]))
    ok = nonzero & (defects <= tol)
    accepted = tuple(Character(algebra=alg, functional=g, residual=float(r)) for g, r in zip(fs[ok], defects[ok]))
    return accepted[0] if single else accepted


def commutator_ideal(alg: FiniteAlgebra, tol: float) -> np.ndarray:
    """Orthonormal basis of the two-sided ideal generated by all commutators."""
    c = alg.structure
    commutators = (c - c.transpose(1, 0, 2)).reshape(-1, alg.dim).T
    scale = alg.cutoff_scale
    basis = column_space(commutators, tol, scale)
    n = alg.dim
    while basis.shape[1] > 0:
        # left products suffice: [x, z] y = [xy, z] - x [y, z], so the left ideal
        # the commutators generate is two-sided; columns [B, e_0 B, e_1 B, ...]
        grown = np.einsum("kjm,jb->mkb", c, basis)
        new_basis = column_space(np.hstack([basis, grown.reshape(n, -1)]), tol, scale)
        if new_basis.shape[1] == basis.shape[1]:
            break
        basis = new_basis
    return basis


@dataclass
class CharacterEnumeration:
    algebra: FiniteAlgebra
    characters: tuple[Character, ...]
    complete: bool
    notes: tuple[str, ...] = ()

    def __len__(self):
        return len(self.characters)

    @cached_property
    def functionals(self) -> np.ndarray:
        """The characters' functionals as the rows of a read-only (k, n) stack, built on first read."""
        fs = np.array([ch.functional for ch in self.characters], dtype=complex).reshape(-1, self.algebra.dim)
        fs.setflags(write=False)
        return fs


def _distances(fs: np.ndarray, gs: np.ndarray) -> np.ndarray:
    """Max-norm distance of every row of ``fs`` to every row of ``gs``, shape (len(fs), len(gs))."""
    return np.max(np.abs(fs[:, None, :] - gs[None, :, :]), axis=2, initial=0.0)


# the trace form's rank cut, relative to its largest singular value: rounding level, not tol,
# since the form is quadratic in the structure constants and a cut at tol would take a
# character of size sqrt(tol) for radical
TRACE_FORM_TOL = 1e3 * np.finfo(float).eps


def trace_form(alg: FiniteAlgebra) -> SvdCuts:
    """The SVD of the trace form's transpose T^T, T[i, j] = tr L_{e_i e_j}, with the floor (max |c|)^2,
    made on first use and kept on the algebra object: every cut and every solve reads this one."""
    c = alg.structure
    return alg.kept("_trace_form", lambda: nullspace_cuts((c @ np.einsum("kjj->k", c)).T, max_abs(c) ** 2))


def radical(alg: FiniteAlgebra, tol: float = TRACE_FORM_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of rad A, the null space of the trace form's transpose.

    By Dickson's criterion rad A = {x : tr L_xy = 0 for every y}; the form is
    T[i, j] = tr L_{e_i e_j} = sum_k c[i, j, k] t_k with t_k = tr L_{e_k}, one
    n^3 contraction, and its rank is cut at ``tol``, by default
    ``TRACE_FORM_TOL``, with the floor (max |c|)^2.  An x in the null space has
    tr L_x^m = 0 for every m >= 2, so L_x is nilpotent, also without a unit.
    A cut at the run's tol counts as radical every direction under about
    sqrt(tol), so an empty result there is a strict test of rad A = 0.  The
    form's SVD is kept on the algebra object (``trace_form``), and every tol cuts that one.
    """
    return trace_form(alg)(tol)


def _is_nilpotent(alg: FiniteAlgebra, basis: np.ndarray, tol: float) -> bool:
    """Whether the span R of ``basis`` is nilpotent: the chain R, R R, R R R, ... reaches 0,
    each power a ``column_space`` at tol with the floor ``cutoff_scale``, before its
    dimension stalls."""
    n, power = alg.dim, basis
    while power.shape[1]:
        # column (p, q) is the product of column p of the power and column q of the basis
        products = (basis.T @ (power.T @ alg.structure.reshape(n, n * n)).reshape(-1, n, n)).reshape(-1, n).T
        grown = column_space(products, tol, alg.cutoff_scale)
        if grown.shape[1] == power.shape[1]:
            return False
        power = grown
    return True


def enumerate_characters(alg: FiniteAlgebra, tol: float, seed: int = 0) -> CharacterEnumeration:
    """All characters of the algebra, via Q = A / (rad A + I), I the commutator ideal.

    Every character kills rad A and I, and Q is isomorphic to C^k, so A has
    exactly k = n - dim(rad A + I) characters.  Q is realised on the orthogonal
    complement of rad A + I, and the eigenvectors of one seeded random
    element's operator split it into k lines.  The candidates are lifted back
    in one product, merged with any declared characters the algebra carries,
    verified in one stacked defect contraction and deduplicated by one
    pairwise-distance matrix: a candidate within max-norm distance 10*tol of
    an earlier verified one is dropped.

    The enumeration is certified complete when it finds exactly k characters
    and the computed radical R is nilpotent at tol.  A character that does
    not kill R has phi(x^j) = phi(x)^j != 0 for some x in R and every j, so
    R^j != 0: a cut that puts a character in R leaves R not nilpotent, and a
    cut that leaves radical directions out leaves fewer than k found.
    """
    n, rad = alg.dim, radical(alg)
    section = nullspace(np.hstack([rad, commutator_ideal(alg, tol)]).conj().T, tol)
    k = section.shape[1]
    # cq[p, q] = section^H (s_p s_q), for the columns s_p of the section, as three matrix products:
    # the part projected away lies in the ideal rad A + I, so this is Q's product
    cq = section.T @ ((section.T @ alg.structure.reshape(n, n * n)).reshape(k, n, n) @ section.conj())
    # the transposed left-multiplication operator of a quotient element a is sum_i a_i cq[i]
    values = joint_eigenvalues(cq, complex_gaussians(seed, SPLITTER_STREAM, k))
    # lift chi(pi(x)) back: the functional e_i -> chi . (section^H e_i), for every line at once
    found = values @ section.conj().T

    accepted = verify_character(alg, np.vstack([found, *alg.declared_characters]), tol)
    fs = np.array([ch.functional for ch in accepted], dtype=complex).reshape(-1, n)
    kept = ~np.tril(_distances(fs, fs) <= 10 * tol, -1).any(axis=1)
    # sorted by the functionals' coordinates rounded to 9 digits, real part before imaginary
    keys = np.round(np.stack([fs.real, fs.imag], axis=2).reshape(len(fs), 2 * n), 9)
    order = [i for i in np.lexsort(keys.T[::-1]) if kept[i]]
    notes = [f"found {len(order)} of {k} characters; enumeration incomplete"] if len(order) != k else []
    if not _is_nilpotent(alg, rad, tol):
        notes.append("radical not nilpotent at tol; enumeration incomplete")
    return CharacterEnumeration(alg, tuple(accepted[i] for i in order), complete=not notes, notes=tuple(notes))


@dataclass
class ProductCharacterReport:
    """Lifted and pure-B character families of a product, with the decomposition check.

    ``match`` holds, for each member, lifted then pure, the index of the
    nearest enumerated product character within 10 tol, or -1.
    """

    lifted: tuple[Character, ...]
    pure_b: tuple[Character, ...]
    enumerated: CharacterEnumeration
    sigma_a: CharacterEnumeration
    sigma_b: CharacterEnumeration
    decomposition_ok: bool | None
    disjoint: bool
    mismatch: np.ndarray | None
    match: np.ndarray

    @property
    def complete(self) -> bool:
        return self.sigma_a.complete and self.sigma_b.complete and self.enumerated.complete


def product_characters(product: MorphismProduct, tol: float, seed: int = 0) -> ProductCharacterReport:
    """The character decomposition of a product from fresh enumerations of A, B and the product."""
    return character_decomposition(
        product, *(enumerate_characters(alg, tol, seed) for alg in (product.a, product.b, product.algebra)), tol
    )


def character_decomposition(product: MorphismProduct, sigma_a: CharacterEnumeration, sigma_b: CharacterEnumeration,
                            enumerated: CharacterEnumeration, tol: float) -> ProductCharacterReport:
    """Build {(phi, phi o T)} and {(0, psi)}, measure each member's defect as a
    product character, and compare against an independent enumeration of the
    product's characters.

    ``sigma_a``, ``sigma_b`` and ``enumerated`` enumerate A, B and the product.
    One distance matrix between the enumerated characters and the members
    gives ``match`` (each member's nearest enumerated character within
    10 tol, or -1), also when an enumeration is incomplete, and the
    decomposition check.  ``decomposition_ok`` is None (unknown) when any
    enumeration is flagged incomplete; membership of the constructed families
    is still checked.
    """
    palg = product.algebra
    lifted, pure_b = product.lift_first(sigma_a.functionals), product.lift_second(sigma_b.functionals)
    combined = np.vstack([lifted, pure_b])
    # recorded with their defects, not verified: a wrong product fails the claim instead of raising
    members = tuple(Character(palg, f, float(r)) for f, r in zip(combined, character_defect(palg, combined)[0]))
    disjoint = bool(np.all(_distances(lifted, pure_b) > 10 * tol))
    found = enumerated.functionals
    distances = _distances(found, combined)
    close = distances <= 10 * tol
    match = np.where(close.any(axis=0), distances.argmin(axis=0) if len(found) else -1, -1)

    mismatch = decomposition_ok = None
    if sigma_a.complete and sigma_b.complete and enumerated.complete:
        # the first enumerated character no member matches, else the first member no enumerated one matches
        unmatched = [*found[~close.any(axis=1)], *combined[match < 0]]
        mismatch = unmatched[0] if unmatched else None
        decomposition_ok = mismatch is None and disjoint

    return ProductCharacterReport(members[: len(lifted)], members[len(lifted) :], enumerated, sigma_a, sigma_b,
                                  decomposition_ok, disjoint, mismatch, match)
