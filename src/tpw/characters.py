"""Character spaces: verification, enumeration, and the product decomposition.

Characters kill every commutator (and the two-sided ideal commutators
generate), so enumeration works on the commutative quotient, where finding
all characters reduces to a simultaneous eigenproblem for the transposed
left-multiplication operators: a joint eigenvalue functional is linear and
multiplicative, and every character arises as one.  This is chosen over
polynomial-system solving for robustness and determinism.

Enumeration is certified complete only when every terminal joint eigenspace
is one-dimensional; otherwise the result is flagged incomplete and callers
must downgrade any "for every character" verdict to unknown.

Every per-character fact is one stacked numpy call per algebra: the
candidates of all branches are lifted, verified (``character_defect`` on a
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
from .linalg import SPLITTER_STREAM, column_space, complex_gaussians, nullspace
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
class CommutativeQuotient:
    """A/[commutator ideal], realised on the orthogonal complement."""

    quotient: FiniteAlgebra | None  # None when the ideal is everything
    section: np.ndarray  # n x m orthonormal complement basis


def commutative_quotient(alg: FiniteAlgebra, tol: float) -> CommutativeQuotient:
    """Quotient structure constants on the orthogonal complement of the ideal.

    For w1, w2 in the complement W, the class of w1 w2 is represented by its
    orthogonal projection back onto W; this is well defined because the
    projected-away part lies in the ideal.
    """
    ideal = commutator_ideal(alg, tol)
    section = nullspace(ideal.conj().T, tol) if ideal.shape[1] else np.eye(alg.dim, dtype=complex)
    m = section.shape[1]
    if m == 0:
        return CommutativeQuotient(quotient=None, section=section)
    # cq[p, q] = section^H (s_p s_q), for the columns s_p of the section, as three matrix products
    n = alg.dim
    cq = section.T @ ((section.T @ alg.structure.reshape(n, n * n)).reshape(m, n, n) @ section.conj())
    quotient = FiniteAlgebra(
        name=f"{alg.name}.commutative-quotient",
        basis_labels=tuple(f"q{i}" for i in range(m)),
        structure=cq,
    )
    return CommutativeQuotient(quotient=quotient, section=section)


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


def _joint_eigenvalue_branches(operators: list[np.ndarray], dim: int, cluster_tol: float):
    """Refine C^dim into joint eigenspaces of the (commuting) operators.

    Returns (basis, eigenvalue tuple) per terminal branch.  Only strict
    eigenspaces are kept: defective directions carry no characters.  Operators
    labeled None are splitters whose eigenvalues are not recorded.  A branch
    splits at the means of its eigenvalue clusters, with the nullspaces of
    all its shifted restrictions from one stacked SVD.  A branch of dimension
    1 cannot split: its eigenvalue is the 1 x 1 restriction b^H op b itself,
    which is what the eigensolve, the clustering and the nullspace would
    return for it.  So once every branch is a line, which a splitter brings
    about unless eigenvalues coincide, one contraction reads the eigenvalues
    of all remaining operators on all branches.
    """
    branches = [(np.eye(dim, dtype=complex), ())]
    for step, (label, op) in enumerate(operators):
        if all(basis.shape[1] == 1 for basis, _ in branches):
            lines = np.hstack([basis for basis, _ in branches])
            rest = np.array([op for label, op in operators[step:] if label is not None]).reshape(-1, dim, dim)
            read = np.sum(lines.conj() * (rest @ lines), axis=1).T  # [b, j] = b^H op_j b
            return [(basis, values + tuple(row)) for (basis, values), row in zip(branches, read)]
        refined = []
        for basis, values in branches:
            restricted = basis.conj().T @ op @ basis
            d = restricted.shape[0]
            if d == 1:
                refined.append((basis, values + (complex(restricted[0, 0]),) if label is not None else values))
                continue
            eigs = np.linalg.eigvals(restricted)
            cutoff = cluster_tol * max(1.0, float(np.max(np.abs(eigs))))
            # chain clustering in (real, imag) order: a value within cutoff of the one before joins its cluster
            ordered = eigs[np.lexsort((eigs.imag, eigs.real))]
            starts = np.flatnonzero(np.r_[True, np.abs(np.diff(ordered)) > cutoff])
            mus = np.add.reduceat(ordered, starts) / np.diff(np.r_[starts, len(ordered)])
            _, s, vh = np.linalg.svd(restricted - mus[:, None, None] * np.eye(d))
            for mu, r, v in zip(mus, np.sum(s > cutoff, axis=1), vh):
                if r < d:
                    refined.append((basis @ v[r:].conj().T, values + (mu,) if label is not None else values))
        branches = refined
    return branches


def enumerate_characters(alg: FiniteAlgebra, tol: float, seed: int = 0) -> CharacterEnumeration:
    """All characters of the algebra, via the commutative quotient.

    A seeded random splitting element separates joint eigenspaces before the
    basis operators refine them.  The candidates of all branches are lifted
    back in one product, merged with any declared characters the algebra
    carries, verified in one stacked defect contraction and deduplicated by
    one pairwise-distance matrix: a candidate within max-norm distance
    10*tol of an earlier verified one is dropped.
    """
    cq = commutative_quotient(alg, tol)
    notes: list[str] = []
    found = np.zeros((0, alg.dim), dtype=complex)
    if cq.quotient is not None:
        q = cq.quotient
        m = q.dim
        splitter = complex_gaussians(seed, SPLITTER_STREAM, m)
        # the transposed left-multiplication operator of a is sum_i a_i structure[i]
        ops: list[tuple[int | None, np.ndarray]] = [(None, np.einsum("i,ijk->jk", splitter, q.structure))]
        ops += [(j, q.structure[j]) for j in range(m)]
        branches = _joint_eigenvalue_branches(ops, m, max(np.sqrt(tol), 100 * tol))
        notes = [f"joint eigenspace of dimension {basis.shape[1]} could not be split further; enumeration incomplete"
                 for basis, _ in branches if basis.shape[1] != 1]
        # lift chi(pi(x)) back: the functional e_i -> lam . (section^H e_i), for every branch at once
        found = np.array([values for _, values in branches], dtype=complex).reshape(-1, m) @ cq.section.conj().T

    accepted = verify_character(alg, np.vstack([found, *alg.declared_characters]), tol)
    fs = np.array([ch.functional for ch in accepted], dtype=complex).reshape(-1, alg.dim)
    kept = ~np.tril(_distances(fs, fs) <= 10 * tol, -1).any(axis=1)
    # sorted by the functionals' coordinates rounded to 9 digits, real part before imaginary
    keys = np.round(np.stack([fs.real, fs.imag], axis=2).reshape(len(fs), 2 * alg.dim), 9)
    order = [i for i in np.lexsort(keys.T[::-1]) if kept[i]]
    return CharacterEnumeration(alg, tuple(accepted[i] for i in order), complete=not notes, notes=tuple(notes))


@dataclass
class ProductCharacterReport:
    """Lifted and pure-B character families of a product, with the decomposition check."""

    lifted: tuple[Character, ...]
    pure_b: tuple[Character, ...]
    enumerated: CharacterEnumeration
    sigma_a: CharacterEnumeration
    sigma_b: CharacterEnumeration
    decomposition_ok: bool | None
    disjoint: bool
    mismatch: np.ndarray | None

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
    ``decomposition_ok`` is None (unknown) when any enumeration is flagged
    incomplete; membership of the constructed families is still checked.
    """
    palg = product.algebra
    lifted, pure_b = product.lift_first(sigma_a.functionals), product.lift_second(sigma_b.functionals)
    combined = np.vstack([lifted, pure_b])
    # recorded with their defects, not verified: a wrong product fails the claim instead of raising
    members = tuple(Character(palg, f, float(r)) for f, r in zip(combined, character_defect(palg, combined)[0]))
    disjoint = bool(np.all(_distances(lifted, pure_b) > 10 * tol))

    mismatch = decomposition_ok = None
    if sigma_a.complete and sigma_b.complete and enumerated.complete:
        found = enumerated.functionals
        close = _distances(found, combined) <= 10 * tol
        # the first enumerated character no member matches, else the first member no enumerated one matches
        unmatched = [*found[~close.any(axis=1)], *combined[~close.any(axis=0)]]
        mismatch = unmatched[0] if unmatched else None
        decomposition_ok = mismatch is None and disjoint

    return ProductCharacterReport(members[: len(lifted)], members[len(lifted) :], enumerated, sigma_a, sigma_b,
                                  decomposition_ok, disjoint, mismatch)
