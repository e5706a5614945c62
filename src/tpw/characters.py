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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FiniteAlgebra
from .errors import CharacterRejected
from .linalg import max_abs, nullspace, orthonormalize
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

    def __call__(self, x) -> complex:
        return complex(np.dot(self.functional, self.algebra.coerce(x)))


def character_defect(alg: FiniteAlgebra, f) -> tuple[float, tuple[int, int]]:
    """Max of |f(e_i e_j) - f(e_i) f(e_j)| and the worst basis pair."""
    f = alg.coerce(f)
    table = np.einsum("ijk,k->ij", alg.structure, f) - np.outer(f, f)
    idx = np.unravel_index(np.argmax(np.abs(table)), table.shape)
    return float(np.abs(table[idx])), (int(idx[0]), int(idx[1]))


def verify_character(alg: FiniteAlgebra, f, tol: float) -> Character:
    """Accept f as a character or raise CharacterRejected with the witness pair."""
    f = alg.coerce(f)
    if max_abs(f) <= tol:
        raise CharacterRejected(f"zero functional is not a character of {alg.name!r}", residual=0.0)
    residual, pair = character_defect(alg, f)
    if residual > tol:
        raise CharacterRejected(
            f"functional fails multiplicativity on basis pair {pair} of {alg.name!r} "
            f"(residual {residual:.3e})",
            basis_pair=pair,
            residual=residual,
        )
    return Character(algebra=alg, functional=f, residual=residual)


def commutator_ideal(alg: FiniteAlgebra, tol: float) -> np.ndarray:
    """Orthonormal basis of the two-sided ideal generated by all commutators."""
    c = alg.structure
    commutators = (c - c.transpose(1, 0, 2)).reshape(-1, alg.dim).T
    # commutators cancel structure-scale quantities: rounding must not count as rank
    scale = max(1.0, max_abs(c))
    basis = orthonormalize(commutators, tol, scale)
    n = alg.dim
    while basis.shape[1] > 0:
        # left products suffice: [x, z] y = [xy, z] - x [y, z], so the left ideal
        # the commutators generate is two-sided; columns [B, e_0 B, e_1 B, ...]
        grown = np.einsum("kjm,jb->mkb", c, basis)
        new_basis = orthonormalize(np.hstack([basis, grown.reshape(n, -1)]), tol, scale)
        if new_basis.shape[1] == basis.shape[1]:
            break
        basis = new_basis
    return basis


@dataclass
class CommutativeQuotient:
    """A/[commutator ideal], realised on the orthogonal complement."""

    quotient: FiniteAlgebra | None  # None when the ideal is everything
    section: np.ndarray  # n x m orthonormal complement basis
    ideal: np.ndarray  # n x (n - m) orthonormal ideal basis


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
        return CommutativeQuotient(quotient=None, section=section, ideal=ideal)
    # cq[p, q] = section^H (s_p s_q), for the columns s_p of the section
    cq = np.einsum("ip,jq,ijk,kr->pqr", section, section, alg.structure, section.conj(), optimize=True)
    quotient = FiniteAlgebra(
        name=f"{alg.name}.commutative-quotient",
        basis_labels=tuple(f"q{i}" for i in range(m)),
        structure=cq,
    )
    return CommutativeQuotient(quotient=quotient, section=section, ideal=ideal)


@dataclass
class CharacterEnumeration:
    algebra: FiniteAlgebra
    characters: tuple[Character, ...]
    complete: bool
    notes: tuple[str, ...] = ()

    def __len__(self):
        return len(self.characters)


def _nullspace_abs(a: np.ndarray, cutoff: float) -> np.ndarray:
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    r = int(np.sum(s > cutoff))
    return vh[r:].conj().T


def _cluster(values: np.ndarray, tol: float) -> list[complex]:
    """Greedy chain clustering of complex values; returns cluster means."""
    order = np.lexsort((values.imag, values.real))
    ordered = values[order]
    groups: list[list[complex]] = []
    for v in ordered:
        if groups and abs(v - groups[-1][-1]) <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    return [complex(np.mean(g)) for g in groups]


def _joint_eigenvalue_branches(operators: list[np.ndarray], dim: int, cluster_tol: float):
    """Refine C^dim into joint eigenspaces of the (commuting) operators.

    Returns (basis, eigenvalue tuple) per terminal branch.  Only strict
    eigenspaces are kept: defective directions carry no characters.  Operators
    labeled None are splitters whose eigenvalues are not recorded.
    """
    branches = [(np.eye(dim, dtype=complex), ())]
    for label, op in operators:
        refined = []
        for basis, values in branches:
            restricted = basis.conj().T @ op @ basis
            eigs = np.linalg.eigvals(restricted)
            scale = max(1.0, float(np.max(np.abs(eigs))) if eigs.size else 1.0)
            for mu in _cluster(eigs, cluster_tol * scale):
                eigvecs = _nullspace_abs(restricted - mu * np.eye(restricted.shape[0]), cluster_tol * scale)
                if eigvecs.shape[1] == 0:
                    continue
                new_values = values + (mu,) if label is not None else values
                refined.append((basis @ eigvecs, new_values))
        branches = refined
    return branches


def enumerate_characters(alg: FiniteAlgebra, tol: float, seed: int = 0) -> CharacterEnumeration:
    """All characters of the algebra, via the commutative quotient.

    A seeded random splitting element separates joint eigenspaces before the
    basis operators refine them; candidates are lifted back, verified,
    deduplicated at max-norm distance 10*tol, and merged with any declared
    characters the algebra carries.
    """
    cq = commutative_quotient(alg, tol)
    notes: list[str] = []
    found: list[np.ndarray] = []
    complete = True

    if cq.quotient is not None:
        q = cq.quotient
        m = q.dim
        rng = np.random.default_rng(seed)
        splitter = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        # the transposed left-multiplication operator of a is sum_i a_i structure[i]
        ops: list[tuple[int | None, np.ndarray]] = [(None, np.einsum("i,ijk->jk", splitter, q.structure))]
        ops += [(j, q.structure[j]) for j in range(m)]
        cluster_tol = max(np.sqrt(tol), 100 * tol)
        branches = _joint_eigenvalue_branches(ops, m, cluster_tol)
        for basis, values in branches:
            if basis.shape[1] != 1:
                complete = False
                notes.append(
                    f"joint eigenspace of dimension {basis.shape[1]} could not be split further; "
                    "enumeration incomplete"
                )
            lam = np.array(values, dtype=complex)
            # lift chi(pi(x)) back: the functional e_i -> lam . (section^H e_i)
            found.append(cq.section.conj() @ lam)

    candidates = found + [np.array(f) for f in alg.declared_characters]
    accepted: list[Character] = []
    for f in candidates:
        if max_abs(f) <= tol:
            continue
        try:
            ch = verify_character(alg, f, tol)
        except CharacterRejected:
            continue
        if any(max_abs(ch.functional - other.functional) <= 10 * tol for other in accepted):
            continue
        accepted.append(ch)

    accepted.sort(key=lambda ch: tuple((round(z.real, 9), round(z.imag, 9)) for z in ch.functional))
    return CharacterEnumeration(
        algebra=alg, characters=tuple(accepted), complete=complete, notes=tuple(notes)
    )


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
    m = product.hom.matrix

    def member(f):
        # recorded with its defect, not verified: a wrong product fails the claim instead of raising
        return Character(palg, f, character_defect(palg, f)[0])

    lifted = [member(np.concatenate([ch.functional, m.T @ ch.functional])) for ch in sigma_a.characters]
    pure_b = [member(np.concatenate([np.zeros(product.dim_a), ch.functional])) for ch in sigma_b.characters]

    combined = [c.functional for c in lifted] + [c.functional for c in pure_b]
    disjoint = all(
        max_abs(c1.functional - c2.functional) > 10 * tol for c1 in lifted for c2 in pure_b
    )

    mismatch = None
    if sigma_a.complete and sigma_b.complete and enumerated.complete:
        ok = True
        for ch in enumerated.characters:
            if not any(max_abs(ch.functional - g) <= 10 * tol for g in combined):
                ok = False
                mismatch = ch.functional
                break
        if ok:
            for g in combined:
                if not any(max_abs(ch.functional - g) <= 10 * tol for ch in enumerated.characters):
                    ok = False
                    mismatch = g
                    break
        decomposition_ok = ok and disjoint
    else:
        decomposition_ok = None

    return ProductCharacterReport(
        lifted=tuple(lifted),
        pure_b=tuple(pure_b),
        enumerated=enumerated,
        sigma_a=sigma_a,
        sigma_b=sigma_b,
        decomposition_ok=decomposition_ok,
        disjoint=disjoint,
        mismatch=mismatch,
    )
