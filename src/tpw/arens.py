"""Dual and bidual calculus: module actions, both Arens products, adjoints.

Functionals pair bilinearly with elements, ``<f, x> = sum_i f_i x_i``, and in
finite dimension the bidual is identified with the algebra through the same
pairing.  Both Arens products are computed through their pairing chains
(Arens, Proc. AMS 2 (1951)),

    <P [] Q, f> = <P, Q . f>        (first)
    <P <> Q, f> = <Q, f . P>        (second)

evaluated as they are defined, in two steps: one ``einsum`` builds the
matrix of the dual action f -> Q . f (or f -> f . P), and that matrix is
then paired with P (or Q).  ``arens_first`` and ``arens_second`` take single
vectors or stacks of shape (..., n), pairing the stacks row by row, so a
batch of pairs is one chain evaluation.  ``arens_tables`` runs the same two
steps on the whole basis at once, giving ``first[p, q] = e_p [] e_q`` and
``second[p, q] = e_p <> e_q``; they are built once per algebra object, kept
on it and read-only.  Every system or residual over basis pairs
(topological centers, the multiplicativity of T'', the Theta block formula,
and the invariant-element system in ``amenability``) is a slice or a
contraction of these tables.  The tables come from the chain and are never
read off ``structure``, so that agreement of the Arens products with the
original multiplication stays an actual check of the chain and not a
definition.  Every finite-dimensional algebra is Arens regular, so a
topological center here is the whole bidual unless the two tables disagree;
the suite checks exactly that, on the product, and nothing finer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import FiniteAlgebra, LinearMap
from .errors import ShapeError
from .linalg import as_complex, max_abs, nullspace, rank
from .product import AlgebraHom, MorphismProduct

FINITE_DIM_CAVEAT = (
    "finite dimension forces Arens regularity: both Arens products coincide and "
    "every topological center is the whole bidual, so center verdicts are "
    "consistency checks, not deep confirmations"
)


def dual_actions(alg: FiniteAlgebra, f, a) -> tuple[np.ndarray, np.ndarray]:
    """Both module actions of a on the functional f: (f.a, a.f).

    f.a is the functional x -> f(a x) and a.f is the functional x -> f(x a).
    """
    f = alg.coerce(f)
    return alg.left_mult_operator(a).T @ f, alg.right_mult_operator(a).T @ f


def _bidual_left_action(alg: FiniteAlgebra, big_psi: np.ndarray) -> np.ndarray:
    """Matrix of f -> Psi . f, the functional a -> <Psi, f . a>; Psi may be a stack of rows."""
    return np.einsum("ijk,...j->...ik", alg.structure, big_psi)


def _bidual_right_action(alg: FiniteAlgebra, big_phi: np.ndarray) -> np.ndarray:
    """Matrix of f -> f . Phi, the functional a -> <Phi, a . f>; Phi may be a stack of rows."""
    return np.einsum("jik,...j->...ik", alg.structure, big_phi)


def _bidual_stack(alg: FiniteAlgebra, v) -> np.ndarray:
    """A bidual vector or a stack of them, shape (..., n)."""
    v = as_complex(v)
    if v.shape[-1:] != (alg.dim,):
        raise ShapeError(f"bidual stack of shape {v.shape} for algebra {alg.name!r} of dim {alg.dim}")
    return v


def arens_first(alg: FiniteAlgebra, big_phi, big_psi) -> np.ndarray:
    """First Arens product, evaluated as <Phi, Psi . f> on the dual basis.

    Phi and Psi may be stacks of shape (..., n); the result pairs them row by
    row, with the leading axes broadcast.
    """
    action = _bidual_left_action(alg, _bidual_stack(alg, big_psi))
    return np.einsum("...i,...ik->...k", _bidual_stack(alg, big_phi), action)


def arens_second(alg: FiniteAlgebra, big_phi, big_psi) -> np.ndarray:
    """Second Arens product, evaluated as <Psi, f . Phi> on the dual basis.

    Phi and Psi may be stacks of shape (..., n), as in ``arens_first``.
    """
    action = _bidual_right_action(alg, _bidual_stack(alg, big_phi))
    return np.einsum("...i,...ik->...k", _bidual_stack(alg, big_psi), action)


class ArensTables(NamedTuple):
    """Both Arens products on basis pairs: ``first[p, q] = e_p [] e_q``, ``second[p, q] = e_p <> e_q``."""

    first: np.ndarray
    second: np.ndarray


def arens_tables(alg: FiniteAlgebra) -> ArensTables:
    """Both Arens tables, from the two-step chain run on every basis pair at once.

    They are built once per algebra object and kept on it, the way
    ``cached_property`` keeps ``FiniteAlgebra.cutoff_scale``, so they live
    exactly as long as the algebra; the arrays are read-only.
    """
    tables = vars(alg).get("_arens_tables")
    if tables is None:
        tables = _chain_tables(alg)
        object.__setattr__(alg, "_arens_tables", tables)  # FiniteAlgebra is frozen
    return tables


def _chain_tables(alg: FiniteAlgebra) -> ArensTables:
    """Build both read-only tables through the chain; ``arens_tables`` keeps them."""
    basis = np.eye(alg.dim, dtype=complex)
    first = np.einsum("pi,qik->pqk", basis, _bidual_left_action(alg, basis))
    second = np.einsum("qi,pik->pqk", basis, _bidual_right_action(alg, basis))
    first.setflags(write=False)
    second.setflags(write=False)
    return ArensTables(first, second)


def stacked_side_system(table: np.ndarray, side: str) -> np.ndarray:
    """Matrix of Phi -> (Phi # e_j)_j (left) or Phi -> (e_j # Phi)_j (right).

    ``table[p, q]`` is e_p # e_q for a bilinear product #.  Block j of the
    n^2 x n result is the matrix of Phi -> Phi # e_j, or of Phi -> e_j # Phi.
    """
    n = table.shape[0]
    blocks = table.transpose(1, 2, 0) if side == "left" else table.transpose(0, 2, 1)
    return blocks.reshape(n * n, n)


def _pair_batches(table: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """out[p, q] = x_p # y_q for the columns x_p of xs and y_q of ys."""
    return np.einsum("ip,jq,ijk->pqk", xs, ys, table)


@dataclass
class ProductDualActions:
    """Direct vs block-formula dual actions on a morphism product."""

    right_direct: np.ndarray
    right_block: np.ndarray
    left_direct: np.ndarray
    left_block: np.ndarray

    @property
    def agreement_residual(self) -> float:
        return max(
            max_abs(self.right_direct - self.right_block),
            max_abs(self.left_direct - self.left_block),
        )


def _dual_action_batches(c: np.ndarray, fs: np.ndarray, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f_p . x_q, x_q . f_p) at [p, q] for the columns f_p of fs and x_q of xs.

    (f.a)(x) = f(a x) = sum_k f_k c[a, x, k] and (a.f)(x) = f(x a) = sum_k f_k c[x, a, k].
    """
    return np.einsum("kp,jq,jxk->pqx", fs, xs, c), np.einsum("kp,jq,xjk->pqx", fs, xs, c)


def _product_dual_action_batches(product: MorphismProduct, f, g, a, b) -> ProductDualActions:
    """``product_dual_actions`` for column batches: entry [p, q] is (a_q, b_q) acting on (f_p, g_p)."""
    m = product.hom.matrix
    right_direct, left_direct = _dual_action_batches(
        product.algebra.structure, np.vstack([f, g]), np.vstack([a, b])
    )
    fa, af = _dual_action_batches(product.a.structure, f, a)
    ftb, tbf = _dual_action_batches(product.a.structure, f, m @ b)
    gb, bg = _dual_action_batches(product.b.structure, g, b)
    # f o (L_a T) = T'(f . a) and f o (R_a T) = T'(a . f); T' has matrix m^T
    return ProductDualActions(
        right_direct=right_direct,
        right_block=np.concatenate([fa + ftb, fa @ m + gb], axis=2),
        left_direct=left_direct,
        left_block=np.concatenate([af + tbf, af @ m + bg], axis=2),
    )


def product_dual_actions(product: MorphismProduct, f, g, a, b) -> ProductDualActions:
    """Both actions of (a, b) on (f, g), computed two ways.

    The direct computation contracts the product algebra's own structure
    tensor; the block computation uses the factor structures and the hom in
    the factor-level formulas

        (f, g) . (a, b) = (f.a + f.T(b),  f o (L_a T) + g.b)
        (a, b) . (f, g) = (a.f + T(b).f,  f o (R_a T) + b.g)

    which must agree with it.
    """
    columns = [alg.coerce(v)[:, None] for alg, v in
               ((product.a, f), (product.b, g), (product.a, a), (product.b, b))]
    acts = _product_dual_action_batches(product, *columns)
    return ProductDualActions(**{name: value[0, 0] for name, value in vars(acts).items()})


def product_dual_action_tables(product: MorphismProduct) -> ProductDualActions:
    """``product_dual_actions`` on every basis pair at once: entry [i, j] is e_j acting on e_i."""
    na = product.dim_a
    basis = np.eye(product.algebra.dim, dtype=complex)
    return _product_dual_action_batches(product, basis[:na], basis[na:], basis[:na], basis[na:])


@dataclass
class HomAdjoints:
    """First and second adjoints of an algebra hom, with their certificates.

    Surjectivity is a rank decision at ``tol``, taken on first read.
    """

    t_prime: LinearMap
    t_second: LinearMap
    embedding_residual: float
    mult_residual_first: float
    mult_residual_second: float
    tol: float

    @cached_property
    def source_epi(self) -> bool:
        """Whether T is onto: rank T = dim of its target."""
        m = self.t_second.matrix  # T's matrix
        return rank(m, self.tol) == m.shape[0]

    @property
    def second_epi(self) -> bool:
        """Whether T'' is onto; T'' has T's matrix, so surjectivity passes to it with the same rank."""
        return self.source_epi


def hom_adjoints(hom: AlgebraHom, tol: float) -> HomAdjoints:
    """T' (f -> f o T) and T'' (F -> F o T') under canonical identifications.

    Also certifies that T'' restricted to the embedded copy of the source
    agrees with T and that T'' is multiplicative for both Arens products;
    whether surjectivity carries over is decided when it is first read.
    """
    b_alg, a_alg = hom.source, hom.target
    m = hom.matrix
    t_prime = LinearMap(source=f"dual({a_alg.name})", target=f"dual({b_alg.name})", matrix=m.T)
    # <T''(F), f> = <F, T'(f)>, so T'' has matrix (T')^T = T's matrix again
    t_second = LinearMap(source=f"bidual({b_alg.name})", target=f"bidual({a_alg.name})", matrix=t_prime.matrix.T)

    embedding_residual = max_abs(t_second.matrix - m)

    # T''(e_p # e_q) against T''(e_p) # T''(e_q), over all basis pairs at once
    m2 = t_second.matrix
    tables_b, tables_a = arens_tables(b_alg), arens_tables(a_alg)
    res1 = max_abs(tables_b.first @ m2.T - _pair_batches(tables_a.first, m2, m2))
    res2 = max_abs(tables_b.second @ m2.T - _pair_batches(tables_a.second, m2, m2))
    return HomAdjoints(
        t_prime=t_prime,
        t_second=t_second,
        embedding_residual=embedding_residual,
        mult_residual_first=res1,
        mult_residual_second=res2,
        tol=tol,
    )


def theta_iso(product: MorphismProduct, big_phi, big_psi) -> np.ndarray:
    """The bidual identification pairing <Theta(Phi, Psi), (f, g)> = Phi(f) + Psi(g).

    In coordinates this is the concatenation of the two bidual vectors.
    """
    return product.join(big_phi, big_psi)


def _block_products(product: MorphismProduct, which: str, phi1, psi1, phi2, psi2) -> np.ndarray:
    """Theta of the block formula, for pairs (P1, Q1) and (P2, Q2) given as columns.

    Entry [p, q] combines pair p of the first batch with pair q of the second.
    """
    table_a = getattr(arens_tables(product.a), which)
    table_b = getattr(arens_tables(product.b), which)
    m = product.hom.matrix
    a_part = (
        _pair_batches(table_a, phi1, phi2)
        + _pair_batches(table_a, phi1, m @ psi2)
        + _pair_batches(table_a, m @ psi1, phi2)
    )
    return np.concatenate([a_part, _pair_batches(table_b, psi1, psi2)], axis=2)


def bidual_block_product(product: MorphismProduct, pair1, pair2, which: str) -> np.ndarray:
    """The bidual-level block formula for the product of Theta-preimages.

    Computes (P1 # P2 + P1 # T''(Q2) + T''(Q1) # P2,  Q1 # Q2) with # the
    chosen Arens product taken inside the factor biduals, then maps through
    Theta.
    """
    (phi1, psi1), (phi2, psi2) = pair1, pair2
    columns = [alg.coerce(v)[:, None] for alg, v in
               ((product.a, phi1), (product.b, psi1), (product.a, phi2), (product.b, psi2))]
    return _block_products(product, which, *columns)[0, 0]


def theta_homomorphism_residual(product: MorphismProduct, which: str) -> float:
    """Worst basis-pair deviation of Theta from multiplicativity.

    Compares the factor-level block formula against the Arens product formed
    inside the product algebra itself, over all pairs of block basis vectors.
    """
    na = product.dim_a
    # the block basis vectors e_p = Theta(x_p, y_p), as columns of x and y
    basis = np.eye(product.algebra.dim, dtype=complex)
    x, y = basis[:na], basis[na:]
    block = _block_products(product, which, x, y, x, y)
    return max_abs(block - getattr(arens_tables(product.algebra), which))


def _center_system(alg: FiniteAlgebra, side: str) -> np.ndarray:
    """Phi [] e_j - Phi <> e_j (left) or its mirror (right), stacked over the bidual basis."""
    tables = arens_tables(alg)
    return stacked_side_system(tables.first - tables.second, side)


def topological_center_membership(alg: FiniteAlgebra, big_phi, side: str, tol: float) -> tuple[bool, float]:
    """Whether both Arens products agree against Phi over a bidual basis.

    Phi may be a stack of shape (..., n); the answer and the residual are the
    worst over the stack.
    """
    worst = max_abs(_bidual_stack(alg, big_phi) @ _center_system(alg, side).T)
    return worst <= tol, worst


def topological_center(alg: FiniteAlgebra, side: str, tol: float) -> np.ndarray:
    """Orthonormal basis of the requested topological center.

    Assembles the linear system Phi [] e_j = Phi <> e_j (left) or its mirror
    (right) over the bidual basis and solves by thresholded nullspace.  In
    finite dimension the answer is always the whole space; see
    FINITE_DIM_CAVEAT.
    """
    return nullspace(_center_system(alg, side), tol, scale=alg.cutoff_scale)
