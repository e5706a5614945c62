"""Bidual calculus: both Arens products, their tables, adjoints and centers.

Functionals pair bilinearly with elements, ``<f, x> = sum_i f_i x_i``, and in
finite dimension the bidual is identified with the algebra through the same
pairing.  Both Arens products are computed through their pairing chains
(Arens, Proc. AMS 2 (1951)),

    <P [] Q, f> = <P, Q . f>        (first)
    <P <> Q, f> = <Q, f . P>        (second)

evaluated as they are defined, in two steps: one matrix product with the
structure tensor, laid out as n x n^2, builds the matrix of the dual action
f -> Q . f (or f -> f . P), and a second one pairs that matrix with P (or
Q).  ``arens_first`` and ``arens_second`` take single vectors or stacks of
shape (..., n), pairing the stacks row by row, so a batch of pairs is one
chain evaluation.  ``arens_tables`` runs the same two steps on the whole
basis at once, giving ``first[p, q] = e_p [] e_q`` and
``second[p, q] = e_p <> e_q``; they are built once per algebra object, kept
on it and read-only.  Every system or residual over basis pairs
(topological centers, the multiplicativity of T'', the Theta block formula,
and the invariant-element system in ``amenability``) is a slice or a
contraction of these tables; a contraction with identity or basis-column
matrices is written as the slices and transposes it amounts to, and the
Theta block formula is the product's own ``product.block_table`` on the
factors' tables with T'' (which has T's matrix).  The
tables come from the chain and are never read off ``structure``, so the
suite's comparison of both tables with ``structure`` (group 02) is an
actual check of the chain and not a definition.  Every finite-dimensional
algebra is Arens regular, so a topological center here is the whole bidual
unless the two tables disagree; the suite checks exactly that, on the
product, and nothing finer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import FiniteAlgebra, LinearMap
from .errors import ShapeError
from .linalg import as_complex, max_abs, nullspace, rank
from .product import AlgebraHom, MorphismProduct, block_table, multiplicativity_gap

FINITE_DIM_CAVEAT = (
    "finite dimension forces Arens regularity: both Arens products coincide and "
    "every topological center is the whole bidual, so center verdicts are "
    "consistency checks, not deep confirmations"
)


def _bidual_left_action(alg: FiniteAlgebra, big_psi: np.ndarray) -> np.ndarray:
    """Matrix of f -> Psi . f, the functional a -> <Psi, f . a>, holding sum_j c[i, j, k] Psi_j
    at [..., i, k]; Psi may be a stack of rows."""
    n = alg.dim
    flat = alg.structure.transpose(1, 0, 2).reshape(n, n * n)
    return (big_psi @ flat).reshape(big_psi.shape[:-1] + (n, n))


def _bidual_right_action(alg: FiniteAlgebra, big_phi: np.ndarray) -> np.ndarray:
    """Matrix of f -> f . Phi, the functional a -> <Phi, a . f>, holding sum_j c[j, i, k] Phi_j
    at [..., i, k]; Phi may be a stack of rows."""
    n = alg.dim
    return (big_phi @ alg.structure.reshape(n, n * n)).reshape(big_phi.shape[:-1] + (n, n))


def _pair(big: np.ndarray, action: np.ndarray) -> np.ndarray:
    """<Big, action>: sum_i Big_i action[..., i, k], row by row, leading axes broadcast."""
    return (big[..., None, :] @ action)[..., 0, :]


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
    return _pair(_bidual_stack(alg, big_phi), action)


def arens_second(alg: FiniteAlgebra, big_phi, big_psi) -> np.ndarray:
    """Second Arens product, evaluated as <Psi, f . Phi> on the dual basis.

    Phi and Psi may be stacks of shape (..., n), as in ``arens_first``.
    """
    action = _bidual_right_action(alg, _bidual_stack(alg, big_phi))
    return _pair(_bidual_stack(alg, big_psi), action)


class ArensTables(NamedTuple):
    """Both Arens products on basis pairs: ``first[p, q] = e_p [] e_q``, ``second[p, q] = e_p <> e_q``."""

    first: np.ndarray
    second: np.ndarray


def arens_tables(alg: FiniteAlgebra) -> ArensTables:
    """Both Arens tables, from the two-step chain run on every basis pair at once.

    They are built once per algebra object and kept on it
    (``FiniteAlgebra.kept``), so they live exactly as long as the algebra;
    the arrays are read-only.
    """
    return alg.kept("_arens_tables", lambda: _chain_tables(alg))


def _chain_tables(alg: FiniteAlgebra) -> ArensTables:
    """Build both read-only tables through the chain; ``arens_tables`` keeps them.

    The actions of the basis vectors are one stack each; pairing every basis
    vector with every action is one product with the identity, which is exact
    up to the sign of a zero.  Adding 0.0 makes every zero +0.0, so the bits of
    the tables do not depend on the BLAS kernel.
    """
    basis = np.eye(alg.dim, dtype=complex)
    # basis @ (action of e_q) holds e_p [] e_q at [q, p]
    first = (basis @ _bidual_left_action(alg, basis)).transpose(1, 0, 2) + 0.0
    second = basis @ _bidual_right_action(alg, basis) + 0.0
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


def product_dual_actions(product: MorphismProduct, f, g, a, b) -> ProductDualActions:
    """Both actions of (a, b) on (f, g), computed two ways.

    (f.a)(x) = f(a x) reads entry [a, x, f] of the multiplication table and
    (a.f)(x) = f(x a) entry [x, a, f], so each way is a contraction of a
    table: the direct one of the product algebra's own structure tensor, the
    block one of ``block_table`` on the factor structures and the hom, which
    is what the factor-level formulas

        (f, g) . (a, b) = (f.a + f.T(b),  f o (L_a T) + g.b)
        (a, b) . (f, g) = (a.f + T(b).f,  f o (R_a T) + b.g)

    read.  ``build_product`` makes its structure tensor by the same call, so
    the two agree by construction; no claim reads them, and the function
    stays because ``perfbench/tracer.py`` wraps it by name.
    """
    fg, ab, n = product.join(f, g), product.join(a, b), product.algebra.dim
    c = product.algebra.structure
    block = block_table(product.a.structure, product.b.structure, product.hom.matrix)
    tables = {"right_direct": c.transpose(2, 0, 1), "right_block": block.transpose(2, 0, 1),
              "left_direct": c.transpose(2, 1, 0), "left_block": block.transpose(2, 1, 0)}
    return ProductDualActions(**{
        name: ab @ (fg @ table.reshape(n, n * n)).reshape(n, n) for name, table in tables.items()
    })


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
    return HomAdjoints(
        t_prime=t_prime,
        t_second=t_second,
        embedding_residual=embedding_residual,
        mult_residual_first=max_abs(multiplicativity_gap(tables_b.first, tables_a.first, m2)),
        mult_residual_second=max_abs(multiplicativity_gap(tables_b.second, tables_a.second, m2)),
        tol=tol,
    )


def theta_homomorphism_residual(product: MorphismProduct, which: str) -> float:
    """Worst basis-pair deviation of Theta from multiplicativity.

    Compares the factor-level block formula, with # the chosen Arens product
    inside the factor biduals and T'' in place of T, against the Arens product
    formed inside the product algebra itself, over all pairs of block basis
    vectors.  No claim reads it: ``block_table`` is linear in the tables, so
    it is at most (1 + max(1, |T|_1)) times the worst table error of group
    02, |T|_1 the largest column l1-norm of T's matrix.
    """
    table_a, table_b, table_p = (getattr(arens_tables(alg), which) for alg in (product.a, product.b, product.algebra))
    return max_abs(block_table(table_a, table_b, product.hom.matrix) - table_p)


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
