"""Finite-dimensional complex associative algebras given by structure constants.

Conventions used throughout the workbench:

* An algebra of dimension n is described by a tensor ``c`` of shape
  (n, n, n) with ``e_i e_j = sum_k c[i, j, k] e_k``.
* Elements, dual functionals and bidual elements are all plain complex
  coordinate vectors of length n.  A functional f pairs with an element x
  bilinearly: ``<f, x> = sum_i f_i x_i`` (no conjugation).
* The norm is the coordinate-weighted l1 norm ``sum_i w_i |x_i|``; residuals
  are measured in the max-norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ShapeError, ValidationError
from .linalg import as_complex, max_abs, nullspace, solve_consistent


@dataclass(frozen=True)
class FiniteAlgebra:
    """A complex associative algebra with a named basis.

    ``structure[i, j, k]`` is the coefficient of ``e_k`` in ``e_i e_j``.
    Instances are immutable after construction; all methods are pure.
    """

    name: str
    basis_labels: tuple[str, ...]
    structure: np.ndarray
    norm_weights: np.ndarray = None
    declared_characters: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        labels = tuple(str(s) for s in self.basis_labels)
        n = len(labels)
        if n < 1:
            raise ShapeError(f"algebra {self.name!r}: dim must be >= 1")
        if len(set(labels)) != n:
            raise ValidationError(f"algebra {self.name!r}: basis labels must be distinct")
        c = as_complex(self.structure)
        if c.shape != (n, n, n):
            raise ShapeError(
                f"algebra {self.name!r}: structure tensor has shape {c.shape}, expected {(n, n, n)}"
            )
        if not np.all(np.isfinite(c)):
            raise ValidationError(f"algebra {self.name!r}: structure tensor has non-finite entries")
        w = self.norm_weights
        w = np.ones(n) if w is None else np.asarray(w, dtype=float)
        if w.shape != (n,):
            raise ShapeError(f"algebra {self.name!r}: norm_weights has shape {w.shape}, expected ({n},)")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValidationError(f"algebra {self.name!r}: norm weights must be positive and finite")
        chars = []
        for f in self.declared_characters:
            fv = as_complex(f).reshape(-1)
            if fv.shape != (n,):
                raise ShapeError(f"algebra {self.name!r}: declared character has length {fv.shape[0]}, expected {n}")
            chars.append(fv)
        chars = tuple(chars)
        c.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "basis_labels", labels)
        object.__setattr__(self, "structure", c)
        object.__setattr__(self, "norm_weights", w)
        object.__setattr__(self, "declared_characters", chars)

    @property
    def dim(self) -> int:
        return len(self.basis_labels)

    @cached_property
    def cutoff_scale(self) -> float:
        """max(1, max |structure|), the rank-cutoff floor of every system that cancels
        structure-scale quantities (commutators; the centre, Leibniz, topological-centre
        and invariant-element systems): rounding noise in them must not count as rank."""
        return max(1.0, max_abs(self.structure))

    def basis_vector(self, i: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[i] = 1.0
        return v

    def coerce(self, coords) -> np.ndarray:
        x = as_complex(coords).reshape(-1)
        if x.shape != (self.dim,):
            raise ShapeError(f"coordinate vector of length {x.shape[0]} for algebra {self.name!r} of dim {self.dim}")
        return x

    def coerce_rows(self, coords) -> tuple[np.ndarray, bool]:
        """coords as a (k, dim) stack of rows, and whether it was one vector (then k = 1)."""
        x = as_complex(coords)
        if x.ndim < 2:
            return self.coerce(x)[None], True
        if x.shape[1:] != (self.dim,):
            raise ShapeError(f"stack of shape {x.shape} for algebra {self.name!r} of dim {self.dim}")
        return x, False

    def multiply(self, x, y) -> np.ndarray:
        """Coordinates of the product: (xy)_k = sum_ij x_i y_j c[i,j,k]."""
        return np.einsum("i,j,ijk->k", self.coerce(x), self.coerce(y), self.structure)

    def left_mult_operator(self, a) -> np.ndarray:
        """Matrix of x -> a x in the basis."""
        return np.einsum("i,ijk->kj", self.coerce(a), self.structure)

    def right_mult_operator(self, a) -> np.ndarray:
        """Matrix of x -> x a in the basis."""
        return np.einsum("j,ijk->ki", self.coerce(a), self.structure)

    def l1_norm(self, x) -> float:
        return float(np.sum(self.norm_weights * np.abs(self.coerce(x))))

    def associativity_residual(self) -> float:
        """max-norm of (e_i e_j) e_k - e_i (e_j e_k) over all basis triples; each side is one
        (n^2, n) @ (n, n^2) product, with (e_i e_j) e_k at [(i, j), (k, l)] and e_i (e_j e_k) at [(j, k), (i, l)]."""
        n, c = self.dim, self.structure
        flat = c.reshape(n * n, n)
        left = (flat @ c.reshape(n, n * n)).reshape(n, n, n, n)
        right = (flat @ c.transpose(1, 0, 2).reshape(n, n * n)).reshape(n, n, n, n)
        right -= left.transpose(1, 2, 0, 3)
        return max_abs(right)

    def __repr__(self):
        return f"FiniteAlgebra({self.name!r}, dim={self.dim})"


def same_content(x: FiniteAlgebra, y: FiniteAlgebra) -> bool:
    """Whether two algebras agree in everything but their names."""
    return (
        x.basis_labels == y.basis_labels
        and np.array_equal(x.structure, y.structure)
        and np.array_equal(x.norm_weights, y.norm_weights)
        and len(x.declared_characters) == len(y.declared_characters)
        and all(np.array_equal(f, g) for f, g in zip(x.declared_characters, y.declared_characters))
    )


@dataclass(frozen=True)
class LinearMap:
    """A linear map between coordinate spaces, tagged with descriptors."""

    source: str
    target: str
    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex(self.matrix)
        if m.ndim != 2:
            raise ShapeError(f"LinearMap {self.source!r} -> {self.target!r}: matrix must be 2-dimensional")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __call__(self, x) -> np.ndarray:
        return self.matrix @ as_complex(x)


@dataclass
class AlgebraValidationReport:
    """Outcome of validate_algebra."""

    algebra: str
    associativity_residual: float
    associative: bool
    submultiplicative: bool
    identity: np.ndarray | None
    left_identity: np.ndarray | None
    right_identity: np.ndarray | None
    warnings: list = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return self.associative

    @property
    def unital(self) -> bool:
        return self.identity is not None


def validate_algebra(alg: FiniteAlgebra, tol: float) -> AlgebraValidationReport:
    """Check the associative-algebra axioms and report norm/identity facts.

    Associativity failures make the report invalid; a non-submultiplicative
    coordinate l1 norm is only warned about, since every check downstream is
    algebraic.
    """
    residual = alg.associativity_residual()
    associative = residual <= tol

    # submultiplicative iff ||e_i e_j|| <= w_i w_j for all basis pairs
    prod_norms = np.einsum("ijk,k->ij", np.abs(alg.structure), alg.norm_weights)
    excess = float(np.max(prod_norms - np.outer(alg.norm_weights, alg.norm_weights)))
    submult = excess <= tol

    left = find_left_identity(alg, tol)
    right = find_right_identity(alg, tol)
    identity = None
    if left is not None and right is not None:
        # a two-sided identity, when it exists, equals every one-sided one
        if max_abs(left - right) <= 10 * tol:
            identity = left

    warnings = []
    if not associative:
        warnings.append(f"associativity residual {residual:.3e} exceeds tolerance")
    if not submult:
        warnings.append(f"coordinate l1 norm is not submultiplicative (excess {excess:.3e})")
    return AlgebraValidationReport(
        algebra=alg.name,
        associativity_residual=residual,
        associative=associative,
        submultiplicative=submult,
        identity=identity,
        left_identity=left,
        right_identity=right,
        warnings=warnings,
    )


def center(alg: FiniteAlgebra, tol: float) -> np.ndarray:
    """Orthonormal basis of {z : z a = a z for all a}, as columns.

    Solves the stacked commutator system (L_{e_j} - R_{e_j}) z = 0 over all
    basis elements with the global singular-value cutoff.  Row (j, k), column
    x of that system is c[j, x, k] - c[x, j, k].
    """
    n = alg.dim
    commutator = alg.structure - alg.structure.transpose(1, 0, 2)
    return nullspace(commutator.transpose(0, 2, 1).reshape(n * n, n), tol, scale=alg.cutoff_scale)


def find_left_identity(alg: FiniteAlgebra, tol: float) -> np.ndarray | None:
    """Minimal-norm e with e a = a for all a, or None when none exists.

    In finite dimension a bounded one-sided approximate identity has a
    convergent subnet, so existence of a one-sided identity is the faithful
    reduction of the bounded-approximate-identity condition.
    """
    n = alg.dim
    # unknown e: sum_i e_i c[i, j, k] = delta_{jk} for all j, k
    a = alg.structure.reshape(n, n * n).T
    b = np.eye(n, dtype=complex).reshape(n * n)
    return solve_consistent(a, b, tol)


def find_right_identity(alg: FiniteAlgebra, tol: float) -> np.ndarray | None:
    """Minimal-norm e with a e = a for all a, or None when none exists."""
    n = alg.dim
    # unknown e: sum_j c[i, j, k] e_j = delta_{ik} for all i, k
    a = np.einsum("ijk->ikj", alg.structure).reshape(n * n, n)
    b = np.eye(n, dtype=complex).reshape(n * n)
    return solve_consistent(a, b, tol)
