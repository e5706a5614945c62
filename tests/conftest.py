import numpy as np
import pytest

from tpw.core import FiniteAlgebra
from tpw.corpus import (
    algebra_c,
    algebra_c2,
    algebra_group_z2,
    algebra_m2,
    algebra_null1,
    algebra_row2,
    algebra_ut2,
    builtin_corpus,
)

TOL = 1e-9


@pytest.fixture(scope="session")
def tol():
    return TOL


@pytest.fixture(scope="session")
def alg_c():
    return algebra_c()


@pytest.fixture(scope="session")
def alg_c2():
    return algebra_c2()


@pytest.fixture(scope="session")
def alg_m2():
    return algebra_m2()


@pytest.fixture(scope="session")
def alg_z2():
    return algebra_group_z2()


@pytest.fixture(scope="session")
def alg_ut2():
    return algebra_ut2()


@pytest.fixture(scope="session")
def alg_row2():
    return algebra_row2()


@pytest.fixture(scope="session")
def alg_null1():
    return algebra_null1()


@pytest.fixture(scope="session")
def corpus():
    return builtin_corpus()


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def random_element(rng, dim):
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def random_unitary(rng, n):
    """Haar-distributed unitary: QR of a complex Gaussian, phases fixed by diag(R)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def rebased(alg, u, name=None):
    """The algebra in the basis f_p = sum_i u[i, p] e_i (u unitary), by one plain contraction.

    A commutative tensor comes out commutative only up to rounding.
    """
    c = np.einsum("ip,jq,ijk,kr->pqr", u, u, alg.structure, u.conj())
    return FiniteAlgebra(
        name=name or f"{alg.name}r", basis_labels=tuple(f"f{i}" for i in range(alg.dim)), structure=c
    )


def matrix_unit_algebra(family, k):
    """C_k (diagonal), T_k (upper triangular) or M_k (all) k x k matrix units, E_ij E_jl = E_il."""
    keep = {"C": lambda i, j: i == j, "T": lambda i, j: i <= j, "M": lambda i, j: True}[family]
    units = [(i, j) for i in range(k) for j in range(k) if keep(i, j)]
    c = np.zeros((len(units),) * 3)
    for a, (i, j) in enumerate(units):
        for b, (j2, l) in enumerate(units):
            if j == j2:
                c[a, b, units.index((i, l))] = 1.0
    return FiniteAlgebra(
        name=f"{family}{k}", basis_labels=tuple(f"E{i}{j}" for i, j in units), structure=c
    )
