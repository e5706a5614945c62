import math
from json.encoder import encode_basestring_ascii

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
from tpw.product import AlgebraHom

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


def right_mult_operator(alg, a):
    """Matrix of x -> x a in the basis: the reference right multiplication of the oracles below."""
    return np.einsum("j,ijk->ki", alg.coerce(a), alg.structure)


def inner_derivation(alg, f):
    """The matrix of ad_f : a -> a.f - f.a: the reference inner derivation of the tests."""
    c = alg.structure
    return ((c - c.transpose(1, 0, 2)).reshape(-1, alg.dim) @ alg.coerce(f)).reshape(alg.dim, alg.dim)


def dual_actions(alg, f, a):
    """Both module actions of a on the functional f, (f.a, a.f), from the multiplication operators:
    f.a is the functional x -> f(a x) and a.f is x -> f(x a).  A reference for the tables."""
    f = alg.coerce(f)
    return alg.left_mult_operator(a).T @ f, right_mult_operator(alg, a).T @ f


def split(product, v):
    """The A-block and the B-block of a vector of the product, as copies."""
    v = product.algebra.coerce(v)
    return v[: product.dim_a].copy(), v[product.dim_a :].copy()


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
    """C_k (diagonal), T_k (upper triangular), N_k (strictly upper triangular) or M_k (all)
    k x k matrix units, E_ij E_jl = E_il, labelled with 0-based indices."""
    keep = {"C": lambda i, j: i == j, "T": lambda i, j: i <= j, "N": lambda i, j: i < j,
            "M": lambda i, j: True}[family]
    units = [(i, j) for i in range(k) for j in range(k) if keep(i, j)]
    c = np.zeros((len(units),) * 3)
    for a, (i, j) in enumerate(units):
        for b, (j2, l) in enumerate(units):
            if j == j2:
                c[a, b, units.index((i, l))] = 1.0
    return FiniteAlgebra(
        name=f"{family}{k}", basis_labels=tuple(f"E{i}{j}" for i, j in units), structure=c
    )


def power_estimates(monkeypatch):
    """The list that each later ``linalg.sketched_nullspace`` appends its estimate of s_max
    to, once per call: the ``top`` from which it takes the cutoff ``cut`` of the whole system
    (by ``linalg.svd_cutoff``), which sets the sketch's threshold and the restricted system's cut."""
    import sys

    import tpw.linalg

    tops, cutoff = [], tpw.linalg.svd_cutoff

    def spy(singular_values, shape, tol, scale=0.0):
        if sys._getframe(1).f_code.co_name == "sketched_nullspace":
            tops.append(float(singular_values[0]))
        return cutoff(singular_values, shape, tol, scale)

    monkeypatch.setattr(tpw.linalg, "svd_cutoff", spy)
    return tops


def zero_product_algebra(n):
    """Z_n, the n-dimensional algebra in which every product is 0."""
    return FiniteAlgebra(name=f"Z{n}", basis_labels=tuple(f"z{i}" for i in range(n)), structure=np.zeros((n, n, n)))


def c2_eps(eps):
    """C2_eps, with e1 e1 = e1 and e2 e2 = eps e2: C2 in the basis (e1, e2 / eps) for every eps != 0.
    Its second character has size eps, and the trace form sees eps^2.  Where eps is over tol but
    eps^2 is under the form's rounding-level cut (up to about 7e-7), no count can be certified."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 0], c[1, 1, 1] = 1.0, eps
    return FiniteAlgebra(name=f"C2_{eps:g}", basis_labels=("e1", "e2"), structure=c)


def undecidable_triple():
    """C2_eps x_0 C at eps = 1e-7, whose first factor's enumeration is incomplete at tol 1e-9."""
    a, c = c2_eps(1e-7), algebra_c()
    return a, c, AlgebraHom(source=c, target=a, matrix=np.zeros((2, 1)))


def rebased_triple(a, b, hom, rng):
    """(A, B, T) in random unitary bases, one per algebra object, with T's matrix moved along."""
    ua = random_unitary(rng, a.dim)
    ub = ua if b is a else random_unitary(rng, b.dim)
    ra = rebased(a, ua)
    rb = ra if b is a else rebased(b, ub)
    return ra, rb, AlgebraHom(source=rb, target=ra, matrix=ua.conj().T @ hom.matrix @ ub)


def cross_term_triple(image="E02"):
    """N3 x_T null1 with T(z) the matrix unit ``image``: a nonzero hom, and both A^2 and
    B^2 proper, so the product has 2 codim(A^2) codim(B^2) = 4 cross derivations.  Kept
    out of the built-in corpus.

    The default, E02 (E13 in 1-based indices), annihilates N3, so the product's
    multiplication is the direct sum's; E01 (E12) does not, since E12 E23 = E13.
    """
    n3, null1 = matrix_unit_algebra("N", 3), algebra_null1()
    m = np.zeros((3, 1))
    m[n3.basis_labels.index(image), 0] = 1.0
    return n3, null1, AlgebraHom(source=null1, target=n3, matrix=m)


def direct_sum(x, y):
    """X + Y with the block-diagonal multiplication."""
    n, c = x.dim, np.zeros((x.dim + y.dim,) * 3, dtype=complex)
    c[:n, :n, :n], c[n:, n:, n:] = x.structure, y.structure
    return FiniteAlgebra(name=f"{x.name}+{y.name}", basis_labels=tuple(f"s{i}" for i in range(c.shape[0])), structure=c)


def stacking_triples(corpus):
    """(label, A, B, T) for the stacked-versus-loop reference tests: every corpus entry and a
    rebased copy, both cross-term triples, C + UT2 as either factor with C and the zero hom
    (its characters' invariant elements have dimensions 2, 0 and 1 on the left), each plain
    and rebased, and Z2 and Z3 (zero characters, certified by the trace form's count) as a factor
    of C2 and of C with the zero hom."""
    rng = np.random.default_rng(11)
    triples = [(e.entry_id, e.algebra_a, e.algebra_b, e.hom) for e in corpus]
    triples += [(f"cross-{image}", *cross_term_triple(image)) for image in ("E02", "E01")]
    c, mixed = algebra_c(), direct_sum(algebra_c(), algebra_ut2())
    triples.append(("mixed-c-zero", mixed, c, AlgebraHom(source=c, target=mixed, matrix=np.zeros((mixed.dim, 1)))))
    triples.append(("c-mixed-zero", c, mixed, AlgebraHom(source=mixed, target=c, matrix=np.zeros((1, mixed.dim)))))
    triples += [(f"{label}-rebased", *rebased_triple(a, b, hom, rng)) for label, a, b, hom in list(triples)]
    c2, z2, z3 = algebra_c2(), zero_product_algebra(2), zero_product_algebra(3)
    triples.append(("c2-z2-zero", c2, z2, AlgebraHom(source=z2, target=c2, matrix=np.zeros((2, 2)))))
    triples.append(("z3-c-zero", z3, c, AlgebraHom(source=c, target=z3, matrix=np.zeros((3, 1)))))
    return triples


def recursive_emit(value, out: list):
    """The recursive emitter that ``report.dump_json`` replaced, kept as its reference: one call per
    value, every dict key sorted by ``str``.  A non-finite float is null, as JSON has no word for it."""
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, (float, np.floating)):
        out.append(format(float(value), ".12e") if math.isfinite(value) else "null")
    elif isinstance(value, (complex, np.complexfloating)):
        recursive_emit([float(value.real), float(value.imag)], out)
    elif isinstance(value, np.ndarray):
        recursive_emit(value.tolist(), out)
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value, key=str)):
            out.append(("," if i else "") + encode_basestring_ascii(str(key)) + ":")
            recursive_emit(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            recursive_emit(item, out)
        out.append("]")
    elif hasattr(value, "to_dict"):
        recursive_emit(value.to_dict(), out)
    else:
        out.append(encode_basestring_ascii(str(value)))


def recursive_dump_json(data) -> str:
    out: list[str] = []
    recursive_emit(data, out)
    return "".join(out)
