"""Seeded inputs for the tpw benchmark.

Every input is a built-in or closed-form algebra rebased by a random unitary
(complex QR of a Gaussian matrix), so the structure tensors are dense and the
singular-value cutoffs and eigenvalue clustering are exercised.  Each
operation draws from its own stream, keyed by (seed, pass, op), so no input
repeats within a run and a process-lifetime cache cannot collect a gain that
users never see.
"""

from __future__ import annotations

import json
import os

import numpy as np

CORPUS_DIR_ENV = "TPW_CORPUS_DIR"
# rungs of the ladder workload: C_k x C_k with the identity hom, product dim 2k
LADDER_K = (2, 3, 4, 5)
# inputs of the derivations workload: (family, k); dims 9, 10, 15 and 16
DERIVATION_INPUTS = (("M", 3), ("T", 4), ("T", 5), ("M", 4))


def op_rng(seed: int, pass_index: int, op_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, pass_index, op_index])


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian, phases fixed by diag(R)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def rebase(structure: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Structure constants in the basis f_p = sum_i u[i, p] e_i, for unitary u.

    The parts symmetric and antisymmetric in (i, j) are rebased separately and
    made exactly (anti)symmetric, so a commutative algebra stays exactly
    commutative, as its exact rebased tensor is.  A plain contraction leaves
    rounding-level asymmetry (about 1e-17) that tpw's relative rank cutoff
    reads as a full commutator ideal: a rebased C[Z2] then has no characters
    (see the notes on known defects).
    """
    swap = structure.transpose(1, 0, 2)
    sym = np.einsum("ip,jq,ijk,kr->pqr", u, u, (structure + swap) / 2, u.conj())
    anti = np.einsum("ip,jq,ijk,kr->pqr", u, u, (structure - swap) / 2, u.conj())
    return (sym + sym.transpose(1, 0, 2)) / 2 + (anti - anti.transpose(1, 0, 2)) / 2


def matrix_unit_structure(family: str, k: int) -> np.ndarray:
    """Structure constants of a span of k x k matrix units, E_ij E_jl = E_il.

    ``C`` is the diagonal (C^k), ``T`` the upper triangle, ``M`` every unit.
    """
    keep = {"C": lambda i, j: i == j, "T": lambda i, j: i <= j, "M": lambda i, j: True}[family]
    units = [(i, j) for i in range(k) for j in range(k) if keep(i, j)]
    index = {unit: n for n, unit in enumerate(units)}
    c = np.zeros((len(units),) * 3)
    for a, (i, j) in enumerate(units):
        for b, (j2, l) in enumerate(units):
            if j == j2:
                c[a, b, index[(i, l)]] = 1.0
    return c


def _complex_json(a: np.ndarray) -> list:
    return np.stack([a.real, a.imag], axis=-1).tolist()


def algebra_json(name: str, structure: np.ndarray) -> dict:
    n = structure.shape[0]
    return {
        "name": name,
        "dim": n,
        "basis": [f"f{i}" for i in range(n)],
        "structure": _complex_json(structure),
    }


def _write_json(path: str, data) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def rebased_id(entry_id: str) -> str:
    return f"{entry_id}-rebased"


def write_corpus_dir(directory: str, entries, rng: np.random.Generator) -> None:
    """One rebased copy of each (A, B, T) entry, as $TPW_CORPUS_DIR files.

    Algebras that share a name within an entry share one change of basis,
    because the corpus loader resolves the hom's endpoints by name.
    """
    os.makedirs(directory, exist_ok=True)
    for n, entry in enumerate(entries):
        a, b = entry.algebra_a, entry.algebra_b
        unitaries = {}
        for alg in (a, b):
            if alg.name not in unitaries:
                unitaries[alg.name] = random_unitary(rng, alg.dim)
        ua, ub = unitaries[a.name], unitaries[b.name]
        _write_json(os.path.join(directory, f"{n:02d}.json"), {
            "id": rebased_id(entry.entry_id),
            "algebra_a": algebra_json(a.name, rebase(a.structure, ua)),
            "algebra_b": algebra_json(b.name, rebase(b.structure, ub)),
            "hom": {
                "source": b.name,
                "target": a.name,
                "matrix": _complex_json(ua.conj().T @ entry.hom.matrix @ ub),
            },
            "tags": list(entry.tags),
        })


def write_algebra(path: str, family: str, k: int, rng: np.random.Generator) -> None:
    """A rebased closed-form algebra (C_k, T_k or M_k) as an algebra file."""
    c = matrix_unit_structure(family, k)
    _write_json(path, algebra_json(f"{family}{k}", rebase(c, random_unitary(rng, c.shape[0]))))


def ladder_triple(k: int, rng: np.random.Generator):
    """Rebased C_k x C_k with the identity hom, as tpw objects."""
    from tpw.core import FiniteAlgebra
    from tpw.product import AlgebraHom

    c = matrix_unit_structure("C", k)
    alg = FiniteAlgebra(
        name=f"C{k}",
        basis_labels=tuple(f"f{i}" for i in range(k)),
        structure=rebase(c, random_unitary(rng, k)),
    )
    return alg, alg, AlgebraHom(source=alg, target=alg, matrix=np.eye(k))
