"""Built-in corpus of small algebras, homs, and tagged product entries.

Verdict tags on an entry ("weakly-amenable", "non-char-amenable", ...) state
the expected outcome for the *product* algebra; the char-amenability tag is
the left-sided verdict.  `corpus run` and the test suite check the tags
against the computed outcomes.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass

import numpy as np

from .core import FiniteAlgebra
from .errors import ParseError
from .io import _load_json, _registry, algebra_from_dict, hom_from_dict
from .product import AlgebraHom

VERDICT_TAGS = {
    "weakly-amenable": ("weakly_amenable", True),
    "non-weakly-amenable": ("weakly_amenable", False),
    "char-amenable": ("char_amenable", True),
    "non-char-amenable": ("char_amenable", False),
    "char-inner-amenable": ("char_inner_amenable", True),
    "non-char-inner-amenable": ("char_inner_amenable", False),
}


@dataclass(frozen=True)
class CorpusEntry:
    entry_id: str
    algebra_a: FiniteAlgebra
    algebra_b: FiniteAlgebra
    hom: AlgebraHom
    tags: tuple[str, ...]

    def expected_verdicts(self) -> dict[str, bool]:
        out = {}
        for tag in self.tags:
            if tag in VERDICT_TAGS:
                key, value = VERDICT_TAGS[tag]
                out[key] = value
        return out


def _matrix_units(name: str, labels: tuple[str, ...]) -> FiniteAlgebra:
    """The span of the matrix units ``Eij`` named by ``labels``, exactly: E_ij E_jl = E_il.

    The span must be closed, that is hold E_il whenever it holds E_ij and E_jl.
    """
    c = np.zeros((len(labels),) * 3)
    for p, (_, i, j) in enumerate(labels):  # "Eij" unpacks to "E", i, j
        for q, (_, j2, l) in enumerate(labels):
            if j == j2:
                c[p, q, labels.index(f"E{i}{l}")] = 1.0
    return FiniteAlgebra(name=name, basis_labels=labels, structure=c)


def algebra_c() -> FiniteAlgebra:
    """The complex numbers as a one-dimensional algebra."""
    return FiniteAlgebra(name="C", basis_labels=("e",), structure=np.ones((1, 1, 1)))


def algebra_cn(n: int) -> FiniteAlgebra:
    """C^n with pointwise multiplication."""
    c = np.zeros((n, n, n))
    for i in range(n):
        c[i, i, i] = 1.0
    return FiniteAlgebra(name=f"C{n}", basis_labels=tuple(f"e{i + 1}" for i in range(n)), structure=c)


def algebra_c2() -> FiniteAlgebra:
    return algebra_cn(2)


def algebra_m2() -> FiniteAlgebra:
    """Full 2x2 matrix algebra on the unit-matrix basis."""
    return _matrix_units("M2", ("E11", "E12", "E21", "E22"))


def algebra_group_z2() -> FiniteAlgebra:
    """Group algebra of the two-element group, on the group basis: 1 is the unit and g g = 1."""
    structure = np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]])
    return FiniteAlgebra(name="C[Z2]", basis_labels=("1", "g"), structure=structure)


def algebra_ut2() -> FiniteAlgebra:
    """Upper-triangular 2x2 matrices."""
    return _matrix_units("UT2", ("E11", "E12", "E22"))


def algebra_row2() -> FiniteAlgebra:
    """2x2 matrices supported on the first row (span of E11 and E12).

    Has a left identity but no right identity, a trivial center, and a
    single character; the workbench's standard negative instance for
    character amenability and for inner means.
    """
    return _matrix_units("row2", ("E11", "E12"))


def algebra_null1() -> FiniteAlgebra:
    """The one-dimensional algebra with zero multiplication.

    Every linear map into the dual is a derivation while no inner derivation
    is nonzero, so this is the corpus's non-weakly-amenable factor.
    """
    return FiniteAlgebra(name="null1", basis_labels=("z",), structure=np.zeros((1, 1, 1)))


def hom_identity(alg: FiniteAlgebra) -> AlgebraHom:
    return AlgebraHom(source=alg, target=alg, matrix=np.eye(alg.dim))


def hom_zero(source: FiniteAlgebra, target: FiniteAlgebra) -> AlgebraHom:
    return AlgebraHom(source=source, target=target, matrix=np.zeros((target.dim, source.dim)))


def hom_scaled_character(source: FiniteAlgebra, target: FiniteAlgebra,
                         character: np.ndarray, identity: np.ndarray) -> AlgebraHom:
    """b -> character(b) * identity, the hom behind the special product form."""
    return AlgebraHom(source=source, target=target, matrix=np.outer(identity, character))


def hom_c2_diag_into_ut2(c2: FiniteAlgebra, ut2: FiniteAlgebra) -> AlgebraHom:
    matrix = np.zeros((3, 2))
    matrix[0, 0] = 1.0  # e1 -> E11
    matrix[2, 1] = 1.0  # e2 -> E22
    return AlgebraHom(source=c2, target=ut2, matrix=matrix)


def hom_c2_swap(c2: FiniteAlgebra) -> AlgebraHom:
    return AlgebraHom(source=c2, target=c2, matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))


def builtin_corpus() -> list[CorpusEntry]:
    """The eight standard (A, B, T) triples with their expected verdicts."""
    c = algebra_c()
    c2 = algebra_c2()
    m2 = algebra_m2()
    z2 = algebra_group_z2()
    ut2 = algebra_ut2()
    row2 = algebra_row2()
    null1 = algebra_null1()

    entries = [
        CorpusEntry(
            "c-c-id", c, c, hom_identity(c),
            ("epi", "weakly-amenable", "char-amenable", "char-inner-amenable"),
        ),
        CorpusEntry(
            "c-c-zero", c, c, hom_zero(c, c),
            ("zero-hom", "weakly-amenable", "char-amenable", "char-inner-amenable"),
        ),
        CorpusEntry(
            "c2-c-lau", c2, c,
            hom_scaled_character(c, c2, character=np.array([1.0 + 0j]), identity=np.array([1.0, 1.0])),
            ("lau", "weakly-amenable", "char-amenable", "char-inner-amenable"),
        ),
        CorpusEntry(
            "m2-cz2-zero", m2, z2, hom_zero(z2, m2),
            ("zero-hom", "weakly-amenable", "char-amenable", "char-inner-amenable"),
        ),
        CorpusEntry(
            "ut2-c2-diag", ut2, c2, hom_c2_diag_into_ut2(c2, ut2),
            ("weakly-amenable", "non-char-amenable", "char-inner-amenable"),
        ),
        CorpusEntry(
            "row2-c-zero", row2, c, hom_zero(c, row2),
            ("zero-hom", "weakly-amenable", "non-char-amenable", "non-char-inner-amenable"),
        ),
        CorpusEntry(
            "null1-c-zero", null1, c, hom_zero(c, null1),
            ("zero-hom", "non-weakly-amenable", "non-char-amenable", "char-inner-amenable"),
        ),
        CorpusEntry(
            "c2-c2-swap", c2, c2, hom_c2_swap(c2),
            ("epi", "weakly-amenable", "char-amenable", "char-inner-amenable"),
        ),
    ]
    return entries


CORPUS_DIR_ENV = "TPW_CORPUS_DIR"


def load_corpus_dir(path: str, tol: float = 1e-9) -> list[CorpusEntry]:
    """Load user corpus entries, one JSON object per *.json file.

    Schema: {"id", "algebra_a": <algebra>, "algebra_b": <algebra>,
    "hom": <hom>, "tags": [...]}.
    """
    entries = []
    for name in sorted(glob.glob(os.path.join(path, "*.json"))):
        data = _load_json(name)
        if not isinstance(data, dict):
            raise ParseError(f"{name}: top-level value must be an object")
        for key in ("id", "algebra_a", "algebra_b", "hom"):
            if key not in data:
                raise ParseError(f"{name}: missing required field {key!r}")
        tags = data.get("tags", [])
        if not isinstance(tags, list):
            raise ParseError(f"{name}: tags must be a list, got {tags!r}")
        alg_a = algebra_from_dict(data["algebra_a"], f"{name}: algebra_a", tol)
        alg_b = algebra_from_dict(data["algebra_b"], f"{name}: algebra_b", tol)
        hom = hom_from_dict(data["hom"], _registry(alg_a, alg_b, f"{name}: hom"), f"{name}: hom", tol)
        entries.append(
            CorpusEntry(
                entry_id=str(data["id"]),
                algebra_a=alg_a,
                algebra_b=alg_b,
                hom=hom,
                tags=tuple(str(t) for t in tags),
            )
        )
    return entries


def full_corpus(tol: float = 1e-9) -> list[CorpusEntry]:
    """Built-in entries plus any user entries from $TPW_CORPUS_DIR."""
    entries = builtin_corpus()
    extra_dir = os.environ.get(CORPUS_DIR_ENV)
    if extra_dir:
        entries.extend(load_corpus_dir(extra_dir, tol))
    return entries
