"""Loading and saving algebras and homs as canonical JSON.

Complex numbers are stored as two-element [re, im] arrays.  Saved files are
in canonical form (sorted keys, fixed float formatting), so loading and
re-saving a canonical file is byte-identical.
"""

from __future__ import annotations

import json

import numpy as np

from .characters import verify_character
from .core import FiniteAlgebra, same_content, validate_algebra
from .errors import CharacterRejected, ParseError, ShapeError, ValidationError
from .product import AlgebraHom
from .report import dump_json

DEFAULT_TOL = 1e-9


def _parse_complex(value, where: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ParseError(f"{where}: complex values must be [re, im] pairs, got {value!r}")
    re, im = value
    if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
        raise ParseError(f"{where}: complex components must be numbers, got {value!r}")
    try:
        return complex(re, im)
    except OverflowError:
        raise ParseError(f"{where}: complex component too large for a float") from None


def _parse_complex_array(value, shape: tuple[int, ...], where: str) -> np.ndarray:
    """An array of [re, im] number pairs of the given shape, as complex.

    A well-formed array is one conversion, its pairs reinterpreted without
    arithmetic, so each entry is what complex(re, im) gives; anything else
    is walked entry by entry, which names the first bad entry.
    """
    try:
        pairs = np.array(value)
    except (ValueError, TypeError, OverflowError):  # ragged or unconvertible: walk it
        pairs = None
    if pairs is not None and pairs.dtype.kind in "iuf" and pairs.shape == shape + (2,):
        return np.ascontiguousarray(pairs, dtype=float).view(complex).reshape(shape)
    out = np.empty(shape, dtype=complex)
    flat = out.reshape(-1)

    def walk(node, index_prefix, depth):
        if depth == len(shape):
            flat[np.ravel_multi_index(index_prefix, shape)] = _parse_complex(
                node, f"{where}{list(index_prefix)}"
            )
            return
        if not isinstance(node, list) or len(node) != shape[depth]:
            raise ParseError(
                f"{where}{list(index_prefix)}: expected a list of length {shape[depth]}"
            )
        for i, child in enumerate(node):
            walk(child, index_prefix + (i,), depth + 1)

    walk(value, (), 0)
    return out


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _require(data: dict, key: str, path: str):
    if not isinstance(data, dict):
        raise ParseError(f"{path}: must be an object, got {data!r}")
    if key not in data:
        raise ParseError(f"{path}: missing required field {key!r}")
    return data[key]


def algebra_from_dict(data: dict, where: str, tol: float = DEFAULT_TOL, validate: bool = True) -> FiniteAlgebra:
    name = _require(data, "name", where)
    dim = _require(data, "dim", where)
    basis = _require(data, "basis", where)
    # bool is a subclass of int, but "dim": true is not a dimension
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"{where}: dim must be a positive integer")
    if not isinstance(basis, list) or len(basis) != dim:
        raise ParseError(f"{where}: basis must list exactly {dim} labels")
    structure = _parse_complex_array(_require(data, "structure", where), (dim, dim, dim), f"{where}: structure")
    weights = data.get("norm_weights")
    if weights is not None and not (isinstance(weights, list) and all(isinstance(w, (int, float)) for w in weights)):
        raise ParseError(f"{where}: norm_weights must be a list of numbers, got {weights!r}")
    declared = data.get("declared_characters", [])
    if not isinstance(declared, list):
        raise ParseError(f"{where}: declared_characters must be a list of functionals, got {declared!r}")
    declared = [_parse_complex_array(f, (dim,), f"{where}: declared_characters[{k}]") for k, f in enumerate(declared)]
    try:
        alg = FiniteAlgebra(
            name=str(name),
            basis_labels=tuple(str(b) for b in basis),
            structure=structure,
            norm_weights=None if weights is None else np.asarray(weights, dtype=float),
            declared_characters=tuple(declared),
        )
    except (ShapeError, ValidationError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc

    if validate:
        report = validate_algebra(alg, tol)
        if not report.valid:
            raise ValidationError(
                f"{where}: structure tensor is not associative "
                f"(residual {report.associativity_residual:.3e} > {tol:.1e})"
            )
        for k, f in enumerate(alg.declared_characters):
            try:
                verify_character(alg, f, tol)
            except CharacterRejected as exc:
                raise ValidationError(
                    f"{where}: declared_characters[{k}] is not a character: {exc}"
                ) from exc
    return alg


def load_algebra(path: str, tol: float = DEFAULT_TOL, validate: bool = True) -> FiniteAlgebra:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    return algebra_from_dict(data, path, tol, validate)


def algebra_to_dict(alg: FiniteAlgebra) -> dict:
    data = {
        "name": alg.name,
        "dim": alg.dim,
        "basis": list(alg.basis_labels),
        "structure": alg.structure,
        "norm_weights": [float(w) for w in alg.norm_weights],
    }
    if alg.declared_characters:
        data["declared_characters"] = list(alg.declared_characters)
    return data


def save_algebra(alg: FiniteAlgebra, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(algebra_to_dict(alg)))
        fh.write("\n")


def _registry(alg_a: FiniteAlgebra, alg_b: FiniteAlgebra, where: str) -> dict[str, FiniteAlgebra]:
    """Algebras by name, for resolving the source and target of the hom at ``where``."""
    if alg_a.name == alg_b.name and not same_content(alg_a, alg_b):
        raise ValidationError(
            f"{where}: algebras A and B are both named {alg_a.name!r} but differ; "
            "the hom's source and target cannot be told apart, so rename one of them"
        )
    return {alg_a.name: alg_a, alg_b.name: alg_b}


def hom_from_dict(
    data: dict, registry: dict[str, FiniteAlgebra], where: str, tol: float = DEFAULT_TOL
) -> AlgebraHom:
    source_name = str(_require(data, "source", where))
    target_name = str(_require(data, "target", where))
    for nm in (source_name, target_name):
        if nm not in registry:
            raise ValidationError(f"{where}: references unknown algebra {nm!r}")
    source = registry[source_name]
    target = registry[target_name]
    matrix = _parse_complex_array(
        _require(data, "matrix", where), (target.dim, source.dim), f"{where}: matrix"
    )
    try:
        hom = AlgebraHom(source=source, target=target, matrix=matrix)
    except ShapeError as exc:
        raise ValidationError(f"{where}: {exc}") from exc
    if not hom.mult_residual <= tol:
        i, j = hom.worst_pair
        raise ValidationError(
            f"{where}: map is not multiplicative on basis pair "
            f"({source.basis_labels[i]!r}, {source.basis_labels[j]!r}) "
            f"(residual {hom.mult_residual:.3e} > {tol:.1e})"
        )
    return hom


def load_hom(path: str, registry: dict[str, FiniteAlgebra], tol: float = DEFAULT_TOL) -> AlgebraHom:
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    return hom_from_dict(data, registry, path, tol)


def hom_to_dict(hom: AlgebraHom) -> dict:
    return {"source": hom.source.name, "target": hom.target.name, "matrix": hom.matrix}


def save_hom(hom: AlgebraHom, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(hom_to_dict(hom)))
        fh.write("\n")
