"""Command-line entry point.

Exit codes: 0 all checks passed, 1 some claim failed, 2 input error,
3 some verdict undecidable (incomplete character enumeration).
"""

from __future__ import annotations

import argparse
import sys

from .amenability import Analysis, derivation_space, is_character_inner_amenable, product_analyses
from .arens import FINITE_DIM_CAVEAT, topological_center, topological_center_membership
from .characters import enumerate_characters
from .core import validate_algebra
from .corpus import full_corpus
from .errors import WorkbenchError
from .io import _registry, load_algebra, load_hom, save_algebra
from .product import build_product
from .report import (
    EXIT_FAILED,
    EXIT_INCOMPLETE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    CheckReport,
    dump_json,
)
from .suite import RunConfig, verify_product, verify_theorems


def _tolerance(text: str) -> float:
    tol = float(text)
    if not 0 < tol < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return tol


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--tol", type=_tolerance, default=1e-9, help="numerical tolerance (default 1e-9)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the random splitting and sketching elements (default 0)")
    parser.add_argument("--side", choices=["left", "right", "both"], default="both")
    parser.add_argument("--format", choices=["json", "text"], default="text")


def _config(args) -> RunConfig:
    return RunConfig(tol=args.tol, seed=args.seed, side=args.side)


def _emit(args, payload, text: str) -> None:
    if args.format == "json":
        print(dump_json(payload))
    else:
        print(text)


def _cmd_validate(args) -> int:
    alg = load_algebra(args.algebra, args.tol, validate=False)
    report = validate_algebra(alg, args.tol)
    payload = {
        "algebra": alg.name,
        "dim": alg.dim,
        "valid": report.valid,
        "associativity_residual": report.associativity_residual,
        "submultiplicative": report.submultiplicative,
        "unital": report.unital,
        "left_identity": report.left_identity,
        "right_identity": report.right_identity,
        "warnings": report.warnings,
    }
    lines = [
        f"algebra {alg.name!r} (dim {alg.dim}): {'valid' if report.valid else 'INVALID'}",
        f"  associativity residual: {report.associativity_residual:.3e}",
        f"  submultiplicative l1 norm: {report.submultiplicative}",
        f"  unital: {report.unital}",
    ]
    for w in report.warnings:
        lines.append(f"  warning: {w}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if report.valid else EXIT_FAILED


def _cmd_product(args) -> int:
    alg_a = load_algebra(args.algebra_a, args.tol)
    alg_b = load_algebra(args.algebra_b, args.tol)
    hom = load_hom(args.hom, _registry(alg_a, alg_b, args.hom), args.tol)
    product = build_product(alg_a, alg_b, hom, args.tol)
    save_algebra(product.algebra, args.out)
    payload = {
        "product": product.algebra.name,
        "dim": product.algebra.dim,
        "written_to": args.out,
        "hom_op_norm": hom.op_norm,
        "hom_mult_residual": hom.mult_residual,
        "warnings": product.hom_report.warnings,
    }
    text = (
        f"built {product.algebra.name!r} (dim {product.algebra.dim}) -> {args.out}\n"
        f"  hom residual {hom.mult_residual:.3e}, operator norm {hom.op_norm:.6g}"
    )
    _emit(args, payload, text)
    return EXIT_OK


def _cmd_characters(args) -> int:
    alg = load_algebra(args.algebra, args.tol)
    enum = enumerate_characters(alg, args.tol, args.seed)
    payload = {
        "algebra": alg.name,
        "complete": enum.complete,
        "count": len(enum.characters),
        "characters": [
            {"functional": ch.functional, "residual": ch.residual} for ch in enum.characters
        ],
        "notes": list(enum.notes),
    }
    lines = [f"algebra {alg.name!r}: {len(enum.characters)} character(s), "
             f"enumeration {'complete' if enum.complete else 'INCOMPLETE'}"]
    for ch in enum.characters:
        vals = ", ".join(f"{z.real:+.6g}{z.imag:+.6g}j" for z in ch.functional)
        lines.append(f"  [{vals}]  residual {ch.residual:.3e}")
    for note in enum.notes:
        lines.append(f"  note: {note}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if enum.complete else EXIT_INCOMPLETE


def _cmd_check(args) -> int:
    alg = load_algebra(args.algebra, args.tol)
    config = _config(args)
    report = CheckReport(subject=alg.name)
    if args.what == "arens":
        report.caveat(FINITE_DIM_CAVEAT)
        payload_extra = {}
        for side in config.sides:
            basis = topological_center(alg, side, args.tol)
            full = basis.shape[1] == alg.dim
            _, worst = topological_center_membership(alg, basis.T, side, 10 * args.tol)
            report.add(
                f"arens/{side}-center-is-whole-bidual",
                full,
                residual=worst,
                witness=None if full else {"center_dim": int(basis.shape[1]), "dim": alg.dim},
                detail=f"center dimension {basis.shape[1]} of {alg.dim}",
            )
            payload_extra[f"{side}_center_dim"] = int(basis.shape[1])
        payload = report.to_dict()
        payload.update(payload_extra)
        _emit(args, payload, report.to_text())
        return report.exit_code()
    if args.what == "weak-amen":
        space = derivation_space(alg, args.tol, args.seed)
        verdict = space.dim_der == space.dim_inner
        payload = {
            "algebra": alg.name,
            "weakly_amenable": verdict,
            "dim_derivations": space.dim_der,
            "dim_inner": space.dim_inner,
        }
        text = (
            f"algebra {alg.name!r}: weakly amenable = {verdict} "
            f"(derivations {space.dim_der}, inner {space.dim_inner})"
        )
        _emit(args, payload, text)
        return EXIT_OK
    if args.what == "char-amen":
        analysis = Analysis(alg, args.tol, args.seed)
        results = {side: analysis.character_amenability(side) for side in config.sides}
        caveats = sorted(set(c for r in results.values() for c in r.caveats))
        payload = {
            "algebra": alg.name,
            "verdicts": {side: r.verdict for side, r in results.items()},
            "identity": {side: r.identity_exists for side, r in results.items()},
            "characters": len(analysis.characters.characters),
            "complete": analysis.characters.complete,
            "caveats": caveats,
        }
        lines = []
        for side, r in results.items():
            verdict = {True: "True", False: "False", None: "unknown"}[r.verdict]
            lines.append(f"algebra {alg.name!r}: {side} character amenable = {verdict}")
        lines += [f"caveat: {c}" for c in caveats]
        _emit(args, payload, "\n".join(lines))
        return EXIT_INCOMPLETE if any(r.verdict is None for r in results.values()) else EXIT_OK
    if args.what == "inner-amen":
        result = is_character_inner_amenable(alg, args.tol, args.seed)
        verdict = {True: "True", False: "False", None: "unknown"}[result.verdict]
        payload = {
            "algebra": alg.name,
            "character_inner_amenable": result.verdict,
            "characters": len(result.enumeration.characters),
            "complete": result.enumeration.complete,
            "caveats": list(result.caveats),
        }
        lines = [f"algebra {alg.name!r}: character inner amenable = {verdict}"]
        for c in result.caveats:
            lines.append(f"caveat: {c}")
        _emit(args, payload, "\n".join(lines))
        return EXIT_INCOMPLETE if result.verdict is None else EXIT_OK
    raise WorkbenchError(f"unknown check {args.what!r}")  # pragma: no cover


def _cmd_verify_theorems(args) -> int:
    alg_a = load_algebra(args.algebra_a, args.tol)
    alg_b = load_algebra(args.algebra_b, args.tol)
    hom = load_hom(args.hom, _registry(alg_a, alg_b, args.hom), args.tol)
    config = _config(args)
    report = verify_theorems(alg_a, alg_b, hom, config)
    _emit(args, report.to_dict(), report.to_text())
    return report.exit_code()


def _cmd_corpus(args) -> int:
    if args.action == "list":
        entries = full_corpus(args.tol)
        payload = [
            {
                "id": e.entry_id,
                "algebra_a": e.algebra_a.name,
                "algebra_b": e.algebra_b.name,
                "dim": e.algebra_a.dim + e.algebra_b.dim,
                "tags": list(e.tags),
            }
            for e in entries
        ]
        lines = [
            f"{e.entry_id}: {e.algebra_a.name} x {e.algebra_b.name} "
            f"(dim {e.algebra_a.dim + e.algebra_b.dim})  tags: {', '.join(e.tags)}"
            for e in entries
        ]
        _emit(args, payload, "\n".join(lines))
        return EXIT_OK

    config = _config(args)
    entries = full_corpus(args.tol)
    worst = EXIT_OK
    payloads = []
    texts = []
    for entry in entries:
        product = build_product(entry.algebra_a, entry.algebra_b, entry.hom, config.tol)
        analyses = product_analyses(product, config.tol, config.seed)
        report = verify_product(product, analyses, config)
        _append_tag_checks(report, entry, analyses[2])
        # a failed claim outranks an undecidable verdict, which outranks a pass
        code = report.exit_code()
        worst = EXIT_FAILED if EXIT_FAILED in (worst, code) else max(worst, code)
        payloads.append({"id": entry.entry_id, "report": report.to_dict()})
        texts.append(f"=== {entry.entry_id} ===\n{report.to_text()}")
    _emit(args, {"entries": payloads}, "\n".join(texts))
    return worst


def _append_tag_checks(report: CheckReport, entry, analysis: Analysis):
    """Compare the entry's expected-verdict tags against the product's analysis."""
    actual = {
        "weakly_amenable": lambda: analysis.weakly_amenable,
        "char_amenable": lambda: analysis.character_amenability("left").verdict,
        "char_inner_amenable": lambda: analysis.character_inner_amenability.verdict,
    }
    for key, want in sorted(entry.expected_verdicts().items()):
        got = actual[key]()
        if got is None:
            report.add(f"10-corpus-tags/{key}", None, detail="verdict undecidable (incomplete enumeration)")
        else:
            report.add(
                f"10-corpus-tags/{key}",
                got == want,
                witness=None if got == want else {"expected": want, "actual": got},
                detail=f"expected {want}, computed {got}",
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpw",
        description="Verification workbench for morphism products of finite-dimensional complex algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an algebra file")
    p.add_argument("--algebra", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("product", help="build a morphism product and write it out")
    p.add_argument("--algebra-a", required=True)
    p.add_argument("--algebra-b", required=True)
    p.add_argument("--hom", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("characters", help="enumerate the characters of an algebra")
    p.add_argument("--algebra", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_characters)

    p = sub.add_parser("check", help="run one decision procedure")
    p.add_argument("what", choices=["arens", "weak-amen", "char-amen", "inner-amen"])
    p.add_argument("--algebra", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify-theorems", help="run the full theorem suite on (A, B, T)")
    p.add_argument("--algebra-a", required=True)
    p.add_argument("--algebra-b", required=True)
    p.add_argument("--hom", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_verify_theorems)

    p = sub.add_parser("corpus", help="list or run the built-in corpus")
    p.add_argument("action", choices=["list", "run"])
    _add_common(p)
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
