"""Work process of the tpw benchmark; each call is a fresh interpreter.

    python worker.py ladder --seed N --pass P --out FILE [--spans FILE]
        one ladder pass: verify_theorems plus dump_json on every rung,
        in-process; writes per-rung times and reports to FILE as JSON
    python worker.py cli --spans FILE -- <tpw arguments>
        one traced tpw command line, as ``tpw <arguments>`` would run it

With --spans the tracer is installed after the inputs are built and its
spans are written to that file at the end.  PYTHONPATH must hold tpw's
src/ directory.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from time import perf_counter

import inputs
import tracer


def ladder(seed: int, pass_index: int, out: str, spans: str | None) -> int:
    from tpw import report, suite

    triples = [
        (k, *inputs.ladder_triple(k, inputs.op_rng(seed, pass_index, n)))
        for n, k in enumerate(inputs.LADDER_K)
    ]
    rec = tracer.Recorder() if spans else None
    if rec:
        tracer.install(rec)
    ops = []
    start = perf_counter()
    for k, alg_a, alg_b, hom in triples:
        t0 = perf_counter()
        try:
            result = suite.verify_theorems(alg_a, alg_b, hom, suite.RunConfig())
            text, error = report.dump_json(result.to_dict()), None
        except Exception:  # the rung counts as failed; the pass goes on
            text, error = None, traceback.format_exc()
        ops.append({"k": k, "seconds": perf_counter() - t0, "output": text, "error": error})
    wall = perf_counter() - start
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "ops": ops}, fh)
    if rec:
        rec.write(spans)
    return 0


def cli(spans: str, argv: list[str]) -> int:
    import tpw.cli

    rec = tracer.Recorder()
    tracer.install(rec)
    try:
        return tpw.cli.main(argv)
    finally:
        sys.stdout.flush()
        rec.write(spans)


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("ladder")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pass", dest="pass_index", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "ladder":
        return ladder(args.seed, args.pass_index, args.out, args.spans)
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    return cli(args.spans, argv)


if __name__ == "__main__":
    sys.exit(main())
