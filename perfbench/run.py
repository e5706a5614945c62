#!/usr/bin/env python3
"""The tpw benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads, each a closed loop from one client running one operation at a time:

  corpus       one ``tpw corpus run --format json`` per operation, in a fresh
               process, with $TPW_CORPUS_DIR holding a rebased copy of each
               built-in triple (16 triples per operation); 4 operations a pass
  ladder       ``verify_theorems`` plus ``dump_json`` in-process on rebased
               C_k x C_k with the identity hom, product dims 4, 6, 8 and 10;
               one fresh interpreter per pass, one operation per rung
  derivations  one ``tpw check weak-amen --format json`` per operation, in a
               fresh process, on rebased M3, T4, T5 and M4

Inputs are made from --seed; every operation gets its own stream, so no input
repeats within a run.  A run does as many whole passes as fit in --seconds,
at least two, and checks every output.  With --trace 0 it reports the end-to-end metrics;
with --trace 1 it runs one plain and one traced pass and reports the
per-layer metrics.  The last line of standard output is the JSON result.

The repository is the parent of this directory; tpw runs from its src/ tree
with one BLAS thread.  Scratch files go to .perfbench_work/ and are removed;
the spans of a traced run are kept in .perfbench_out/.  README.md in this
directory records why each workload was chosen and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter

# One BLAS thread in every process.  With the default thread count the dim-6
# ladder rung took 0.63-1.70 s on a 2-core box; pinned, 0.77-0.85 s.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import check  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

OP_TIMEOUT_S = 150
SETUP_REPEATS = 6  # set-up samples before the passes; half as many after each pass
CORPUS_OPS_PER_PASS = 4

END_TO_END_UNITS = {"wall_s": "s", "largest_op_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass
class Op:
    name: str
    seconds: float
    problems: list[str]


@dataclass
class Pass:
    wall: float  # first operation to last verdict
    ops: list[Op]
    largest: list[float]  # times of the workload's largest operation
    rss_kb: int  # peak RSS of the processes doing the work
    triples: int = 0
    spans: list[str] = field(default_factory=list)


@dataclass
class Context:
    seed: int
    work: str


def child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    env.pop(inputs.CORPUS_DIR_ENV, None)
    env.update(extra or {})
    return env


def spawn(argv: list[str], env: dict, stdout_path: str) -> tuple[float, int, int, str]:
    """Run argv to completion; returns (seconds, exit code, peak RSS in KiB, stderr).

    The child is reaped with wait4, which also gives its peak RSS.
    """
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return seconds, proc.returncode, usage.ru_maxrss, stderr


def cli_op(ctx: Context, tag: str, args: list[str], extra_env: dict | None, traced: bool):
    """One tpw command line in a fresh process; returns (seconds, RSS KiB, stdout, problems, spans file)."""
    out = os.path.join(ctx.work, tag + ".out")
    spans = os.path.join(ctx.work, tag + ".spans.jsonl") if traced else None
    if traced:
        argv = [sys.executable, WORKER, "cli", "--spans", spans, "--", *args]
    else:
        argv = [sys.executable, "-m", "tpw.cli", *args]
    seconds, code, rss, stderr = spawn(argv, child_env(extra_env), out)
    problems = [] if code == 0 else [f"exit code {code}: {stderr.strip()[-300:]}"]
    with open(out, encoding="utf-8") as fh:
        return seconds, rss, fh.read(), problems, spans


def corpus_pass(ctx: Context, index: int, traced: bool) -> Pass:
    from tpw.corpus import builtin_corpus

    entries = [e for e in builtin_corpus() if e.entry_id in check.EXPECTED_TAGS]
    dirs = []
    for n in range(CORPUS_OPS_PER_PASS):
        path = os.path.join(ctx.work, f"corpus-{index}-{n}")
        inputs.write_corpus_dir(path, entries, inputs.op_rng(ctx.seed, index, n))
        dirs.append(path)
    start = perf_counter()
    results = [
        cli_op(ctx, f"corpus-{index}-{n}", ["corpus", "run", "--format", "json"],
               {inputs.CORPUS_DIR_ENV: path}, traced)
        for n, path in enumerate(dirs)
    ]
    wall = perf_counter() - start
    ops, triples = [], 0
    for seconds, _, text, problems, _ in results:
        found, verified = check.check_corpus(text)
        triples += verified
        ops.append(Op("corpus run", seconds, problems + found))
    return Pass(wall, ops, [op.seconds for op in ops], max(r[1] for r in results), triples,
                [r[4] for r in results if r[4]])


def derivations_pass(ctx: Context, index: int, traced: bool) -> Pass:
    paths = []
    for n, (family, k) in enumerate(inputs.DERIVATION_INPUTS):
        path = os.path.join(ctx.work, f"derivations-{index}-{family}{k}.json")
        inputs.write_algebra(path, family, k, inputs.op_rng(ctx.seed, index, n))
        paths.append(path)
    start = perf_counter()
    results = [
        cli_op(ctx, f"derivations-{index}-{n}", ["check", "weak-amen", "--algebra", path, "--format", "json"],
               None, traced)
        for n, path in enumerate(paths)
    ]
    wall = perf_counter() - start
    ops = [
        Op(f"{family}{k}", seconds, problems + check.check_weak_amen(text, family, k))
        for (family, k), (seconds, _, text, problems, _) in zip(inputs.DERIVATION_INPUTS, results)
    ]
    # the last input, M4, is the largest
    return Pass(wall, ops, [ops[-1].seconds], max(r[1] for r in results), 0, [r[4] for r in results if r[4]])


def ladder_pass(ctx: Context, index: int, traced: bool) -> Pass:
    out = os.path.join(ctx.work, f"ladder-{index}.json")
    argv = [sys.executable, WORKER, "ladder", "--seed", str(ctx.seed), "--pass", str(index), "--out", out]
    spans = os.path.join(ctx.work, f"ladder-{index}.spans.jsonl") if traced else None
    if traced:
        argv += ["--spans", spans]
    seconds, code, rss, stderr = spawn(argv, child_env(), out + ".stdout")
    try:
        with open(out, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        data = None
    if code != 0 or data is None:
        problem = f"ladder worker exit code {code}: {stderr.strip()[-300:]}"
        ops = [Op(f"dim {2 * k}", seconds, [problem]) for k in inputs.LADDER_K]
        return Pass(seconds, ops, [seconds], rss)
    ops = [
        Op(f"dim {2 * op['k']}", op["seconds"],
           [op["error"]] if op["error"] else check.check_ladder(op["output"], op["k"]))
        for op in data["ops"]
    ]
    # the last rung, dim 10, is the largest
    return Pass(data["wall_s"], ops, [ops[-1].seconds], rss, len(ops), [spans] if spans else [])


PASSES = {"corpus": corpus_pass, "ladder": ladder_pass, "derivations": derivations_pass}


@contextlib.contextmanager
def scratch_dir(name: str):
    """A scratch directory under .perfbench_work/, removed with everything in it."""
    work = os.path.join(WORK_ROOT, name)
    os.makedirs(work, exist_ok=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)


def measure_setup(ctx: Context, repeats: int) -> list[float]:
    """Wall times of fresh interpreters importing tpw and tpw.cli."""
    argv = [sys.executable, "-c", "import tpw, tpw.cli"]
    samples = []
    for _ in range(repeats):
        seconds, code, _, stderr = spawn(argv, child_env(), os.path.join(ctx.work, "setup.out"))
        if code != 0:
            raise SystemExit(f"error: importing tpw failed: {stderr.strip()[-300:]}")
        samples.append(seconds)
    return samples


def tail(samples: list[float]) -> str:
    """Median and the highest nearest-rank percentile with at least 10 samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.4f} s over {n} sample(s)"
    if n < 11:
        return text + "; no percentile has 10 samples beyond it"
    q = 100 * (n - 10) // n
    return text + f"; p{q} {sorted(samples)[math.ceil(q * n / 100) - 1]:.4f} s"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        conf = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.TimeoutExpired):
        conf = ""
    caches = {}
    for line in conf.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
            caches[parts[0].lower()] = int(parts[1])
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        **caches,
    }


def layer_metrics(plain: Pass, traced: Pass) -> dict[str, float]:
    """Per-layer totals of the traced pass; a layer the pass never entered reads 0."""
    metrics = tracer.combine([tracer.process_metrics(*tracer.read(path)) for path in traced.spans])
    calls = metrics.get("characters.enumerate_calls", 0)
    metrics["characters.enumerate_per_triple"] = calls / traced.triples if traced.triples else 0
    metrics["trace.overhead_s"] = traced.wall - plain.wall
    return {name: metrics.get(name, 0) for name in tracer.LAYER_UNITS}


def save_spans(traced: Pass, workload: str, seed: int) -> str:
    """All spans of the traced pass as one JSON-lines file; ``process`` numbers the work process."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as out:
        for process, spans_path in enumerate(traced.spans):
            spans, counters = tracer.read(spans_path)
            for span in spans:
                out.write(json.dumps({"process": process, **span}) + "\n")
            out.write(json.dumps({"process": process, "counters": counters}) + "\n")
    return path


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run_pass = PASSES[workload]
    with scratch_dir(str(os.getpid())) as work:
        ctx = Context(seed, work)
        print("env " + json.dumps(environment()))
        # The first import writes the bytecode cache, which users do not pay
        # on every run, so it is not timed.
        measure_setup(ctx, 1)
        if trace:
            passes = [run_pass(ctx, 0, False), run_pass(ctx, 1, True)]
            units = tracer.LAYER_UNITS
            values = layer_metrics(*passes)
            print(f"spans written to {save_spans(passes[1], workload, seed)}")
        else:
            # Set-up is sampled before, between and after the passes: a shared
            # host runs in fast and slow phases of several seconds, and one
            # burst of samples would sit in a single phase.
            setup = measure_setup(ctx, SETUP_REPEATS)
            passes = []
            start = perf_counter()
            # two passes, then another only when, at the mean pace so far, it
            # ends within --seconds
            while len(passes) < 2 or (perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
                passes.append(run_pass(ctx, len(passes), False))
                setup += measure_setup(ctx, SETUP_REPEATS // 2)
            units = END_TO_END_UNITS
            values = {
                "wall_s": statistics.median(p.wall for p in passes),
                "largest_op_s": statistics.median(t for p in passes for t in p.largest),
                "peak_rss_mb": max(p.rss_kb for p in passes) / 1024,
                "setup_s": statistics.median(setup),
            }
            print(f"setup_s: {tail(setup)}")
            print(f"wall_s: {tail([p.wall for p in passes])}")
            print(f"largest_op_s: {tail([t for p in passes for t in p.largest])}")

    ops = [op for p in passes for op in p.ops]
    for name in dict.fromkeys(op.name for op in ops):
        print(f"op {name}: {tail([op.seconds for op in ops if op.name == name])}")
    failed = [op for op in ops if op.problems]
    for op in failed:
        print(f"FAILED {op.name}: " + "; ".join(op.problems[:5]))
    print(f"{workload} seed {seed}: {len(passes)} pass(es), {len(ops)} operations, "
          f"{len(failed)} failed (ops_failed_frac {len(failed) / len(ops):.4f})")
    for name, value in values.items():
        print(f"  {name} = {value} {units[name]}")
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def self_test() -> int:
    """Check the checker: true outputs pass, and a tampered expectation counts as failed."""
    from tpw import report, suite
    from tpw.corpus import builtin_corpus

    rng = inputs.op_rng(0, 0, 0)
    with scratch_dir(f"self-test-{os.getpid()}") as work:
        ctx = Context(0, work)
        alg_a, alg_b, hom = inputs.ladder_triple(2, rng)
        ladder = report.dump_json(suite.verify_theorems(alg_a, alg_b, hom, suite.RunConfig()).to_dict())
        inputs.write_algebra(os.path.join(work, "M2.json"), "M", 2, rng)
        inputs.write_algebra(os.path.join(work, "T3.json"), "T", 3, rng)
        entries = [e for e in builtin_corpus() if e.entry_id in check.EXPECTED_TAGS]
        inputs.write_corpus_dir(os.path.join(work, "corpus"), entries, rng)

        def run_cli(args, extra_env=None):
            _, _, text, problems, _ = cli_op(ctx, "self-test", args, extra_env, False)
            return text, problems

        weak, weak_problems = run_cli(["check", "weak-amen", "--algebra", os.path.join(work, "M2.json"),
                                       "--format", "json"])
        chars, chars_problems = run_cli(["characters", "--algebra", os.path.join(work, "T3.json"),
                                         "--format", "json"])
        corpus, corpus_problems = run_cli(["corpus", "run", "--format", "json"],
                                          {inputs.CORPUS_DIR_ENV: os.path.join(work, "corpus")})
    tampered_tags = {**check.EXPECTED_TAGS, "ut2-c2-diag": {**check.EXPECTED_TAGS["ut2-c2-diag"], "char_amenable": True}}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    cases = [
        ("ladder C2 x C2", check.check_ladder(ladder, 2), False),
        ("ladder C2 x C2 checked as C3 x C3", check.check_ladder(ladder, 3), True),
        ("weak-amen M2", weak_problems + check.check_weak_amen(weak, "M", 2), False),
        ("weak-amen M2 checked as M3", check.check_weak_amen(weak, "M", 3), True),
        ("characters T3", chars_problems + check.check_characters(chars, "T", 3), False),
        ("characters T3 checked as T4", check.check_characters(chars, "T", 4), True),
        ("corpus run", corpus_problems + check.check_corpus(corpus)[0], False),
        ("corpus run with a flipped tag", check.check_corpus(corpus, tampered_tags)[0], True),
        ("BENCHMARK.json end_to_end names",
         [] if {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS else ["mismatch"], False),
        ("BENCHMARK.json per_layer names",
         [] if {m["name"]: m["unit"] for m in declared["per_layer"]} == tracer.LAYER_UNITS else ["mismatch"], False),
    ]
    bad = 0
    for label, problems, should_fail in cases:
        ok = bool(problems) == should_fail
        bad += not ok
        verdict = "counted as failed" if problems else "passes"
        print(f"{'ok' if ok else 'WRONG'}: {label} {verdict}" + (f" ({problems[0]})" if problems else ""))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark the tpw workbench.")
    parser.add_argument("--workload", choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the output checker and exit")
    args = parser.parse_args()
    # a terminated run still kills its child and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "tpw", "__init__.py")):
        print(f"error: no tpw source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
