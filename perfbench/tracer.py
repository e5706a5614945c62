"""Outside-in span recorder for the traced benchmark run.

``install`` wraps the public entry points of each ``tpw`` module by rebinding
the name in every ``tpw.*`` module that holds it (the defining module and
every module that imported it with ``from ... import``), so the program's
source is not touched.  Spans (name, start, end, parent id) are kept in
memory and written as JSON lines when the process ends.  The hottest
function, ``FiniteAlgebra.left_mult_operator``, is counted without spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# (module, function) -> span name, "<layer>.<function>"; claim groups are named by number
SPANS = {
    ("tpw.core", "center"): "core.center",
    ("tpw.core", "find_left_identity"): "core.find_left_identity",
    ("tpw.core", "find_right_identity"): "core.find_right_identity",
    ("tpw.core", "validate_algebra"): "core.validate_algebra",
    ("tpw.linalg", "rank"): "linalg.rank",
    ("tpw.linalg", "nullspace"): "linalg.nullspace",
    ("tpw.linalg", "column_space"): "linalg.column_space",
    ("tpw.product", "build_product"): "product.build_product",
    ("tpw.product", "check_hom"): "product.check_hom",
    ("tpw.product", "ideal_and_quotient"): "product.ideal_and_quotient",
    ("tpw.characters", "enumerate_characters"): "characters.enumerate",
    ("tpw.characters", "product_characters"): "characters.product_characters",
    ("tpw.arens", "arens_first"): "arens.arens_first",
    ("tpw.arens", "arens_second"): "arens.arens_second",
    ("tpw.arens", "topological_center"): "arens.topological_center",
    ("tpw.arens", "topological_center_membership"): "arens.topological_center_membership",
    ("tpw.arens", "hom_adjoints"): "arens.hom_adjoints",
    ("tpw.arens", "theta_homomorphism_residual"): "arens.theta_homomorphism_residual",
    ("tpw.arens", "product_dual_actions"): "arens.product_dual_actions",
    ("tpw.amenability", "derivation_space"): "amenability.derivation_space",
    ("tpw.amenability", "is_weakly_amenable"): "amenability.is_weakly_amenable",
    ("tpw.amenability", "solve_tli"): "amenability.solve_tli",
    ("tpw.amenability", "tli_product_characterization"): "amenability.tli_product_characterization",
    ("tpw.amenability", "is_character_amenable"): "amenability.is_character_amenable",
    ("tpw.amenability", "is_character_inner_amenable"): "amenability.is_character_inner_amenable",
    ("tpw.amenability", "solve_inner_mean"): "amenability.solve_inner_mean",
    ("tpw.amenability", "lift_derivation"): "amenability.lift_derivation",
    ("tpw.amenability", "leibniz_residual"): "amenability.leibniz_residual",
    ("tpw.suite", "verify_theorems"): "suite.verify_theorems",
    ("tpw.suite", "_check_construction"): "suite.g01",
    ("tpw.suite", "_check_bidual_identification"): "suite.g02",
    ("tpw.suite", "_check_adjoints"): "suite.g03",
    ("tpw.suite", "_check_topological_centers"): "suite.g04",
    ("tpw.suite", "_check_characters"): "suite.g05",
    ("tpw.suite", "_check_weak_amenability"): "suite.g06",
    ("tpw.suite", "_check_tli"): "suite.g07",
    ("tpw.suite", "_check_character_amenability"): "suite.g08",
    ("tpw.amenability", "inner_amenability_suite"): "suite.g09",
    ("tpw.cli", "main"): "cli.main",
    ("tpw.cli", "_append_tag_checks"): "cli.g10_tags",
    ("tpw.corpus", "full_corpus"): "corpus.full_corpus",
    ("tpw.io", "load_algebra"): "io.load_algebra",
    ("tpw.io", "load_hom"): "io.load_hom",
    ("tpw.io", "algebra_from_dict"): "io.algebra_from_dict",
    ("tpw.io", "hom_from_dict"): "io.hom_from_dict",
    ("tpw.report", "dump_json"): "report.dump_json",
}
SVD_SPANS = ("linalg.rank", "linalg.nullspace", "linalg.column_space")

# every per-layer metric of the traced run, with its unit
LAYER_UNITS = {
    "arens.chain_calls": "count",
    "arens.chain_s": "s",
    "core.left_mult_operator_calls": "count",
    "arens.topological_center_s": "s",
    "amenability.solve_tli_calls": "count",
    "amenability.solve_tli_s": "s",
    "linalg.nullspace_calls": "count",
    "linalg.nullspace_s": "s",
    "linalg.svd_max_rows": "rows",
    "linalg.svd_u_bytes": "B",
    "amenability.derivation_space_s": "s",
    "characters.enumerate_calls": "count",
    "characters.enumerate_s": "s",
    "characters.enumerate_per_triple": "count/triple",
    "product.build_product_calls": "count",
    "core.center_calls": "count",
    **{f"suite.g{g:02d}_s": "s" for g in range(1, 10)},
    "cli.g10_tags_s": "s",
    "io.load_s": "s",
    "report.dump_json_s": "s",
    "trace.overhead_s": "s",
}

# per-layer metric -> span names whose outermost calls are summed (inclusive time)
INCLUSIVE = {
    "arens.chain_s": ("arens.arens_first", "arens.arens_second"),
    "arens.topological_center_s": ("arens.topological_center",),
    "amenability.solve_tli_s": ("amenability.solve_tli",),
    "linalg.nullspace_s": ("linalg.nullspace",),
    "amenability.derivation_space_s": ("amenability.derivation_space",),
    "characters.enumerate_s": ("characters.enumerate",),
    "io.load_s": ("io.load_algebra", "io.load_hom", "io.algebra_from_dict", "io.hom_from_dict"),
    "report.dump_json_s": ("report.dump_json",),
}
# per-layer metric -> span name whose self time is summed
SELF = {**{f"suite.g{g:02d}_s": f"suite.g{g:02d}" for g in range(1, 10)}, "cli.g10_tags_s": "cli.g10_tags"}
# per-layer metric -> span names whose calls are counted
CALLS = {
    "arens.chain_calls": ("arens.arens_first", "arens.arens_second"),
    "amenability.solve_tli_calls": ("amenability.solve_tli",),
    "linalg.nullspace_calls": ("linalg.nullspace",),
    "characters.enumerate_calls": ("characters.enumerate",),
    "product.build_product_calls": ("product.build_product",),
    "core.center_calls": ("core.center",),
}


class Recorder:
    """Spans and counters of one process; single-threaded, like tpw."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.counters: Counter = Counter()

    def _svd_shape(self, name: str, a) -> None:
        shape = np.shape(a)
        if not shape or shape[0] == 0 or 0 in shape:
            return  # no SVD is taken of an empty matrix
        rows = int(shape[0])
        self.counters["linalg.svd_max_rows"] = max(self.counters["linalg.svd_max_rows"], rows)
        if name == "linalg.nullspace":
            # nullspace takes a full SVD: U is rows x rows complex128
            self.counters["linalg.svd_u_bytes"] += rows * rows * 16

    def span(self, name: str, fn):
        svd = name in SVD_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            if svd:
                self._svd_shape(name, args[0] if args else kwargs["a"])
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans.append((sid, name, start, end, parent))

        return wrapper

    def count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")
            fh.write(json.dumps({"counters": dict(self.counters)}))
            fh.write("\n")


def install(rec: Recorder) -> None:
    """Wrap every listed entry point; a name the program no longer has is skipped."""
    import tpw.cli  # noqa: F401  (loads every tpw module)

    modules = [m for n, m in sys.modules.items() if n == "tpw" or n.startswith("tpw.")]
    for (module, function), name in SPANS.items():
        original = getattr(sys.modules[module], function, None)
        if original is None:
            print(f"tracer: {module}.{function} not found; not traced", file=sys.stderr)
            continue
        wrapper = rec.span(name, original)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
    algebra = sys.modules["tpw.core"].FiniteAlgebra
    algebra.left_mult_operator = rec.count("core.left_mult_operator_calls", algebra.left_mult_operator)


def read(path: str) -> tuple[list[dict], dict]:
    spans, counters = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if "counters" in record:
                counters = record["counters"]
            else:
                spans.append(record)
    return spans, counters


def process_metrics(spans: list[dict], counters: dict) -> dict[str, float]:
    """Per-layer totals of one process's spans and counters."""
    by_id = {s["id"]: s for s in spans}
    child_time: defaultdict = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def outermost(s, names) -> bool:
        parent = s["parent"]
        while parent is not None:
            if by_id[parent]["name"] in names:
                return False
            parent = by_id[parent]["parent"]
        return True

    out = {}
    for metric, names in INCLUSIVE.items():
        out[metric] = sum(s["end"] - s["start"] for s in spans if s["name"] in names and outermost(s, names))
    for metric, name in SELF.items():
        out[metric] = sum(s["end"] - s["start"] - child_time[s["id"]] for s in spans if s["name"] == name)
    calls = Counter(s["name"] for s in spans)
    for metric, names in CALLS.items():
        out[metric] = sum(calls[n] for n in names)
    for name in ("core.left_mult_operator_calls", "linalg.svd_max_rows", "linalg.svd_u_bytes"):
        out[name] = counters.get(name, 0)
    return out


def combine(per_process: list[dict[str, float]]) -> dict[str, float]:
    """Sum per-process totals over a pass; the largest SVD is a maximum."""
    total: dict[str, float] = {}
    for metrics in per_process:
        for name, value in metrics.items():
            if name == "linalg.svd_max_rows":
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    return total
