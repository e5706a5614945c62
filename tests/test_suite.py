"""The assembled theorem suite across the corpus."""

import json

import pytest

from tpw.amenability import is_character_amenable, is_character_inner_amenable, is_weakly_amenable
from tpw.product import build_product
from tpw.suite import RunConfig, verify_theorems
from tpw.errors import ValidationError

@pytest.fixture(scope="module")
def reports(corpus):
    config = RunConfig()
    return {
        e.entry_id: verify_theorems(e.algebra_a, e.algebra_b, e.hom, config)
        for e in corpus
    }


def test_run_config_validation():
    with pytest.raises(ValidationError):
        RunConfig(tol=0.0)
    with pytest.raises(ValidationError):
        RunConfig(side="up")


def test_all_corpus_entries_pass(reports):
    for entry_id, report in reports.items():
        failing = [v.claim for v in report.verdicts if v.status == "fail"]
        assert not failing, f"{entry_id}: {failing}"
        unknown = [v.claim for v in report.verdicts if v.status == "unknown"]
        assert not unknown, f"{entry_id}: {unknown}"


def test_reports_carry_finite_dimension_caveat(reports):
    for report in reports.values():
        assert any("Arens regular" in c for c in report.caveats)


CENTER_CLAIM = "04-topological-centers/{}/product-center-is-whole-bidual"


def test_product_center_is_whole_bidual_on_every_entry(reports):
    for entry_id, report in reports.items():
        claims = {v.claim: v.status for v in report.verdicts}
        for side in ("left", "right"):
            assert claims[CENTER_CLAIM.format(side)] == "pass", (entry_id, side)


def test_center_claim_fails_when_arens_tables_disagree(monkeypatch, corpus):
    """With the second Arens table transposed, e_p <> e_q becomes e_q e_p, so
    the product's topological center shrinks unless the product is commutative."""
    import tpw.arens

    tables = tpw.arens.arens_tables

    def transposed_second(alg):
        first, second = tables(alg)
        return tpw.arens.ArensTables(first, second.transpose(1, 0, 2))

    monkeypatch.setattr(tpw.arens, "arens_tables", transposed_second)
    entries = {e.entry_id: e for e in corpus}
    for entry_id, want in (("ut2-c2-diag", "fail"), ("m2-cz2-zero", "fail"), ("c2-c2-swap", "pass")):
        e = entries[entry_id]
        report = verify_theorems(e.algebra_a, e.algebra_b, e.hom, RunConfig())
        verdicts = {v.claim: v for v in report.verdicts}
        for side in ("left", "right"):
            verdict = verdicts[CENTER_CLAIM.format(side)]
            assert verdict.status == want, (entry_id, side)
            if want == "fail":
                assert verdict.witness["center_dim"] < verdict.witness["dim"] == e.algebra_a.dim + e.algebra_b.dim


def test_every_failure_would_carry_witness(reports):
    for report in reports.values():
        for v in report.verdicts:
            if v.status == "fail":
                assert v.witness is not None


def test_negative_instances_exercise_equivalences(corpus):
    entries = {e.entry_id: e for e in corpus}
    config = RunConfig()

    # weak amenability: the zero-product factor breaks it on both sides
    e = entries["null1-c-zero"]
    product = build_product(e.algebra_a, e.algebra_b, e.hom, config.tol)
    assert not is_weakly_amenable(e.algebra_a, config.tol)
    assert not is_weakly_amenable(product.algebra, config.tol)

    # character amenability: row2 fails and so does its product
    e = entries["row2-c-zero"]
    product = build_product(e.algebra_a, e.algebra_b, e.hom, config.tol)
    assert is_character_amenable(e.algebra_a, "left", config.tol).verdict is False
    assert is_character_amenable(product.algebra, "left", config.tol).verdict is False

    # character inner amenability: same entry fails on both sides consistently
    assert is_character_inner_amenable(e.algebra_a, config.tol).verdict is False
    assert is_character_inner_amenable(product.algebra, config.tol).verdict is False


def test_tags_match_outcomes(corpus):
    config = RunConfig()
    for entry in corpus:
        product = build_product(entry.algebra_a, entry.algebra_b, entry.hom, config.tol)
        actual = {
            "weakly_amenable": is_weakly_amenable(product.algebra, config.tol),
            "char_amenable": is_character_amenable(product.algebra, "left", config.tol).verdict,
            "char_inner_amenable": is_character_inner_amenable(product.algebra, config.tol).verdict,
        }
        for key, want in entry.expected_verdicts().items():
            assert actual[key] == want, f"{entry.entry_id}: {key}"


def test_report_claim_order_is_deterministic(corpus):
    config = RunConfig()
    e = corpus[0]
    r1 = verify_theorems(e.algebra_a, e.algebra_b, e.hom, config)
    r2 = verify_theorems(e.algebra_a, e.algebra_b, e.hom, config)
    assert [v.claim for v in r1.sorted_verdicts()] == [v.claim for v in r2.sorted_verdicts()]
    from tpw.report import dump_json

    assert dump_json(r1.to_dict()) == dump_json(r2.to_dict())


def test_corpus_run_counts_multiply_and_operator_calls(monkeypatch, capsys):
    """Counted guard: one built-in ``corpus run`` multiplies no pair of vectors,
    builds no multiplication operator, and solves two topological centers per triple.

    Group 02's cross-check, the embedding check, the Leibniz residual, the
    commutator ideal and the commutative quotient's operators are all
    contractions over the structure tensor; group 04 asks only for the
    product's center on each side.
    """
    from collections import Counter

    import tpw.suite
    from tpw.cli import main
    from tpw.core import FiniteAlgebra

    calls = Counter()
    for name in ("multiply", "left_mult_operator", "right_mult_operator"):
        def counted(self, *args, _name=name, _fn=getattr(FiniteAlgebra, name)):
            calls[_name] += 1
            return _fn(self, *args)
        monkeypatch.setattr(FiniteAlgebra, name, counted)
    center = tpw.suite.topological_center

    def counted_center(*args):
        calls["topological_center"] += 1
        return center(*args)

    monkeypatch.setattr(tpw.suite, "topological_center", counted_center)
    monkeypatch.delenv("TPW_CORPUS_DIR", raising=False)
    assert main(["corpus", "run", "--format", "json"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert calls["multiply"] == calls["left_mult_operator"] == calls["right_mult_operator"] == 0
    assert calls["topological_center"] == 2 * len(entries) == 16


def test_benchmark_tracer_spans_resolve():
    """Every (module, function) the benchmark tracer wraps exists in tpw.

    The tracer skips a name it cannot find, so a renamed entry point would
    silently read 0 in its per-layer metric.
    """
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module}.{function}"
        for module, function in tracer.SPANS
        if not callable(getattr(importlib.import_module(module), function, None))
    ]
    assert tracer.SPANS and not missing
