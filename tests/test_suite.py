"""The assembled theorem suite across the corpus."""

import json

import numpy as np
import pytest

from tpw.amenability import is_character_amenable, is_character_inner_amenable, is_weakly_amenable, product_analyses
from tpw.core import FiniteAlgebra
from tpw.product import AlgebraHom, MorphismProduct, build_product
from tpw.suite import RunConfig, verify_product, verify_theorems
from tpw.errors import ValidationError

from conftest import random_unitary, rebased

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


SHEAR_CLAIM = "01-construction/shear-onto-direct-sum"


def test_shear_claim_passes_on_every_entry_and_a_rebased_copy(reports, corpus):
    for entry_id, report in reports.items():
        assert {v.claim: v.status for v in report.verdicts}[SHEAR_CLAIM] == "pass", entry_id
    rng = np.random.default_rng(0)
    for e in corpus:
        ua, ub = random_unitary(rng, e.algebra_a.dim), random_unitary(rng, e.algebra_b.dim)
        a, b = rebased(e.algebra_a, ua), rebased(e.algebra_b, ub)
        hom = AlgebraHom(source=b, target=a, matrix=ua.conj().T @ e.hom.matrix @ ub)
        report = verify_theorems(a, b, hom, RunConfig())
        assert {v.claim: v.status for v in report.verdicts}[SHEAR_CLAIM] == "pass", e.entry_id


def test_direct_sum_fails_the_shear_claim_instead_of_raising(corpus):
    """The product's blocks multiplied as the plain direct sum, without the cross
    terms a1 T(b2) + T(b1) a2: the suite reports it, with a basis pair that mixes
    the two blocks, exactly when the hom is nonzero."""
    config = RunConfig()
    failing = []
    for e in corpus:
        product = build_product(e.algebra_a, e.algebra_b, e.hom, config.tol)
        na, n = product.dim_a, product.algebra.dim
        c = np.zeros((n, n, n), dtype=complex)
        c[:na, :na, :na] = product.a.structure
        c[na:, na:, na:] = product.b.structure
        direct_sum = FiniteAlgebra(name=f"sum({e.entry_id})", basis_labels=product.algebra.basis_labels,
                                   structure=c, norm_weights=product.algebra.norm_weights)
        wrong = MorphismProduct(a=product.a, b=product.b, hom=product.hom, algebra=direct_sum)
        report = verify_product(wrong, product_analyses(wrong, config.tol, config.seed), config)
        verdicts = {v.claim: v for v in report.verdicts}
        shear, lifted = verdicts[SHEAR_CLAIM], verdicts["05-characters/lifted-family-verified"]
        if not e.hom.matrix.any():
            assert shear.status == lifted.status == "pass" and report.exit_code() == 0, e.entry_id
            continue
        failing.append(e.entry_id)
        assert shear.status == lifted.status == "fail" and report.exit_code() == 1, e.entry_id
        assert shear.residual == lifted.residual == 1.0, e.entry_id
        assert {label[:2] for label in shear.witness["basis_pair"]} == {"a:", "b:"}, e.entry_id
    assert failing == ["c-c-id", "c2-c-lau", "ut2-c2-diag", "c2-c2-swap"]


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

    Group 01's shear, group 02's cross-check, the Leibniz residual, the
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
