"""The assembled theorem suite across the corpus."""

import json
from dataclasses import replace

import numpy as np
import pytest

from tpw.amenability import is_character_amenable, is_character_inner_amenable, is_weakly_amenable, product_analyses
from tpw.core import FiniteAlgebra
from tpw.product import AlgebraHom, build_product
from tpw.suite import RunConfig, verify_product, verify_theorems
from tpw.errors import ValidationError

from conftest import cross_term_triple, random_unitary, rebased

@pytest.fixture(scope="module")
def reports(corpus):
    config = RunConfig()
    return {
        e.entry_id: verify_theorems(e.algebra_a, e.algebra_b, e.hom, config)
        for e in corpus
    }


def test_run_config_validation():
    for tol in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            RunConfig(tol=tol)
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


def test_direct_sum_fails_the_shear_claim_instead_of_raising(monkeypatch, corpus):
    """The product's blocks multiplied as the plain direct sum, without the cross
    terms a1 T(b2) + T(b1) a2: the suite reports it, with a basis pair that mixes
    the two blocks, exactly when the hom is nonzero.  Group 06 then solves that
    algebra's derivations directly, once, instead of carrying its factors'."""
    import tpw.amenability

    solved, derivation_space = [], tpw.amenability.derivation_space

    def counted(alg, *args):
        solved.append(alg)
        return derivation_space(alg, *args)

    monkeypatch.setattr(tpw.amenability, "derivation_space", counted)
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
        wrong = replace(product, algebra=direct_sum)
        solved.clear()
        report = verify_product(wrong, product_analyses(wrong, config.tol, config.seed), config)
        verdicts = {v.claim: v for v in report.verdicts}
        shear, lifted = verdicts[SHEAR_CLAIM], verdicts["05-characters/lifted-family-verified"]
        cross = verdicts[CROSS_CLAIM]
        if not e.hom.matrix.any():
            assert shear.status == lifted.status == cross.status == "pass" and report.exit_code() == 0, e.entry_id
            assert all(alg is not direct_sum for alg in solved), e.entry_id
            continue
        failing.append(e.entry_id)
        assert shear.status == lifted.status == "fail" and report.exit_code() == 1, e.entry_id
        assert [alg is direct_sum for alg in solved].count(True) == 1 and cross.status == "skip", e.entry_id
        assert shear.residual == lifted.residual == 1.0, e.entry_id
        assert {label[:2] for label in shear.witness["basis_pair"]} == {"a:", "b:"}, e.entry_id
    assert failing == ["c-c-id", "c2-c-lau", "ut2-c2-diag", "c2-c2-swap"]


CROSS_CLAIM = "06-weak-amenability/cross-derivations"


def test_a_wrong_derivation_transport_fails_a_group_06_claim(monkeypatch, corpus):
    """A transport that gets the shear wrong fails a claim instead of slipping through.

    The cross maps moved by S D S^T, the shear on the wrong side, fail
    ``cross-derivations`` on N3 x_T null1 with T(z) = E13.  A transport that skips
    the shear altogether fails ``derivation-lift-p1`` on ut2-c2-diag, because the
    claim reads the transported lifts.  Skipping the shear cannot fail the cross
    claim: a map u (x) v with u and v vanishing on P^2 is a derivation of P, and
    the unmoved cross maps are such maps.  On the E13 triple, whose multiplication
    is the direct sum's, skipping it fails nothing at all, because there the
    identity is an isomorphism onto A + B as well.
    """
    import tpw.amenability

    transport = tpw.amenability.transported_derivation_space

    def unsheared(product, an_a, an_b):
        zero = np.zeros_like(product.hom.matrix)
        return transport(replace(product, hom=AlgebraHom(source=product.b, target=product.a, matrix=zero)),
                         an_a, an_b)

    def shear_on_wrong_side(product, an_a, an_b):
        space = transport(product, an_a, an_b)
        s, na = product.shear, product.dim_a
        fs = product.embed_a(an_a.square_annihilator).T  # (f, 0)
        gs = np.concatenate([np.zeros((na, an_b.square_annihilator.shape[1])), an_b.square_annihilator]).T  # (0, g)
        a_to_b = tuple(np.outer(s @ g, s @ f) for g in gs for f in fs)
        parts = dict(space.parts, cross=a_to_b + tuple(d.T for d in a_to_b))
        return replace(space, der_basis=parts["p1"] + parts["p2"] + parts["cross"], parts=parts)

    def group_06(transport_fn, triple):
        monkeypatch.setattr(tpw.amenability, "transported_derivation_space", transport_fn)
        report = verify_theorems(*triple, RunConfig())
        return {v.claim: v.status for v in report.verdicts if v.claim.startswith("06-")}

    e13 = cross_term_triple()
    ut2_c2 = next((e.algebra_a, e.algebra_b, e.hom) for e in corpus if e.entry_id == "ut2-c2-diag")
    lift_p1 = "06-weak-amenability/derivation-lift-p1"
    assert set(group_06(transport, e13).values()) == {"pass"}
    assert set(group_06(transport, ut2_c2).values()) == {"pass"}
    assert group_06(shear_on_wrong_side, e13)[CROSS_CLAIM] == "fail"
    assert group_06(unsheared, ut2_c2)[lift_p1] == "fail"
    assert set(group_06(unsheared, e13).values()) == {"pass"}


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
    commutator ideal, the trace form and the character quotient are all
    contractions over the structure tensor; group 04 asks only for the
    product's center on each side.
    """
    from collections import Counter

    import tpw.suite
    from tpw.cli import main
    from tpw.core import FiniteAlgebra

    calls = Counter()
    for name in ("multiply", "left_mult_operator"):
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
    assert calls["multiply"] == calls["left_mult_operator"] == 0
    assert calls["topological_center"] == 2 * len(entries) == 16


def test_corpus_run_decides_the_hom_facts_once_per_product(monkeypatch, capsys, corpus):
    """Counted guard: one built-in ``corpus run`` checks each hom once, when its
    product is built, and takes one rank per triple, of the hom matrix, in
    ``check_hom``.

    The suite, the inner-mean claims and the CLI read the hom's facts from
    ``product.hom_report`` instead of deciding them again, and group 03 never
    reads ``hom_adjoints``' surjectivity, which is decided only when read.
    """
    import sys

    import tpw.linalg
    import tpw.product
    from tpw.cli import main

    calls = {"check_hom": [], "rank": []}
    for module, name in ((tpw.product, "check_hom"), (tpw.linalg, "rank")):
        original = getattr(module, name)

        def counted(a, *args, _fn=original, _seen=calls[name], **kwargs):
            _seen.append(a)
            return _fn(a, *args, **kwargs)

        for held in [m for key, m in sys.modules.items() if key.split(".")[0] == "tpw"]:
            if getattr(held, name, None) is original:
                monkeypatch.setattr(held, name, counted)
    monkeypatch.delenv("TPW_CORPUS_DIR", raising=False)
    assert main(["corpus", "run", "--format", "json"]) == 0
    assert len(json.loads(capsys.readouterr().out)["entries"]) == len(corpus) == 8
    assert len(calls["check_hom"]) == 8
    assert len(calls["rank"]) == 8
    homs = [e.hom.matrix for e in corpus]
    assert all(any(np.array_equal(a, m) for m in homs) for a in calls["rank"])


def test_builtin_corpus_run_verdicts_match_golden(monkeypatch, capsys):
    """Golden check: every claim of the built-in ``corpus run`` keeps its status.

    ``data/builtin_corpus_verdicts.json`` maps each entry's claim IDs to the
    statuses that a run gave when it was written; a claim that is added,
    dropped, renamed or flips its status fails here.
    """
    from pathlib import Path

    from tpw.cli import main

    golden = json.loads((Path(__file__).parent / "data" / "builtin_corpus_verdicts.json").read_text())
    monkeypatch.delenv("TPW_CORPUS_DIR", raising=False)
    assert main(["corpus", "run", "--format", "json"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert {e["id"]: {v["claim"]: v["status"] for v in e["report"]["verdicts"]} for e in entries} == golden


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


def test_benchmark_harness_self_test_and_traced_corpus_run(tmp_path):
    """Smoke test of the benchmark harness: its self-test passes, and one traced ``corpus run``
    through its worker, over a rebased corpus directory, exits 0 with spans of group 09 and of
    the invariant-element solver.  The tracer rebinds tpw's names from outside and looks up
    ``FiniteAlgebra.left_mult_operator`` unconditionally, so a refactor can break a traced run
    that no other test makes."""
    import importlib.util
    import os
    import subprocess
    import sys
    from collections import Counter
    from pathlib import Path

    from tpw.corpus import builtin_corpus

    bench = Path(__file__).resolve().parents[1] / "perfbench"
    modules = {}
    for name in ("inputs", "tracer"):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", bench / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(modules[name])
    modules["inputs"].write_corpus_dir(str(tmp_path / "corpus"), builtin_corpus(), np.random.default_rng(0))
    env = {**os.environ, "PYTHONPATH": str(bench.parent / "src"), "OPENBLAS_NUM_THREADS": "1"}

    def run(*args, **extra_env):
        return subprocess.run([sys.executable, *args], env={**env, **extra_env}, capture_output=True, text=True,
                              timeout=300)

    self_test = run(str(bench / "run.py"), "--self-test")
    assert self_test.returncode == 0, self_test.stdout + self_test.stderr
    spans = tmp_path / "spans.jsonl"
    traced = run(str(bench / "worker.py"), "cli", "--spans", str(spans), "--", "corpus", "run", "--format", "json",
                 TPW_CORPUS_DIR=str(tmp_path / "corpus"))
    assert traced.returncode == 0 and "not traced" not in traced.stderr, traced.stderr
    assert len(json.loads(traced.stdout)["entries"]) == 16
    calls = Counter(span["name"] for span in modules["tracer"].read(str(spans))[0])
    assert calls["suite.g09"] >= 1 and calls["amenability.solve_tli"] >= 1
