"""``report.dump_json`` against the recursive emitter it replaced, ``conftest.recursive_dump_json``:
byte for byte on the reports that runs write and on generated payloads of every kind a report
can hold, and JSON that parses wherever a float is not finite."""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tpw.cli
from tpw.cli import main
from tpw.corpus import builtin_corpus
from tpw.io import algebra_to_dict, hom_to_dict
from tpw.product import AlgebraHom
from tpw.report import dump_json
from tpw.suite import RunConfig, verify_theorems

from conftest import random_unitary, rebased, recursive_dump_json
from test_amenability import ladder_triples


def write_rebased_corpus(directory, rng):
    """Each built-in entry in random unitary bases, one per algebra name, as a ``TPW_CORPUS_DIR``:
    the loader finds the hom's endpoints by name."""
    for n, entry in enumerate(builtin_corpus()):
        units = {}
        for alg in (entry.algebra_a, entry.algebra_b):
            units.setdefault(alg.name, random_unitary(rng, alg.dim))
        a, b = (rebased(alg, units[alg.name], alg.name) for alg in (entry.algebra_a, entry.algebra_b))
        hom = AlgebraHom(source=b, target=a, matrix=units[a.name].conj().T @ entry.hom.matrix @ units[b.name])
        (directory / f"{n:02d}.json").write_text(dump_json({
            "id": f"{entry.entry_id}-rebased", "algebra_a": algebra_to_dict(a), "algebra_b": algebra_to_dict(b),
            "hom": hom_to_dict(hom), "tags": list(entry.tags)}))


def test_reports_match_the_recursive_emitter(tmp_path, monkeypatch, capsys):
    """The payloads of the built-in and of a rebased ``corpus run``, and the reports of
    ``verify_theorems`` on the ladder shapes C2 x C2 to C8 x C8, are written byte for byte as
    the recursive emitter writes them."""
    payloads = []

    def capture(payload):
        payloads.append(payload)
        return dump_json(payload)

    monkeypatch.setattr(tpw.cli, "dump_json", capture)
    monkeypatch.delenv("TPW_CORPUS_DIR", raising=False)
    assert main(["corpus", "run", "--format", "json"]) == 0
    write_rebased_corpus(tmp_path, np.random.default_rng(0))
    monkeypatch.setenv("TPW_CORPUS_DIR", str(tmp_path))
    assert main(["corpus", "run", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(payloads) == 2 and len(payloads[1]["entries"]) == 2 * len(builtin_corpus())
    payloads += [verify_theorems(a, b, hom, RunConfig()).to_dict() for _, a, b, hom in ladder_triples(range(2, 9))]
    for payload in payloads:
        assert dump_json(payload) == recursive_dump_json(payload)


floats = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]))
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(), floats, st.complex_numbers(),
    floats.map(np.float64), st.floats(width=32).map(np.float32), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_), st.complex_numbers().map(np.complex128), st.text().map(ValueError),
    st.lists(floats, max_size=4).map(np.array), st.lists(st.complex_numbers(), max_size=3).map(np.array),
    st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), max_size=3).map(np.array),
)


def nested(children):
    # a verdict record's keys, with any values: the emitter writes such a dict by one format
    record = st.fixed_dictionaries({key: children for key in ("claim", "detail", "residual", "status", "witness")})
    return st.one_of(st.lists(children, max_size=4), st.tuples(children, children), record,
                     st.dictionaries(st.one_of(st.text(max_size=4), st.integers(-3, 3)), children, max_size=4))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.recursive(scalars, nested, max_leaves=24))
def test_generated_payloads_match_the_recursive_emitter(payload):
    """Non-ASCII and control characters, signed zeros, subnormal, huge and non-finite floats,
    numpy scalars, complex numbers, arrays, int keys and records nested in witnesses."""
    assert dump_json(payload) == recursive_dump_json(payload)


def test_non_finite_floats_are_written_as_null():
    text = dump_json({"a": float("inf"), "b": [float("-inf"), np.float64("nan")], "c": complex(float("inf"), 1.0),
                      "record": {"claim": "x", "detail": "", "residual": float("inf"), "status": "fail", "witness": None}})
    assert json.loads(text) == {"a": None, "b": [None, None], "c": [None, 1.0],
                                "record": {"claim": "x", "detail": "", "residual": None, "status": "fail",
                                           "witness": None}}


def test_a_failed_group_07_equality_writes_json_that_parses(tmp_path, monkeypatch, capsys):
    """On c2-c-lau with each product-level invariant-element space that pairs nonzero one column
    short, group 07's equalities fail on the dimension: the ``--format json`` output parses, and each
    such verdict has no residual and a witness that names both dimensions."""
    import tpw.amenability
    from tpw.amenability import TliSolution

    entry = next(e for e in builtin_corpus() if e.entry_id == "c2-c-lau")
    (tmp_path / "0.json").write_text(dump_json({
        "id": "c2-c-lau-short", "algebra_a": algebra_to_dict(entry.algebra_a),
        "algebra_b": algebra_to_dict(entry.algebra_b), "hom": hom_to_dict(entry.hom), "tags": list(entry.tags)}))
    solve = tpw.amenability.solve_tli

    def short(alg, phi, sides, tol):
        per_side = solve(alg, phi, sides, tol)
        if alg.dim != entry.algebra_a.dim + entry.algebra_b.dim:
            return per_side
        return tuple(tuple(TliSolution(sol.basis[:, 1:], sol.exists_nonvanishing) if sol.exists_nonvanishing else sol
                           for sol in solutions) for solutions in per_side)

    monkeypatch.setattr(tpw.amenability, "solve_tli", short)
    monkeypatch.setenv("TPW_CORPUS_DIR", str(tmp_path))
    assert main(["corpus", "run", "--format", "json"]) == 1
    (report,) = [e["report"] for e in json.loads(capsys.readouterr().out)["entries"] if e["id"] == "c2-c-lau-short"]
    failed = [v for v in report["verdicts"]
              if v["claim"].endswith("/solution-space-equality") and v["status"] == "fail"]
    assert failed and all(v["residual"] is None for v in failed)
    assert all(v["witness"]["product_dim"] == v["witness"]["claimed_dim"] - 1 for v in failed)
