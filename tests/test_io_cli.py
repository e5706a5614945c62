"""File formats, loaders, the command-line interface, and its exit-code contract."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tpw.cli import main
from tpw.corpus import (
    algebra_c,
    algebra_c2,
    algebra_m2,
    algebra_null1,
    hom_identity,
    load_corpus_dir,
)
from tpw.errors import ParseError, ValidationError
from tpw.io import (
    algebra_to_dict,
    hom_to_dict,
    load_algebra,
    load_hom,
    save_algebra,
    save_hom,
)
from tpw.report import dump_json

from conftest import TOL, c2_eps, undecidable_triple


@pytest.fixture()
def files(tmp_path):
    c = algebra_c()
    c2 = algebra_c2()
    m2 = algebra_m2()
    paths = {}
    for alg in (c, c2, m2):
        p = tmp_path / f"{alg.name.lower().replace('[', '').replace(']', '')}.json"
        save_algebra(alg, str(p))
        paths[alg.name] = str(p)
    hom_path = tmp_path / "id_c.json"
    save_hom(hom_identity(c), str(hom_path))
    paths["id_c"] = str(hom_path)
    return paths, tmp_path


def test_algebra_round_trip_is_byte_identical(files):
    paths, tmp_path = files
    alg = load_algebra(paths["M2"])
    out = tmp_path / "resaved.json"
    save_algebra(alg, str(out))
    assert out.read_bytes() == Path(paths["M2"]).read_bytes()


def test_load_reports_parse_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "dim": }')
    with pytest.raises(ParseError) as info:
        load_algebra(str(bad))
    assert "line 1" in str(info.value)


def test_load_rejects_non_associative(tmp_path):
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0
    c[1, 0, 0] = 1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad",
        "dim": 2,
        "basis": ["e1", "e2"],
        "structure": [[[[float(c[i, j, k]), 0.0] for k in range(2)] for j in range(2)] for i in range(2)],
    }))
    with pytest.raises(ValidationError) as info:
        load_algebra(str(path))
    assert "associative" in str(info.value)


def test_load_hom_rejects_perturbed_identity(files, tmp_path):
    paths, _ = files
    c2 = load_algebra(paths["C2"])
    data = hom_to_dict(hom_identity(c2))
    raw = json.loads(dump_json(data))
    raw["matrix"][0][1] = [0.5, 0.0]  # single perturbed entry breaks multiplicativity
    bad = tmp_path / "bad_hom.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(ValidationError) as info:
        load_hom(str(bad), {c2.name: c2})
    assert "basis pair" in str(info.value)


def test_load_verifies_declared_characters(tmp_path):
    alg = algebra_c2()
    data = algebra_to_dict(alg)
    data["declared_characters"] = [[[1.0, 0.0], [1.0, 0.0]]]  # (1,1) is not a character
    path = tmp_path / "withchars.json"
    path.write_text(dump_json(data))
    with pytest.raises(ValidationError) as info:
        load_algebra(str(path))
    assert "declared_characters" in str(info.value)


def test_cli_validate(files, capsys):
    paths, _ = files
    assert main(["validate", "--algebra", paths["M2"]]) == 0
    out = capsys.readouterr().out
    assert "valid" in out


def test_cli_validate_json(files, capsys):
    paths, _ = files
    assert main(["validate", "--algebra", paths["M2"], "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True
    assert payload["unital"] is True


def test_cli_product_and_verify(files, tmp_path, capsys):
    paths, _ = files
    out = tmp_path / "prod.json"
    code = main([
        "product", "--algebra-a", paths["C"], "--algebra-b", paths["C"],
        "--hom", paths["id_c"], "--out", str(out),
    ])
    assert code == 0
    assert main(["validate", "--algebra", str(out)]) == 0


def test_cli_product_dimension_mismatch_exits_2(files, tmp_path, capsys):
    paths, _ = files
    code = main([
        "product", "--algebra-a", paths["C2"], "--algebra-b", paths["C"],
        "--hom", paths["id_c"], "--out", str(tmp_path / "x.json"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_characters_m2_empty_exit_zero(files, capsys):
    paths, _ = files
    assert main(["characters", "--algebra", paths["M2"]]) == 0
    assert "0 character(s)" in capsys.readouterr().out


def test_cli_characters_incomplete_exit_3(tmp_path, capsys):
    """C2_eps at eps = 1e-7 cannot be decided at tol 1e-9: its trace form puts e2 in the radical,
    whose square eps e2 is not zero at tol, so the one character found is not certified."""
    path = tmp_path / "c2eps.json"
    save_algebra(c2_eps(1e-7), str(path))
    assert main(["characters", "--algebra", str(path), "--tol", "1e-9"]) == 3
    out = capsys.readouterr().out
    assert "INCOMPLETE" in out and "radical not nilpotent" in out


def test_cli_check_commands(files, capsys):
    paths, _ = files
    assert main(["check", "arens", "--algebra", paths["M2"]]) == 0
    assert main(["check", "weak-amen", "--algebra", paths["M2"]]) == 0
    assert main(["check", "char-amen", "--algebra", paths["C2"], "--side", "left"]) == 0
    assert main(["check", "inner-amen", "--algebra", paths["C2"]]) == 0
    out = capsys.readouterr().out
    assert "weakly amenable = True" in out


def test_cli_weak_amen_passes_its_seed(files, monkeypatch, capsys):
    import tpw.cli

    seeds, solve = [], tpw.cli.derivation_space

    def recorded(alg, tol, seed):
        seeds.append(seed)
        return solve(alg, tol, seed)

    monkeypatch.setattr(tpw.cli, "derivation_space", recorded)
    paths, _ = files
    assert main(["check", "weak-amen", "--algebra", paths["M2"], "--seed", "3"]) == 0
    assert seeds == [3] and "weakly amenable = True" in capsys.readouterr().out


def test_cli_commands_leave_numpy_random_unimported(files):
    """Every random draw comes from ``linalg.complex_gaussians``: importing ``numpy.random``
    would add to the peak RSS of every command.  One process runs each command in turn and
    records its exit code and whether ``numpy.random`` has been loaded after it."""
    paths, _ = files
    commands = [
        ["check", "weak-amen", "--algebra", paths["M2"]],
        ["check", "arens", "--algebra", paths["M2"]],
        ["check", "char-amen", "--algebra", paths["C2"]],
        ["check", "inner-amen", "--algebra", paths["C2"]],
        ["characters", "--algebra", paths["C2"]],
        ["verify-theorems", "--algebra-a", paths["C"], "--algebra-b", paths["C"], "--hom", paths["id_c"]],
        ["corpus", "run"],
    ]
    code = ("import json, sys\nfrom tpw.cli import main\n"
            "after = [(' '.join(args[:2]), main(args), 'numpy.random' in sys.modules) for args in json.loads(sys.argv[1])]\n"
            "print(json.dumps(after))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("TPW_CORPUS_DIR", None)
    done = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], capture_output=True, text=True, env=env,
                          check=True)
    want = [[" ".join(args[:2]), 0, False] for args in commands]
    assert json.loads(done.stdout.splitlines()[-1]) == want, done.stdout[-2000:]


def test_cli_verify_theorems_deterministic(files, capsys):
    paths, _ = files
    args = [
        "verify-theorems", "--algebra-a", paths["C"], "--algebra-b", paths["C"],
        "--hom", paths["id_c"], "--format", "json",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["summary"]["fail"] == 0


def test_cli_tolerance_outside_open_interval_exits_2(files, capsys):
    """``--tol`` must lie in (0, inf) on every command: a negative, zero, NaN or infinite value is
    a usage error (exit 2) that names the option, before any input is read."""
    paths, tmp_path = files
    pair = ["--algebra-a", paths["C"], "--algebra-b", paths["C"], "--hom", paths["id_c"]]
    commands = [["validate", "--algebra", paths["M2"]], ["product", *pair, "--out", str(tmp_path / "p.json")],
                ["characters", "--algebra", paths["M2"]], ["verify-theorems", *pair],
                ["corpus", "list"], ["corpus", "run"]]
    commands += [["check", what, "--algebra", paths["M2"]] for what in ("arens", "weak-amen", "char-amen", "inner-amen")]
    for argv in commands:
        for bad in ("-1", "0", "nan", "inf", "-inf"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, f"--tol={bad}"])
            assert exc.value.code == 2, (argv, bad)
            assert "--tol" in capsys.readouterr().err, (argv, bad)
    assert not (tmp_path / "p.json").exists()


def test_cli_missing_file_exits_2(capsys):
    assert main(["validate", "--algebra", "/nonexistent/file.json"]) == 2


def test_corpus_dir_loading(tmp_path):
    entry = {
        "id": "user-entry",
        "algebra_a": json.loads(dump_json(algebra_to_dict(algebra_c()))),
        "algebra_b": json.loads(dump_json(algebra_to_dict(algebra_c()))),
        "hom": json.loads(dump_json(hom_to_dict(hom_identity(algebra_c())))),
        "tags": ["epi"],
    }
    (tmp_path / "entry.json").write_text(json.dumps(entry))
    loaded = load_corpus_dir(str(tmp_path), TOL)
    assert len(loaded) == 1
    assert loaded[0].entry_id == "user-entry"
    assert loaded[0].tags == ("epi",)


def test_corpus_dir_rejects_distinct_algebras_sharing_a_name(tmp_path):
    from dataclasses import replace

    # a hom that is valid only against B, so resolving "X" to B would load it silently
    entry = {
        "id": "name-clash",
        "algebra_a": json.loads(dump_json(algebra_to_dict(replace(algebra_c2(), name="X")))),
        "algebra_b": json.loads(dump_json(algebra_to_dict(replace(algebra_null1(), name="X")))),
        "hom": {"source": "X", "target": "X", "matrix": [[[1.0, 0.0]]]},
        "tags": [],
    }
    (tmp_path / "entry.json").write_text(json.dumps(entry))
    with pytest.raises(ValidationError, match="both named 'X'"):
        load_corpus_dir(str(tmp_path), TOL)


def test_corpus_env_extension(tmp_path, monkeypatch, capsys):
    entry = {
        "id": "user-entry",
        "algebra_a": json.loads(dump_json(algebra_to_dict(algebra_c()))),
        "algebra_b": json.loads(dump_json(algebra_to_dict(algebra_c()))),
        "hom": json.loads(dump_json(hom_to_dict(hom_identity(algebra_c())))),
        "tags": [],
    }
    (tmp_path / "entry.json").write_text(json.dumps(entry))
    monkeypatch.setenv("TPW_CORPUS_DIR", str(tmp_path))
    assert main(["corpus", "list"]) == 0
    assert "user-entry" in capsys.readouterr().out


def test_cli_corpus_run_exits_with_its_worst_report(tmp_path, monkeypatch, capsys):
    """``corpus run`` exits 1 when a claim fails, 3 when none fails but a verdict is undecidable,
    and 1 when both kinds of entry are present, in either file order.

    The failing entry is C x_id C tagged non-weakly-amenable.  The undecidable one is
    C2_eps x_0 C at eps = 1e-7, whose first factor's character enumeration is incomplete,
    tagged weakly-amenable, which passes, and char-inner-amenable: its tag check is
    undecidable too.  One run passes a valid ``--tol``.
    """
    c = algebra_c()
    entries = {
        "mistagged": ("c-c-id", c, c, hom_identity(c), ["non-weakly-amenable"]),
        "undecidable": ("c2eps-c-zero", *undecidable_triple(), ["weakly-amenable", "char-inner-amenable"]),
    }

    def run(*names, extra=()):
        directory = tmp_path / "-".join(names)
        directory.mkdir()
        for n, name in enumerate(names):
            entry_id, a, b, hom, tags = entries[name]
            (directory / f"{n}.json").write_text(dump_json({
                "id": entry_id, "algebra_a": algebra_to_dict(a), "algebra_b": algebra_to_dict(b),
                "hom": hom_to_dict(hom), "tags": tags}))
        monkeypatch.setenv("TPW_CORPUS_DIR", str(directory))
        code = main(["corpus", "run", "--format", "json", *extra])
        reports = {e["id"]: e["report"] for e in json.loads(capsys.readouterr().out)["entries"]}
        return code, {(v["claim"], v["status"]) for v in reports[entries[names[-1]][0]]["verdicts"]}, reports

    code, verdicts, _ = run("mistagged")
    assert code == 1 and ("10-corpus-tags/weakly_amenable", "fail") in verdicts
    code, verdicts, reports = run("undecidable", extra=("--tol", "1e-9"))
    assert code == 3 and ("10-corpus-tags/char_inner_amenable", "unknown") in verdicts
    assert reports["c2eps-c-zero"]["summary"] == {"pass": 27, "fail": 0, "unknown": 6, "skip": 2}
    assert all(report["summary"]["unknown"] == report["summary"]["fail"] == 0
               for entry_id, report in reports.items() if entry_id != "c2eps-c-zero")
    assert run("mistagged", "undecidable")[0] == run("undecidable", "mistagged")[0] == 1


def test_cli_corpus_list(capsys):
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    for entry_id in ("c-c-id", "null1-c-zero", "c2-c2-swap"):
        assert entry_id in out


def test_cli_rejects_distinct_algebras_sharing_a_name(tmp_path, capsys):
    from dataclasses import replace

    from tpw.product import AlgebraHom

    c, c2 = replace(algebra_c(), name="X"), replace(algebra_c2(), name="X")
    paths = {"a": tmp_path / "a.json", "b": tmp_path / "b.json", "hom": tmp_path / "hom.json"}
    save_algebra(c2, str(paths["a"]))
    save_algebra(c, str(paths["b"]))
    save_hom(AlgebraHom(source=c, target=c2, matrix=np.ones((2, 1))), str(paths["hom"]))
    common = ["--algebra-a", str(paths["a"]), "--algebra-b", str(paths["b"]), "--hom", str(paths["hom"])]
    for argv in (["product", *common, "--out", str(tmp_path / "p.json")], ["verify-theorems", *common]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "both named 'X'" in err
        assert "matrix" not in err


MALFORMED_FIELDS = {"dim": True, "norm_weights": ["a"], "declared_characters": 5}


@pytest.mark.parametrize("field", sorted(MALFORMED_FIELDS))
def test_malformed_algebra_field_is_an_input_error(field, tmp_path, monkeypatch, capsys):
    """A malformed field exits 2 with a parse error that names it, through
    ``tpw validate`` and through an entry of ``TPW_CORPUS_DIR``."""
    data = json.loads(dump_json(algebra_to_dict(algebra_c())))
    data[field] = MALFORMED_FIELDS[field]
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError, match=field):
        load_algebra(str(path))
    assert main(["validate", "--algebra", str(path)]) == 2
    assert field in capsys.readouterr().err

    entries = tmp_path / "entries"
    entries.mkdir()
    c = json.loads(dump_json(algebra_to_dict(algebra_c())))
    entry = {"id": "malformed", "algebra_a": data, "algebra_b": c,
             "hom": json.loads(dump_json(hom_to_dict(hom_identity(algebra_c())))), "tags": []}
    (entries / "entry.json").write_text(json.dumps(entry))
    monkeypatch.setenv("TPW_CORPUS_DIR", str(entries))
    assert main(["corpus", "list"]) == 2
    err = capsys.readouterr().err
    assert "algebra_a" in err and field in err


@pytest.mark.parametrize("field", ["algebra_a", "structure", "tags"])
def test_malformed_corpus_entry_is_an_input_error(field, tmp_path, monkeypatch, capsys):
    """A field of the wrong type, or a number too large for a float, exits 2
    with a parse error that names the field instead of a traceback, through
    an entry of ``TPW_CORPUS_DIR`` and, for an algebra, ``tpw validate``."""
    c = json.loads(dump_json(algebra_to_dict(algebra_c())))
    entry = {"id": "malformed", "algebra_a": c, "algebra_b": json.loads(json.dumps(c)),
             "hom": json.loads(dump_json(hom_to_dict(hom_identity(algebra_c())))), "tags": []}
    if field == "structure":
        entry["algebra_a"]["structure"][0][0][0] = [10**400, 0]
    else:
        entry[field] = 5
    (tmp_path / "entry.json").write_text(json.dumps(entry))
    with pytest.raises(ParseError, match=field):
        load_corpus_dir(str(tmp_path), TOL)
    monkeypatch.setenv("TPW_CORPUS_DIR", str(tmp_path))
    assert main(["corpus", "list"]) == 2
    assert field in capsys.readouterr().err

    if field == "structure":
        path = tmp_path / "algebra.json"
        path.write_text(json.dumps(entry["algebra_a"]))
        assert main(["validate", "--algebra", str(path)]) == 2
        assert field in capsys.readouterr().err


def _short(structure):
    return structure[:1]


def _ragged(structure):
    structure[0][1] = structure[0][1][:1]
    return structure


def _set(index, value):
    def edit(structure):
        i, j, k = index
        structure[i][j][k] = value
        return structure
    return edit


MALFORMED_ARRAYS = {
    "non-pair leaf": (_set((0, 0, 0), 5), "structure[0, 0, 0]: complex values must be [re, im] pairs, got 5"),
    "non-numeric component": (_set((0, 0, 0), [None, 0]),
                              "structure[0, 0, 0]: complex components must be numbers, got [None, 0]"),
    "string component": (_set((0, 1, 0), ["1", 0]),
                         "structure[0, 1, 0]: complex components must be numbers, got ['1', 0]"),
    "short list": (_short, "structure[]: expected a list of length 2"),
    "ragged list": (_ragged, "structure[0, 1]: expected a list of length 2"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ARRAYS))
def test_malformed_complex_array_names_the_first_bad_entry(case, tmp_path, capsys):
    """A structure tensor that is not an array of [re, im] number pairs of the
    declared shape exits 2 through ``tpw validate``, and the parse error names
    the first bad entry."""
    edit, message = MALFORMED_ARRAYS[case]
    data = json.loads(dump_json(algebra_to_dict(algebra_c2())))
    data["structure"] = edit(data["structure"])
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError) as info:
        load_algebra(str(path))
    assert str(info.value) == f"{path}: {message}"
    assert main(["validate", "--algebra", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_complex_array_keeps_signed_zeros_infinities_and_large_integers():
    """Each entry comes out as complex(re, im) gives it: -0.0 and infinities keep
    their sign, and an integer too large for int64 is still a number."""
    from tpw.io import _parse_complex_array

    inf = float("inf")
    value = [[-0.0, 0.0], [inf, -inf], [2**70, -0.0], [True, 3]]
    out = _parse_complex_array(value, (4,), "x")
    want = np.array([complex(re, im) for re, im in value])
    assert out.shape == (4,) and out.dtype == complex
    assert out.tobytes() == want.tobytes()
    floats = [[[1.5, -0.0], [0, 2]], [[-3, 4.25], [-0.0, -0.0]]]
    out = _parse_complex_array(floats, (2, 2), "x")
    assert out.tobytes() == np.array([[complex(*p) for p in row] for row in floats]).tobytes()


def reference_jsonable(value):
    """The first pass of the two-pass emitter: numbers, numpy types and dataclasses as plain data."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return [reference_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): reference_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_jsonable(v) for v in value]
    if hasattr(value, "to_dict"):
        return reference_jsonable(value.to_dict())
    return str(value)


def reference_emit(value, out):
    """The second pass of the two-pass emitter, over plain data; a non-finite float is null, which JSON can parse."""
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(format(value, ".12e") if math.isfinite(value) else "null")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            out.append("," if i else "")
            out.append(json.dumps(str(key)) + ":")
            reference_emit(value[key], out)
        out.append("}")
    else:
        out.append("[")
        for i, item in enumerate(value):
            out.append("," if i else "")
            reference_emit(item, out)
        out.append("]")


def reference_dump_json(data):
    out = []
    reference_emit(reference_jsonable(data), out)
    return "".join(out)


def test_one_pass_emitter_matches_two_pass_reference(monkeypatch, capsys):
    """``dump_json`` gives, byte for byte, what the two-pass emitter gave, on a built-in
    ``corpus run``, a ladder-shaped report and values of every kind a report can hold."""
    import tpw.cli
    from tpw.product import AlgebraHom
    from tpw.suite import RunConfig, verify_theorems

    from conftest import matrix_unit_algebra, random_unitary, rebased

    payloads = []

    def capture(payload):
        payloads.append(payload)
        return dump_json(payload)

    monkeypatch.setattr(tpw.cli, "dump_json", capture)
    monkeypatch.delenv("TPW_CORPUS_DIR", raising=False)
    assert main(["corpus", "run", "--format", "json"]) == 0
    capsys.readouterr()
    c5 = rebased(matrix_unit_algebra("C", 5), random_unitary(np.random.default_rng(3), 5), "C5")
    payloads.append(verify_theorems(c5, c5, AlgebraHom(source=c5, target=c5, matrix=np.eye(5)), RunConfig()).to_dict())
    payloads.append({
        2: [np.bool_(True), np.int64(-7), np.float32(0.1), np.complex128(1 - 2j), 3 + 0j, (None, False)],
        "café \"q\"\n": {"nested": np.arange(4, dtype=complex).reshape(2, 2), "i": np.arange(3)},
        "b": [float("inf"), -0.0, 10**30, ValueError("not a number")],
    })
    for payload in payloads:
        assert dump_json(payload) == reference_dump_json(payload)
