"""File formats, loaders, the command-line interface, and its exit-code contract."""

import json
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

from conftest import TOL


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
    from tpw.core import FiniteAlgebra

    alg = FiniteAlgebra(name="zero2", basis_labels=("z1", "z2"), structure=np.zeros((2, 2, 2)))
    path = tmp_path / "zero2.json"
    save_algebra(alg, str(path))
    assert main(["characters", "--algebra", str(path)]) == 3
    assert "INCOMPLETE" in capsys.readouterr().out


def test_cli_check_commands(files, capsys):
    paths, _ = files
    assert main(["check", "arens", "--algebra", paths["M2"]]) == 0
    assert main(["check", "weak-amen", "--algebra", paths["M2"]]) == 0
    assert main(["check", "char-amen", "--algebra", paths["C2"], "--side", "left"]) == 0
    assert main(["check", "inner-amen", "--algebra", paths["C2"]]) == 0
    out = capsys.readouterr().out
    assert "weakly amenable = True" in out


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
