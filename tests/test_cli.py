import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from qtriang import jsonio
from qtriang.cli import main
from qtriang.cyclotomic import CycScalar, root_of_unity
from qtriang.groups import AbelianGroup, bundled_group, enumerate_biforms, normal_inclusions
from qtriang.hopf import GATensor
from qtriang.charring import regular_rep
from qtriang.rmatrix import QTDatum, build_r


def golden_koszul():
    g = bundled_group("Z2")
    h = Fraction(1, 2)
    return GATensor(g, 2, {(0, 0): h, (0, 1): h, (1, 0): h, (1, 1): -h})


def z2_datum_doc():
    return {"group": "Z2", "subgroup": [0, 1], "i": [1], "j": [1], "beta": [[1]]}


def test_scalar_round_trip():
    for value in (
        CycScalar.rational(Fraction(-7, 3)),
        root_of_unity(12, 5),
        root_of_unity(8, 3) + CycScalar.rational(Fraction(1, 2)),
    ):
        doc = jsonio.scalar_to_json(value)
        assert jsonio.scalar_from_json(doc) == value


def test_scalar_serialization_is_minimal_order():
    doc = jsonio.scalar_to_json(root_of_unity(6, 2))  # equals zeta_3
    assert doc["order"] == 3


def test_group_round_trip():
    for name in ("Z2", "S3", "Q8"):
        g = bundled_group(name)
        assert jsonio.group_from_json(jsonio.group_to_json(g)) == g


def test_group_from_abelian_shorthand():
    g = jsonio.group_from_json({"abelian": [2, 4]})
    assert g.size == 8
    assert g.is_abelian()


def test_tensor_round_trip():
    r = golden_koszul()
    doc = jsonio.tensor_to_json(r)
    assert jsonio.tensor_from_json(doc, r.group) == r


def test_datum_round_trip():
    g = bundled_group("Z2xZ2")
    a = AbelianGroup((2,))
    incls = normal_inclusions(a, g)
    beta = enumerate_biforms(a, nondegenerate=True)[0]
    datum = QTDatum(g, a, incls[0], incls[2], beta)
    doc = jsonio.datum_to_json(datum)
    back = jsonio.datum_from_json(doc, g)
    assert back == datum
    assert build_r(back) == build_r(datum)


def test_class_function_round_trip():
    g = bundled_group("S3")
    fn = regular_rep(g).character()
    doc = jsonio.class_function_to_json(fn)
    assert jsonio.class_function_from_json(doc, g) == fn


def test_matrix_rep_round_trip():
    g = bundled_group("Z4")
    rep = regular_rep(g)
    doc = jsonio.matrix_rep_to_json(rep)
    back = jsonio.matrix_rep_from_json(doc, g)
    assert back.character() == rep.character()
    for x in g.elements():
        assert back.matrix(x) == rep.matrix(x)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write(path, doc):
    path.write_text(jsonio.canonical_dumps(doc))


def test_cli_classify_z2_contains_golden(workdir, capsys):
    assert main(["classify", "--group", "Z2", "--triangular"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["data"] == 2
    rmats = [
        jsonio.tensor_from_json(e["rmatrix"], bundled_group("Z2"))
        for e in doc["entries"]
    ]
    assert golden_koszul() in rmats
    assert "note" in doc


def test_cli_classify_deterministic(workdir):
    assert main(["classify", "--group", "S3", "--out", "a.json"]) == 0
    assert main(["classify", "--group", "S3", "--out", "b.json"]) == 0
    assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()


def test_cli_verify_unit(workdir, capsys):
    _write(workdir / "unit.json", jsonio.tensor_to_json(GATensor.unit(bundled_group("Z2"), 2)))
    assert main(["verify", "--rmatrix", "unit.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verification"]["all_passed"]
    assert doc["unitary"] is True


def test_cli_verify_corrupted_sign_flip(workdir, capsys):
    bad = golden_koszul() + GATensor(
        bundled_group("Z2"), 2, {(1, 1): CycScalar.one()}
    )  # flips the sign of the u(x)u term
    _write(workdir / "bad.json", jsonio.tensor_to_json(bad))
    assert main(["verify", "--rmatrix", "bad.json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    failed = [c for c in doc["verification"]["checks"] if not c["passed"]]
    assert failed


def test_cli_verify_corrupted_identity_failure_with_witness(workdir, capsys):
    h = Fraction(1, 2)
    broken = GATensor(
        bundled_group("Z2"), 2, {(0, 0): 1, (0, 1): h, (1, 0): h, (1, 1): -h}
    )
    _write(workdir / "broken.json", jsonio.tensor_to_json(broken))
    assert main(["verify", "--rmatrix", "broken.json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    failed = [c for c in doc["verification"]["checks"] if not c["passed"]]
    assert any(c["witness"] and "tuple" in c["witness"] for c in failed)


def test_cli_verify_round_trips_tensor(workdir, capsys):
    r = golden_koszul()
    _write(workdir / "ru.json", jsonio.tensor_to_json(r))
    assert main(["verify", "--rmatrix", "ru.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert jsonio.tensor_from_json(doc["rmatrix"], r.group) == r


def test_cli_markov(workdir, capsys):
    _write(workdir / "datum.json", z2_datum_doc())
    assert main(["markov", "--datum", "datum.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    u = jsonio.tensor_from_json(doc["markov"], bundled_group("Z2"))
    assert u == GATensor.basis(bundled_group("Z2"), 1)
    assert doc["value_equation"] is True
    assert doc["verification"]["all_passed"]


def test_cli_adams_and_lambda(workdir, capsys):
    assert main(["adams", "--group", "Z2", "--u", "1", "--n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    sign_row = doc["results"][1]["result"]["values"]
    assert sign_row == [
        {"coeffs": [[-1, 1]], "order": 1},
        {"coeffs": [[-1, 1]], "order": 1},
    ]
    assert main(["lambda", "--group", "Z2", "--u", "1", "--n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][1]["result"]["values"] == [
        {"coeffs": [[1, 1]], "order": 1},
        {"coeffs": [[1, 1]], "order": 1},
    ]


def test_cli_exterior_with_cyclic(workdir, capsys):
    _write(workdir / "datum.json", z2_datum_doc())
    assert main(
        ["exterior", "--datum", "datum.json", "--n", "2", "--p", "2", "--eps", "1"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(row["matches_newton_recursion"] for row in doc["results"])
    assert all("cyclic_traces" in row for row in doc["results"])


def test_cli_koszul_twist(workdir, capsys):
    _write(workdir / "datum.json", z2_datum_doc())
    assert main(["koszul-twist", "--datum", "datum.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verification"]["all_passed"]
    twist = jsonio.tensor_from_json(doc["twist"], bundled_group("Z2"))
    assert twist.is_unit()


def test_cli_parse_errors(workdir, capsys):
    assert main(["verify", "--rmatrix", "missing.json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["kind"] == "input"
    (workdir / "garbage.json").write_text("{not json")
    assert main(["verify", "--rmatrix", "garbage.json"]) == 2
    capsys.readouterr()
    good = jsonio.tensor_to_json(golden_koszul())
    bad_order = json.loads(json.dumps(good))
    bad_order["terms"][0]["coeff"]["order"] = "x"
    zero_den = json.loads(json.dumps(good))
    zero_den["terms"][0]["coeff"]["coeffs"] = [[1, 0]]
    extra_coord = json.loads(json.dumps(good))
    extra_coord["terms"][0]["coeff"] = {"order": 2, "coeffs": [[1, 2], [1, 2]]}
    over_cap = json.loads(json.dumps(good))
    over_cap["terms"][0]["coeff"] = {"order": 100000, "coeffs": [[1, 2]]}
    over_cap_counted = json.loads(json.dumps(good))
    over_cap_counted["terms"][0]["coeff"] = {"order": 361, "coeffs": [[1, 2]] * 342}
    order_zero = json.loads(json.dumps(good))
    order_zero["terms"][0]["coeff"] = {"order": 0, "coeffs": [[1, 2]]}
    short_coord = json.loads(json.dumps(good))
    short_coord["terms"][0]["coeff"] = {"order": 1, "coeffs": [[1]]}
    index_out = json.loads(json.dumps(good))
    index_out["terms"][0]["tuple"] = [0, 5]
    short_tuple = json.loads(json.dumps(good))
    short_tuple["terms"][0]["tuple"] = [0]
    negative_arity = dict(json.loads(json.dumps(good)), arity=-1)
    for name, doc in (
        ("order_x.json", bad_order),
        ("zero_den.json", zero_den),
        ("top_list.json", [good]),
        ("extra_coord.json", extra_coord),
        ("over_cap.json", over_cap),
        ("over_cap_counted.json", over_cap_counted),
        ("order_zero.json", order_zero),
        ("short_coord.json", short_coord),
        ("index_out.json", index_out),
        ("short_tuple.json", short_tuple),
        ("negative_arity.json", negative_arity),
    ):
        _write(workdir / name, doc)
        assert main(["verify", "--rmatrix", name]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "input"
    for name, doc in (
        ("datum_index_out.json", dict(z2_datum_doc(), i=[99])),
        ("datum_subgroup_out.json", dict(z2_datum_doc(), subgroup=[0, 7])),
        ("datum_beta_str.json", dict(z2_datum_doc(), beta=[["x"]])),
    ):
        _write(workdir / name, doc)
        assert main(["markov", "--datum", name]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "input"
    _write(workdir / "group_list.json", [1, 2])
    assert main(["classify", "--group", "group_list.json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "input"


def test_cli_invariant_violation(workdir, capsys):
    degenerate = dict(z2_datum_doc(), beta=[[0]])
    _write(workdir / "bad_datum.json", degenerate)
    assert main(["markov", "--datum", "bad_datum.json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["kind"] == "invariant"


def test_cli_group_file_input(workdir, capsys):
    _write(workdir / "grp.json", jsonio.group_to_json(bundled_group("Z3")))
    assert main(["classify", "--group", "grp.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["data"] == 9


def test_cli_exterior_rejects_nonunitary(workdir, capsys):
    s3 = bundled_group("S3")
    a3 = AbelianGroup((3,))
    incl = normal_inclusions(a3, s3)[0]
    beta = enumerate_biforms(
        a3, incl.conjugation_automorphisms(), nondegenerate=True, g_invariant=True
    )[0]
    r = build_r(QTDatum(s3, a3, incl, incl, beta))
    _write(workdir / "r.json", jsonio.tensor_to_json(r))
    assert main(["exterior", "--rmatrix", "r.json", "--n", "2"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["kind"] == "invariant"


def test_cli_markov_from_tensor(workdir, capsys):
    _write(workdir / "ru.json", jsonio.tensor_to_json(golden_koszul()))
    assert main(["markov", "--rmatrix", "ru.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["markov"] == doc["markov_flipped"]
    assert "value_equation" not in doc


def test_cli_selftest_surfaces_every_criterion(workdir, capsys):
    # The suite has one documented red criterion (number 3, see the
    # acceptance module docstring), so the exit status reflects a failure
    # while all other criteria must pass.
    status = main(["selftest", "--out", "self.json"])
    capsys.readouterr()
    doc = json.loads((workdir / "self.json").read_text())
    assert [c["number"] for c in doc["criteria"]] == list(range(1, 11))
    failing = {c["number"] for c in doc["criteria"] if not c["passed"]}
    assert failing == {3}
    assert doc["all_passed"] is False
    assert status == 1


def test_module_entry_point_runs_from_source(tmp_path):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qtriang", "classify", "--group", "Z2"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["counts"]["data"] == 2
