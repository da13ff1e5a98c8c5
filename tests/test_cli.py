import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from qtriang import acceptance, charring, jsonio, rmatrix
from qtriang.cli import build_parser, main
from qtriang.cyclotomic import CycScalar, root_of_unity
from qtriang.groups import (
    CATALOG_NAMES,
    AbelianGroup,
    bundled_group,
    enumerate_biforms,
    normal_inclusions,
)
from qtriang.hopf import GATensor
from qtriang.charring import MatrixRep, regular_rep
from qtriang.rmatrix import QTDatum, build_r, verify_qt, verify_unitary


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
    beta = [b for b in enumerate_biforms(a) if b.is_nondegenerate()][0]
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


def test_cli_classify_triangular_verifies_each_triangular_class_once(workdir, monkeypatch):
    # The triangular catalog is a view of the full one: only the structures
    # of triangular data are verified, 22 over the seven groups.
    calls = []
    real = charring.verify_qt

    def counting(tensor, *shared):
        calls.append(tensor)
        return real(tensor, *shared)

    monkeypatch.setattr(charring, "verify_qt", counting)
    distinct = 0
    for name in CATALOG_NAMES:
        assert main(["classify", "--group", name, "--triangular", "--out", "t.json"]) == 0
        distinct += json.loads((workdir / "t.json").read_text())["counts"]["distinct"]
    assert len(calls) == distinct == 22


def test_cli_classify_deterministic(workdir):
    assert main(["classify", "--group", "S3", "--out", "a.json"]) == 0
    assert main(["classify", "--group", "S3", "--out", "b.json"]) == 0
    assert (workdir / "a.json").read_bytes() == (workdir / "b.json").read_bytes()


def test_cli_classify_refuses_a_group_past_the_data_cap(workdir, capsys):
    # Z2^3 has 168 inclusions of A = Z2^3, paired two by two, times 168
    # forms: the count is read before any datum is built.
    (workdir / "z2cubed.json").write_text('{"abelian": [2, 2, 2]}')
    start = time.perf_counter()
    assert main(["classify", "--group", "z2cubed.json"]) == 2
    assert time.perf_counter() - start < 1.0
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {
        "kind": "input",
        "message": "Z2xZ2xZ2 has 4752266 classification data, past the cap 32768",
    }


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--bogus"], "unrecognized arguments: --bogus"),
        (["adams", "--group", "Z2", "--n", "x"], "argument --n: invalid int value: 'x'"),
        ([], "the following arguments are required: command"),
        (["nope"], "argument command: invalid choice: 'nope' (choose from 'classify', "),
    ],
    ids=["unknown-flag", "bad-int", "no-command", "unknown-command"],
)
def test_cli_argument_errors_exit_2_with_a_json_error(argv, message, capsys):
    # argparse's message in the structured body, on stdout, and no usage.
    assert main(argv) == 2
    captured = capsys.readouterr()
    error = json.loads(captured.out)["error"]
    assert error["kind"] == "input" and error["message"].startswith(message), error
    assert captured.err == ""


def test_cli_help_still_exits_0_with_its_text(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qtriang")


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


def test_cli_verify_of_a_non_invertible_tensor_forms_two_products(workdir, capsys, monkeypatch):
    # e x e + g x e on Z2 has no inverse.  ``verify`` forms R13 R23 for the
    # left hexagon, which fails, then R (S x I)(R), which is not the unit,
    # and stops at ``invertible``: R13 R12 and the Yang-Baxter sides are
    # never formed (five products when ``Braiding.report`` formed the leg
    # products and sides before ``verify_qt`` ran).
    z2 = bundled_group("Z2")
    _write(workdir / "singular.json", jsonio.tensor_to_json(GATensor(z2, 2, {(0, 0): 1, (1, 0): 1})))
    arities, real_mul = [], GATensor.__mul__

    def mul(left, right):
        arities.append(left.arity)
        return real_mul(left, right)

    monkeypatch.setattr(GATensor, "__mul__", mul)
    assert main(["verify", "--rmatrix", "singular.json"]) == 1
    checks = json.loads(capsys.readouterr().out)["verification"]["checks"]
    assert checks == [
        {"name": "invertible", "passed": False, "witness": {"reason": "no two-sided inverse exists"}}
    ]
    assert arities == [3, 2]


def test_cli_verify_orders_past_the_cap_are_refused(workdir, capsys):
    # Each value's order is within the cap, but a tensor keeps all of them at
    # one order, their lcm of about 1.5e10: the document is refused on load.
    keys = [(0, 0), (0, 1), (1, 0), (1, 1)]
    doc = {
        "group": "Z2",
        "arity": 2,
        "terms": [
            {"tuple": list(k), "coeff": jsonio.scalar_to_json(root_of_unity(p))}
            for k, p in zip(keys, (359, 353, 349, 347))
        ],
    }
    _write(workdir / "primes.json", doc)
    assert main(["verify", "--rmatrix", "primes.json"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "input"
    assert "tensor values need the common cyclotomic order 15347019881, past 360" in error["message"]


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


def test_cli_adams_and_lambda(workdir, capsys, monkeypatch):
    # The test characters are read without building a matrix representation
    # once Z2's standard reps exist: they are built here first, so the test
    # does not depend on what ran before it.
    charring.standard_reps(bundled_group("Z2"))
    refuse = lambda *args, **kwargs: pytest.fail("adams and lambda build no MatrixRep")
    monkeypatch.setattr(MatrixRep, "__init__", refuse)
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


def test_cli_exterior_sixth_power_on_a_16_term_structure(workdir, capsys):
    # Z2xZ2's first 16-term triangular datum at n = 6: one power sum per
    # degree, not 720 signed words per representation (over a minute when
    # every word was formed), and every row matches the Newton recursion.
    catalog = acceptance.triangular_catalog("Z2xZ2")
    datum = next(
        d for d, s in zip(catalog.data, catalog.structures) if len(s.rmatrix.terms) == 16
    )
    _write(workdir / "datum.json", jsonio.datum_to_json(datum))
    assert main(["exterior", "--datum", "datum.json", "--n", "6", "--p", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["results"]) == 5
    assert all(row["matches_newton_recursion"] for row in doc["results"])


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


_NEGATIVE = "negative exterior powers are not defined"
_NOT_INVOLUTION = "element {} is not a central involution of {}"
_NOT_PRIME = "--p {} is not a prime at most 360"
_PAST_DEGREE_CAP = "--n {} is past the degree cap 10000"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lambda", "--group", "Z2", "--n", "-1"], _NEGATIVE),
        (["exterior", "--datum", "datum.json", "--n", "-1"], _NEGATIVE),
        (["adams", "--group", "Z2", "--u", "99", "--n", "2"], _NOT_INVOLUTION.format(99, "Z2")),
        (["lambda", "--group", "Z2", "--u", "99"], _NOT_INVOLUTION.format(99, "Z2")),
        (["adams", "--group", "S3", "--u", "1"], _NOT_INVOLUTION.format(1, "S3")),
        (["exterior", "--datum", "datum.json", "--p", "0"], _NOT_PRIME.format(0)),
        (["exterior", "--datum", "datum.json", "--p", "1"], _NOT_PRIME.format(1)),
        (["exterior", "--datum", "datum.json", "--p", "4"], _NOT_PRIME.format(4)),
        (["exterior", "--datum", "datum.json", "--p", "1000"], _NOT_PRIME.format(1000)),
        (["lambda", "--group", "Z2", "--n", "10001"], _PAST_DEGREE_CAP.format(10001)),
        (["exterior", "--datum", "datum.json", "--n", "10001"], _PAST_DEGREE_CAP.format(10001)),
        (["lambda", "--group", "Z2", "--n", "10" * 6], _PAST_DEGREE_CAP.format("10" * 6)),
        # Refused before the datum is read: absent.json does not exist.
        (["exterior", "--datum", "absent.json", "--n", "10" * 6], _PAST_DEGREE_CAP.format("10" * 6)),
    ],
)
def test_cli_bad_option_values_are_input_errors(workdir, capsys, argv, message):
    _write(workdir / "datum.json", z2_datum_doc())
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["error"] == {"kind": "input", "message": message}


@pytest.mark.parametrize("degree", [["--n", "7"], ["--n", "3", "--p", "5"]], ids=["n7", "n3-p5"])
def test_cli_exterior_has_no_degree_or_tensor_power_cap(workdir, capsys, degree):
    # Within the degree cap, neither n nor p is refused, and no
    # representation is left out, for the size of d^n or d^p (8^7 and 8^5
    # on D4's regular rep): the power sums are character sums over R's
    # terms and build no matrix.  The datum is D4's first Klein-supported
    # one, whose regular rep differs from the Newton recursion at even n
    # only.
    catalog = acceptance.triangular_catalog("D4")
    _write(workdir / "datum.json", jsonio.datum_to_json(catalog.data[catalog.dedup[2][0]]))
    assert main(["exterior", "--datum", "datum.json", *degree]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    assert [row["representation"] for row in rows][-1] == "regular(D4)"
    assert len(rows) == 5 and all(row["matches_newton_recursion"] for row in rows)
    assert all(("cyclic_traces" in row) == ("--p" in degree) for row in rows)


def test_cli_lambda_has_no_word_cap(capsys):
    # lambda^n is a Newton recursion on class functions and forms no word.
    assert main(["lambda", "--group", "Z2", "--u", "1", "--n", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 7


def test_cli_degree_cap_admits_the_cap_itself(workdir, capsys):
    # n = 10000 is accepted by both commands; 10001 is refused before any
    # work (``test_cli_bad_option_values_are_input_errors``).
    _write(workdir / "datum.json", z2_datum_doc())
    for argv in (["lambda", "--group", "Z2", "--u", "1"], ["exterior", "--datum", "datum.json"]):
        assert main([*argv, "--n", "10000"]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 10000


def test_cli_unwritable_out_is_an_input_error(workdir, capsys):
    target = workdir / "missing_dir" / "x.json"
    assert main(["classify", "--group", "Z2", "--out", str(target)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "input"
    assert error["message"].startswith(f"cannot write {target}: ")
    assert not target.exists()


def test_cli_out_is_overwritten_in_place_with_no_stale_tail(workdir):
    # Z2's report over Z2xZ2's, 1.5 MB long: the same file, cut to the new
    # bytes.
    assert main(["classify", "--group", "Z2", "--out", "fresh.json"]) == 0
    assert main(["classify", "--group", "Z2xZ2", "--out", "out.json"]) == 0
    before = os.stat("out.json")
    assert before.st_size > 10**6
    assert main(["classify", "--group", "Z2", "--out", "out.json"]) == 0
    assert (workdir / "out.json").read_bytes() == (workdir / "fresh.json").read_bytes()
    assert os.stat("out.json").st_ino == before.st_ino


def test_cli_out_through_a_symlink_rewrites_its_target(workdir):
    assert main(["classify", "--group", "Z2", "--out", "fresh.json"]) == 0
    assert main(["classify", "--group", "Z4", "--out", "target.json"]) == 0
    os.symlink("target.json", "link.json")
    assert main(["classify", "--group", "Z2", "--out", "link.json"]) == 0
    assert os.path.islink("link.json")
    assert (workdir / "target.json").read_bytes() == (workdir / "fresh.json").read_bytes()


def test_cli_out_to_dev_null_exits_0(capsys):
    assert main(["classify", "--group", "Z2", "--out", os.devnull]) == 0
    assert capsys.readouterr().out == ""


def test_cli_out_creates_a_file_with_the_umask_mode(workdir):
    old = os.umask(0o027)
    try:
        assert main(["classify", "--group", "Z2", "--out", "new.json"]) == 0
    finally:
        os.umask(old)
    assert os.stat("new.json").st_mode & 0o777 == 0o666 & ~0o027


_FSIZE_CHILD = """
import resource, signal, sys
from qtriang.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (65536, 65536))
sys.exit(main(["classify", "--group", "Z2xZ2", "--out", sys.argv[1]]))
"""


def test_cli_out_write_failing_part_way_leaves_the_file_empty(workdir):
    # Past 64 KB every write fails with EFBIG, so the 1.5 MB report over an
    # existing one stops part-way: the file is cut to nothing rather than
    # left as a new head on the old report's tail.
    assert main(["classify", "--group", "Z2xZ2", "--out", "out.json"]) == 0
    assert os.path.getsize("out.json") > 10**6
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    proc = subprocess.run(
        [sys.executable, "-c", _FSIZE_CHILD, "out.json"],
        cwd=workdir,
        env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error["kind"] == "input"
    assert error["message"].startswith("cannot write out.json: ")
    assert os.path.getsize("out.json") == 0


def test_cli_reuses_one_parser_and_calls_stay_independent(workdir, capsys):
    build_parser.cache_clear()
    assert main(["adams", "--group", "Z2"]) == 0
    fresh = capsys.readouterr().out
    assert json.loads(fresh)["u"] == 0
    assert main(["adams", "--group", "Z2", "--u", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["u"] == 1
    assert main(["adams", "--group", "Z2"]) == 0
    assert capsys.readouterr().out == fresh
    assert build_parser.cache_info().misses == 1


def test_cli_invariant_violation(workdir, capsys):
    degenerate = dict(z2_datum_doc(), beta=[[0]])
    _write(workdir / "bad_datum.json", degenerate)
    assert main(["markov", "--datum", "bad_datum.json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["kind"] == "invariant"


_S3_DATUM = {"group": "S3", "subgroup": [0, 3, 4], "i": [3], "j": [3]}


@pytest.mark.parametrize("beta", [[[0, 1], [1, 0]], [[1], [2, 3]]], ids=["too_big", "ragged"])
@pytest.mark.parametrize("command", ["verify", "markov", "exterior", "koszul-twist"])
def test_cli_wrong_shaped_beta_is_an_invariant_error(workdir, capsys, command, beta):
    _write(workdir / "datum.json", dict(_S3_DATUM, beta=beta))
    assert main([command, "--datum", "datum.json"]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"kind": "invariant", "message": "exponent matrix has wrong shape"}


@pytest.mark.parametrize(
    "subgroup, message",
    [
        ([1, 2], "subset does not contain the identity"),
        ([0, 3], "subset is not closed under the product"),
        ([0, 1, 2, 3, 4, 5], "subset is not abelian"),
    ],
    ids=["no_identity", "open", "nonabelian"],
)
def test_cli_datum_subgroup_that_is_not_an_abelian_subgroup_is_an_invariant_error(
    workdir, capsys, subgroup, message
):
    _write(workdir / "datum.json", dict(_S3_DATUM, subgroup=subgroup, beta=[[1]]))
    assert main(["markov", "--datum", "datum.json"]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"kind": "invariant", "message": message}


# -- the CLI contract under mutated input documents ---------------------------


def _fuzz_documents():
    v4 = bundled_group("Z2xZ2")
    a = AbelianGroup((2, 2))
    incl = normal_inclusions(a, v4)[0]
    beta = [b for b in enumerate_biforms(a) if b.is_nondegenerate() and b.is_skewsymmetric()][0]
    s3 = bundled_group("S3")
    a3 = AbelianGroup((3,))
    s3_incl = normal_inclusions(a3, s3)[0]
    s3_autos = s3_incl.conjugation_automorphisms()
    s3_forms = enumerate_biforms(a3)
    s3_beta = [b for b in s3_forms if b.is_nondegenerate() and b.is_invariant(s3_autos)][0]
    return [
        ("rmatrix", jsonio.tensor_to_json(golden_koszul())),
        ("rmatrix", jsonio.tensor_to_json(build_r(QTDatum(s3, a3, s3_incl, s3_incl, s3_beta)))),
        ("datum", z2_datum_doc()),
        ("datum", jsonio.datum_to_json(QTDatum(v4, a, incl, incl, beta))),
        ("group", jsonio.group_to_json(bundled_group("Z3"))),
        ("group", {"abelian": [2, 3]}),
    ]


_FUZZ_DOCUMENTS = _fuzz_documents()

_FUZZ_COMMANDS = {
    "rmatrix": ["verify", "markov", "exterior"],
    "datum": ["verify", "markov", "exterior", "koszul-twist"],
    "group": ["adams"],
}

_LEAVES = st.one_of(
    st.integers(-3, 70),
    st.just(10**30),
    st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.sampled_from(["order", "coeffs", "x"]), st.integers(0, 2), max_size=2),
    st.none(),
    st.booleans(),
    st.floats(),
)


def _node_paths(node, prefix=()):
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


@st.composite
def _mutated_documents(draw):
    kind, doc = draw(st.sampled_from(_FUZZ_DOCUMENTS))
    # Equal coefficients of one tensor share one record, which deepcopy
    # would keep shared; a JSON round trip gives each term its own, so one
    # edit changes one place.
    doc = json.loads(json.dumps(doc))
    *parents, last = draw(st.sampled_from(list(_node_paths(doc))))
    parent = doc
    for key in parents:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[last]  # a missing key or a dropped list item
    else:
        parent[last] = draw(_LEAVES)
    return kind, doc


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_mutated_documents())
@example(("datum", dict(_S3_DATUM, beta=[[0, 1], [1, 0]])))
def test_cli_contract_holds_on_mutated_documents(tmp_path, mutated):
    # Every answer is one JSON object with a documented exit code; nothing
    # escapes main as an exception.
    kind, doc = mutated
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command in _FUZZ_COMMANDS[kind]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main([command, f"--{kind}", str(path)])
        assert status in {0, 1, 2, 3}, (command, doc)
        assert isinstance(json.loads(out.getvalue()), dict), (command, doc)


def test_cli_group_file_input(workdir, capsys):
    _write(workdir / "grp.json", jsonio.group_to_json(bundled_group("Z3")))
    assert main(["classify", "--group", "grp.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["data"] == 9


@pytest.mark.parametrize(
    "factors, status, message",
    [
        ([1500], 3, "group order 1500 exceeds the supported cap 64"),
        ([10**30, 2], 3, f"group order {2 * 10**30} exceeds the supported cap 64"),
        ([10**30, 0], 3, f"group order {10**30} exceeds the supported cap 64"),
        ([10**30, 1.5], 2, "'abelian' must be a list of integers"),
        ([True, 3], 2, "'abelian' must be a list of integers"),
        ({}, 2, "'abelian' must be a list of integers"),
    ],
)
def test_cli_abelian_shorthand_is_capped_before_any_table(
    workdir, capsys, monkeypatch, factors, status, message
):
    def no_table(*args):
        raise AssertionError("a Cayley table was built")

    monkeypatch.setattr(jsonio, "cyclic_group", no_table)
    _write(workdir / "big.json", {"abelian": factors})
    assert main(["adams", "--group", "big.json"]) == status
    assert message in json.loads(capsys.readouterr().out)["error"]["message"]


def test_cli_exterior_rejects_nonunitary(workdir, capsys):
    s3 = bundled_group("S3")
    a3 = AbelianGroup((3,))
    incl = normal_inclusions(a3, s3)[0]
    autos = incl.conjugation_automorphisms()
    beta = [b for b in enumerate_biforms(a3) if b.is_nondegenerate() and b.is_invariant(autos)][0]
    r = build_r(QTDatum(s3, a3, incl, incl, beta))
    _write(workdir / "r.json", jsonio.tensor_to_json(r))
    assert verify_qt(r).all_passed and not verify_unitary(r)
    assert main(["exterior", "--rmatrix", "r.json", "--n", "2"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == {"kind": "input", "message": "exterior needs a triangular R-matrix"}


def test_cli_exterior_refuses_a_rep_that_keeps_a_braided_difference(workdir, capsys):
    # s (x) s for a transposition s of S3 is unitary with Markov element 1,
    # but not invariant under conjugation: the linear reps kill that
    # difference and the regular rep does not, so the square is refused.
    _write(workdir / "r.json", jsonio.tensor_to_json(GATensor.basis(bundled_group("S3"), 1, 1)))
    assert main(["exterior", "--rmatrix", "r.json", "--n", "2"]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"kind": "invariant", "message": "the braided action is not equivariant"}


_NOT_TRIANGULAR = {"kind": "input", "message": "exterior needs a triangular R-matrix"}


@pytest.mark.parametrize(
    "terms, argv, status, digest_or_error",
    [
        # g (x) g on Z2: unitary, Yang-Baxter, equivariant, but not an R-matrix
        ({(1, 1): 1}, ["--n", "2"], 0,
         "ee3ee7682d3515847f2af8d07839b93ba06ac3318d7b77f1186813673155788a"),
        ({(1, 1): 1}, ["--n", "2", "--p", "2"], 0,
         "2ea00fa8df90c53f64dfe4e447532dd869db494a988d29b8d8ffc96ede7b42e7"),
        ({(1, 1): 1}, ["--n", "3"], 2, _NOT_TRIANGULAR),
        ({(1, 1): 1}, ["--n", "2", "--p", "3"], 2, _NOT_TRIANGULAR),
        # -(e (x) e): unitary, but its Markov element -e is not grouplike
        ({(0, 0): -1}, ["--n", "2"], 3,
         {"kind": "invariant", "message": "the R-matrix has no grouplike Markov element"}),
        ({(0, 0): -1}, ["--n", "3"], 2, _NOT_TRIANGULAR),
        ({(0, 0): -1}, ["--n", "2", "--p", "3"], 2, _NOT_TRIANGULAR),
    ],
)
def test_cli_exterior_past_degree_two_needs_an_r_matrix(
    workdir, capsys, terms, argv, status, digest_or_error
):
    # The power sums past degree 2 are read from R's terms by the hexagon
    # identities, so a unitary R that fails ``verify_qt`` is refused at
    # n >= 3 or p >= 3 with exit 2.  At degree 2 the output is unchanged
    # (the digests are those of the long cycles formed as products); the
    # refusals at degree 3 were exit 0 for g (x) g and exit 3 for -(e (x) e).
    _write(workdir / "r.json", jsonio.tensor_to_json(GATensor(bundled_group("Z2"), 2, terms)))
    assert main(["exterior", "--rmatrix", "r.json", *argv]) == status
    out = capsys.readouterr().out
    if isinstance(digest_or_error, str):
        assert hashlib.sha256(out.encode()).hexdigest() == digest_or_error
    else:
        assert json.loads(out)["error"] == digest_or_error


def test_cli_markov_from_tensor(workdir, capsys, monkeypatch):
    # u and its flipped form are multiplied out once each and handed to the
    # verifier; the third pass is mu(R), whose antipode is the guess for u^-1.
    _write(workdir / "ru.json", jsonio.tensor_to_json(golden_koszul()))
    passes = []
    multiply_out = rmatrix._multiply_out
    monkeypatch.setattr(rmatrix, "_multiply_out", lambda t: passes.append(t) or multiply_out(t))
    assert main(["markov", "--rmatrix", "ru.json"]) == 0
    assert len(passes) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["markov"] == doc["markov_flipped"]
    assert "value_equation" not in doc


def test_cli_selftest_surfaces_every_criterion(selftest):
    # The suite has one documented red criterion (number 3, see the
    # acceptance module docstring), so the exit status reflects a failure
    # while all other criteria must pass.  The run is the session's one
    # selftest, shared with the acceptance gate.
    status, doc = selftest
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
