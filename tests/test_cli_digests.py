"""Byte-for-byte pins of the CLI reports that ``perfbench/golden.json`` does not cover.

Each digest is the sha256 of one (command, group) run: the exit status and
the exact report of every request in it, in a fixed order.

- ``exterior``: every triangular datum of the group's catalog, at
  ``--n 2 --p 2``, ``--n 3 --p 3`` and ``--n 4``;
- ``exterior-n7-p5``: the same data at ``--n 7 --p 5``, where d^7 passes
  4096 on the regular reps of order 4 and up;
- ``classify --triangular``;
- ``adams`` and ``lambda``: every central involution at n = 0, 1, 5 and 6
  (the golden records hold n = 2, 3 and 4).

A digest names no value, so a failure says only which (command, group)
changed.  To find what changed, run the requests of that pair on both
sides and diff the reports.  After an intended output change, print the
new table with

    PYTHONPATH=src python tests/test_cli_digests.py

and paste it over ``DIGESTS``; say in CHANGES.md which outputs changed and
why.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from qtriang import jsonio
from qtriang.acceptance import triangular_catalog
from qtriang.cli import main
from qtriang.groups import CATALOG_NAMES, bundled_group

COMMANDS = ("exterior", "exterior-n7-p5", "classify-triangular", "adams", "lambda")
EXTERIOR_DEGREES = {
    "exterior": (["--n", "2", "--p", "2"], ["--n", "3", "--p", "3"], ["--n", "4"]),
    "exterior-n7-p5": (["--n", "7", "--p", "5"],),
}
CHARACTER_DEGREES = (0, 1, 5, 6)

DIGESTS = {
    ("exterior", "Z2"): "e1cadebfbb3bfc5d3a048652fa20815e61977a6287fee7d6f03cc575df58443c",
    ("exterior", "Z3"): "a59111fa5fcf29149cb34836de0790778715c23c142d0d7c98a4f0687a9c63c2",
    ("exterior", "Z4"): "8e0a144cbda127bd9a0c479e88e848c52a88be34b2672e8a6ba12f09ad293b2d",
    ("exterior", "Z2xZ2"): "f0242cdeecb1c3bb2e479888767dafa2eabd565f92d971dba9c01ff1b938f4d6",
    ("exterior", "S3"): "32383f3ba4a6800228543672e60d4df5dd5207665babaa7c6dae4607daa9bf38",
    ("exterior", "D4"): "ea015fb7a7d282ac1039de14e016423842fcb95329f6558a04db96ac002214ec",
    ("exterior", "Q8"): "9e6609887355926ae09256e50a82b924c5500efacda3d76ae76a45161b5ef248",
    ("exterior-n7-p5", "Z2"): "50c1597c060c3eae416b5ae7b4ab0abf6e305b270190ee0e755f561e6a671da6",
    ("exterior-n7-p5", "Z3"): "53856b76cd8af307b9b6f34d768f9bcf7079a45f9d283532f6d0d43fd9a1f238",
    ("exterior-n7-p5", "Z4"): "e04cf1339526fc938ffeb5d31df235bca64acc5b739ccf1258e295bb41d526c8",
    ("exterior-n7-p5", "Z2xZ2"): "b4d0aed31c1386461731dd6909f97ba2fc8c17fe9d718e6f07b71e799832a10f",
    ("exterior-n7-p5", "S3"): "430b1d4ba5ae3c7942fc2f09f2c314b5ffb05a497a131d20694ba22214669fc8",
    ("exterior-n7-p5", "D4"): "1639d9840a7cbd2e537f2c20e13084069d6fe9461d89e564cef87ec8d28007d2",
    ("exterior-n7-p5", "Q8"): "0d02d2294fd55bee168f46c6729ca00d06914a271a62d039cf1157becc6e319c",
    ("classify-triangular", "Z2"): "1577c222e9e7342cba477780817fea76f08aaa2e81b650dde3e138b7cc4ce379",
    ("classify-triangular", "Z3"): "24108e0bad83e993fcbf03ae10a1588e63e2f3554a2ce2ed86dc925101672a74",
    ("classify-triangular", "Z4"): "0b55b2325434d5940eea052c865e27dc5eb388303b6cec83ead0977d2b06e75f",
    ("classify-triangular", "Z2xZ2"): "446ef5b3b7d1ed485007c75e8157436ccce51dba1180b2915f047dad2bcbd774",
    ("classify-triangular", "S3"): "2df858bc89b4f00387fa3d9905c07baf84da1f175f6d80f632cb17ab5e07ba17",
    ("classify-triangular", "D4"): "36278a7e31997e47f6c788e4c893e6966119dbcaccd4db8f9c00abc763bfcf0f",
    ("classify-triangular", "Q8"): "7fb77c17d35e2c67347bb0f3676b2d5b03efcc1ca6d9abbe6453eb903cef04b9",
    ("adams", "Z2"): "60751b9293993f5504761bf5f7418c6a9a49dbd3ffd998fe49320f707fdeee46",
    ("adams", "Z3"): "16d2ed776fef8c15b3cfcc5b5b7798e14389e4a7f2b48cfd7f894fa7fb8a5ac9",
    ("adams", "Z4"): "27a5d7c429cd8f67432cd3dcec219f369ffb4466d5c87d31dc955d6393144bf3",
    ("adams", "Z2xZ2"): "414eb671e825b6e4b13db65a575a4eb74b5410721538a781b0fd145b7255f32e",
    ("adams", "S3"): "1fcae499fccd88fb2985019b4cff04dd656fe24ac9ead9e28c99aa458a6423b5",
    ("adams", "D4"): "8ce8f54053d291f059e0ab10dbab5eaf3ed92a3fcc08ff1a8d11fc894b021439",
    ("adams", "Q8"): "0f4f90c139c0ef794299bc37a032598b1ea1b89e815ab95efbc79b7e35fa66e4",
    ("lambda", "Z2"): "871cd646af6187d8d6bbe4f0d1cbf4f8e20d673b9c5650d8829abf406fcf1ab1",
    ("lambda", "Z3"): "5b0f1702ad9ea12aff1bc200509cc41607f40c6b7448ceee13e49823c96e0fc0",
    ("lambda", "Z4"): "528f077c261efeea306735568475e58cf392349140bcec86336b9876083be8a5",
    ("lambda", "Z2xZ2"): "0293fd051aa9f6a068909cb5eb87262756a60f3ee7c4de40d6c430a70bcdc322",
    ("lambda", "S3"): "c6a31f1c6af2526387e43adf75353f7707fe6125003b3442f5418dd5f819901e",
    ("lambda", "D4"): "b553e08136b7c59e784144ec6db2aef8c56cd485dd67ad930d6183bbb6baa818",
    ("lambda", "Q8"): "f245e1b5528b64686c20de696b74b313e255884a5a0f3f0fe3c4e2a737a03fda",
}


def _requests(command: str, name: str, workdir: str):
    """The argv lists of one (command, group) run, in digest order."""
    if command == "classify-triangular":
        yield ["classify", "--group", name, "--triangular"]
    elif command in EXTERIOR_DEGREES:
        for k, datum in enumerate(triangular_catalog(name).data):
            path = os.path.join(workdir, f"{name}-{k}.json")
            with open(path, "w") as handle:
                json.dump(jsonio.datum_to_json(datum), handle)
            for degree in EXTERIOR_DEGREES[command]:
                yield ["exterior", "--datum", path, *degree]
    else:
        for u in bundled_group(name).central_involutions():
            for n in CHARACTER_DEGREES:
                yield [command, "--group", name, "--u", str(u), "--n", str(n)]


def digest(command: str, name: str, workdir: str) -> str:
    h = hashlib.sha256()
    for argv in _requests(command, name, workdir):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(argv)
        h.update(f"{status}\n{out.getvalue()}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_cli_report_digest(command, name, tmp_path):
    assert digest(command, name, str(tmp_path)) == DIGESTS[command, name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        print("DIGESTS = {")
        for command in COMMANDS:
            for name in CATALOG_NAMES:
                print(f'    ("{command}", "{name}"): "{digest(command, name, workdir)}",')
        print("}")
