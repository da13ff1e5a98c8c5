"""Only ``qtriang.cyclotomic`` handles the integer-row form by hand.

``GATensor``, ``Matrix`` and ``ClassFunction`` store one form: an order, a
denominator and integer coordinate rows.  Lifting rows to a multiple order
and reducing unreduced products modulo Phi_N are decisions of that form, so
they live in ``cyclotomic`` alone; every other module goes through its form
operations (``lift_rows``, ``common_form``, ``reduced_rows`` and the rest).
This test fails as soon as another module names one of the raw routines, by
import, attribute or plain name.
"""

import ast
import pathlib

import qtriang

RAW = {"embed_map", "lift", "_reduce_mod_cyclotomic"}
PACKAGE = pathlib.Path(qtriang.__file__).parent


def _names(path: pathlib.Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_only_cyclotomic_names_the_raw_row_routines():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1 and PACKAGE / "cyclotomic.py" in modules
    # The walker sees the routines where they are defined and used.
    assert RAW <= _names(PACKAGE / "cyclotomic.py")
    offenders = {
        path.name: sorted(RAW & _names(path))
        for path in modules
        if path.name != "cyclotomic.py" and RAW & _names(path)
    }
    assert offenders == {}
