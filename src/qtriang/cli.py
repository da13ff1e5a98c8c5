"""Command-line front end.

Commands map onto the library one-to-one: ``classify`` enumerates and
verifies structures on a group, ``verify`` re-checks a supplied element,
``markov`` extracts and validates the Markov element, ``adams`` and
``lambda`` apply the twisted operations to the bundled test characters,
``exterior`` compares braided exterior powers against the Newton
recursion (optionally with the cyclic-operation traces at a prime),
``koszul-twist`` builds the graded twist, and ``selftest`` runs the full
acceptance suite.

Exit status: 0 when every requested check passes, 1 on check failures,
2 on unreadable input or arguments, 3 on invariant violations.  Reports
are canonical JSON: identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import stat
import sys

from . import acceptance, jsonio
from .charring import (
    Braiding,
    adams_twisted,
    lambda_from_adams,
    standard_reps,
    _cyclic_value,
)
from .classify import COMPLETENESS_NOTE, DataCapError, enumerate_qt
from .cyclotomic import ORDER_CAP, root_of_unity
from .groups import CATALOG_NAMES
from .rmatrix import (
    DatumError,
    build_r,
    koszul_twist,
    markov_element,
    markov_element_flipped,
    verify_markov,
    verify_markov_equation,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_INVARIANT = 3

#: Largest degree ``lambda`` and ``exterior`` accept: their work grows with n.
DEGREE_CAP = 10_000


class InputError(Exception):
    """Unreadable or unparseable input."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ``InputError``; its subparsers are one too."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="qtriang",
        description="Exact R-matrix classification and twisted character operations "
        "on small finite group algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--group", help="bundled group name or path to a group JSON file")
        p.add_argument("--datum", help="path to a classification-datum JSON file")
        p.add_argument("--rmatrix", help="path to a tensor JSON file")
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("classify", help="enumerate and verify all structures on a group")
    add_common(p)
    p.add_argument("--triangular", action="store_true", help="unitary structures only")

    p = sub.add_parser("verify", help="run the full identity verifier on a tensor")
    add_common(p)

    p = sub.add_parser("markov", help="Markov element with its structural checks")
    add_common(p)

    p = sub.add_parser("adams", help="twisted Adams operation on the test characters")
    add_common(p)
    p.add_argument("--u", type=int, default=None, help="central involution (element index)")
    p.add_argument("--n", type=int, default=1, help="operation degree")

    p = sub.add_parser("lambda", help="twisted exterior-power operation on the test characters")
    add_common(p)
    p.add_argument("--u", type=int, default=None, help="central involution (element index)")
    p.add_argument("--n", type=int, default=1, help="operation degree")

    p = sub.add_parser("exterior", help="braided exterior powers against the Newton recursion")
    add_common(p)
    p.add_argument("--n", type=int, default=2, help="exterior power degree")
    p.add_argument("--p", type=int, default=None, help="also run cyclic operations at this prime")
    p.add_argument("--eps", type=int, default=1, help="exponent k of the root zeta_p^k")

    p = sub.add_parser("koszul-twist", help="graded twist of a triangular datum")
    add_common(p)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    add_common(p)

    return parser


# What a jsonio reader raises on a document of the wrong shape: a missing
# key, a value of the wrong type or out of range, or a zero denominator.
_MALFORMED = (KeyError, TypeError, AttributeError, ZeroDivisionError, jsonio.MalformedDocument)


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path} does not hold a JSON object")
    return doc


def _resolve_group(args, fallback_name: str | None = None):
    if args.group:
        try:
            return jsonio.resolve_group(args.group)
        except (OSError, json.JSONDecodeError, *_MALFORMED) as exc:
            raise InputError(f"cannot load group {args.group!r}: {exc}") from exc
    if fallback_name and fallback_name in CATALOG_NAMES:
        return jsonio.resolve_group(fallback_name)
    raise InputError("no --group given and the input does not name a bundled group")


def _read(args, path: str, reader):
    """The value a jsonio reader builds from the document at ``path``, and its group."""
    doc = _load_json(path)
    group = _resolve_group(args, doc.get("group"))
    try:
        return reader(doc, group), group
    except _MALFORMED as exc:
        raise InputError(f"{path} is malformed: {type(exc).__name__}: {exc}") from exc


def _load_rmatrix(args):
    if args.rmatrix:
        tensor, group = _read(args, args.rmatrix, jsonio.tensor_from_json)
        return tensor, group, None
    if args.datum:
        datum, group = _read(args, args.datum, jsonio.datum_from_json)
        return build_r(datum), group, datum
    raise InputError("either --rmatrix or --datum is required")


def _cmd_classify(args):
    group = _resolve_group(args)
    catalog = enumerate_qt(group)
    catalog = catalog.triangular if args.triangular else catalog
    # A dedup class's members store one element bit-identically and share its
    # checks, so its part of each entry is built once and the same objects
    # are referenced by every member: canonical_dumps encodes them at their
    # first and second meetings and reuses the text after.
    entries = [None] * len(catalog)
    for cls, members in enumerate(catalog.dedup):
        structure = catalog.structures[members[0]]
        shared = {
            "rmatrix": jsonio.tensor_to_json(structure.rmatrix),
            "verification": jsonio.report_to_json(structure.report),
            "markov": jsonio.tensor_to_json(structure.markov),
            "unitary": structure.unitary,
            "dedup_class": cls,
        }
        for idx in members:
            datum = catalog.data[idx]
            entries[idx] = {
                "datum": jsonio.datum_to_json(datum),
                "triangular": datum.triangular,
                **shared,
            }
    doc = {
        "command": "classify",
        "group": group.name,
        "note": COMPLETENESS_NOTE,
        "triangular_only": bool(args.triangular),
        "entries": entries,
        "dedup_classes": catalog.dedup,
        "counts": {
            "data": len(catalog),
            "distinct": len(catalog.dedup),
            "unitary": sum(s.unitary for s in catalog.structures),
        },
    }
    return doc, catalog.all_verified


def _cmd_verify(args):
    tensor, group, _ = _load_rmatrix(args)
    braiding = Braiding(tensor)
    report = braiding.report
    doc = {
        "command": "verify",
        "group": group.name,
        "rmatrix": jsonio.tensor_to_json(tensor),
        "verification": jsonio.report_to_json(report),
        "unitary": braiding.unitary if report.all_passed else None,
    }
    return doc, report.all_passed


def _cmd_markov(args):
    tensor, group, datum = _load_rmatrix(args)
    u, flipped = markov_element(tensor), markov_element_flipped(tensor)
    report = verify_markov(tensor, u, flipped)
    doc = {
        "command": "markov",
        "group": group.name,
        "markov": jsonio.tensor_to_json(u),
        "markov_flipped": jsonio.tensor_to_json(flipped),
        "verification": jsonio.report_to_json(report),
    }
    ok = report.all_passed
    if datum is not None and datum.triangular:
        value_eq = verify_markov_equation(datum, u)
        doc["value_equation"] = value_eq
        ok = ok and value_eq
    return doc, ok


def _check_degree(args) -> None:
    if args.n < 0:
        raise InputError("negative exterior powers are not defined")
    if args.n > DEGREE_CAP:
        raise InputError(f"--n {args.n} is past the degree cap {DEGREE_CAP}")


def _check_prime(args) -> None:
    p = args.p
    if p is not None and not (1 < p <= ORDER_CAP and all(p % q for q in range(2, p))):
        raise InputError(f"--p {p} is not a prime at most {ORDER_CAP}")


def _character_table(args, operation):
    """The report of ``operation(character, u, n)`` on each test character."""
    group = _resolve_group(args)
    u = group.identity if args.u is None else args.u
    if u not in group.central_involutions():
        raise InputError(f"element {u} is not a central involution of {group.name}")
    rows = []
    for rep in standard_reps(group):
        out = operation(rep.character(), u, args.n)
        rows.append({"character": rep.name, "result": jsonio.class_function_to_json(out)})
    doc = {"command": args.command, "group": group.name, "u": u, "n": args.n, "results": rows}
    return doc, True


def _cmd_adams(args):
    return _character_table(args, adams_twisted)


def _cmd_lambda(args):
    _check_degree(args)
    return _character_table(args, lambda x, u, n: lambda_from_adams(x, n, u))


def _cmd_exterior(args):
    _check_degree(args)
    _check_prime(args)
    tensor, group, _ = _load_rmatrix(args)
    braiding = Braiding(tensor)
    # From degree 3 on the power sums are read from R's terms by the hexagon identities.
    if not braiding.unitary or (max(args.n, args.p or 0) >= 3 and not braiding.report.all_passed):
        raise InputError("exterior needs a triangular R-matrix")
    u, u_idx = braiding.markov, braiding.markov_index
    rows, ok = [], True
    for rep in standard_reps(group):
        ext = braiding.exterior_power_char(rep, args.n)
        newton = lambda_from_adams(rep.character(), args.n, u_idx)
        match = ext == newton
        ok = ok and match
        row = {
            "representation": rep.name,
            "character": jsonio.class_function_to_json(ext),
            "matches_newton_recursion": match,
        }
        if args.p is not None:
            eps = root_of_unity(args.p, args.eps)
            table = braiding.long_cycle_traces(rep, args.p)
            row["cyclic_traces"] = {
                str(z): jsonio.scalar_to_json(_cyclic_value(traces, eps))
                for z, traces in sorted(table.items())
            }
        rows.append(row)
    doc = {
        "command": "exterior",
        "group": group.name,
        "n": args.n,
        "markov": jsonio.tensor_to_json(u),
        "results": rows,
    }
    return doc, ok


def _cmd_koszul_twist(args):
    if not args.datum:
        raise InputError("koszul-twist needs --datum")
    datum, group = _read(args, args.datum, jsonio.datum_from_json)
    r = build_r(datum)
    twist = koszul_twist(datum, r, markov_element(r))
    doc = {
        "command": "koszul-twist",
        "group": group.name,
        "datum": jsonio.datum_to_json(datum),
        "twist": jsonio.tensor_to_json(twist.twist),
        "gamma": [list(row) for row in twist.gamma.matrix],
        "beta_u": [list(row) for row in twist.beta_u.matrix],
        "base_rmatrix": jsonio.tensor_to_json(twist.base),
        "verification": jsonio.report_to_json(twist.report),
    }
    return doc, twist.all_passed


def _cmd_selftest(args):
    results = acceptance.run_all(emit=lambda line: print(line, file=sys.stderr))
    doc = {
        "command": "selftest",
        "criteria": [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "details": r.details,
                "seconds": round(r.seconds, 3),
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    return doc, doc["all_passed"]


_COMMANDS = {
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "markov": _cmd_markov,
    "adams": _cmd_adams,
    "lambda": _cmd_lambda,
    "exterior": _cmd_exterior,
    "koszul-twist": _cmd_koszul_twist,
    "selftest": _cmd_selftest,
}


def _emit(doc, args) -> None:
    """Write ``doc``'s canonical text to ``--out``, or to stdout without one.

    The encoder's fragments go straight to the handle.  ``--out`` is
    overwritten in place, not atomically: it is opened without ``O_TRUNC``
    and cut to the new length after the last write, because on ext4
    (``auto_da_alloc``) truncating a file and writing it again makes
    ``close`` write the whole file back to storage: ``/proc/self/io`` reads
    1,536,000 ``write_bytes`` per rewrite of Z2xZ2's 1,535,586-byte report,
    and 0 per rewrite in place while the last one's pages are not yet
    written back.  Only a regular file is cut: /dev/null, a FIFO or
    /dev/stdout refuses ``ftruncate``.  A write that fails part-way leaves a
    regular file empty, not a new head followed by the old report's tail.
    """
    path = getattr(args, "out", None)
    if not path:
        jsonio.canonical_dumps(doc, sys.stdout.writelines)
        return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    regular = False
    try:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        # The handle is closed, dropping any unwritten buffer, before the fd
        # is cut on a failure.
        with open(fd, "w", closefd=False) as handle:
            jsonio.canonical_dumps(doc, handle.writelines)
            if regular:
                handle.truncate()
    except OSError:
        if regular:
            with contextlib.suppress(OSError):
                os.ftruncate(fd, 0)
        raise
    finally:
        os.close(fd)


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        doc, ok = _COMMANDS[args.command](args)
        status = EXIT_OK if ok else EXIT_CHECK_FAILED
    except (InputError, DataCapError) as exc:
        doc, status = {"error": {"kind": "input", "message": str(exc)}}, EXIT_PARSE_ERROR
    except (DatumError, ValueError) as exc:
        doc, status = {"error": {"kind": "invariant", "message": str(exc)}}, EXIT_INVARIANT
    try:
        _emit(doc, args)
    except OSError as exc:
        # The --out path is what failed, so the error goes to stdout.
        error = {"error": {"kind": "input", "message": f"cannot write {args.out}: {exc}"}}
        sys.stdout.write(jsonio.canonical_dumps(error))
        return EXIT_PARSE_ERROR
    return status


if __name__ == "__main__":
    sys.exit(main())
