"""Command-line front end.

Subcommands: ``gen`` (one polynomial by a chosen route), ``family``
(named specializations), ``check`` (the five-way agreement grid), and
``matrix`` (print a built matrix).  The user-facing index n always means
the n-th sequence term; matrix routes give the det or per of the
(n-1) x (n-1) matrix, so every method answers the same question.

The ``gen`` methods and their dispatch come from ``sequences.ROUTES``.
``check`` takes each p's row of cells from ``sequences.cross_check_prefix``,
one pass of the recurrence and one of each distinct matrix plan up to
--n-max, and prints each cell as it comes, so a P x N grid costs about
what P cells at n = N cost, and no row is held in memory.  With
``--format json`` each distinct value of a cell is rendered once, from its
term map: when the report finds the five routes equal, the recurrence's
term list is the text of all five, and in a failing cell the routes that
share one value share its text.

Every command writes its JSON records itself, as the text ``json.dumps``
gives them in its default form, one record per line.  A record holds only
ints, decimal strings, true, false, null and names that are plain ASCII
words (route and family names), so nothing in it needs escaping, and the
CLI never imports ``json``.

Exit codes: 0 success / all checks passed, 1 check failure, 2 usage
error, 3 brute-force oracle budget exceeded.  Each command checks its
arguments before it computes anything and raises ``UsageError`` for a bad
one; only that and ``BudgetExceeded`` become exit codes, so any other
exception is a bug and surfaces with its traceback.  When stdout is a pipe
that the reader closes early, the process ends by SIGPIPE, as cat does.

JSON coefficients are decimal strings: they outgrow 64-bit integers
quickly as n increases.  ``main`` lifts CPython's limit on converting huge
ints to and from decimal text (4300 digits by default; G(1, n) passes it
near n = 20600) and restores it afterwards.
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
from collections.abc import Callable

from .evaluators import BudgetExceeded
from .matrices import HessenbergMatrix, build_h, build_k, build_m, build_w
from .ring import BivarPoly
from .sequences import ROUTES, CrossCheckReport, cross_check_prefix, family_value, get_family

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_BUILDERS: dict[str, Callable[[int, int], HessenbergMatrix]] = {
    "w": build_w,
    "m": build_m,
    "h": build_h,
    "k": build_k,
}

class UsageError(Exception):
    pass


def _require_at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise UsageError(f"{flag} must be >= {least}, got {value}")


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the interpreter's int <-> decimal str digit limit, if it has
    one (CPython 3.10.7 and later), and restore the old limit on exit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _poly_terms_json(poly: BivarPoly) -> str:
    """The JSON text of ``poly``'s term list, in ``json.dumps``'s default
    form, written straight from ``term_parts()``: every value in it is an
    int or a decimal string, so none needs escaping.  Like ``str()``, it
    needs the int digit limit lifted for a coefficient of more than 4300
    digits, as ``main`` does."""
    terms = ", ".join([
        f'{{"xexp": {xe}, "yexp": {ye}, "re": "{re}", "im": "{im}"}}'
        for xe, ye, re, im in poly.term_parts()
    ])
    return f"[{terms}]"


def _emit_poly(poly: BivarPoly, fmt: str, head: str) -> None:
    """Print ``poly`` as text, or as the JSON record of the fields in
    ``head`` followed by its terms."""
    if fmt == "json":
        print(f'{{{head}, "poly": {_poly_terms_json(poly)}}}')
    else:
        print(poly)


def _cmd_gen(args) -> int:
    _require_at_least("--p", args.p, 1)
    if args.method == "recurrence":
        _require_at_least("--n", args.n, 0)
    else:  # the other routes evaluate the order n-1 matrix
        _require_at_least(f"--n with --method {args.method}", args.n, 1)
    poly = ROUTES[args.method](args.p, args.n)
    # a method is a ROUTES key, a plain ASCII word, so quoting it is its JSON text
    _emit_poly(poly, args.format, f'"p": {args.p}, "n": {args.n}, "method": "{args.method}"')
    return EXIT_OK


def _cmd_family(args) -> int:
    try:
        spec = get_family(args.name)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None
    if args.p is not None:
        _require_at_least("--p", args.p, 1)
    elif spec.p is None:
        raise UsageError(f"family {spec.name!r} needs --p")
    _require_at_least("--n", args.n, 0)
    poly = family_value(spec, args.n, p=args.p)
    p = spec.p if spec.p is not None else args.p
    # a name that get_family accepts is a FAMILIES key, a plain ASCII word
    _emit_poly(poly, args.format, f'"family": "{spec.name}", "p": {p}, "n": {args.n}')
    return EXIT_OK


def _report_json(report: CrossCheckReport) -> str:
    """One cell's JSON line: the text ``json.dumps`` gives for the record of
    its p, n, verdict and each route's terms.  Each distinct value is
    rendered once: when the routes agree, the recurrence's text stands for
    all five, and in a failing cell the routes that share one value, as a
    plan group does, share its text."""
    texts: dict[int | None, str] = {}
    body = []
    for route, poly in report.values.items():
        key = None if report.all_equal else id(poly)
        if key not in texts:
            texts[key] = _poly_terms_json(poly)
        # route names are plain ASCII words, so quoting one is its JSON text
        body.append(f'"{route}": {texts[key]}')
    pair = report.first_mismatch
    mismatch = f'["{pair[0]}", "{pair[1]}"]' if pair else "null"
    verdict = "true" if report.all_equal else "false"
    return (
        f'{{"p": {report.p}, "n": {report.n}, "all_equal": {verdict}, '
        f'"first_mismatch": {mismatch}, "values": {{{", ".join(body)}}}}}'
    )


def _cmd_check(args) -> int:
    _require_at_least("--p-max", args.p_max, 1)
    _require_at_least("--n-max", args.n_max, 1)
    total = 0
    passed = 0
    first_failure = None
    for p in range(1, args.p_max + 1):
        for report in cross_check_prefix(p, args.n_max):
            total += 1
            if report.all_equal:
                passed += 1
            elif first_failure is None:
                first_failure = report
            if args.format == "json":
                print(_report_json(report))
    if args.format != "json":
        noun = "check" if total == 1 else "checks"
        print(f"{total} {noun}, {passed} passed")
        if first_failure is not None:
            a, b = first_failure.first_mismatch
            print(
                f"FAIL at p={first_failure.p}, n={first_failure.n}: "
                f"{a} != {b}",
                file=sys.stderr,
            )
    return EXIT_OK if first_failure is None else EXIT_CHECK_FAILED


def _cmd_matrix(args) -> int:
    _require_at_least("--p", args.p, 1)
    _require_at_least("--order", args.order, 1)
    builder = _BUILDERS[args.kind]
    print(builder(args.p, args.order))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibhess",
        description="Exact bivariate Fibonacci-type polynomials via "
        "recurrence and Hessenberg determinant/permanent routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="compute one sequence term by a chosen route")
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--method", choices=ROUTES, default="recurrence")
    gen.add_argument("--format", choices=("text", "json"), default="text")
    gen.set_defaults(func=_cmd_gen)

    fam = sub.add_parser("family", help="compute a named specialization")
    fam.add_argument("--name", required=True)
    fam.add_argument("--n", type=int, required=True)
    fam.add_argument("--p", type=int, default=None)
    fam.add_argument("--format", choices=("text", "json"), default="text")
    fam.set_defaults(func=_cmd_family)

    chk = sub.add_parser("check", help="run the five-way agreement grid")
    chk.add_argument("--p-max", type=int, required=True)
    chk.add_argument("--n-max", type=int, required=True)
    chk.add_argument("--format", choices=("text", "json"), default="text")
    chk.set_defaults(func=_cmd_check)

    mat = sub.add_parser("matrix", help="print one of the four matrices")
    mat.add_argument("--kind", choices=sorted(_BUILDERS), required=True)
    mat.add_argument("--p", type=int, required=True)
    mat.add_argument("--order", type=int, required=True)
    mat.set_defaults(func=_cmd_matrix)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize other codes too.
        return int(exc.code) if exc.code else EXIT_OK
    try:
        with _unlimited_int_digits():
            return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    # Restore the default SIGPIPE action (Python ignores it), so that a
    # reader closing the pipe early (``fibhess check | head``) ends the
    # process quietly instead of raising BrokenPipeError.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
