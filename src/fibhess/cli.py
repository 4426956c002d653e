"""Command-line front end.

Subcommands: ``gen`` (one polynomial by a chosen route), ``family``
(named specializations), ``check`` (the five-way agreement grid), and
``matrix`` (print a built matrix).  The user-facing index n always means
the n-th sequence term; matrix routes build the (n-1) x (n-1) matrix
internally so every method answers the same question.

The ``gen`` methods and their dispatch come from ``sequences.ROUTES``.

Exit codes: 0 success / all checks passed, 1 check failure, 2 usage
error, 3 brute-force oracle budget exceeded.  Each command checks its
arguments before it computes anything and raises ``UsageError`` for a bad
one; only that and ``BudgetExceeded`` become exit codes, so any other
exception is a bug and surfaces with its traceback.  When stdout is a pipe
that the reader closes early, the process ends by SIGPIPE, as cat does.

JSON coefficients are decimal strings: they outgrow 64-bit integers
quickly as n increases.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import Callable

from .evaluators import BudgetExceeded
from .matrices import HessenbergMatrix, build_h, build_k, build_m, build_w
from .ring import BivarPoly
from .sequences import ROUTES, cross_check, family_value, get_family

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


def poly_terms_json(poly: BivarPoly) -> list[dict[str, object]]:
    return [
        {"xexp": xe, "yexp": ye, "re": str(c.re), "im": str(c.im)}
        for (xe, ye), c in poly.terms()
    ]


def poly_from_terms_json(terms: list[dict]) -> BivarPoly:
    """Rebuild a polynomial from the JSON term-list encoding."""
    from .ring import GaussianInt

    return BivarPoly(
        {
            (int(t["xexp"]), int(t["yexp"])): GaussianInt(int(t["re"]), int(t["im"]))
            for t in terms
        }
    )


def _emit_poly(poly: BivarPoly, fmt: str, record: dict[str, object]) -> None:
    if fmt == "json":
        record["poly"] = poly_terms_json(poly)
        print(json.dumps(record))
    else:
        print(poly)


def _cmd_gen(args) -> int:
    _require_at_least("--p", args.p, 1)
    if args.method == "recurrence":
        _require_at_least("--n", args.n, 0)
    else:  # the other routes evaluate the order n-1 matrix
        _require_at_least(f"--n with --method {args.method}", args.n, 1)
    poly = ROUTES[args.method](args.p, args.n)
    _emit_poly(poly, args.format, {"p": args.p, "n": args.n, "method": args.method})
    return EXIT_OK


def _cmd_family(args) -> int:
    try:
        spec = get_family(args.name)
    except KeyError as exc:
        raise UsageError(str(exc)) from None
    if spec.p is None:
        if args.p is None:
            raise UsageError(f"family {spec.name!r} needs --p")
        _require_at_least("--p", args.p, 1)
    _require_at_least("--n", args.n, 0)
    poly = family_value(spec, args.n, p=args.p)
    _emit_poly(
        poly,
        args.format,
        {
            "family": spec.name,
            "p": spec.p if spec.p is not None else args.p,
            "n": args.n,
        },
    )
    return EXIT_OK


def _cmd_check(args) -> int:
    _require_at_least("--p-max", args.p_max, 1)
    _require_at_least("--n-max", args.n_max, 1)
    total = 0
    passed = 0
    first_failure = None
    for p in range(1, args.p_max + 1):
        for n in range(1, args.n_max + 1):
            report = cross_check(p, n)
            total += 1
            if report.all_equal:
                passed += 1
            elif first_failure is None:
                first_failure = report
            if args.format == "json":
                print(
                    json.dumps(
                        {
                            "p": report.p,
                            "n": report.n,
                            "all_equal": report.all_equal,
                            "first_mismatch": list(report.first_mismatch)
                            if report.first_mismatch
                            else None,
                            "values": {
                                route: poly_terms_json(poly)
                                for route, poly in report.values.items()
                            },
                        }
                    )
                )
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
