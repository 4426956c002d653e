"""The bivariate polynomial sequence, its integer shadow, specializations,
and the five-way cross-check.

The sequence G(p, n) is defined by G(p, 0) = 0, G(p, n) = x^(n-1) for
1 <= n <= p + 1, and G(p, n) = x*G(p, n-1) + y*G(p, n-p-1) afterwards.
Four matrix routes recover G(p, n+1) as det(W), det(M), per(H), per(K) of
the order-n matrices.  ``ROUTES`` maps every route name, the two
brute-force oracles included, to a function of (p, n) that returns
G(p, n); cross_check runs the five fast routes and compares each with the
recurrence exactly.

Named specializations substitute fixed polynomials for x and y (and
optionally shift the index) to recover classical families: Fibonacci,
Pell, Jacobsthal, and second-kind Chebyshev.  Substitution is a ring
homomorphism, so a family runs the recurrence on the substituted seeds
instead of substituting into the bivariate G.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterator

from .evaluators import det_hessenberg, det_oracle, per_hessenberg, per_oracle
from .matrices import build_h, build_k, build_m, build_w
from .ring import ONE, X, Y, ZERO, BivarPoly, sum_of_products


def _check_args(p: int, n: int, n_min: int = 0) -> None:
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if n < n_min:
        raise ValueError(f"n must be >= {n_min}, got {n}")


def _recurrence(p: int, n: int, step: Callable[[Any, Any], Any], zero, one) -> Iterator:
    """Yield terms 0..n of the recurrence G(k) = step(G(k-1), G(k-p-1)),
    with G(1) = ``one`` and G(k) = ``zero`` for k <= 0, in the ring of
    ``zero`` and ``one`` (``BivarPoly``, or int for fib_p_number).  Terms
    2..p+1 need no branch of their own: their G(k-p-1) is zero.  The
    arguments are not checked.  Only the last p+1 terms are held, so taking
    just the n-th keeps memory O(p) terms."""
    window = deque([zero] * p + [one], maxlen=p + 1)  # G(k-p-1) .. G(k-1)
    yield from islice((zero, one), n + 1)
    for _ in range(2, n + 1):
        window.append(step(window[-1], window[0]))
        yield window[-1]


def _poly_recurrence(p: int, n: int, x: BivarPoly, y: BivarPoly) -> Iterator[BivarPoly]:
    """Terms 0..n of G with ``x`` and ``y`` in place of the two variables;
    each step x*G(k-1) + y*G(k-p-1) is one multiply-accumulate."""
    return _recurrence(
        p, n, lambda last, back: sum_of_products(((x, last), (y, back))), ZERO, ONE
    )


def _last(terms: Iterator):
    return deque(terms, maxlen=1)[0]


def f_poly(p: int, n: int) -> BivarPoly:
    """n-th term of the coefficiented recurrence for parameter p."""
    _check_args(p, n)
    return _last(_poly_recurrence(p, n, X, Y))


def f_poly_prefix(p: int, n: int) -> list[BivarPoly]:
    """Terms 0..n as a list."""
    _check_args(p, n)
    return list(_poly_recurrence(p, n, X, Y))


def fib_p_number(p: int, n: int) -> int:
    """Integer sequence with p+1 leading ones, a(n) = a(n-1) + a(n-p-1):
    the recurrence at x = y = 1."""
    _check_args(p, n, n_min=1)
    return _last(_recurrence(p, n, operator.add, 0, 1))


@dataclass(frozen=True)
class FamilySpec:
    """A named specialization: substitutions for x and y, a fixed p or
    None for p-parameterized rows, and an index shift so that
    family(n) = substitute(G(p, n + index_offset))."""

    name: str
    xsub: BivarPoly
    ysub: BivarPoly
    p: int | None
    index_offset: int = 0


_TWO_X = X.scale(2)
_TWO_Y = Y.scale(2)

FAMILIES: dict[str, FamilySpec] = {
    spec.name: spec
    for spec in (
        FamilySpec("fibonacci-bivariate", X, Y, 1),
        FamilySpec("fibonacci-p-poly", X, ONE, None),
        FamilySpec("fibonacci-poly", X, ONE, 1),
        FamilySpec("fibonacci-p-numbers", ONE, ONE, None),
        FamilySpec("fibonacci-numbers", ONE, ONE, 1),
        FamilySpec("pell-bivariate-p", _TWO_X, Y, None),
        FamilySpec("pell-bivariate", _TWO_X, Y, 1),
        FamilySpec("pell-p-poly", _TWO_X, ONE, None),
        FamilySpec("pell-poly", _TWO_X, ONE, 1),
        FamilySpec("pell-numbers", BivarPoly.constant(2), ONE, 1),
        FamilySpec("chebyshev-U", _TWO_X, -ONE, 1, index_offset=1),
        FamilySpec("jacobsthal-bivariate-p", X, _TWO_Y, None),
        FamilySpec("jacobsthal-bivariate", X, _TWO_Y, 1),
        FamilySpec("jacobsthal-poly", ONE, _TWO_Y, 1),
        FamilySpec("jacobsthal-numbers", ONE, BivarPoly.constant(2), 1),
    )
}


def family_value(spec: FamilySpec, n: int, p: int | None = None) -> BivarPoly:
    """n-th member of a specialization family.

    ``p`` is required for p-parameterized families and ignored otherwise.
    """
    if spec.p is not None:
        eff_p = spec.p
    elif p is not None:
        eff_p = p
    else:
        raise ValueError(f"family {spec.name!r} needs an explicit p")
    _check_args(eff_p, n)
    return _last(_poly_recurrence(eff_p, n + spec.index_offset, spec.xsub, spec.ysub))


def get_family(name: str) -> FamilySpec:
    try:
        return FAMILIES[name]
    except KeyError:
        available = ", ".join(sorted(FAMILIES))
        raise KeyError(f"unknown family {name!r}; available: {available}") from None


@dataclass(frozen=True)
class CrossCheckReport:
    """The five route values for one (p, n) and their agreement verdict."""

    p: int
    n: int
    values: dict[str, BivarPoly]
    all_equal: bool
    first_mismatch: tuple[str, str] | None


_Route = Callable[[int, int], BivarPoly]


def _on_matrix(evaluate: _Route) -> _Route:
    """A route to G(p, n) through ``evaluate`` of the order-(n-1) matrices;
    the empty order-0 matrix has det = per = 1 and needs no matrix object."""

    def route(p: int, n: int) -> BivarPoly:
        if n < 1:
            raise ValueError(f"matrix routes need n >= 1 (term 0 is 0), got {n}")
        _check_args(p, n)
        return ONE if n == 1 else evaluate(p, n - 1)

    return route


# Route name -> fn(p, n) returning G(p, n).  The lambdas look up the
# builders and evaluators in this module's globals at call time, so that a
# name rebound here (a patched builder, a traced evaluator) is used.
ROUTES: dict[str, _Route] = {
    "recurrence": lambda p, n: f_poly(p, n),
    "det-w": _on_matrix(lambda p, order: det_hessenberg(build_w(p, order))),
    "det-m": _on_matrix(lambda p, order: det_hessenberg(build_m(p, order))),
    "per-h": _on_matrix(lambda p, order: per_hessenberg(build_h(p, order))),
    "per-k": _on_matrix(lambda p, order: per_hessenberg(build_k(p, order))),
    "oracle-det-w": _on_matrix(lambda p, order: det_oracle(build_w(p, order))),
    "oracle-per-h": _on_matrix(lambda p, order: per_oracle(build_h(p, order))),
}
_FAST_ROUTES = tuple(name for name in ROUTES if not name.startswith("oracle-"))


def cross_check(p: int, n: int) -> CrossCheckReport:
    """Compare each of the four order-n matrix routes with the recurrence
    value G(p, n+1); structural equality is transitive, so that decides
    whether all five agree."""
    _check_args(p, n, n_min=1)
    values = {name: ROUTES[name](p, n + 1) for name in _FAST_ROUTES}
    differing = [name for name, value in values.items() if value != values["recurrence"]]
    first_mismatch = ("recurrence", differing[0]) if differing else None
    return CrossCheckReport(p, n, values, first_mismatch is None, first_mismatch)
