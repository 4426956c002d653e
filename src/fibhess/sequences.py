"""The bivariate polynomial sequence, its integer shadow, specializations,
and the five-way cross-check.

The sequence G(p, n) is defined by G(p, 0) = 0, G(p, n) = x^(n-1) for
1 <= n <= p + 1, and G(p, n) = x*G(p, n-1) + y*G(p, n-p-1) afterwards.
Four matrix routes recover G(p, n+1) as det(W), det(M), per(H), per(K) of
the order-n matrices.  ``ROUTES`` maps every route name, the two
brute-force oracles included, to a function of (p, n) that returns
G(p, n); cross_check runs the five fast routes and compares each with the
recurrence exactly.

A fast route is its stream, ``ROUTES[name].prefix(p, n)``: the kernel it
runs on and the raw values of G(p, 1..n) from one pass, the recurrence's
terms or the leading minors of orders 0..n-1 of one order-n matrix (whose
leading k x k block is the order-k matrix; the stream stops before it
computes order n).  Calling the route gives G(p, n), the stream's last
value, the only one it converts to ``BivarPoly``; G(p, 0) = 0 is the value
of the recurrence's empty stream, and ``f_poly`` is the recurrence route.
``cross_check_prefix(p, n)`` walks the five streams in lockstep and yields
``cross_check(p, k)`` for k = 1..n, converting only each cell's own values
to ``BivarPoly``; the CLI grid runs on it.  The oracle routes stay
single-valued, and hold the order to their oracle's cap before they build
a matrix.

Named specializations put c or c*x in place of x and c or c*y in place of
y, for a Gaussian integer c (and optionally shift the index), to recover
classical families: Fibonacci, Pell, Jacobsthal, and second-kind
Chebyshev.  Substitution is a ring homomorphism and G(p, m) is graded, so
a family reads G's coefficients from its closed form,
sum_j C(m-1-p*j, j) * x^(m-1-(p+1)*j) * y^j, one ``math.comb`` or one
exact binomial ratio each, and scales each coefficient once: the
coefficient of x^(d-w*j)*y^j takes cx^(d-w*j)*cy^j.  With a variable
seed, distinct j stay distinct monomials; with two constants, every term
lands on 1 and they add up to one coefficient, and ``fib_p_number``
(cx = cy = 1) is the plain sum of G's coefficients.

At two constants, G(p, m) is also a scalar linear recurrence of order
p + 1, so it is the t^p coefficient of t^(m-1+p) mod
t^(p+1) - cx*t^p - cy, O(log m) squarings of p + 1 Gaussian ``(re, im)``
pairs.  One rule, ``_power_wins``, takes that power only where its
products number at most m, and so never where m <= p + 1; elsewhere the
folded closed form, summed, serves.  ``_at_constants`` is the one place
that rule is applied: a family with two constants and ``fib_p_number``
both take G from it, and a family with a variable seed folds the closed
form.

The recurrence route runs G's recurrence on the ring's graded kernel
(G(p, k) is weighted-homogeneous of degree k - 1 when y has weight p + 1)
and converts only its results to ``BivarPoly``; ``f_poly`` is that
route's value and ``f_poly_prefix`` its stream.  Nothing else runs the
recurrence, so the tests can hold the closed form and the power to it.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable, Iterator
from itertools import islice

from .evaluators import check_budget, det_oracle, last_poly, leading_minors, per_oracle
from .matrices import HessenbergMatrix, build_h, build_k, build_m, build_w
from .ring import ONE, X, Y, ZERO, BivarPoly, Frozen, GradedKernel, check_count


def _check_args(p: int, n: int, n_min: int = 0) -> None:
    check_count("p", p, 1)
    check_count("n", n, n_min)


def _recurrence(p: int, n: int) -> Iterator:
    """Yield terms 0..n of G on the graded kernel, where y has weight
    p + 1 and G(k) has degree k - 1: G(1) = 1, G(k) = 0 for k <= 0, and
    each step x*G(k-1) + y*G(k-p-1) is one multiply-accumulate.  Only the
    recurrence route runs it; every other value of G reads ``_closed`` or
    ``_power``, so the route stays their independent oracle.  Terms 2..p+1
    need no branch of their own: their G(k-p-1) is zero.  The arguments are
    not checked.  At most min(p, n) + 1 terms are held, so taking just the
    n-th keeps memory O(min(p, n)) terms: for n < p every G(k-p-1) read is
    zero, and so is G(k-n-1), which is read in its place."""
    step, unit = GradedKernel.sum_of_products, GradedKernel.unit
    zero, one = GradedKernel.zero, GradedKernel.one
    lag = min(p, n)
    window = deque([zero] * lag + [one], maxlen=lag + 1)  # G(k-lag-1) .. G(k-1)
    yield from islice((zero, one), n + 1)
    for _ in range(2, n + 1):
        window.append(step(((X, unit, window[-1]), (Y, unit, window[0]))))
        yield window[-1]


def _power_wins(p: int, m: int) -> bool:
    """Whether G(p, m) at two constants takes ``_power`` rather than the
    closed form.  Each bit of the power's exponent m - 1 + p squares p + 1
    coefficients, (p + 1)^2 products; the power runs when its products
    number at most m, the steps of the recurrence it skips,
    (p + 1)^2 * bit_length(m + p) <= m.  So it never runs when m <= p + 1,
    where its p + 1 coefficients would outnumber G's terms, however large p
    is.  The closed form makes (m - 1) // (p + 1) steps instead, so
    the rule leans to the closed form, which is the faster one at some
    points short of it, such as (5, 300)."""
    return (p + 1) ** 2 * (m + p).bit_length() <= m


def _power(p: int, m: int, cx, cy) -> tuple[int, int]:
    """G(p, m) at x = cx and y = cy, Gaussian ``(re, im)`` pairs, as a pair,
    for m >= 1.  At constants G is a linear recurrence of order p + 1,
    a(k) = cx*a(k-1) + cy*a(k-p-1) from k = 2 on, with a(1-p) .. a(0) = 0
    and a(1) = 1, so a(m) is the t^p coefficient of t^(m-1+p) mod
    t^(p+1) - cx*t^p - cy (Fiduccia, SIAM J. Comput. 14, 1985).  The power
    runs from the exponent's top bit down: each bit squares the residue,
    shifts it by t for a 1, and folds each coefficient of t^k, k > p, into
    t^(k-1) times cx and t^(k-p-1) times cy, top first.  It holds p + 1
    coefficients; ``_power_wins`` decides when it runs.  Every Gaussian
    product is written out in plain ints, (ar + ai*i)(br + bi*i) =
    ar*br - ai*bi + (ar*bi + ai*br)*i, with no call per product."""
    (xr, xi), (yr, yi) = cx, cy
    residue = [(1, 0)]  # t^0
    for bit in bin(m - 1 + p)[2:]:
        shift = bit == "1"
        size = 2 * len(residue) - 1 + shift
        re, im = [0] * size, [0] * size
        for i, (ar, ai) in enumerate(residue):
            for k, (br, bi) in enumerate(residue, i + shift):
                re[k] += ar * br - ai * bi
                im[k] += ar * bi + ai * br
        for k in range(size - 1, p, -1):
            r, s = re[k], im[k]
            re[k - 1] += xr * r - xi * s
            im[k - 1] += xr * s + xi * r
            re[k - p - 1] += yr * r - yi * s
            im[k - p - 1] += yr * s + yi * r
        residue = list(zip(re[: p + 1], im[: p + 1]))
    return residue[p]


def _at_constants(p: int, m: int, cx, cy) -> tuple[int, int]:
    """G(p, m) at x = cx and y = cy, Gaussian ``(re, im)`` pairs, as a pair:
    ``_power`` where ``_power_wins``, else the sum of the closed form's
    terms, each scaled by ``_fold``.  The arguments are not checked."""
    if _power_wins(p, m):
        return _power(p, m, cx, cy)
    re, im = _fold(_closed(p, m), m - 1, p + 1, cx, cy)
    return sum(re), sum(im)


def _closed(p: int, n: int):
    """G(p, n)'s raw graded value from its closed form,
    G(p, n) = sum_j C(n-1-p*j, j) * x^(n-1-(p+1)*j) * y^j, in plain ints
    (``GradedKernel.zero`` for n < 1).  With N = n-1-p*j, coefficients
    j <= 2p are ``math.comb(N, j)``, and each one past them follows from
    the last by one exact ratio:
    C(N-p, j+1) = C(N, j) * perm(N-j, p+1) / ((j+1) * perm(N, p)).
    The rule is measured (2-vCPU Xeon, Python 3.11.7, n = 3000): a comb
    costs about j factors and a ratio two perms of p factors.  At p = 1 to
    40 the comb was the cheaper at each j <= 2p measured (at j = 2p, 0.13
    against 0.37 us at p = 1, 0.59 against 0.84 us at p = 10) and about
    even at j = 3p.  So a large p with few coefficients, such as
    (1000, 30000), makes no perm of a thousand factors, and the ratio
    keeps the many coefficients of a small p cheap: one comb per
    coefficient took 20.2 s at (1, 20001).  The combs run in a loop of
    their own before the ratio's, so a ratio step tests no rule.  N, which
    falls by p each step, and the last binomial are carried in locals.
    The two loops make (n-1) // (p+1) steps in all, so a p far past n
    costs nothing.  The arguments are not checked."""
    if n < 1:
        return GradedKernel.zero
    count, top, coeffs = (n - 1) // (p + 1), n - 1, [1]
    for j in range(1, min(count, 2 * p) + 1):
        top -= p
        coeffs.append(math.comb(top, j))
    coeff = coeffs[-1]
    for j in range(len(coeffs) - 1, count):
        coeff = coeff * math.perm(top - j, p + 1) // ((j + 1) * math.perm(top, p))
        coeffs.append(coeff)
        top -= p
    return coeffs, []


def _gauss_pow(c, k: int) -> tuple[int, int]:
    """c^k for a Gaussian ``(re, im)`` pair c and k >= 0, by
    square-and-multiply in plain ints, so 0^0 = 1."""
    (br, bi), rr, ri = c, 1, 0
    while k:
        if k & 1:
            rr, ri = rr * br - ri * bi, rr * bi + ri * br
        k >>= 1
        if k:
            br, bi = br * br - bi * bi, 2 * br * bi
    return rr, ri


def _fold(g, d: int, w: int, cx, cy):
    """G's graded value ``g`` of degree d, with its coefficient c_j of
    x^(d - w*j)*y^j multiplied by cx^(d - w*j)*cy^j, as a graded value with
    both parts.  G's coefficients are real; the scalars cx and cy are
    Gaussian ``(re, im)`` pairs, so 0^0 = 1.  The powers cx^(d - w*j) are
    listed from the last j down, by running powers of cx^w, and cy^j is
    carried up beside the coefficients; each Gaussian product is written
    out in plain ints, with no call per product."""
    coeffs = g[0]
    if not coeffs:
        return g
    last = len(coeffs) - 1
    # cx^w is read only past one coefficient, and then w <= d: a p far past
    # d raises cx to no power beyond cx^d
    (xr, xi), (sr, si) = _gauss_pow(cx, d - w * last), _gauss_pow(cx, w if last else 0)
    x_powers = [(xr, xi)]  # cx^(d - w*j), from the last j down
    for _ in range(last):
        xr, xi = xr * sr - xi * si, xr * si + xi * sr
        x_powers.append((xr, xi))
    (cr, ci), yr, yi = cy, 1, 0  # cy and its running power cy^j
    re, im = [], []
    for c, (xr, xi) in zip(coeffs, reversed(x_powers)):
        re.append(c * (xr * yr - xi * yi))
        im.append(c * (xr * yi + xi * yr))
        yr, yi = yr * cr - yi * ci, yr * ci + yi * cr
    return re, im


def f_poly(p: int, n: int) -> BivarPoly:
    """n-th term of the coefficiented recurrence for parameter p."""
    return ROUTES["recurrence"](p, n)


def f_poly_prefix(p: int, n: int) -> list[BivarPoly]:
    """Terms 0..n as a list.  The list holds every term at once, about
    n^2 / (2(p + 1)) monomials whose coefficients grow to O(n) bits, so
    Theta(n^3 / p) bits in all: ``f_poly_prefix(1, 2000)`` holds 1,001,000
    terms and peaks near 273 MiB.  Iterate ``ROUTES["recurrence"].prefix``
    for one term at a time."""
    ring, values = ROUTES["recurrence"].prefix(p, n)
    return [ZERO, *(ring.poly(v, k) for k, v in enumerate(values))]


def fib_p_number(p: int, n: int) -> int:
    """Integer sequence with p+1 leading ones, a(n) = a(n-1) + a(n-p-1):
    G(p, n) at x = y = 1, the real part of ``_at_constants``."""
    _check_args(p, n, n_min=1)
    return _at_constants(p, n, (1, 0), (1, 0))[0]


class FamilySpec(Frozen):
    """A named specialization: substitutions for x and y, a fixed p or
    None for p-parameterized rows, and an index shift so that
    family(n) = substitute(G(p, n + index_offset)).

    ``xsub`` must be c or c*x, and ``ysub`` c or c*y, for a Gaussian
    integer c (zero included); ``name`` must be a str, ``p``, when not
    None, an int >= 1, and ``index_offset`` an int >= 0.  All are checked
    when the spec is made: a name that is not a str, a seed that is not a
    ``BivarPoly`` or a count that is not an int raises TypeError, anything
    else ValueError."""

    __slots__ = ("name", "xsub", "ysub", "p", "index_offset")

    def __init__(
        self, name: str, xsub: BivarPoly, ysub: BivarPoly, p: int | None, index_offset: int = 0
    ) -> None:
        if not isinstance(name, str):
            raise TypeError(f"name must be a str, got {name!r}")
        if p is not None:
            check_count("p", p, 1)
        check_count("index_offset", index_offset, 0)
        for arg, sub in (("xsub", xsub), ("ysub", ysub)):
            if not isinstance(sub, BivarPoly):
                raise TypeError(f"{arg} must be a BivarPoly, got {sub!r}")
        GradedKernel.seed(xsub, "x")
        GradedKernel.seed(ysub, "y")
        super().__init__(name, xsub, ysub, p, index_offset)


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

    ``p`` is required for p-parameterized families.  A family that fixes
    its own p ignores a valid ``p``, but any ``p`` given is checked.  A
    ``spec`` that is not a ``FamilySpec`` raises TypeError.
    """
    if not isinstance(spec, FamilySpec):
        raise TypeError(f"spec must be a FamilySpec, got {spec!r}")
    if p is not None:
        check_count("p", p, 1)
    eff_p = p if spec.p is None else spec.p
    if eff_p is None:
        raise ValueError(f"family {spec.name!r} needs an explicit p")
    _check_args(eff_p, n)
    m = n + spec.index_offset
    xe, *cx = GradedKernel.seed(spec.xsub, "x")
    ye, *cy = GradedKernel.seed(spec.ysub, "y")
    ring = GradedKernel(eff_p + 1)
    if not xe | ye:
        # two constants put every term of G on the monomial 1
        re, im = _at_constants(eff_p, m, cx, cy)
        return ring.poly(([re], [im]), m - 1, 0, 0)
    # a variable seed keeps each term of G its own monomial
    return ring.poly(_fold(_closed(eff_p, m), m - 1, ring.w, cx, cy), m - 1, xe, ye)


def get_family(name: str) -> FamilySpec:
    try:
        return FAMILIES[name]
    except KeyError:
        available = ", ".join(sorted(FAMILIES))
        raise KeyError(f"unknown family {name!r}; available: {available}") from None


class CrossCheckReport(Frozen):
    """The five route values for one (p, n) and their agreement verdict."""

    __slots__ = ("p", "n", "values", "all_equal", "first_mismatch")

    def __init__(
        self,
        p: int,
        n: int,
        values: dict[str, BivarPoly],
        all_equal: bool,
        first_mismatch: tuple[str, str] | None,
    ) -> None:
        super().__init__(p, n, values, all_equal, first_mismatch)


_Value = Callable[[int, int], BivarPoly]


class _Route:
    """A fast route, as its stream: ``prefix(p, n)`` gives the kernel it
    runs on and an iterator over the raw values of G(p, 1..n), all from one
    recursion, G(p, k) being ``ring.poly(value, k - 1)``.  Calling the route
    gives G(p, n), the stream's last value; the recurrence's empty stream at
    n = 0 gives G(p, 0) = 0."""

    __slots__ = ("prefix",)

    def __init__(self, prefix: Callable[[int, int], tuple[object, Iterator]]) -> None:
        self.prefix = prefix

    def __call__(self, p: int, n: int) -> BivarPoly:
        return last_poly(*self.prefix(p, n), n - 1)


def _recurrence_prefix(p: int, n: int) -> tuple[GradedKernel, Iterator]:
    _check_args(p, n)
    return GradedKernel(p + 1), islice(_recurrence(p, n), 1, None)


def _on_matrix(evaluate: _Value, signed: bool) -> _Value:
    """An oracle route to G(p, n) through ``evaluate`` of the order-(n-1)
    matrices, whose order is held to the det (``signed``) or per oracle's
    default cap before any matrix is built; the empty order-0 matrix has
    det = per = 1 and needs no matrix object."""

    def route(p: int, n: int) -> BivarPoly:
        _check_args(p, n, n_min=1)
        if n == 1:
            return ONE
        check_budget(n - 1, signed)
        return evaluate(p, n - 1)

    return route


def _matrix_route(build: Callable[[int, int], HessenbergMatrix], signed: bool) -> _Route:
    """The route through det (``signed``) or per of build(p, n - 1).  Its
    stream reads the leading minors of build(p, n), whose k x k block is
    build(p, k): the minors of orders 0..n-1 are G(p, 1..n), and the stream
    stops before it computes order n.  The builder checks p and n."""

    def prefix(p: int, n: int) -> tuple[object, Iterator]:
        ring, minors = leading_minors(build(p, n), signed)
        return ring, islice(minors, n)

    return _Route(prefix)


# Route name -> fn(p, n) returning G(p, n); the fast routes are their
# streams of G(p, 1..n).  The builder lambdas and the oracle routes look up
# the builders and oracles in this module's globals at call time, so that a
# name rebound here (a patched builder, a traced oracle) is used.
ROUTES: dict[str, _Value] = {
    "recurrence": _Route(_recurrence_prefix),
    "det-w": _matrix_route(lambda p, n: build_w(p, n), signed=True),
    "det-m": _matrix_route(lambda p, n: build_m(p, n), signed=True),
    "per-h": _matrix_route(lambda p, n: build_h(p, n), signed=False),
    "per-k": _matrix_route(lambda p, n: build_k(p, n), signed=False),
    "oracle-det-w": _on_matrix(lambda p, order: det_oracle(build_w(p, order)), signed=True),
    "oracle-per-h": _on_matrix(lambda p, order: per_oracle(build_h(p, order)), signed=False),
}
_FAST_ROUTES = tuple(name for name, route in ROUTES.items() if isinstance(route, _Route))


def _report(p: int, n: int, values: dict[str, BivarPoly]) -> CrossCheckReport:
    """Compare each route value with the recurrence's; structural equality
    is transitive, so that decides whether all five agree."""
    differing = [name for name, value in values.items() if value != values["recurrence"]]
    first_mismatch = ("recurrence", differing[0]) if differing else None
    return CrossCheckReport(p, n, values, first_mismatch is None, first_mismatch)


def cross_check(p: int, n: int) -> CrossCheckReport:
    """Compare each of the four order-n matrix routes with the recurrence
    value G(p, n+1)."""
    _check_args(p, n, n_min=1)
    return _report(p, n, {name: ROUTES[name](p, n + 1) for name in _FAST_ROUTES})


def cross_check_prefix(p: int, n: int) -> Iterator[CrossCheckReport]:
    """An iterator over ``cross_check(p, k)`` for k = 1..n, in order, from
    one pass of each fast route: the four order-n matrices and the
    recurrence up to G(p, n+1).  The five streams are walked in lockstep,
    and each report converts only its own five values, so memory stays
    O(p * terms) per route whatever n is."""
    _check_args(p, n, n_min=1)
    streams = [ROUTES[name].prefix(p, n + 1) for name in _FAST_ROUTES]
    return _reports(p, streams)


def _reports(p: int, streams: list[tuple[object, Iterator]]) -> Iterator[CrossCheckReport]:
    rings = [ring for ring, _ in streams]
    cells = islice(zip(*(values for _, values in streams)), 1, None)  # from G(p, 2)
    for k, raw in enumerate(cells, 1):
        values = {name: ring.poly(v, k) for name, ring, v in zip(_FAST_ROUTES, rings, raw)}
        yield _report(p, k, values)
