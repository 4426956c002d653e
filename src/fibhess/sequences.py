"""The bivariate polynomial sequence, its integer shadow, specializations,
and the five-way cross-check.

The sequence G(p, n) is defined by G(p, 0) = 0, G(p, n) = x^(n-1) for
1 <= n <= p + 1, and G(p, n) = x*G(p, n-1) + y*G(p, n-p-1) afterwards.
Four matrix routes recover G(p, n+1) as det(W), det(M), per(H), per(K) of
the order-n matrices.  ``ROUTES`` maps every route name, the two
brute-force oracles included, to a function of (p, n) that returns
G(p, n); cross_check runs the five fast routes and compares each with the
recurrence exactly.

A fast route is one class, ``_RecurrenceRoute`` or ``_MatrixRoute``,
with its value and its stream as methods.  Its stream,
``ROUTES[name].prefix(p, n)``, gives the function that converts its raw
values to ``BivarPoly`` and the raw values of G(p, 1..n) from one pass,
the recurrence's terms or the leading minors of orders 0..n-1 of one
order-n matrix (whose leading k x k block is the order-k matrix; the
route plans only the rows those minors need, so it never computes order
n).  Every stream of a matrix route runs ``evaluators._run``, the one
loop of every stream.  Calling a matrix route gives G(p, n), the
stream's last value, from ``evaluators._last`` without the stream: by
columns where ``evaluators._columns`` takes its plan, as it takes the
paper matrices', else as the loop's last value; either way it converts
only that value.  Calling the recurrence route gives G(p, n) by columns
(below), with G(p, 0) = 0, and ``f_poly`` is the recurrence route.  Each
matrix route runs on its own in ``ROUTES``, but after their set-ups the
four are one computation: their plans (``evaluators._plan``) are equal.
So ``cross_check`` and ``cross_check_prefix`` make the four plans, group
the routes whose plans are equal, compared by value, and compute and
convert once per group, ``cross_check`` by ``_last`` and
``cross_check_prefix`` by the loop, every route in a group reading that
group's ``BivarPoly``.
``cross_check_prefix(p, n)`` walks the recurrence's stream and one
stream per group in lockstep and yields ``cross_check(p, k)`` for
k = 1..n, converting only each cell's own values to ``BivarPoly``; the
CLI grid runs on it.  The oracle routes stay single-valued, and hold the
order to their oracle's cap before they build a matrix.

Named specializations put c or c*x in place of x and c or c*y in place of
y, for a Gaussian integer c (and optionally shift the index), to recover
classical families: Fibonacci, Pell, Jacobsthal, and second-kind
Chebyshev.  Substitution is a ring homomorphism and G(p, m) is graded, so
the coefficient of x^(d-w*j)*y^j in G's closed form,
sum_j C(m-1-p*j, j) * x^(m-1-(p+1)*j) * y^j, takes cx^(d-w*j)*cy^j, and
``_closed(p, m, cx, cy)`` is the one source of a family's coefficients:
``math.comb`` times running powers of the constants for j <= 2p, and past
that, one exact step per coefficient that folds the binomial ratio and
cy/cx^w into small factors, with no product of two big ints.  With a
variable seed, distinct j stay distinct monomials; with two constants,
every term lands on 1 and they add up to one coefficient, one at a time,
and ``fib_p_number`` (cx = cy = 1) is the plain sum of G's coefficients.

At two constants, G(p, m) is also a scalar linear recurrence of order
p + 1, so it is the t^p coefficient of t^(m-1+p) mod
t^(p+1) - cx*t^p - cy, O(log m) squarings of p + 1 Gaussian ``(re, im)``
pairs.  One rule, ``_power_wins``, takes that power only where its
products number at most m, and so never where m <= p + 1; elsewhere the
scaled closed form, summed, serves.  ``_at_constants`` is the one place
that rule is applied: a family with two constants and ``fib_p_number``
both take G from it, and a family with a variable seed takes ``_closed``.
What a seed may be, c or c times its variable, is read here too, by
``_seed``, which a ``FamilySpec`` checks its seeds with.

G(p, k) is weighted-homogeneous of degree k - 1 when y has weight p + 1,
so its raw graded value is the list of its coefficients by y-degree j, as
the ring's graded kernel holds a value.  The four matrix routes run on
that kernel, their one-value columns on its conversion alone; nothing
here does.  Read down one y-degree j, G's
coefficients are a running sum, c_j(k) = c_j(k-1) + c_{j-1}(k-p-1).  The
recurrence route's stream, which ``f_poly_prefix``, ``cross_check_prefix``
and ``check`` read, applies that rule across each order in one list
display of plain ints (``_recurrence``); its value, which ``f_poly``,
``cross_check`` and ``gen`` read, applies it down each column, one
``itertools.accumulate`` of the one before (``_by_columns``).  So neither
shares arithmetic with the matrix routes, and a fault in their code
splits the recurrence from them wherever that code runs: the conversion
in one cell and in the grid, the loop in the grid, and the columns in
one cell, in a route called alone and so in ``gen``.  Every value this
module makes, the families' included, becomes a ``BivarPoly`` through one
conversion from explicit keys, ``_poly``; ``GradedKernel.poly`` converts
the matrix routes alone.  Nothing else runs the recurrence, so the tests
can hold the closed form and the power to it.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable, Iterator
from functools import partial
from itertools import accumulate, chain, islice, repeat
from operator import add

from .evaluators import _last, _plan, _run, check_budget, det_oracle, per_oracle
from .matrices import HessenbergMatrix, build_h, build_k, build_m, build_w
from .ring import ONE, X, Y, ZERO, BivarPoly, Frozen, _wrap, check_count


def _check_args(p: int, n: int, n_min: int = 0) -> None:
    check_count("p", p, 1)
    check_count("n", n, n_min)


def _recurrence(p: int, n: int) -> Iterator:
    """Yield G(0..n)'s raw graded values ``(re, [])``, in plain ints, with
    y of weight p + 1: ``re`` lists G(k)'s coefficients of
    x^(k-1-(p+1)*j)*y^j by y-degree j.  G(0) = 0, G(1) = 1, and each step
    is one list display of G(k) = x*G(k-1) + y*G(k-p-1), coefficient by
    coefficient c_j(k) = c_j(k-1) + c_{j-1}(k-p-1): the rule
    ``_by_columns`` reads down each column, here read across each order.
    Only the recurrence route's stream runs it, and the route's value runs
    ``_by_columns``; every other value of G reads ``_closed`` or
    ``_power``, so the route stays their independent oracle.  It calls no
    graded-kernel code, so it shares no arithmetic with the four matrix
    routes.  Terms 2..p+1 need no branch of their own: their G(k-p-1) is
    empty.  The arguments are not checked.  At most min(p, n) + 1 lists
    are held, so taking just the n-th keeps memory O(min(p, n)) terms: for
    n < p every G(k-p-1) read is zero, and so is G(k-n-1), which is read
    in its place.  No yielded list is changed."""
    lag = min(p, n)
    window = deque([[]] * lag + [[1]], maxlen=lag + 1)  # G(k-lag-1) .. G(k-1)
    yield from islice((([], []), ([1], [])), n + 1)
    for _ in range(2, n + 1):
        a, b = window[-1], window[0]
        window.append([a[0], *map(add, a[1:], b), *b[len(a) - 1 :]])
        yield window[-1], []


def _poly(value, degree: int, w: int, xe: int = 1, ye: int = 1) -> BivarPoly:
    """The ``BivarPoly`` of a raw graded value ``(re, im)`` of the given
    degree with y of weight w, its term j read as
    x^(xe*(degree - w*j)) * y^(ye*j), made from explicit keys.  ``xe`` or
    ``ye`` is 0 when a constant took the place of that variable.  Every
    value this module makes is converted here, not by
    ``GradedKernel.poly``, which converts only the matrix routes."""
    terms = {}
    for ie, part in enumerate(value):
        for j, c in enumerate(part):
            if c:
                terms[(xe * (degree - w * j), ye * j, ie)] = c
    return _wrap(terms)


def _by_columns(p: int, n: int) -> BivarPoly:
    """G(p, n) from its recurrence read down each y-degree j: with
    w = p + 1, coefficient j of G(p, k), c_j(k) = c_j(k-1) + c_{j-1}(k-w),
    is a running sum of column j - 1, so column j over the orders
    w*j+1..n is ``accumulate`` of column j - 1's first n - w*j entries
    (c_0 = 1), and its last entry is coefficient j of G(p, n).  Each column
    is built by C-level adds, with no kernel call; two columns are held at
    a time, each of at most n coefficients, and none is built when p >= n.
    The arguments are not checked."""
    w = p + 1
    coeffs = [1] if n else []
    column = [1] * max(n - w, 0)  # c_0 over the orders w+1..n
    for j in range(1, (n - 1) // w + 1):
        del column[n - w * j :]
        column = list(accumulate(column))
        coeffs.append(column[-1])
    return _poly((coeffs, []), n - 1, w)


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
    ``_power`` where ``_power_wins``, else the sum of ``_scaled``'s terms,
    added up one coefficient at a time, so only the term in hand and the
    running sum are held.  The arguments are not checked."""
    if _power_wins(p, m):
        return _power(p, m, cx, cy)
    re = im = 0
    for r, i in _scaled(p, m, cx, cy):
        re, im = re + r, im + i
    return re, im


def _closed(p: int, n: int, cx=(1, 0), cy=(1, 0)):
    """G(p, n)'s raw graded value from its closed form,
    G(p, n) = sum_j C(n-1-p*j, j) * x^(n-1-(p+1)*j) * y^j, in plain ints,
    with cx*x put in for x and cy*y for y, cx and cy Gaussian ``(re, im)``
    pairs: with d = n - 1 and w = p + 1, coefficient j is
    f(j) = C(d-p*j, j) * cx^(d-w*j) * cy^j, for j = 0..count, count = d // w
    (none for n < 1).  With real constants, the defaults among them, the
    value's ``im`` is ``[]``.  It lists ``_scaled``'s terms in order of j.

    Past the comb region below, each term follows from the one before in
    one exact step, N = d - p*j being the binomial's top:
    f(j+1) = f(j) * perm(N-j, p+1) * cy * conj(cx^w)
    // ((j+1) * perm(N, p) * |cx^w|^2), as f(j+1)/f(j) is the binomial ratio
    C(N-p, j+1)/C(N, j) times cy/cx^w.  cy * conj(cx^w) and |cx^w|^2 are
    made once, over their common divisor, and the small factors are
    multiplied first, so a step multiplies each big part by small ints and
    divides by one: no step multiplies two big ints.  Each part's floor
    division is exact, since f(j+1) times the divisor is f(j) times the
    Gaussian numerator.

    The comb region, j <= J = min(count, 2p), takes ``math.comb`` and
    scales by running powers, multiplication only: C(N, j) * cy^j for each
    j, then cx^(d-w*J) times cx^w at each step down from J.  The rule is
    measured (2-vCPU Xeon, Python 3.11.7, n = 3000): a comb costs about j
    factors and a ratio two perms of p factors.  At p = 1 to 40 the comb
    was the cheaper at each j <= 2p measured (at j = 2p, 0.13 against
    0.37 us at p = 1, 0.59 against 0.84 us at p = 10) and about even at
    j = 3p.  So a large p with few coefficients, such as (1000, 30000),
    makes no perm of a thousand factors and divides by no power of cx: the
    ratio's division taken through this region made ``pell-bivariate-p``
    at (1000, 30000) take 3.1 ms against 0.7-1.3.  Past it, the ratio keeps
    the many coefficients of a small p cheap: one comb per coefficient
    took 20.2 s at (1, 20001).

    cx = 0 leaves only the pure-y term j = d/w, whose binomial C(j, j) is
    1: it is cy^j where w divides d, every other term is 0, and nothing is
    divided by |cx^w|^2 = 0.  cx^w is taken only past one coefficient, and
    then w <= d, so a p far past d raises cx to no power beyond cx^d.  The
    arguments are not checked."""
    terms = list(_scaled(p, n, cx, cy))
    rise = max((n - 1) // (p + 1) - 2 * p, 0) + 1  # terms J..count, then J-1..0
    terms = terms[: rise - 1 : -1] + terms[:rise]
    return [r for r, _ in terms], ([i for _, i in terms] if cx[1] or cy[1] else [])


def _scaled(p: int, n: int, cx, cy) -> Iterator[tuple[int, int]]:
    """Yield ``_closed``'s terms f(j) as ``(re, im)`` pairs, computed as
    its docstring says, one at a time: f(J), then the ratio's f(J+1) ..
    f(count) up, then the comb region's f(J-1) .. f(0) down; none for
    n < 1.  It holds the term in hand, cx's running power and the comb
    region's J + 1 small factors.  The arguments are not checked."""
    if n < 1:
        return
    d, w, count = n - 1, p + 1, (n - 1) // (p + 1)
    last = min(count, 2 * p)
    if not any(cx):
        pure = _gauss_pow(cy, count) if d == w * count else (0, 0)
        yield from chain(repeat((0, 0), count - last), [pure], repeat((0, 0), last))
        return
    (xr, xi), (sr, si) = _gauss_pow(cx, d - w * last), _gauss_pow(cx, w if count else 0)
    (cr, ci), yr, yi = cy, 1, 0
    small = []  # C(d - p*j, j) * cy^j for j <= J
    for j in range(last + 1):
        c = math.comb(d - p * j, j)
        small.append((c * yr, c * yi))
        yr, yi = yr * cr - yi * ci, yr * ci + yi * cr
    yr, yi = small[last]
    re, im = xr * yr - xi * yi, xr * yi + xi * yr
    yield re, im
    # cy / cx^w as cy * conj(cx^w) / |cx^w|^2, over their common divisor
    factor = cr * sr + ci * si, ci * sr - cr * si, sr * sr + si * si
    kr, ki, norm = (part // math.gcd(*factor) for part in factor)
    for j, top in zip(range(last, count), range(d - p * last, 0, -p)):
        num = math.perm(top - j, w)
        a, b, den = num * kr, num * ki, (j + 1) * math.perm(top, p) * norm
        re, im = (re * a - im * b) // den, (re * b + im * a) // den
        yield re, im
    for yr, yi in reversed(small[:last]):  # j = J-1 .. 0
        xr, xi = xr * sr - xi * si, xr * si + xi * sr
        yield xr * yr - xi * yi, xr * yi + xi * yr


def _gauss_pow(c, k: int) -> tuple[int, int]:
    """c^k for a Gaussian ``(re, im)`` pair c and k >= 0, in plain ints, so
    0^0 = 1: the square of c^(k // 2), times c for an odd k, so each step
    squares the big part and multiplies it by c alone."""
    if not k:
        return 1, 0
    hr, hi = _gauss_pow(c, k >> 1)
    hr, hi = hr * hr - hi * hi, 2 * hr * hi
    return (hr * c[0] - hi * c[1], hr * c[1] + hi * c[0]) if k & 1 else (hr, hi)


def f_poly(p: int, n: int) -> BivarPoly:
    """n-th term of the coefficiented recurrence for parameter p: the
    recurrence route's value, computed by columns (``_by_columns``), with
    two columns of at most n coefficients held at a time."""
    return ROUTES["recurrence"](p, n)


def f_poly_prefix(p: int, n: int) -> list[BivarPoly]:
    """Terms 0..n as a list.  The list holds every term at once, about
    n^2 / (2(p + 1)) monomials whose coefficients grow to O(n) bits, so
    Theta(n^3 / p) bits in all: ``f_poly_prefix(1, 2000)`` holds 1,001,000
    terms and peaks near 273 MiB.  Iterate ``ROUTES["recurrence"].prefix``
    for one term at a time."""
    poly, values = ROUTES["recurrence"].prefix(p, n)
    return [ZERO, *(poly(v, k) for k, v in enumerate(values))]


def fib_p_number(p: int, n: int) -> int:
    """Integer sequence with p+1 leading ones, a(n) = a(n-1) + a(n-p-1):
    G(p, n) at x = y = 1, the real part of ``_at_constants``."""
    _check_args(p, n, n_min=1)
    return _at_constants(p, n, (1, 0), (1, 0))[0]


def _seed(e: BivarPoly, var: str) -> tuple[int, int, int]:
    """``(k, re, im)`` for a ``BivarPoly`` c * var^k, where ``var`` is "x"
    or "y", k is 0 or 1 and c = re + im*i; the zero polynomial is the
    constant 0.  ValueError for any other polynomial.  A ``FamilySpec``
    checks its seeds with it, and ``family_value`` reads them."""
    var_mono = (1, 0) if var == "x" else (0, 1)
    parts = e.term_parts()
    if len(parts) > 1 or parts and parts[0][:2] not in ((0, 0), var_mono):
        raise ValueError(f"expected c or c*{var} for a Gaussian integer c, got {e}")
    xe, ye, re, im = parts[0] if parts else (0, 0, 0, 0)
    return xe | ye, re, im


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
        _seed(xsub, "x")
        _seed(ysub, "y")
        super().__init__(name, xsub, ysub, p, index_offset)


FAMILIES: dict[str, FamilySpec] = {
    spec.name: spec
    for spec in (
        FamilySpec("fibonacci-bivariate", X, Y, 1),
        FamilySpec("fibonacci-p-poly", X, ONE, None),
        FamilySpec("fibonacci-poly", X, ONE, 1),
        FamilySpec("fibonacci-p-numbers", ONE, ONE, None),
        FamilySpec("fibonacci-numbers", ONE, ONE, 1),
        FamilySpec("pell-bivariate-p", X.scale(2), Y, None),
        FamilySpec("pell-bivariate", X.scale(2), Y, 1),
        FamilySpec("pell-p-poly", X.scale(2), ONE, None),
        FamilySpec("pell-poly", X.scale(2), ONE, 1),
        FamilySpec("pell-numbers", BivarPoly.constant(2), ONE, 1),
        FamilySpec("chebyshev-U", X.scale(2), -ONE, 1, index_offset=1),
        FamilySpec("jacobsthal-bivariate-p", X, Y.scale(2), None),
        FamilySpec("jacobsthal-bivariate", X, Y.scale(2), 1),
        FamilySpec("jacobsthal-poly", ONE, Y.scale(2), 1),
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
    xe, *cx = _seed(spec.xsub, "x")
    ye, *cy = _seed(spec.ysub, "y")
    if not xe | ye:
        # two constants put every term of G on the monomial 1
        re, im = _at_constants(eff_p, m, cx, cy)
        return _poly(([re], [im]), m - 1, eff_p + 1, 0, 0)
    # a variable seed keeps each term of G its own monomial
    return _poly(_closed(eff_p, m, cx, cy), m - 1, eff_p + 1, xe, ye)


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


class _RecurrenceRoute:
    """The recurrence route.  Its stream, ``prefix(p, n)``, gives ``_poly``
    as its conversion and an iterator over ``_recurrence``'s raw values of
    G(p, 1..n), G(p, k) being ``poly(value, k - 1)``; calling it gives
    G(p, n) from ``_by_columns``, the same value by columns, G(p, 0) = 0
    included.  Neither calls graded-kernel code.  The stream serves the
    readers of every order (``f_poly_prefix``, ``cross_check_prefix``),
    since holding every order by columns would hold Theta(n^2 / p)
    coefficients at once; the columns serve the readers of one value."""

    __slots__ = ()

    def __call__(self, p: int, n: int) -> BivarPoly:
        _check_args(p, n)
        return _by_columns(p, n)

    def prefix(self, p: int, n: int) -> tuple[Callable, Iterator]:
        _check_args(p, n)
        return partial(_poly, w=p + 1), islice(_recurrence(p, n), 1, None)


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


class _MatrixRoute:
    """The route through det (``signed``) or per of build(p, n - 1).  Its
    stream, ``prefix(p, n)``, reads the leading minors of build(p, n),
    whose k x k block is build(p, k): the minors of orders 0..n-1 are
    G(p, 1..n).  So its plan, ``plan(p, n)``, is ``evaluators._plan`` of
    build(p, n)'s first n - 1 rows, and the stream gives the kernel's
    ``poly`` and ``_run`` over that plan, and never computes order n.
    Calling the route takes the plan's last minor from ``_last``, by
    columns where ``_columns`` takes the plan.  The builder checks p and
    n."""

    __slots__ = ("build", "signed")

    def __init__(self, build: Callable[[int, int], HessenbergMatrix], signed: bool) -> None:
        self.build, self.signed = build, signed

    def plan(self, p: int, n: int) -> tuple[object, tuple]:
        return _plan(self.build(p, n), self.signed, n - 1)

    def prefix(self, p: int, n: int) -> tuple[Callable, Iterator]:
        return _stream(*self.plan(p, n))

    def __call__(self, p: int, n: int) -> BivarPoly:
        return _last(*self.plan(p, n), n - 1)


def _stream(ring, plan: tuple) -> tuple[Callable, Iterator]:
    """A plan's stream: its kernel's ``poly`` and ``_run`` over it."""
    return ring.poly, _run(ring, plan)


# Route name -> fn(p, n) returning G(p, n); the fast routes are their
# streams of G(p, 1..n).  The builder lambdas and the oracle routes look up
# the builders and oracles in this module's globals at call time, so that a
# name rebound here (a patched builder, a traced oracle) is used.
ROUTES: dict[str, _Value] = {
    "recurrence": _RecurrenceRoute(),
    "det-w": _MatrixRoute(lambda p, n: build_w(p, n), signed=True),
    "det-m": _MatrixRoute(lambda p, n: build_m(p, n), signed=True),
    "per-h": _MatrixRoute(lambda p, n: build_h(p, n), signed=False),
    "per-k": _MatrixRoute(lambda p, n: build_k(p, n), signed=False),
    "oracle-det-w": _on_matrix(lambda p, order: det_oracle(build_w(p, order)), signed=True),
    "oracle-per-h": _on_matrix(lambda p, order: per_oracle(build_h(p, order)), signed=False),
}
_FAST_ROUTES = tuple(name for name, route in ROUTES.items() if hasattr(route, "prefix"))


def _report(p: int, n: int, values: dict[str, BivarPoly]) -> CrossCheckReport:
    """Compare each route value with the recurrence's; structural equality
    is transitive, so that decides whether all five agree."""
    differing = [name for name, value in values.items() if value != values["recurrence"]]
    first_mismatch = ("recurrence", differing[0]) if differing else None
    return CrossCheckReport(p, n, values, first_mismatch is None, first_mismatch)


def _groups(p: int, n: int) -> list[tuple[list[str], _Value, tuple | None]]:
    """The fast routes at (p, n), grouped by the computation they share:
    ``(names, route, planned)`` for each group, in ``_FAST_ROUTES`` order
    of each group's first name.  A matrix route makes its plan now and
    joins the first group whose plan equals its own, compared by value,
    ``planned`` being that group's ``(ring, plan)``; any other route, the
    recurrence or one patched into ``ROUTES``, is a group of its own, with
    ``planned`` None.  ``ROUTES`` and the builders are read now, so a
    patched one is used."""
    groups = []
    for name in _FAST_ROUTES:
        route = ROUTES[name]
        planned = route.plan(p, n) if isinstance(route, _MatrixRoute) else None
        for names, _, other in groups:
            if planned and other and other[1] == planned[1]:
                names.append(name)
                break
        else:
            groups.append(([name], route, planned))
    return groups


def _by_name(groups, shared: list) -> dict:
    """Each fast route's name mapped to its group's entry in ``shared``,
    in ``_FAST_ROUTES`` order."""
    values = {}
    for (names, _, _), value in zip(groups, shared):
        values.update(dict.fromkeys(names, value))
    return {name: values[name] for name in _FAST_ROUTES}


def cross_check(p: int, n: int) -> CrossCheckReport:
    """Compare each of the four order-n matrix routes with the recurrence
    value G(p, n+1).  Matrix routes with equal plans share one value and
    one conversion: each group of ``_groups`` computes its value once, by
    ``evaluators._last`` (by columns for the paper matrices), and every
    route in it reads that ``BivarPoly``."""
    _check_args(p, n, n_min=1)
    groups = _groups(p, n + 1)
    shared = [
        route(p, n + 1) if planned is None else _last(*planned, n)
        for _, route, planned in groups
    ]
    return _report(p, n, _by_name(groups, shared))


def cross_check_prefix(p: int, n: int) -> Iterator[CrossCheckReport]:
    """An iterator over ``cross_check(p, k)`` for k = 1..n, in order, from
    one pass of each group of ``_groups``: the recurrence up to G(p, n+1),
    and ``_run`` once over each distinct plan of the four order-n matrices.
    The streams are walked in lockstep, and a stream that ends before the
    others raises ValueError.  Each report converts only its own values,
    each group's once by its kernel's ``poly`` (the recurrence's by its
    own), so memory stays O(p * terms) per stream whatever n is."""
    _check_args(p, n, n_min=1)
    groups = _groups(p, n + 1)
    streams = [
        route.prefix(p, n + 1) if planned is None else _stream(*planned)
        for _, route, planned in groups
    ]
    return _reports(p, groups, streams)


def _reports(p: int, groups, streams: list[tuple[Callable, Iterator]]) -> Iterator[CrossCheckReport]:
    # from G(p, 2); strict, so a stream that runs short fails the grid
    cells = islice(zip(*(values for _, values in streams), strict=True), 1, None)
    for k, raw in enumerate(cells, 1):
        shared = [poly(v, k) for (poly, _), v in zip(streams, raw)]
        yield _report(p, k, _by_name(groups, shared))
