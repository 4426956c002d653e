"""Exact arithmetic: Gaussian integers and bivariate polynomials over them.

Everything here is immutable and pure.  Coefficients are Gaussian integers
(a + bi with arbitrary-precision int parts) because the W and H matrix
families carry the imaginary unit in their entries.  A polynomial is stored
as an integer polynomial in x, y and i reduced by i^2 = -1: a term map
{(xexp, yexp, iexp): int} with iexp in {0, 1}, so the coefficient a + bi of
x^xexp y^yexp is held as a at iexp 0 and b at iexp 1.  The map never holds
a zero, so equality is plain structural equality, and add, mul and neg are
loops over plain ints.  ``GaussianInt`` values are built only at the
boundary: constructor and ``scale`` input, ``terms()`` (which
``substitute`` reads), ``coeff()`` and ``eval_at``.  ``term_parts()``
reads the same terms as plain ints, and ``str()`` renders from it: one
formatter writes re + im*i for a ``GaussianInt`` and for a polynomial's
coefficients alike.  A bool part or exponent is accepted as an int and
stored as a plain int.  ``GaussianInt`` and the library's other record
types share one immutable base, ``Frozen``.

All ``BivarPoly`` multiplication goes through one kernel,
``sum_of_products``: it adds the products of any number of pairs into one
scratch term map and drops the zeros once at the end.  ``a * b`` is its
one-pair case, and a recursion step such as x*G(n-1) + y*G(n-p-1) is one
call, so the step builds no intermediate product polynomials.

The Hessenberg recursion of ``evaluators`` is written once over a small
ring interface (one, unit, scalar, times, coefficient, sum_of_products,
poly) with two implementations: ``PolyKernel`` on ``BivarPoly`` itself,
and ``GradedKernel`` on weighted-homogeneous values, where x has weight 1
and y weight w.  ``coefficient(entry, scalar)`` is a matrix entry times a
scalar in the kernel's own form, made once and read by any number of
``sum_of_products`` calls over ``(coefficient, value)`` pairs: a matrix
row that repeats the row above reuses its coefficients.  On
``PolyKernel`` a coefficient is the product ``entry * scalar`` and
``sum_of_products`` is the ring's own.  Every leading minor of the
W/M/H/K matrices is such a value for w = p + 1.  The kernel serves that
recursion only: ``sequences`` computes G itself in plain ints, and
converts its own values, so the recurrence shares no arithmetic with the
matrix routes.  A graded value of degree d is fixed by its
coefficient of x^(d - w*j) y^j for each y-degree j, so it is a dense list
of plain ints indexed by j, and a second list for the imaginary parts,
empty until a step makes one: no exponent is stored or hashed,
multiplying by x is free, and multiplying by y shifts the list.  A graded
``sum_of_products`` builds each part from its terms in order: a first term
1 * v at shift 0 is v's own list, shared, not copied; the next term into a
shared list builds one new list in one pass, and later terms add into that
new list in place.  No list a value holds is changed, so values may share
lists.  ``GradedKernel.poly`` is the kernel's one way back to a
``BivarPoly``.  ``kernel_for`` picks the kernel from the factors a
recursion will read and the degree each one must have: the graded kernel
when one y-weight fits them all, else ``PolyKernel``.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import repeat
from operator import add, attrgetter, mul

# Exponent pair (xexp, yexp).  Tuple comparison gives the lexicographic
# order used for canonical (descending) term ordering.
Monomial = tuple[int, int]
# Stored term key (xexp, yexp, iexp), iexp in {0, 1}.
_Term = tuple[int, int, int]


def check_count(name: str, value, least: int) -> None:
    """Raise TypeError unless ``value`` is an int (a bool is one) and
    ValueError if it is below ``least``; ``name`` is the argument's name."""
    if not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _power(base, k: int, one):
    """base**k by square-and-multiply, for k >= 0."""
    check_count("exponent", k, 0)
    result = one
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


class _DataclassFields:
    """The ``dataclasses`` field table of a ``Frozen`` class, made when it is
    asked for, so that ``dataclasses.fields``, ``replace`` and ``asdict``
    apply to the record types while importing this module imports no
    ``dataclasses`` (which loads ``inspect`` and ``ast``)."""

    def __get__(self, obj, cls):
        import dataclasses  # loaded already by whoever calls its helpers

        return dataclasses.make_dataclass(cls.__name__, cls.__slots__).__dataclass_fields__


class Frozen:
    """Base of the immutable record types.

    A subclass names its fields, two or more, in ``__slots__``, in
    constructor order, and its own ``__init__`` checks its arguments and
    passes the field values to this one.  An instance equals only an
    instance of its own class with equal fields, hashes as the tuple of its
    fields, shows as ``Name(field=value, ...)``, copies and pickles through
    its constructor, and raises AttributeError on assignment.
    """

    __slots__ = ()
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls) -> None:
        # _values: the tuple of the fields, read by one attrgetter made
        # here (of two or more names, so it gives a tuple)
        cls._values = property(attrgetter(*cls.__slots__))

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class GaussianInt(Frozen):
    """A Gaussian integer a + bi with exact integer parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: int = 0, im: int = 0) -> None:
        if not (isinstance(re, int) and isinstance(im, int)):
            name, part = ("im", im) if isinstance(re, int) else ("re", re)
            raise TypeError(f"{name} must be an int, got {part!r}")
        super().__init__(int(re), int(im))

    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        if not isinstance(other, GaussianInt):
            return NotImplemented
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianInt") -> "GaussianInt":
        if not isinstance(other, GaussianInt):
            return NotImplemented
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        if not isinstance(other, GaussianInt):
            return NotImplemented
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianInt":
        return GaussianInt(-self.re, -self.im)

    def __pow__(self, k: int) -> "GaussianInt":
        return _power(self, k, GI_ONE)

    def __str__(self) -> str:
        return _gaussian_str(self.re, self.im)


GI_ZERO = GaussianInt(0, 0)
GI_ONE = GaussianInt(1, 0)
GI_I = GaussianInt(0, 1)

_I_CYCLE = (GaussianInt(1, 0), GaussianInt(0, 1), GaussianInt(-1, 0), GaussianInt(0, -1))


def i_pow(p: int) -> GaussianInt:
    """i**p for p >= 0; cycles through 1, i, -1, -i with period 4."""
    check_count("p", p, 0)
    return _I_CYCLE[p % 4]


def _as_gaussian(c) -> GaussianInt:
    if isinstance(c, GaussianInt):
        return c
    if isinstance(c, int):
        return GaussianInt(c, 0)
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


class BivarPoly:
    """Canonical bivariate polynomial in x, y over the Gaussian integers.

    The term map never stores a zero coefficient; the zero polynomial has
    an empty term map.  Instances are immutable and hashable; the hash is
    computed from the term map on each call, not cached.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        canonical: dict[_Term, int] = {}
        if terms is not None:
            if not isinstance(terms, Mapping):
                raise TypeError(f"terms must be a mapping, got {terms!r}")
            for key, coeff in terms.items():
                if not (isinstance(key, tuple) and len(key) == 2):
                    raise TypeError(f"term key must be an (xexp, yexp) pair, got {key!r}")
                xe, ye = key
                check_count("x exponent", xe, 0)
                check_count("y exponent", ye, 0)
                c = _as_gaussian(coeff)
                for ie, part in ((0, c.re), (1, c.im)):
                    if part:
                        canonical[(int(xe), int(ye), ie)] = part
        self._terms = canonical

    # --- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c) -> "BivarPoly":
        return cls({(0, 0): c})

    # --- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[Monomial, GaussianInt]]:
        """Terms in canonical descending lexicographic order."""
        return [((xe, ye), GaussianInt(re, im)) for xe, ye, re, im in self.term_parts()]

    def term_parts(self) -> list[tuple[int, int, int, int]]:
        """``(xexp, yexp, re, im)`` for each term re + im*i times
        x^xexp y^yexp, in the canonical order of ``terms()``, read straight
        from the term map."""
        get = self._terms.get
        monos = sorted({(xe, ye) for xe, ye, _ in self._terms}, reverse=True)
        return [(xe, ye, get((xe, ye, 0), 0), get((xe, ye, 1), 0)) for xe, ye in monos]

    def coeff(self, xexp: int, yexp: int) -> GaussianInt:
        get = self._terms.get
        return GaussianInt(get((xexp, yexp, 0), 0), get((xexp, yexp, 1), 0))

    def x_degree(self) -> int:
        return max((xe for xe, _, _ in self._terms), default=0)

    def is_real(self) -> bool:
        return not any(ie for _, _, ie in self._terms)

    # --- ring operations ----------------------------------------------

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        if not isinstance(other, BivarPoly):
            return NotImplemented
        out = dict(self._terms)
        for t, c in other._terms.items():
            s = out.get(t, 0) + c
            if s:
                out[t] = s
            else:
                del out[t]
        return _wrap(out)

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "BivarPoly":
        return _wrap({t: -c for t, c in self._terms.items()})

    def __mul__(self, other: "BivarPoly") -> "BivarPoly":
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return sum_of_products(((self, other),))

    def __pow__(self, k: int) -> "BivarPoly":
        return _power(self, k, ONE)

    def scale(self, c) -> "BivarPoly":
        return self * BivarPoly.constant(c)

    # --- substitution and evaluation ----------------------------------

    def substitute(self, xsub: "BivarPoly", ysub: "BivarPoly") -> "BivarPoly":
        """Replace x by xsub and y by ysub, fully expanded and canonical."""
        if not (isinstance(xsub, BivarPoly) and isinstance(ysub, BivarPoly)):
            raise TypeError("substitute takes two BivarPoly values")
        pairs = ((xsub**xe * ysub**ye, BivarPoly.constant(c)) for (xe, ye), c in self.terms())
        return sum_of_products(pairs)

    def eval_at(self, x0, y0) -> GaussianInt:
        """Exact value of the polynomial at a Gaussian-integer point,
        computed in ``GaussianInt`` arithmetic rather than the ring's own."""
        x0 = _as_gaussian(x0)
        y0 = _as_gaussian(y0)
        total = GI_ZERO
        for (xe, ye), c in self.terms():
            total = total + c * x0**xe * y0**ye
        return total

    # --- equality, hashing, rendering ---------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for xe, ye, re, im in self.term_parts():
            names = [s for s in (_var_str("x", xe), _var_str("y", ye)) if s]
            # a real or purely imaginary coefficient gives its sign to the
            # join; a mixed one keeps it inside parentheses
            if re and im:
                sign, coeff = "+", f"({_gaussian_str(re, im)})"
            else:
                sign, coeff = "-" if re + im < 0 else "+", _gaussian_str(abs(re), abs(im))
            factors = names if coeff == "1" and names else [coeff, *names]
            parts.append(f"{sign} {'*'.join(factors)}")
        text = " ".join(parts)  # the first term keeps only a minus, unspaced
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __repr__(self) -> str:
        return f"BivarPoly({self})"


def _var_str(name: str, exp: int) -> str:
    if exp == 0:
        return ""
    if exp == 1:
        return name
    return f"{name}^{exp}"


def _gaussian_str(re: int, im: int) -> str:
    """re + im*i as text: "2+3i", "1-i", "5", "i", "-2i"."""
    if not im:
        return str(re)
    imag = ("-" if im < 0 else "+") + ("i" if abs(im) == 1 else f"{abs(im)}i")
    return imag.lstrip("+") if not re else f"{re}{imag}"


def sum_of_products(pairs) -> BivarPoly:
    """a1*b1 + a2*b2 + ... over an iterable of (BivarPoly, BivarPoly) pairs.

    Every product is added straight into one scratch term map, and zeros
    are dropped once at the end.  Each pair loops over its operand with
    fewer terms on the outside, and the sign an i*i product takes is
    settled once per outer term.
    """
    out: dict[_Term, int] = {}
    get = out.get
    for a, b in pairs:
        small, big = a._terms, b._terms
        if len(small) > len(big):
            small, big = big, small
        big = big.items()
        for (xa, ya, ia), ca in small.items():
            both_i = -ca if ia else ca  # factor for an i-term of the other operand
            for (xb, yb, ib), cb in big:
                t = (xa + xb, ya + yb, ia ^ ib)
                out[t] = get(t, 0) + (both_i if ib else ca) * cb
    for t in [t for t, c in out.items() if not c]:
        del out[t]
    return _wrap(out)


def _wrap(terms: dict[_Term, int]) -> BivarPoly:
    # Internal fast path: terms are already canonical.
    p = BivarPoly.__new__(BivarPoly)
    p._terms = terms
    return p


ZERO = BivarPoly()
ONE = BivarPoly({(0, 0): 1})
X = BivarPoly({(1, 0): 1})
Y = BivarPoly({(0, 1): 1})


class PolyKernel:
    """The ring interface of ``BivarPoly`` for a recursion written once
    over both kernels: a value and a scalar are ``BivarPoly`` too, and
    every product is ``*``."""

    one = unit = ONE

    @staticmethod
    def scalar(e: BivarPoly, negate: bool) -> BivarPoly:
        return -e if negate else e

    times = coefficient = staticmethod(mul)
    sum_of_products = staticmethod(sum_of_products)

    @staticmethod
    def poly(value: BivarPoly, degree: int) -> BivarPoly:
        return value


class GradedKernel:
    """The same ring interface on graded values, for weighted-homogeneous
    polynomials: x has weight 1 and y has weight ``w`` >= 1.

    A value of degree d is fixed by its coefficient of x^(d - w*j) y^j for
    each y-degree j, so it is held as ``(re, im)``: dense lists of the real
    and imaginary parts of those coefficients, ``im`` empty until a step
    makes an imaginary part.  No x-exponent is stored; the caller knows each
    value's degree.  A scalar (weight 0) is a pair ``(re, im)`` of ints.  A
    factor, such as a matrix entry, stays a graded ``BivarPoly``, and the
    factor times a scalar is its coefficient: one ``(j, re, im)`` for each
    term c*x^a*y^j, which multiplies a value by re + im*i and shifts its
    lists by j, so a sum of products is a few list adds.  A value may share
    a list with another: a sum's part whose first term is 1 * v at shift 0
    is v's list itself, and only a list the sum made itself is added into
    in place.  No list a value holds is changed.
    """

    one = ([1], [])
    unit = (1, 0)

    def __init__(self, w: int):
        self.w = w

    @staticmethod
    def scalar(e: BivarPoly, negate: bool) -> tuple[int, int]:
        """A constant ``BivarPoly``, or its negative, as ``(re, im)``."""
        get = e._terms.get
        re, im = get((0, 0, 0), 0), get((0, 0, 1), 0)
        return (-re, -im) if negate else (re, im)

    @staticmethod
    def times(s: tuple[int, int], t: tuple[int, int]) -> tuple[int, int]:
        return s[0] * t[0] - s[1] * t[1], s[0] * t[1] + s[1] * t[0]

    @staticmethod
    def coefficient(f: BivarPoly, s: tuple[int, int]) -> list[tuple[int, int, int]]:
        """A graded factor f times a scalar s, as one ``(j, re, im)`` for each
        monomial of f: its y-degree j and the parts of its coefficient times s."""
        sr, si = s
        return [(j, re * sr - im * si, re * si + im * sr) for _, j, re, im in f.term_parts()]

    @staticmethod
    def sum_of_products(pairs):
        """c1*v1 + c2*v2 + ... over (coefficient, value) pairs, as one value.

        Each part, re and im, starts empty and takes its terms in order
        through ``_add_scaled``: a first term 1 * v at shift 0 is v's own
        list, shared, a term into a shared list builds one new list, and
        later terms add into that new list in place.  No list a value holds
        is changed."""
        # whether each part is a list this call made: a part is shared
        # exactly when it is the list its last term read
        re, im = [], []
        re_own = im_own = True
        for coeff, (vr, vi) in pairs:
            for j, cr, ci in coeff:
                # (cr + ci*i)(vr + vi*i) = cr*vr - ci*vi + (cr*vi + ci*vr)*i
                if cr:
                    re = _add_scaled(re, re_own, j, cr, vr)
                    re_own = re is not vr
                if ci:
                    im = _add_scaled(im, im_own, j, ci, vr)
                    im_own = im is not vr
                if vi:
                    if ci:
                        re = _add_scaled(re, re_own, j, -ci, vi)
                        re_own = re is not vi
                    if cr:
                        im = _add_scaled(im, im_own, j, cr, vi)
                        im_own = im is not vi
        return re, im

    @staticmethod
    def seed(e: BivarPoly, var: str) -> tuple[int, int, int]:
        """``(k, re, im)`` for a ``BivarPoly`` c * var^k, where ``var`` is
        "x" or "y", k is 0 or 1 and c = re + im*i; the zero polynomial is the
        constant 0.  Read from the term map; ValueError for any other
        polynomial."""
        var_mono = (1, 0) if var == "x" else (0, 1)
        monos = {(xe, ye) for xe, ye, _ in e._terms}
        if len(monos) > 1 or not monos <= {(0, 0), var_mono}:
            raise ValueError(f"expected c or c*{var} for a Gaussian integer c, got {e}")
        mono = monos.pop() if monos else (0, 0)
        get = e._terms.get
        return int(mono == var_mono), get((*mono, 0), 0), get((*mono, 1), 0)

    def poly(self, value, degree: int) -> BivarPoly:
        """The ``BivarPoly`` of a graded value of the given degree, its term
        j read as x^(degree - w*j) * y^j."""
        w = self.w
        terms = {}
        for ie, part in enumerate(value):
            for j, c in enumerate(part):
                if c:
                    terms[(degree - w * j, j, ie)] = c
        return _wrap(terms)


def _add_scaled(out: list[int], own: bool, j: int, c: int, v: list[int]) -> list[int]:
    """The list of out[j + k] + c * v[k] for every k, with out's other
    entries as they are and zeros where ``out`` is short.  v is never
    changed, and ``out`` only where ``own`` says it is the caller's own
    list: it is then added into in place and returned.  An empty ``out``
    stands for zeros: 1 * v at j = 0 gives v itself, shared, and any other
    term a new list; a shared ``out`` gives a new list made in one pass.
    A pad is made only where one is needed: at a shift j > 0 into an empty
    ``out``, where v starts past a shared out's end, and where v ends past
    an own out's end; most adds need none."""
    part = v if c == 1 else map(mul, v, repeat(c))
    if not out:
        return v if part is v and not j else [*repeat(0, j), *part]
    end = j + len(v)
    if own:
        if end > len(out):
            out.extend(repeat(0, end - len(out)))
        out[j:end] = map(add, out[j:end], part)
        return out
    if end <= len(out):
        return [*out[:j], *map(add, out[j:end], part), *out[end:]]
    # past out's end: the sum runs out with out, and the rest of v's terms
    # follow it, after zeros where v starts past the end
    part = iter(part)
    return [*out[:j], *repeat(0, j - len(out)), *map(add, out[j:], part), *part]


def kernel_for(pairs):
    """The kernel for values built from ``(degree, e)`` pairs of a degree
    and a ``BivarPoly``: ``GradedKernel(w)`` for the one y-weight w >= 1
    under which every term x^a y^b of every e has weight a + w*b = degree
    (w = 1 when no term holds y), else ``PolyKernel``."""
    w = 0  # 0 until a term with y fixes it
    for degree, e in pairs:
        for xe, ye, _ in e._terms:
            if ye and not w:
                w, rest = divmod(degree - xe, ye)
                if rest or w < 1:
                    return PolyKernel
            elif xe + w * ye != degree:
                return PolyKernel
    return GradedKernel(w or 1)
