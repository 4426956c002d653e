"""Exact arithmetic: Gaussian integers and bivariate polynomials over them.

Everything here is immutable and pure.  Coefficients are Gaussian integers
(a + bi with arbitrary-precision int parts) because the W and H matrix
families carry the imaginary unit in their entries.  A polynomial is stored
as an integer polynomial in x, y and i reduced by i^2 = -1: a term map
{(xexp, yexp, iexp): int} with iexp in {0, 1}, so the coefficient a + bi of
x^xexp y^yexp is held as a at iexp 0 and b at iexp 1.  The map never holds
a zero, so equality is plain structural equality, and add, mul and neg are
loops over plain ints.  ``GaussianInt`` values are built only at the
boundary: constructor input, ``terms()``, ``coeff()`` and ``eval_at``.

All multiplication goes through one kernel, ``sum_of_products``: it adds
the products of any number of pairs into one scratch term map and drops
the zeros once at the end.  ``a * b`` is its one-pair case, and a
recursion step such as x*G(n-1) + y*G(n-p-1) is one call, so the step
builds no intermediate product polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass

# Exponent pair (xexp, yexp).  Tuple comparison gives the lexicographic
# order used for canonical (descending) term ordering.
Monomial = tuple[int, int]
# Stored term key (xexp, yexp, iexp), iexp in {0, 1}.
_Term = tuple[int, int, int]


def _power(base, k: int, one):
    """base**k by square-and-multiply, for k >= 0."""
    if k < 0:
        raise ValueError("negative exponent")
    result = one
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


@dataclass(frozen=True)
class GaussianInt:
    """A Gaussian integer a + bi with exact integer parts."""

    re: int = 0
    im: int = 0

    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussianInt":
        return GaussianInt(-self.re, -self.im)

    def __pow__(self, k: int) -> "GaussianInt":
        return _power(self, k, GI_ONE)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def conjugate(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        mag = abs(self.im)
        imag = ("-" if self.im < 0 else "+") + ("i" if mag == 1 else f"{mag}i")
        return imag.lstrip("+") if self.re == 0 else f"{self.re}{imag}"


GI_ZERO = GaussianInt(0, 0)
GI_ONE = GaussianInt(1, 0)
GI_I = GaussianInt(0, 1)

_I_CYCLE = (GaussianInt(1, 0), GaussianInt(0, 1), GaussianInt(-1, 0), GaussianInt(0, -1))


def i_pow(p: int) -> GaussianInt:
    """i**p for p >= 0; cycles through 1, i, -1, -i with period 4."""
    if p < 0:
        raise ValueError("exponent must be nonnegative")
    return _I_CYCLE[p % 4]


def _as_gaussian(c) -> GaussianInt:
    if isinstance(c, GaussianInt):
        if not (isinstance(c.re, int) and isinstance(c.im, int)):
            raise TypeError(f"Gaussian integer parts must be int, got {c!r}")
        return c
    if isinstance(c, int):
        return GaussianInt(c, 0)
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


class BivarPoly:
    """Canonical bivariate polynomial in x, y over the Gaussian integers.

    The term map never stores a zero coefficient; the zero polynomial has
    an empty term map.  Instances are immutable and hashable.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        canonical: dict[_Term, int] = {}
        if terms:
            for (xe, ye), coeff in terms.items():
                if not (isinstance(xe, int) and isinstance(ye, int)):
                    raise TypeError(f"exponents must be int, got {(xe, ye)!r}")
                if xe < 0 or ye < 0:
                    raise ValueError("exponents must be nonnegative")
                c = _as_gaussian(coeff)
                for ie, part in ((0, c.re), (1, c.im)):
                    if part:
                        canonical[(xe, ye, ie)] = part
        self._terms = canonical
        self._hash = None

    # --- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c) -> "BivarPoly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, coeff, xexp: int, yexp: int) -> "BivarPoly":
        return cls({(xexp, yexp): coeff})

    # --- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[Monomial, GaussianInt]]:
        """Terms in canonical descending lexicographic order."""
        monos = sorted({(xe, ye) for xe, ye, _ in self._terms}, reverse=True)
        return [(mono, self.coeff(*mono)) for mono in monos]

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
        result = ZERO
        for (xe, ye), c in self.terms():
            result = result + (xsub**xe * ysub**ye).scale(c)
        return result

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
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for (xe, ye), c in self.terms():
            body = "*".join(
                s
                for s in (_var_str("x", xe), _var_str("y", ye))
                if s
            )
            coeff_str, sign = _coeff_str(c, bool(body))
            term = f"{coeff_str}*{body}" if (coeff_str and body) else (coeff_str or body or "1")
            if not parts:
                parts.append(term if sign >= 0 else f"-{term}")
            else:
                parts.append(f"{'+' if sign >= 0 else '-'} {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"BivarPoly({self})"


def _var_str(name: str, exp: int) -> str:
    if exp == 0:
        return ""
    if exp == 1:
        return name
    return f"{name}^{exp}"


def _coeff_str(c: GaussianInt, has_vars: bool) -> tuple[str, int]:
    """Render a coefficient for one term; returns (text, sign).

    The sign is pulled out for real and purely imaginary coefficients so
    terms join with " + " / " - "; mixed complex coefficients keep sign
    inside parentheses.
    """
    if c.im == 0:
        sign = 1 if c.re >= 0 else -1
        mag = abs(c.re)
        if mag == 1 and has_vars:
            return "", sign
        return str(mag), sign
    if c.re == 0:
        sign = 1 if c.im >= 0 else -1
        return str(GaussianInt(0, abs(c.im))), sign
    return f"({c})", 1


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
    p._hash = None
    return p


ZERO = BivarPoly()
ONE = BivarPoly({(0, 0): 1})
X = BivarPoly({(1, 0): 1})
Y = BivarPoly({(0, 1): 1})
