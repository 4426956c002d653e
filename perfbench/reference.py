"""Closed-form reference values, in plain ints, and the exact comparison.

    G(p, n) = sum_k C(n-1-pk, k) * x^(n-1-(p+1)k) * y^k,  0 <= k <= (n-1)/(p+1),

with G(p, 0) = 0.  Nothing here imports fibhess or uses its polynomial ring,
so a ring bug cannot make the library's routes and this reference agree on a
wrong answer.  Term maps are dicts {(xexp, yexp): coefficient}; a library
result is read into {(xexp, yexp): (re, im)} through its public term list or
the CLI's JSON encoding.
"""

from __future__ import annotations

from math import comb

# name -> (fixed p or None, x -> cx * x^ex, y -> cy * y^ey, index offset).
# Written out from the paper's definitions, independently of fibhess.FAMILIES.
FAMILIES = {
    "fibonacci-bivariate": (1, (1, 1), (1, 1), 0),
    "fibonacci-p-poly": (None, (1, 1), (1, 0), 0),
    "fibonacci-poly": (1, (1, 1), (1, 0), 0),
    "fibonacci-p-numbers": (None, (1, 0), (1, 0), 0),
    "fibonacci-numbers": (1, (1, 0), (1, 0), 0),
    "pell-bivariate-p": (None, (2, 1), (1, 1), 0),
    "pell-bivariate": (1, (2, 1), (1, 1), 0),
    "pell-p-poly": (None, (2, 1), (1, 0), 0),
    "pell-poly": (1, (2, 1), (1, 0), 0),
    "pell-numbers": (1, (2, 0), (1, 0), 0),
    "chebyshev-U": (1, (2, 1), (-1, 0), 1),
    "jacobsthal-bivariate-p": (None, (1, 1), (2, 1), 0),
    "jacobsthal-bivariate": (1, (1, 1), (2, 1), 0),
    "jacobsthal-poly": (1, (1, 0), (2, 1), 0),
    "jacobsthal-numbers": (1, (1, 0), (2, 0), 0),
}


def g_terms(p: int, n: int) -> dict[tuple[int, int], int]:
    """Term map of G(p, n)."""
    if n < 1:
        return {}
    return {
        (n - 1 - (p + 1) * k, k): comb(n - 1 - p * k, k)
        for k in range((n - 1) // (p + 1) + 1)
    }


def family_terms(name: str, n: int, p: int) -> dict[tuple[int, int], int]:
    """Term map of the n-th member of a family; ``p`` is used only where the
    family leaves it free."""
    fixed_p, (cx, ex), (cy, ey), offset = FAMILIES[name]
    out: dict[tuple[int, int], int] = {}
    for (a, k), c in g_terms(fixed_p or p, n + offset).items():
        mono = (ex * a, ey * k)
        out[mono] = out.get(mono, 0) + c * cx**a * cy**k
    return {mono: c for mono, c in out.items() if c}


def fib_p_number(p: int, n: int) -> int:
    """G(p, n) at x = y = 1."""
    return sum(g_terms(p, n).values())


def from_poly(poly) -> dict[tuple[int, int], tuple[int, int]]:
    """Read a fibhess polynomial through its public term list."""
    return {mono: (c.re, c.im) for mono, c in poly.terms()}


def from_json(terms: list[dict]) -> dict[tuple[int, int], tuple[int, int]]:
    """Read the CLI's JSON term list; a repeated monomial is an error."""
    out = {(int(t["xexp"]), int(t["yexp"])): (int(t["re"]), int(t["im"])) for t in terms}
    if len(out) != len(terms):
        raise ValueError("JSON term list repeats a monomial")
    return out


def diff(got: dict[tuple[int, int], tuple[int, int]], want: dict[tuple[int, int], int]) -> str | None:
    """The first difference between a result and the reference, or None.

    The reference holds no zero coefficients, so a monomial present on one
    side only is a difference whatever its coefficient."""
    for mono in sorted(got.keys() | want.keys(), reverse=True):
        if mono not in got or mono not in want or got[mono] != (want[mono], 0):
            got_c = f"{got[mono][0]}{got[mono][1]:+d}i" if mono in got else "absent"
            return f"term x^{mono[0]} y^{mono[1]}: got {got_c}, want {want.get(mono, 'absent')}"
    return None


def size(got: dict[tuple[int, int], tuple[int, int]]) -> tuple[int, int]:
    """(number of terms, largest coefficient part in bits)."""
    bits = max((max(abs(re).bit_length(), abs(im).bit_length()) for re, im in got.values()), default=0)
    return len(got), bits
