"""A second oracle that shares no arithmetic with fibhess: sympy.

The Hessenberg recursions and the recurrence run on the ring's kernels,
and ``det_oracle``/``per_oracle`` run on ``BivarPoly`` arithmetic, so a
ring bug could make every route agree on a wrong answer.  Here the
expected values are computed by sympy from entries read through the
public ``terms()`` only.  sympy is needed by these tests alone.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from fibhess.evaluators import det_hessenberg, det_oracle, per_hessenberg, per_oracle  # noqa: E402
from fibhess.matrices import build_h, build_k, build_m, build_w  # noqa: E402
from fibhess.ring import BivarPoly, GaussianInt  # noqa: E402
from matrix_shapes import SHAPES  # noqa: E402

x, y = sympy.symbols("x y")


def to_sympy(poly):
    return sympy.Add(
        *((c.re + c.im * sympy.I) * x**xe * y**ye for (xe, ye), c in poly.terms())
    )


def same(poly, expr):
    return sympy.expand(to_sympy(poly) - expr) == 0


def sympy_det(entries):
    """det by sympy's Berkowitz algorithm in Gaussian-integer polynomials:
    (-1)^n times the constant term of the characteristic polynomial."""
    m = DomainMatrix.from_Matrix(sympy.Matrix(entries)).convert_to(sympy.ZZ_I[x, y])
    return m.domain.to_sympy((-1) ** len(entries) * m.charpoly_berk()[-1])


def sympy_permanent(entries):
    """Permanent as a sum over permutations, built row by row over the
    sets of columns used so far, in sympy's Gaussian-integer polynomials."""
    n = len(entries)
    polys = [[sympy.Poly(e, x, y, domain=sympy.ZZ_I) for e in row] for row in entries]
    sums = {(): sympy.Poly(1, x, y, domain=sympy.ZZ_I)}
    for row in polys:
        nxt = {}
        for used, total in sums.items():
            for j in range(n):
                if j not in used and not row[j].is_zero:
                    key = tuple(sorted(used + (j,)))
                    term = total * row[j]
                    nxt[key] = nxt[key] + term if key in nxt else term
        sums = nxt
    return sums[tuple(range(n))].as_expr() if sums else sympy.Integer(0)


def gibson_det(entries):
    """det of a lower-Hessenberg matrix as the permanent of the same matrix
    with its superdiagonal negated (Gibson, Proc. AMS 27, 1971): each
    product of t superdiagonal entries then carries the sign (-1)^t.  It
    costs what a permanent costs, where Berkowitz is out of reach."""
    return sympy_permanent(
        [[-e if j == i + 1 else e for j, e in enumerate(row)] for i, row in enumerate(entries)]
    )


ORDERS = range(1, 8)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("builder", [build_w, build_m])
def test_det_matches_sympy(builder, p):
    for n in ORDERS:
        a = builder(p, n)
        expected = sympy_det([[to_sympy(e) for e in row] for row in a.rows()])
        assert same(det_hessenberg(a), expected), (builder.__name__, p, n)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("builder", [build_h, build_k])
def test_per_matches_sympy(builder, p):
    for n in ORDERS:
        a = builder(p, n)
        expected = sympy_permanent([[to_sympy(e) for e in row] for row in a.rows()])
        assert same(per_hessenberg(a), expected), (builder.__name__, p, n)


def test_sympy_permanent_agrees_with_sympy_per():
    # the permanent above is this file's own loop; pin it to sympy's
    a = build_h(2, 5)
    entries = [[to_sympy(e) for e in row] for row in a.rows()]
    assert sympy.expand(sympy_permanent(entries) - sympy.Matrix(entries).per()) == 0


@pytest.mark.parametrize("name", SHAPES)
def test_oracles_match_sympy_on_every_shape(name):
    # test_evaluators' oracle grid holds the recursion to the oracles on
    # every shape; this holds the oracles, fibhess code too, to sympy
    shape = SHAPES[name]
    for p in (1, 2):
        for n in range(shape.n_min, 7):
            a = shape.make(p, n)
            entries = [[to_sympy(e) for e in row] for row in a.rows()]
            assert same(det_oracle(a), sympy_det(entries)), (p, n)
            assert same(per_oracle(a), sympy_permanent(entries)), (p, n)


# the shape rows with a band at offset p, at any p: their windows are p + 1
# factors long, and the superdiagonal of the last two repeats irregularly
BAND_ROWS = (
    "build_w",
    "far_entry",
    "zero_superdiagonal_in_band",
    "two_constant_superdiagonal",
    "three_constant_superdiagonal",
)


def test_gibson_det_agrees_with_berkowitz():
    # the band-row test below takes its det from Gibson's identity; pin
    # that to Berkowitz at small orders, where Berkowitz is cheap
    for name in BAND_ROWS:
        for p, n in ((1, 6), (2, 7), (3, 5)):
            entries = [[to_sympy(e) for e in row] for row in SHAPES[name].make(p, n).rows()]
            assert sympy.expand(gibson_det(entries) - sympy_det(entries)) == 0, (name, p, n)


@pytest.mark.parametrize("n, p", [(24, 3), (28, 7), (32, 10)])
@pytest.mark.parametrize("name", BAND_ROWS)
def test_band_rows_match_sympy_at_orders_24_to_32(name, n, p):
    # the oracle grid stops at order 7, where a window is at most five
    # factors long; here the windows reach 11, and rows repeat the row above
    # only after a long run of equal superdiagonal scalars
    a = SHAPES[name].make(p, n)
    entries = [[to_sympy(e) for e in row] for row in a.rows()]
    assert same(det_hessenberg(a), gibson_det(entries))
    assert same(per_hessenberg(a), sympy_permanent(entries))


def random_poly(rng):
    return BivarPoly(
        {
            (rng.randint(0, 3), rng.randint(0, 3)): GaussianInt(
                rng.randint(-9, 9), rng.randint(-9, 9)
            )
            for _ in range(rng.randint(0, 5))
        }
    )


def to_sympy_poly(poly):
    return sympy.Poly.from_dict(
        {mono: sympy.ZZ_I(c.re, c.im) for mono, c in poly.terms()} or {(0, 0): 0},
        x,
        y,
        domain=sympy.ZZ_I,
    )


def test_ring_matches_sympy():
    rng = random.Random(23)
    for _ in range(60):
        a, b, xsub, ysub = (random_poly(rng) for _ in range(4))
        sa, sb, sx, sy = map(to_sympy_poly, (a, b, xsub, ysub))
        assert to_sympy_poly(a + b) == sa + sb
        assert to_sympy_poly(a - b) == sa - sb
        assert to_sympy_poly(a * b) == sa * sb
        substituted = sympy.Poly(0, x, y, domain=sympy.ZZ_I)
        for (xe, ye), c in sa.terms():
            substituted += (sx**xe * sy**ye).mul_ground(c)
        assert to_sympy_poly(a.substitute(xsub, ysub)) == substituted
