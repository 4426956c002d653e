"""Gaussian integer and bivariate polynomial arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibhess import build_h, build_w, det_hessenberg, f_poly, per_hessenberg
from fibhess.ring import (
    GI_ZERO,
    ONE,
    X,
    Y,
    ZERO,
    BivarPoly,
    GaussianInt,
    i_pow,
    sum_of_products,
)


def poly(terms):
    return BivarPoly(terms)


# --- GaussianInt -------------------------------------------------------


def test_gaussian_mul_rule():
    # (a+bi)(c+di) = (ac-bd) + (ad+bc)i
    assert GaussianInt(1, 2) * GaussianInt(3, 4) == GaussianInt(-5, 10)


def test_gaussian_i_squared():
    assert GaussianInt(0, 1) * GaussianInt(0, 1) == GaussianInt(-1, 0)


def test_gaussian_neg_sub():
    a = GaussianInt(3, -7)
    assert a + (-a) == GaussianInt(0, 0)
    assert a - a == GaussianInt(0, 0)


def test_gaussian_str():
    assert str(GaussianInt(2, 3)) == "2+3i"
    assert str(GaussianInt(0, 1)) == "i"
    assert str(GaussianInt(0, -1)) == "-i"
    assert str(GaussianInt(0, -2)) == "-2i"
    assert str(GaussianInt(5, 0)) == "5"
    assert str(GaussianInt(1, -1)) == "1-i"


def test_gaussian_pow():
    g = GaussianInt(2, -3)
    assert g**3 == g * g * g
    assert GaussianInt(1, 1) ** 4 == GaussianInt(-4, 0)
    assert GaussianInt(7, 5) ** 0 == GaussianInt(1, 0)
    with pytest.raises(ValueError):
        GaussianInt(0, 1) ** -1


def test_i_pow_table():
    assert i_pow(0) == GaussianInt(1, 0)
    assert i_pow(1) == GaussianInt(0, 1)
    assert i_pow(2) == GaussianInt(-1, 0)
    assert i_pow(3) == GaussianInt(0, -1)
    assert i_pow(4) == GaussianInt(1, 0)


def test_i_pow_homomorphism():
    for p in range(17):
        for q in range(17):
            assert i_pow(p) * i_pow(q) == i_pow(p + q)


def test_i_pow_rejects_negative():
    with pytest.raises(ValueError):
        i_pow(-1)


# --- polynomial basics --------------------------------------------------


def test_add_cancellation():
    assert (X + Y) + (X - Y) == X.scale(2)


def test_add_zero_identity():
    p = poly({(2, 1): 3, (0, 0): GaussianInt(0, 1)})
    assert ZERO + p == p
    assert p + ZERO == p


def test_add_imaginary_coeffs():
    ix = X.scale(GaussianInt(0, 1))
    assert ix + ix == X.scale(GaussianInt(0, 2))


def test_mul_exponent_addition():
    assert X * X == poly({(2, 0): 1})


def test_mul_i_times_i():
    i_const = BivarPoly.constant(GaussianInt(0, 1))
    assert i_const * i_const == BivarPoly.constant(-1)
    assert X.scale(GaussianInt(0, 1)) * Y.scale(GaussianInt(0, 1)) == -(X * Y)


def test_mul_difference_of_squares():
    assert (X + Y) * (X - Y) == poly({(2, 0): 1, (0, 2): -1})
    assert len({(X + Y) * (X - Y), X * X - Y * Y}) == 1


def test_canonical_no_zero_terms():
    p = poly({(1, 0): 1}) - poly({(1, 0): 1})
    assert p.is_zero()
    assert p == ZERO
    assert p.terms() == []


@pytest.mark.parametrize(
    "cancelled, kept",
    [(GaussianInt(1, 0), GaussianInt(0, 1)), (GaussianInt(0, 1), GaussianInt(1, 0))],
)
def test_partial_cancellation_keeps_the_other_part(cancelled, kept):
    p = X.scale(GaussianInt(1, 1)) - X.scale(cancelled)
    assert p.terms() == [((1, 0), kept)]
    assert p.coeff(1, 0) == kept
    assert p.is_real() is (kept.im == 0)
    assert p == X.scale(kept)


def test_pow():
    assert (X + ONE) ** 2 == poly({(2, 0): 1, (1, 0): 2, (0, 0): 1})
    assert X**0 == ONE


# --- input types at the ring boundary -------------------------------------


@pytest.mark.parametrize("mono", [(0.5, 0), (0, 1.0), ("1", 0)])
def test_non_int_exponent_rejected(mono):
    with pytest.raises(TypeError):
        BivarPoly({mono: 1})


@pytest.mark.parametrize("coeff", [GaussianInt(1.5, 0), GaussianInt(0, 2.0)])
def test_non_int_gaussian_part_rejected(coeff):
    with pytest.raises(TypeError):
        BivarPoly({(0, 0): coeff})
    with pytest.raises(TypeError):
        X.scale(coeff)


@pytest.mark.parametrize(
    "expr", ["X * 3", "3 * X", "X + 1", "1 + X", "X - 1", "1 - X", "X * GaussianInt(0, 1)"]
)
def test_operators_reject_non_polys(expr):
    with pytest.raises(TypeError):
        eval(expr, {"X": X, "GaussianInt": GaussianInt})


# --- the multiply-accumulate kernel ---------------------------------------


def test_sum_of_products_of_no_pairs_is_zero():
    assert sum_of_products(()) == ZERO
    assert sum_of_products(iter([])).is_zero()


def test_cancellation_across_pairs_is_canonical_zero():
    r = sum_of_products(((X, Y), (-X, Y)))
    assert r.is_zero()
    assert r == ZERO
    assert hash(r) == hash(ZERO)
    assert r.terms() == []


# --- substitution and evaluation ----------------------------------------


def test_substitute_term_list_example():
    p = Y + X**4
    assert p.substitute(X, ONE) == ONE + X**4


def test_substitute_single_variable():
    assert X.substitute(X.scale(2), -ONE) == X.scale(2)


def test_substitute_constant_point():
    p = poly({(1, 1): 2, (5, 0): 1})  # 2xy + x^5
    assert p.substitute(ONE, BivarPoly.constant(2)) == BivarPoly.constant(5)


def test_substitute_identity():
    p = poly({(3, 2): GaussianInt(1, -4), (0, 1): 7})
    assert p.substitute(X, Y) == p


def test_eval_at():
    p = poly({(1, 1): 2, (5, 0): 1})  # 2xy + x^5
    assert p.eval_at(1, 1) == GaussianInt(3, 0)
    assert ZERO.eval_at(123, -456) == GaussianInt(0, 0)
    q = Y + X**5
    assert q.eval_at(2, 1) == GaussianInt(33, 0)


# --- rendering -----------------------------------------------------------


def test_render_descending_order():
    p = poly({(1, 1): 2, (5, 0): 1})
    assert str(p) == "x^5 + 2*x*y"


def test_render_negative_and_constant():
    p = poly({(2, 0): 4, (0, 0): -1})
    assert str(p) == "4*x^2 - 1"


def test_render_zero_and_units():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(-X) == "-x"
    assert str(X.scale(GaussianInt(0, 1))) == "i*x"
    assert str(Y.scale(GaussianInt(0, -1))) == "-i*y"
    assert str(BivarPoly.constant(GaussianInt(1, 2)) * X) == "(1+2i)*x"


# --- ring laws (random) ---------------------------------------------------

coeffs = st.builds(
    GaussianInt,
    st.integers(min_value=-10, max_value=10),
    st.integers(min_value=-10, max_value=10),
)
monomials = st.tuples(
    st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
)
polys = st.dictionaries(monomials, coeffs, max_size=5).map(BivarPoly)
points = st.integers(min_value=-5, max_value=5)


@settings(max_examples=200)
@given(polys, polys)
def test_law_add_commutative(a, b):
    assert a + b == b + a
    assert hash(a + b) == hash(b + a)


@settings(max_examples=200)
@given(polys, polys, polys)
def test_law_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@settings(max_examples=200)
@given(polys, polys)
def test_law_mul_commutative(a, b):
    assert a * b == b * a
    assert hash(a * b) == hash(b * a)


@settings(max_examples=200)
@given(polys, polys, polys)
def test_law_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=200)
@given(polys, polys, polys)
def test_law_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=200)
@given(polys)
def test_law_identities_and_inverse(a):
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO


@settings(max_examples=200)
@given(polys, polys, points, points)
def test_eval_is_ring_homomorphism(a, b, x0, y0):
    assert (a * b).eval_at(x0, y0) == a.eval_at(x0, y0) * b.eval_at(x0, y0)
    assert (a + b).eval_at(x0, y0) == a.eval_at(x0, y0) + b.eval_at(x0, y0)


gaussian_points = st.builds(GaussianInt, points, points)


@settings(max_examples=200)
@given(st.lists(st.tuples(polys, polys), max_size=4), gaussian_points, gaussian_points)
def test_sum_of_products_matches_gaussian_evaluation(pairs, x0, y0):
    # eval_at computes in GaussianInt arithmetic, not through the kernel
    expected = GI_ZERO
    for a, b in pairs:
        expected = expected + a.eval_at(x0, y0) * b.eval_at(x0, y0)
    assert sum_of_products(pairs).eval_at(x0, y0) == expected


@settings(max_examples=200)
@given(polys)
def test_substitute_identity_property(a):
    assert a.substitute(X, Y) == a


def test_ring_hot_path_builds_no_gaussian_ints(monkeypatch):
    # coefficients are plain ints inside the ring; GaussianInt is built only
    # at its boundary (input, terms(), coeff(), eval_at)
    w, h = build_w(2, 60), build_h(2, 60)
    built = []
    init = GaussianInt.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GaussianInt, "__init__", counting_init)
    values = f_poly(2, 60), det_hessenberg(w), per_hessenberg(h)
    assert built == []
    assert values[1] == values[2] == f_poly(2, 61)
