"""Gaussian integer and bivariate polynomial arithmetic."""

import operator
import random
from collections import deque

import pytest

from fibhess import (
    HessenbergMatrix,
    build_h,
    build_k,
    build_m,
    build_w,
    det_hessenberg,
    f_poly,
    per_hessenberg,
    ring,
    sequences,
)
from fibhess.ring import (
    GI_ZERO,
    ONE,
    X,
    Y,
    ZERO,
    BivarPoly,
    GaussianInt,
    GradedKernel,
    PolyKernel,
    i_pow,
    kernel_for,
    sum_of_products,
)


def poly(terms):
    return BivarPoly(terms)


@pytest.fixture
def gaussian_ints_built(monkeypatch):
    """The argument tuple of every GaussianInt built from here on."""
    built = []
    init = GaussianInt.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GaussianInt, "__init__", counting_init)
    return built


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
    assert str(GaussianInt(True, 0)) == "1"


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


@pytest.mark.parametrize("key", [1, (1,), (1, 2, 3)], ids=["int", "1-tuple", "3-tuple"])
def test_term_key_not_a_pair_rejected(key):
    # a key that cannot unpack into two exponents is a type error that
    # names the key, not an unpacking error
    with pytest.raises(TypeError) as info:
        BivarPoly({key: 1})
    assert str(info.value) == f"term key must be an (xexp, yexp) pair, got {key!r}"


@pytest.mark.parametrize(
    "coeff, message",
    [((1.5, 0), "re must be an int, got 1.5"), ((0, 2.0), "im must be an int, got 2.0")],
    ids=["coeff0", "coeff1"],
)
def test_non_int_gaussian_part_rejected(coeff, message):
    # a non-int part fails when the GaussianInt is made, naming the part,
    # so no BivarPoly, scale or product can receive one
    with pytest.raises(TypeError, match=f"^{message}$"):
        GaussianInt(*coeff)


def test_bool_input_is_stored_as_int():
    # a bool counts as an int, but what is stored is a plain int, so no
    # True leaks into text or JSON
    c = GaussianInt(True, False)
    assert (type(c.re), type(c.im)) == (int, int) and c == GaussianInt(1, 0)
    p = BivarPoly({(True, False): True})
    assert p == X and [type(v) for v in p.term_parts()[0]] == [int] * 4
    assert str(p) == "x"


@pytest.mark.parametrize(
    "expr", ["X * 3", "3 * X", "X + 1", "1 + X", "X - 1", "1 - X", "X * GaussianInt(0, 1)"]
)
def test_operators_reject_non_polys(expr):
    with pytest.raises(TypeError):
        eval(expr, {"X": X, "GaussianInt": GaussianInt})


@pytest.mark.parametrize("other", [3, 2.0, X], ids=["int", "float", "poly"])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_gaussian_operators_reject_other_types(op, other):
    with pytest.raises(TypeError):
        op(GaussianInt(1, 2), other)


@pytest.mark.parametrize("terms", [[((1, 0), 1)], 0, "x"], ids=["list", "int", "str"])
def test_term_map_that_is_not_a_mapping_is_rejected(terms):
    with pytest.raises(TypeError, match="^terms must be a mapping, got"):
        BivarPoly(terms)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError, match="^x exponent must be >= 0, got -1$"):
        BivarPoly({(-1, 0): 1})


@pytest.mark.parametrize("bad", [1, 2.0, GaussianInt(0, 1)], ids=["int", "float", "gaussian"])
def test_substitute_rejects_non_polys(bad):
    for poly_, xsub, ysub in [(X, bad, Y), (X, X, bad), (ZERO, bad, bad)]:
        with pytest.raises(TypeError):
            poly_.substitute(xsub, ysub)


def test_equality_with_a_non_poly_is_false():
    assert (X == 1) is False
    assert X != 1


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


@pytest.mark.parametrize(
    "pairs, w",
    [
        ([], 1),  # nothing holds y, so w = 1
        ([(2, X * X), (0, ONE.scale(GaussianInt(0, 1)))], 1),
        ([(1, X), (3, Y), (4, X * Y)], 3),
        ([(2, Y.scale(GaussianInt(0, 1)))], 2),  # an i-term fixes w as well
        ([(2, X * Y)], 1),
        ([(1, X + ONE)], None),  # the constant has degree 0, not 1
        ([(3, Y * Y)], None),  # y would weigh 3/2
        ([(1, Y), (2, Y)], None),  # two entries fix two weights
        ([(1, X * Y)], None),  # y would weigh 0
        ([(0, Y)], None),
    ],
)
def test_kernel_for_finds_the_one_y_weight(pairs, w):
    kernel = kernel_for(iter(pairs))
    if w is None:
        assert kernel is PolyKernel
    else:
        assert isinstance(kernel, GradedKernel) and kernel.w == w


# --- the graded kernel's sum of products ---------------------------------
#
# GradedKernel.sum_of_products against BivarPoly arithmetic: each
# (factor, scalar, value) triple, passed as the pair
# (coefficient(f, s), v), must add f * s * v, with the value read back
# through ``poly`` at its degree and the scalar as a constant.


def graded_sum_by_polys(kernel, triples, degree):
    total = ZERO
    for f, (sr, si), value in triples:
        v = kernel.poly(value, degree - f_degree(kernel, f))
        total = total + f * BivarPoly.constant(GaussianInt(sr, si)) * v
    return total


def f_degree(kernel, f):
    return next(xe + kernel.w * ye for xe, ye, _ in f._terms)


def random_triples(rng, w, degree):
    """1 to 4 triples of total degree ``degree``: a graded factor of
    Gaussian terms, a Gaussian scalar, and a value whose imaginary list is
    empty or not, any length its degree allows."""
    triples = []
    for _ in range(rng.randint(1, 4)):
        fd = rng.randint(0, degree)
        ys = rng.sample(range(fd // w + 1), rng.randint(1, fd // w + 1))
        f = BivarPoly(
            {(fd - w * j, j): GaussianInt(rng.randint(-3, 3), rng.randint(-2, 2)) for j in ys}
        )
        if f.is_zero():
            f = BivarPoly({(fd - w * ys[0], ys[0]): 1})
        size = rng.randint(0, (degree - fd) // w + 1)
        re = [rng.randint(-9, 9) for _ in range(size)]
        im = [rng.randint(-9, 9) for _ in range(rng.choice((0, size)))]
        triples.append((f, (rng.randint(-2, 2), rng.randint(-2, 2)), (re, im)))
    return triples


def graded_sum(kernel, triples, degree):
    pairs = [(kernel.coefficient(f, s), v) for f, s, v in triples]
    return kernel.poly(kernel.sum_of_products(pairs), degree)


def test_graded_sum_of_products_matches_poly_arithmetic():
    # a complex coefficient is one triple, (2 + 3i)(1 + i) = -1 + 5i
    assert GradedKernel.coefficient(Y.scale(GaussianInt(2, 3)), (1, 1)) == [(1, -1, 5)]
    rng = random.Random(25)
    for _ in range(300):
        kernel = GradedKernel(rng.randint(1, 3))
        degree = rng.randint(0, 12)
        triples = random_triples(rng, kernel.w, degree)
        got = graded_sum(kernel, triples, degree)
        assert got == graded_sum_by_polys(kernel, triples, degree), triples


def test_graded_sum_of_products_pads_only_where_needed(monkeypatch):
    # each pad case of _add_scaled, a contribution that ends before, at or
    # past the list built so far or starts past its end, on both paths: a
    # second term into a shared first list, which builds a new list, and a
    # later term, which adds into that list in place; and a first term at
    # shift j = 1.  Each sum against BivarPoly arithmetic, with every input
    # list left as it was
    cases = set()
    add_scaled = ring._add_scaled

    def recorded(out, own, j, c, v):
        end = j + len(v)
        if not out:
            cases.add("first at j > 0" if j else "first")
        else:
            where = "before" if end < len(out) else "at" if end == len(out) else "past"
            where = "after" if j > len(out) else where
            cases.add(f"{where}, {'in place' if own else 'new list'}")
        return add_scaled(out, own, j, c, v)

    monkeypatch.setattr(ring, "_add_scaled", recorded)
    kernel, i = GradedKernel(1), GaussianInt(0, 1)
    shared = (X, (1, 0), ([1, 2, 3, 4], []))  # degree 1 + 5: re is the value's list, 0..3
    sums = [
        # a shared first list of length 4, then a second term that ends
        # before, at or past its end or starts after it, then a third term
        # in place
        [shared, (Y, (2, 0), ([5, 6], [])), (X, (1, -1), ([4, 5], [6]))],
        [shared, (Y, (2, 0), ([5, 6, 7], [])), (X, (3, 1), ([7, 8, 9, 1], [1, 0, 2]))],
        [shared, (Y, (1, 0), ([1, 1, 1, 1], [])), (X, (-1, 2), ([1, 1, 1, 1, 1, 1], [2]))],
        [shared, (Y**5, (1, 0), ([2], []))],
        # a third term that starts after the end of the list made so far
        [(X, (1, 0), ([1, 2, 3, 4, 5], [])), (X, (1, 0), ([1], [])), (Y**6, (2, 0), ([3], []))],
        # a first term at j = 1, then one past its end
        [
            (Y.scale(i), (3, 1), ([7, 8], [1, 0])),
            (Y * Y + X * X.scale(i), (-1, 2), ([1, 1, 1, 1, 1], [2, 0, 0, 0, 3])),
        ],
    ]
    for triples in sums:
        inputs = [(list(re), list(im)) for _, _, (re, im) in triples]
        got = graded_sum(kernel, triples, 6)
        assert got == graded_sum_by_polys(kernel, triples, 6), triples
        assert [value for _, _, value in triples] == inputs
    paths = ("new list", "in place")
    wanted = {f"{where}, {path}" for where in ("before", "at", "past", "after") for path in paths}
    assert wanted | {"first", "first at j > 0"} <= cases, cases


def test_graded_sum_of_products_shares_only_a_first_list(monkeypatch):
    # a first term 1 * v at shift 0 is v's own list, whatever came before
    # it into an empty part: a new empty list (a term of an empty value)
    # followed by a shared first term is not the sum's own list, so the
    # terms after it build a new list and leave v as it is
    kernel = GradedKernel(1)
    v, empty = ([1, 2, 3], [4, 5, 6]), ([], [])
    assert kernel.sum_of_products([([(0, 1, 0)], v)]) == v
    assert kernel.sum_of_products([([(0, 1, 0)], v)])[0] is v[0]
    pairs = [([(0, 2, 3)], empty), ([(0, 1, 0)], v), ([(1, 1, 1)], ([7], [8]))]
    got = kernel.sum_of_products(pairs)
    assert v == ([1, 2, 3], [4, 5, 6])
    assert got == ([1, 2 + 7 - 8, 3], [4, 5 + 8 + 7, 6])


MATRIX_ROUTES = {"det-w": build_w, "det-m": build_m, "per-h": build_h, "per-k": build_k}


def test_each_kind_of_row_makes_its_coefficients_once(monkeypatch):
    # a builder's matrix has three kinds of row, and a row that repeats the
    # row above reuses its coefficients: the head's diagonal makes one and
    # the first band row two, and the last row two more, which a route's
    # stream never reaches; the recurrence makes none, by its value or its
    # stream, as it runs no graded-kernel code
    calls = []
    coefficient = GradedKernel.coefficient

    def counted(f, s):
        calls.append(1)
        return coefficient(f, s)

    monkeypatch.setattr(GradedKernel, "coefficient", staticmethod(counted))
    for p in (1, 5, 300):
        for n in (1, 2, p + 1, p + 2, 2 * p + 3, 3001):
            for name, bound in (("recurrence", 0), *((name, 3) for name in MATRIX_ROUTES)):
                calls.clear()
                sequences.ROUTES[name](p, n)
                assert len(calls) <= bound, (name, p, n, len(calls))
            calls.clear()
            deque(sequences.ROUTES["recurrence"].prefix(p, n)[1], maxlen=0)
            assert calls == [], (p, n)
            if n < 3001:
                for name, build in MATRIX_ROUTES.items():
                    whole = det_hessenberg if name.startswith("det") else per_hessenberg
                    # the builder's matrix, and the same matrix given densely
                    for a in (build(p, n), HessenbergMatrix(build(p, n).rows())):
                        calls.clear()
                        whole(a)
                        assert 0 < len(calls) <= 5, (name, p, n, len(calls))


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


def test_repr_wraps_the_rendering():
    assert repr(X) == "BivarPoly(x)"


def test_render_zero_and_units():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(-X) == "-x"
    assert str(X.scale(GaussianInt(0, 1))) == "i*x"
    assert str(Y.scale(GaussianInt(0, -1))) == "-i*y"
    assert str(BivarPoly.constant(GaussianInt(1, 2)) * X) == "(1+2i)*x"


MIXED, NEG_I = GaussianInt(2, -3), GaussianInt(0, -1)


@pytest.mark.parametrize(
    "terms, text",
    [
        ({(0, 0): MIXED}, "(2-3i)"),
        ({(1, 0): 1, (0, 0): MIXED}, "x + (2-3i)"),
        ({(1, 0): MIXED}, "(2-3i)*x"),
        ({(1, 0): 1, (0, 0): GaussianInt(-1, -1)}, "x + (-1-i)"),
        ({(1, 0): GaussianInt(1, 1), (0, 1): 1}, "(1+i)*x + y"),
        ({(0, 0): NEG_I}, "-i"),
        ({(1, 0): 1, (0, 0): NEG_I}, "x - i"),
        ({(1, 0): NEG_I}, "-i*x"),
        ({(1, 0): GaussianInt(0, 2), (0, 1): 1}, "2i*x + y"),
        ({(1, 0): 1, (0, 0): GaussianInt(0, -2)}, "x - 2i"),
        ({(2, 1): GaussianInt(0, 10**30)}, f"{10**30}i*x^2*y"),
        ({(1, 0): 1, (0, 0): -1}, "x - 1"),
        ({(0, 3): -2, (0, 0): 3}, "-2*y^3 + 3"),
        ({(0, 0): -1}, "-1"),
    ],
)
def test_render_each_coefficient_shape(terms, text):
    # real and purely imaginary coefficients give their sign to the join,
    # a mixed one keeps it inside parentheses; a unit coefficient of a
    # monomial is left out
    assert str(poly(terms)) == text


def test_render_builds_no_gaussian_ints(gaussian_ints_built):
    # str() reads the plain-int terms, as JSON output does
    p = poly({(2, 0): 3, (1, 1): GaussianInt(0, -2), (0, 1): GaussianInt(1, 1), (0, 0): -1})
    gaussian_ints_built.clear()
    assert str(p) == "3*x^2 - 2i*x*y + (1+i)*y - 1"
    assert gaussian_ints_built == []


# --- ring laws (random) ---------------------------------------------------
#
# Each law runs on 200 draws from its own seeded generator, so every run
# checks the same cases, and then on ZERO, ONE and a + (-a), the canonical
# zero a cancellation leaves, in each argument place.


def random_poly(rng):
    """At most 5 terms x^i*y^j, i and j in 0..3, with Gaussian parts in
    -10..10 (a zero coefficient drops its term)."""
    return BivarPoly(
        {
            (rng.randint(0, 3), rng.randint(0, 3)): GaussianInt(
                rng.randint(-10, 10), rng.randint(-10, 10)
            )
            for _ in range(rng.randint(0, 5))
        }
    )


def random_point(rng):
    return rng.randint(-5, 5)


def law_cases(rng, arity):
    """200 tuples of ``arity`` random polynomials, then one tuple for each
    of ZERO, ONE and a + (-a) in each place, random elsewhere."""
    cases = [tuple(random_poly(rng) for _ in range(arity)) for _ in range(200)]
    a = random_poly(rng) + X**4  # nonzero: no draw holds x^4
    for special in (ZERO, ONE, a + (-a)):
        for place in range(arity):
            case = [random_poly(rng) for _ in range(arity)]
            case[place] = special
            cases.append(tuple(case))
    return cases


def test_law_add_commutative():
    for a, b in law_cases(random.Random(101), 2):
        assert a + b == b + a, (a, b)
        assert hash(a + b) == hash(b + a), (a, b)


def test_law_add_associative():
    for a, b, c in law_cases(random.Random(102), 3):
        assert (a + b) + c == a + (b + c), (a, b, c)


def test_law_mul_commutative():
    for a, b in law_cases(random.Random(103), 2):
        assert a * b == b * a, (a, b)
        assert hash(a * b) == hash(b * a), (a, b)


def test_law_mul_associative():
    for a, b, c in law_cases(random.Random(104), 3):
        assert (a * b) * c == a * (b * c), (a, b, c)


def test_law_distributive():
    for a, b, c in law_cases(random.Random(105), 3):
        assert a * (b + c) == a * b + a * c, (a, b, c)


def test_law_identities_and_inverse():
    for (a,) in law_cases(random.Random(106), 1):
        assert a + ZERO == a, a
        assert a * ONE == a, a
        assert a + (-a) == ZERO, a


def test_eval_is_ring_homomorphism():
    rng = random.Random(107)
    for a, b in law_cases(rng, 2):
        x0, y0 = random_point(rng), random_point(rng)
        assert (a * b).eval_at(x0, y0) == a.eval_at(x0, y0) * b.eval_at(x0, y0), (a, b, x0, y0)
        assert (a + b).eval_at(x0, y0) == a.eval_at(x0, y0) + b.eval_at(x0, y0), (a, b, x0, y0)


def test_sum_of_products_matches_gaussian_evaluation():
    # eval_at computes in GaussianInt arithmetic, not through the kernel.
    # Each case is 0 to 4 pairs: none, or a law case's pair (which carries
    # the special values) and up to 3 random pairs.
    rng = random.Random(108)
    cases = [[]] + [
        [(a, b), *((random_poly(rng), random_poly(rng)) for _ in range(rng.randint(0, 3)))]
        for a, b in law_cases(rng, 2)
    ]
    for pairs in cases:
        x0 = GaussianInt(random_point(rng), random_point(rng))
        y0 = GaussianInt(random_point(rng), random_point(rng))
        expected = GI_ZERO
        for a, b in pairs:
            expected = expected + a.eval_at(x0, y0) * b.eval_at(x0, y0)
        assert sum_of_products(pairs).eval_at(x0, y0) == expected, (pairs, x0, y0)


def test_substitute_identity_property():
    for (a,) in law_cases(random.Random(109), 1):
        assert a.substitute(X, Y) == a, a


def test_ring_hot_path_builds_no_gaussian_ints(gaussian_ints_built):
    # coefficients are plain ints inside the ring; GaussianInt is built only
    # at its boundary (input, terms(), coeff(), eval_at)
    w, h = build_w(2, 60), build_h(2, 60)
    gaussian_ints_built.clear()
    values = f_poly(2, 60), det_hessenberg(w), per_hessenberg(h)
    assert gaussian_ints_built == []
    assert values[1] == values[2] == f_poly(2, 61)
