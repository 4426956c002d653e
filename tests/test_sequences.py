"""Sequence recurrence, integer shadow, specializations, cross-check."""

import math
import tracemalloc
from collections import deque

import pytest

import fibhess.ring as ring
import fibhess.sequences as sequences
from fibhess.evaluators import BudgetExceeded, det_hessenberg, per_hessenberg
from fibhess.matrices import HessenbergMatrix, build_h, build_k, build_m, build_w
from fibhess.ring import ONE, X, Y, BivarPoly, GaussianInt, GradedKernel, ZERO
from fibhess.sequences import (
    FAMILIES,
    FamilySpec,
    cross_check,
    f_poly,
    f_poly_prefix,
    fib_p_number,
    family_value,
    get_family,
)


def P(terms):
    return BivarPoly(terms)


# --- the defining recurrence ----------------------------------------------


def test_p2_hand_unrolled():
    # F(2,4) = x^3 + y, F(2,5) = x*F(2,4) + y*F(2,2) = x^4 + 2xy
    assert f_poly(2, 4) == X**3 + Y
    assert f_poly(2, 5) == P({(4, 0): 1, (1, 1): 2})


def test_f_poly_rejects_bad_args():
    with pytest.raises(ValueError):
        f_poly(0, 3)
    with pytest.raises(ValueError):
        f_poly(2, -1)


@pytest.mark.parametrize("p", [1, 2, 3, 5])
def test_leading_monomial(p):
    for n in range(1, 20):
        poly = f_poly(p, n)
        assert poly.coeff(n - 1, 0).re == 1
        assert poly.coeff(n - 1, 0).im == 0
        assert poly.x_degree() == n - 1


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_coefficients_real_nonnegative(p):
    for n in range(0, 25):
        for _, c in f_poly(p, n).terms():
            assert c.im == 0
            assert c.re > 0


# --- integer sequence -------------------------------------------------------


def test_fib_p_number_boundary():
    for n in range(1, 5):
        assert fib_p_number(3, n) == 1


def test_fib_p_number_values():
    assert fib_p_number(3, 5) == 2
    assert [fib_p_number(1, n) for n in range(1, 7)] == [1, 1, 2, 3, 5, 8]


def test_fib_p_number_rejects_bad_args():
    with pytest.raises(ValueError):
        fib_p_number(0, 3)
    with pytest.raises(ValueError):
        fib_p_number(2, 0)


# --- specialization families ------------------------------------------------
#
# Each family is re-derived from its own defining recurrence, independent
# of the substitution implementation, over the first ten indices.


def seq_from_recurrence(initial, step, count):
    vals = list(initial)
    while len(vals) < count:
        vals.append(step(vals))
    return vals


def test_fibonacci_numbers():
    expected = seq_from_recurrence([ZERO, ONE], lambda v: v[-1] + v[-2], 10)
    fam = get_family("fibonacci-numbers")
    assert [family_value(fam, n) for n in range(10)] == expected
    assert [int(family_value(fam, n).eval_at(0, 0).re) for n in range(8)] == [
        0, 1, 1, 2, 3, 5, 8, 13,
    ]


def test_pell_numbers():
    expected = seq_from_recurrence(
        [ZERO, ONE], lambda v: v[-1].scale(2) + v[-2], 10
    )
    fam = get_family("pell-numbers")
    assert [family_value(fam, n) for n in range(10)] == expected
    assert family_value(fam, 5) == BivarPoly.constant(29)


def test_jacobsthal_numbers():
    expected = seq_from_recurrence(
        [ZERO, ONE], lambda v: v[-1] + v[-2].scale(2), 10
    )
    fam = get_family("jacobsthal-numbers")
    assert [family_value(fam, n) for n in range(10)] == expected
    assert [int(family_value(fam, n).eval_at(0, 0).re) for n in range(6)] == [
        0, 1, 1, 3, 5, 11,
    ]


def test_chebyshev_second_kind():
    # U_0 = 1, U_1 = 2x, U_{n+1} = 2x U_n - U_{n-1}
    two_x = X.scale(2)
    expected = seq_from_recurrence(
        [ONE, two_x], lambda v: two_x * v[-1] - v[-2], 10
    )
    fam = get_family("chebyshev-U")
    assert [family_value(fam, n) for n in range(10)] == expected
    assert family_value(fam, 2) == P({(2, 0): 4, (0, 0): -1})


def test_fibonacci_polynomials():
    # f_0 = 0, f_1 = 1, f_{n+1} = x f_n + f_{n-1}
    expected = seq_from_recurrence([ZERO, ONE], lambda v: X * v[-1] + v[-2], 10)
    fam = get_family("fibonacci-poly")
    assert [family_value(fam, n) for n in range(10)] == expected


def test_pell_polynomials():
    # P_0 = 0, P_1 = 1, P_{n+1} = 2x P_n + P_{n-1}
    two_x = X.scale(2)
    expected = seq_from_recurrence(
        [ZERO, ONE], lambda v: two_x * v[-1] + v[-2], 10
    )
    fam = get_family("pell-poly")
    assert [family_value(fam, n) for n in range(10)] == expected


def test_jacobsthal_polynomials():
    # substitution semantics: a_{n+1} = a_n + 2y a_{n-1}
    two_y = Y.scale(2)
    expected = seq_from_recurrence(
        [ZERO, ONE], lambda v: v[-1] + two_y * v[-2], 10
    )
    fam = get_family("jacobsthal-poly")
    assert [family_value(fam, n) for n in range(10)] == expected


def test_bivariate_families():
    # each p=1 bivariate row satisfies a_{n+1} = xsub*a_n + ysub*a_{n-1}
    for name in ("fibonacci-bivariate", "pell-bivariate", "jacobsthal-bivariate"):
        fam = get_family(name)
        expected = seq_from_recurrence(
            [ZERO, ONE], lambda v: fam.xsub * v[-1] + fam.ysub * v[-2], 10
        )
        assert [family_value(fam, n) for n in range(10)] == expected


@pytest.mark.parametrize("p", [1, 2, 3])
def test_p_parameterized_families(p):
    for name in ("fibonacci-p-poly", "pell-bivariate-p", "jacobsthal-bivariate-p"):
        fam = get_family(name)
        # p-step recurrence a_n = xsub*a_{n-1} + ysub*a_{n-p-1}
        vals = [family_value(fam, n, p=p) for n in range(12)]
        for n in range(p + 2, 12):
            assert vals[n] == fam.xsub * vals[n - 1] + fam.ysub * vals[n - p - 1]


I = BivarPoly.constant(GaussianInt(0, 1))
SEEDS = {
    "c*x": (X.scale(3), Y),
    "gaussian c for x": (BivarPoly.constant(GaussianInt(2, -1)), Y),
    "c*y": (X, Y.scale(-2)),
    "i*y": (X, I * Y),
    "gaussian c*x, c for y": (X.scale(GaussianInt(1, 1)), BivarPoly.constant(5)),
    "c, i*y": (BivarPoly.constant(3), I * Y),
    "two gaussian constants": (BivarPoly.constant(GaussianInt(1, 2)), -I),
    "zero x": (ZERO, Y),
    "zero y": (X.scale(2), ZERO),
    "zero x, constant y": (ZERO, BivarPoly.constant(7)),
    "two gaussian c*x, c*y": (X.scale(GaussianInt(-1, 3)), Y.scale(GaussianInt(2, 1))),
    "zero x, gaussian c*y": (ZERO, Y.scale(GaussianInt(-3, 1))),
}


@pytest.mark.parametrize("case", SEEDS)
@pytest.mark.parametrize("p", [1, 2])
def test_spec_seeds_match_their_recurrence(case, p):
    # n near 300 checks the constants' Gaussian powers, taken once after
    # G's recurrence, against a recurrence that applies them at every step;
    # G(p, 297..301) has each degree mod p + 1, so with a zero x the one
    # surviving term is there at some n and not at others
    xsub, ysub = SEEDS[case]
    fam = FamilySpec(case, xsub, ysub, None)
    # G(k) = xsub^(k-1) for 1 <= k <= p + 1, then xsub*G(k-1) + ysub*G(k-p-1)
    expected = seq_from_recurrence(
        [ZERO] + [xsub**k for k in range(p + 1)],
        lambda v: xsub * v[-1] + ysub * v[-p - 1],
        302,
    )
    ns = [*range(14), *range(297, 302)]
    assert [family_value(fam, n, p=p) for n in ns] == [expected[n] for n in ns]


def test_imaginary_y_seed():
    fam = FamilySpec("i*y", X, I * Y, 1)
    assert family_value(fam, 6) == P({(5, 0): 1, (3, 1): GaussianInt(0, 4), (1, 2): -3})


BAD_SEEDS = {
    "x + 1 for x": (X + ONE, Y),
    "x for y": (X, X),
    "y for x": (Y, Y),
    "x^2 for x": (X**2, Y),
    "x*y for x": (X * Y, Y),
    "y + 1 for y": (X, Y + ONE),
    "y^2 for y": (X, Y**2),
}


@pytest.mark.parametrize("case", BAD_SEEDS)
def test_spec_rejects_other_seeds(case):
    with pytest.raises(ValueError):
        FamilySpec("bad", *BAD_SEEDS[case], 1)


@pytest.mark.parametrize("offset", [-1, -2])
def test_spec_rejects_negative_index_offset(offset):
    with pytest.raises(ValueError):
        FamilySpec("bad", X, Y, 1, index_offset=offset)


@pytest.mark.parametrize("offset", [1.5, "1"])
def test_spec_rejects_non_int_index_offset(offset):
    with pytest.raises(TypeError, match="^index_offset must be an int, got"):
        FamilySpec("bad", X, Y, 1, index_offset=offset)


@pytest.mark.parametrize("seed", [1, GaussianInt(0, 1), "x"])
def test_spec_rejects_seeds_that_are_not_polys(seed):
    with pytest.raises(TypeError, match="^xsub must be a BivarPoly, got"):
        FamilySpec("bad", seed, Y, 1)
    with pytest.raises(TypeError, match="^ysub must be a BivarPoly, got"):
        FamilySpec("bad", X, seed, 1)


@pytest.mark.parametrize("p, error", [(0, ValueError), (-1, ValueError), (1.5, TypeError)])
def test_spec_rejects_bad_p(p, error):
    with pytest.raises(error, match="^p must be"):
        FamilySpec("bad", X, Y, p)


def int_sequence(p, n):
    """a(n) of the integer sequence with p + 1 leading ones,
    a(k) = a(k-1) + a(k-p-1), by a loop over plain ints."""
    window = [0] * p + [1]  # a(k-p-1) .. a(k-1), with a(k) = 0 for k <= 0
    for _ in range(2, n + 1):
        window.append(window[-1] + window.pop(0))
    return window[-1] if n else 0


SMALL_AND_POWER = [*range(1, 12), 100, 301]


@pytest.mark.parametrize(
    "p, ns",
    [
        (1, SMALL_AND_POWER),
        (2, SMALL_AND_POWER),
        (3, SMALL_AND_POWER),
        (40, [3001]),
        (1000, [30000]),
    ],
    ids=["1", "2", "3", "40", "1000"],
)
def test_fibonacci_p_numbers_family(p, ns):
    # both read the same path, so each is also held to a plain-int loop;
    # n = 100 and 301 take the power, n < 12 and the large p the closed form
    fam = get_family("fibonacci-p-numbers")
    for n in ns:
        expected = int_sequence(p, n)
        assert fib_p_number(p, n) == expected, (p, n)
        assert family_value(fam, n, p=p) == BivarPoly.constant(expected), (p, n)


def test_p_required_for_parameterized_families():
    with pytest.raises(ValueError):
        family_value(get_family("fibonacci-p-poly"), 3)


def test_fixed_p_family_checks_a_given_p():
    # a family that fixes p ignores a valid p, but not a bad one
    fam = get_family("fibonacci-poly")
    with pytest.raises(ValueError, match="^p must be >= 1, got 0$"):
        family_value(fam, 3, p=0)
    assert family_value(fam, 3, p=3) == family_value(fam, 3)


def test_family_value_rejects_a_spec_that_is_not_one():
    with pytest.raises(TypeError, match="^spec must be a FamilySpec, got 'chebyshev-U'$"):
        family_value("chebyshev-U", 5)


def test_spec_rejects_a_name_that_is_not_a_str():
    with pytest.raises(TypeError, match="^name must be a str, got 3$"):
        FamilySpec(3, X, Y, 1)


def test_unknown_family():
    with pytest.raises(KeyError):
        get_family("lucas-numbers")


def test_registry_covers_remark_rows():
    assert len(FAMILIES) == 15


# --- cross-check --------------------------------------------------------------


def test_cross_check_paper_examples():
    r = cross_check(4, 5)
    assert r.all_equal
    assert r.first_mismatch is None
    assert set(r.values.values()) == {Y + X**5}

    r = cross_check(3, 5)
    assert r.all_equal
    assert set(r.values.values()) == {P({(1, 1): 2, (5, 0): 1})}


def test_cross_check_smallest():
    r = cross_check(1, 1)
    assert r.all_equal
    assert set(r.values.values()) == {X}


def test_cross_check_degenerate_band():
    # n <= p: all matrices upper bidiagonal, every route gives x^n
    for p, n in [(3, 2), (5, 4), (4, 4)]:
        r = cross_check(p, n)
        assert r.all_equal
        assert set(r.values.values()) == {X**n}


FAST_ROUTES = ("recurrence", "det-w", "det-m", "per-h", "per-k")


@pytest.mark.parametrize("name", FAST_ROUTES)
def test_route_prefix_matches_each_order(name):
    # one pass gives G(p, 1..n); at n = 1 a matrix stream reads only the
    # order-0 minor of the order-1 matrix
    route = sequences.ROUTES[name]
    for p in range(1, 5):
        expected = [route(p, k) for k in range(1, 21)]
        for n in range(1, 21):
            ring, values = route.prefix(p, n)
            got = [ring.poly(v, k - 1) for k, v in enumerate(values, 1)]
            assert got == expected[:n], (p, n)


@pytest.mark.parametrize("p", range(1, 8))
def test_fast_streams_agree_as_raw_values(p):
    # all five run on the graded kernel, where a value has one form: a real
    # and an imaginary list, the latter empty when nothing imaginary is left
    streams = [sequences.ROUTES[name].prefix(p, 120) for name in FAST_ROUTES]
    cells = list(zip(*(values for _, values in streams)))
    assert len(cells) == 120
    for k, cell in enumerate(cells, 1):
        assert all(value == cell[0] for value in cell), (p, k)
        for value in cell:
            assert len(value) == 2 and all(type(part) is list for part in value), (p, k)


MATRIX_ROUTES = {
    "det-w": (build_w, det_hessenberg),
    "det-m": (build_m, det_hessenberg),
    "per-h": (build_h, per_hessenberg),
    "per-k": (build_k, per_hessenberg),
}


@pytest.mark.parametrize("name", MATRIX_ROUTES)
def test_matrix_route_is_the_evaluator_of_the_order_n_minus_1_matrix(name):
    # the stream's last term is the det or per of the whole order-(n-1)
    # matrix, and the empty order-0 matrix gives 1
    build, evaluate = MATRIX_ROUTES[name]
    route = sequences.ROUTES[name]
    for p in range(1, 5):
        assert route(p, 1) == ONE
        for n in range(2, 31):
            assert route(p, n) == evaluate(build(p, n - 1)), (p, n)


@pytest.mark.parametrize(
    "name, message",
    [
        ("oracle-det-w", "order 199999 exceeds det oracle cap 10"),
        ("oracle-per-h", "order 199999 exceeds permanent oracle cap 8"),
    ],
)
def test_oracle_route_checks_its_cap_before_it_builds(name, message):
    # building the order-199999 matrix first peaks at about 64 MiB traced
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as caught:
            sequences.ROUTES[name](1, 200000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == message
    assert peak < 2**20


def test_f_poly_is_the_recurrence_route():
    # G(p, 0) = 0 is the value of the recurrence's empty stream
    route = sequences.ROUTES["recurrence"]
    for p in range(1, 5):
        terms = f_poly_prefix(p, 30)
        assert route(p, 0) == f_poly(p, 0) == terms[0] == ZERO
        for n in range(1, 31):
            assert f_poly(p, n) == route(p, n) == terms[n], (p, n)


def test_p_far_beyond_n():
    # for n <= p every G(k-p-1) the recurrence reads is zero, so it holds
    # n + 1 terms, not p + 1: a p past any container's size still works,
    # and G(p, n) = x^(n-1)
    huge = 10**20
    assert f_poly(huge, 3) == X**2
    assert fib_p_number(huge, 5) == 1
    # a power of p + 1 coefficients would not fit: the closed form runs,
    # and raises a constant x to no power beyond x^(n-1)
    fam = get_family("fibonacci-p-numbers")
    assert all(family_value(fam, n, p=huge) == ONE for n in range(1, 6))
    assert family_value(get_family("fibonacci-p-poly"), 4, p=huge) == X**3
    for name in ("pell-p-poly", "pell-bivariate-p"):
        assert family_value(get_family(name), 3, p=huge) == (X**2).scale(4), name
    two = FamilySpec("two-x", BivarPoly.constant(2), ONE, None)
    assert family_value(two, 3, p=huge) == BivarPoly.constant(4)
    assert cross_check(huge, 4).all_equal
    # a window of p + 1 terms peaks at about 16 MB here
    tracemalloc.start()
    try:
        f_poly(10**6, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


@pytest.mark.parametrize("name", MATRIX_ROUTES)
def test_matrix_stream_stops_before_order_n(monkeypatch, name):
    # minors 1..n-1 take one kernel step each; minor n of build(p, n) is
    # never computed
    steps = []
    step = GradedKernel.sum_of_products

    def counted(triples):
        steps.append(1)
        return step(triples)

    monkeypatch.setattr(GradedKernel, "sum_of_products", staticmethod(counted))
    for p in (1, 3):
        for n in (1, 2, 5, 17):
            steps.clear()
            _, values = sequences.ROUTES[name].prefix(p, n)
            assert len(list(values)) == n
            assert len(steps) == n - 1, (p, n)


def test_cross_check_prefix_matches_each_cell():
    for p in range(1, 5):
        reports = list(sequences.cross_check_prefix(p, 12))
        assert reports == [cross_check(p, n) for n in range(1, 13)], p


def test_cross_check_prefix_holds_one_cell_at_a_time():
    # holding the row of 200 reports peaks at about 7 MiB
    tracemalloc.start()
    try:
        for _ in sequences.cross_check_prefix(1, 200):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_cross_check_prefix_rejects_bad_args():
    with pytest.raises(ValueError):
        sequences.cross_check_prefix(1, 0)
    with pytest.raises(ValueError):
        sequences.cross_check_prefix(0, 1)


def test_cross_check_rejects_bad_args():
    with pytest.raises(ValueError):
        cross_check(1, 0)
    with pytest.raises(ValueError):
        cross_check(0, 1)


_COUNTED = {
    "f_poly": f_poly,
    "f_poly_prefix": f_poly_prefix,
    "fib_p_number": fib_p_number,
    "family_value": lambda p, n: family_value(get_family("fibonacci-p-poly"), n, p=p),
    "family_value-fixed-p": lambda p, n: family_value(get_family("fibonacci-poly"), n, p=p),
    "family_value-constants": lambda p, n: family_value(get_family("fibonacci-p-numbers"), n, p=p),
    "cross_check": cross_check,
    "cross_check_prefix": sequences.cross_check_prefix,
    **{f"route-{name}": route for name, route in sequences.ROUTES.items()},
    **{f"prefix-{name}": sequences.ROUTES[name].prefix for name in FAST_ROUTES},
}


@pytest.mark.parametrize("call", _COUNTED.values(), ids=_COUNTED)
@pytest.mark.parametrize("p, n, name", [(2.0, 5, "p"), (2, 5.0, "n")])
def test_non_int_count_is_rejected_before_any_work(monkeypatch, call, p, n, name):
    def work(*args):
        raise AssertionError("work started before the count was checked")

    monkeypatch.setattr(sequences, "_recurrence", work)
    monkeypatch.setattr(sequences, "_power", work)
    monkeypatch.setattr(sequences, "_closed", work)
    monkeypatch.setattr(HessenbergMatrix, "_from_nonzeros", work)
    with pytest.raises(TypeError, match=f"^{name} must be an int, got"):
        call(p, n)


def test_cross_check_names_corrupted_route(monkeypatch):
    # a row-scaled W doubles det(W); the report names it and keeps all routes
    monkeypatch.setattr(
        sequences, "build_w", lambda p, n: build_w(p, n).scale_row(0, 2)
    )
    r = cross_check(1, 3)
    assert not r.all_equal
    assert r.first_mismatch == ("recurrence", "det-w")
    assert list(r.values) == ["recurrence", "det-w", "det-m", "per-h", "per-k"]


# --- closed form ----------------------------------------------------------------
#
# G(p, n) = sum_k C(n-1-pk, k) x^(n-1-(p+1)k) y^k, in plain ints via
# math.comb, so these checks share no arithmetic with the ring.  Every
# family substitutes monomials c*x^a*y^b for x and y, so its members are
# the same sum with each term mapped to another monomial.


def closed_form(p, n, xsub=(1, 1, 0), ysub=(1, 0, 1)):
    """{(xexp, yexp): coefficient} of G(p, n) with x -> cx*x^ax*y^bx and
    y -> cy*x^ay*y^by, given as (c, a, b)."""
    (cx, ax, bx), (cy, ay, by) = xsub, ysub
    terms = {}
    for k in range((n - 1) // (p + 1) + 1 if n >= 1 else 0):
        e = n - 1 - (p + 1) * k
        mono = (ax * e + ay * k, bx * e + by * k)
        terms[mono] = terms.get(mono, 0) + math.comb(n - 1 - p * k, k) * cx**e * cy**k
    return {mono: c for mono, c in terms.items() if c}


def plain_terms(poly):
    assert all(c.im == 0 for _, c in poly.terms())
    return {mono: c.re for mono, c in poly.terms()}


def as_monomial(poly):
    [((a, b), c)] = poly.terms()
    assert c.im == 0
    return c.re, a, b


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_f_poly_matches_closed_form(p):
    prefix = f_poly_prefix(p, 59)
    for n in range(60):
        assert plain_terms(prefix[n]) == closed_form(p, n)
        assert plain_terms(f_poly(p, n)) == closed_form(p, n)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_matches_closed_form(name):
    # up to G(p, 3001), the north star's n: a family with a variable seed
    # scales G's closed-form coefficients by its constants' powers once,
    # and they must stay exact thousands of bits long
    fam = get_family(name)
    subs = as_monomial(fam.xsub), as_monomial(fam.ysub)
    ps = [fam.p] if fam.p is not None else range(1, 6)
    cases = [(p, n) for p in ps for n in range(60 - fam.index_offset)]
    for p, n in cases + [(fam.p or 2, 3001 - fam.index_offset)]:
        got = plain_terms(family_value(fam, n, p=p))
        assert got == closed_form(p, n + fam.index_offset, *subs), (p, n)


def test_variable_seed_family_runs_no_step(monkeypatch):
    # chebyshev-U reads G from its closed form and scales each coefficient
    # once by its constants' powers: no recurrence step adds a list
    calls = []
    add_scaled = ring._add_scaled

    def recorded(*args):
        calls.append(args)
        return add_scaled(*args)

    monkeypatch.setattr(ring, "_add_scaled", recorded)
    assert family_value(get_family("chebyshev-U"), 60) != ZERO
    assert calls == []


def recurrence_value(p, n):
    """G(p, n)'s raw graded value from the recurrence, the oracle of the
    closed form."""
    return deque(sequences._recurrence(p, n), maxlen=1)[0]


@pytest.mark.parametrize("p", range(1, 8))
def test_closed_matches_the_recurrence(p):
    terms = list(sequences._recurrence(p, 300))
    assert [sequences._closed(p, n) for n in range(301)] == terms


@pytest.mark.parametrize("p, n", [(1, 3001), (2, 3001), *((10**20, n) for n in range(6))])
def test_closed_matches_the_recurrence_far_out(p, n):
    # n in the thousands gives binomials thousands of bits long; a p far
    # past n runs the ratio update no times
    assert sequences._closed(p, n) == recurrence_value(p, n)


@pytest.mark.parametrize("p, n", [(1000, 30000), (100, 3000), (40, 3001), (10, 3000)])
def test_closed_matches_math_comb_at_large_p(p, n):
    # coefficients j <= 2p take math.comb, so the first three, with fewer
    # coefficients than that, make no ratio step; at (10, 3000) the ratio
    # takes over from j = 21 to 272
    coeffs, im = sequences._closed(p, n)
    assert im == []
    assert {(n - 1 - (p + 1) * j, j): c for j, c in enumerate(coeffs)} == closed_form(p, n)


VARIABLE_SEED = sorted(
    name
    for name, fam in FAMILIES.items()
    if GradedKernel.seed(fam.xsub, "x")[0] | GradedKernel.seed(fam.ysub, "y")[0]
)


def fold_by_powers(g, d, w, cx, cy):
    """G's raw value ``g`` of degree d with c_j scaled by cx^(d - w*j)*cy^j,
    by one ``GaussianInt`` power of each constant per coefficient: the
    oracle of ``sequences._fold``'s running powers."""
    cx, cy = GaussianInt(*cx), GaussianInt(*cy)
    terms = [GaussianInt(c) * cx ** (d - w * j) * cy**j for j, c in enumerate(g[0])]
    return [t.re for t in terms], [t.im for t in terms]


# every variable-seed family, and two user specs with Gaussian constants
LARGE_N_SPECS = {
    **{name: get_family(name) for name in VARIABLE_SEED},
    **{
        case: FamilySpec(case, *SEEDS[case], None)
        for case in ("two gaussian c*x, c*y", "gaussian c*x, c for y")
    },
}


@pytest.mark.parametrize("name", LARGE_N_SPECS)
def test_variable_seed_family_matches_the_recurrence_at_large_n(name):
    # the recurrence, scaled by a power of each constant per coefficient, is
    # the family path's independent oracle at G(p, 3001)
    fam = LARGE_N_SPECS[name]
    p = fam.p or 2
    m = 3001
    xe, *cx = GradedKernel.seed(fam.xsub, "x")
    ye, *cy = GradedKernel.seed(fam.ysub, "y")
    kernel = GradedKernel(p + 1)
    folded = fold_by_powers(recurrence_value(p, m), m - 1, p + 1, cx, cy)
    expected = kernel.poly(folded, m - 1, xe, ye)
    assert family_value(fam, m - fam.index_offset, p=p) == expected


def test_constant_family_keeps_one_coefficient_per_term():
    # the number families run on single coefficients, not one per y-degree
    fam = get_family("jacobsthal-numbers")
    tracemalloc.start()
    try:
        family_value(fam, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_constant_family_runs_no_step_at_large_n(monkeypatch):
    # only the recurrence route runs the recurrence: every family and
    # fib_p_number take the power past the rule and the closed form short
    # of it, so the route stays their independent oracle
    def work(*args):
        raise AssertionError("the recurrence ran outside its route")

    monkeypatch.setattr(sequences, "_recurrence", work)
    cases = [(1, 3001), (2, 300), (40, 100), (300, 3001)]
    assert {sequences._power_wins(p, n) for p, n in cases} == {True, False}
    for p, n in cases:
        for fam in FAMILIES.values():
            assert family_value(fam, n, p=p) != ZERO, (fam.name, p, n)
        assert fib_p_number(p, n) > 0
    assert family_value(get_family("fibonacci-p-numbers"), 100, p=40) == BivarPoly.constant(231)
    assert fib_p_number(40, 100) == 231


def test_power_never_runs_where_its_coefficients_outnumber_the_terms():
    # the power holds p + 1 coefficients, so the rule must refuse m <= p + 1
    assert not any(sequences._power_wins(p, m) for p in range(1, 200) for m in range(p + 2))
    assert not sequences._power_wins(10**20, 5)


def pair_sequence(p, count, cx, cy):
    """G(p, 0..count-1) at x = cx and y = cy, Gaussian integers as (re, im)
    pairs, by G's recurrence: G(0) = 0, G(1) = 1, then
    G(k) = cx*G(k-1) + cy*G(k-p-1) with G(k) = 0 for k < 0."""

    def times(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    values = [(0, 0), (1, 0)]
    while len(values) < count:
        k = len(values)
        (ar, ai), (br, bi) = times(cx, values[-1]), times(cy, values[k - p - 1] if k > p else (0, 0))
        values.append((ar + br, ai + bi))
    return values[:count]


GAUSSIAN_CONSTANTS = {
    "two gaussian constants": ((1, 2), (-3, 1)),
    "zero x, gaussian y": ((0, 0), (-3, 1)),
    "gaussian x, zero y": ((1, 2), (0, 0)),
}


@pytest.mark.parametrize("case", GAUSSIAN_CONSTANTS)
def test_constant_family_matches_a_recurrence_on_pairs(case):
    # a user family of two Gaussian constants, held to a recurrence on pairs
    # written here, on both sides of the rule that picks the power
    cx, cy = GAUSSIAN_CONSTANTS[case]
    fam = FamilySpec(case, *(BivarPoly.constant(GaussianInt(*c)) for c in (cx, cy)), None)
    cases = {p: [*range(201), 3001] for p in range(1, 8)} | {40: [3001]}
    for p, ns in cases.items():
        values = pair_sequence(p, 3002, cx, cy)
        for n in ns:
            expected = BivarPoly.constant(GaussianInt(*values[n]))
            assert family_value(fam, n, p=p) == expected, (p, n)
    sides = {sequences._power_wins(p, n) for p, ns in cases.items() for n in ns}
    assert sides == {True, False}


# p -> n: past the rule at p = 1 and 2, short of it at p = 40 and 300
PLAIN_LOOP_N = {1: 20001, 2: 20001, 40: 3001, 300: 3001}


@pytest.mark.parametrize("p", PLAIN_LOOP_N)
def test_fib_p_number_matches_a_plain_loop_at_large_n(p):
    n = PLAIN_LOOP_N[p]
    assert fib_p_number(p, n) == int_sequence(p, n)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_fib_p_number_matches_closed_form(p):
    for n in range(1, 60):
        assert {(0, 0): fib_p_number(p, n)} == closed_form(p, n, (1, 0, 0), (1, 0, 0))


@pytest.mark.parametrize("p", [1, 3])
def test_every_route_matches_closed_form_at_large_n(p):
    n = 2001
    expected = closed_form(p, n)
    for name in ("recurrence", "det-w", "det-m", "per-h", "per-k"):
        assert plain_terms(sequences.ROUTES[name](p, n)) == expected, name
