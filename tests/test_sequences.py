"""Sequence recurrence, integer shadow, specializations, cross-check."""

import math
import re
import tracemalloc
from collections import deque
from itertools import islice
from types import SimpleNamespace

import pytest

import fibhess.cli as cli
import fibhess.evaluators as evaluators
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
# The 15 registry families, written out here and not read from FAMILIES:
# name -> (seed for x, seed for y, p, index shift), where family(n) is
# G(p, n + shift) with the seeds put in for x and y.  A p of None is free.
# Each family, and each user spec of SEEDS, is held to G's recurrence with
# its seeds put in, independent of the substitution implementation.
DEFINITIONS = {
    "fibonacci-bivariate": (X, Y, 1, 0),
    "fibonacci-p-poly": (X, ONE, None, 0),
    "fibonacci-poly": (X, ONE, 1, 0),
    "fibonacci-p-numbers": (ONE, ONE, None, 0),
    "fibonacci-numbers": (ONE, ONE, 1, 0),
    "pell-bivariate-p": (X.scale(2), Y, None, 0),
    "pell-bivariate": (X.scale(2), Y, 1, 0),
    "pell-p-poly": (X.scale(2), ONE, None, 0),
    "pell-poly": (X.scale(2), ONE, 1, 0),
    "pell-numbers": (BivarPoly.constant(2), ONE, 1, 0),
    "chebyshev-U": (X.scale(2), -ONE, 1, 1),
    "jacobsthal-bivariate-p": (X, Y.scale(2), None, 0),
    "jacobsthal-bivariate": (X, Y.scale(2), 1, 0),
    "jacobsthal-poly": (ONE, Y.scale(2), 1, 0),
    "jacobsthal-numbers": (ONE, BivarPoly.constant(2), 1, 0),
}


def test_definitions_name_the_registry_families():
    assert sorted(DEFINITIONS) == sorted(FAMILIES)


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

# each user spec at p = 1 and 2, and each family at its own p or at p = 1..3
SEED_ROWS = [(p, case) for p in (1, 2) for case in SEEDS] + [
    (q, name) for name, (*_, p, _) in DEFINITIONS.items() for q in ([p] if p else [1, 2, 3])
]


@pytest.mark.parametrize("p, case", SEED_ROWS)
def test_spec_seeds_match_their_recurrence(p, case):
    # n near 300 checks the constants' Gaussian powers, taken once after
    # G's recurrence, against a recurrence that applies them at every step;
    # G(p, 297..301) has each degree mod p + 1, so with a zero x the one
    # surviving term is there at some n and not at others
    if case in DEFINITIONS:
        xsub, ysub, fixed, shift = DEFINITIONS[case]
        fam = get_family(case)
    else:
        (xsub, ysub), fixed, shift = SEEDS[case], None, 0
        fam = FamilySpec(case, xsub, ysub, None)
    # G(k) = xsub^(k-1) for 1 <= k <= p + 1, then xsub*G(k-1) + ysub*G(k-p-1)
    g = [ZERO] + [xsub**k for k in range(p + 1)]
    while len(g) < 302 + shift:
        g.append(xsub * g[-1] + ysub * g[-p - 1])
    ns = [*range(14), *range(297, 302)]
    # a family that fixes its p is not given one
    assert [family_value(fam, n, p=None if fixed else p) for n in ns] == [g[n + shift] for n in ns]


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
    for p in range(1, 8):
        expected = [route(p, k) for k in range(1, 21)]
        for n in range(1, 21):
            poly, values = route.prefix(p, n)
            got = [poly(v, k - 1) for k, v in enumerate(values, 1)]
            assert got == expected[:n], (p, n)


@pytest.mark.parametrize("p", range(1, 8))
def test_fast_streams_agree_as_raw_values(p):
    # the four matrix streams run on the graded kernel and the recurrence's
    # in plain ints, and a raw value has one form in both: a real and an
    # imaginary list, the latter empty when nothing imaginary is left
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
    # the route's value comes by columns and must be its stream's last
    # value, G(p, 0) = 0 from the empty stream and G(p, 1) = 1 included
    route = sequences.ROUTES["recurrence"]
    for p in range(1, 8):
        terms = f_poly_prefix(p, 120)
        assert route(p, 0) == f_poly(p, 0) == terms[0] == ZERO
        assert route(p, 1) == f_poly(p, 1) == terms[1] == ONE
        for n in range(121):
            last = evaluators.last_poly(*route.prefix(p, n), n - 1)
            assert f_poly(p, n) == route(p, n) == terms[n] == last, (p, n)
    for p, n in [(1, 3001), (300, 3001)]:
        assert route(p, n) == evaluators.last_poly(*route.prefix(p, n), n - 1), (p, n)
    # a bad count fails as the stream fails, with the same message
    for p, n in [(0, 3), (2, -1), (2.0, 3), (2, 3.0)]:
        with pytest.raises((TypeError, ValueError)) as by_stream:
            route.prefix(p, n)
        with pytest.raises(by_stream.type, match=f"^{re.escape(str(by_stream.value))}$"):
            route(p, n)


def test_p_far_beyond_n(monkeypatch):
    # for n <= p every G(k-p-1) the recurrence reads is zero, so it holds
    # n + 1 terms, not p + 1: a p past any container's size still works,
    # and G(p, n) = x^(n-1)
    huge = 10**20
    # a power of p + 1 squares until memory runs out and never returns, so
    # a tracemalloc peak read after the call cannot catch it: refuse it first
    gauss_pow = sequences._gauss_pow

    def bounded(c, k):
        assert k <= 5, f"a constant raised to the power {k}"
        return gauss_pow(c, k)

    monkeypatch.setattr(sequences, "_gauss_pow", bounded)

    def no_column(*args):
        raise AssertionError("a column was built for n <= p")

    # and G(p, n)'s value by columns builds no column
    with monkeypatch.context() as columns:
        columns.setattr(sequences, "accumulate", no_column)
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
    monkeypatch.setattr(sequences, "_by_columns", work)
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


def subtracting_shared_add(out, own, j, c, v):
    """``ring._add_scaled`` with one fault: a term into a shared list that
    holds all of v subtracts c * v instead of adding it."""
    end = j + len(v)
    if out and not own and end <= len(out):
        return [*out[:j], *(a - c * b for a, b in zip(out[j:end], v)), *out[end:]]
    return ADD_SCALED(out, own, j, c, v)


def poly_with_x_exponents_up(self, value, degree):
    """``GradedKernel.poly`` with one fault: term j's x exponent is
    degree + w*j, not degree - w*j."""
    terms = {}
    for ie, part in enumerate(value):
        for j, c in enumerate(part):
            if c:
                terms[(degree + self.w * j, j, ie)] = c
    return ring._wrap(terms)


ADD_SCALED = ring._add_scaled
KERNEL_FAULTS = {
    "add-scaled-shared-subtracts": (ring, "_add_scaled", subtracting_shared_add),
    "poly-x-exponent-plus": (GradedKernel, "poly", poly_with_x_exponents_up),
}


@pytest.mark.parametrize("fault", KERNEL_FAULTS)
@pytest.mark.parametrize("p, n", [(1, 40), (2, 60), (5, 80)])
def test_a_graded_kernel_fault_splits_the_recurrence_from_the_matrices(
    monkeypatch, capsys, fault, p, n
):
    # neither the recurrence route's value nor its stream runs graded
    # kernel code, so a fault there changes the four matrix routes alike
    # but not the recurrence, and the five-way check names the first matrix
    # route: in one cell, in the grid, and in the CLI's grid
    monkeypatch.setattr(*KERNEL_FAULTS[fault])
    r = cross_check(p, n)
    assert not r.all_equal
    assert r.first_mismatch == ("recurrence", "det-w")
    assert plain_terms(r.values["recurrence"]) == closed_form(p, n + 1)
    first = next(cell for cell in sequences.cross_check_prefix(p, n) if not cell.all_equal)
    assert first.first_mismatch == ("recurrence", "det-w")
    assert plain_terms(first.values["recurrence"]) == closed_form(p, first.n + 1)
    assert cli.main(["check", "--p-max", "2", "--n-max", "40"]) == 1
    out, err = capsys.readouterr()
    assert re.fullmatch(r"80 checks, \d+ passed\n", out) and out != "80 checks, 80 passed\n"
    assert re.fullmatch(r"FAIL at p=1, n=\d+: recurrence != det-w\n", err)


def test_a_stream_that_runs_short_fails_the_grid(monkeypatch):
    # the five streams are walked in lockstep, so one that ends a value
    # early must raise, not drop the cells it no longer reaches
    prefix = sequences.ROUTES["det-w"].prefix

    def short(p, n):
        poly, values = prefix(p, n)
        return poly, islice(values, n - 1)

    monkeypatch.setitem(sequences.ROUTES, "det-w", sequences._Route(short))
    with pytest.raises(ValueError, match="shorter"):
        list(sequences.cross_check_prefix(2, 10))


# each matrix route's builder, as ``sequences`` looks it up
BUILDER_NAMES = {"det-w": "build_w", "det-m": "build_m", "per-h": "build_h", "per-k": "build_k"}


@pytest.mark.parametrize("route", BUILDER_NAMES)
@pytest.mark.parametrize("p, k", [(1, 1), (1, 6), (3, 4), (3, 9)])
def test_a_builder_fault_at_one_row_gives_its_route_a_plan_of_its_own(monkeypatch, route, p, k):
    # the four matrix routes share one loop only while their plans are
    # equal: a builder whose row k (1-based) is doubled doubles every
    # minor from order k on, so its route must split off at cell k of the
    # grid and in one cell, while the other three still agree
    name, n = BUILDER_NAMES[route], 12
    build = getattr(sequences, name)
    monkeypatch.setattr(sequences, name, lambda p, n: build(p, n).scale_row(k - 1, 2))
    plans = {other: sequences.ROUTES[other].plan(p, n + 1)[1] for other in BUILDER_NAMES}
    others = [plan for other, plan in plans.items() if other != route]
    assert all(plan == others[0] for plan in others) and plans[route] != others[0]
    cells = list(sequences.cross_check_prefix(p, n))
    assert all(cell.all_equal for cell in cells[: k - 1])
    assert cells[k - 1].first_mismatch == ("recurrence", route)
    r = cross_check(p, n)
    assert r.first_mismatch == ("recurrence", route)
    for cell in (cells[k - 1], r):
        values = cell.values
        assert [other for other, v in values.items() if v != values["recurrence"]] == [route]


def coefficient_wrong_at(scalar):
    """``GradedKernel.coefficient`` with one fault: at the scalar
    ``scalar`` only, each real part is doubled."""
    coefficient = GradedKernel.coefficient

    def faulty(f, s):
        got = coefficient(f, s)
        return [(j, 2 * re, im) for j, re, im in got] if s == scalar else got

    return staticmethod(faulty)


@pytest.mark.parametrize("p", [1, 5])
def test_a_coefficient_fault_at_one_scalar_splits_the_matrix_routes(monkeypatch, p):
    # at odd p = 1, 5 the band's window product is -i for det(W) (its
    # superdiagonal i, negated) and for per(H) (its superdiagonal -i), and
    # 1 for det(M) and per(K): a coefficient wrong at -i alone must split
    # det-w and per-h from det-m and per-k, not hide in a shared loop
    monkeypatch.setattr(GradedKernel, "coefficient", coefficient_wrong_at((0, -1)))
    n = 4 * p + 8
    first = next(cell for cell in sequences.cross_check_prefix(p, n) if not cell.all_equal)
    for r in (cross_check(p, n), first):
        v = r.values
        assert r.first_mismatch == ("recurrence", "det-w")
        assert v["det-w"] == v["per-h"] != v["det-m"] == v["per-k"] == v["recurrence"]


def test_cross_check_runs_one_matrix_loop(monkeypatch):
    # the four paper matrices of one (p, n) have equal plans, so cross_check
    # and the grid run the loop once, one sum_of_products a row, where four
    # loops would make four times the calls; a route called on its own
    # still runs its own loop, over the rows its minors need
    calls = []
    step = GradedKernel.sum_of_products

    def counted(pairs):
        calls.append(1)
        return step(pairs)

    monkeypatch.setattr(GradedKernel, "sum_of_products", staticmethod(counted))
    for p, n in ((1, 40), (5, 80), (300, 700)):
        calls.clear()
        assert cross_check(p, n).all_equal
        assert len(calls) == n, (p, n, len(calls))
        calls.clear()
        assert all(cell.all_equal for cell in sequences.cross_check_prefix(p, n))
        assert len(calls) == n, (p, n, len(calls))
        calls.clear()
        sequences.ROUTES["det-m"](p, n)
        assert len(calls) == n - 1, (p, n, len(calls))


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


@pytest.mark.parametrize("name", sorted(DEFINITIONS))
def test_family_matches_closed_form(name):
    # up to G(p, 3001), the north star's n: a family with a variable seed
    # scales G's closed-form coefficients by its constants' powers once,
    # and they must stay exact thousands of bits long
    xsub, ysub, fixed, shift = DEFINITIONS[name]
    fam = get_family(name)
    subs = as_monomial(xsub), as_monomial(ysub)
    ps = [fixed] if fixed else range(1, 6)
    cases = [(p, n) for p in ps for n in range(60 - shift)]
    for p, n in cases + [(fixed or 2, 3001 - shift)]:
        got = plain_terms(family_value(fam, n, p=p))
        assert got == closed_form(p, n + shift, *subs), (p, n)


def test_variable_seed_family_runs_no_step(monkeypatch):
    # chebyshev-U reads G from its closed form and scales each coefficient
    # once by its constants' powers: no recurrence step adds a list.  And
    # nothing in sequences runs graded-kernel arithmetic or conversion: the
    # recurrence's value and stream, f_poly_prefix, every family and
    # fib_p_number make and convert their own values
    calls = []
    add_scaled = ring._add_scaled

    def recorded(*args):
        calls.append(args)
        return add_scaled(*args)

    def refused(*args):
        raise AssertionError("graded-kernel code ran in sequences")

    monkeypatch.setattr(ring, "_add_scaled", recorded)
    for name in ("sum_of_products", "coefficient", "poly"):
        monkeypatch.setattr(GradedKernel, name, refused)
    assert family_value(get_family("chebyshev-U"), 60) != ZERO
    route = sequences.ROUTES["recurrence"]
    # the power takes the two-constant families at (1, 60), the closed
    # form at (3, 61)
    assert {sequences._power_wins(p, n) for p, n in [(1, 60), (3, 61)]} == {True, False}
    for p, n in [(1, 60), (3, 61)]:
        stream_last = evaluators.last_poly(*route.prefix(p, n), n - 1)
        assert route(p, n) == stream_last == f_poly_prefix(p, n)[n] != ZERO, (p, n)
        for fam in FAMILIES.values():
            assert family_value(fam, n, p=p) != ZERO, (fam.name, p, n)
        assert fib_p_number(p, n) > 0
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
    for name, (xsub, ysub, *_) in DEFINITIONS.items()
    if GradedKernel.seed(xsub, "x")[0] | GradedKernel.seed(ysub, "y")[0]
)


def fold_by_powers(g, d, w, cx, cy):
    """G's raw value ``g`` of degree d with c_j scaled by cx^(d - w*j)*cy^j,
    by one ``GaussianInt`` power of each constant per coefficient: the
    oracle of ``sequences._closed``'s scaled terms, which come by running
    powers in the comb region and by one exact ratio step past it."""
    cx, cy = GaussianInt(*cx), GaussianInt(*cy)
    terms = [GaussianInt(c) * cx ** (d - w * j) * cy**j for j, c in enumerate(g[0])]
    return [t.re for t in terms], [t.im for t in terms]


# every variable-seed family, and two user specs with Gaussian constants,
# as DEFINITIONS writes them: (seed for x, seed for y, p, index shift)
LARGE_N_SPECS = {
    **{name: DEFINITIONS[name] for name in VARIABLE_SEED},
    **{
        case: (*SEEDS[case], None, 0)
        for case in ("two gaussian c*x, c*y", "gaussian c*x, c for y")
    },
}


@pytest.mark.parametrize("name", LARGE_N_SPECS)
def test_variable_seed_family_matches_the_recurrence_at_large_n(name):
    # the recurrence, scaled by a power of each constant per coefficient, is
    # the family path's independent oracle at G(p, 3001)
    xsub, ysub, fixed, shift = LARGE_N_SPECS[name]
    fam = get_family(name) if name in DEFINITIONS else FamilySpec(name, xsub, ysub, None)
    p = fixed or 2
    m = 3001
    xe, *cx = GradedKernel.seed(xsub, "x")
    ye, *cy = GradedKernel.seed(ysub, "y")
    d, w = m - 1, p + 1
    real, imag = fold_by_powers(recurrence_value(p, m), d, w, cx, cy)
    # explicit keys, so that a fault in the families' conversion cannot
    # reach the oracle
    terms = enumerate(zip(real, imag))
    expected = BivarPoly({(xe * (d - w * j), ye * j): GaussianInt(r, i) for j, (r, i) in terms})
    assert family_value(fam, m - shift, p=p) == expected


# every constant pair that SEEDS and DEFINITIONS put in for x and y, zeros
# included, as Gaussian (re, im) pairs
CONSTANTS = sorted(
    {
        (tuple(GradedKernel.seed(xsub, "x")[1:]), tuple(GradedKernel.seed(ysub, "y")[1:]))
        for xsub, ysub, *_ in [*SEEDS.values(), *DEFINITIONS.values()]
    }
)

# (p, n) for each case of the scaled closed form: n = 1 and p + 1 have one
# coefficient; count = (n - 1) // (p + 1) = 2p ends the comb region, and
# count = 2p + 3 takes three ratio steps past it, each with w = p + 1
# dividing d = n - 1 (a zero x keeps its pure-y term) and not.  At p = 1000
# the comb region runs to n past two million, where the recurrence oracle
# cannot go, so there count stops at 3, inside it
CLOSED_SIZES = [
    *(
        (p, n)
        for p in (1, 2, 5, 40)
        for count in (2 * p, 2 * p + 3)
        for n in (count * (p + 1) + 1, count * (p + 1) + 2)
    ),
    *((p, n) for p in (1, 2, 5, 40, 1000) for n in (1, p + 1)),
    (1000, 3004),
    (1000, 3005),
]


@pytest.mark.parametrize("p, n", CLOSED_SIZES)
def test_closed_scales_by_the_constants(p, n):
    # each term of _closed's stream against one GaussianInt power of each
    # constant per coefficient, applied to the recurrence's value; and the
    # stream summed, as _at_constants sums it short of the power rule
    g = recurrence_value(p, n)
    for cx, cy in CONSTANTS:
        want_re, want_im = fold_by_powers(g, n - 1, p + 1, cx, cy)
        re, im = sequences._closed(p, n, cx, cy)
        assert re == want_re, (cx, cy)
        assert im == (want_im if cx[1] or cy[1] else []), (cx, cy)
        sums = [sum(part) for part in zip(*sequences._scaled(p, n, cx, cy))]
        assert sums == [sum(want_re), sum(want_im)], (cx, cy)


def test_closed_takes_comb_to_2p_and_the_ratio_past_it(monkeypatch):
    # coefficients j <= 2p take one math.comb each, and each one past them
    # one ratio step of two perms; a zero x takes neither
    calls = []

    def counted(name):
        def call(*args):
            calls.append(name)
            return getattr(math, name)(*args)

        return call

    counting = SimpleNamespace(comb=counted("comb"), perm=counted("perm"), gcd=math.gcd)
    monkeypatch.setattr(sequences, "math", counting)
    for p, n in [(1, 1), (1, 6), (1, 301), (2, 40), (5, 300), (40, 3001), (40, 3500)]:
        count = (n - 1) // (p + 1)
        for cx, cy in [((1, 0), (1, 0)), ((1, 2), (-3, 1)), ((0, 0), (2, 1))]:
            calls.clear()
            sequences._closed(p, n, cx, cy)
            last = min(count, 2 * p)
            want = (last + 1, 2 * (count - last)) if any(cx) else (0, 0)
            assert (calls.count("comb"), calls.count("perm")) == want, (p, n, cx)


def test_two_constants_short_of_the_power_hold_one_term_at_a_time():
    # short of the power rule the closed form's terms are added up one at a
    # time: the summed lists peaked at 3.3 MiB traced here, and the pair
    # recurrence they replaced at 272 KiB
    fam = FamilySpec(
        "two gaussian constants",
        BivarPoly.constant(GaussianInt(1, 2)),
        BivarPoly.constant(GaussianInt(-3, 1)),
        None,
    )
    assert not sequences._power_wins(40, 20000)
    tracemalloc.start()
    try:
        family_value(fam, 20000, p=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 300 * 2**10


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


# p -> n: small p, and a band far from the diagonal
LARGE_N = {1: 2001, 3: 2001, 300: 3001}


@pytest.mark.parametrize("p", LARGE_N)
def test_every_route_matches_closed_form_at_large_n(p):
    n = LARGE_N[p]
    expected = closed_form(p, n)
    for name in ("recurrence", "det-w", "det-m", "per-h", "per-k"):
        assert plain_terms(sequences.ROUTES[name](p, n)) == expected, name


def test_band_walks_its_superdiagonal_product_once(monkeypatch):
    # the first row with the band walks its p superdiagonal factors, and
    # the rows below repeat it: a walk of p factors a row would be about
    # n*p = 810,000 scalar products here
    calls = []
    times = GradedKernel.times

    def counted(s, t):
        calls.append(1)
        return times(s, t)

    monkeypatch.setattr(GradedKernel, "times", staticmethod(counted))
    assert sequences.ROUTES["det-w"](300, 3001) == f_poly(300, 3001)
    assert 0 < len(calls) <= 300


@pytest.mark.parametrize("build", [build_w, build_m, build_h, build_k])
def test_kernel_choice_reads_each_distinct_row_once(monkeypatch, build):
    # a builder's matrix lists at most three row maps, of 2, 3 and 2
    # entries, and kernel_for reads each once: not 3n - 1 entries
    seen = []

    def counted(pairs):
        pairs = list(pairs)
        seen.append(len(pairs))
        return ring.kernel_for(pairs)

    monkeypatch.setattr(evaluators, "kernel_for", counted)
    for p in (1, 2, 5, 300):
        for n in (1, 2, p + 1, p + 2, 3001):
            seen.clear()
            evaluators.leading_minors(build(p, n), signed=True)  # picks the kernel now
            (pairs,) = seen
            assert pairs <= 7, (p, n, pairs)
