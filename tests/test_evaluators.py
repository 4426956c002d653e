"""Determinant/permanent recursions against brute-force oracles."""

import contextlib
import random
import sys
import tracemalloc
import weakref
from unittest import mock

import pytest

from fibhess.evaluators import (
    BudgetExceeded,
    EvalBudget,
    det_hessenberg,
    det_oracle,
    per_hessenberg,
    per_oracle,
)
from fibhess.matrices import HessenbergMatrix, build_h, build_k, build_m, build_w
from fibhess import evaluators, ring, sequences
from fibhess.ring import ONE, X, Y, ZERO, BivarPoly, GaussianInt, kernel_for
from fibhess.sequences import f_poly, family_value, get_family
from matrix_shapes import (
    SHAPES,
    alternating_band,
    far_entry,
    three_constant_superdiagonal,
    two_constant_superdiagonal,
)

BUILDERS = [build_w, build_m, build_h, build_k]


def P(terms):
    return BivarPoly(terms)


# --- paper worked examples ------------------------------------------------
#
# det W(4, 5), det M(3, 5) and per H(3, 5) are acceptance criterion 1.


def test_per_k_2_4():
    # equals the degree-4 recurrence term x^4 + 2xy
    assert per_hessenberg(build_k(2, 4)) == P({(4, 0): 1, (1, 1): 2})


def test_one_by_one():
    a = HessenbergMatrix([[X + Y]])
    assert det_hessenberg(a) == X + Y
    assert per_hessenberg(a) == X + Y


# --- oracles ----------------------------------------------------------------


def test_det_oracle_2x2():
    a, b, c, d = X, ONE, Y, X + ONE
    m = HessenbergMatrix([[a, b], [c, d]])
    assert det_oracle(m) == a * d - b * c
    assert per_oracle(m) == a * d + b * c


def test_oracles_diagonal():
    m = HessenbergMatrix([[X, ZERO, ZERO], [ZERO, X, ZERO], [ZERO, ZERO, X]])
    assert det_oracle(m) == X**3
    assert per_oracle(m) == X**3
    assert per_hessenberg(HessenbergMatrix([[X, ZERO], [ZERO, X]])) == X**2


def test_det_oracle_matches_recursion_w35():
    a = build_w(3, 5)
    expected = P({(1, 1): 2, (5, 0): 1})
    assert det_oracle(a) == expected
    assert det_hessenberg(a) == expected


def test_per_oracle_h35():
    assert per_oracle(build_h(3, 5)) == P({(1, 1): 2, (5, 0): 1})


def test_oracle_budgets():
    with pytest.raises(BudgetExceeded):
        det_oracle(build_w(1, 11))
    with pytest.raises(BudgetExceeded):
        per_oracle(build_h(1, 9))
    # overridable caps
    assert det_oracle(build_w(1, 11), EvalBudget(max_det_order=11)) == det_hessenberg(
        build_w(1, 11)
    )
    with pytest.raises(BudgetExceeded):
        det_oracle(build_w(1, 5), EvalBudget(max_det_order=4))


@pytest.mark.parametrize("cap", ["max_det_order", "max_per_order"])
@pytest.mark.parametrize("value, error", [("10", TypeError), (2.5, TypeError), (0, ValueError)])
def test_budget_checks_its_caps_when_made(cap, value, error):
    with pytest.raises(error, match=f"^{cap} must be"):
        EvalBudget(**{cap: value})


# --- structural properties ----------------------------------------------


def random_band_matrix(rng, n):
    p = rng.randint(1, max(1, n - 1))
    rows = []
    for i in range(n):
        row = [ZERO] * n
        row[i] = P({(1, 0): rng.randint(-3, 3), (0, 0): rng.randint(-3, 3)})
        if i + 1 < n:
            row[i + 1] = BivarPoly.constant(
                GaussianInt(rng.randint(-2, 2), rng.randint(-2, 2))
            )
        if i - p >= 0:
            row[i - p] = Y.scale(rng.randint(-3, 3))
        rows.append(row)
    return HessenbergMatrix(rows)


@pytest.mark.parametrize("c", [2, GaussianInt(0, 1)])
def test_row_scaling_linearity(c):
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 6)
        a = random_band_matrix(rng, n)
        i = rng.randrange(n)
        scaled = a.scale_row(i, c)
        assert det_hessenberg(scaled) == det_hessenberg(a).scale(c)
        assert per_hessenberg(scaled) == per_hessenberg(a).scale(c)


def test_imaginary_parts_that_cancel_leave_the_real_value():
    # after the second row scaled by i, every minor's imaginary parts are 0
    i = GaussianInt(0, 1)
    a = build_w(2, 6)
    b = a.scale_row(1, i).scale_row(3, i)
    assert det_hessenberg(b) == -det_hessenberg(a)
    assert per_hessenberg(b) == -per_hessenberg(a)


def test_triangular_case_is_diagonal_product():
    rng = random.Random(11)
    for _ in range(10):
        n = rng.randint(1, 6)
        diag = [
            P({(1, 0): rng.randint(-3, 3), (0, 1): rng.randint(-3, 3)})
            for _ in range(n)
        ]
        rows = []
        for i in range(n):
            row = [ZERO] * n
            if i >= 1:
                row[rng.randrange(i)] = Y  # arbitrary entry below the diagonal
            row[i] = diag[i]
            rows.append(row)
        a = HessenbergMatrix(rows)
        prod = ONE
        for d in diag:
            prod = prod * d
        assert det_hessenberg(a) == prod
        assert per_hessenberg(a) == prod


@pytest.mark.parametrize("p", [1, 2, 5, 300])
def test_the_four_paper_matrices_have_one_plan(p):
    # det negates each superdiagonal scalar, so every builder's band
    # coefficient is y and its diagonal coefficient x: after their set-ups
    # det(W), det(M), per(H) and per(K) are one computation, over three
    # runs of rows, whatever n is
    for n in (1, 2, p + 1, p + 2, 2 * p + 3):
        routes = ((build_w, True), (build_m, True), (build_h, False), (build_k, False))
        plans = [evaluators._plan(build(p, n), signed, n)[1] for build, signed in routes]
        assert all(plan == plans[0] for plan in plans), (p, n)
        assert len(plans[0][1]) <= 3, (p, n)


def test_a_plan_carries_its_kernels_weight():
    # x*y at offset -2 makes y of weight 2, and y there weight 3: the rows'
    # coefficients and last readers are equal, but the values convert to
    # different polynomials, so the plans must differ
    s = BivarPoly.constant(1)
    ring_a, plan_a = evaluators._plan(
        HessenbergMatrix([[X, s, ZERO], [ZERO, X, s], [X * Y, ZERO, X]]), True, 3
    )
    ring_b, plan_b = evaluators._plan(
        HessenbergMatrix([[X, s, ZERO], [ZERO, X, s], [Y, ZERO, X]]), True, 3
    )
    assert (ring_a.w, ring_b.w) == (2, 3)
    assert plan_a[1:] == plan_b[1:] and plan_a != plan_b


def test_a_plan_names_each_minors_last_reader():
    # minor c is read by every row with a nonzero in column c on or below
    # the diagonal and freed at the last of them; a minor that no planned
    # row reads, minor `order` among them, is never kept: every row of
    # tests/matrix_shapes.py at p 1-4 and each order to 7, planned whole
    # and short of its last row
    for name, shape in SHAPES.items():
        for p in range(1, 5):
            for n in range(shape.n_min, 8):
                a = shape.make(p, n)
                rows = a.rows()
                for order in (n, n - 1):
                    last_read = evaluators._plan(a, True, order)[1][3]
                    want = [
                        max((i for i in range(c, order) if not rows[i][c].is_zero()), default=-1)
                        for c in range(order + 1)
                    ]
                    assert last_read == want, (name, p, n, order)


def per_row_plan(a, signed, order):
    """The plan ``evaluators._plan`` makes, by a pass over every row: a
    row repeats the row above when it is the same map and every factor
    its windows swap lies in one run of equal superdiagonal scalars, and
    any other row walks its windows; each row writes its minors' last
    reader.  ``_plan`` walks only the rows that cannot repeat and fills
    the rest of each run in one step, and must give this plan."""
    rows = a._rows
    distinct = {id(row): row for row in rows}
    ring = kernel_for((1 - d, e) for row in distinct.values() for d, e in row.items())
    superdiag, coefficients, lengths, last_read = [], [], [], [-1] * (order + 1)
    start, prev = 0, None
    for i, row in enumerate(rows[:order]):
        if row is prev and start <= i - 1 + deepest:
            lengths[-1] += 1
        else:
            if row is not prev:
                scalar = ring.scalar(row.get(1, ZERO), signed)
                deepest = next(reversed(row), 0)
                if i and scalar != superdiag[-1]:
                    start = i
                prev = row
            entries = []
            prod, k = ring.unit, i
            for d, entry in row.items():
                if d > 0:
                    continue
                while k > i + d:
                    k -= 1
                    prod = ring.times(prod, superdiag[k])
                entries.append((d, ring.coefficient(entry, prod)))
            coefficients.append(entries)
            lengths.append(1)
        superdiag.append(scalar)
        for d in row:
            if d <= 0:
                last_read[i + d] = i
    return (type(ring), getattr(ring, "w", None)), coefficients, lengths, last_read


def assert_plans_per_row(a, orders, label):
    for signed in (True, False):
        for order in orders:
            want = per_row_plan(a, signed, order)
            assert evaluators._plan(a, signed, order)[1] == want, (label, signed, order)


def test_the_set_up_gives_the_per_row_plan_on_every_shape():
    # every row of tests/matrix_shapes.py at p 1-4, each order to n
    for name, shape in SHAPES.items():
        for p in range(1, 5):
            for n in range(shape.n_min, 8):
                assert_plans_per_row(shape.make(p, n), range(n + 1), (name, p, n))


@pytest.mark.parametrize("make", [three_constant_superdiagonal, two_constant_superdiagonal, far_entry])
def test_the_set_up_gives_the_per_row_plan_past_a_scalar_change(make):
    # three_constant_superdiagonal's last run has windows that cross a[7, 8]
    # up to row p + 8: those rows walk, and the rows past them repeat.  A
    # plan of order k reads the first k rows, which an order-44 matrix
    # shares with the order-(k + 1) matrix but for the last row's map:
    # every order of the order-44 matrix, and the last two of each other
    for p in range(1, 6):
        for n in range(1, 45):
            orders = range(n + 1) if n == 44 else (0, n - 1, n)
            assert_plans_per_row(make(p, n), orders, (make.__name__, p, n))


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("p", [1, 2, 5, 30, 300])
def test_the_set_up_gives_the_per_row_plan_on_the_builders(builder, p):
    # each builder as built, as the same rows in maps of their own, and
    # with one row scaled in its head, its body and its last run
    i = GaussianInt(0, 1)
    for n in sorted({1, 2, p, p + 1, p + 2, 2 * p + 3, 700}):
        a = builder(p, n)
        orders = (0, n - 1, n)
        assert_plans_per_row(a, orders, (p, n))
        copied = HessenbergMatrix._from_nonzeros([dict(row) for row in a._rows])
        assert_plans_per_row(copied, orders, ("copied", p, n))
        for row in {p // 2, (p + n - 2) // 2, n - 1}:  # head, body, last
            if row < n:
                assert_plans_per_row(a.scale_row(row, 2), orders, ("scaled by 2", row, p, n))
                assert_plans_per_row(a.scale_row(row, i), orders, ("scaled by i", row, p, n))


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("p", [1, 2, 5])
def test_the_set_up_gives_the_per_row_plan_on_dense_builders(builder, p):
    for n in (1, 2, p, p + 1, p + 2, 2 * p + 3, 40):
        assert_plans_per_row(HessenbergMatrix(builder(p, n).rows()), range(n + 1), (p, n))


@pytest.mark.parametrize("p", [1, 5, 300])
@pytest.mark.parametrize("builder", BUILDERS)
def test_the_set_up_gives_the_per_row_plan_at_scale(builder, p):
    # at n = 5000 a plan of order n // 2 or n - 1 ends inside the band's
    # run, past the rows that walk: in its repeating tail
    n = 5000
    assert_plans_per_row(builder(p, n), (p, p + 1, n // 2, n - 1, n), (p, n))


def alternating_maps(n, b):
    """Order n: a head row, then rows that alternate between two maps, A
    with superdiagonal 1 and y at offset -1 and B with superdiagonal b and
    2y there, and a last row.  Every run of one map is one row long, and
    A and B each head about n / 2 runs."""
    one = BivarPoly.constant(1)
    head, last = {1: one, 0: X}, ({0: X, -1: Y} if n > 1 else {0: X})
    pair = [{1: one, 0: X, -1: Y}, {1: BivarPoly.constant(b), 0: X, -1: Y.scale(2)}]
    return HessenbergMatrix._from_nonzeros(([head] + pair * n)[: n - 1] + [last])


@pytest.mark.parametrize("b", [1, GaussianInt(0, 1)])
def test_maps_that_head_many_runs(b):
    # equal superdiagonal scalars, and ones that change every row
    for n in range(1, 41):
        a = alternating_maps(n, b)
        assert_plans_per_row(a, range(n + 1) if n == 40 else (n - 1, n), (b, n))
        if n <= EvalBudget().max_det_order:
            assert det_hessenberg(a) == det_oracle(a), (b, n)
        if n <= EvalBudget().max_per_order:
            assert per_hessenberg(a) == per_oracle(a), (b, n)


def test_recursion_keeps_only_the_minors_it_will_read(monkeypatch):
    # every stream runs the loop: a banded matrix needs only the last p + 1
    # minors between rows; keeping all n + 1 peaks at about 15 MiB for W
    # and H, and keeping a window from the farthest entry to the diagonal at
    # about 8.7 MiB for the far-entry matrix
    w, h, far = build_w(1, 600), build_h(1, 600), far_entry(2, 80)
    for signed, a in ((True, w), (False, h), (True, far), (False, far)):
        tracemalloc.start()
        try:
            kernel, minors = evaluators.leading_minors(a, signed)
            evaluators.last_poly(kernel.poly, minors, a.n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, (signed, a.n, peak)
    # one value by columns holds the columns up to the largest y-shift
    # below the one it builds: W's band reads one column below, and a band
    # of x*y + y^2 at offset -1, with y of weight 1, reads two
    made, alive = [], []

    class Column(list):
        """A column that the test holds weakly, to count those alive."""

    def column(values):
        new = Column(values)
        made.append(weakref.ref(new))
        alive.append(sum(ref() is not None for ref in made))
        return new

    two_shifts = HessenbergMatrix._from_nonzeros(
        [{1: ONE, 0: X}] + [{1: ONE, 0: X, -1: X * Y + Y * Y}] * 598 + [{0: X, -1: X * Y + Y * Y}]
    )
    for a, top in ((w, 1), (two_shifts, 2)):
        ring_a, plan = evaluators._plan(a, True, a.n)
        made.clear(), alive.clear()
        with monkeypatch.context() as m:
            m.setattr(evaluators, "list", column, raising=False)
            columns = evaluators._columns(plan)
            assert columns is not None
            by_columns = ring_a.poly(columns, a.n)
        assert len(made) == a.n // plan[0][1] and max(alive) <= top + 1, (top, max(alive))
        assert by_columns == loop_value(ring_a, plan, a.n)


def loop_value(kernel, plan, degree):
    """A plan's last minor from the row loop, ``evaluators._run``."""
    return evaluators.last_poly(kernel.poly, evaluators._run(kernel, plan), degree)


def columns_exact(plan):
    """Whether ``evaluators._columns`` is exact on a plan: it is graded,
    every coefficient is real, and each run's only y-free term is 1 at
    offset 0."""
    (kind, _), coefficients, _, _ = plan
    return kind is ring.GradedKernel and all(
        [(d, cr, ci) for d, coeff in entries for j, cr, ci in coeff if not j] == [(0, 1, 0)]
        and not any(ci for _, coeff in entries for _, _, ci in coeff)
        for entries in coefficients
    )


def test_columns_give_the_loops_value_on_every_shape_they_fit():
    # every row of tests/matrix_shapes.py at p 1-4 and orders to 30: where
    # the columns are exact and pay they give the loop's last value, and
    # they turn down every plan they do not fit.  A PolyKernel row never
    # fits, and its set-up multiplies BivarPoly windows, so it stops at
    # order 7
    fits = set()
    for name, shape in SHAPES.items():
        for p in range(1, 5):
            for n in range(shape.n_min, 31):
                if n > 7 and shape.kernel(p, n) is None:
                    break
                a = shape.make(p, n)
                for signed in (True, False):
                    kernel, plan = evaluators._plan(a, signed, n)
                    columns = evaluators._columns(plan)
                    if not columns_exact(plan):
                        assert columns is None, (name, p, n)
                        continue
                    if columns is None:  # exact, but would not pay
                        continue
                    fits.add(name)
                    got = kernel.poly(columns, n)
                    assert got == loop_value(kernel, plan, n), (name, p, n, signed)
    assert {"build_w", "zero_superdiagonal_in_band", "alternating_band"} <= fits


@pytest.mark.parametrize("builder", BUILDERS)
def test_columns_give_the_loops_value_on_the_builders(builder):
    # the benchmark's and CI's sizes, whole and as a route plans them, and
    # every n <= p, where y is in no entry, w = 1 and only column 0 is built
    signed = builder in (build_w, build_m)
    for p, n in ((1, 3001), (2, 651), (5, 781), (300, 3001)):
        a = builder(p, n)
        for order in (n - 1, n):
            kernel, plan = evaluators._plan(a, signed, order)
            columns = evaluators._columns(plan)
            assert columns is not None, (p, n, order)
            assert kernel.poly(columns, order) == loop_value(kernel, plan, order)
    for p in (1, 2, 5, 300):
        for n in sorted({1, min(2, p), p // 2 + 1, p}):
            kernel, plan = evaluators._plan(builder(p, n), signed, n)
            assert plan[0][1] == 1
            assert evaluators._columns(plan) == ([1], []), (p, n)
            assert loop_value(kernel, plan, n) == X**n


def test_the_rule_takes_the_loop_where_the_columns_do_not_fit_or_pay():
    # a Gaussian coefficient, a diagonal scaled by 2, PolyKernel, and a
    # run per band row, where the columns would be exact but slow
    a = build_w(5, 80)
    cases = {
        "gaussian coefficient": two_constant_superdiagonal(30, 400),
        "scaled diagonal": a.scale_row(40, 2),
        "scaled head diagonal": a.scale_row(2, 2),
        "far entry": far_entry(30, 400),
        "random general": SHAPES["random_general"].make(3, 40),
        "alternating band (1, 400)": alternating_band(1, 400),
        "alternating band (5, 780)": alternating_band(5, 780),
    }
    for label, m in cases.items():
        for signed in (True, False):
            _, plan = evaluators._plan(m, signed, m.n)
            assert evaluators._columns(plan) is None, (label, signed)
    assert columns_exact(evaluators._plan(cases["alternating band (1, 400)"], True, 400)[1])


# --- graded kernel and its fallback ---------------------------------------
#
# A matrix whose every term x^a y^b of entry (i, j) has weight
# a + w*b = i - j + 1, for one y-weight w >= 1, runs on the ring's graded
# kernel; any other matrix runs on BivarPoly.  Both must be exact.


def graded_weight(a):
    """The w of the ``GradedKernel(w)`` that ``det_hessenberg(a)`` runs on,
    or None when it runs on ``PolyKernel``."""
    kernels = []

    def record(pairs):
        kernels.append(ring.kernel_for(pairs))
        return kernels[-1]

    with mock.patch.object(evaluators, "kernel_for", record):
        det_hessenberg(a)
    (kernel,) = kernels
    return kernel.w if isinstance(kernel, ring.GradedKernel) else None


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("p", [1, 2, 4])
def test_grading_never_reads_band(builder, p):
    for n in (1, 2, p + 1, p + 2, 12):
        a = builder(p, n)
        bare = HessenbergMatrix(a.rows())
        assert graded_weight(a) is not None
        assert graded_weight(bare) == graded_weight(a) == (p + 1 if n > p else 1)
        assert det_hessenberg(bare) == det_hessenberg(a)
        assert per_hessenberg(bare) == per_hessenberg(a)


# every row of tests/matrix_shapes.py at p 1-4 and each order from the
# row's smallest to 7: the kernel it runs on, and the recursion's det and
# per against the first-row expansion oracles
@pytest.mark.parametrize(
    "name, p, n",
    [
        pytest.param(name, p, n, id=f"{n}-{p}-{name}")
        for name, shape in SHAPES.items()
        for p in range(1, 5)
        for n in range(shape.n_min, 8)
    ],
)
def test_oracle_equivalence_grid(name, p, n):
    shape = SHAPES[name]
    a = shape.make(p, n)
    assert graded_weight(a) == shape.kernel(p, n)
    assert det_hessenberg(a) == det_oracle(a)
    assert per_hessenberg(a) == per_oracle(a)


def snapshot(value):
    """A copy of a raw value that shares no list with it: a graded value's
    two lists as tuples, or a ``BivarPoly``'s terms."""
    return value.term_parts() if isinstance(value, BivarPoly) else tuple(map(tuple, value))


def unchanged_after_the_end(values):
    """Whether each value the stream ``values`` yields is still what it
    was when yielded, once the stream has ended."""
    seen = [(value, snapshot(value)) for value in values]
    return all(snapshot(value) == snap for value, snap in seen)


def test_no_stream_changes_a_value_after_yielding_it():
    # a graded sum shares its first term's list when that term is 1 * v at
    # shift 0, and no later step may add into it: the five fast streams at
    # p 1, 2, 5 up to n = 120, and det and per of every row of
    # tests/matrix_shapes.py at p 1-4 and n up to 7
    for name in sequences._FAST_ROUTES:
        for p in (1, 2, 5):
            _, values = sequences.ROUTES[name].prefix(p, 120)
            assert unchanged_after_the_end(values), (name, p)
    for name, shape in SHAPES.items():
        for p in range(1, 5):
            for n in range(shape.n_min, 8):
                a = shape.make(p, n)
                for signed in (True, False):
                    _, values = evaluators.leading_minors(a, signed)
                    assert unchanged_after_the_end(values), (name, p, n, signed)


@contextlib.contextmanager
def bivarpoly_products(calls):
    """Append to ``calls`` each call of the BivarPoly product kernel."""
    products = (ring.sum_of_products.__code__, BivarPoly.__mul__.__code__)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in products:
            calls.append(frame.f_code.co_name)

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield
    finally:
        sys.setprofile(old)


def test_graded_routes_make_no_bivarpoly_product():
    # the graded kernel works on int lists; BivarPoly appears only when the
    # matrix is built and when the result is handed back
    w = build_w(2, 60)
    pell, chebyshev = get_family("pell-bivariate-p"), get_family("chebyshev-U")
    calls = []
    with bivarpoly_products(calls):
        values = det_hessenberg(w), f_poly(2, 61)
        family_value(pell, 40, p=2), family_value(chebyshev, 40)
    assert calls == []
    assert values[0] == values[1]
    # the same counter sees the BivarPoly kernel of a matrix that is not graded
    a = SHAPES["x_plus_one_diagonal"].make(2, 5)
    with bivarpoly_products(calls):
        det_hessenberg(a)
    assert calls
