"""Determinant/permanent recursions against brute-force oracles."""

import contextlib
import random
import sys
import tracemalloc
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
from fibhess import evaluators, ring
from fibhess.ring import ONE, X, Y, ZERO, BivarPoly, GaussianInt
from fibhess.sequences import f_poly, family_value, get_family

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


# sparse shapes: minors that no row reads, and rows that read no minor


def hessenberg_positions(n):
    return {(i, j) for i in range(n) for j in range(min(i + 2, n))}


def superdiagonal_only(n):
    return {(i, i + 1) for i in range(n - 1)}


def middle_row_reads_nothing(n):
    return {(i, j) for i, j in hessenberg_positions(n) if i != n // 2 or j > i}


def empty_last_row(n):
    return {(i, j) for i, j in hessenberg_positions(n) if i < n - 1}


def zero_diagonal_full_first_column(n):
    # minors 1..n are never read
    return {(i, 0) for i in range(n)} | superdiagonal_only(n)


def shaped(shape, graded):
    """A builder (p, n) of the order-n matrix with a nonzero at each (i, j)
    of ``shape(n)``: c*x^d, plus c*x^(d-p-1)*y if d > p, of weight
    d = i - j + 1 (a Gaussian scalar c on the superdiagonal), which runs on
    the graded kernel; unless ``graded``, x is added on the superdiagonal
    and 1 below it, which runs on PolyKernel."""

    def build(p, n):
        rows = [[ZERO] * n for _ in range(n)]
        for i, j in shape(n):
            d, c = i - j + 1, GaussianInt(1 + (i + j) % 3, (i - j) % 3 - 1)
            entry = P({(d, 0): c, (d - p - 1, 1): c} if d > p else {(d, 0): c})
            rows[i][j] = entry if graded else entry + (X if d == 0 else ONE)
        return HessenbergMatrix(rows)

    build.__name__ = f"{shape.__name__}_{'graded' if graded else 'poly'}"
    build.graded = graded
    return build


SHAPED = [
    shaped(shape, graded)
    for shape in (
        superdiagonal_only,
        middle_row_reads_nothing,
        empty_last_row,
        zero_diagonal_full_first_column,
    )
    for graded in (True, False)
]


# acceptance criterion 4 runs the four paper builders over the same p and n;
# build_w's column is the one twin of it left here
@pytest.mark.parametrize("builder", [build_w] + SHAPED)
@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_oracle_equivalence_grid(builder, p, n):
    a = builder(p, n)
    assert det_hessenberg(a) == det_oracle(a)
    assert per_hessenberg(a) == per_oracle(a)


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


def random_general_matrix(rng, n):
    """Lower Hessenberg with several nonzeros below the diagonal per row.

    Row n-1 always holds at least two entries below the diagonal, and
    diagonal or superdiagonal entries are zero about one time in four.
    """

    def small_poly():
        return P(
            {
                (rng.randint(0, 1), rng.randint(0, 1)): GaussianInt(
                    rng.randint(-2, 2), rng.randint(-2, 2)
                ),
                (0, 0): rng.randint(-2, 2),
            }
        )

    rows = []
    for i in range(n):
        row = [ZERO] * n
        row[i] = ZERO if rng.random() < 0.25 else small_poly()
        if i + 1 < n and rng.random() >= 0.25:
            row[i + 1] = BivarPoly.constant(
                GaussianInt(rng.randint(-2, 2), rng.randint(-2, 2))
            )
        for j in range(i):
            if rng.random() < 0.6:
                row[j] = small_poly()
        rows.append(row)
    for j in rng.sample(range(n - 1), 2):
        rows[n - 1][j] = Y + BivarPoly.constant(rng.randint(1, 3))
    return HessenbergMatrix(rows)


def test_recursion_matches_oracles_on_general_matrices():
    rng = random.Random(19)
    zero_diag = zero_super = 0
    for _ in range(40):
        n = rng.randint(3, 7)
        a = random_general_matrix(rng, n)
        zero_diag += sum(a[i, i].is_zero() for i in range(n))
        zero_super += sum(a[i, i + 1].is_zero() for i in range(n - 1))
        assert det_hessenberg(a) == det_oracle(a)
        assert per_hessenberg(a) == per_oracle(a)
    assert zero_diag > 0 and zero_super > 0


@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
def test_graded_recursion_with_zero_diagonal_entries_matches_oracles(build):
    # a zero diagonal entry is no entry of its row: the row's sum runs over
    # the band and the superdiagonal products alone.  The matrices stay
    # graded, so this runs the graded kernel (the general matrices above
    # run PolyKernel)
    for p, n, zeros in ((1, 6, {0, 3}), (2, 7, {1, 2, 6}), (3, 8, set(range(8)))):
        # each row in the reading order _from_nonzeros takes: column i + 1,
        # then i unless it is zeroed, then the band at i - p
        dense = build(p, n).rows()
        rows = []
        for i in range(n):
            cols = [j for j in (i + 1, i, i - p) if 0 <= j < n and not (j == i and i in zeros)]
            rows.append({j: dense[i][j] for j in cols})
        assert all(list(row) == sorted(row, reverse=True) for row in rows)
        a = HessenbergMatrix._from_nonzeros(rows)
        assert isinstance(evaluators.leading_minors(a, True)[0], ring.GradedKernel)
        assert det_hessenberg(a) == det_oracle(a), (p, n, zeros)
        assert per_hessenberg(a) == per_oracle(a), (p, n, zeros)


def far_entry_matrix(n):
    """A band at offset 2 plus an entry in column 0 of the last row: minor
    0 (the empty block, 1) is read by rows 0, 2 and n - 1.  Its diagonal,
    x plus the row index, makes it run on PolyKernel."""
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = X + BivarPoly.constant(i)
        if i + 1 < n:
            rows[i][i + 1] = BivarPoly.constant(GaussianInt(1, i % 3 - 1))
        if i >= 2:
            rows[i][i - 2] = Y.scale(i)
    rows[n - 1][0] = Y + ONE
    return HessenbergMatrix(rows)


def test_recursion_keeps_only_the_minors_it_will_read():
    # a banded matrix needs only the last p + 1 minors between rows;
    # keeping all n + 1 peaks at about 15 MiB for W and H, and keeping a
    # window from the farthest entry to the diagonal at about 8.7 MiB for
    # the far-entry matrix
    w, h, far = build_w(1, 600), build_h(1, 600), far_entry_matrix(80)
    cases = ((det_hessenberg, w), (per_hessenberg, h), (det_hessenberg, far), (per_hessenberg, far))
    for evaluate, a in cases:
        tracemalloc.start()
        try:
            evaluate(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, (evaluate.__name__, a.n, peak)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_minor_zero_read_by_the_last_row(n):
    a = far_entry_matrix(n)
    assert det_hessenberg(a) == det_oracle(a)
    assert per_hessenberg(a) == per_oracle(a)


# --- graded kernel and its fallback ---------------------------------------
#
# A matrix whose every term x^a y^b of entry (i, j) has weight
# a + w*b = i - j + 1, for one y-weight w >= 1, runs on the ring's graded
# kernel; any other matrix runs on BivarPoly.  Both must be exact.


def random_gaussian(rng):
    return GaussianInt(rng.randint(-3, 3), rng.randint(-3, 3))


def random_graded_matrix(rng, n, w):
    """Entries of weight i - j + 1 with Gaussian coefficients: scalars on
    the superdiagonal, and every x^(d - w*b) y^b of weight d below it."""
    rows = []
    for i in range(n):
        row = [ZERO] * n
        if i + 1 < n:
            row[i + 1] = BivarPoly.constant(random_gaussian(rng))
        for j in range(i + 1):
            if j == i or rng.random() < 0.5:
                d = i - j + 1
                row[j] = P({(d - w * b, b): random_gaussian(rng) for b in range(d // w + 1)})
        rows.append(row)
    return HessenbergMatrix(rows)


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


@pytest.mark.parametrize("w", [1, 2, 3])
def test_graded_matrices_match_oracles(w):
    rng = random.Random(29 + w)
    for _ in range(15):
        a = random_graded_matrix(rng, rng.randint(1, 7), w)
        assert graded_weight(a) is not None
        assert det_hessenberg(a) == det_oracle(a)
        assert per_hessenberg(a) == per_oracle(a)


def test_graded_without_y_matches_oracles():
    # no entry holds y, so any weight fits: x^(i-j+1) times a constant
    rng = random.Random(31)
    n = 6
    rows = [
        [P({(i - j + 1, 0): random_gaussian(rng)}) if j <= i + 1 else ZERO for j in range(n)]
        for i in range(n)
    ]
    a = HessenbergMatrix(rows)
    assert graded_weight(a) is not None
    assert det_hessenberg(a) == det_oracle(a)
    assert per_hessenberg(a) == per_oracle(a)


def x_plus_one_diagonal(p, n):
    rows = [list(row) for row in build_w(p, n).rows()]
    for i in range(n):
        rows[i][i] = X + ONE
    return HessenbergMatrix(rows)


def y_squared_at_offset_two(p, n):
    # y^2 in entries of weight 3 would need y of weight 3/2
    rows = [list(row) for row in build_k(p, n).rows()]
    for i in range(2, n):
        rows[i][i - 2] = Y * Y.scale(p)
    return HessenbergMatrix(rows)


def row_times(a, i, f):
    """a with every entry of row i multiplied by the polynomial f."""
    rows = [list(row) for row in a.rows()]
    rows[i] = [e * f for e in rows[i]]
    return HessenbergMatrix(rows)


@pytest.mark.parametrize(
    "make",
    [
        lambda p, n: row_times(build_w(p, n), n // 2, X),
        lambda p, n: row_times(build_h(p, n), 0, X + Y),
        x_plus_one_diagonal,
        y_squared_at_offset_two,
    ],
    ids=["row-times-x", "row-times-x-plus-y", "x-plus-one-diagonal", "no-integer-weight"],
)
@pytest.mark.parametrize("p", [1, 2, 3])
def test_ungraded_matrices_match_oracles(make, p):
    for n in range(3, 8):
        a = make(p, n)
        assert graded_weight(a) is None
        assert det_hessenberg(a) == det_oracle(a)
        assert per_hessenberg(a) == per_oracle(a)


@pytest.mark.parametrize("builder", SHAPED, ids=lambda b: b.__name__)
def test_shaped_matrices_run_on_the_kernel_they_name(builder):
    for n in range(2, 8):
        assert (graded_weight(builder(2, n)) is not None) == builder.graded, n


def test_random_general_matrices_are_mostly_ungraded():
    # the general-matrix oracle test above covers the BivarPoly fallback
    rng = random.Random(19)
    graded = [graded_weight(random_general_matrix(rng, rng.randint(3, 7))) for _ in range(40)]
    assert graded.count(None) >= 35


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
    a = x_plus_one_diagonal(2, 5)
    with bivarpoly_products(calls):
        det_hessenberg(a)
    assert calls
