"""Determinant/permanent recursions against brute-force oracles."""

import random

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
from fibhess.ring import ONE, X, Y, ZERO, BivarPoly, GaussianInt

BUILDERS = [build_w, build_m, build_h, build_k]


def P(terms):
    return BivarPoly(terms)


# --- paper worked examples ------------------------------------------------


def test_det_w_4_5():
    assert det_hessenberg(build_w(4, 5)) == Y + X**5


def test_det_m_3_5():
    assert det_hessenberg(build_m(3, 5)) == P({(1, 1): 2, (5, 0): 1})


def test_per_h_3_5():
    assert per_hessenberg(build_h(3, 5)) == P({(1, 1): 2, (5, 0): 1})


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


@pytest.mark.parametrize("builder", BUILDERS)
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
    return HessenbergMatrix(rows, band=p)


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


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("n", range(1, 13))
def test_realness_despite_complex_entries(p, n):
    assert det_hessenberg(build_w(p, n)).is_real()
    assert per_hessenberg(build_h(p, n)).is_real()


def test_band_fast_path_matches_generic():
    # same entries with and without the band annotation
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(2, 7)
        a = random_band_matrix(rng, n)
        bare = HessenbergMatrix([list(r) for r in a.rows()])
        assert det_hessenberg(a) == det_hessenberg(bare)
        assert per_hessenberg(a) == per_hessenberg(bare)


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
