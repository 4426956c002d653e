"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a PASS line on success; run with ``pytest -s
tests/test_acceptance.py`` to see them.
"""

import random
import time

import pytest

from fibhess.cli import main
from fibhess.evaluators import (
    det_hessenberg,
    det_oracle,
    per_hessenberg,
    per_oracle,
)
from fibhess.matrices import build_h, build_k, build_m, build_w
from fibhess.ring import ONE, X, Y, ZERO, BivarPoly, GaussianInt
from fibhess.sequences import (
    cross_check,
    f_poly,
    f_poly_prefix,
    fib_p_number,
    family_value,
    get_family,
)


def P(terms):
    return BivarPoly(terms)


def test_criterion_1_paper_examples():
    assert det_hessenberg(build_w(4, 5)) == Y + X**5
    assert det_hessenberg(build_m(3, 5)) == P({(1, 1): 2, (5, 0): 1})
    assert per_hessenberg(build_h(3, 5)) == P({(1, 1): 2, (5, 0): 1})
    print("PASS criterion 1: worked matrix examples reproduce exactly")


def test_criterion_2_term_list_regression():
    assert f_poly_prefix(3, 6) == [
        ZERO, ONE, X, X**2, X**3, Y + X**4, P({(1, 1): 2, (5, 0): 1}),
    ]
    assert f_poly_prefix(4, 7) == [
        ZERO, ONE, X, X**2, X**3, X**4, Y + X**5, P({(1, 1): 2, (6, 0): 1}),
    ]
    print("PASS criterion 2: recurrence term lists for p=3 and p=4")


def test_criterion_3_five_way_grid():
    start = time.perf_counter()
    checks = 0
    for p in range(1, 6):
        for n in range(1, 26):
            assert cross_check(p, n).all_equal, f"mismatch at p={p}, n={n}"
            checks += 1
    elapsed = time.perf_counter() - start
    assert checks == 125
    assert elapsed < 30.0
    print(f"PASS criterion 3: 125/125 five-way checks in {elapsed:.2f}s")


def test_criterion_4_oracle_equivalence():
    for builder in (build_w, build_m, build_h, build_k):
        for p in range(1, 5):
            for n in range(1, 8):
                a = builder(p, n)
                assert det_hessenberg(a) == det_oracle(a)
                assert per_hessenberg(a) == per_oracle(a)
    print("PASS criterion 4: recursion equals the first-row expansion oracles")


def test_criterion_5_specializations():
    for p in range(1, 5):
        for n in range(1, 21):
            assert f_poly(p, n).eval_at(1, 1) == GaussianInt(fib_p_number(p, n), 0)

    # independent integer recurrences as oracles
    def int_seq(a0, a1, step, count):
        vals = [a0, a1]
        while len(vals) < count:
            vals.append(step(vals))
        return vals

    fib = int_seq(0, 1, lambda v: v[-1] + v[-2], 9)
    assert fib == [0, 1, 1, 2, 3, 5, 8, 13, 21]
    fam = get_family("fibonacci-numbers")
    assert [family_value(fam, n) for n in range(9)] == [
        BivarPoly.constant(v) for v in fib
    ]

    pell = int_seq(0, 1, lambda v: 2 * v[-1] + v[-2], 7)
    assert pell == [0, 1, 2, 5, 12, 29, 70]
    fam = get_family("pell-numbers")
    assert [family_value(fam, n) for n in range(7)] == [
        BivarPoly.constant(v) for v in pell
    ]

    jac = int_seq(0, 1, lambda v: v[-1] + 2 * v[-2], 7)
    assert jac == [0, 1, 1, 3, 5, 11, 21]
    fam = get_family("jacobsthal-numbers")
    assert [family_value(fam, n) for n in range(7)] == [
        BivarPoly.constant(v) for v in jac
    ]

    # Chebyshev U by its own recurrence
    two_x = X.scale(2)
    cheb = [ONE, two_x]
    while len(cheb) < 4:
        cheb.append(two_x * cheb[-1] - cheb[-2])
    assert cheb == [ONE, two_x, P({(2, 0): 4, (0, 0): -1}), P({(3, 0): 8, (1, 0): -4})]
    fam = get_family("chebyshev-U")
    assert [family_value(fam, n) for n in range(4)] == cheb
    print("PASS criterion 5: integer and Chebyshev specializations")


def test_criterion_6_realness():
    for p in range(1, 5):
        for n in range(1, 13):
            assert det_hessenberg(build_w(p, n)).is_real()
            assert per_hessenberg(build_h(p, n)).is_real()
    print("PASS criterion 6: real coefficients despite complex entries")


def test_criterion_7_property_suites():
    rng = random.Random(2024)

    def rand_poly():
        return BivarPoly(
            {
                (rng.randint(0, 3), rng.randint(0, 3)): GaussianInt(
                    rng.randint(-10, 10), rng.randint(-10, 10)
                )
                for _ in range(rng.randint(0, 5))
            }
        )

    for _ in range(200):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a  # law 1
        assert (a + b) + c == a + (b + c)  # law 2
        assert a * b == b * a  # law 3
        assert (a * b) * c == a * (b * c)  # law 4
        assert a * (b + c) == a * b + a * c  # law 5
        assert a + ZERO == a and a * ONE == a  # law 6
        assert a + (-a) == ZERO  # law 7

    # row-scaling linearity of det and per
    for _ in range(30):
        p = rng.randint(1, 3)
        n = rng.randint(2, 6)
        a = build_k(p, n)
        i = rng.randrange(n)
        for c in (2, GaussianInt(0, 1)):
            scaled = a.scale_row(i, c)
            assert det_hessenberg(scaled) == det_hessenberg(a).scale(c)
            assert per_hessenberg(scaled) == per_hessenberg(a).scale(c)

    # triangular case: zero superdiagonal -> product of the diagonal
    from fibhess.matrices import HessenbergMatrix

    for _ in range(30):
        n = rng.randint(1, 5)
        rows = []
        prod = ONE
        for i in range(n):
            row = [ZERO] * n
            if i >= 1:
                row[rng.randrange(i)] = Y
            d = P({(1, 0): rng.randint(-3, 3), (0, 0): rng.randint(-3, 3)})
            row[i] = d
            prod = prod * d
            rows.append(row)
        a = HessenbergMatrix(rows)
        assert det_hessenberg(a) == prod
        assert per_hessenberg(a) == prod

    # leading monomial x^(n-1) with unit coefficient
    for p in range(1, 5):
        for n in range(1, 22):
            poly = f_poly(p, n)
            assert poly.coeff(n - 1, 0) == GaussianInt(1, 0)
            assert poly.x_degree() == n - 1
    print("PASS criterion 7: ring laws, linearity, triangular, leading term")


def test_criterion_8_banded_performance(capsys):
    start = time.perf_counter()
    code = main(["gen", "--p", "2", "--n", "200", "--method", "det-w"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("x^199")
    assert elapsed < 10.0
    with capsys.disabled():
        print(f"\nPASS criterion 8: det-w at p=2, n=200 in {elapsed:.3f}s")
