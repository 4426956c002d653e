"""Every matrix shape the evaluator tests run, one row each.

``SHAPES`` maps a name to a maker ``(p, n) -> HessenbergMatrix``, the
kernel that matrix must run on (``kernel(p, n)`` is the w of
``GradedKernel(w)``, or None for ``PolyKernel``) and the row's smallest
order.  ``tests/test_evaluators.py`` holds the recursion to the first-row
(Laplace) oracles on every row, and ``tests/test_sympy_oracle.py`` the
oracles to sympy, so a new shape is one more row.  A random row seeds its
generator with its own label, p and n, so each case is one fixed matrix.
Acceptance criterion 4 runs the paper builders.
"""

import random
from typing import Callable, NamedTuple

from fibhess.matrices import HessenbergMatrix, build_h, build_k, build_m, build_w
from fibhess.ring import ONE, X, Y, ZERO, BivarPoly, GaussianInt


class Shape(NamedTuple):
    make: Callable  # (p, n) -> HessenbergMatrix
    kernel: Callable  # (p, n) -> w of GradedKernel(w), or None for PolyKernel
    n_min: int = 1


def poly(p, n):
    return None


def band(p, n):
    # a paper matrix's y sits at offset p, inside the matrix once n > p
    return p + 1 if n > p else 1


def gaussian(rng):
    """A nonzero Gaussian integer with parts in -3..3."""
    return GaussianInt(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-3, 3))


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


def sparse(positions, graded):
    """A nonzero of weight d = i - j + 1 at each (i, j) of ``positions(n)``:
    c*x^d, plus c*x^(d-p-1)*y if d > p, graded with y of weight p + 1 (a
    Gaussian scalar c on the superdiagonal); unless ``graded``, plus x on
    the superdiagonal and 1 below it."""

    def make(p, n):
        rows = [[ZERO] * n for _ in range(n)]
        for i, j in positions(n):
            d, c = i - j + 1, GaussianInt(1 + (i + j) % 3, (i - j) % 3 - 1)
            entry = BivarPoly({(d, 0): c, (d - p - 1, 1): c} if d > p else {(d, 0): c})
            rows[i][j] = entry if graded else entry + (X if d == 0 else ONE)
        return HessenbergMatrix(rows)

    def kernel(p, n):
        # a matrix with no nonzero, or no y, is graded with w = 1
        degrees = [i - j + 1 for i, j in positions(n)]
        if degrees and not graded:
            return None
        return p + 1 if max(degrees, default=0) > p else 1

    return Shape(make, kernel)


def edited(build, edit, kernel, n_min=1):
    """A row of ``build(p, n)`` with each entry e at (i, j) replaced by
    ``edit(p, n, i, j, e)``."""

    def make(p, n):
        rows = enumerate(build(p, n).rows())
        return HessenbergMatrix([[edit(p, n, i, j, e) for j, e in enumerate(r)] for i, r in rows])

    return Shape(make, kernel, n_min)


# the diagonal entries zeroed at each p, those below n: a zero diagonal entry
# is no entry of its row, so the row sums the band and superdiagonal alone
ZEROED = {1: {0, 3}, 2: {1, 2, 6}, 3: set(range(7)), 4: {0, 2, 4, 5}}


def far_entry(p, n):
    """A band at offset p plus an entry in column 0 of the last row: minor
    0 (the empty block, 1) is read by rows 0, p and n - 1.  Its diagonal,
    x plus the row index, makes it run on PolyKernel."""
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = X + BivarPoly.constant(i)
        if i + 1 < n:
            rows[i][i + 1] = BivarPoly.constant(GaussianInt(1, i % 3 - 1))
        if i >= p:
            rows[i][i - p] = Y.scale(i)
    rows[n - 1][0] = Y + ONE
    return HessenbergMatrix(rows)


def two_constant_superdiagonal(p, n):
    """Graded with y of weight p + 1: x on the diagonal, two Gaussian
    constants a and b on the superdiagonal in the order a, a, b, a, b, b, a,
    and entries c*y at offset p and c*x*y at offset p + 1, c varying by row.
    From row p on, c changes every row, so each row is its own map and
    none repeats the row above: every such row walks its windows of p and
    p + 1 factors out from the diagonal, over a superdiagonal that varies
    in no short period."""
    a, b = BivarPoly.constant(GaussianInt(1, 1)), BivarPoly.constant(GaussianInt(2, -1))
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = X
        if i + 1 < n:
            rows[i][i + 1] = (a, a, b, a, b, b, a)[i % 7]
        c = GaussianInt(1 + i % 3, i % 2 - 1)
        if i >= p:
            rows[i][i - p] = Y.scale(c)
        if i >= p + 1:
            rows[i][i - p - 1] = (X * Y).scale(c)
    return HessenbergMatrix(rows)


def three_constant_superdiagonal(p, n):
    """build_k(p, n) with rows 1, 2, 4 and 7 scaled by 2, i, i and 2, so its
    superdiagonal reads 1, 2, i, 1, i, 1, 1, 2 and then 1 to the end.  The
    rows between keep the map they share, so a row that has the map above
    repeats the row above only once every factor its band's window swaps
    is 1: the first past row 7 to do so is row p + 9, which swaps a[8, 9]
    for a[p + 8, p + 9], and row p + 8, which swaps a[7, 8] = 2 out, must
    make its own coefficients."""
    a = build_k(p, n)
    for i, c in ((1, 2), (2, GaussianInt(0, 1)), (4, GaussianInt(0, 1)), (7, 2)):
        if i < n:
            a = a.scale_row(i, c)
    return a


def random_graded(w):
    """Entries of weight i - j + 1 with y of weight w and nonzero Gaussian
    coefficients: scalars on the superdiagonal, and every x^(d - w*b) y^b of
    weight d on the diagonal, in column 0 of the last row and in about half
    the other places below.  The corner entry has weight n, so y is there
    once n >= w; past every weight (w > n) no entry holds y."""

    def make(p, n):
        rng = random.Random(f"graded {w} {p} {n}")

        def entry(i, j):
            if j > i + 1 or (j < i and (i, j) != (n - 1, 0) and rng.random() < 0.5):
                return ZERO
            d = i - j + 1
            return BivarPoly({(d - w * b, b): gaussian(rng) for b in range(d // w + 1)})

        return HessenbergMatrix([[entry(i, j) for j in range(n)] for i in range(n)])

    return Shape(make, lambda p, n: w if n >= w else 1)


def random_general(p, n):
    """Terms x^a y^b with a, b <= 1 and Gaussian coefficients anywhere in
    the lower-Hessenberg shape, about a quarter of the places zero and one
    diagonal and one superdiagonal entry always zero; two places left of
    the diagonal in the last row hold y + c, c = 1..3, whose constant term
    keeps the matrix off the graded kernel."""
    rng = random.Random(f"general {p} {n}")

    def entry():
        monos = rng.sample([(0, 0), (1, 0), (0, 1), (1, 1)], rng.randint(1, 3))
        return BivarPoly({mono: gaussian(rng) for mono in monos})

    rows = [
        [entry() if j <= i + 1 and rng.random() < 0.75 else ZERO for j in range(n)]
        for i in range(n)
    ]
    d, s = rng.randrange(n), rng.randrange(n - 1)
    rows[d][d] = rows[s][s + 1] = ZERO
    for j in rng.sample(range(n - 1), 2):
        rows[n - 1][j] = Y + BivarPoly.constant(rng.randint(1, 3))
    return HessenbergMatrix(rows)


SHAPES = {
    **{
        f"{positions.__name__}_{'graded' if graded else 'poly'}": sparse(positions, graded)
        for positions in (
            superdiagonal_only,
            middle_row_reads_nothing,
            empty_last_row,
            zero_diagonal_full_first_column,
        )
        for graded in (True, False)
    },
    **{
        f"{build.__name__}_zeroed_diagonal": edited(
            build, lambda p, n, i, j, e: ZERO if i == j and i in ZEROED[p] else e, band
        )
        for build in (build_w, build_m, build_h, build_k)
    },
    "build_w": Shape(build_w, band),  # acceptance criterion 4 runs all four builders
    "far_entry": Shape(far_entry, poly),
    "two_constant_superdiagonal": Shape(two_constant_superdiagonal, band),
    "three_constant_superdiagonal": Shape(three_constant_superdiagonal, band),
    # a zero superdiagonal entry, a[1, 2], inside the band's windows
    "zero_superdiagonal_in_band": edited(
        build_w, lambda p, n, i, j, e: ZERO if (i, j) == (1, 2) else e, band, n_min=3
    ),
    **{f"random_graded_w{w}": random_graded(w) for w in (1, 2, 3)},
    "graded_without_y": random_graded(8),  # 8 is past every order made here
    "random_general": Shape(random_general, poly, n_min=3),
    # ungraded: a row times x or x + y, x + 1 on the diagonal, and y^2 in
    # entries of weight 3, which would need y of weight 3/2
    "row_times_x": edited(build_w, lambda p, n, i, j, e: e * X if i == n // 2 else e, poly),
    "row_times_x_plus_y": edited(build_h, lambda p, n, i, j, e: e * (X + Y) if i == 0 else e, poly),
    "x_plus_one_diagonal": edited(build_w, lambda p, n, i, j, e: X + ONE if i == j else e, poly),
    "no_integer_weight": edited(
        build_k, lambda p, n, i, j, e: Y * Y.scale(p) if i - j == 2 else e, poly, n_min=3
    ),
}
