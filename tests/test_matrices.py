"""Builders for the four banded Hessenberg families and shape checks."""

import tracemalloc

import pytest

from fibhess.evaluators import det_hessenberg, det_oracle, per_hessenberg, per_oracle
from fibhess.matrices import (
    HessenbergMatrix,
    ShapeError,
    build_h,
    build_k,
    build_m,
    build_w,
)
from fibhess.ring import ONE, X, Y, ZERO, BivarPoly, GaussianInt

I = BivarPoly.constant(GaussianInt(0, 1))

BUILDERS = [build_w, build_m, build_h, build_k]
# each builder's superdiagonal entry, and the c of its entry c^p * y at offset p
SUPERDIAGS = {build_w: I, build_m: -ONE, build_h: -I, build_k: ONE}
BAND_BASES = {build_w: I, build_m: ONE, build_h: I, build_k: ONE}


@pytest.mark.parametrize("builder", BUILDERS)
def test_one_by_one(builder):
    a = builder(1, 1)
    assert a.rows() == ((X,),)


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_structure_invariants(builder, p, n):
    # every entry: x on the diagonal, the superdiagonal entry above it,
    # c^p * y at offset p, and zero everywhere else
    entries = {0: X, 1: SUPERDIAGS[builder], -p: Y * BAND_BASES[builder] ** p}
    a = builder(p, n)
    assert a.n == n
    assert a.rows() == tuple(tuple(entries.get(j - i, ZERO) for j in range(n)) for i in range(n))


# The paper's proof, checked for every order at once.  Expanding a leading
# minor of order k along its last row leaves two terms: x times the minor of
# order k - 1, and the entry b at offset p times the p superdiagonal entries
# s times the minor of order k - p - 1.  So if a family has x on every
# diagonal slot, one constant s above it, one entry b at offset p and zeros
# elsewhere, its minors follow M_k = x*M_(k-1) + c*M_(k-p-1), where
# c = (-1)^p * s^p * b for det and s^p * b for per, and M_k = x^k for k <= p
# (no offset-p entry fits yet).  With c = y that is G's recurrence, so the
# matrix route equals the recurrence at every n, not only at the sizes tested.

EXPANSIONS = {build_w: "det", build_m: "det", build_h: "per", build_k: "per"}


def banded_constants(a, p):
    """The one superdiagonal entry s and the one entry b at offset p of
    ``a``, after checking x on the diagonal and zero everywhere else."""
    seen = {1: set(), -p: set()}  # column minus row -> entries found there
    for i in range(a.n):
        for j in range(a.n):
            e = a[i, j]
            if i == j:
                assert e == X
            elif j - i in seen:
                seen[j - i].add(e)
            else:
                assert e.is_zero()
    assert len(seen[1]) == len(seen[-p]) == 1
    s, b = seen[1].pop(), seen[-p].pop()
    assert all(mono == (0, 0) for mono, _ in s.terms())
    return s, b


@pytest.mark.parametrize("builder", BUILDERS)
def test_last_row_expansion_is_the_recurrence_at_every_n(builder):
    for p in range(1, 9):
        for n in (p + 2, 60):
            s, b = banded_constants(builder(p, n), p)
            c = s**p * b
            if EXPANSIONS[builder] == "det" and p % 2:
                c = -c
            assert c == Y, (p, n)


@pytest.mark.parametrize("builder", BUILDERS)
def test_leading_block_is_the_smaller_matrix(builder):
    # the check grid reads every order k <= N off one order-N matrix
    n = 12
    for p in range(1, 9):
        big = builder(p, n)
        for k in range(1, n + 1):
            small = builder(p, k)
            for i in range(k):
                for j in range(k):
                    assert big[i, j] == small[i, j], (p, k, i, j)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_h_is_w_with_conjugated_superdiagonal(p, n):
    w = build_w(p, n)
    h = build_h(p, n)
    for i in range(n):
        for j in range(n):
            if j == i + 1:
                assert h[i, j] == -w[i, j]
            else:
                assert h[i, j] == w[i, j]


@pytest.mark.parametrize("builder", BUILDERS)
def test_builder_rejects_bad_args(builder):
    with pytest.raises(ValueError):
        builder(0, 3)
    with pytest.raises(ValueError):
        builder(2, 0)
    with pytest.raises(ValueError):
        builder(-1, -1)


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("p, n, name", [(2.0, 5, "p"), ("2", 5, "p"), (2, 5.0, "n")])
def test_builder_rejects_non_int_counts(builder, p, n, name):
    with pytest.raises(TypeError, match=f"^{name} must be an int, got"):
        builder(p, n)


@pytest.mark.parametrize("builder", BUILDERS)
def test_builder_error_names_p(builder):
    # checked before the band entry i^p * y is made
    with pytest.raises(ValueError, match="^p must be >= 1, got -1$"):
        builder(-1, 5)


def test_empty_matrix_rejected():
    with pytest.raises(ShapeError):
        HessenbergMatrix([])


def test_shape_check_rejects_upper_entries():
    with pytest.raises(ShapeError):
        HessenbergMatrix([[X, ONE, ONE], [ZERO, X, ONE], [ZERO, ZERO, X]])


def test_shape_check_rejects_non_square():
    with pytest.raises(ShapeError):
        HessenbergMatrix([[X, ONE], [ZERO, X], [ZERO, ZERO]])


def test_hand_built_matrix_accepted():
    a = HessenbergMatrix([[X, ONE], [Y, X]])
    assert a.n == 2


@pytest.mark.parametrize("ij", [(3, 0), (0, 3), (-1, 0), (0, -1), (3, 3)])
def test_getitem_outside_the_matrix_raises(ij):
    a = build_k(1, 3)
    with pytest.raises(IndexError):
        a[ij]


def test_shape_check_rejects_non_poly_entries():
    with pytest.raises(TypeError, match="^entries must be BivarPoly$"):
        HessenbergMatrix([[1]])


@pytest.mark.parametrize("i", [-1, 3])
def test_scale_row_outside_the_matrix_raises(i):
    with pytest.raises(IndexError):
        build_k(1, 3).scale_row(i, 2)


@pytest.mark.parametrize("index", [1.0, "1"])
def test_non_int_index_is_rejected_by_name(index):
    a = build_k(1, 3)
    with pytest.raises(TypeError, match="^index must be a pair of ints, got"):
        a[index, 1]
    with pytest.raises(TypeError, match="^index must be a pair of ints, got"):
        a[1, index]
    with pytest.raises(TypeError, match="^row index must be an int, got"):
        a.scale_row(index, 2)
    # an index that is not a pair fails by the same rule, before it is unpacked
    for not_a_pair in (0, (0, 0, 0), (0,)):
        with pytest.raises(TypeError, match="^index must be a pair of ints, got"):
            a[not_a_pair]


def test_scale_row_takes_a_scalar_not_a_polynomial():
    i = GaussianInt(0, 1)
    assert build_w(2, 5).scale_row(2, i).rows()[2][2] == X.scale(i)
    with pytest.raises(TypeError):
        build_w(2, 5).scale_row(2, X)


def test_scale_row_by_zero_drops_the_row():
    for zero in (0, GaussianInt(0, 0)):
        a = build_m(1, 3).scale_row(1, zero)
        assert a.rows()[1] == (ZERO, ZERO, ZERO)
        assert not a._rows[1]  # no zero entry is stored
        assert a.rows()[0] == build_m(1, 3).rows()[0]


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("p", [1, 2, 3, 7])
@pytest.mark.parametrize("n", [1, 2, 5, 8, 40])
def test_dense_round_trip(builder, p, n):
    # the builders' rows skip the dense constructor's checks, so this runs
    # them through those checks: every builder's rows are well-formed
    a = builder(p, n)
    b = HessenbergMatrix(a.rows())
    assert b.rows() == a.rows()
    assert str(b) == str(a)


def test_banded_storage_is_linear_in_order():
    # about 3n nonzeros: a dense n x n grid of order 3000 would need 9M slots
    tracemalloc.start()
    try:
        build_w(1, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# --- storage order ---------------------------------------------------------
#
# The recursion reads each row's map as stored, so every way of making a
# matrix must store row i's entries by offset (column minus row) in reading
# order: +1 first, then 0, then -1, -2, ..., with the zeros left out.


def assert_reading_order(a):
    dense = a.rows()
    for i, row in enumerate(a._rows):
        expected = [j - i for j in range(min(i + 1, a.n - 1), -1, -1) if not dense[i][j].is_zero()]
        assert list(row) == expected, (i, list(row))
        assert all(not e.is_zero() and e == dense[i][i + d] for d, e in row.items())


def assert_matches_oracles(a):
    assert det_hessenberg(a) == det_oracle(a)
    assert per_hessenberg(a) == per_oracle(a)


def dense_with_zeros():
    """Order 5, with zeros on the diagonal, the superdiagonal and between
    band entries, and explicit zeros above the superdiagonal."""
    iy = Y.scale(GaussianInt(0, 1))
    return [
        [ZERO, I, ZERO, ZERO, ZERO],
        [Y, X, ZERO, ZERO, ZERO],
        [X + Y, ZERO, X, -ONE, ZERO],
        [ZERO, iy, ONE, ZERO, I],
        [Y, ZERO, ZERO, X + ONE, X],
    ]


def test_dense_constructor_stores_rows_in_reading_order():
    for rows in (dense_with_zeros(), [[X]], [[ZERO]], [[X, ONE], [Y, X]]):
        a = HessenbergMatrix(rows)
        assert_reading_order(a)
        assert a.rows() == tuple(map(tuple, rows))
        assert_matches_oracles(a)
    assert list(HessenbergMatrix(dense_with_zeros())._rows[2]) == [1, 0, -2]


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_builders_store_rows_in_reading_order(builder, p):
    for n in (1, 2, p + 1, p + 2, 8):
        a = builder(p, n)
        assert_reading_order(a)
        assert_matches_oracles(a)
    assert list(builder(p, 8)._rows[p + 1]) == [1, 0, -p]


@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_builders_share_equal_rows(builder, p):
    # keyed by offset, a builder's rows are three maps at most, whatever n
    # is: the rows before the band, the rows with it and the last row; the
    # dense constructor shares a map between equal rows too
    for n in (1, 2, p + 1, p + 2, 60, 3000):
        a = builder(p, n)
        assert len({id(row) for row in a._rows}) <= 3, n
        if n <= 60:
            dense = HessenbergMatrix(a.rows())
            assert dense.rows() == a.rows()
            assert len({id(row) for row in dense._rows}) <= 3, n


def test_scale_row_leaves_a_shared_map_alone():
    a = build_w(2, 8)
    before = a.rows()
    assert a._rows[4] is a._rows[5]  # rows 2..6 share one map
    scaled = a.scale_row(4, GaussianInt(2, 1))
    assert a.rows() == before
    assert scaled._rows[4] is not a._rows[4]
    assert scaled.rows()[4] == tuple(e.scale(GaussianInt(2, 1)) for e in before[4])
    assert scaled.rows()[:4] + scaled.rows()[5:] == before[:4] + before[5:]


@pytest.mark.parametrize("c", [2, GaussianInt(1, -1), 0, GaussianInt(0, 0)])
def test_scale_row_keeps_reading_order(c):
    for a in (build_w(2, 6), HessenbergMatrix(dense_with_zeros())):
        for i in range(a.n):
            scaled = a.scale_row(i, c)
            assert_reading_order(scaled)
            assert_matches_oracles(scaled)
