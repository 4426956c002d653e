"""Determinants and permanents of lower-Hessenberg matrices.

The fast evaluators advance iteratively over leading principal minors:

    det(A_m) = sum_{r<=m} (-1)^{m-r} a_{m,r} (prod_{j=r}^{m-1} a_{j,j+1}) det(A_{r-1})

with det(A_0) = 1, and the permanent satisfies the same recursion without
the sign.  The diagonal is the term r = m, whose superdiagonal product is
empty: a_{m,m} det(A_{m-1}).  The sum runs over the nonzero entries of row
m only, the diagonal among them, nearest the diagonal first, growing the
superdiagonal product one factor at a time: a banded matrix costs O(n) large
multiplications, a dense one O(n^2).  For det each superdiagonal entry is
negated once up front, so the product of the i - r entries from column r
carries the sign (-1)^(i-r).  Each entry times its superdiagonal product
is the entry's coefficient, made by the kernel's ``coefficient``, and a
row's (coefficient, minor) pairs go to the kernel's ``sum_of_products``
in one call, so a row builds one new value.

The recursion is two parts, a set-up and a loop, written once over the
ring's kernel interface: one, unit, scalar, times, coefficient,
sum_of_products and poly.  The set-up, ``_plan``, makes a plan of the
first rows of a matrix; the loop, ``_run``, runs a plan, and it is the
one loop of every caller.  The kernel is picked first: ``_plan`` passes
``ring.kernel_for`` the entries of each distinct row map once, each entry
at offset d (column minus row) with its degree 1 - d.  A matrix keys each
row's entries by that offset, so equal rows can be one map: a builder's
matrix lists at most three maps, whatever n is, and a map is taken only
where it is not the row above's, which is also where a run of one map
starts.  ``_plan`` then goes down those runs, one step a run, for the
superdiagonal scalars, each minor's last reader, the rows that repeat the
row above and each other row's coefficients.  A run reads its map's
scalar and deepest offset at its first row, walks the rows that cannot
repeat one by one, and fills in the rest of the run in one step; each
minor's last reader is kept in a list indexed by column, -1 where no row
reads that minor.  The set-up reads each row's
entries as stored, with no sort: a matrix stores each row in reading
order, its superdiagonal entry first and then the diagonal and the
entries to its left, nearest first.  A graded matrix (every entry
weighted-homogeneous of that degree, with y of weight w; all four
families are, with w = p + 1) runs on ``GradedKernel``: its
superdiagonal entries are then Gaussian scalars, so a superdiagonal
product is a pair of ints, and its minors are dense coefficient lists.  Any
other matrix runs on ``PolyKernel``, on ``BivarPoly`` itself.

Row i's entry at offset d, from column c = i + d, has the superdiagonal
product a_{c,c+1} ... a_{i-1,i}: its window.  A row whose entries and
windows' products are all the row above's has the row above's
coefficients too, and reuses them.  Row i repeats row i - 1 when it is
the same map (so it has the same entries at the same offsets, and the
same superdiagonal scalar), and every factor its windows would swap,
from a_{i-1+d,i+d} for its deepest offset d to a_{i-1,i}, lies in one
run of equal scalars.  Only a new map can start a run of equal scalars,
so the set-up decides this once a run of one map: its rows repeat from
the first row past its first whose swapped factors all lie in one run of
equal scalars, and the set-up adds that row and the rest of the run in
one step, to the run's length, to the superdiagonal and to each minor's
last reader, one slice for each offset the map reads.  Any other row
walks its windows out from the diagonal, one factor at a time, and makes
its coefficients as above.  So a paper matrix walks its band's p factors
and makes its coefficients once for each kind of row, three times at any
n, not once a row; its set-up walks three rows, not n, and
its plan lists three runs of rows.

A plan holds everything the loop reads: the kernel's type and w, each
run's coefficients and length, and each minor's last reader.  Plans
compare by value, and two equal plans give equal minors, converted
alike.  After the set-up, the four paper matrices of one (p, n) have
equal plans: det negates each superdiagonal scalar, and every builder's
band coefficient, its entry times its window's product, is then y, and
its diagonal coefficient x.  So ``sequences.cross_check`` and
``cross_check_prefix`` make each matrix route's plan, run the loop once
per distinct plan and convert each group's values once; what stays per
route is the set-up, from the builder to the repeat rule, and any fault
there gives its route a plan of its own.

The recursion computes every leading minor on its way to the last order
its plan covers, so the loop is a generator: ``leading_minors`` plans all
n rows and returns the kernel and an iterator over the minors of orders
0..n as raw kernel values, and the caller converts with the kernel's
``poly`` only the values it reads.  ``det_hessenberg`` and
``per_hessenberg`` convert the last one.  The leading k x k block of
each of the four matrix families at order n is the same family at order
k, so one pass over the order-n matrix gives the route values of every
order up to n; a route's plan covers only the rows whose minors it
reads.

A minor is kept only while a later row reads it: minor c is read by every
row with a nonzero in column c on or below the diagonal, row c's diagonal
entry among them, and is freed at its last read.  A computed minor that
no row reads, minor n among them, is never kept.  A matrix with one
sub-diagonal band at offset p therefore holds p + 1 minors between rows,
not n + 1, and memory is O(p * terms) instead of O(n * terms).

``last_poly`` takes a stream's last raw value as a ``BivarPoly``, through
the conversion function it is given: the kernel's ``poly`` for a stream
of minors.  The det/per evaluators here and every matrix route in
``sequences`` read their one value through it.

The brute-force oracles cross-check the recursions at small orders by one
expansion, ``_laplace``, along the first row (the recursion expands along
the last), signed for det and sign-free for per.  They carry no
superdiagonal products and read no band: only the matrix being
lower-Hessenberg keeps each first row at two nonzeros and each minor
lower-Hessenberg, so an order-n oracle has at most 2^(n-1) leaves.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from collections.abc import Iterator
from itertools import chain, repeat

from .matrices import HessenbergMatrix
from .ring import BivarPoly, Frozen, ZERO, check_count, kernel_for


class BudgetExceeded(ValueError):
    """Matrix order is too large for a brute-force oracle."""


class EvalBudget(Frozen):
    """Order caps for the brute-force oracles.

    Both oracles run the same first-row expansion; the defaults, 10 for
    det and 8 for per, keep the oracle routes to small orders.
    """

    __slots__ = ("max_det_order", "max_per_order")

    def __init__(self, max_det_order: int = 10, max_per_order: int = 8) -> None:
        check_count("max_det_order", max_det_order, 1)
        check_count("max_per_order", max_per_order, 1)
        super().__init__(max_det_order, max_per_order)


def leading_minors(a: HessenbergMatrix, signed: bool) -> tuple[object, Iterator]:
    """The kernel ``kernel_for`` picks from a's nonzeros, and an iterator
    over the det (``signed``) or per of a's leading k x k blocks for
    k = 0..n, in order, as raw values of that kernel: ``ring.poly(value, k)``
    is block k's ``BivarPoly``.  The set-up, ``_plan`` over all n rows,
    runs when this is called, and ``_run``, the loop every caller of the
    recursion shares, runs as the iterator is consumed."""
    ring, plan = _plan(a, signed, a.n)
    return ring, _run(ring, plan)


def _plan(a: HessenbergMatrix, signed: bool, order: int) -> tuple[object, tuple]:
    """The set-up of the det (``signed``) or per recursion over a's first
    ``order`` rows, which give the minors of orders 0..order:
    ``(ring, plan)``, the kernel ``kernel_for`` picks from all of a's
    nonzeros and ``(kind, coefficients, lengths, last_read)`` for ``_run``.
    kind is the kernel's type and its w (None for ``PolyKernel``).  The
    rows come in runs, each row of a run but its first repeating the row
    above: coefficients[r] is run r's ``(offset, coefficient)`` list and
    lengths[r] its number of rows.  last_read[c] is the last row to read
    minor c, -1 where no row reads it.  The loop reads nothing else, so
    two plans that are equal, compared by value, give equal minors,
    converted alike.  Past one scan for the distinct maps and the rows
    where each run of one map starts, the set-up is one loop over those
    runs: a run reads its map at its first row, walks the rows that
    cannot repeat the row above, and fills in the rest in one step."""
    rows = a._rows
    # each distinct row map once, and the row where each run of one map
    # starts: rows that share a map are mostly runs, so a map is taken only
    # where the row above has another
    distinct, starts, prev = {}, [], None
    for i, row in enumerate(rows):
        if row is not prev:
            distinct[id(row)] = prev = row
            starts.append(i)
    ring = kernel_for((1 - d, e) for row in distinct.values() for d, e in row.items())
    coefficient, times = ring.coefficient, ring.times
    superdiag, coefficients, lengths, last_read = [], [], [], [-1] * (order + 1)
    start = 0  # superdiag[i - 1]'s run of equal scalars begins at superdiag[start]
    runs = bisect_left(starts, order)  # the runs that start before row order
    for s, end in zip(starts[:runs], starts[1:runs] + [order]):
        # the run's map, read at its first row: its scalar a[k, k+1],
        # negated for det so that a product of i - c of them carries the
        # sign (-1)^(i-c), and its deepest offset (its last key, as a map
        # is stored in reading order); only a new map starts a run of
        # equal scalars
        row = rows[s]
        scalar = ring.scalar(row.get(1, ZERO), signed)
        deepest = next(reversed(row), 0)
        if s and scalar != superdiag[-1]:
            start = s
        # row i > s repeats row i - 1 (the module docstring's rule) when
        # superdiag[i - 1 + deepest] .. superdiag[i - 1], every factor its
        # windows swap, lie in one run of equal scalars: from row walk on
        # every row of the run repeats, and rows s .. walk - 1 walk
        walk = min(end, max(s + 1, start + 1 - deepest))
        for i in range(s, walk):
            # (offset, the entry times its product) for each entry on or
            # below the diagonal; row i as stored: its superdiagonal entry
            # first, which the rows below read through superdiag, then the
            # diagonal and leftwards, nearest first, so the product grows
            # one factor at a time
            entries = []
            prod, k = ring.unit, i  # prod = superdiag[k] * ... * superdiag[i-1]
            for d, entry in row.items():
                if d > 0:
                    continue
                while k > i + d:
                    k -= 1
                    prod = times(prod, superdiag[k])
                entries.append((d, coefficient(entry, prod)))
                last_read[i + d] = i
            coefficients.append(entries)
            lengths.append(1)
            superdiag.append(scalar)
        # rows walk .. end - 1 in one step, over the offsets d <= 0 of the
        # last row walked, shallowest first: minor c's last reader is the
        # largest row to read it, so the deepest offset's slice comes last
        if walk < end:
            lengths[-1] += end - walk
            superdiag.extend(repeat(scalar, end - walk))
            for d, _ in entries:
                last_read[walk + d : end + d] = range(walk, end)
    return ring, ((type(ring), getattr(ring, "w", None)), coefficients, lengths, last_read)


def _run(ring, plan: tuple) -> Iterator:
    """The minors of orders 0..order of a plan's matrix, as raw values of
    ``ring``: one ``sum_of_products`` call a row over the row's
    coefficients and the minors they read.  ``minors[k]`` is the det/per
    of the leading k x k block, kept until its last read."""
    _, coefficients, lengths, last_read = plan
    minors = {0: ring.one}
    yield ring.one
    step = ring.sum_of_products
    for i, entries in enumerate(chain.from_iterable(map(repeat, coefficients, lengths))):
        pairs = []  # a loop: a comprehension costs a frame more on Python 3.11
        for d, coeff in entries:
            c = i + d
            pairs.append((coeff, minors.pop(c) if last_read[c] == i else minors[c]))
        minor = step(pairs)
        if last_read[i + 1] >= 0:
            minors[i + 1] = minor
        yield minor


def last_poly(poly, values: Iterator, degree: int) -> BivarPoly:
    """``poly(value, degree)`` of the last raw value of the stream
    ``values``, or zero for an empty stream."""
    tail = deque(values, maxlen=1)
    return poly(tail[0], degree) if tail else ZERO


def _whole(a: HessenbergMatrix, signed: bool) -> BivarPoly:
    ring, minors = leading_minors(a, signed)
    return last_poly(ring.poly, minors, a.n)


def det_hessenberg(a: HessenbergMatrix) -> BivarPoly:
    """Determinant via the signed leading-principal-minor recursion."""
    return _whole(a, signed=True)


def per_hessenberg(a: HessenbergMatrix) -> BivarPoly:
    """Permanent via the sign-free leading-principal-minor recursion."""
    return _whole(a, signed=False)


def check_budget(order: int, signed: bool, budget: EvalBudget | None = None) -> None:
    """Raise ``BudgetExceeded`` if ``order`` is past the det (``signed``) or
    per oracle's cap in ``budget`` (the default caps when None).  The
    oracles check their matrix's order with it, and the oracle routes check
    the order they would build with it first."""
    budget = budget or EvalBudget()
    cap, what = (budget.max_det_order, "det") if signed else (budget.max_per_order, "permanent")
    if order > cap:
        raise BudgetExceeded(f"order {order} exceeds {what} oracle cap {cap}")


def det_oracle(a: HessenbergMatrix, budget: EvalBudget | None = None) -> BivarPoly:
    """Determinant by first-row Laplace cofactor expansion."""
    check_budget(a.n, signed=True, budget=budget)
    return _laplace(a.rows(), signed=True)


def per_oracle(a: HessenbergMatrix, budget: EvalBudget | None = None) -> BivarPoly:
    """Permanent by first-row Laplace expansion without signs."""
    check_budget(a.n, signed=False, budget=budget)
    return _laplace(a.rows(), signed=False)


def _laplace(rows, signed: bool) -> BivarPoly:
    """The det (``signed``) or per of ``rows`` by expansion along the first
    row: the sum of each nonzero entry times the expansion of its minor,
    negated at odd columns for det."""
    if len(rows) == 1:
        return rows[0][0]
    total = ZERO
    for j, c in enumerate(rows[0]):
        if c.is_zero():
            continue
        cof = c * _laplace([row[:j] + row[j + 1 :] for row in rows[1:]], signed)
        total = total + (-cof if signed and j % 2 else cof)
    return total
