"""Lower-Hessenberg matrix container and the four banded builders.

All four families share one layout: x on the diagonal, a constant on the
superdiagonal, and one sub-band b^p * y, for a constant b, at offset p
below the diagonal.  They differ only in the two constants:

    family   superdiagonal   band entry
    W        i               i^p * y
    M        -1              y
    H        -i              i^p * y
    K        1               y

Determinants of W and M, and permanents of H and K, all produce the same
polynomial sequence.  A matrix keeps only its nonzero entries (about 3n
of them here), so building and storing one costs O(n), not O(n^2).
Whether a matrix is graded, and so runs on the ring's graded kernel, is
found by the evaluators from the entries they read, not stored here.

Each row's ``{offset: entry}`` map keys an entry by its offset from the
diagonal, column minus row, and holds its entries in the order the
evaluators' recursion reads them: the superdiagonal entry (+1) first,
then the diagonal (0), then the entries to its left (-1, -2, ...),
nearest the diagonal first.  The dense constructor, the builders and
``scale_row`` all store that order, so the recursion reads a row's
entries as stored, with no sort.  Keyed by offset, equal rows are equal
maps, so the builders list one map for every row of a kind: at most
three maps (the rows before the band, the rows with it, the last row)
for any n.  The dense constructor gives a row equal to the row above the
same map, so a builder's matrix given densely lists the same few maps.
Nothing changes a stored map, so a map may be shared by several rows and
by several matrices.

A matrix is checked once, where it comes in from outside: the dense
constructor ``HessenbergMatrix(entries)`` checks its shape and its entry
types.  The builders' own rows, and the rows ``scale_row`` makes, are
stored as made and not re-checked.
"""

from __future__ import annotations

from .ring import X, Y, BivarPoly, GI_I, ZERO, check_count


class ShapeError(ValueError):
    """Raised when an entry grid is not lower Hessenberg."""


class HessenbergMatrix:
    """Immutable square lower-Hessenberg matrix over BivarPoly.

    Stored by its nonzeros, one ``{offset: entry}`` map per row, keyed by
    column minus row, in reading order: superdiagonal, diagonal, then
    leftwards.  Rows may share a map.  ``rows()`` and ``str()`` build the
    dense view, column by column, on demand.
    """

    __slots__ = ("_rows",)

    def __init__(self, entries):
        rows = [tuple(row) for row in entries]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ShapeError("matrix must be square")
        if n == 0:
            raise ShapeError("matrix order must be at least 1")
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                if not isinstance(e, BivarPoly):
                    raise TypeError("entries must be BivarPoly")
                if j - i > 1 and not e.is_zero():
                    raise ShapeError(
                        f"entry ({i + 1},{j + 1}) above the superdiagonal is nonzero"
                    )
        # row i's offsets in reading order: +1 (if inside), 0, -1, ..., -i;
        # a row equal to the row above shares its map
        maps = []
        for i, row in enumerate(rows):
            m = {j - i: row[j] for j in range(min(i + 1, n - 1), -1, -1) if not row[j].is_zero()}
            maps.append(maps[-1] if maps and maps[-1] == m else m)
        self._rows = tuple(maps)

    @classmethod
    def _from_nonzeros(cls, rows) -> "HessenbergMatrix":
        """Matrix stored as ``rows`` are given, with no check: one
        ``{offset: entry}`` map per row, at least one row, each entry a
        nonzero BivarPoly in the lower-Hessenberg shape (row i's offsets
        between -i and +1, and +1 only above the last row), and each map
        in reading order: offset +1 first, then 0, then -1, -2, ... with
        gaps where an entry is zero.  The recursion reads the maps in that
        order.  The same map may stand for several rows; nothing changes
        it.  Only the library's own rows (the builders', ``scale_row``'s)
        come here."""
        a = cls.__new__(cls)
        a._rows = tuple(rows)
        return a

    @property
    def n(self) -> int:
        return len(self._rows)

    def __getitem__(self, ij: tuple[int, int]) -> BivarPoly:
        """Entry at 0-based (row, col)."""
        if not (isinstance(ij, tuple) and len(ij) == 2 and all(isinstance(k, int) for k in ij)):
            raise TypeError(f"index must be a pair of ints, got {ij!r}")
        i, j = ij
        n = len(self._rows)
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"entry ({i}, {j}) outside a matrix of order {n}")
        return self._rows[i].get(j - i, ZERO)

    def rows(self) -> tuple[tuple[BivarPoly, ...], ...]:
        n = self.n
        return tuple(
            tuple(r.get(j - i, ZERO) for j in range(n)) for i, r in enumerate(self._rows)
        )

    def scale_row(self, i: int, c) -> "HessenbergMatrix":
        """Copy with every entry of 0-based row i multiplied by the scalar
        c, an int or a ``GaussianInt``.  The other rows are shared with
        this matrix; row i gets a new map, so a map row i shared with other
        rows is left as it was.  Row i keeps its reading order, and a zero
        c leaves it with no entries."""
        if not isinstance(i, int):
            raise TypeError(f"row index must be an int, got {i!r}")
        if not 0 <= i < self.n:
            raise IndexError(f"row {i} outside a matrix of order {self.n}")
        rows = list(self._rows)
        scaled = {d: e.scale(c) for d, e in rows[i].items()}
        rows[i] = {d: e for d, e in scaled.items() if not e.is_zero()}
        return HessenbergMatrix._from_nonzeros(rows)

    def __str__(self) -> str:
        return "\n".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.rows()
        )


def _build_banded(p: int, n: int, superdiag, band) -> HessenbergMatrix:
    check_count("p", p, 1)
    check_count("n", n, 1)
    superdiag, band_entry = BivarPoly.constant(superdiag), Y.scale(band**p)
    # one map per kind of row, listed for every row of that kind: the rows
    # before the band (i < p), the rows with it, and the last row, which
    # has no superdiagonal entry
    head = {1: superdiag, 0: X}
    body = {1: superdiag, 0: X, -p: band_entry}
    last = {0: X, -p: band_entry} if n > p else {0: X}
    return HessenbergMatrix._from_nonzeros(
        [head] * min(p, n - 1) + [body] * max(n - 1 - p, 0) + [last]
    )


def build_w(p: int, n: int) -> HessenbergMatrix:
    """W family: superdiagonal i, band entry i^p * y."""
    return _build_banded(p, n, GI_I, GI_I)


def build_m(p: int, n: int) -> HessenbergMatrix:
    """M family: superdiagonal -1, band entry y."""
    return _build_banded(p, n, -1, 1)


def build_h(p: int, n: int) -> HessenbergMatrix:
    """H family: superdiagonal -i, band entry i^p * y."""
    return _build_banded(p, n, -GI_I, GI_I)


def build_k(p: int, n: int) -> HessenbergMatrix:
    """K family: superdiagonal 1, band entry y."""
    return _build_banded(p, n, 1, 1)
