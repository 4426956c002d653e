"""Determinants and permanents of lower-Hessenberg matrices.

The fast evaluators advance iteratively over leading principal minors:

    det(A_m) = a_{m,m} det(A_{m-1})
             + sum_{r<m} (-1)^{m-r} a_{m,r} (prod_{j=r}^{m-1} a_{j,j+1}) det(A_{r-1})

with det(A_0) = 1, and the permanent satisfies the same recursion without
the sign.  The inner sum runs over the nonzero entries of row m only,
nearest the diagonal first, carrying the superdiagonal product along: a
banded matrix costs O(n) large multiplications, a dense one O(n^2).

The brute-force oracles (first-row Laplace expansion, permutation sum)
ignore the Hessenberg structure entirely and exist to cross-check the
recursions at small orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .matrices import HessenbergMatrix
from .ring import ONE, BivarPoly, ZERO


class BudgetExceeded(ValueError):
    """Matrix order is too large for a brute-force oracle."""


@dataclass(frozen=True)
class EvalBudget:
    """Order caps for the brute-force oracles.

    Defaults keep the full oracle suite at a few seconds: Laplace
    expansion up to 10, permutation sum up to 8.
    """

    max_det_order: int = 10
    max_per_order: int = 8


def _hessenberg_recursion(a: HessenbergMatrix, signed: bool) -> BivarPoly:
    minors = [ONE]  # minors[k] = det/per of the leading k x k block
    for i in range(a.n):
        total = a[i, i] * minors[i]
        prod, k = ONE, i  # prod = a[k, k+1] * ... * a[i-1, i]
        for c, entry in a._below_diagonal(i):
            while k > c:
                k -= 1
                prod = prod * a[k, k + 1]
            term = entry * prod * minors[c]
            total = total + (-term if signed and (i - c) % 2 else term)
        minors.append(total)
    return minors[-1]


def det_hessenberg(a: HessenbergMatrix) -> BivarPoly:
    """Determinant via the signed leading-principal-minor recursion."""
    return _hessenberg_recursion(a, signed=True)


def per_hessenberg(a: HessenbergMatrix) -> BivarPoly:
    """Permanent via the sign-free leading-principal-minor recursion."""
    return _hessenberg_recursion(a, signed=False)


def det_oracle(a: HessenbergMatrix, budget: EvalBudget | None = None) -> BivarPoly:
    """Determinant by first-row Laplace cofactor expansion."""
    budget = budget or EvalBudget()
    if a.n > budget.max_det_order:
        raise BudgetExceeded(
            f"order {a.n} exceeds det oracle cap {budget.max_det_order}"
        )
    return _laplace(list(list(row) for row in a.rows()))


def _laplace(rows: list[list[BivarPoly]]) -> BivarPoly:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = ZERO
    for j in range(n):
        c = rows[0][j]
        if c.is_zero():
            continue
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        cof = c * _laplace(minor)
        total = total + (-cof if j % 2 else cof)
    return total


def per_oracle(a: HessenbergMatrix, budget: EvalBudget | None = None) -> BivarPoly:
    """Permanent by summing over all n! permutations."""
    budget = budget or EvalBudget()
    if a.n > budget.max_per_order:
        raise BudgetExceeded(
            f"order {a.n} exceeds permanent oracle cap {budget.max_per_order}"
        )
    n = a.n
    total = ZERO
    for sigma in permutations(range(n)):
        prod = ONE
        for i in range(n):
            entry = a[i, sigma[i]]
            if entry.is_zero():
                prod = ZERO
                break
            prod = prod * entry
        total = total + prod
    return total
