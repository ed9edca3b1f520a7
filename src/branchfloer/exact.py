"""Exact linear algebra over the integers and rationals.

Everything here is deliberately dependency-free: intersection forms of
plumbing trees are small (tens of rows), and the rest of the package needs
exact answers, not fast approximate ones.  Matrices are plain lists of lists
of ints; rational results use fractions.Fraction.
"""

from __future__ import annotations

from fractions import Fraction


def determinant(m: list[list[int]]) -> int:
    """Integer determinant by fraction-free Bareiss elimination.

    >>> determinant([[2, 1], [1, 2]])
    3
    >>> determinant([[0, 1], [1, 0]])
    -1
    """
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            # find a row below with a nonzero pivot and swap
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: exact division, stays integral
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def leading_minors(m: list[list[int]]) -> list[int]:
    """Leading principal minors [det m[:1,:1], det m[:2,:2], ...]."""
    return [determinant([row[: k + 1] for row in m[: k + 1]]) for k in range(len(m))]


def is_negative_definite(m: list[list[int]]) -> bool:
    """Sylvester test: k-th leading minor has sign (-1)^k.

    >>> is_negative_definite([[-2, 1], [1, -2]])
    True
    >>> is_negative_definite([[-2, 3], [3, -2]])
    False
    """
    minors = leading_minors(m)
    return all((-1) ** (k + 1) * minors[k] > 0 for k in range(len(m)))


def solve_exact(m: list[list[int]], rhs: list) -> list[Fraction]:
    """Solve m x = rhs exactly; raises ValueError if m is singular.

    Entries of rhs may be ints or Fractions.
    """
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def invert_exact(m: list[list[int]]) -> list[list[Fraction]]:
    """Exact inverse of an integer matrix (columns solved one at a time)."""
    n = len(m)
    cols = [solve_exact(m, [1 if i == j else 0 for i in range(n)]) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def solve_mod2(m: list[list[int]], rhs: list[int]) -> list[int] | None:
    """One solution of m x = rhs over F_2, or None if inconsistent."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [[m[i][j] & 1 for j in range(cols)] + [rhs[i] & 1] for i in range(rows)]
    pivots = []
    rank = 0
    for col in range(cols):
        piv = next((r for r in range(rank, rows) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for r in range(rows):
            if r != rank and a[r][col]:
                a[r] = [x ^ y for x, y in zip(a[r], a[rank])]
        pivots.append(col)
        rank += 1
    if any(row[cols] for row in a[rank:]):
        return None
    x = [0] * cols
    for r, col in enumerate(pivots):
        x[col] = a[r][cols]
    return x
