"""Exact linear algebra for the exact backend, done on integers.

numpy.linalg does not accept object arrays, and the dimensions here are
tiny (n <= 8, symmetric-tensor bases up to 36). A rational matrix is
scaled to integers by its common denominator, and one fraction-free
Gauss-Jordan reduction, ``_reduce`` (Bareiss, Math. Comp. 22, 1968),
serves rank, nullspace, determinant and inverse. Every entry it
produces is a minor of the input, so each division is exact and no
Fraction is built until a result is returned: rank and nullspace read
its pivots, the determinant is its last pivot, and the inverse comes
out of the reduced ``[A | I]`` as integer numerators over the
determinant (the adjugate and det A, up to one common sign).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators of rational values over their least common denominator.

    Entries that are neither int nor Fraction pass through Fraction().
    Returns (numerators, denominator).
    """
    vals = [v if type(v) is int or type(v) is Fraction else Fraction(v) for v in values]
    den = math.lcm(*{v.denominator for v in vals})
    return [v.numerator * (den // v.denominator) for v in vals], den


def _reduce(a: list[list[int]], limit: int | None = None):
    """Reduce the integer rows ``a`` in place, fraction-free.

    Pivots are searched only in the first ``limit`` columns (all columns
    when None). Each pivot step replaces every other row by
    (p * row - f * pivot_row) / prev, with p the new pivot, f the row's
    entry in the pivot column and prev the previous pivot; the division
    is exact. Afterwards every pivot equals the last one, d, and the
    pivot rows are d times the reduced row echelon form. Returns (rows,
    pivot columns, d, sign) with d = 1 when there is no pivot and sign =
    (-1)^(row swaps); a square matrix with a pivot in every column has
    determinant sign * d.
    """
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    prev, sign = 1, 1
    for col in range(ncols if limit is None else limit):
        row = len(pivots)
        if row == len(a):
            break
        piv = next((r for r in range(row, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
            sign = -sign
        prow = a[row]
        p = prow[col]
        for r, other in enumerate(a):
            if r == row:
                continue
            f = other[col]
            if f:
                a[r] = [(p * x - f * y) // prev for x, y in zip(other, prow)]
            elif p != prev:
                a[r] = [x * p // prev for x in other]
        prev = p
        pivots.append(col)
    return a, pivots, prev, sign


def _int_rows(mat: np.ndarray) -> tuple[list[list[int]], int]:
    """The rows of a rational matrix times their common denominator, and that denominator."""
    arr = np.asarray(mat)
    nums, den = common_denominator(arr.ravel().tolist())
    ncols = arr.shape[1]
    return [nums[i * ncols:(i + 1) * ncols] for i in range(arr.shape[0])], den


def integer_inverse(a: list[list[int]], scale: int = 1) -> tuple[list[list[int]], int]:
    """(num, d) with num / d = scale * a^-1 and d > 0, for square integer rows a.

    Reduces [a | scale * I]; d is |det a|, so num is the adjugate of a
    times scale, up to sign. Raises ZeroDivisionError when a is singular.
    """
    n = len(a)
    aug = [row + [scale if i == j else 0 for j in range(n)] for i, row in enumerate(a)]
    rows, pivots, d, _ = _reduce(aug, limit=n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    if d < 0:
        return [[-x for x in row[n:]] for row in rows], -d
    return [row[n:] for row in rows], d


def exact_inv(mat: np.ndarray) -> np.ndarray:
    """Inverse of a square rational matrix, as a Fraction matrix."""
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("square matrix required")
    num, d = integer_inverse(*_int_rows(mat))
    return np.array([[Fraction(x, d) for x in row] for row in num], dtype=object)


def exact_det(mat: np.ndarray) -> Fraction:
    """Determinant of a square rational matrix; 0 when it is singular."""
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("square matrix required")
    rows, den = _int_rows(mat)
    _, pivots, d, sign = _reduce(rows)
    return Fraction(sign * d, den ** n) if len(pivots) == n else Fraction(0)


def exact_rank_nullspace(mat: np.ndarray) -> tuple[int, list[np.ndarray]]:
    """Rank and a nullspace basis of a rational matrix (exact RREF).

    Each basis vector has a 1 in one free column, and the entries of the
    reduced row echelon form's negated free column in the pivot columns.
    """
    ncols = mat.shape[1]
    rows, pivots, d, _ = _reduce(_int_rows(mat)[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = np.empty(ncols, dtype=object)
        v[:] = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-rows[r][fc], d)
        basis.append(v)
    return len(pivots), basis
