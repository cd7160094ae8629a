"""Exact linear algebra over Fraction, for the object-dtype backend.

numpy.linalg does not accept object arrays, and the dimensions here are
tiny (n <= 8, symmetric-tensor bases up to 36), so plain Gauss-Jordan
with exact pivoting is both sufficient and fast. One reduction,
``_reduce``, serves all of them: rank and nullspace read its pivots,
the inverse is the right half of the reduced ``[A | I]``, and the
determinant is the signed product of its pivots.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def _reduce(a: list[list[Fraction]], limit: int | None = None):
    """Reduce the rows ``a`` in place to reduced row echelon form.

    Pivots are searched only in the first ``limit`` columns (all columns
    when None). Returns (rows, pivot columns, signed pivot product): the
    product of the pivots as found, negated once per row swap, which is
    the determinant of a square matrix that has a pivot in every column.
    """
    ncols = len(a[0]) if a else 0
    pivots: list[int] = []
    det = Fraction(1)
    for col in range(ncols if limit is None else limit):
        row = len(pivots)
        if row == len(a):
            break
        piv = next((r for r in range(row, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            a[row], a[piv] = a[piv], a[row]
            det = -det
        p = a[row][col]
        det *= p
        prow = a[row] = [v / p for v in a[row]]
        nonzero = [(j, v) for j, v in enumerate(prow) if v != 0]
        for r, other in enumerate(a):
            f = other[col]
            if r != row and f != 0:
                for j, v in nonzero:
                    other[j] -= f * v
        pivots.append(col)
    return a, pivots, det


def _rows(mat: np.ndarray) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in np.asarray(mat).tolist()]


def exact_inv(mat: np.ndarray) -> np.ndarray:
    """Inverse of a square Fraction matrix via Gauss-Jordan on [A | I]."""
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("square matrix required")
    aug = [row + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(_rows(mat))]
    rows, pivots, _ = _reduce(aug, limit=n)
    if len(pivots) < n:
        raise ZeroDivisionError("singular matrix")
    return np.array([row[n:] for row in rows], dtype=object)


def exact_det(mat: np.ndarray) -> Fraction:
    """Determinant of a square Fraction matrix; 0 when it is singular."""
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError("square matrix required")
    _, pivots, det = _reduce(_rows(mat))
    return det if len(pivots) == n else Fraction(0)


def exact_rank_nullspace(mat: np.ndarray) -> tuple[int, list[np.ndarray]]:
    """Rank and a nullspace basis of a Fraction matrix (exact RREF)."""
    ncols = mat.shape[1]
    rows, pivots, _ = _reduce(_rows(mat))
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = np.empty(ncols, dtype=object)
        v[:] = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return len(pivots), basis


def parse_ratio(text: str) -> Fraction:
    """Parse 'p/q' or a decimal literal into an exact Fraction."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(text)


def format_ratio(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
