"""Exact Fraction linear algebra: inverse, determinant, rank and nullspace."""

from fractions import Fraction

import numpy as np
import pytest

from qcf._exact import exact_det, exact_inv, exact_rank_nullspace


def _matrices(seed, count=60):
    """Seeded rational matrices of shape 1..6 x 1..6; every other one has
    a last row that is a combination of the others (rank-deficient)."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        r, c = (int(x) for x in rng.integers(1, 7, size=2))
        m = np.empty((r, c), dtype=object)
        m.ravel()[:] = [Fraction(int(p), int(q)) for p, q in
                        zip(rng.integers(-5, 6, size=r * c), rng.integers(1, 4, size=r * c))]
        if k % 2 and r > 1:
            m[-1] = Fraction(3, 2) * m[0] - (m[1] if r > 2 else 0)
        yield m


def _identity(n):
    return np.eye(n, dtype=int).astype(object)


def test_inverse_times_matrix_is_identity():
    checked = 0
    for m in _matrices(1):
        n = m.shape[0]
        if m.shape != (n, n):
            continue
        if exact_det(m) == 0:
            with pytest.raises(ZeroDivisionError, match="singular"):
                exact_inv(m)
            continue
        inv = exact_inv(m)
        assert all(isinstance(v, Fraction) for v in inv.ravel())
        assert ((inv @ m) == _identity(n)).all()
        assert ((m @ inv) == _identity(n)).all()
        checked += 1
    assert checked >= 3


def test_singular_matrix_raises():
    m = np.array([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], dtype=object)
    with pytest.raises(ZeroDivisionError, match="singular matrix"):
        exact_inv(m)
    zero = np.array([[Fraction(0)] * 3] * 3, dtype=object)
    with pytest.raises(ZeroDivisionError):
        exact_inv(zero)
    assert exact_det(m) == 0 and exact_det(zero) == 0
    with pytest.raises(ValueError, match="square"):
        exact_inv(np.ones((2, 3), dtype=object))


def test_determinant_matches_numpy():
    singular = 0
    for m in _matrices(2):
        n = m.shape[0]
        if m.shape != (n, n):
            continue
        det = exact_det(m)
        assert isinstance(det, Fraction)
        assert abs(float(det) - np.linalg.det(m.astype(float))) <= 1e-9 * max(1.0, abs(float(det)))
        rank, _ = exact_rank_nullspace(m)
        assert (det == 0) == (rank < n)
        singular += det == 0
    assert singular >= 1
    # a row swap flips the sign
    m = np.array([[Fraction(0), Fraction(1)], [Fraction(3), Fraction(5)]], dtype=object)
    assert exact_det(m) == -3


def test_nullspace_vectors_are_annihilated():
    deficient = 0
    for m in _matrices(3):
        nrows, ncols = m.shape
        rank, null = exact_rank_nullspace(m)
        assert len(null) == ncols - rank
        assert rank == np.linalg.matrix_rank(m.astype(float))
        for v in null:
            assert v.shape == (ncols,)
            assert all(x == 0 for x in m @ v)
        if null:
            assert np.linalg.matrix_rank(np.array(null, dtype=float)) == len(null)
        deficient += rank < min(nrows, ncols)
    assert deficient >= 1


def _leibniz_det(m):
    """Determinant as the signed sum over permutations (no elimination)."""
    from itertools import permutations

    n = m.shape[0]
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= m[i, j]
        total += term
    return total


def test_elimination_is_exact_at_any_width():
    """Entries near 10^30 and denominators beyond 64 bits: no fixed-width
    assumption, and floats could not tell these matrices apart."""
    rng = np.random.default_rng(4)
    big = 10**30
    for k in range(12):
        n = int(rng.integers(2, 6))
        m = np.empty((n, n), dtype=object)
        m.ravel()[:] = [Fraction(int(p) * big + int(q), int(d) * big + 1) for p, q, d in
                        zip(rng.integers(-9, 10, size=n * n), rng.integers(-5, 6, size=n * n),
                            rng.integers(1, 4, size=n * n))]
        if k % 3 == 0:
            m[-1] = m[0] * Fraction(big + 7, 3) - m[1]  # rank-deficient
        det = exact_det(m)
        assert isinstance(det, Fraction) and det == _leibniz_det(m)
        rank, null = exact_rank_nullspace(m)
        assert len(null) == n - rank and (rank < n) == (det == 0)
        for v in null:
            assert all(x == 0 for x in m @ v)
        if det != 0:
            inv = exact_inv(m)
            assert ((inv @ m) == _identity(n)).all() and ((m @ inv) == _identity(n)).all()
    # 1 + 10^-30 is 1.0 in float, so numpy calls this matrix singular; it is not
    m = np.array([[Fraction(1), Fraction(1)], [Fraction(1), 1 + Fraction(1, big)]], dtype=object)
    assert exact_det(m) == Fraction(1, big)
    assert np.array_equal(exact_inv(m), np.array([[big + 1, -big], [-big, big]], dtype=object))
