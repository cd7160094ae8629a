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
