"""Principal symbol of the gauged linearization, as a dense matrix.

The symbol acts on symmetric arrays; it is built as a numpy matrix,
with exact rank decisions for rational inputs and SVD fallbacks
otherwise. The spectral polynomials the stability decisions consume,
and the conformal-Killing symbol, are in the numpy-free ``rational``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from qcf._exact import exact_rank_nullspace
from qcf.rational import as_exact
from qcf.tensor_core import identity, is_exact, zeros


def _sym_basis(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def _sym_to_vec(h: np.ndarray, basis) -> np.ndarray:
    return np.array([h[i, j] for i, j in basis], dtype=h.dtype)


def _vec_to_sym(v, basis, n: int, exact: bool) -> np.ndarray:
    h = zeros((n, n), exact)
    for c, (i, j) in zip(v, basis):
        h[i, j] = c
        h[j, i] = c
    return h


def symbol_coefficients(n: int, tau) -> tuple:
    """The three coefficient combinations entering the gauged symbol."""
    t = as_exact(tau)
    A = 2 * t + Fraction(n * n + 4 * n - 4, 2 * n * n)
    B = 2 * (t + Fraction(n - 1, n))
    C = 2 * t + Fraction(n**3 + 4 * n - 4, 2 * n**3)
    return A, B, C


class SymbolOperator(NamedTuple):
    """Dense matrix of the gauged-linearization symbol on symmetric arrays.

    Acts on h by
      (1/2)|xi|^4 h - A |xi|^2 (tr h) xi xi + B h(xi,xi) xi xi
      + C |xi|^4 (tr h) g - A |xi|^2 h(xi,xi) g
    in an orthonormal frame (g the identity). Only tr h and h(xi,xi)
    enter besides h itself, so the matrix is (1/2)|xi|^4 I plus two
    rank-one terms. Exact entries when tau and xi are rational.
    """

    n: int
    tau: Fraction | float
    xi: np.ndarray
    matrix: np.ndarray
    basis: tuple = ()

    def apply(self, h: np.ndarray) -> np.ndarray:
        v = _sym_to_vec(np.asarray(h), self.basis)
        out = self.matrix @ v
        return _vec_to_sym(out, self.basis, self.n, is_exact(self.matrix))

    def min_singular_value(self) -> float:
        m = self.matrix.astype(float)
        return float(np.linalg.svd(m, compute_uv=False)[-1])

    def trace_free_block(self) -> np.ndarray:
        """Matrix restricted and projected to trace-free symmetric arrays.

        Basis: off-diagonal E_ij plus diagonal differences E_ii - E_nn;
        coordinates: the off-diagonal entries, then the diagonal entries
        ii for i < n.
        """
        m = self.matrix
        off = [k for k, (i, j) in enumerate(self.basis) if i != j]
        diag = [k for k, (i, j) in enumerate(self.basis) if i == j]
        cols = np.concatenate([m[:, off], m[:, diag[:-1]] - m[:, diag[-1:]]], axis=1)
        cols[diag] -= cols[diag].sum(axis=0) / self.n
        return cols[off + diag[:-1]]


def gauged_symbol(n: int, tau, xi) -> SymbolOperator:
    """Symbol matrix at covector xi in the E_ij basis (i <= j).

    With u = vec(xi xi), g = vec(g) (also the trace functional) and w
    the functional h -> h(xi,xi), the matrix is
    (1/2)|xi|^4 I + (C|xi|^4 g - A|xi|^2 u) g^T + (B u - A|xi|^2 g) w^T.
    """
    xi = np.asarray(xi)
    if n < 3:
        raise ValueError("dimension must be at least 3")
    if xi.shape != (n,):
        raise ValueError(f"xi must have shape ({n},)")
    if isinstance(tau, (int, Fraction)) and xi.dtype.kind in "iu":
        promoted = np.empty(n, dtype=object)
        promoted[:] = [Fraction(int(x)) for x in xi.tolist()]
        xi = promoted
    exact = isinstance(tau, (int, Fraction)) and xi.dtype == object
    if not any(bool(x != 0) for x in xi.tolist()):
        raise ValueError("xi must be nonzero")
    dtype = object if exact else float
    if not exact:
        xi = xi.astype(float)
    A, B, C = symbol_coefficients(n, tau if exact else float(tau))
    if not exact:
        A, B, C = float(A), float(B), float(C)
    x = xi.tolist()
    xi2 = sum(v * v for v in x)
    basis = _sym_basis(n)
    u = np.array([x[i] * x[j] for i, j in basis], dtype=dtype)
    g = np.array([int(i == j) for i, j in basis], dtype=dtype)
    w = np.array([x[i] * x[j] * (1 if i == j else 2) for i, j in basis], dtype=dtype)
    half = Fraction(1, 2) if exact else 0.5
    matrix = (half * xi2 * xi2 * np.eye(len(basis), dtype=dtype)
              + np.outer(C * xi2 * xi2 * g - A * xi2 * u, g)
              + np.outer(B * u - A * xi2 * g, w))
    return SymbolOperator(n=n, tau=tau, xi=xi, matrix=matrix, basis=tuple(basis))


class InjectivityVerdict(NamedTuple):
    injective: bool
    min_singular_value: float
    kernel: tuple = ()
    note: str = ""

    @property
    def verdict(self) -> str:
        return "injective" if self.injective else "degenerate"


def symbol_injectivity(n: int, tau, trials: int = 100, seed: int = 0,
                       restrict_trace_free: bool = False) -> InjectivityVerdict:
    """Injectivity of the gauged symbol, decided at the covector e_1.

    The symbol is built from |xi|^2, xi xi and g alone, so it is
    O(n)-equivariant and homogeneous of degree 4 in xi: its rank, its
    kernel dimension and whether g lies in its kernel are the same at
    every nonzero xi. Floats: injective iff the smallest singular value
    exceeds 1e-10. Rational tau: exact rank; a rank drop returns the
    exact kernel basis. ``trials`` and ``seed`` are accepted for
    compatibility and change nothing.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    exact = isinstance(tau, (int, Fraction))
    xi = np.zeros(n, dtype=int)
    xi[0] = 1
    op = gauged_symbol(n, tau, xi)
    m = op.trace_free_block() if restrict_trace_free else op.matrix
    min_sv = float(np.linalg.svd(m.astype(float), compute_uv=False)[-1])
    if not exact:
        return InjectivityVerdict(min_sv > 1e-10, min_sv)
    _, null = exact_rank_nullspace(m)
    if not null:
        return InjectivityVerdict(True, min_sv,
                                  note="exact full rank at every sampled direction")
    if restrict_trace_free:
        kernel = tuple(np.array(v, dtype=object) for v in null)
    else:
        kernel = tuple(_vec_to_sym(v, op.basis, n, True) for v in null)
    return InjectivityVerdict(False, min_sv, kernel, note="exact rank deficiency")


def kernel_contains_metric(verdict: InjectivityVerdict, n: int) -> bool:
    """Whether the identity matrix direction lies in the reported kernel span."""
    if not verdict.kernel:
        return False
    basis = _sym_basis(n)
    cols = []
    for k in verdict.kernel:
        arr = np.asarray(k)
        if arr.ndim != 2:
            return False
        cols.append(_sym_to_vec(arr, basis))
    g_vec = _sym_to_vec(identity(n, True), basis)
    m = np.array(cols + [g_vec], dtype=object).T
    rank_with, _ = exact_rank_nullspace(m)
    m0 = np.array(cols, dtype=object).T
    rank_without, _ = exact_rank_nullspace(m0)
    return rank_with == rank_without
