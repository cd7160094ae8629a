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
from qcf.tensor_core import _per_metric


def _sym_basis(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i, n)]


def symbol_coefficients(n: int, tau) -> tuple:
    """The three coefficient combinations entering the gauged symbol.

    Fractions for exact tau; floats for float tau, or arrays for an
    array of float taus, each 2 tau + c or 2 (tau + c) with c rounded once.
    """
    a = Fraction(n * n + 4 * n - 4, 2 * n * n)
    b = Fraction(n - 1, n)
    c = Fraction(n**3 + 4 * n - 4, 2 * n**3)
    if isinstance(tau, (int, Fraction)):
        t = Fraction(tau)
    else:
        t = tau if isinstance(tau, np.ndarray) else float(tau)
        a, b, c = float(a), float(b), float(c)
    return 2 * t + a, 2 * (t + b), 2 * t + c


class SymbolOperator(NamedTuple):
    """Dense matrix of the gauged-linearization symbol on symmetric arrays.

    Acts on h by
      (1/2)|xi|^4 h - A |xi|^2 (tr h) xi xi + B h(xi,xi) xi xi
      + C |xi|^4 (tr h) g - A |xi|^2 h(xi,xi) g
    in an orthonormal frame (g the identity). Only tr h and h(xi,xi)
    enter besides h itself, so the matrix is (1/2)|xi|^4 I plus two
    rank-one terms. Exact entries when tau and xi are rational. A float
    operator may hold a stack of matrices (see gauged_symbol);
    trace_free_block takes the matrix of one covector.
    """

    n: int
    tau: Fraction | float | np.ndarray
    xi: np.ndarray
    matrix: np.ndarray
    basis: tuple = ()

    def min_singular_value(self):
        """The smallest singular value: a float, or an array over the
        covectors of a stack (one SVD call for the whole stack)."""
        sv = np.linalg.svd(self.matrix.astype(float), compute_uv=False)[..., -1]
        return float(sv) if sv.ndim == 0 else sv

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

    Float xi may be a stack of covectors (..., n), with tau a number or
    an array with one value per covector; the matrices are then a stack
    (..., N, N), each with the bits of its covector built alone. Exact
    symbols take one covector.
    """
    xi = np.asarray(xi)
    if n < 3:
        raise ValueError("dimension must be at least 3")
    if xi.ndim < 1 or xi.shape[-1] != n:
        raise ValueError(f"xi must have shape ({n},) or (..., {n})")
    exact = isinstance(tau, (int, Fraction)) and xi.dtype.kind in "iuO"
    if exact and xi.ndim != 1:
        raise ValueError("exact symbols take one covector")
    if exact and xi.dtype != object:
        promoted = np.empty(n, dtype=object)
        promoted[:] = [Fraction(int(x)) for x in xi.tolist()]
        xi = promoted
    if not np.all(np.any(xi != 0, axis=-1)):
        raise ValueError("xi must be nonzero")
    if exact:
        A, B, C = symbol_coefficients(n, tau)
        dtype, half = object, Fraction(1, 2)
    else:
        xi = xi.astype(float)
        t = np.asarray(tau, dtype=float) if np.ndim(tau) else float(tau)
        # per-covector scalars gain one axis, to scale vectors over the basis
        A, B, C = (_per_metric(k, 1) for k in symbol_coefficients(n, t))
        dtype, half = float, 0.5
    xi2 = xi[..., 0] * xi[..., 0]  # summed left to right, as sum() over xi would
    for k in range(1, n):
        xi2 = xi2 + xi[..., k] * xi[..., k]
    xi2 = _per_metric(xi2, 1)
    basis = _sym_basis(n)
    rows, cols = np.array(basis).T
    u = xi[..., rows] * xi[..., cols]
    g = np.array([int(i == j) for i, j in basis], dtype=dtype)
    w = u * np.array([1 if i == j else 2 for i, j in basis], dtype=dtype)
    matrix = (_per_metric(half * xi2 * xi2, 1) * np.eye(len(basis), dtype=dtype)
              + _outer(C * xi2 * xi2 * g - A * xi2 * u, g)
              + _outer(B * u - A * xi2 * g, w))
    return SymbolOperator(n=n, tau=tau, xi=xi, matrix=matrix, basis=tuple(basis))


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.outer over the last axis, with leading batch axes."""
    return a[..., :, None] * b[..., None, :]


class InjectivityVerdict(NamedTuple):
    injective: bool
    min_singular_value: float
    kernel: tuple = ()
    note: str = ""
    contains_metric: bool = False


def symbol_injectivity(n: int, tau, trials: int = 100, seed: int = 0,
                       restrict_trace_free: bool = False) -> InjectivityVerdict:
    """Injectivity of the gauged symbol, decided at the covector e_1.

    The symbol is built from |xi|^2, xi xi and g alone, so it is
    O(n)-equivariant and homogeneous of degree 4 in xi: its rank, its
    kernel dimension and whether g lies in its kernel are the same at
    every nonzero xi. Floats: injective iff the smallest singular value
    exceeds 1e-10. Rational tau: exact rank; a rank drop returns the
    exact kernel basis in the coordinates of the decided matrix (as
    exact_rank_nullspace gives it), and g lies in the kernel exactly when
    M g = 0, which never holds on the trace-free block (g is not trace-free).
    ``trials`` and ``seed`` are accepted for compatibility and change
    nothing.
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
    diag = [k for k, (i, j) in enumerate(op.basis) if i == j]
    # g lies in the kernel of the full symbol exactly when M g, the sum of the
    # diagonal-coordinate columns, vanishes (skipping zeros saves a gcd each)
    contains_g = not restrict_trace_free and not any(
        sum(x for x in row if x) for row in m[:, diag].tolist())
    return InjectivityVerdict(False, min_sv, tuple(null), note="exact rank deficiency",
                              contains_metric=contains_g)


def kernel_contains_metric(verdict: InjectivityVerdict, n: int) -> bool:
    """Whether the metric direction g lies in the kernel of the decided
    symbol, as symbol_injectivity read it from M g = 0 (n changes nothing)."""
    return verdict.contains_metric
