"""Second-variation operators as spectral polynomials, plus principal symbols.

On an Einstein manifold the Jacobi operator of the normalized quadratic
functionals acts on each Lichnerowicz eigenspace (transverse-traceless
tensors) and each Laplace eigenspace (conformal directions) as plain
multiplication, so the operators reduce to quadratic polynomials in the
eigenvalue. Those polynomials, in exact arithmetic, are what the
stability and rigidity decisions consume.

Sign conventions, fixed once: mu ranges over spec(-Delta_L) on TT
tensors and lambda over spec(-Delta) on functions, both bounded below,
so interval statements about spectra translate verbatim.

The module also builds the principal symbol of the gauged linearization
as a dense matrix on symmetric arrays, and the conformal-Killing symbol
on covectors, with exact rank decisions for rational inputs and SVD
fallbacks otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from qcf._exact import exact_rank_nullspace
from qcf.tensor_core import identity, is_exact, zeros


def tau1(n: int) -> Fraction:
    """Lower stability threshold (4-3n)/(2n(n-1))."""
    return Fraction(4 - 3 * n, 2 * n * (n - 1))


def tau2(n: int) -> Fraction:
    """Degenerate-symbol threshold -n/(4(n-1))."""
    return Fraction(-n, 4 * (n - 1))


def _as_exact(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return float(x)


@dataclass(frozen=True)
class SpectralPolynomial:
    """Degree <= 2 polynomial c2 x^2 + c1 x + c0 in the eigenvalue variable.

    The variable is mu (TT, eigenvalue of -Delta_L) or lambda (conformal,
    eigenvalue of -Delta). Coefficients are exact ratios when the
    defining data (n, R, tau) are.
    """

    c0: Fraction
    c1: Fraction
    c2: Fraction

    def __call__(self, x):
        return (self.c2 * x + self.c1) * x + self.c0

    def roots(self) -> list[Fraction]:
        """Roots with multiplicity; exact (all cases used here are rational)."""
        if self.c2 == 0:
            if self.c1 == 0:
                return []
            return [-self.c0 / self.c1]
        disc = self.c1 * self.c1 - 4 * self.c2 * self.c0
        if disc < 0:
            return []
        if isinstance(disc, Fraction):
            num = math.isqrt(disc.numerator)
            den = math.isqrt(disc.denominator)
            if num * num != disc.numerator or den * den != disc.denominator:
                raise ValueError(f"irrational roots, discriminant {disc}")
            sq = Fraction(num, den)
        else:
            sq = math.sqrt(disc)
        r1 = (-self.c1 - sq) / (2 * self.c2)
        r2 = (-self.c1 + sq) / (2 * self.c2)
        return sorted([r1, r2])


def tt_polynomial(n: int, scal, tau, normalized: bool = True) -> SpectralPolynomial:
    """Jacobi action on a TT eigenspace of -Delta_L with eigenvalue mu.

    Normalized functional: (1/2)(2R/n - mu)((4/n + 2 tau)R - mu).
    Unnormalized differs by the constant Einstein-gradient eigenvalue
    c = (n-4)/(2n^2) (1 + n tau) R^2, i.e. unnormalized = normalized + c;
    at tau = 0 this reproduces the coefficients
    (1/2) mu^2 - (3/n) R mu + (n+4)/(2n^2) R^2.
    """
    R = _as_exact(scal)
    t = _as_exact(tau)
    half = Fraction(1, 2)
    c2 = half
    c1 = -(Fraction(3, n) + t) * R
    c0 = (Fraction(4, n * n) + 2 * t / n) * R * R
    if not normalized:
        c0 = c0 + Fraction(n - 4, 2 * n * n) * (1 + n * t) * R * R
    return SpectralPolynomial(c0, c1, c2)


def tt_s_polynomial(n: int, scal) -> SpectralPolynomial:
    """TT action for the scalar-curvature functional: R(2R/n - mu)."""
    R = _as_exact(scal)
    return SpectralPolynomial(2 * R * R / n, -R, Fraction(0))

def tt_jacobi(n: int, scal, tau, mu, normalized: bool = True):
    """Evaluate the TT Jacobi polynomial; tau=None selects the S-functional."""
    if tau is None:
        return tt_s_polynomial(n, scal)(_as_exact(mu))
    return tt_polynomial(n, scal, tau, normalized)(_as_exact(mu))


def conformal_polynomial(n: int, scal, tau) -> SpectralPolynomial:
    """Conformal Jacobi trace polynomial in the -Delta eigenvalue lambda.

    p_tau(lambda) = (1/2n)((n-1)lambda - R)(n(n - 4 tau + 4 n tau)lambda
    + 2(n-4)(1 + n tau)R). At R = 0 this is ((n-1)(n-4tau+4ntau)/2) lambda^2.
    """
    R = _as_exact(scal)
    t = _as_exact(tau)
    a = n * (n - 4 * t + 4 * n * t)
    b = 2 * (n - 4) * (1 + n * t) * R
    inv2n = Fraction(1, 2 * n)
    c2 = inv2n * (n - 1) * a
    c1 = inv2n * ((n - 1) * b - R * a)
    c0 = -inv2n * R * b
    return SpectralPolynomial(c0, c1, c2)


def conformal_s_polynomial(n: int, scal) -> SpectralPolynomial:
    """Conformal polynomial of the S-functional:
    2(n-1)^2 lambda^2 + (n-6)(n-1) R lambda - (n-4) R^2."""
    R = _as_exact(scal)
    return SpectralPolynomial(-(n - 4) * R * R, (n - 6) * (n - 1) * R,
                              Fraction(2 * (n - 1) ** 2))


def conformal_jacobi(n: int, scal, tau, lam):
    """Evaluate the conformal polynomial; tau=None selects the S-functional."""
    if tau is None:
        return conformal_s_polynomial(n, scal)(_as_exact(lam))
    return conformal_polynomial(n, scal, tau)(_as_exact(lam))


def q_factor(n: int, scal, tau, lam):
    """Second factor n(n-4tau+4ntau)lambda + 2(n-4)(1+n tau)R of p_tau.

    Its sign at lambda_1 decides the conformal verdict past the
    Lichnerowicz root; the lambda coefficient is positive exactly for
    tau > -n/(4(n-1)), and at tau = -1/n the R term drops out
    (coefficient (n-2)^2 lambda).
    """
    R = _as_exact(scal)
    t = _as_exact(tau)
    return n * (n - 4 * t + 4 * n * t) * _as_exact(lam) + 2 * (n - 4) * (1 + n * t) * R


# ---------------------------------------------------------------------------
# principal symbols


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
    t = _as_exact(tau)
    A = 2 * t + Fraction(n * n + 4 * n - 4, 2 * n * n)
    B = 2 * (t + Fraction(n - 1, n))
    C = 2 * t + Fraction(n**3 + 4 * n - 4, 2 * n**3)
    return A, B, C


@dataclass(frozen=True)
class SymbolOperator:
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
    matrix: np.ndarray = field(repr=False)
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


@dataclass(frozen=True)
class InjectivityVerdict:
    injective: bool
    min_singular_value: float
    kernel: list = field(default_factory=list)
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
        return InjectivityVerdict(True, min_sv, [],
                                  note="exact full rank at every sampled direction")
    if restrict_trace_free:
        kernel = [np.array(v, dtype=object) for v in null]
    else:
        kernel = [_vec_to_sym(v, op.basis, n, True) for v in null]
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


@dataclass(frozen=True)
class ConformalKillingVerdict:
    n: int
    eigenvalues: tuple
    min_singular_value: float
    degenerate: bool
    note: str = ""


def conformal_killing_symbol(n: int, xi) -> ConformalKillingVerdict:
    """Symbol of the conformal-Killing gauge operator on covectors.

    The matrix is |xi|^2 I + (1 - 2/n) xi xi^T with eigenvalues
    (2 - 2/n)|xi|^2 (once, along xi) and |xi|^2 (n-1 times). As a matrix
    it is invertible for every n >= 1; the gauge verdict is degenerate
    exactly in dimension two, where the conformal group is infinite
    dimensional and the gauge slice collapses. Both facts are reported:
    the true spectrum and the dimension-two degeneracy flag.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (n,):
        raise ValueError(f"xi must have shape ({n},)")
    xi2 = float(xi @ xi)
    if xi2 == 0.0:
        raise ValueError("xi must be nonzero")
    along = (2.0 - 2.0 / n) * xi2
    eigs = tuple(sorted([along] + [xi2] * (n - 1)))
    degenerate = n == 2
    note = ""
    if degenerate:
        note = ("dimension two: conformal gauge slice collapses "
                "(infinite-dimensional conformal group); matrix itself has "
                f"min singular value {min(eigs):g}")
    return ConformalKillingVerdict(n=n, eigenvalues=eigs,
                                   min_singular_value=min(eigs),
                                   degenerate=degenerate, note=note)
