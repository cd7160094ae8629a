"""Quadratic curvature functionals and explicit variation curves.

Evaluates F_tau = integral(|Ric|^2 + tau R^2), the scalar-curvature
functional S = integral(R^2), the Weyl functional W and the full
curvature functional, plus their volume-power normalizations, on
homogeneous curvature data. Two explicit one-parameter families get
closed forms: the Berger spheres (Hopf fiber scaled by s) and the
product-sphere path e^t g1 + e^{-t} g2 on S^2 x S^2. Derivatives along
curves come from 5-point central stencils with Richardson extrapolation
and carry error estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    from qcf.tensor_core import CurvatureData


class IllConditionedDerivativeError(ArithmeticError):
    """Step sequence underflowed: the stencil cannot resolve the point."""


@dataclass(frozen=True)
class FunctionalSelector:
    """Which functional to evaluate.

    variant: 'ftau' (needs tau), 's' (integral of R^2), 'w' (Weyl),
    'r' (full curvature norm).
    """

    variant: str
    tau: Fraction | float | None = None

    def __post_init__(self):
        if self.variant not in ("ftau", "s", "w", "r"):
            raise ValueError(f"unknown functional variant {self.variant!r}")
        if self.variant == "ftau" and self.tau is None:
            raise ValueError("ftau selector needs tau")

    @staticmethod
    def ftau(tau) -> "FunctionalSelector":
        return FunctionalSelector("ftau", tau)

    def has_degenerate_symbol(self, n: int) -> bool:
        """True when tau sits at -n/(4(n-1)), where the gauged symbol drops rank."""
        if self.variant != "ftau":
            return False
        return self.tau == Fraction(-n, 4 * (n - 1))


S_FUNCTIONAL = FunctionalSelector("s")
W_FUNCTIONAL = FunctionalSelector("w")
R_FUNCTIONAL = FunctionalSelector("r")


def integrand(sel: FunctionalSelector, cd: CurvatureData):
    """Pointwise density of the selected functional (homogeneous, so constant).

    F_tau and S need only |Ric|^2 and R^2; the rank-four contraction
    |Rm|^2 is made only for the Weyl and full curvature functionals.
    """
    if sel.variant == "ftau":
        return cd.ric_norm2() + sel.tau * (cd.scal * cd.scal)
    if sel.variant == "s":
        return cd.scal * cd.scal
    inv = cd.invariants()
    if sel.variant == "w":
        # identically zero in dimension three
        return inv["weyl2"]
    return inv["rm2"]


def evaluate(sel: FunctionalSelector, cd: CurvatureData, vol, normalized: bool = False):
    """Total functional Vol * density; normalized applies Vol^(4/n - 1).

    The normalized value is the scale-invariant one (the functional of
    the unit-volume rescaling). In dimension four the exponent vanishes
    and both agree. Exact inputs stay exact whenever the exponent is an
    integer; otherwise the result is a float.
    """
    if not vol > 0:
        raise ValueError("volume must be positive")
    dens = integrand(sel, cd)
    total = vol * dens
    if not normalized:
        return total
    p = Fraction(4, cd.n) - 1
    if p == 0:
        return total
    return float(vol) ** float(p) * float(total)


# ---------------------------------------------------------------------------
# Berger family


def berger_density_poly(tau, x):
    """|Ric|^2 + tau R^2 on the Berger sphere, as a polynomial in x = s^2.

    Equals 32(1+2 tau) - 32(1+tau) x + 4(3+tau) x^2; exact when the
    inputs are.
    """
    return 32 * (1 + 2 * tau) - 32 * (1 + tau) * x + 4 * (3 + tau) * x * x


def berger_curve(tau, s) -> float:
    """Normalized functional along the Berger family, f_tau(s).

    f_tau(s) = s^(4/3) * (32(1+2 tau) - 32(1+tau) s^2 + 4(3+tau) s^4),
    normalized so that f_tau(1) = |Ric|^2 + tau R^2 = 12 + 36 tau at the
    round point. This equals the volume-normalized functional divided
    by the fixed constant Vol(S^3)^(4/3).
    """
    if not s > 0:
        raise ValueError("Berger parameter s must be positive")
    x = float(s) ** 2
    return float(s) ** (4.0 / 3.0) * float(berger_density_poly(tau, x))


@dataclass(frozen=True)
class CriticalPoint:
    s_squared: Fraction | float
    multiplicity: int = 1

    @property
    def s(self) -> float:
        return math.sqrt(float(self.s_squared))


def berger_critical_points(tau) -> list[CriticalPoint]:
    """Positive critical parameters of f_tau: roots of (4/3)u + s u' = 0.

    In x = s^2 the condition is (3+tau) x^2 - 5(1+tau) x + 2(1+2 tau) = 0,
    with roots x = 1 and x = 2(1+2 tau)/(3+tau). Exact tau keeps the
    roots exact, so coincidences (the double root at tau = 1/3) are
    detected exactly rather than numerically. Non-positive secondary
    roots are dropped.
    """
    exact = isinstance(tau, (int, Fraction))
    t = Fraction(tau) if exact else float(tau)
    if t == -3:
        raise ValueError("tau = -3 degenerates the quartic coefficient")
    one = Fraction(1) if exact else 1.0
    x2 = 2 * (one + 2 * t) / (3 + t)
    if x2 == 1:
        return [CriticalPoint(one, multiplicity=2)]
    out = [CriticalPoint(one)]
    if x2 > 0:
        out.append(CriticalPoint(x2))
    out.sort(key=lambda c: float(c.s_squared))
    return out


def berger_curve_from_geometry(tau, s, normalized: bool = True) -> float:
    """Berger functional via the structure-constant curvature route.

    Independent of the closed form above: builds the left-invariant
    curvature, evaluates, normalizes, and divides by Vol(S^3)^(4/3).
    """
    from qcf import homogeneous

    sc = homogeneous.su2(exact=False)
    g = homogeneous.berger_metric(s, exact=False)
    cd = homogeneous.curvature(sc, g)
    vol = homogeneous.volume(sc, g, homogeneous.SU2_REFERENCE_VOLUME)
    val = evaluate(FunctionalSelector.ftau(tau), cd, vol, normalized=normalized)
    if normalized:
        return float(val) / homogeneous.SU2_REFERENCE_VOLUME ** (4.0 / 3.0)
    return float(val)


# ---------------------------------------------------------------------------
# product-sphere path


def product_sphere_curve(tau, t) -> float:
    """Normalized F_tau along e^t g1 + e^{-t} g2 on S^2 x S^2.

    Built from the closed-form curvature of a product of round
    two-spheres of radii e^{t/2} and e^{-t/2}; in dimension four the
    normalization exponent is zero, so this is Vol * density with
    Vol = 16 pi^2 (the factor volumes scale reciprocally).
    """
    import numpy as np

    from qcf.tensor_core import CurvatureData, kulkarni_nomizu

    a2 = math.exp(float(t))
    b2 = math.exp(-float(t))
    g = np.diag([a2, a2, b2, b2])
    ga = np.diag([a2, a2, 0.0, 0.0])
    gb = np.diag([0.0, 0.0, b2, b2])
    rm = kulkarni_nomizu(ga, ga) / (2.0 * a2) + kulkarni_nomizu(gb, gb) / (2.0 * b2)
    cd = CurvatureData(4, g, rm)
    vol = 16.0 * math.pi**2 * a2 * b2
    return float(evaluate(FunctionalSelector.ftau(tau), cd, vol, normalized=True))


# ---------------------------------------------------------------------------
# numerical differentiation


@dataclass(frozen=True)
class DerivativeEstimate:
    order: int
    value: float
    error: float


_STENCILS = {
    # order -> (offsets, weights, h-power, leading error power)
    1: ((-2, -1, 1, 2), (1.0, -8.0, 8.0, -1.0), 1, 4),
    2: ((-2, -1, 0, 1, 2), (-1.0, 16.0, -30.0, 16.0, -1.0), 2, 4),
    3: ((-2, -1, 1, 2), (-1.0, 2.0, -2.0, 1.0), 3, 2),
}
_STENCIL_DENOM = {1: 12.0, 2: 12.0, 3: 2.0}


def _richardson(samples: Sequence[float], p0: int) -> tuple[float, float]:
    """Extrapolate a sequence of stencil values at h, h/2, h/4, ...

    The error series has even powers starting at h^p0. Deep table
    entries amplify roundoff (the smallest steps divide cancellation
    noise by high powers of h), so instead of returning the deepest
    diagonal this scans the whole table and keeps the entry whose
    two-sided defect against its parents is smallest.
    """
    table = [list(samples)]
    k = len(samples)
    for j in range(1, k):
        p = p0 + 2 * (j - 1)
        fac = 2.0**p
        prev = table[-1]
        table.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0)
                      for i in range(len(prev) - 1)])
    best = table[0][-1]
    best_err = math.inf
    for j in range(1, k):
        row, prev = table[j], table[j - 1]
        for i in range(len(row)):
            err = max(abs(row[i] - prev[i + 1]), abs(row[i] - prev[i]))
            if err < best_err:
                best_err = err
                best = row[i]
    if not math.isfinite(best_err):
        best_err = abs(best)
    return best, best_err + 1e-15 * (1.0 + abs(best))


def curve_derivatives(curve: Callable[[float], float], s0: float,
                      max_order: int = 3,
                      base_step: float = 1e-2,
                      levels: int = 8) -> list[DerivativeEstimate]:
    """Derivative estimates of a smooth scalar curve at s0, orders 1..max_order.

    5-point central stencils evaluated along the halving step sequence
    base_step, base_step/2, ... (default 1e-2 down past 1e-4), then
    Richardson-extrapolated. Error estimates come from the extrapolation
    table and are never dropped.
    """
    if not 1 <= max_order <= 3:
        raise ValueError("max_order must be 1, 2 or 3")
    if levels < 2:
        raise ValueError("need at least two step levels to extrapolate")
    s0 = float(s0)
    h_min = base_step / 2.0 ** (levels - 1)
    if s0 + 2 * h_min == s0 or h_min <= 1e-13 * max(1.0, abs(s0)):
        raise IllConditionedDerivativeError(
            f"step {h_min} underflows at s0 = {s0}")
    steps = [base_step / 2.0**k for k in range(levels)]
    cache: dict[float, float] = {}

    def f(x: float) -> float:
        if x not in cache:
            cache[x] = float(curve(x))
        return cache[x]

    out = []
    for order in range(1, max_order + 1):
        offsets, weights, hpow, p0 = _STENCILS[order]
        samples = []
        for h in steps:
            acc = 0.0
            for o, w in zip(offsets, weights):
                acc += w * f(s0 + o * h)
            samples.append(acc / (_STENCIL_DENOM[order] * h**hpow))
        val, err = _richardson(samples, p0)
        out.append(DerivativeEstimate(order, val, err))
    return out


# ---------------------------------------------------------------------------
# CSV emission


CSV_HEADER = "param,value,d1,d2,d3,err1,err2,err3"


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def sweep_csv(rows: Sequence[tuple]) -> str:
    """CSV for curve sweeps: param,value,d1,d2,d3,err1,err2,err3.

    Each row is (param, value, [DerivativeEstimate...]); missing orders
    emit empty fields. 17 significant digits, locale-independent.
    """
    lines = [CSV_HEADER]
    for param, value, estimates in rows:
        by_order = {e.order: e for e in estimates}
        ds = [format_float(by_order[o].value) if o in by_order else "" for o in (1, 2, 3)]
        errs = [format_float(by_order[o].error) if o in by_order else "" for o in (1, 2, 3)]
        lines.append(",".join([format_float(param), format_float(value)] + ds + errs))
    return "\n".join(lines) + "\n"

