"""Quadratic curvature functionals and explicit variation curves.

Evaluates F_tau = integral(|Ric|^2 + tau R^2) and its volume-power
normalization on homogeneous curvature data. Two explicit
one-parameter families get closed forms: the Berger spheres (Hopf fiber
scaled by s) and the product-sphere path e^t g1 + e^{-t} g2 on
S^2 x S^2. Derivatives along curves come from 5-point central stencils
with Richardson extrapolation and carry error estimates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

if TYPE_CHECKING:
    from qcf.tensor_core import CurvatureData


class IllConditionedDerivativeError(ArithmeticError):
    """Step sequence underflowed: the stencil cannot resolve the point."""


def evaluate(tau, cd: CurvatureData, vol, normalized: bool = False):
    """F_tau = Vol * (|Ric|^2 + tau R^2); normalized applies Vol^(4/n - 1).

    The density is constant on homogeneous data and needs only |Ric|^2
    and R, so no rank-four contraction is made. The normalized value is
    the scale-invariant one (the functional of the unit-volume
    rescaling). In dimension four the exponent vanishes and both agree.
    Exact inputs stay exact whenever the exponent is an integer;
    otherwise the result is a float.
    """
    if not vol > 0:
        raise ValueError("volume must be positive")
    total = vol * (cd.ric_norm2() + tau * (cd.scal * cd.scal))
    if not normalized:
        return total
    p = Fraction(4, cd.n) - 1
    if p == 0:
        return total
    return float(vol) ** float(p) * float(total)


# ---------------------------------------------------------------------------
# Berger family


def berger_curve(tau, s: Sequence[float]) -> list[float]:
    """Normalized functional along the Berger family, f_tau(s), at each s.

    f_tau(s) = s^(4/3) * (32(1+2 tau) - 32(1+tau) s^2 + 4(3+tau) s^4),
    normalized so that f_tau(1) = |Ric|^2 + tau R^2 = 12 + 36 tau at the
    round point. This equals the volume-normalized functional divided
    by the fixed constant Vol(S^3)^(4/3). The coefficients are converted
    to float once, as mixed Fraction-float arithmetic would convert them.
    """
    out = []
    for si in s:
        if not si > 0:
            raise ValueError("Berger parameter s must be positive")
        si = float(si)
        x = si ** 2
        if not out:  # converted after the first checks: s <= 0 is reported before a huge tau
            c0, c1, c2 = (float(c) for c in (32 * (1 + 2 * tau), 32 * (1 + tau), 4 * (3 + tau)))
        out.append(si ** (4.0 / 3.0) * (c0 - c1 * x + c2 * x * x))
    return out


class CriticalPoint(NamedTuple):
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
    val = evaluate(tau, cd, vol, normalized=normalized)
    if normalized:
        return float(val) / homogeneous.SU2_REFERENCE_VOLUME ** (4.0 / 3.0)
    return float(val)


# ---------------------------------------------------------------------------
# product-sphere path


def product_sphere_curve(tau, t: Sequence[float]) -> list[float]:
    """Normalized F_tau along e^t g1 + e^{-t} g2 on S^2 x S^2, at each t.

    The metric is diag(a2, a2, b2, b2) with a2 = e^t, b2 = e^{-t}: round
    two-spheres of radii e^{t/2} and e^{-t/2}. In dimension four the
    normalization exponent is zero, so this is Vol * (|Ric|^2 + tau R^2)
    with Vol = 16 pi^2. The loop replays in scalar floats, in their order,
    the operations of the dense route (kulkarni_nomizu, CurvatureData,
    evaluate) on these diagonal tensors; tests pin it bit for bit.
    """
    out = []
    for ti in t:
        a2 = math.exp(float(ti))
        b2 = math.exp(-float(ti))
        vol = 16.0 * math.pi**2 * a2 * b2
        if not vol > 0:  # before the divisions: NaN and infinite t end here
            raise ValueError("volume must be positive")
        if not out:  # converted after the first checks, as in berger_curve
            ftau = float(tau)
        # per factor: the non-zero curvature entry r, the Ricci entry, the R and |Ric|^2 terms
        r_a, r_b = (a2 * a2 + a2 * a2) / (2.0 * a2), (b2 * b2 + b2 * b2) / (2.0 * b2)
        ric_a, ric_b = 1.0 / a2 * r_a, 1.0 / b2 * r_b
        s_a, s_b = 1.0 / a2 * ric_a, 1.0 / b2 * ric_b
        q_a, q_b = 1.0 / a2 * (1.0 / a2 * ric_a) * ric_a, 1.0 / b2 * (1.0 / b2 * ric_b) * ric_b
        # numpy's pairwise sums; 0.0 * r is the dense product of r with a zero
        # of g^-1, NaN once r has overflowed
        scal = (s_a + s_b) + (s_a + s_b) + 0.0 * (r_a + r_b)
        out.append(vol * ((q_a + q_b) + (q_a + q_b) + ftau * (scal * scal)))
    return out


# ---------------------------------------------------------------------------
# numerical differentiation


class DerivativeEstimate(NamedTuple):
    order: int
    value: float
    error: float


_STENCILS = {
    # order -> (offsets, weights, denominator, h-power, leading error power)
    1: ((-2, -1, 1, 2), (1.0, -8.0, 8.0, -1.0), 12.0, 1, 4),
    2: ((-2, -1, 0, 1, 2), (-1.0, 16.0, -30.0, 16.0, -1.0), 12.0, 2, 4),
    3: ((-2, -1, 1, 2), (-1.0, 2.0, -2.0, 1.0), 2.0, 3, 2),
}
BASE_STEP = 1e-2  # the largest step; stencils reach 2 * BASE_STEP either side


def _richardson(samples: list[list[float]], p0: int) -> tuple[list[float], list[float]]:
    """Extrapolate stencil values at h, h/2, h/4, ... (one list over the
    points per step) to values and error estimates over the points.

    The error series has even powers starting at h^p0. Deep table
    entries amplify roundoff (the smallest steps divide cancellation
    noise by high powers of h), so instead of returning the deepest
    diagonal this keeps, per point, the first table entry whose
    two-sided defect against its parents is smallest.
    """
    table = [samples]
    for j in range(1, len(samples)):
        fac = 2.0 ** (p0 + 2 * (j - 1))
        prev = table[-1]
        table.append([[(fac * b - a) / (fac - 1.0) for a, b in zip(prev[i], prev[i + 1])]
                      for i in range(len(prev) - 1)])
    best, best_err = samples[-1], [math.inf] * len(samples[-1])
    for j in range(1, len(samples)):
        for row, lo, hi in zip(table[j], table[j - 1], table[j - 1][1:]):
            err = [max(abs(r - b), abs(r - a)) for r, a, b in zip(row, lo, hi)]
            best = [r if e < be else x for r, e, be, x in zip(row, err, best_err, best)]
            best_err = [e if e < be else be for e, be in zip(err, best_err)]
    best_err = [e if math.isfinite(e) else abs(x) for e, x in zip(best_err, best)]
    return best, [e + 1e-15 * (1.0 + abs(x)) for e, x in zip(best_err, best)]


def curve_derivatives(curve: Callable[[list[float]], list[float]], points: Sequence[float],
                      max_order: int = 3, base_step: float = BASE_STEP,
                      levels: int = 8) -> list[list[DerivativeEstimate]]:
    """Derivative estimates of a smooth scalar curve, orders 1..max_order, at each point.

    5-point central stencils at the halving steps base_step, base_step/2,
    ... (default 1e-2 down past 1e-4), Richardson-extrapolated, with error
    estimates from the extrapolation table that are never dropped. `curve`
    maps a list of parameters to their values; it gets one call, on the
    stencils of the points in order, so errors name the first failing point.
    """
    if not 1 <= max_order <= 3:
        raise ValueError("max_order must be 1, 2 or 3")
    if levels < 2:
        raise ValueError("need at least two step levels to extrapolate")
    pts = [float(s) for s in points]
    if not pts:
        return []
    h_min = base_step / 2.0 ** (levels - 1)
    # the first point the smallest step cannot resolve; the points before it run first
    stop = next((i for i, s0 in enumerate(pts)
                 if s0 + 2 * h_min == s0 or h_min <= 1e-13 * max(1.0, abs(s0))), len(pts))
    steps = [base_step / 2.0**k for k in range(levels)]
    orders = range(1, max_order + 1)
    index: dict[float, int] = {}
    where = [[index.setdefault(s0 + o * h, len(index))
              for order in orders for h in steps for o in _STENCILS[order][0]]
             for s0 in pts[:stop]]
    fx = [float(v) for v in curve(list(index))]
    if stop < len(pts):
        raise IllConditionedDerivativeError(f"step {h_min} underflows at s0 = {pts[stop]}")
    out: list[list[DerivativeEstimate]] = [[] for _ in pts]
    columns = iter(zip(*where))  # one per (order, step, offset), over the points
    for order in orders:
        _, weights, denom, hpow, p0 = _STENCILS[order]
        samples = []
        for h in steps:
            acc = [0.0] * len(pts)
            for w in weights:
                acc = [a + w * fx[i] for a, i in zip(acc, next(columns))]
            d = denom * h**hpow
            samples.append([a / d for a in acc])
        for ests, val, err in zip(out, *_richardson(samples, p0)):
            ests.append(DerivativeEstimate(order, val, err))
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

