"""Stability intervals, rigidity thresholds, Bach verdicts, volume comparison.

Decision procedures over the catalog's exact spectral data. combined_verdict
intersects the gap checks _tt_gap and _conformal_gap, which certify positivity
of the second variation in the transverse-traceless and conformal directions;
stability_interval assembles the theorem-backed tau ranges with per-endpoint
provenance; rigidity_exceptional_taus lists the tau values where the TT kernel
jumps; bach_verdict runs the dimension-four Weyl-functional checks; and
reverse_bishop performs the volume-comparison deduction near a stable positive
Einstein metric.

Every decision here is exact rational arithmetic (floats only print the
volume comparison's notes); the procedures never extrapolate beyond the
branch of the statement that covers the input, returning Indeterminate instead.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from typing import NamedTuple

from qcf.catalog import CatalogError, ModelSpace, function_spectrum
from qcf.rational import _second_numerators, format_ratio, q_factor, tau1, tau2


class InsufficientSpectralData(ValueError):
    """A branch needs spectral input the catalog does not have."""


VERDICT_VARIANTS = ("StrictlyStable", "StableBoundOnly", "Indeterminate",
                    "FailsTT", "FailsConformal")


# A record that checks its fields is a NamedTuple of the fields and methods
# with a thin subclass whose __new__ takes the fields by name, with their
# defaults, checks them and builds the tuple (a NamedTuple class body cannot
# define __new__); _make is overridden so that _replace checks as well.
class _VerdictFields(NamedTuple):
    variant: str
    witness: Fraction | None = None
    notes: tuple[str, ...] = ()
    provenance: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "verdict": self.variant,
            "witness": format_ratio(self.witness) if self.witness is not None else None,
            "notes": list(self.notes),
            "provenance": list(self.provenance),
        }


class StabilityVerdict(_VerdictFields):
    __slots__ = ()

    def __new__(cls, variant, witness=None, notes=(), provenance=()):
        if variant not in VERDICT_VARIANTS:
            raise ValueError(f"unknown verdict variant {variant}")
        if variant == "FailsTT" and witness is None:
            raise ValueError("FailsTT requires an eigenvalue witness")
        return tuple.__new__(cls, (variant, witness, notes, provenance))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _IntervalFields(NamedTuple):
    lo: Fraction | None
    hi: Fraction | None
    lo_open: bool = True
    hi_open: bool = True
    lo_provenance: str = ""
    hi_provenance: str = ""
    notes: tuple[str, ...] = ()
    verdict_inside: str = "StrictlyStable"

    def to_json(self) -> dict:
        return {
            "lo": format_ratio(self.lo) if self.lo is not None else "-inf",
            "hi": format_ratio(self.hi) if self.hi is not None else "inf",
            "lo_open": self.lo_open,
            "hi_open": self.hi_open,
            "provenance": {"lo": self.lo_provenance, "hi": self.hi_provenance},
            "notes": list(self.notes),
            "verdict_inside": self.verdict_inside,
        }


class TauInterval(_IntervalFields):
    """Open/half-open tau range with exact endpoints and provenance.

    lo/hi of None mean unbounded on that side. provenance records which
    branch produced each endpoint, by content.
    """

    __slots__ = ()

    def __new__(cls, lo, hi, lo_open=True, hi_open=True, lo_provenance="",
                hi_provenance="", notes=(), verdict_inside="StrictlyStable"):
        if lo is not None and hi is not None and not lo < hi:
            raise ValueError(f"empty interval: lo {lo} >= hi {hi}")
        return tuple.__new__(cls, (lo, hi, lo_open, hi_open, lo_provenance,
                                   hi_provenance, notes, verdict_inside))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _exact_tau(tau) -> Fraction:
    if isinstance(tau, Fraction):
        return tau
    if isinstance(tau, int):
        return Fraction(tau)
    f = Fraction(tau).limit_denominator(10**12)
    if abs(float(f) - float(tau)) > 1e-12 * max(1.0, abs(float(tau))):
        return Fraction(tau)
    return f


# ---------------------------------------------------------------------------
# gap checks


def _ratio_text(num: int, den: int) -> str:
    """The text of the Fraction num/den (den > 0), without building it."""
    g = math.gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def _tt_meets(tt, lo: int, hi: int, den: int):
    """Where spec_TT meets [lo/den, hi/den] (den > 0), by cross-multiplication:
    the first known eigenvalue inside or None, and whether the interval
    lies below the tail bound."""
    for eig in tt.known:
        mu = eig.mu
        d = mu.denominator
        if lo * d <= mu.numerator * den <= hi * d:
            break
    else:
        eig = None
    tail = tt.tail_bound
    return eig, hi * tail.denominator < tail.numerator * den


# The gap checks take an exact tau and return a verdict's fields (variant, witness,
# notes, provenance), so that combined_verdict converts tau once and builds one record.


def _tt_gap(model: ModelSpace, t: Fraction) -> tuple:
    """Positivity of the TT Jacobi polynomial over the model's TT spectrum.

    The polynomial (1/2)(2R/n - mu)((4/n + 2 tau)R - mu) is positive
    exactly when mu avoids the closed interval between its roots, so the
    check is emptiness of spec_TT over that interval. Known eigenvalues
    give concrete failure witnesses; the tail bound certifies emptiness
    above the known list. Bound-only models (hyperbolic) can pass only
    as StableBoundOnly; quotient models have subset spectra, so endpoint
    hits downgrade to Indeterminate instead of a definite failure.
    """
    tt = model.tt
    if tt is None:
        raise InsufficientSpectralData(f"{model.key}: no TT spectral data")
    n, p, q = model.n, t.numerator, t.denominator
    r, s = model.scal.numerator, model.scal.denominator
    # with tau = p/q and R = r/s, the roots over the common denominator nqs
    den = n * q * s
    a, b = 2 * q * r, (4 * q + 2 * n * p) * r
    lo, hi = (a, b) if a <= b else (b, a)
    eig, below_tail = _tt_meets(tt, lo, hi, den)
    span = f"[{_ratio_text(lo, den)}, {_ratio_text(hi, den)}]"
    if eig is not None:
        note = f"eigenvalue {eig.mu} in the forbidden interval {span}"
        if eig.witness:
            note += f"; witness: {eig.witness}"
        if tt.is_subset:
            return ("Indeterminate", eig.mu,
                    (note, "spectrum is a quotient subset: the witness may not descend"),
                    ("tt-gap",))
        return "FailsTT", eig.mu, (note,), ("tt-gap",)
    if below_tail:
        if tt.is_bound:
            return ("StableBoundOnly", None,
                    (f"forbidden interval {span} lies below the "
                     f"spectral lower bound {tt.tail_bound}",),
                    ("tt-gap", "tt-lower-bound"))
        return ("StrictlyStable", None,
                (f"forbidden interval {span} misses the known "
                 f"spectrum and lies below the tail bound {tt.tail_bound}",),
                ("tt-gap",))
    return ("Indeterminate", None,
            (f"forbidden interval {span} reaches the region "
             f"mu >= {tt.tail_bound} where the spectrum is not fully known",),
            ("tt-gap",))


def _conformal_witness(model: ModelSpace, t: Fraction) -> Fraction | None:
    """First spectrum eigenvalue past the gauge modes where p_tau is negative.

    p_tau(lambda) = (1/2n)((n-1)lambda - R)(a lambda + b) is negative
    exactly when its two linear factors are nonzero with opposite signs,
    and the first factor vanishes at the gauge eigenvalue R/(n-1).
    """
    if not model.has_function_spectrum:
        return None
    spec = function_spectrum(model, 60)
    n, r, s = model.n, model.scal.numerator, model.scal.denominator
    a, b = _second_numerators(n, t.numerator, t.denominator, r)
    # at lambda = l/d the factors have the signs of (n-1)s l - r d and a s l + b d
    a, gauge = a * s, (n - 1) * s
    for lam in spec:
        l, d = lam.numerator, lam.denominator
        first = gauge * l - r * d
        if l == 0 or first == 0:
            continue  # scaling / conformal-diffeomorphism gauge directions
        second = a * l + b * d
        if second and (second < 0) == (first > 0):
            return lam
    return None


def _vs(p: int, q: int, num: int, den: int) -> int:
    """An integer with the sign of p/q - num/den (q, den > 0)."""
    return den * p - num * q


def _fails(model: ModelSpace, t: Fraction, note: str, witness=None,
           allow_scan=True) -> tuple:
    """A FailsConformal verdict's fields; without a given witness, the scan
    supplies one where allowed."""
    w = witness
    if w is None and allow_scan:
        w = _conformal_witness(model, t)
    notes = (note,)
    if w is None and allow_scan:
        notes += ("no concrete eigenvalue witness available from the catalog",)
    elif w is not None and model.spectra_are_subsets:
        notes += ("witness eigenvalue from the covering spectrum; the "
                  "eigenfunction may not descend to the quotient",)
    return "FailsConformal", w, notes, ("conformal-branch",)


def _conformal_gap(model: ModelSpace, t: Fraction, lambda1_override: Fraction | None) -> tuple:
    """Positivity of the conformal Jacobi polynomial over function eigenvalues.

    Branches follow the sign of R and the dimension; for R > 0 only the
    Lichnerowicz lower bound lambda_1 >= R/(n-1) is used, for R < 0 in
    n >= 5 the range tau > -1/n needs the first nonzero Laplace
    eigenvalue: lambda1_override when given (bound-only models need it),
    else the model's. The procedure never extrapolates outside a branch;
    it returns Indeterminate there.
    """
    n, p, q, r = model.n, t.numerator, t.denominator, model.scal.numerator
    t1, t2 = (4 - 3 * n, 2 * n * (n - 1)), (-n, 4 * (n - 1))  # tau1, tau2 as (num, den)
    if r > 0:
        if n == 3:
            if _vs(p, q, -3, 8) > 0:
                return ("StrictlyStable", None,
                        ("dimension three, positive scalar curvature: tau above -3/8",),
                        ("conformal-branch",))
            if _vs(p, q, -5, 12) < 0:
                return _fails(model, t, "dimension three: tau below -5/12 makes the "
                                        "conformal Hessian negative past the gauge modes")
            return ("Indeterminate", None,
                    ("dimension three: tau in [-5/12, -3/8], where neither branch applies",),
                    ("conformal-branch",))
        if n == 4:
            if _vs(p, q, -1, 3) > 0:
                return ("StrictlyStable", None, ("dimension four: tau above -1/3",),
                        ("conformal-branch",))
            if _vs(p, q, -1, 3) == 0:
                return ("Indeterminate", None,
                        ("tau = -1/3 in dimension four: the functional is "
                         "conformally invariant, the conformal Hessian "
                         "vanishes identically",),
                        ("conformal-invariance",))
            return _fails(model, t, "dimension four: tau below -1/3 flips the conformal "
                                    "Hessian negative")
        # n >= 5
        if _vs(p, q, *t1) > 0:
            return ("StrictlyStable", None,
                    (f"tau above the threshold {_ratio_text(*t1)} = (4-3n)/(2n(n-1))",),
                    ("conformal-branch",))
        if _vs(p, q, *t2) <= 0:
            return _fails(model, t, f"tau at or below -n/(4(n-1)) = {_ratio_text(*t2)}: "
                                    "negative leading coefficient, the conformal Hessian "
                                    "is negative on all sufficiently large eigenvalues")
        return ("Indeterminate", None,
                (f"tau in ({_ratio_text(*t2)}, {_ratio_text(*t1)}]: between the negative and "
                 "positive branches, where the statement is silent",),
                ("conformal-branch",))

    if r < 0:
        if n == 3:
            if _vs(p, q, -1, 3) > 0:
                return ("StrictlyStable", None,
                        ("dimension three, negative scalar curvature: tau above -1/3",),
                        ("conformal-branch",))
            if _vs(p, q, -3, 8) < 0:
                return _fails(model, t, "dimension three, negative scalar curvature: "
                                        "tau below -3/8")
            return ("Indeterminate", None, ("dimension three: tau in [-3/8, -1/3]",),
                    ("conformal-branch",))
        if n == 4:
            if _vs(p, q, -1, 3) > 0:
                return ("StrictlyStable", None, ("dimension four: tau above -1/3",),
                        ("conformal-branch",))
            if _vs(p, q, -1, 3) == 0:
                return ("Indeterminate", None,
                        ("tau = -1/3 in dimension four: conformal invariance",),
                        ("conformal-invariance",))
            return _fails(model, t, "dimension four: tau below -1/3")
        # n >= 5, R < 0
        if _vs(p, q, *t2) > 0 and _vs(p, q, -1, n) <= 0:
            return ("StrictlyStable", None,
                    (f"tau in ({_ratio_text(*t2)}, -1/{n}]: second factor positive on all "
                     "positive eigenvalues regardless of lambda_1",),
                    ("conformal-branch",))
        if _vs(p, q, -1, n) > 0:
            lam1 = lambda1_override if lambda1_override is not None else model.lambda1
            if lam1 is None:
                raise InsufficientSpectralData(
                    f"{model.key}: tau > -1/n with negative scalar curvature "
                    "needs the first nonzero Laplace eigenvalue (the branch "
                    "requires lambda_1 > (n-4)(-R)/(2(n-1)); pass "
                    "lambda1_override)")
            qv = q_factor(n, model.scal, t, lam1)
            if qv > 0:
                return ("StrictlyStable", None,
                        (f"second factor positive at lambda_1 = {lam1} and increasing",),
                        ("conformal-branch", "lambda1-data"))
            if qv == 0:
                return ("Indeterminate", lam1,
                        (f"second factor vanishes at lambda_1 = {lam1}: "
                         "neutral conformal direction",),
                        ("conformal-branch", "lambda1-data"))
            return _fails(model, t, f"second factor negative at lambda_1 = {lam1}",
                          witness=lam1, allow_scan=False)
        # t <= tau2(n)
        return _fails(model, t, f"tau at or below {_ratio_text(*t2)}: negative leading "
                                "coefficient, the conformal Hessian is negative on all "
                                "sufficiently large eigenvalues")

    # R == 0
    if _vs(p, q, *t2) > 0:
        return ("StrictlyStable", None,
                ("scalar-flat: polynomial reduces to a positive multiple "
                 "of lambda^2 for tau above -n/(4(n-1))",),
                ("conformal-branch",))
    if _vs(p, q, *t2) == 0:
        return ("Indeterminate", None,
                ("scalar-flat at tau = -n/(4(n-1)): the conformal "
                 "polynomial vanishes identically",),
                ("conformal-branch",))
    return _fails(model, t, "scalar-flat: negative multiple of lambda^2 below -n/(4(n-1))")


# ---------------------------------------------------------------------------
# intervals


def stability_interval(model: ModelSpace) -> TauInterval:
    """Theorem-backed open tau range where both gap checks pass.

    Endpoints carry provenance by content; bound-only data (hyperbolic)
    downgrades the inside verdict to StableBoundOnly; the flat torus
    gets a conformal-only interval because its parallel TT kernel makes
    stability non-strict at every tau.
    """
    n = model.n
    v = model.variant
    if v in ("sphere", "quotient"):
        lo = Fraction(-3, 8) if n == 3 else tau1(n)
        lo_prov = ("conformal branch, dimension three" if n == 3 else
                   "conformal threshold (4-3n)/(2n(n-1))")
        hi = Fraction(2, n * (n - 1))
        notes = ()
        if v == "quotient":
            notes = ("constant-curvature quotient: conformal kernel "
                     "directions are not essential and are skipped",)
        return TauInterval(
            lo, hi, lo_provenance=lo_prov,
            hi_provenance="TT gap closes at the first Lichnerowicz "
                          "eigenvalue 4n",
            notes=notes)
    if v == "cp":
        m = model.m
        return TauInterval(
            tau1(n), Fraction(1, m * (m + 1)),
            lo_provenance="conformal threshold (4-3n)/(2n(n-1))",
            hi_provenance="TT gap closes at the first eigenvalue 8(m+2)")
    if v == "product":
        m = model.m
        notes = ()
        if m >= 3:
            notes = ("optimality: unknown (the upper endpoint comes from the "
                     "tail bound 2m, not from a known eigenvalue)",)
        return TauInterval(
            tau1(n), Fraction(2 - m, 2 * m * (m - 1)),
            lo_provenance="conformal threshold (4-3n)/(2n(n-1))",
            hi_provenance="TT forbidden interval reaches the spectral "
                          "tail bound 2m",
            notes=notes)
    if v == "hyperbolic":
        if n in (3, 4):
            lo_prov = ("conformal threshold -1/3, dimension three" if n == 3
                       else "conformal threshold -1/3, coinciding with the "
                            "TT bound endpoint")
            return TauInterval(
                Fraction(-1, 3), None,
                lo_provenance=lo_prov,
                hi_provenance="unbounded: forbidden TT interval stays below "
                              "the lower bound for all larger tau",
                verdict_inside="StableBoundOnly",
                notes=("TT spectrum known only through the lower bound -n",))
        return TauInterval(
            tau1(n), Fraction(-1, n), hi_open=False,
            lo_provenance="TT forbidden interval reaches the lower bound -n",
            hi_provenance="conformal branch closes at -1/n; beyond it the "
                          "first Laplace eigenvalue would be needed",
            verdict_inside="StableBoundOnly",
            notes=("TT spectrum known only through the lower bound -n",))
    if v == "torus":
        return TauInterval(
            tau2(n), None,
            lo_provenance="scalar-flat conformal threshold -n/(4(n-1))",
            hi_provenance="unbounded",
            verdict_inside="Indeterminate",
            notes=("conformal direction only: parallel trace-free tensors "
                   "are a neutral TT kernel at every tau, so stability is "
                   "never strict",))
    raise CatalogError(f"no interval logic for variant {v}")


# ---------------------------------------------------------------------------
# rigidity


class ExceptionalTau(NamedTuple):
    tau: Fraction
    mu: Fraction
    kernel_note: str = ""

    def to_json(self) -> dict:
        return {"tau": format_ratio(self.tau), "mu": format_ratio(self.mu),
                "kernel": self.kernel_note}


class RigidityReport(NamedTuple):
    model_key: str
    exceptional: tuple[ExceptionalTau, ...]
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "model": self.model_key,
            "exceptional_taus": [e.to_json() for e in self.exceptional],
            "notes": list(self.notes),
        }


_KERNEL_NOTES = {
    ("product", Fraction(0)): "g1 - g2 (integrable: the Kaehler path of "
                              "product metrics)",
    ("product", Fraction(4)): "nine-dimensional kernel spanned by products "
                              "alpha1 . alpha2 of Killing one-forms",
}


def rigidity_exceptional_taus(model: ModelSpace, count: int = 8,
                              mu_list=None) -> RigidityReport:
    """Tau values where the gauged linearization develops TT kernel.

    The TT polynomial vanishes at eigenvalue mu exactly when
    (4/n + 2 tau)R = mu, i.e. tau(mu) = (mu n - 4R)/(2nR). The list is
    built from the catalog's known eigenvalues plus any user-supplied
    ones; supplying more eigenvalues can only extend it. Bound-only
    models (hyperbolic) have no catalog eigenvalues and require mu_list,
    whose entries must respect the bound.
    """
    if count < 1:
        raise ValueError("count must be positive")
    tt, R, n = model.tt, model.scal, model.n
    if R == 0:
        raise InsufficientSpectralData(
            f"{model.key}: scalar-flat models have tau-independent kernel "
            "(parallel TT tensors), no exceptional sequence")
    mus: list[Fraction] = [e.mu for e in (tt.known if tt else ())]
    notes: list[str] = []
    if tt is not None and tt.is_bound and not mus and not mu_list:
        raise InsufficientSpectralData(
            f"{model.key}: TT spectrum known only as a bound; supply "
            "eigenvalues via mu_list")
    if mu_list:
        if tt is not None and tt.is_bound and min(mu_list) < tt.tail_bound:
            raise ValueError(f"{model.key}: mu = {format_ratio(min(mu_list))} lies below "
                             f"the TT spectral lower bound {format_ratio(tt.tail_bound)}")
        mus.extend(Fraction(m) for m in mu_list)
        notes.append("includes user-supplied eigenvalues")
    first_factor_root = 2 * R / n
    out = []
    # tau(mu) has slope 1/(2R) != 0, so distinct mu give distinct tau
    for mu in sorted(set(mus)):
        t = Fraction(mu * n - 4 * R, 2 * n * R)
        note = _KERNEL_NOTES.get((model.variant, mu), "")
        if mu == first_factor_root:
            note = (note + "; " if note else "") + (
                "eigenvalue 2R/n: kernel direction at every tau")
        out.append(ExceptionalTau(t, mu, note))
        if len(out) >= count:
            break
    if model.has_function_spectrum:
        notes.append("conformal kernel: the polynomial roots lambda = R/(n-1) "
                     "and the second-factor root are checked against the "
                     "function spectrum per branch; catalog models have no "
                     "essential conformal kernel inside the stability range")
    if model.variant == "hyperbolic" and n >= 5:
        notes.append(f"conformal branch decided only for tau in "
                     f"({tau2(n)}, -1/{n}); rigidity queries outside it are "
                     "Indeterminate")
    out.sort(key=lambda e: e.tau)
    return RigidityReport(model.key, tuple(out), tuple(notes))


# ---------------------------------------------------------------------------
# Bach


class BachVerdict(NamedTuple):
    model_key: str
    rigid: bool | None
    strict_weyl_min: bool | None
    targets: tuple[Fraction, Fraction]
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "model": self.model_key,
            "bach_rigid": self.rigid,
            "strict_weyl_minimizer": self.strict_weyl_min,
            "targets": [format_ratio(t) for t in self.targets],
            "notes": list(self.notes),
        }


def _interval_empty(tt, lo: int, hi: int, den: int) -> bool | None:
    """Is spec_TT disjoint from [lo/den, hi/den]? True/False when certain, else None."""
    eig, below_tail = _tt_meets(tt, lo, hi, den)
    if eig is not None:
        return None if tt.is_subset else False
    return True if below_tail else None


def bach_verdict(model: ModelSpace) -> BachVerdict:
    """Dimension-four rigidity and strict minimality for the Weyl functional.

    The gauged linearization at a Bach-flat Einstein metric is invertible
    on TT tensors exactly when R/3 and R/2 avoid spec_TT(-Delta_L);
    strict minimization additionally needs the whole closed interval
    between them to be spectrum-free.
    """
    if model.n != 4:
        raise ValueError("Bach verdicts are dimension-four only")
    if model.tt is None:
        raise InsufficientSpectralData(f"{model.key}: no TT data")
    R = model.scal
    t1, t2_ = R / 3, R / 2
    # R/3 and R/2 over the common denominator 6s; a value lies in the
    # spectrum exactly when [value, value] is not empty
    a, b, den = 2 * R.numerator, 3 * R.numerator, 6 * R.denominator
    lo, hi = (a, b) if a <= b else (b, a)
    e1 = _interval_empty(model.tt, a, a, den)
    e2 = _interval_empty(model.tt, b, b, den)
    rigid = False if e1 is False or e2 is False else e1 and e2  # True, or None if unsure
    empty = _interval_empty(model.tt, lo, hi, den)
    notes = [f"checked values R/3 = {t1} and R/2 = {t2_} against the TT data"]
    if rigid is None or empty is None:
        notes.append("spectral data insufficient to decide (bound or subset "
                     "only)")
    return BachVerdict(model.key, rigid, empty, (t1, t2_), tuple(notes))


# ---------------------------------------------------------------------------
# volume comparison


class BishopDeduction(NamedTuple):
    conclusion: str  # VolumeAtLeast | Inconclusive | EqualityRigidity
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {"conclusion": self.conclusion, "notes": list(self.notes)}


# display: normal floats lie in [_TINY, _HUGE]; beyond, 12 digits at any exponent
_TINY, _HUGE = 2.0 ** -1022, 1.7976931348623157e308
_G12, _WIDE = (Context(prec=p, Emax=MAX_EMAX, Emin=MIN_EMIN) for p in (12, 30))


def _g12(x: Fraction | Decimal) -> str:
    """float's .12g of x where x is 0 or a normal float, the same digits beyond."""
    if x == 0 or _TINY <= abs(x) <= _HUGE:
        return f"{float(x):.12g}"
    return f"{_G12.normalize(_G12.divide(*x.as_integer_ratio())):e}"


def _bound_text(c: int, vol: Fraction, n: int) -> str:
    """c Vol^(4/n) as its float evaluation prints where Vol and the bound are
    normal floats, from a Decimal evaluation beyond."""
    d = _WIDE.multiply(c, _WIDE.power(_WIDE.divide(*vol.as_integer_ratio()), _WIDE.divide(4, n)))
    f = c * float(vol) ** (4 / n) if _TINY <= min(vol, d) and max(vol, d) <= _HUGE else 0
    return f"{f:.12g}" if _TINY <= f <= _HUGE else _g12(d)


def reverse_bishop(vol_g: Fraction | float, n: int, vol_gt: Fraction | float, ric_upper_ok: bool,
                   ric_lower_ok: bool, ftilde0_gt: Fraction | float) -> BishopDeduction:
    """Volume comparison near a stable positive Einstein metric.

    With both pointwise Ricci-comparison flags asserted by the caller,
    the chain F_0-normalized(g~) >= n(n-1)^2 Vol(g)^(4/n) (stability
    side) and <= n(n-1)^2 Vol(g~)^(4/n) (Ricci bound side) forces
    Vol(g~) >= Vol(g); exactly equal volumes are flagged for isometry
    rigidity. Flags are the caller's responsibility: this function only
    performs the deduction, exactly over Q (floats convert exactly and
    only print the notes). Volumes must be finite and positive and the
    functional value finite; anything else raises ValueError.
    """
    for name, x, low in (("vol_g", vol_g, 0), ("vol_gt", vol_gt, 0),
                         ("ftilde0_gt", ftilde0_gt, -math.inf)):
        if not low < x < math.inf:
            raise ValueError(f"{name} must be {'finite' if low else 'finite and positive'}, got {x}")
    if not (ric_upper_ok and ric_lower_ok):
        return BishopDeduction("Inconclusive", (
            "Ricci comparison flags not asserted; the chain does not apply",))
    vol_g, vol_gt, f = Fraction(vol_g), Fraction(vol_gt), Fraction(ftilde0_gt)
    c = n * (n - 1) ** 2
    # for a, V > 0, a <= c V^(4/n) exactly when (a/c)^n <= V^4: no tolerance
    # and no float range; a value f <= 0 lies below every bound
    scaled = (f / c) ** n
    if f <= 0 or scaled < vol_g ** 4:
        return BishopDeduction("Inconclusive", (
            f"normalized functional value {_g12(f)} below the stability bound "
            f"{_bound_text(c, vol_g, n)}; the comparison metric is outside the "
            "stable neighbourhood",))
    if scaled > vol_gt ** 4:
        return BishopDeduction("Inconclusive", (
            f"normalized functional value {_g12(f)} exceeds the Ricci-bound ceiling "
            f"{_bound_text(c, vol_gt, n)}; a comparison hypothesis fails",))
    if vol_gt == vol_g:  # then f equals both bounds
        return BishopDeduction("EqualityRigidity", (
            "volumes and functional values agree: equality forces isometry",))
    return BishopDeduction("VolumeAtLeast", (  # the bounds grow with Vol: Vol(g~) > Vol(g)
        f"Vol(g~) = {_g12(vol_gt)} >= Vol(g) = {_g12(vol_g)} by the sandwich on "
        "the normalized functional",))


# ---------------------------------------------------------------------------
# combined verdict + JSON


def combined_verdict(model: ModelSpace, tau,
                     lambda1_override: Fraction | None = None) -> StabilityVerdict:
    """Intersection of the TT and conformal gap checks at one tau.

    An impossible lambda1_override is refused even where the TT check
    alone decides the verdict.
    """
    if lambda1_override is not None and not lambda1_override > 0:
        raise ValueError("lambda1 must be a positive eigenvalue, got "
                         f"{format_ratio(lambda1_override)}")
    t = _exact_tau(tau)
    tt_v = _tt_gap(model, t)
    if tt_v[0] == "FailsTT":
        return StabilityVerdict(*tt_v)
    cf_v = _conformal_gap(model, t, lambda1_override)
    if cf_v[0] == "FailsConformal":
        return StabilityVerdict(*cf_v)
    notes, provenance = tt_v[2] + cf_v[2], tt_v[3] + cf_v[3]
    for variant, witness, _, _ in (tt_v, cf_v):
        if variant == "Indeterminate":
            return StabilityVerdict("Indeterminate", witness, notes, provenance)
    variant = "StableBoundOnly" if "StableBoundOnly" in (tt_v[0], cf_v[0]) else "StrictlyStable"
    return StabilityVerdict(variant, None, notes, provenance)


def verdict_to_json(model: ModelSpace, tau, verdict: StabilityVerdict) -> dict:
    t = _exact_tau(tau)
    return {"model": model.key, "n": model.n, "R": format_ratio(model.scal),
            "tau": {"num": t.numerator, "den": t.denominator}, **verdict.to_json()}


def interval_to_json(model: ModelSpace, interval: TauInterval) -> dict:
    return {"model": model.key, "n": model.n, **interval.to_json()}
