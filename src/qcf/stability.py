"""Stability intervals, rigidity thresholds, Bach verdicts, volume comparison.

Decision procedures over the catalog's exact spectral data. The two gap
checks certify positivity of the second variation in the
transverse-traceless and conformal directions; stability_interval
assembles the theorem-backed tau ranges with per-endpoint provenance;
rigidity_exceptional_taus lists the tau values where the TT kernel
jumps; bach_verdict runs the dimension-four Weyl-functional checks; and
reverse_bishop performs the volume-comparison deduction near a stable
positive Einstein metric.

Everything here is exact rational arithmetic; the procedures never
extrapolate beyond the branch of the statement that covers the input,
returning Indeterminate instead.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple

from qcf.catalog import CatalogError, ModelSpace, function_spectrum
from qcf.rational import conformal_polynomial, format_ratio, q_factor, tau1, tau2


class InsufficientSpectralData(ValueError):
    """A branch needs spectral input the catalog does not have."""


VERDICT_VARIANTS = ("StrictlyStable", "StableBoundOnly", "Indeterminate",
                    "FailsTT", "FailsConformal")


# A record that checks its fields is a NamedTuple of the fields and methods
# with a thin subclass that checks in __new__ (a NamedTuple class body cannot
# define __new__); _make is overridden so that _replace checks as well.
class _VerdictFields(NamedTuple):
    variant: str
    witness: Fraction | None = None
    notes: tuple[str, ...] = ()
    provenance: tuple[str, ...] = ()

    @property
    def passes(self) -> bool:
        return self.variant in ("StrictlyStable", "StableBoundOnly")

    def to_json(self) -> dict:
        return {
            "verdict": self.variant,
            "witness": format_ratio(self.witness) if self.witness is not None else None,
            "notes": list(self.notes),
            "provenance": list(self.provenance),
        }


class StabilityVerdict(_VerdictFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.variant not in VERDICT_VARIANTS:
            raise ValueError(f"unknown verdict variant {self.variant}")
        if self.variant == "FailsTT" and self.witness is None:
            raise ValueError("FailsTT requires an eigenvalue witness")
        return self

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

    def contains(self, tau) -> bool:
        t = Fraction(tau) if isinstance(tau, int) else tau
        if self.lo is not None:
            if t < self.lo or (self.lo_open and t == self.lo):
                return False
        if self.hi is not None:
            if t > self.hi or (self.hi_open and t == self.hi):
                return False
        return True

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

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.lo is not None and self.hi is not None and not self.lo < self.hi:
            raise ValueError(f"empty interval: lo {self.lo} >= hi {self.hi}")
        return self

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


def _known_in(tt, lo: Fraction, hi: Fraction):
    """The first known TT eigenvalue in [lo, hi], or None."""
    return next((eig for eig in tt.known if lo <= eig.mu <= hi), None)


def tt_gap_check(model: ModelSpace, tau) -> StabilityVerdict:
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
    t = _exact_tau(tau)
    R = model.scal
    n = model.n
    a = 2 * R / n
    b = (Fraction(4, n) + 2 * t) * R
    lo, hi = (a, b) if a <= b else (b, a)
    eig = _known_in(tt, lo, hi)
    if eig is not None:
        note = f"eigenvalue {eig.mu} in the forbidden interval [{lo}, {hi}]"
        if eig.witness:
            note += f"; witness: {eig.witness}"
        if tt.is_subset:
            return StabilityVerdict(
                "Indeterminate", witness=eig.mu,
                notes=(note, "spectrum is a quotient subset: the witness "
                             "may not descend"),
                provenance=("tt-gap",))
        return StabilityVerdict("FailsTT", witness=eig.mu, notes=(note,),
                                provenance=("tt-gap",))
    if hi < tt.tail_bound:
        prov = "tt-gap"
        if tt.is_bound:
            return StabilityVerdict(
                "StableBoundOnly",
                notes=(f"forbidden interval [{lo}, {hi}] lies below the "
                       f"spectral lower bound {tt.tail_bound}",),
                provenance=(prov, "tt-lower-bound"))
        return StabilityVerdict(
            "StrictlyStable",
            notes=(f"forbidden interval [{lo}, {hi}] misses the known "
                   f"spectrum and lies below the tail bound {tt.tail_bound}",),
            provenance=(prov,))
    return StabilityVerdict(
        "Indeterminate",
        notes=(f"forbidden interval [{lo}, {hi}] reaches the region "
               f"mu >= {tt.tail_bound} where the spectrum is not fully known",),
        provenance=("tt-gap",))


def _conformal_witness(model: ModelSpace, t: Fraction, poly) -> Fraction | None:
    """First spectrum eigenvalue past the gauge modes with negative polynomial."""
    try:
        spec = function_spectrum(model, 60)
    except CatalogError:
        return None
    lich = model.scal / (model.n - 1)
    for lam in spec:
        if lam == 0 or lam == lich:
            continue  # scaling / conformal-diffeomorphism gauge directions
        if poly(lam) < 0:
            return lam
    return None


def conformal_gap_check(model: ModelSpace, tau,
                        lambda1_override: Fraction | None = None) -> StabilityVerdict:
    """Positivity of the conformal Jacobi polynomial over function eigenvalues.

    Branches follow the sign of R and the dimension; for R > 0 only the
    Lichnerowicz lower bound lambda_1 >= R/(n-1) is used, for R < 0 in
    n >= 5 the range tau > -1/n needs the model's first nonzero Laplace
    eigenvalue (pass it as lambda1_override for bound-only models). The
    procedure never extrapolates outside a branch; it returns
    Indeterminate there. A given lambda1_override must be positive.
    """
    _check_lambda1(lambda1_override)
    t = _exact_tau(tau)
    n = model.n
    R = model.scal
    poly = conformal_polynomial(n, R, t)
    t2 = tau2(n)

    def fails(note: str, witness=None, allow_scan=True) -> StabilityVerdict:
        w = witness
        if w is None and allow_scan:
            w = _conformal_witness(model, t, poly)
        notes = [note]
        if w is None and allow_scan:
            notes.append("no concrete eigenvalue witness available from the catalog")
        elif w is not None and model.spectra_are_subsets:
            notes.append("witness eigenvalue from the covering spectrum; the "
                         "eigenfunction may not descend to the quotient")
        return StabilityVerdict("FailsConformal", witness=w, notes=tuple(notes),
                                provenance=("conformal-branch",))

    if R > 0:
        if n == 3:
            if t > Fraction(-3, 8):
                return StabilityVerdict(
                    "StrictlyStable",
                    notes=("dimension three, positive scalar curvature: "
                           "tau above -3/8",),
                    provenance=("conformal-branch",))
            if t < Fraction(-5, 12):
                return fails("dimension three: tau below -5/12 makes the "
                             "conformal Hessian negative past the gauge modes")
            return StabilityVerdict(
                "Indeterminate",
                notes=("dimension three: tau in [-5/12, -3/8], where neither "
                       "branch applies",),
                provenance=("conformal-branch",))
        if n == 4:
            if t > Fraction(-1, 3):
                return StabilityVerdict(
                    "StrictlyStable",
                    notes=("dimension four: tau above -1/3",),
                    provenance=("conformal-branch",))
            if t == Fraction(-1, 3):
                return StabilityVerdict(
                    "Indeterminate",
                    notes=("tau = -1/3 in dimension four: the functional is "
                           "conformally invariant, the conformal Hessian "
                           "vanishes identically",),
                    provenance=("conformal-invariance",))
            return fails("dimension four: tau below -1/3 flips the conformal "
                         "Hessian negative")
        # n >= 5
        if t > tau1(n):
            return StabilityVerdict(
                "StrictlyStable",
                notes=(f"tau above the threshold {tau1(n)} = (4-3n)/(2n(n-1))",),
                provenance=("conformal-branch",))
        if t <= t2:
            return fails(f"tau at or below -n/(4(n-1)) = {t2}: negative leading "
                         "coefficient, the conformal Hessian is negative on "
                         "all sufficiently large eigenvalues")
        return StabilityVerdict(
            "Indeterminate",
            notes=(f"tau in ({t2}, {tau1(n)}]: between the negative and "
                   "positive branches, where the statement is silent",),
            provenance=("conformal-branch",))

    if R < 0:
        if n == 3:
            if t > Fraction(-1, 3):
                return StabilityVerdict(
                    "StrictlyStable",
                    notes=("dimension three, negative scalar curvature: "
                           "tau above -1/3",),
                    provenance=("conformal-branch",))
            if t < Fraction(-3, 8):
                return fails("dimension three, negative scalar curvature: "
                             "tau below -3/8")
            return StabilityVerdict(
                "Indeterminate",
                notes=("dimension three: tau in [-3/8, -1/3]",),
                provenance=("conformal-branch",))
        if n == 4:
            if t > Fraction(-1, 3):
                return StabilityVerdict(
                    "StrictlyStable",
                    notes=("dimension four: tau above -1/3",),
                    provenance=("conformal-branch",))
            if t == Fraction(-1, 3):
                return StabilityVerdict(
                    "Indeterminate",
                    notes=("tau = -1/3 in dimension four: conformal invariance",),
                    provenance=("conformal-invariance",))
            return fails("dimension four: tau below -1/3")
        # n >= 5, R < 0
        if t2 < t <= Fraction(-1, n):
            return StabilityVerdict(
                "StrictlyStable",
                notes=(f"tau in ({t2}, -1/{n}]: second factor positive on all "
                       "positive eigenvalues regardless of lambda_1",),
                provenance=("conformal-branch",))
        if t > Fraction(-1, n):
            lam1 = lambda1_override if lambda1_override is not None else model.lambda1
            if lam1 is None:
                raise InsufficientSpectralData(
                    f"{model.key}: tau > -1/n with negative scalar curvature "
                    "needs the first nonzero Laplace eigenvalue (the branch "
                    "requires lambda_1 > (n-4)(-R)/(2(n-1)); pass "
                    "lambda1_override)")
            qv = q_factor(n, R, t, lam1)
            if qv > 0:
                return StabilityVerdict(
                    "StrictlyStable",
                    notes=(f"second factor positive at lambda_1 = {lam1} and "
                           "increasing",),
                    provenance=("conformal-branch", "lambda1-data"))
            if qv == 0:
                return StabilityVerdict(
                    "Indeterminate", witness=lam1,
                    notes=(f"second factor vanishes at lambda_1 = {lam1}: "
                           "neutral conformal direction",),
                    provenance=("conformal-branch", "lambda1-data"))
            return fails(f"second factor negative at lambda_1 = {lam1}",
                         witness=lam1, allow_scan=False)
        # t <= tau2(n)
        return fails(f"tau at or below {t2}: negative leading coefficient, "
                     "the conformal Hessian is negative on all sufficiently "
                     "large eigenvalues")

    # R == 0
    if t > t2:
        return StabilityVerdict(
            "StrictlyStable",
            notes=("scalar-flat: polynomial reduces to a positive multiple "
                   "of lambda^2 for tau above -n/(4(n-1))",),
            provenance=("conformal-branch",))
    if t == t2:
        return StabilityVerdict(
            "Indeterminate",
            notes=("scalar-flat at tau = -n/(4(n-1)): the conformal "
                   "polynomial vanishes identically",),
            provenance=("conformal-branch",))
    return fails("scalar-flat: negative multiple of lambda^2 below "
                 "-n/(4(n-1))")


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
    tt = model.tt
    R = model.scal
    n = model.n
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
    seen = set()
    for mu in sorted(set(mus)):
        t = Fraction(mu * n - 4 * R, 2 * n * R)
        if t in seen:
            continue
        seen.add(t)
        note = _KERNEL_NOTES.get((model.variant, mu), "")
        if mu == first_factor_root:
            note = (note + "; " if note else "") + (
                "eigenvalue 2R/n: kernel direction at every tau")
        out.append(ExceptionalTau(t, mu, note))
        if len(out) >= count:
            break
    if model.variant in ("sphere", "quotient", "cp", "product", "torus"):
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


def _interval_empty(tt, lo: Fraction, hi: Fraction) -> bool | None:
    """Is spec_TT disjoint from [lo, hi]? True/False when certain, else None."""
    if _known_in(tt, lo, hi) is not None:
        return None if tt.is_subset else False
    if hi < tt.tail_bound:
        return True
    return None


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
    lo, hi = (t1, t2_) if t1 <= t2_ else (t2_, t1)
    # a value lies in the spectrum exactly when [value, value] is not empty
    e1 = _interval_empty(model.tt, t1, t1)
    e2 = _interval_empty(model.tt, t2_, t2_)
    if e1 is False or e2 is False:
        rigid = False
    elif e1 and e2:
        rigid = True
    else:
        rigid = None
    empty = _interval_empty(model.tt, lo, hi)
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


def reverse_bishop(vol_g: float, n: int, vol_gt: float,
                   ric_upper_ok: bool, ric_lower_ok: bool,
                   ftilde0_gt: float, rel_tol: float = 1e-9) -> BishopDeduction:
    """Volume comparison near a stable positive Einstein metric.

    With both pointwise Ricci-comparison flags asserted by the caller,
    the chain F_0-normalized(g~) >= n(n-1)^2 Vol(g)^(4/n) (stability
    side) and <= n(n-1)^2 Vol(g~)^(4/n) (Ricci bound side) forces
    Vol(g~) >= Vol(g), with the equality case flagged for isometry
    rigidity. Flags are the caller's responsibility: this function only
    performs the deduction. Volumes must be finite and positive and the
    functional value finite; anything else raises ValueError.
    The tolerance is relative, so the unit of volume does not change the
    conclusion; bounds outside the normal float range decide nothing.
    """
    for name, vol in (("vol_g", vol_g), ("vol_gt", vol_gt)):
        if not (math.isfinite(vol) and vol > 0):
            raise ValueError(f"{name} must be finite and positive, got {vol!r}")
    if not math.isfinite(ftilde0_gt):
        raise ValueError(f"ftilde0_gt must be finite, got {ftilde0_gt!r}")
    if not (ric_upper_ok and ric_lower_ok):
        return BishopDeduction(
            "Inconclusive",
            ("Ricci comparison flags not asserted; the chain does not apply",))
    c = n * (n - 1) ** 2
    lower = c * vol_g ** (4.0 / n)
    upper = c * vol_gt ** (4.0 / n)
    if not sys.float_info.min <= min(lower, upper) <= max(lower, upper) < math.inf:
        return BishopDeduction("Inconclusive", ("the bounds n(n-1)^2 Vol^(4/n) leave the "
                                                "normal float range; rescale the volumes",))
    tol = rel_tol * max(lower, upper)
    if ftilde0_gt < lower - tol:
        return BishopDeduction(
            "Inconclusive",
            (f"normalized functional value {ftilde0_gt:.12g} below the "
             f"stability bound {lower:.12g}; the comparison metric is "
             "outside the stable neighbourhood",))
    if ftilde0_gt > upper + tol:
        return BishopDeduction(
            "Inconclusive",
            (f"normalized functional value {ftilde0_gt:.12g} exceeds the "
             f"Ricci-bound ceiling {upper:.12g}; a comparison hypothesis "
             "fails",))
    if abs(vol_gt - vol_g) <= rel_tol * max(vol_g, vol_gt) and \
            abs(ftilde0_gt - lower) <= tol:
        return BishopDeduction(
            "EqualityRigidity",
            ("volumes and functional values agree: equality forces isometry",))
    if vol_gt < vol_g:  # the sandwich holds, but only within tol
        return BishopDeduction("Inconclusive", (f"Vol(g~) = {vol_gt:.12g} < Vol(g) = {vol_g:.12g}: "
                                                "the sandwich holds only within tolerance",))
    return BishopDeduction(
        "VolumeAtLeast",
        (f"Vol(g~) = {vol_gt:.12g} >= Vol(g) = {vol_g:.12g} by the "
         "sandwich on the normalized functional",))


# ---------------------------------------------------------------------------
# combined verdict + JSON


def _check_lambda1(lam) -> None:
    if lam is not None and not lam > 0:
        raise ValueError(f"lambda1 must be a positive eigenvalue, got {format_ratio(lam)}")


def combined_verdict(model: ModelSpace, tau,
                     lambda1_override: Fraction | None = None) -> StabilityVerdict:
    """Intersection of the TT and conformal gap checks at one tau.

    An impossible lambda1_override is refused even where the TT check
    alone decides the verdict.
    """
    _check_lambda1(lambda1_override)
    tt_v = tt_gap_check(model, tau)
    if tt_v.variant == "FailsTT":
        return tt_v
    cf_v = conformal_gap_check(model, tau, lambda1_override)
    if cf_v.variant == "FailsConformal":
        return cf_v
    for v in (tt_v, cf_v):
        if v.variant == "Indeterminate":
            return StabilityVerdict("Indeterminate", witness=v.witness,
                                    notes=tt_v.notes + cf_v.notes,
                                    provenance=tt_v.provenance + cf_v.provenance)
    variant = ("StableBoundOnly"
               if "StableBoundOnly" in (tt_v.variant, cf_v.variant)
               else "StrictlyStable")
    return StabilityVerdict(variant, notes=tt_v.notes + cf_v.notes,
                            provenance=tt_v.provenance + cf_v.provenance)


def verdict_to_json(model: ModelSpace, tau, verdict: StabilityVerdict) -> dict:
    t = _exact_tau(tau)
    out = {
        "model": model.key,
        "n": model.n,
        "R": format_ratio(model.scal),
        "tau": {"num": t.numerator, "den": t.denominator},
    }
    out.update(verdict.to_json())
    return out


def interval_to_json(model: ModelSpace, interval: TauInterval) -> dict:
    out = {"model": model.key, "n": model.n}
    out.update(interval.to_json())
    return out
