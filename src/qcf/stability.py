"""Stability intervals, rigidity thresholds, Bach verdicts, volume comparison.

Decision procedures over the catalog's exact spectral data. combined_verdict
intersects the gap checks _tt_gap and _conformal_gap, which certify positivity
of the second variation in the transverse-traceless and conformal directions
(the conformal one as a single ladder of thresholds, a row per sign of R and
dimension, with lambda_1 deciding where R < 0, n >= 5 and tau > -1/n);
stability_interval reads each tau range's ends from the same rules, so extension
data moves them; rigidity_exceptional_taus lists the tau values where the TT
kernel jumps; bach_verdict runs the dimension-four Weyl-functional checks; and
reverse_bishop performs the volume-comparison deduction near a stable positive
Einstein metric.

Every decision here is exact rational arithmetic (floats only print the
volume comparison's notes); the procedures never extrapolate beyond the
branch of the statement that covers the input, returning Indeterminate instead.
They return records (NamedTuples) and render nothing: `cli` builds each
report's JSON and text from their fields.
"""

from __future__ import annotations

import functools
import math
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from typing import NamedTuple

from qcf.catalog import ModelSpace, function_spectrum
from qcf.rational import _second_numerators, format_ratio, tau1, tau2


class InsufficientSpectralData(ValueError):
    """A branch needs spectral input the catalog does not have."""


VERDICT_VARIANTS = ("StrictlyStable", "StableBoundOnly", "Indeterminate",
                    "FailsTT", "FailsConformal")


# A record that checks its fields is a NamedTuple of the fields with a thin
# subclass whose __new__ takes the fields by name, with their defaults, checks
# them and builds the tuple (a NamedTuple class body cannot define __new__);
# _make is overridden so that _replace checks as well.
class _VerdictFields(NamedTuple):
    variant: str
    witness: Fraction | None = None
    notes: tuple[str, ...] = ()
    provenance: tuple[str, ...] = ()


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
    """tau as a Fraction; a float converts to its exact value."""
    if isinstance(tau, Fraction):
        return tau
    if not -math.inf < tau < math.inf:
        raise ValueError(f"tau must be finite, got {tau}")
    return Fraction(tau)


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
    (p, q), (r, s), n = t.as_integer_ratio(), model.scal.as_integer_ratio(), model.n
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
        if model.family.is_subset:
            return ("Indeterminate", eig.mu,
                    (note, "spectrum is a quotient subset: the witness may not descend"),
                    ("tt-gap",))
        return "FailsTT", eig.mu, (note,), ("tt-gap",)
    if below_tail:
        if model.family.is_bound:
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
    if model.family.spectrum is None:
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


def _fails(model: ModelSpace, t: Fraction, note: str, witness=None) -> tuple:
    """A FailsConformal verdict's fields; without a given witness, the scan
    supplies one."""
    w = _conformal_witness(model, t) if witness is None else witness
    notes = (note,)
    if w is None:
        notes += ("no concrete eigenvalue witness available from the catalog",)
    elif model.family.is_subset:
        notes += ("witness eigenvalue from the covering spectrum; the "
                  "eigenfunction may not descend to the quotient",)
    return "FailsConformal", w, notes, ("conformal-branch",)


# The conformal decision, one row per sign of R and dimension (3, 4, and 5 for
# n >= 5): tau above the first threshold is StrictlyStable, below the second (or
# at it, where the flag holds) FailsConformal, and Indeterminate between; a row
# holds the three outcomes' notes, the first threshold's text as an interval end
# and the Indeterminate provenance. A threshold is a (num, den) pair, or "t1" or
# "t2" for tau1(n) or tau2(n); braces in a note fill in n, t1 and t2. For R < 0,
# n >= 5 the row covers tau <= -1/n only, with no band between its thresholds.
_NEGATIVE_TAIL = ("negative leading coefficient, the conformal Hessian is negative "
                  "on all sufficiently large eigenvalues")
_TAU1_END = "conformal threshold (4-3n)/(2n(n-1))"
_LADDER = {
    (1, 3): ((-3, 8), (-5, 12), False,
             "dimension three, positive scalar curvature: tau above -3/8",
             "dimension three: tau below -5/12 makes the conformal Hessian negative "
             "past the gauge modes",
             "dimension three: tau in [-5/12, -3/8], where neither branch applies",
             "conformal branch, dimension three", "conformal-branch"),
    (1, 4): ((-1, 3), (-1, 3), False, "dimension four: tau above -1/3",
             "dimension four: tau below -1/3 flips the conformal Hessian negative",
             "tau = -1/3 in dimension four: the functional is conformally invariant, "
             "the conformal Hessian vanishes identically",
             _TAU1_END, "conformal-invariance"),
    (1, 5): ("t1", "t2", True, "tau above the threshold {t1} = (4-3n)/(2n(n-1))",
             "tau at or below -n/(4(n-1)) = {t2}: " + _NEGATIVE_TAIL,
             "tau in ({t2}, {t1}]: between the negative and positive branches, "
             "where the statement is silent",
             _TAU1_END, "conformal-branch"),
    (-1, 3): ((-1, 3), (-3, 8), False,
              "dimension three, negative scalar curvature: tau above -1/3",
              "dimension three, negative scalar curvature: tau below -3/8",
              "dimension three: tau in [-3/8, -1/3]",
              "conformal threshold -1/3, dimension three", "conformal-branch"),
    (-1, 4): ((-1, 3), (-1, 3), False, "dimension four: tau above -1/3",
              "dimension four: tau below -1/3",
              "tau = -1/3 in dimension four: conformal invariance",
              "conformal threshold -1/3, coinciding with the TT bound endpoint",
              "conformal-invariance"),
    (-1, 5): ("t2", "t2", True,
              "tau in ({t2}, -1/{n}]: second factor positive on all positive "
              "eigenvalues regardless of lambda_1",
              "tau at or below {t2}: " + _NEGATIVE_TAIL, None,
              "conformal threshold -n/(4(n-1))", None),
    **dict.fromkeys(((0, 3), (0, 4), (0, 5)), (
        "t2", "t2", False,
        "scalar-flat: polynomial reduces to a positive multiple of lambda^2 for tau "
        "above -n/(4(n-1))",
        "scalar-flat: negative multiple of lambda^2 below -n/(4(n-1))",
        "scalar-flat at tau = -n/(4(n-1)): the conformal polynomial vanishes identically",
        "scalar-flat conformal threshold -n/(4(n-1))", "conformal-branch")),
}


@functools.cache
def _ladder_row(sign: int, n: int) -> tuple:
    """The row of _LADDER for the sign of R and n, thresholds and notes resolved."""
    above, below, fails_at, *notes, provenance = _LADDER[sign, min(n, 5)]
    named = {"t1": tau1(n).as_integer_ratio(), "t2": tau2(n).as_integer_ratio()}
    texts = {k: _ratio_text(*v) for k, v in named.items()}
    notes = tuple(note and note.format(n=n, **texts) for note in notes)
    return named.get(above, above), named.get(below, below), fails_at, notes, provenance


def _conformal_gap(model: ModelSpace, t: Fraction, lambda1_override: Fraction | None) -> tuple:
    """Positivity of the conformal Jacobi polynomial over function eigenvalues.

    The row of _LADDER for the sign of R and the dimension decides; for
    R > 0 it uses only the Lichnerowicz lower bound lambda_1 >= R/(n-1).
    For R < 0 in n >= 5 the range tau > -1/n needs the first nonzero
    Laplace eigenvalue: lambda1_override when given (bound-only models
    need it), else the model's, where the sign of the second factor
    decides, on integers as in the witness scan. The procedure never
    extrapolates outside a branch; it returns Indeterminate there.
    """
    n, p, q, r = model.n, t.numerator, t.denominator, model.scal.numerator
    if r < 0 and n >= 5 and _vs(p, q, -1, n) > 0:
        lam1 = lambda1_override if lambda1_override is not None else model.lambda1
        if lam1 is None:
            raise InsufficientSpectralData(
                f"{model.key}: tau > -1/n with negative scalar curvature "
                "needs the first nonzero Laplace eigenvalue (the branch "
                "requires lambda_1 > (n-4)(-R)/(2(n-1)); pass "
                "lambda1_override)")
        a, b = _second_numerators(n, p, q, r)
        l, d = lam1.as_integer_ratio()
        second = a * model.scal.denominator * l + b * d  # the sign of a lambda_1 + b
        if second > 0:
            return ("StrictlyStable", None,
                    (f"second factor positive at lambda_1 = {lam1} and increasing",),
                    ("conformal-branch", "lambda1-data"))
        if second == 0:
            return ("Indeterminate", lam1,
                    (f"second factor vanishes at lambda_1 = {lam1}: "
                     "neutral conformal direction",),
                    ("conformal-branch", "lambda1-data"))
        return _fails(model, t, f"second factor negative at lambda_1 = {lam1}", lam1)
    above, below, fails_at, notes, provenance = _ladder_row((r > 0) - (r < 0), n)
    if _vs(p, q, *above) > 0:
        return "StrictlyStable", None, (notes[0],), ("conformal-branch",)
    c = _vs(p, q, *below)
    if c < 0 or (fails_at and c == 0):
        return _fails(model, t, notes[1])
    return "Indeterminate", None, (notes[2],), (provenance,)


# ---------------------------------------------------------------------------
# intervals


def _contact_tau(model: ModelSpace, mu: Fraction) -> Fraction:
    """tau(mu) = (mu n - 4R)/(2nR), where the moving TT root (4/n + 2 tau)R is mu."""
    n, R = model.n, model.scal
    return (mu * n - 4 * R) / (2 * n * R)


def stability_interval(model: ModelSpace) -> TauInterval:
    """The open tau range where both gap checks pass, each end with its provenance.

    The conformal end is the first threshold of the model's _LADDER row (R < 0,
    n >= 5 closes at -1/n, beyond which the lambda_1 branch needs data). A TT end
    is tau(mu) at the first spectral value, known or the tail bound, that the
    moving root (4/n + 2 tau)R meets on either side of the fixed root 2R/n; it
    replaces the conformal end where strictly tighter. Inside, the verdict is the
    TT check's at the fixed root; where that does not pass, no tau passes and
    the conformal range is Indeterminate, with the flat torus's note when the
    check fails (its parallel TT kernel) and the check's own notes otherwise.
    """
    n, R, tt = model.n, model.scal, model.tt
    above, _, _, texts, _ = _ladder_row((R > 0) - (R < 0), n)
    lo, lo_prov, hi, hi_open, hi_prov = Fraction(*above), texts[3], None, True, "unbounded"
    if R < 0 and n >= 5:
        hi, hi_open = Fraction(-1, n), False
        hi_prov = ("conformal branch closes at -1/n; beyond it the first Laplace "
                   "eigenvalue would be needed")
    # the forbidden interval is 2R/n alone
    inside, _, tt_notes, _ = _tt_gap(model, Fraction(-1, n))
    if inside not in ("StrictlyStable", "StableBoundOnly"):
        if inside == "FailsTT":
            tt_notes = ("conformal direction only: parallel trace-free tensors are a "
                        "neutral TT kernel at every tau, so stability is never strict",)
        return TauInterval(lo, hi, True, hi_open, lo_prov, hi_prov, tt_notes, "Indeterminate")
    fixed, known, tail = 2 * R / n, [e.mu for e in tt.known], tt.tail_bound
    up = min([mu for mu in known if mu > fixed] + [tail])
    down = max((mu for mu in known if mu < fixed), default=None)
    lo_mu, hi_mu = (down, up) if R > 0 else (up, down) if R < 0 else (None, None)
    tail_end, tail_name = model.tt_tail

    def end(mu):
        what = tail_end if mu == tail else f"TT gap closes at the known eigenvalue {mu}"
        return _contact_tau(model, mu), what
    if lo_mu is not None and end(lo_mu)[0] > lo:
        lo, lo_prov = end(lo_mu)
    if hi_mu is not None and (hi is None or end(hi_mu)[0] < hi):
        (hi, hi_prov), hi_open = end(hi_mu), True
    elif hi is None and R < 0:
        hi_prov = "unbounded: forbidden TT interval stays below the lower bound for all larger tau"
    notes = ((f"TT spectrum known only through the lower bound {tail_name}",)
             if model.family.is_bound else ())
    if model.family.is_subset:
        notes += ("constant-curvature quotient: conformal kernel directions are not "
                  "essential and are skipped",)
    if hi_mu == tail and tail not in known:
        notes += (f"optimality: unknown (the upper endpoint comes from the tail bound "
                  f"{tail_name}, not from a known eigenvalue)",)
    return TauInterval(lo, hi, True, hi_open, lo_prov, hi_prov, notes, inside)


# ---------------------------------------------------------------------------
# rigidity


class ExceptionalTau(NamedTuple):
    tau: Fraction
    mu: Fraction
    kernel_note: str = ""


class RigidityReport(NamedTuple):
    model_key: str
    exceptional: tuple[ExceptionalTau, ...]
    notes: tuple[str, ...] = ()


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
    if tt is not None and model.family.is_bound and not mus and not mu_list:
        raise InsufficientSpectralData(
            f"{model.key}: TT spectrum known only as a bound; supply "
            "eigenvalues via mu_list")
    if mu_list:
        if tt is not None and model.family.is_bound and min(mu_list) < tt.tail_bound:
            raise ValueError(f"{model.key}: mu = {format_ratio(min(mu_list))} lies below "
                             f"the TT spectral lower bound {format_ratio(tt.tail_bound)}")
        mus.extend(Fraction(m) for m in mu_list)
        notes.append("includes user-supplied eigenvalues")
    first_factor_root = 2 * R / n
    out = []
    # tau(mu) has slope 1/(2R) != 0, so distinct mu give distinct tau
    for mu in sorted(set(mus)):
        t = _contact_tau(model, mu)
        note = model.family.kernel_notes.get(mu, "")
        if mu == first_factor_root:
            note = (note + "; " if note else "") + (
                "eigenvalue 2R/n: kernel direction at every tau")
        out.append(ExceptionalTau(t, mu, note))
        if len(out) >= count:
            break
    if model.family.spectrum is not None:
        notes.append("conformal kernel: the polynomial roots lambda = R/(n-1) "
                     "and the second-factor root are checked against the "
                     "function spectrum per branch; catalog models have no "
                     "essential conformal kernel inside the stability range")
    if R < 0 and n >= 5:  # the _LADDER row whose lambda_1 branch needs data
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


def _interval_empty(model: ModelSpace, lo: int, hi: int, den: int) -> bool | None:
    """Is spec_TT disjoint from [lo/den, hi/den]? True/False when certain, else None."""
    eig, below_tail = _tt_meets(model.tt, lo, hi, den)
    if eig is not None:
        return None if model.family.is_subset else False
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
    e1 = _interval_empty(model, a, a, den)
    e2 = _interval_empty(model, b, b, den)
    rigid = False if e1 is False or e2 is False else e1 and e2  # True, or None if unsure
    empty = _interval_empty(model, lo, hi, den)
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
# combined verdict


def combined_verdict(model: ModelSpace, tau,
                     lambda1_override: Fraction | None = None) -> StabilityVerdict:
    """Intersection of the TT and conformal gap checks at one tau.

    An impossible lambda1_override is refused even where the TT check
    alone decides the verdict.
    """
    if lambda1_override is not None and not 0 < lambda1_override < math.inf:
        raise ValueError(f"lambda1 must be a positive eigenvalue, got {lambda1_override}")
    t = tau if isinstance(tau, Fraction) else _exact_tau(tau)  # a Fraction skips the call
    tt_v = _tt_gap(model, t)
    if tt_v[0] == "FailsTT":
        return StabilityVerdict(*tt_v)
    cf_v = _conformal_gap(model, t, lambda1_override)
    if cf_v[0] == "FailsConformal":
        return StabilityVerdict(*cf_v)
    notes, provenance = tt_v[2] + cf_v[2], tt_v[3] + cf_v[3]
    for kind, witness, _, _ in (tt_v, cf_v):
        if kind == "Indeterminate":
            return StabilityVerdict("Indeterminate", witness, notes, provenance)
    variant = "StableBoundOnly" if "StableBoundOnly" in (tt_v[0], cf_v[0]) else "StrictlyStable"
    return StabilityVerdict(variant, None, notes, provenance)
