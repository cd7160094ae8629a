"""Gap checks, stability intervals, rigidity lists, Bach and volume verdicts."""

import cProfile
import functools
import json
import math
import pstats
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import contains, passes, q_factor, second_factor, with_tt_eigenvalue

from qcf import stability
from qcf.catalog import builtin_catalog, function_spectrum, validate_model
from qcf.cli import _interval_json, _verdict_json
from qcf.rational import conformal_polynomial, tau1, tau2
from qcf.stability import (
    BachVerdict,
    InsufficientSpectralData,
    StabilityVerdict,
    TauInterval,
    _conformal_witness,
    _exact_tau,
    bach_verdict,
    combined_verdict,
    reverse_bishop,
    rigidity_exceptional_taus,
    stability_interval,
)


@pytest.fixture(scope="module")
def cat():
    return builtin_catalog()


def _check_lambda1(lam) -> None:
    if lam is not None and not 0 < lam < math.inf:
        raise ValueError(f"lambda1 must be a positive eigenvalue, got {lam}")


# The two gap checks one at a time, each as a verdict record: combined_verdict
# runs them on the way and combines their fields.


def tt_gap_check(model, tau) -> StabilityVerdict:
    """The TT gap check alone (stability._tt_gap) at one tau."""
    return StabilityVerdict(*stability._tt_gap(model, _exact_tau(tau)))


def conformal_gap_check(model, tau, lambda1_override=None) -> StabilityVerdict:
    """The conformal gap check alone (stability._conformal_gap) at one tau. A
    given lambda1_override must be positive."""
    _check_lambda1(lambda1_override)
    return StabilityVerdict(*stability._conformal_gap(model, _exact_tau(tau), lambda1_override))


def test_verdict_invariants():
    with pytest.raises(ValueError, match="witness"):
        StabilityVerdict("FailsTT")
    with pytest.raises(ValueError, match="unknown verdict"):
        StabilityVerdict("Wobbly")
    assert passes(StabilityVerdict("StableBoundOnly"))
    assert not passes(StabilityVerdict("Indeterminate"))


def test_interval_contains():
    iv = TauInterval(Fraction(-1, 3), Fraction(1, 6), hi_open=False)
    assert not contains(iv, Fraction(-1, 3))
    assert contains(iv, Fraction(0))
    assert contains(iv, Fraction(1, 6))
    assert not contains(iv, Fraction(1, 5))
    unbounded = TauInterval(Fraction(0), None)
    assert contains(unbounded, Fraction(1000))
    with pytest.raises(ValueError, match="empty interval"):
        TauInterval(Fraction(1), Fraction(0))


def test_tt_gap_sphere_inside(cat):
    v = tt_gap_check(cat["sphere:4"], Fraction(1, 100))
    assert v.variant == "StrictlyStable"
    assert "tt-gap" in v.provenance


def test_tt_gap_product_failure_with_witness(cat):
    v = tt_gap_check(cat["product:2"], Fraction(0))
    assert v.variant == "FailsTT"
    assert v.witness == 4
    assert any("alpha1 . alpha2" in note for note in v.notes)


def test_tt_gap_quotient_downgrades_to_indeterminate(cat):
    v = tt_gap_check(cat["quotient:4:2"], Fraction(1, 3))
    assert v.variant == "Indeterminate"
    assert any("quotient subset" in note for note in v.notes)


def test_tt_gap_hyperbolic_bound_only(cat):
    v = tt_gap_check(cat["hyperbolic:4"], Fraction(0))
    assert v.variant == "StableBoundOnly"
    assert "tt-lower-bound" in v.provenance


def test_tt_gap_torus_parallel_kernel(cat):
    for tau in (Fraction(0), Fraction(1), Fraction(-5)):
        v = tt_gap_check(cat["torus:4"], tau)
        assert v.variant == "FailsTT"
        assert v.witness == 0


def test_conformal_dimension_three_branches(cat):
    s3 = cat["sphere:3"]
    assert conformal_gap_check(s3, Fraction(0)).variant == "StrictlyStable"
    assert conformal_gap_check(s3, Fraction(-2, 5)).variant == "Indeterminate"
    v = conformal_gap_check(s3, Fraction(-1, 2))
    assert v.variant == "FailsConformal"

    h3 = cat["hyperbolic:3"]
    assert conformal_gap_check(h3, Fraction(0)).variant == "StrictlyStable"
    assert conformal_gap_check(h3, Fraction(-9, 25)).variant == "Indeterminate"
    assert conformal_gap_check(h3, Fraction(-1, 2)).variant == "FailsConformal"


def test_conformal_invariance_point_dimension_four(cat):
    for key in ("sphere:4", "hyperbolic:4"):
        v = conformal_gap_check(cat[key], Fraction(-1, 3))
        assert v.variant == "Indeterminate"
        assert "conformal-invariance" in v.provenance


def test_conformal_failure_witness_is_scanned(cat):
    """Past the threshold the first bad eigenvalue past the gauge modes shows up."""
    v = conformal_gap_check(cat["sphere:5"], Fraction(-7, 20))
    assert v.variant == "FailsConformal"
    assert v.witness == 12


def test_conformal_negative_curvature_needs_lambda1(cat):
    h5 = cat["hyperbolic:5"]
    assert conformal_gap_check(h5, Fraction(-3, 10)).variant == "StrictlyStable"
    with pytest.raises(InsufficientSpectralData, match="lambda_1"):
        conformal_gap_check(h5, Fraction(-1, 6))
    v = conformal_gap_check(h5, Fraction(-1, 6), lambda1_override=Fraction(9, 2))
    assert v.variant == "StrictlyStable"
    assert "lambda1-data" in v.provenance
    # a tiny lambda_1 flips the same query to failure
    v = conformal_gap_check(h5, Fraction(-1, 6), lambda1_override=Fraction(1, 10))
    assert v.variant == "FailsConformal"
    assert v.witness == Fraction(1, 10)


@pytest.mark.parametrize("lam", [Fraction(0), Fraction(-5)])
def test_impossible_lambda1_is_refused(cat, lam):
    """lambda_1 is a positive eigenvalue of -Delta: no verdict from lambda_1 <= 0,
    also where the TT side alone would decide."""
    with pytest.raises(ValueError, match="lambda1 must be a positive"):
        conformal_gap_check(cat["hyperbolic:6"], Fraction(0), lambda1_override=lam)
    with pytest.raises(ValueError, match="lambda1 must be a positive"):
        combined_verdict(cat["torus:4"], Fraction(-1), lambda1_override=lam)


def test_conformal_scalar_flat_branches(cat):
    t4 = cat["torus:4"]
    assert conformal_gap_check(t4, Fraction(0)).variant == "StrictlyStable"
    assert conformal_gap_check(t4, tau2(4)).variant == "Indeterminate"
    assert conformal_gap_check(t4, Fraction(-1)).variant == "FailsConformal"


@pytest.mark.parametrize("n", range(3, 9))
def test_torus_verdict_decided_in_every_dimension(cat, n):
    torus = cat[f"torus:{n}"]
    v = combined_verdict(torus, Fraction(-3, 2))
    assert (v.variant, v.witness) == ("FailsTT", 0)
    cf = conformal_gap_check(torus, Fraction(-3, 2))
    assert (cf.variant, cf.witness) == ("FailsConformal", 1)


def _full_spectrum_models(cat):
    return [m for m in cat.values() if m.family.spectrum is not None]


def _conformal_thresholds(n):
    return {tau1(n), tau2(n), Fraction(-1, n), Fraction(-3, 8), Fraction(-5, 12),
            Fraction(-1, 3)}


def _tau_grid(n):
    """Step 1/240 on [-2, 1] plus every conformal threshold."""
    return sorted({Fraction(k, 240) for k in range(-480, 241)} | _conformal_thresholds(n))


def test_combined_verdict_skips_conformal_side_after_tt_failure(cat, monkeypatch):
    """The witness scan runs at most once per verdict, and only for a
    FailsConformal verdict whose witness is not already known."""
    def no_scan(model, count):
        raise AssertionError("conformal witness scan ran after a TT failure")

    monkeypatch.setattr("qcf.stability.function_spectrum", no_scan)
    v = combined_verdict(cat["torus:4"], Fraction(-1))
    assert (v.variant, v.witness) == ("FailsTT", 0)

    scans = []

    def counted(model, count):
        scans.append(model.key)
        return function_spectrum(model, count)

    monkeypatch.setattr("qcf.stability.function_spectrum", counted)
    for model in _full_spectrum_models(cat):
        for t in _tau_grid(model.n):
            scans.clear()
            v = combined_verdict(model, t)
            assert len(scans) <= 1, (model.key, t)
            assert not scans or v.variant == "FailsConformal", (model.key, t, v.variant)
    scans.clear()
    v = combined_verdict(cat["hyperbolic:5"], Fraction(-1, 6),
                         lambda1_override=Fraction(1, 10))
    assert (v.variant, v.witness, scans) == ("FailsConformal", Fraction(1, 10), [])


def test_bound_only_models_fail_conformally_without_a_scan(cat, monkeypatch):
    """Hyperbolic models have no closed-form function spectrum, so a
    FailsConformal verdict without lambda_1 says that no witness is
    available without calling function_spectrum, and reads as it did when
    the scan ran and caught the CatalogError."""
    def no_scan(model, count):
        raise AssertionError(f"function_spectrum called for {model.key}")

    monkeypatch.setattr("qcf.stability.function_spectrum", no_scan)
    no_witness = "no concrete eigenvalue witness available from the catalog"
    branch_note = {
        3: "dimension three, negative scalar curvature: tau below -3/8",
        4: "dimension four: tau below -1/3",
        6: ("tau at or below -3/10: negative leading coefficient, the conformal "
            "Hessian is negative on all sufficiently large eigenvalues"),
    }
    for n, note in branch_note.items():
        assert cat[f"hyperbolic:{n}"].family.spectrum is None
        for t in (Fraction(-1, 2), Fraction(-1)):
            v = combined_verdict(cat[f"hyperbolic:{n}"], t)
            assert v == StabilityVerdict("FailsConformal", None, (note, no_witness),
                                         ("conformal-branch",)), (n, t)


def test_conformal_witness_matches_the_expanded_polynomial(cat):
    """The scan's factor-sign rule finds the first eigenvalue past the gauge
    modes 0 and R/(n-1) where the expanded conformal polynomial is negative:
    every scanned FailsConformal verdict carries that witness, or says that
    there is none. The rule itself is also checked off the failing branch,
    at every threshold and on the grid's points of step 1/48."""
    no_witness = "no concrete eigenvalue witness available from the catalog"
    scanned = 0
    for model in _full_spectrum_models(cat):
        spec = function_spectrum(model, 60)
        lich = model.scal / (model.n - 1)
        thresholds = _conformal_thresholds(model.n)
        for t in _tau_grid(model.n):
            v = conformal_gap_check(model, t)
            fails = v.variant == "FailsConformal"
            if not (fails or t in thresholds or (48 * t).denominator == 1):
                continue
            poly = conformal_polynomial(model.n, model.scal, t)
            want = next((lam for lam in spec
                         if lam != 0 and lam != lich and poly(lam) < 0), None)
            assert _conformal_witness(model, t) == want, (model.key, t)
            if not fails:
                continue
            assert v.witness == want, (model.key, t)
            assert (no_witness in v.notes) == (want is None), (model.key, t)
            scanned += 1
    assert scanned > 1000


def test_combined_verdicts_match_expected(cat):
    cases = [
        ("sphere:4", Fraction(1, 100), "StrictlyStable"),
        ("product:2", Fraction(0), "FailsTT"),
        ("hyperbolic:4", Fraction(0), "StableBoundOnly"),
        ("sphere:5", Fraction(-7, 20), "FailsConformal"),
        ("sphere:3", Fraction(1, 3), "FailsTT"),
    ]
    for key, tau, want in cases:
        assert combined_verdict(cat[key], tau).variant == want, key


def test_interval_endpoints_table(cat):
    iv = stability_interval(cat["sphere:3"])
    assert (iv.lo, iv.hi) == (Fraction(-3, 8), Fraction(1, 3))
    iv = stability_interval(cat["sphere:4"])
    assert (iv.lo, iv.hi) == (Fraction(-1, 3), Fraction(1, 6))
    iv = stability_interval(cat["cp:2"])
    assert (iv.lo, iv.hi) == (tau1(4), Fraction(1, 6))
    iv = stability_interval(cat["product:3"])
    assert (iv.lo, iv.hi) == (tau1(6), Fraction(-1, 12))
    assert any("optimality" in note for note in iv.notes)
    iv = stability_interval(cat["hyperbolic:3"])
    assert (iv.lo, iv.hi) == (Fraction(-1, 3), None)
    assert iv.verdict_inside == "StableBoundOnly"
    iv = stability_interval(cat["hyperbolic:6"])
    assert (iv.lo, iv.hi, iv.hi_open) == (tau1(6), Fraction(-1, 6), False)
    iv = stability_interval(cat["torus:5"])
    assert iv.lo == tau2(5) and iv.hi is None
    assert iv.verdict_inside == "Indeterminate"


# Every built-in interval as (lo, hi, lo_open, hi_open, verdict_inside), as the
# per-variant endpoint table printed them before the ends came from the gap rules
_BUILTIN_INTERVALS = {
    "cp:2": ("-1/3", "1/6", True, True, "StrictlyStable"),
    "cp:3": ("-7/30", "1/12", True, True, "StrictlyStable"),
    "cp:4": ("-5/28", "1/20", True, True, "StrictlyStable"),
    "hyperbolic:3": ("-1/3", None, True, True, "StableBoundOnly"),
    "hyperbolic:4": ("-1/3", None, True, True, "StableBoundOnly"),
    "hyperbolic:5": ("-11/40", "-1/5", True, False, "StableBoundOnly"),
    "hyperbolic:6": ("-7/30", "-1/6", True, False, "StableBoundOnly"),
    "hyperbolic:7": ("-17/84", "-1/7", True, False, "StableBoundOnly"),
    "hyperbolic:8": ("-5/28", "-1/8", True, False, "StableBoundOnly"),
    "product:2": ("-1/3", "0", True, True, "StrictlyStable"),
    "product:3": ("-7/30", "-1/12", True, True, "StrictlyStable"),
    "product:4": ("-5/28", "-1/12", True, True, "StrictlyStable"),
    "quotient:4:2": ("-1/3", "1/6", True, True, "StrictlyStable"),
    "sphere:3": ("-3/8", "1/3", True, True, "StrictlyStable"),
    "sphere:4": ("-1/3", "1/6", True, True, "StrictlyStable"),
    "sphere:5": ("-11/40", "1/10", True, True, "StrictlyStable"),
    "sphere:6": ("-7/30", "1/15", True, True, "StrictlyStable"),
    "sphere:7": ("-17/84", "1/21", True, True, "StrictlyStable"),
    "sphere:8": ("-5/28", "1/28", True, True, "StrictlyStable"),
    "torus:3": ("-3/8", None, True, True, "Indeterminate"),
    "torus:4": ("-1/3", None, True, True, "Indeterminate"),
    "torus:5": ("-5/16", None, True, True, "Indeterminate"),
    "torus:6": ("-3/10", None, True, True, "Indeterminate"),
    "torus:7": ("-7/24", None, True, True, "Indeterminate"),
    "torus:8": ("-2/7", None, True, True, "Indeterminate"),
}


def test_every_builtin_interval_matches_the_literal_table(cat):
    assert sorted(cat) == sorted(_BUILTIN_INTERVALS)
    for key, (lo, hi, lo_open, hi_open, inside) in _BUILTIN_INTERVALS.items():
        iv = stability_interval(cat[key])
        want = (Fraction(lo), hi and Fraction(hi), lo_open, hi_open, inside)
        assert (iv.lo, iv.hi, iv.lo_open, iv.hi_open, iv.verdict_inside) == want, key


@pytest.mark.parametrize("key,mu,lo,hi,hi_prov", [
    ("product:3", 5, "-7/30", "-1/8", "TT gap closes at the known eigenvalue 5"),
    ("sphere:4", 10, "-1/3", "-1/12", "TT gap closes at the known eigenvalue 10"),
    ("quotient:4:2", 10, "-1/3", "-1/12", "TT gap closes at the known eigenvalue 10"),
    ("sphere:4", 20, "-1/3", "1/6", "TT gap closes at the first Lichnerowicz eigenvalue 4n"),
], ids=["product:3+5", "sphere:4+10", "quotient:4:2+10", "sphere:4+20"])
def test_interval_follows_an_extra_known_tt_eigenvalue(cat, key, mu, lo, hi, hi_prov):
    """An extra known TT eigenvalue between the fixed root 2R/n and the tail
    bound closes the interval at tau(mu), as the point verdicts do; one past
    the tail bound moves nothing."""
    model = with_tt_eigenvalue(cat[key], mu)
    validate_model(model)
    iv = stability_interval(model)
    assert (iv.lo, iv.hi, iv.hi_provenance) == (Fraction(lo), Fraction(hi), hi_prov)
    assert not passes(combined_verdict(model, iv.hi))
    assert passes(combined_verdict(model, iv.hi - Fraction(1, 10**6)))
    assert not any("optimality" in note for note in iv.notes)


def test_interval_lower_end_follows_a_known_tt_eigenvalue_below_the_fixed_root(cat):
    """sphere:4 (2R/n = 6) with mu = 5: the moving root meets 5 at
    tau = -7/24, above the conformal threshold -1/3."""
    model = with_tt_eigenvalue(cat["sphere:4"], 5)
    iv = stability_interval(model)
    assert iv.lo == Fraction(-7, 24)
    assert iv.lo_provenance == "TT gap closes at the known eigenvalue 5"
    assert combined_verdict(model, iv.lo).variant == "FailsTT"
    assert passes(combined_verdict(model, iv.lo + Fraction(1, 10**6)))


@pytest.mark.parametrize("key", ["sphere:4", "product:2", "quotient:4:2"])
def test_a_known_tt_eigenvalue_at_the_fixed_root_leaves_no_passing_tau(cat, key):
    """With 2R/n itself a known TT eigenvalue, every forbidden interval holds
    it: the report is the conformal range with Indeterminate inside, as on
    the flat torus."""
    model = cat[key]
    model = with_tt_eigenvalue(model, 2 * model.scal / model.n)
    iv = stability_interval(model)
    assert (iv.lo, iv.hi, iv.verdict_inside) == (stability_interval(cat[key]).lo, None,
                                                 "Indeterminate")
    for tau in (iv.lo + Fraction(1, 100), Fraction(-1, model.n), Fraction(0), Fraction(5)):
        assert not passes(combined_verdict(model, tau))


_TORUS_NOTE = ("conformal direction only: parallel trace-free tensors are a neutral TT "
               "kernel at every tau, so stability is never strict")


def test_a_tt_check_that_is_indeterminate_at_the_fixed_root_gives_its_own_note(cat):
    """sphere:4 with tail bound 5, below its fixed root 2R/n = 6: the TT check
    there is Indeterminate only because the spectrum above 5 is unknown, and
    the interval says so. The flat torus's note goes with a check that fails
    (the tori's parallel TT kernel, or a known eigenvalue at 2R/n)."""
    model = cat["sphere:4"]
    model = model._replace(tt=model.tt._replace(tail_bound=Fraction(5)))
    validate_model(model)
    iv = stability_interval(model)
    assert (iv.lo, iv.hi, iv.verdict_inside) == (Fraction(-1, 3), None, "Indeterminate")
    assert iv.notes == ("forbidden interval [6, 6] reaches the region mu >= 5 where the "
                        "spectrum is not fully known",)
    for key in ("torus:4", "torus:8"):
        assert stability_interval(cat[key]).notes == (_TORUS_NOTE,)
    at_root = with_tt_eigenvalue(cat["sphere:4"], 6)
    assert stability_interval(at_root).notes == (_TORUS_NOTE,)


def test_an_interval_needs_tt_data(cat):
    """Its TT ends come from the TT data, so a model without any (an extension
    catalog's "tt": null) gets no interval, as it gets no verdict."""
    with pytest.raises(InsufficientSpectralData, match="sphere:4: no TT spectral data"):
        stability_interval(cat["sphere:4"]._replace(tt=None))


@pytest.mark.parametrize("tau,lam,message", [
    (Fraction(-1, 6), math.inf, "lambda1 must be a positive eigenvalue, got inf"),
    (Fraction(-1, 6), math.nan, "lambda1 must be a positive eigenvalue, got nan"),
    (Fraction(-1, 6), -math.inf, "lambda1 must be a positive eigenvalue, got -inf"),
    (math.inf, None, "tau must be finite, got inf"),
    (-math.inf, None, "tau must be finite, got -inf"),
    (math.nan, None, "tau must be finite, got nan"),
], ids=["lambda1-inf", "lambda1-nan", "lambda1-minus-inf", "tau-inf", "tau-minus-inf", "tau-nan"])
def test_non_finite_input_is_refused(cat, tau, lam, message):
    """A non-finite lambda_1 or tau is one ValueError naming it, not an
    OverflowError or a formatting error."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        combined_verdict(cat["hyperbolic:5"], tau, lam)


def test_a_float_tau_decides_at_its_exact_value(cat):
    """0.1 is 3602879701896397/2^55, a little above 1/10: the verdict and
    its JSON read that value, not 1/10, as reverse_bishop and the rational
    helpers read floats."""
    model = cat["sphere:4"]
    assert _exact_tau(0.1) == Fraction(0.1) != Fraction(1, 10)
    v = combined_verdict(model, 0.1)
    assert v == combined_verdict(model, Fraction(0.1))
    assert _verdict_json(model, 0.1, v)["tau"] == {"num": 3602879701896397, "den": 2**55}


def test_interval_membership_agrees_with_verdicts(cat):
    """Spot check: inside the interval the combined verdict passes."""
    for key in ("sphere:4", "cp:3", "product:2", "hyperbolic:5"):
        model = cat[key]
        iv = stability_interval(model)
        hi = iv.hi if iv.hi is not None else iv.lo + 1
        mid = (iv.lo + hi) / 2
        assert contains(iv, mid)
        assert passes(combined_verdict(model, mid))


def test_rigidity_sphere_three(cat):
    rep = rigidity_exceptional_taus(cat["sphere:3"])
    assert rep.exceptional[0].tau == Fraction(1, 3)
    assert rep.exceptional[0].mu == 12


def test_rigidity_cp_two(cat):
    rep = rigidity_exceptional_taus(cat["cp:2"])
    assert rep.exceptional[0].tau == Fraction(1, 6)
    assert rep.exceptional[0].mu == 32


def test_rigidity_product_two_kernel_notes(cat):
    rep = rigidity_exceptional_taus(cat["product:2"])
    taus = [(e.tau, e.mu) for e in rep.exceptional]
    assert taus == [(Fraction(-1, 2), Fraction(0)), (Fraction(0), Fraction(4))]
    assert "g1 - g2" in rep.exceptional[0].kernel_note
    assert "Killing one-forms" in rep.exceptional[1].kernel_note


def test_rigidity_user_supplied_eigenvalues_extend(cat):
    rep = rigidity_exceptional_taus(cat["sphere:3"], mu_list=[16, 20])
    taus = [e.tau for e in rep.exceptional]
    assert taus == sorted(taus)
    assert taus == [Fraction(1, 3), Fraction(2, 3), Fraction(1)]
    assert any("user-supplied" in note for note in rep.notes)


def test_rigidity_hyperbolic_needs_mu_list(cat):
    with pytest.raises(InsufficientSpectralData, match="mu_list"):
        rigidity_exceptional_taus(cat["hyperbolic:5"])
    rep = rigidity_exceptional_taus(cat["hyperbolic:5"], mu_list=[Fraction(-5)])
    # the bound endpoint mu = -n maps exactly to the interval threshold
    assert rep.exceptional[0].tau == tau1(5)
    # an eigenvalue below the bound mu >= -n is impossible input
    with pytest.raises(ValueError, match="below the TT spectral lower bound -5"):
        rigidity_exceptional_taus(cat["hyperbolic:5"], mu_list=[Fraction(1), Fraction(-6)])


def test_rigidity_torus_raises(cat):
    with pytest.raises(InsufficientSpectralData, match="scalar-flat"):
        rigidity_exceptional_taus(cat["torus:4"])


def test_rigidity_marks_always_kernel_eigenvalue(cat):
    rep = rigidity_exceptional_taus(cat["sphere:3"], mu_list=[Fraction(4)])
    by_mu = {e.mu: e for e in rep.exceptional}
    assert "kernel direction at every tau" in by_mu[Fraction(4)].kernel_note


@pytest.mark.parametrize("count", [0, -3])
def test_rigidity_rejects_non_positive_count(cat, count):
    with pytest.raises(ValueError, match="count must be positive"):
        rigidity_exceptional_taus(cat["sphere:3"], count=count)
    assert len(rigidity_exceptional_taus(cat["sphere:3"], count=1).exceptional) == 1


def test_bach_verdicts(cat):
    for key in ("sphere:4", "quotient:4:2", "cp:2", "product:2"):
        bv = bach_verdict(cat[key])
        assert bv.rigid is True, key
        assert bv.strict_weyl_min is True, key
    bv = bach_verdict(cat["torus:4"])
    assert bv.rigid is False and bv.strict_weyl_min is False
    bv = bach_verdict(cat["hyperbolic:4"])
    assert bv.rigid is None
    assert any("insufficient" in note for note in bv.notes)
    with pytest.raises(ValueError, match="dimension-four"):
        bach_verdict(cat["sphere:5"])


def test_bach_targets(cat):
    bv = bach_verdict(cat["sphere:4"])
    assert bv.targets == (Fraction(4), Fraction(6))


def test_reverse_bishop_volume_conclusion():
    vol_g = 2.0 * math.pi**2
    vol_gt = 1.1 * vol_g
    lower = 12.0 * vol_g ** (4.0 / 3.0)
    d = reverse_bishop(vol_g, 3, vol_gt, True, True, lower * 1.05)
    assert d.conclusion == "VolumeAtLeast"


def test_reverse_bishop_equality_rigidity():
    # Vol = (3/4)^3 and F = 12 (3/4)^4 = 12 Vol^(4/3) exactly, in binary too
    d = reverse_bishop(0.75**3, 3, 0.75**3, True, True, 12 * 0.75**4)
    assert d.conclusion == "EqualityRigidity"


def test_reverse_bishop_inconclusive_paths():
    vol_g = 2.0 * math.pi**2
    d = reverse_bishop(vol_g, 3, 1.1 * vol_g, False, True, 700.0)
    assert d.conclusion == "Inconclusive"
    assert any("flags" in note for note in d.notes)
    # value below the stability floor
    d = reverse_bishop(vol_g, 3, 1.1 * vol_g, True, True, 100.0)
    assert d.conclusion == "Inconclusive"
    assert any("stability bound" in note for note in d.notes)
    # value above the Ricci ceiling
    d = reverse_bishop(vol_g, 3, 1.1 * vol_g, True, True, 10000.0)
    assert d.conclusion == "Inconclusive"
    assert any("ceiling" in note for note in d.notes)


@pytest.mark.parametrize("vol_g, vol_gt, ftilde0", [
    (0.0, 0.0, 0.0),               # used to conclude EqualityRigidity
    (math.nan, 20.0, 700.0),       # used to conclude VolumeAtLeast
    (-1.0, 2.0, 10.0),             # used to raise TypeError from (-1.0) ** (4/3)
    (20.0, math.inf, 700.0),
    (20.0, 22.0, math.nan),
    (20.0, 22.0, -math.inf),
])
def test_reverse_bishop_rejects_impossible_input(vol_g, vol_gt, ftilde0):
    for flags in ((True, True), (False, True)):
        with pytest.raises(ValueError, match="finite"):
            reverse_bishop(vol_g, 3, vol_gt, *flags, ftilde0)


def _bishop_cases(n):
    """(vol_g, vol_gt, ftilde0, conclusion) at unit scale, one per branch."""
    c = n * (n - 1) ** 2
    bound = lambda vol: c * vol ** (4.0 / n)
    close = 1 - 1.2e-9  # just below vol_g, so f lies below the stability bound
    return [
        (2.0, 1.0, (bound(2.0) + bound(1.0)) / 2, "Inconclusive"),  # vol_gt < vol_g
        (1.0, 1.5, (bound(1.0) + bound(1.5)) / 2, "VolumeAtLeast"),
        (1.0, 1.5, bound(1.0) / 2, "Inconclusive"),
        (1.0, 1.5, bound(1.5) * 2, "Inconclusive"),
        (0.75**n, 0.75**n, c * 0.75**4, "EqualityRigidity"),  # f = bound, exactly
        (1.0, close, (bound(1.0) + bound(close)) / 2, "Inconclusive"),
    ]


@pytest.mark.parametrize("n", range(3, 9))
def test_reverse_bishop_conclusion_is_scale_free(n):
    """Scaling the volumes by lambda = 2^(nk) and the functional value by
    lambda^(4/n) = 2^(4k) keeps the conclusion, for k in [-20, 20]; the
    scale 2e-11 used to turn a smaller comparison volume into
    VolumeAtLeast. No conclusion contradicts the volumes it prints."""
    for vol_g, vol_gt, f, want in _bishop_cases(n):
        for k in range(-20, 21):
            vg, vgt = math.ldexp(vol_g, n * k), math.ldexp(vol_gt, n * k)
            d = reverse_bishop(vg, n, vgt, True, True, math.ldexp(f, 4 * k))
            assert d.conclusion == want, (vol_g, vol_gt, f, k)
            if d.conclusion == "VolumeAtLeast":
                printed = d.notes[0].removeprefix("Vol(g~) = ").split(" ")
                assert float(printed[0]) >= float(printed[4]) and vgt >= vg


@pytest.mark.parametrize("vol_g, vol_gt, n, ftilde0", [
    (2e-11, 1e-11, 4, 5e-10),  # used to conclude VolumeAtLeast
    (2e-300, 1e-300, 3, 0.0),  # the same, from bounds that underflow to 0
    (1e-300, 1e-300, 3, 0.0),  # used to conclude EqualityRigidity
    (1e308, 1e308, 4, 0.0),    # the same, from bounds 36 * 1e308 = inf
    (1e308, 1e308, 3, 0.0),    # the same, from 1e308 ** (4/3) raising OverflowError
    # n >= 5: 1e308 ** (4/n) stays finite and the value 0 lies below it
    *[(1e308, 1e308, n, 0.0) for n in range(5, 9)],
])
def test_reverse_bishop_bounds_out_of_float_range_are_inconclusive(vol_g, vol_gt, n, ftilde0):
    d = reverse_bishop(vol_g, n, vol_gt, True, True, ftilde0)
    assert d.conclusion == "Inconclusive"


def _bishop_oracle(vol_g, vol_gt, n, f):
    """The sandwich c Vol(g)^(4/n) <= f <= c Vol(g~)^(4/n), c = n(n-1)^2, in
    n-th powers: for f > 0 each side compares f^n with c^n Vol^4."""
    c = n * (n - 1) ** 2
    if f <= 0 or f**n < c**n * vol_g**4:
        return "stability bound"
    if f**n > c**n * vol_gt**4:
        return "ceiling"
    return "EqualityRigidity" if vol_g == vol_gt else "VolumeAtLeast"


def _bishop_inputs(count, seed):
    """(vol_g, vol_gt, n, f) over n = 3..8 with volumes in [1e-300, 1e300],
    five kinds in turn: independent values; f near a bound of nearby
    volumes; equal volumes; volumes u^n, w^n with f = c u^4 or c w^4
    exactly; and f <= 0."""
    rng = random.Random(seed)

    def root(n):  # u in [10^j, 10^(j+1)) with u^n in [1e-300, 1e300]
        j = rng.randint(1 - 300 // n, 300 // n - 1)
        return Fraction(rng.randint(10**5, 10**6 - 1), 10**5) * Fraction(10) ** j

    def nudge():
        return 1 + rng.choice([0, 1, -1]) * Fraction(1, 10 ** rng.randint(1, 30))

    for i in range(count):
        n, kind = 3 + i % 6, i // 6 % 5
        c = n * (n - 1) ** 2
        u, w = sorted((root(n), root(n)))
        if kind == 0:
            yield u**n, w**n if rng.random() < 0.5 else u**n / 2, n, c * root(n) ** 4
        elif kind == 1:
            w = u * nudge()
            yield u**n * nudge(), w**n * nudge(), n, c * rng.choice([u, w]) ** 4 * nudge()
        elif kind == 2:
            yield u**n, u**n, n, c * u**4 * nudge()
        elif kind == 3:
            yield u**n, w**n, n, c * rng.choice([u, w]) ** 4
        else:
            yield u**n, w**n, n, -root(n) if rng.random() < 0.9 else Fraction(0)


# a printed volume or bound: after "stability bound", "ceiling" or "Vol(g~) ="
_BISHOP_NUMBER = re.compile(r"(?:stability bound|ceiling|Vol\(g~?\) =) ([^\s;]+)")


def test_reverse_bishop_matches_the_exact_oracle():
    """1,200 seeded rational inputs decide as the n-th power oracle does, with
    the note that names the failing side; every printed volume and bound is
    a positive finite number, and VolumeAtLeast prints Vol(g~) >= Vol(g).
    Inputs that are normal floats decide the same as floats."""
    seen = {}
    for vol_g, vol_gt, n, f in _bishop_inputs(1200, seed=20):
        want = _bishop_oracle(vol_g, vol_gt, n, f)
        seen[want] = seen.get(want, 0) + 1
        d = reverse_bishop(vol_g, n, vol_gt, True, True, f)
        if want in ("stability bound", "ceiling"):
            assert d.conclusion == "Inconclusive" and want in d.notes[0], (vol_g, vol_gt, n, f)
        else:
            assert d.conclusion == want, (vol_g, vol_gt, n, f)
        printed = [Fraction(x) for x in _BISHOP_NUMBER.findall(d.notes[0])]
        assert all(x > 0 for x in printed), d.notes
        if d.conclusion == "VolumeAtLeast":
            assert vol_gt > vol_g and printed[0] >= printed[1], d.notes
        if all(2.0**-1022 <= abs(x) <= 1e300 for x in (vol_g, vol_gt, f)):
            floats = [float(x) for x in (vol_g, vol_gt, f)]
            want = _bishop_oracle(*map(Fraction, floats[:2]), n, Fraction(floats[2]))
            d = reverse_bishop(floats[0], n, floats[1], True, True, floats[2])
            assert d.conclusion == want or want in d.notes[0], (floats, n)
    assert min(seen.values()) >= 50 and len(seen) == 4, seen


def test_reverse_bishop_decides_a_ceiling_a_tolerance_used_to_hide():
    """F = 36 exceeds the exact ceiling 36 * 0.9999999999 at n = 4; a relative
    tolerance of 1e-9 used to read this as EqualityRigidity."""
    for vol_gt in (Fraction("0.9999999999"), 0.9999999999):
        d = reverse_bishop(1, 4, vol_gt, True, True, 36)
        assert d.conclusion == "Inconclusive"
        assert "exceeds the Ricci-bound ceiling 35.9999999964;" in d.notes[0]


def test_reverse_bishop_decides_beyond_the_float_range():
    """12 <= 50 <= 12 (10^300)^(4/3) = 1.2e401 concludes; the float bounds used
    to overflow and answer Inconclusive."""
    d = reverse_bishop(1, 3, Fraction(10) ** 300, True, True, 50)
    assert d.conclusion == "VolumeAtLeast"
    assert d.notes[0].startswith("Vol(g~) = 1e+300 >= Vol(g) = 1 ")
    d = reverse_bishop(Fraction(10) ** 300, 3, Fraction(10) ** 300, True, True, 5)
    assert "below the stability bound 1.2e+401;" in d.notes[0]


def test_reverse_bishop_lower_bound_holds_whatever_the_ceiling():
    """F below the stability bound 36 stays below it when Vol(g~) = 1e20 Vol(g);
    a tolerance relative to the larger bound 3.6e21 used to swallow the lower
    bound and conclude VolumeAtLeast even from F = 0."""
    for f in (35, 0, -10**12):
        d = reverse_bishop(1, 4, 10**20, True, True, f)
        assert d.conclusion == "Inconclusive", f
        assert "below the stability bound 36;" in d.notes[0]


def test_berger_squash_breaks_ricci_hypothesis():
    """diag(1,1,0.81) has a Ricci eigenvalue 4 - 2 s^2 = 2.38 above (n-1) = 2.

    The caller therefore cannot assert the upper comparison flag and the
    deduction must stay inconclusive regardless of the functional value.
    """
    s2 = 0.81
    assert 4.0 - 2.0 * s2 > 2.0
    vol_g = 2.0 * math.pi**2
    vol_gt = vol_g * math.sqrt(s2)
    d = reverse_bishop(vol_g, 3, vol_gt, False, True, 640.0)
    assert d.conclusion == "Inconclusive"


def test_json_shapes(cat):
    model = cat["sphere:4"]
    iv = stability_interval(model)
    obj = _interval_json(model, iv)
    assert obj["model"] == "sphere:4"
    assert obj["lo"] == "-1/3" and obj["hi"] == "1/6"
    assert obj["provenance"]["lo"]

    v = combined_verdict(model, Fraction(1, 100))
    obj = _verdict_json(model, Fraction(1, 100), v)
    assert obj["tau"] == {"num": 1, "den": 100}
    assert obj["verdict"] == "StrictlyStable"
    assert obj["witness"] is None

    v = combined_verdict(cat["product:2"], Fraction(0))
    obj = _verdict_json(cat["product:2"], Fraction(0), v)
    assert obj["witness"] == "4"


# ---------------------------------------------------------------------------
# the gap checks against their Fraction-chain form
#
# The oracle below is the gap-check code as it read before the checks moved
# to integer numerators: every threshold, root and factor a Fraction, every
# decision a Fraction comparison.


def _oracle_known_in(tt, lo, hi):
    return next((eig for eig in tt.known if lo <= eig.mu <= hi), None)


def _oracle_tt_gap_check(model, tau):
    tt = model.tt
    if tt is None:
        raise InsufficientSpectralData(f"{model.key}: no TT spectral data")
    t = _exact_tau(tau)
    R = model.scal
    n = model.n
    a = 2 * R / n
    b = (Fraction(4, n) + 2 * t) * R
    lo, hi = (a, b) if a <= b else (b, a)
    eig = _oracle_known_in(tt, lo, hi)
    if eig is not None:
        note = f"eigenvalue {eig.mu} in the forbidden interval [{lo}, {hi}]"
        if eig.witness:
            note += f"; witness: {eig.witness}"
        if model.family.is_subset:
            return StabilityVerdict(
                "Indeterminate", witness=eig.mu,
                notes=(note, "spectrum is a quotient subset: the witness "
                             "may not descend"),
                provenance=("tt-gap",))
        return StabilityVerdict("FailsTT", witness=eig.mu, notes=(note,),
                                provenance=("tt-gap",))
    if hi < tt.tail_bound:
        prov = "tt-gap"
        if model.family.is_bound:
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


def _oracle_conformal_witness(model, t):
    if model.family.spectrum is None:
        return None
    spec = stability.function_spectrum(model, 60)
    lich = model.scal / (model.n - 1)
    a, b = second_factor(model.n, model.scal, t)
    for lam in spec:
        if lam == 0 or lam == lich:
            continue
        second = a * lam + b
        if second and (second < 0) == (lam > lich):
            return lam
    return None


def _oracle_conformal_gap_check(model, tau, lambda1_override=None):
    _check_lambda1(lambda1_override)
    t = _exact_tau(tau)
    n = model.n
    R = model.scal
    t2 = tau2(n)

    def fails(note, witness=None, allow_scan=True):
        w = witness
        if w is None and allow_scan:
            w = _oracle_conformal_witness(model, t)
        notes = [note]
        if w is None and allow_scan:
            notes.append("no concrete eigenvalue witness available from the catalog")
        elif w is not None and model.family.is_subset:
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
        return fails(f"tau at or below {t2}: negative leading coefficient, "
                     "the conformal Hessian is negative on all sufficiently "
                     "large eigenvalues")

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


def _oracle_bach_verdict(model):
    def interval_empty(tt, lo, hi):
        if _oracle_known_in(tt, lo, hi) is not None:
            return None if model.family.is_subset else False
        return True if hi < tt.tail_bound else None

    R = model.scal
    t1, t2_ = R / 3, R / 2
    lo, hi = (t1, t2_) if t1 <= t2_ else (t2_, t1)
    e1, e2 = interval_empty(model.tt, t1, t1), interval_empty(model.tt, t2_, t2_)
    rigid = False if False in (e1, e2) else (True if e1 and e2 else None)
    empty = interval_empty(model.tt, lo, hi)
    notes = [f"checked values R/3 = {t1} and R/2 = {t2_} against the TT data"]
    if rigid is None or empty is None:
        notes.append("spectral data insufficient to decide (bound or subset only)")
    return BachVerdict(model.key, rigid, empty, (t1, t2_), tuple(notes))


def _scaled(model, c):
    """The model with R, its TT data and lambda_1 multiplied by c, so that
    every threshold and eigenvalue carries a denominator."""
    tt = model.tt._replace(
        known=tuple(e._replace(mu=c * e.mu) for e in model.tt.known),
        tail_bound=c * model.tt.tail_bound)
    return model._replace(key=f"{model.key}*{c}", scal=c * model.scal, tt=tt,
                          lambda1=None if model.lambda1 is None else c * model.lambda1)


_VERDICT_POOL = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "exact-sweep.json")
    .read_text(encoding="utf-8"))["verdict_pool"].values()
_BREAKPOINTS = {Fraction(t) for pool in _VERDICT_POOL for t in pool["breakpoints"]}
_POOL_TAUS = sorted(_BREAKPOINTS | {Fraction(t) for pool in _VERDICT_POOL
                                    for gap in pool["gaps"] for t in gap})
_ODD_TAUS = [-1 / 3 + 1e-13, -1 / 3 - 1e-13, -0.45, 0.15, 1e-300,
             Fraction(1, 10 ** 400), Fraction(-1, 10 ** 400)]


def _lambda1_choices(model, t):
    """None, 9/2 (exact and float), the model's lambda_1 and the root of
    q_factor when positive, where the conformal check reads lambda_1
    (R < 0, n >= 5); None elsewhere."""
    if not (model.scal < 0 and model.n >= 5):
        return [None]
    out = [None, Fraction(9, 2), 4.5]
    if model.lambda1 is not None:
        out.append(model.lambda1)
    a, b = second_factor(model.n, model.scal, _exact_tau(t))
    if a and -b / a > 0:
        out.append(-b / a)
    return out


def _gap_check_cases(cat, grid=True):
    """(model, tau, full) for every catalog model at every benchmark verdict
    tau, on the 1/240 grid of [-2, 1] and at float taus and 10^-400; and for
    a rescaled copy of each model at the same taus but the grid. full
    marks the benchmark's breakpoints and the odd taus, where the witness
    scan and the JSON are also compared directly."""
    extra = sorted({Fraction(k, 240) for k in range(-480, 241)} - set(_POOL_TAUS)) if grid else []
    models = list(cat.values()) + [_scaled(m, Fraction(7, 5)) for m in cat.values()]
    out = [(m, t, t in _BREAKPOINTS or t in _ODD_TAUS) for m in models for t in _POOL_TAUS + _ODD_TAUS]
    out += [(m, t, False) for m in cat.values() for t in extra]
    out += [(cat["sphere:4"]._replace(tt=None), t, False) for t in _POOL_TAUS[:5]]
    return out


def _outcomes(model, t, full, checks):
    """The gap-check results at (model, t), with the text of any error, by
    checks: the TT check, the conformal check and the witness scan."""
    tt_check, conformal_check, witness = checks

    def run(f, *args):
        try:
            v = f(*args)
        except InsufficientSpectralData as e:
            return ("raises", str(e))
        return (v, _verdict_json(model, t, v)) if full and isinstance(v, StabilityVerdict) else v
    out = [run(tt_check, model, t)]
    if model.tt is None:
        return out
    for lam in _lambda1_choices(model, t):
        out.append(run(conformal_check, model, t, lam))
    if full:
        out.append(run(witness, model, _exact_tau(t)))
    return out


def _oracle_mismatches(monkeypatch, cases):
    """The cases where the checks and the oracle differ. Both read the
    function spectrum through one cache, which only saves time."""
    monkeypatch.setattr(stability, "function_spectrum", functools.lru_cache(function_spectrum))
    got = [_outcomes(*case, (tt_gap_check, conformal_gap_check, _conformal_witness))
           for case in cases]
    oracle = (_oracle_tt_gap_check, _oracle_conformal_gap_check, _oracle_conformal_witness)
    want = [_outcomes(*case, oracle) for case in cases]
    return [(m.key, t) for (m, t, _), a, b in zip(cases, got, want) if a != b]


def test_gap_checks_match_the_fraction_chain_oracle(cat, monkeypatch):
    """Variant, witness, notes, provenance, JSON and error texts are those
    of the Fraction-chain checks, for each lambda_1 choice. The combined
    verdict combines the checks' fields, and the test below compares it.
    Bach verdicts too, on every dimension-four model and a rescaled copy."""
    cases = _gap_check_cases(cat)
    assert len(cases) > 25000
    assert _oracle_mismatches(monkeypatch, cases) == []
    for model in cat.values():
        for m in (model, _scaled(model, Fraction(7, 5))):
            if m.n == 4:
                assert bach_verdict(m) == _oracle_bach_verdict(m), m.key


def _oracle_combined_verdict(model, tau, lambda1_override=None):
    """combined_verdict as it read when it combined the two checks' records."""
    _check_lambda1(lambda1_override)
    tt_v = _oracle_tt_gap_check(model, tau)
    if tt_v.variant == "FailsTT":
        return tt_v
    cf_v = _oracle_conformal_gap_check(model, tau, lambda1_override)
    if cf_v.variant == "FailsConformal":
        return cf_v
    for v in (tt_v, cf_v):
        if v.variant == "Indeterminate":
            return StabilityVerdict("Indeterminate", witness=v.witness,
                                    notes=tt_v.notes + cf_v.notes,
                                    provenance=tt_v.provenance + cf_v.provenance)
    variant = ("StableBoundOnly" if "StableBoundOnly" in (tt_v.variant, cf_v.variant)
               else "StrictlyStable")
    return StabilityVerdict(variant, notes=tt_v.notes + cf_v.notes,
                            provenance=tt_v.provenance + cf_v.provenance)


def test_combined_verdict_matches_the_combined_oracle_checks(cat, monkeypatch):
    """combined_verdict builds its one record from the fields that _tt_gap and
    _conformal_gap return, so the oracle comparison above, which runs the
    checks one at a time, does not reach it. Here it is compared with the
    Fraction-chain checks combined record by record, at every benchmark
    breakpoint and odd tau of every model and rescaled copy, for each
    lambda_1 choice and an impossible one, with the JSON and the type and
    text of any error; every variant occurs."""
    monkeypatch.setattr(stability, "function_spectrum", functools.lru_cache(function_spectrum))

    def run(f, model, t, lam):
        try:
            v = f(model, t, lam)
        except ValueError as e:  # InsufficientSpectralData included
            return type(e), str(e)
        return v, _verdict_json(model, t, v)

    cases = [(m, t) for m, t, full in _gap_check_cases(cat, grid=False) if full or m.tt is None]
    outcomes = [(run(combined_verdict, m, t, lam), run(_oracle_combined_verdict, m, t, lam))
                for m, t in cases for lam in _lambda1_choices(m, t) + [Fraction(0)]]
    assert len(outcomes) > 2000
    assert [pair for pair in outcomes if pair[0] != pair[1]] == []
    seen = {got[0].variant for got, _ in outcomes if isinstance(got[0], StabilityVerdict)}
    assert seen == set(stability.VERDICT_VARIANTS)


@pytest.mark.parametrize("strict", ["lo", "hi"])
def test_oracle_comparison_sees_a_strict_membership_mutant(cat, monkeypatch, strict):
    """With < in place of <= at either end of the membership test, an
    eigenvalue at a root of the TT polynomial is missed, and the oracle
    comparison reports it."""
    def mutant(tt, lo, hi, den):
        def inside(e):
            x, d = e.mu.numerator * den, e.mu.denominator
            return lo * d < x <= hi * d if strict == "lo" else lo * d <= x < hi * d
        eig = next((e for e in tt.known if inside(e)), None)
        return eig, hi * tt.tail_bound.denominator < tt.tail_bound.numerator * den

    monkeypatch.setattr(stability, "_tt_meets", mutant)
    cases = [case for case in _gap_check_cases(cat, grid=False) if case[1] in _BREAKPOINTS]
    assert _oracle_mismatches(monkeypatch, cases)


def test_rigidity_taus_are_tt_gap_contacts(cat):
    """At each exceptional tau a known eigenvalue sits in the forbidden
    interval, so the TT check does not pass there."""
    for model in cat.values():
        if model.scal == 0 or not model.tt.known:
            continue
        for e in rigidity_exceptional_taus(model, count=50).exceptional:
            v = tt_gap_check(model, e.tau)
            assert v.variant in ("FailsTT", "Indeterminate") and v.witness is not None, \
                (model.key, e.tau)


def _fraction_news(call) -> int:
    prof = cProfile.Profile()
    prof.runcall(call)
    return sum(calls for (path, _, name), (_, calls, *_rest) in pstats.Stats(prof).stats.items()
               if name == "__new__" and path.endswith("fractions.py"))


def test_verdicts_build_fractions_only_for_what_they_return(cat, monkeypatch):
    """A verdict decides on integer numerators: it builds no Fraction beyond
    the function spectrum that a witness scan reads (the Fraction-chain
    checks built 9 and 8 for the first two verdicts, and the lambda_1
    branch built 4 when it read the second factor through Fractions), and
    the scan still looks function_spectrum up on qcf.stability, where the
    benchmark's tracer wraps it."""
    for key, tau, lam, variant, most in (
            ("sphere:6", Fraction(-1, 5), None, "StrictlyStable", 2),
            ("hyperbolic:5", Fraction(-11, 40), None, "Indeterminate", 2),
            ("hyperbolic:5", Fraction(-1, 6), Fraction(9, 2), "StableBoundOnly", 0),
            ("hyperbolic:5", Fraction(-1, 6), Fraction(1, 10), "FailsConformal", 0),
            ("sphere:7", Fraction(-1, 3), None, "FailsConformal", None)):
        model = cat[key]
        assert combined_verdict(model, tau, lam).variant == variant
        if most is None:
            most = _fraction_news(lambda: function_spectrum(model, 60))
        assert _fraction_news(lambda: combined_verdict(model, tau, lam)) <= most, (key, lam)
    scans = []
    monkeypatch.setattr(stability, "function_spectrum",
                        lambda model, count: scans.append(count) or function_spectrum(model, count))
    combined_verdict(cat["sphere:7"], Fraction(-1, 3))
    assert scans == [60]


def _python_calls(f, *args) -> int:
    """Python-level function calls of f(*args) under cProfile, f included
    (built-ins, which the profile files under '~', are not counted)."""
    prof = cProfile.Profile()
    prof.runcall(f, *args)
    return sum(calls for (path, _, _), (_, calls, *_rest) in pstats.Stats(prof).stats.items()
               if path != "~")


def test_plain_verdicts_make_few_python_calls(cat):
    """A verdict that needs no witness scan builds one record, through a
    __new__ that takes the fields by name, and scans the known TT
    eigenvalues in a plain loop; the conformal check reads its ladder row,
    resolved once per dimension (the first verdict below warms it), and
    the lambda_1 branch reads the sign of the second factor on integers,
    as the witness scan does. The bounds are the calls made on Python
    3.11. The gap checks that built three
    records through super().__new__(cls, *args, **kwargs), with a
    generator over the known eigenvalues and two closures per conformal
    check, made 32, 28 and 30, and a constructor with *args and **kwargs
    alone adds one call per record; the lambda_1 branch made 58 and 61
    when it evaluated the second factor in Fractions."""
    for key, tau, lam, variant, most in (
            ("sphere:6", Fraction(-1, 5), None, "StrictlyStable", 21),
            ("hyperbolic:3", Fraction(0), None, "StableBoundOnly", 19),
            ("hyperbolic:5", Fraction(-11, 40), None, "Indeterminate", 20),
            ("hyperbolic:5", Fraction(-1, 6), Fraction(9, 2), "StableBoundOnly", 30),
            ("hyperbolic:5", Fraction(-1, 6), Fraction(1, 10), "FailsConformal", 30)):
        model = cat[key]
        assert combined_verdict(model, tau, lam).variant == variant
        assert _python_calls(combined_verdict, model, tau, lam) <= most, (key, lam)


def test_conformal_lower_endpoints_are_where_the_conformal_check_starts_to_pass(cat):
    """Where an interval's lower endpoint comes from the conformal side, the
    conformal check is not StrictlyStable at it and is StrictlyStable just
    above it. Every model but hyperbolic:5..8, whose lower endpoint is a TT
    contact, has one; the tori, which the interval property tests skip,
    included."""
    conformal = []
    for key, model in cat.items():
        iv = stability_interval(model)
        if "conformal" not in iv.lo_provenance:
            continue
        conformal.append(key)
        at = conformal_gap_check(model, iv.lo).variant
        above = conformal_gap_check(model, iv.lo + Fraction(1, 10**9)).variant
        assert at != "StrictlyStable" and above == "StrictlyStable", (key, at, above)
    assert sorted(set(cat) - set(conformal)) == [f"hyperbolic:{n}" for n in range(5, 9)]
