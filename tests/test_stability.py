"""Gap checks, stability intervals, rigidity lists, Bach and volume verdicts."""

import math
from fractions import Fraction

import pytest

from qcf.catalog import builtin_catalog
from qcf.rational import tau1, tau2
from qcf.stability import (
    InsufficientSpectralData,
    StabilityVerdict,
    TauInterval,
    bach_verdict,
    combined_verdict,
    conformal_gap_check,
    interval_to_json,
    reverse_bishop,
    rigidity_exceptional_taus,
    stability_interval,
    tt_gap_check,
    verdict_to_json,
)


@pytest.fixture(scope="module")
def cat():
    return builtin_catalog()


def test_verdict_invariants():
    with pytest.raises(ValueError, match="witness"):
        StabilityVerdict("FailsTT")
    with pytest.raises(ValueError, match="unknown verdict"):
        StabilityVerdict("Wobbly")
    assert StabilityVerdict("StableBoundOnly").passes
    assert not StabilityVerdict("Indeterminate").passes


def test_interval_contains():
    iv = TauInterval(Fraction(-1, 3), Fraction(1, 6), hi_open=False)
    assert not iv.contains(Fraction(-1, 3))
    assert iv.contains(Fraction(0))
    assert iv.contains(Fraction(1, 6))
    assert not iv.contains(Fraction(1, 5))
    unbounded = TauInterval(Fraction(0), None)
    assert unbounded.contains(Fraction(1000))
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


def test_combined_verdict_skips_conformal_side_after_tt_failure(cat, monkeypatch):
    def no_scan(model, count):
        raise AssertionError("conformal witness scan ran after a TT failure")

    monkeypatch.setattr("qcf.stability.function_spectrum", no_scan)
    v = combined_verdict(cat["torus:4"], Fraction(-1))
    assert (v.variant, v.witness) == ("FailsTT", 0)


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


def test_interval_membership_agrees_with_verdicts(cat):
    """Spot check: inside the interval the combined verdict passes."""
    for key in ("sphere:4", "cp:3", "product:2", "hyperbolic:5"):
        model = cat[key]
        iv = stability_interval(model)
        hi = iv.hi if iv.hi is not None else iv.lo + 1
        mid = (iv.lo + hi) / 2
        assert iv.contains(mid)
        assert combined_verdict(model, mid).passes


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
    vol_g = 2.0 * math.pi**2
    lower = 12.0 * vol_g ** (4.0 / 3.0)
    d = reverse_bishop(vol_g, 3, vol_g, True, True, lower)
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
    close = 1 - 1.2e-9  # below vol_g beyond rel_tol, within the bounds' tolerance
    return [
        (2.0, 1.0, (bound(2.0) + bound(1.0)) / 2, "Inconclusive"),  # vol_gt < vol_g
        (1.0, 1.5, (bound(1.0) + bound(1.5)) / 2, "VolumeAtLeast"),
        (1.0, 1.5, bound(1.0) / 2, "Inconclusive"),
        (1.0, 1.5, bound(1.5) * 2, "Inconclusive"),
        (0.75, 0.75, bound(0.75), "EqualityRigidity"),
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
])
def test_reverse_bishop_bounds_out_of_float_range_are_inconclusive(vol_g, vol_gt, n, ftilde0):
    d = reverse_bishop(vol_g, n, vol_gt, True, True, ftilde0)
    assert d.conclusion == "Inconclusive"


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
    obj = interval_to_json(model, iv)
    assert obj["model"] == "sphere:4"
    assert obj["lo"] == "-1/3" and obj["hi"] == "1/6"
    assert obj["provenance"]["lo"]

    v = combined_verdict(model, Fraction(1, 100))
    obj = verdict_to_json(model, Fraction(1, 100), v)
    assert obj["tau"] == {"num": 1, "den": 100}
    assert obj["verdict"] == "StrictlyStable"
    assert obj["witness"] is None

    v = combined_verdict(cat["product:2"], Fraction(0))
    obj = verdict_to_json(cat["product:2"], Fraction(0), v)
    assert obj["witness"] == "4"
