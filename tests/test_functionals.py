"""Functional evaluation, explicit curves, and derivative estimation."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qcf import functionals, homogeneous
from qcf.catalog import builtin_catalog
from qcf.functionals import (
    CSV_HEADER,
    DerivativeEstimate,
    FunctionalSelector,
    IllConditionedDerivativeError,
    R_FUNCTIONAL,
    S_FUNCTIONAL,
    W_FUNCTIONAL,
    berger_critical_points,
    berger_curve,
    berger_curve_from_geometry,
    curve_derivatives,
    evaluate,
    format_float,
    product_sphere_curve,
    sweep_csv,
)


def test_selector_validation():
    with pytest.raises(ValueError, match="needs tau"):
        FunctionalSelector("ftau")
    with pytest.raises(ValueError, match="unknown functional"):
        FunctionalSelector("x")
    assert FunctionalSelector.ftau(Fraction(-1, 3)).has_degenerate_symbol(4)
    assert not FunctionalSelector.ftau(Fraction(-1, 3)).has_degenerate_symbol(5)
    assert not S_FUNCTIONAL.has_degenerate_symbol(4)


def test_evaluate_against_hand_values():
    cat = builtin_catalog()
    cd = cat["sphere:4"].curvature_data()
    vol = Fraction(1)
    assert evaluate(S_FUNCTIONAL, cd, vol) == 144
    assert evaluate(W_FUNCTIONAL, cd, vol) == 0
    assert evaluate(R_FUNCTIONAL, cd, vol) == 24
    assert evaluate(FunctionalSelector.ftau(Fraction(1, 2)), cd, vol) == 36 + 72
    with pytest.raises(ValueError, match="volume"):
        evaluate(S_FUNCTIONAL, cd, 0)


def _ftau_data(exact: bool):
    if exact:
        return builtin_catalog()["product:2"].curvature_data(), Fraction(3), Fraction(-1, 3)
    sc, g = homogeneous.su2_plus_r(), np.diag([1.0, 2.0, 1.0, 3.0])
    return homogeneous.curvature(sc, g), homogeneous.volume(sc, g, 1.0), -1 / 3


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_ftau_contracts_only_the_ricci_tensor(monkeypatch, exact):
    """F_tau reads |Ric|^2 and R^2 alone: one evaluation makes one
    tensor_norm2 call (no rank-four |Rm|^2) and returns, bit for bit, the
    value built from the full invariants."""
    from qcf import tensor_core

    cd, vol, tau = _ftau_data(exact)
    inv = cd.invariants()
    expected = vol * (inv["ric2"] + tau * inv["scal2"])
    calls = []
    norm2 = tensor_core.tensor_norm2

    def counted(*args):
        calls.append(args[1].shape)
        return norm2(*args)

    monkeypatch.setattr(tensor_core, "tensor_norm2", counted)
    got = evaluate(FunctionalSelector.ftau(tau), cd, vol)
    assert calls == [(4, 4)]
    assert repr(got) == repr(expected)
    calls.clear()
    assert repr(evaluate(S_FUNCTIONAL, cd, vol)) == repr(vol * inv["scal2"])
    assert calls == []


def test_normalized_evaluate_is_scale_invariant():
    sc = homogeneous.su2()
    sel = FunctionalSelector.ftau(0.3)
    g = np.diag([0.7, 1.1, 1.9])
    vals = []
    for lam in (1.0, 0.25, 7.3):
        cd = homogeneous.curvature(sc, lam * g)
        vol = homogeneous.volume(sc, lam * g, homogeneous.SU2_REFERENCE_VOLUME)
        vals.append(evaluate(sel, cd, vol, normalized=True))
    assert vals[1] == pytest.approx(vals[0], rel=1e-12)
    assert vals[2] == pytest.approx(vals[0], rel=1e-12)


def test_berger_curve_round_point_values():
    for tau in (0.0, Fraction(1, 3), -0.4):
        assert berger_curve(tau, 1.0) == pytest.approx(12 + 36 * float(tau), rel=1e-14)
    assert berger_curve(0, 0.5) == pytest.approx(9.822044009053235, rel=1e-15)
    with pytest.raises(ValueError, match="positive"):
        berger_curve(0.0, -1.0)


def test_berger_dual_route_cross_check():
    """Closed form against the structure-constant curvature route."""
    rng = np.random.default_rng(19)
    for tau in (Fraction(0), Fraction(1, 3), Fraction(-2, 5), 0.7):
        for s in rng.uniform(0.3, 1.9, size=5):
            closed = berger_curve(tau, s)
            geom = berger_curve_from_geometry(tau, s)
            assert geom == pytest.approx(closed, rel=1e-10)


def test_berger_unnormalized_geometry_route():
    val = berger_curve_from_geometry(Fraction(0), 1.0, normalized=False)
    assert val == pytest.approx(12.0 * 2.0 * math.pi**2, rel=1e-12)


def test_berger_critical_points_exact():
    pts = berger_critical_points(Fraction(1, 3))
    assert len(pts) == 1
    assert pts[0].s_squared == 1 and pts[0].multiplicity == 2

    pts = berger_critical_points(Fraction(-2, 5))
    assert [p.s_squared for p in pts] == [Fraction(2, 13), Fraction(1)]
    assert pts[0].s == pytest.approx(math.sqrt(2.0 / 13.0))

    pts = berger_critical_points(Fraction(0))
    assert [p.s_squared for p in pts] == [Fraction(2, 3), Fraction(1)]

    # the secondary root leaves through zero at tau = -1/2
    assert [p.s_squared for p in berger_critical_points(Fraction(-1, 2))] == [1]

    with pytest.raises(ValueError, match="tau = -3"):
        berger_critical_points(Fraction(-3))


def test_berger_critical_points_float_route():
    pts = berger_critical_points(-0.4)
    assert min(abs(p.s_squared - 2.0 / 13.0) for p in pts) < 1e-12


def test_critical_points_are_curve_critical():
    for tau in (Fraction(0), Fraction(-2, 5), Fraction(1, 5)):
        for p in berger_critical_points(tau):
            d1 = curve_derivatives(lambda s: berger_curve(tau, s), p.s,
                                   max_order=1)[0]
            assert abs(d1.value) < 1e-7


def test_product_curve_values():
    assert product_sphere_curve(0.0, 0.0) == pytest.approx(64.0 * math.pi**2, rel=1e-12)
    target = -64.0 * math.pi**2
    for t in (-1.0, -0.3, 0.0, 0.8):
        assert product_sphere_curve(Fraction(-1, 2), t) == pytest.approx(target, rel=1e-10)


def test_product_curve_even_in_t():
    """Swapping the factors is an isometry, so the curve is even."""
    for tau in (0.0, 0.25):
        for t in (0.3, 1.1):
            a = product_sphere_curve(tau, t)
            b = product_sphere_curve(tau, -t)
            assert a == pytest.approx(b, rel=1e-12)
        d1 = curve_derivatives(lambda t: product_sphere_curve(tau, t), 0.0,
                               max_order=1)[0]
        assert abs(d1.value) < 1e-8


def test_derivatives_match_closed_forms():
    ests = curve_derivatives(lambda s: berger_curve(Fraction(0), s), 1.0)
    assert [e.order for e in ests] == [1, 2, 3]
    d1, d2, d3 = ests
    assert abs(d1.value) < 1e-8
    assert d2.value == pytest.approx(128.0 / 3.0, rel=1e-7)
    # error estimates bracket the true defects
    assert abs(d2.value - 128.0 / 3.0) < 100 * d2.error + 1e-9
    assert isinstance(d3, DerivativeEstimate)


def test_derivatives_third_order_at_degenerate_tau():
    ests = curve_derivatives(lambda s: berger_curve(Fraction(1, 3), s), 1.0)
    assert abs(ests[1].value) < 1e-6
    assert ests[2].value == pytest.approx(5120.0 / 9.0, rel=1e-3)


def test_curve_derivatives_input_validation():
    with pytest.raises(ValueError, match="max_order"):
        curve_derivatives(math.sin, 0.0, max_order=4)
    with pytest.raises(ValueError, match="levels"):
        curve_derivatives(math.sin, 0.0, levels=1)
    with pytest.raises(IllConditionedDerivativeError):
        curve_derivatives(math.sin, 1.0, base_step=1e-12)


def test_format_float_round_trips():
    rng = np.random.default_rng(23)
    for x in rng.standard_normal(50) * 10.0 ** rng.integers(-8, 9, size=50):
        assert float(format_float(float(x))) == float(x)


def test_sweep_csv_shape():
    rows = [
        (0.5, 1.25, [DerivativeEstimate(1, 2.0, 1e-9)]),
        (1.0, 2.5, []),
    ]
    text = sweep_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "0.5,1.25,2,,,1.0000000000000001e-09,,"
    assert lines[2] == "1,2.5,,,,,,"
    assert text.endswith("\n")
