"""Functional evaluation, explicit curves, and derivative estimation."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from qcf import homogeneous
from qcf.catalog import builtin_catalog
from qcf.functionals import (
    CSV_HEADER,
    DerivativeEstimate,
    IllConditionedDerivativeError,
    berger_critical_points,
    berger_curve,
    berger_curve_from_geometry,
    curve_derivatives,
    evaluate,
    format_float,
    product_sphere_curve,
    sweep_csv,
)
from qcf.rational import parse_ratio


def test_evaluate_against_hand_values():
    """Unit round S^4 at volume 1: |Ric|^2 = 36, R^2 = 144, |W|^2 = 0 and
    |Rm|^2 = 24, the last three read from the curvature invariants."""
    cd = builtin_catalog()["sphere:4"].curvature_data()
    vol = Fraction(1)
    inv = cd.invariants()
    assert (vol * inv["scal2"], vol * inv["weyl2"], vol * inv["rm2"]) == (144, 0, 24)
    assert evaluate(Fraction(1, 2), cd, vol) == 36 + 72
    with pytest.raises(ValueError, match="volume"):
        evaluate(Fraction(1, 2), cd, 0)


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
    got = evaluate(tau, cd, vol)
    assert calls == [(4, 4)]
    assert repr(got) == repr(expected)


def test_normalized_evaluate_is_scale_invariant():
    sc = homogeneous.su2()
    g = np.diag([0.7, 1.1, 1.9])
    vals = []
    for lam in (1.0, 0.25, 7.3):
        cd = homogeneous.curvature(sc, lam * g)
        vol = homogeneous.volume(sc, lam * g, homogeneous.SU2_REFERENCE_VOLUME)
        vals.append(evaluate(0.3, cd, vol, normalized=True))
    assert vals[1] == pytest.approx(vals[0], rel=1e-12)
    assert vals[2] == pytest.approx(vals[0], rel=1e-12)


def test_berger_curve_round_point_values():
    for tau in (0.0, Fraction(1, 3), -0.4):
        assert berger_curve(tau, [1.0]) == [pytest.approx(12 + 36 * float(tau), rel=1e-14)]
    assert berger_curve(0, [0.5]) == [pytest.approx(9.822044009053235, rel=1e-15)]
    assert berger_curve(Fraction(1, 7), []) == []
    with pytest.raises(ValueError, match="positive"):
        berger_curve(0.0, [1.0, -1.0])


def test_berger_dual_route_cross_check():
    """Closed form against the structure-constant curvature route."""
    rng = np.random.default_rng(19)
    for tau in (Fraction(0), Fraction(1, 3), Fraction(-2, 5), 0.7):
        ss = rng.uniform(0.3, 1.9, size=5)
        for s, closed in zip(ss, berger_curve(tau, ss)):
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
        pts = berger_critical_points(tau)
        ests = curve_derivatives(lambda s: berger_curve(tau, s), [p.s for p in pts],
                                 max_order=1)
        assert len(ests) == len(pts) and all(abs(d1.value) < 1e-7 for (d1,) in ests)


def test_product_curve_values():
    assert product_sphere_curve(0.0, [0.0]) == [pytest.approx(64.0 * math.pi**2, rel=1e-12)]
    target = -64.0 * math.pi**2
    for v in product_sphere_curve(Fraction(-1, 2), [-1.0, -0.3, 0.0, 0.8]):
        assert v == pytest.approx(target, rel=1e-10)


def test_product_curve_even_in_t():
    """Swapping the factors is an isometry, so the curve is even."""
    for tau in (0.0, 0.25):
        a = product_sphere_curve(tau, [0.3, 1.1])
        b = product_sphere_curve(tau, [-0.3, -1.1])
        assert a == pytest.approx(b, rel=1e-12)
        [[d1]] = curve_derivatives(lambda t: product_sphere_curve(tau, t), [0.0],
                                   max_order=1)
        assert abs(d1.value) < 1e-8


def test_derivatives_match_closed_forms():
    [ests] = curve_derivatives(lambda s: berger_curve(Fraction(0), s), [1.0])
    assert [e.order for e in ests] == [1, 2, 3]
    d1, d2, d3 = ests
    assert abs(d1.value) < 1e-8
    assert d2.value == pytest.approx(128.0 / 3.0, rel=1e-7)
    # error estimates bracket the true defects
    assert abs(d2.value - 128.0 / 3.0) < 100 * d2.error + 1e-9
    assert isinstance(d3, DerivativeEstimate)


def test_derivatives_third_order_at_degenerate_tau():
    [ests] = curve_derivatives(lambda s: berger_curve(Fraction(1, 3), s), [1.0])
    assert abs(ests[1].value) < 1e-6
    assert ests[2].value == pytest.approx(5120.0 / 9.0, rel=1e-3)


def test_curve_derivatives_input_validation():
    sin = lambda xs: [math.sin(x) for x in xs]
    with pytest.raises(ValueError, match="max_order"):
        curve_derivatives(sin, [0.0], max_order=4)
    with pytest.raises(ValueError, match="levels"):
        curve_derivatives(sin, [0.0], levels=1)
    with pytest.raises(IllConditionedDerivativeError):
        curve_derivatives(sin, [1.0], base_step=1e-12)
    with pytest.raises(IllConditionedDerivativeError, match="at s0 = 100.0"):
        curve_derivatives(sin, [0.5, 100.0], base_step=1e-9)
    assert curve_derivatives(sin, []) == []


def test_curve_derivatives_errors_keep_point_order():
    """One curve call covers the whole sweep, yet errors come out as a
    point-by-point loop would raise them: a point that fails to evaluate
    before a later ill-conditioned one raises its own error, and an
    ill-conditioned point stops the sweep before later points are evaluated."""
    def curve(xs):
        if any(x > 500 for x in xs):
            raise OverflowError("evaluated past 500")
        return [x * x for x in xs]

    with pytest.raises(OverflowError):
        curve_derivatives(curve, [800.0, 1e9], max_order=1)
    with pytest.raises(IllConditionedDerivativeError, match="s0 = 1000000000.0"):
        curve_derivatives(curve, [1.0, 1e9, 800.0], max_order=1)


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


# ---------------------------------------------------------------------------
# bitwise oracle: the per-point evaluation and differentiation that the
# batched sweep replaced, and the dense product-sphere route that the
# scalar loop replaced, kept here as the reference they must reproduce
# bit for bit

BERGER_TAUS = ("-1/2", "-1/5", "0", "1/7", "1/3", "1/2", "3/4", "1")
PRODUCT_TAUS = ("-1", "-1/2", "-1/3", "0", "1/6", "1/3", "1/2", "1")

_ORACLE_STENCILS = {
    1: ((-2, -1, 1, 2), (1.0, -8.0, 8.0, -1.0), 1, 4),
    2: ((-2, -1, 0, 1, 2), (-1.0, 16.0, -30.0, 16.0, -1.0), 2, 4),
    3: ((-2, -1, 1, 2), (-1.0, 2.0, -2.0, 1.0), 3, 2),
}
_ORACLE_DENOM = {1: 12.0, 2: 12.0, 3: 2.0}


def _oracle_berger(tau, s):
    if not s > 0:
        raise ValueError("Berger parameter s must be positive")
    x = float(s) ** 2
    poly = 32 * (1 + 2 * tau) - 32 * (1 + tau) * x + 4 * (3 + tau) * x * x
    return float(s) ** (4.0 / 3.0) * float(poly)


def _oracle_product(tau, t):
    return _oracle_product_taus([tau], t)[0]


def _oracle_product_taus(taus, t):
    """The dense route at t: Kulkarni-Nomizu curvature and CurvatureData,
    built once and evaluated at each tau in turn."""
    from qcf.tensor_core import CurvatureData, kulkarni_nomizu

    a2 = math.exp(float(t))
    b2 = math.exp(-float(t))
    g = np.diag([a2, a2, b2, b2])
    ga = np.diag([a2, a2, 0.0, 0.0])
    gb = np.diag([0.0, 0.0, b2, b2])
    rm = kulkarni_nomizu(ga, ga) / (2.0 * a2) + kulkarni_nomizu(gb, gb) / (2.0 * b2)
    cd = CurvatureData(4, g, rm)
    vol = 16.0 * math.pi**2 * a2 * b2
    return [float(evaluate(tau, cd, vol, normalized=True))
            for tau in taus]


def _oracle_richardson(samples, p0):
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


def _oracle_derivatives(curve, s0, max_order=3, base_step=1e-2, levels=8):
    s0 = float(s0)
    h_min = base_step / 2.0 ** (levels - 1)
    if s0 + 2 * h_min == s0 or h_min <= 1e-13 * max(1.0, abs(s0)):
        raise IllConditionedDerivativeError(f"step {h_min} underflows at s0 = {s0}")
    steps = [base_step / 2.0**k for k in range(levels)]
    cache = {}

    def f(x):
        if x not in cache:
            cache[x] = float(curve(x))
        return cache[x]

    out = []
    for order in range(1, max_order + 1):
        offsets, weights, hpow, p0 = _ORACLE_STENCILS[order]
        samples = []
        for h in steps:
            acc = 0.0
            for o, w in zip(offsets, weights):
                acc += w * f(s0 + o * h)
            samples.append(acc / (_ORACLE_DENOM[order] * h**hpow))
        out.append(_oracle_richardson(samples, p0))
    return out


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _assert_bitwise(family, tau, points, max_order=3, **steps):
    """value, d1..d_max_order and their errors of the batched sweep equal
    the per-point oracle's bit for bit (NaN and the sign of zero included)."""
    batched, oracle = {"berger": (berger_curve, _oracle_berger),
                       "product": (product_sphere_curve, _oracle_product)}[family]
    with np.errstate(all="ignore"):
        values = batched(tau, points)
        ests = curve_derivatives(lambda xs: batched(tau, xs), points, max_order, **steps)
        want = [[_bits(oracle(tau, p))]
                + [_bits(x) for est in _oracle_derivatives(lambda x: oracle(tau, x), p,
                                                           max_order, **steps)
                   for x in est]
                for p in points]
    got = [[_bits(v)] + [_bits(x) for e in es for x in (e.value, e.error)]
           for v, es in zip(values, ests)]
    assert [e.order for e in ests[0]] == list(range(1, max_order + 1))
    bad = [(p, g, w) for p, g, w in zip(points, got, want) if g != w]
    assert bad == [], f"{len(bad)} of {len(points)} points differ, first {bad[0]}"


@pytest.mark.parametrize("tau", BERGER_TAUS)
def test_berger_sweep_matches_per_point_oracle_bitwise(tau):
    """The benchmark's Berger sweep: 1000 points on the default [0.2, 2]."""
    _assert_bitwise("berger", parse_ratio(tau),
                    [float(p) for p in np.linspace(0.2, 2.0, 1000)])


@pytest.mark.parametrize("tau", PRODUCT_TAUS)
def test_product_sweep_matches_per_point_oracle_bitwise(tau):
    """The benchmark's product sweep: 30 points on the default [-1, 1]."""
    _assert_bitwise("product", parse_ratio(tau),
                    [float(p) for p in np.linspace(-1.0, 1.0, 30)])


@pytest.mark.parametrize("max_order", [1, 2, 3])
@pytest.mark.parametrize("family,points", [
    # just inside s - 2 base_step > 0, and just below the conditioning limit
    ("berger", [math.nextafter(0.02, 1.0), 0.0200001, 0.021, 7.8e8]),
    # stencils next to exp overflow and next to overflow of the value
    # (t ~ 351): table entries go inf or nan, the non-finite fallback of
    # the error estimate decides
    ("product", [-709.76, -351.0, -350.0, -1e-300, 0.0, 349.0, 351.0, 709.76]),
])
def test_sweep_edges_match_per_point_oracle_bitwise(family, points, max_order):
    for tau in (Fraction(-1, 3), Fraction(1, 7)):
        _assert_bitwise(family, tau, points, max_order)


@pytest.mark.parametrize("family,points", [
    ("berger", [0.0031, 0.5, 1.0, 1.7]),
    ("product", [-1.0, 0.0, 0.4]),
])
def test_short_steps_match_per_point_oracle_bitwise(family, points):
    """base_step=1e-3 with six levels, as the gradient property test uses."""
    _assert_bitwise(family, Fraction(1, 3), points, base_step=1e-3, levels=6)


# ---------------------------------------------------------------------------
# the scalar product curve against the dense route, point by point

def _outcome(fn, *args):
    """A float result's bits, or the type and text of what it raised."""
    try:
        return _bits(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _product_outcome(tau, t):
    return _outcome(lambda: product_sphere_curve(tau, [t])[0])


def test_product_curve_matches_dense_oracle_bitwise():
    """20,000 seeded t on the benchmark's range, with its stencils, and the
    integer grid out to |t| = 720, where a^2 and b^2 overflow (the dense
    route turns that into NaN) and exp overflows (OverflowError): every
    value has the dense route's bits and every error its type and text."""
    rng = np.random.default_rng(10)
    ts = rng.uniform(-1.05, 1.05, 20000).tolist() + [float(k) for k in range(-720, 721)]
    taus = [parse_ratio(tau) for tau in PRODUCT_TAUS]
    bad = []
    for t in ts:
        try:
            with np.errstate(all="ignore"):
                want = [_bits(v) for v in _oracle_product_taus(taus, t)]
        except OverflowError as exc:  # from exp, whatever tau is
            want = [("OverflowError", str(exc))] * len(taus)
        bad += [(tau, t) for tau, w in zip(taus, want) if _product_outcome(tau, t) != w]
    assert bad == [], f"{len(bad)} differ, first {bad[0]}"


EDGE_T = (math.nan, 709.78, -709.78, 709.79, -709.79, 1e308, -1e308)


@pytest.mark.parametrize("tau", PRODUCT_TAUS + ("1e400",))
def test_product_curve_edges_match_dense_oracle(tau):
    """NaN, the last t before exp overflows and the first after, and huge t,
    with tau = 1e400 too: NaN fails the volume check before tau overflows a
    float, as in the dense route."""
    tau = parse_ratio(tau)
    for t in EDGE_T:
        with np.errstate(all="ignore"):
            want = _outcome(_oracle_product, tau, t)
        assert _product_outcome(tau, t) == want, t


@pytest.mark.parametrize("t", [math.inf, -math.inf])
def test_infinite_t_fails_the_volume_check(t):
    """At t = +-inf one factor has scale 0 and Vol = inf * 0 is NaN. The loop
    stops at the volume check, before it would divide by zero; the dense route
    stops one step earlier, inverting the singular metric (numpy's
    LinAlgError, also a ValueError). The CLI reaches neither: its grids are
    finite."""
    assert _product_outcome(Fraction(1, 3), t) == ("ValueError", "volume must be positive")
    with np.errstate(all="ignore"):
        assert _outcome(_oracle_product, Fraction(1, 3), t)[0] == "LinAlgError"


@pytest.mark.parametrize("tau,ts,expected", [
    # the first point's checks come before tau is converted to float
    ("1e400", [math.nan, 0.0], ("ValueError", "volume must be positive")),
    ("1e400", [0.0, math.nan], ("OverflowError",)),
    ("0", [0.0, 800.0, math.nan], ("OverflowError", "math range error")),
    ("0", [0.0, math.nan, 800.0], ("ValueError", "volume must be positive")),
])
def test_product_curve_fails_at_the_first_failing_point(tau, ts, expected):
    """A sweep raises what the point-by-point dense route raises first."""
    tau = parse_ratio(tau)
    got = _outcome(lambda: product_sphere_curve(tau, ts)[-1])
    assert got[:len(expected)] == expected
    with np.errstate(all="ignore"):
        want = next(o for o in (_outcome(_oracle_product, tau, t) for t in ts)
                    if isinstance(o, tuple))
    assert got == want
