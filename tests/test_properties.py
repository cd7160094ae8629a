"""Property-based suites: invariants that must hold on random inputs."""

from fractions import Fraction

import numpy as np
import pytest
from conftest import berger_curve_from_geometry, contains, passes, with_tt_eigenvalue
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcf import homogeneous
from qcf.catalog import builtin_catalog, validate_model
from qcf.rational import (
    conformal_polynomial,
    conformal_s_polynomial,
    format_ratio,
    parse_ratio,
    tt_jacobi,
)
from qcf.spectral import gauged_symbol
from qcf.stability import InsufficientSpectralData, combined_verdict, stability_interval
from qcf.tensor_core import (check_curvature_symmetries, decompose, quadratic_invariants,
                             tensor_norm2)

diag_entries = st.floats(min_value=0.5, max_value=2.0,
                         allow_nan=False, allow_infinity=False)
unit_entries = st.floats(min_value=-1.0, max_value=1.0,
                         allow_nan=False, allow_infinity=False)
small_fractions = st.fractions(min_value=Fraction(-40), max_value=Fraction(40),
                               max_denominator=12)
unit_fractions = st.fractions(min_value=Fraction(1, 100),
                              max_value=Fraction(99, 100), max_denominator=100)


@settings(max_examples=40, deadline=None)
@given(st.lists(diag_entries, min_size=3, max_size=3), st.booleans())
def test_curvature_symmetries_and_quadratic_identity(entries, four_dim):
    """Any invariant metric satisfies the algebraic symmetries and the
    pointwise identity (n-2)/4 (|Rm|^2 - |W|^2) = |Ric|^2 - R^2/(2(n-1))."""
    sc = homogeneous.su2_plus_r() if four_dim else homogeneous.su2()
    diag = entries + [1.3] if four_dim else entries
    g = np.diag(diag)
    cd = homogeneous.curvature(sc, g)
    check_curvature_symmetries(cd.rm, tol=1e-10)
    inv = quadratic_invariants(g, cd.rm)
    # |W|^2 by the tensor route: the closed-form weyl2 makes the identity hold by construction
    weyl2 = tensor_norm2(cd.g_inv, decompose(g, cd.rm)[0])
    n = sc.n
    lhs = (n - 2) / 4.0 * (inv["rm2"] - weyl2)
    rhs = inv["ric2"] - inv["scal"] ** 2 / (2.0 * (n - 1))
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=3, max_value=8), small_fractions,
       small_fractions, small_fractions)
def test_tt_polynomial_factorizes_exactly(n, scal, tau, mu):
    lhs = tt_jacobi(n, scal, tau, mu)
    rhs = Fraction(1, 2) * (2 * scal / n - mu) * ((Fraction(4, n) + 2 * tau) * scal - mu)
    assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=3, max_value=8), small_fractions,
       small_fractions, small_fractions)
def test_conformal_polynomial_factorizes_exactly(n, scal, tau, lam):
    lhs = conformal_polynomial(n, scal, tau)(lam)
    rhs = Fraction(1, 2 * n) * ((n - 1) * lam - scal) * (
        n * (n - 4 * tau + 4 * n * tau) * lam + 2 * (n - 4) * (1 + n * tau) * scal)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=3, max_value=8), small_fractions, small_fractions)
def test_s_polynomial_is_the_tau_slope(n, scal, lam):
    """The scalar-curvature functional is the formal tau -> infinity limit:
    p_{tau+1} - p_tau must equal the S-functional polynomial, exactly."""
    for t0 in (Fraction(0), Fraction(-3, 7)):
        diff = (conformal_polynomial(n, scal, t0 + 1)(lam)
                - conformal_polynomial(n, scal, t0)(lam))
        assert diff == conformal_s_polynomial(n, scal)(lam)


def _first_variation_defect(sc, g, h, tau) -> float:
    """|F'(g)h - Vol(g) <grad F, h>_g| / max(1, |Vol <grad F, h>|).

    F'(g)h is the 5-point central difference of functional_value at step
    1e-4, which needs no connection derivative; the pairing goes through
    gradient_F and so through Delta Ric. Both algebras are compact groups
    (SU(2), SU(2) x S^1), where the identity holds for every invariant
    g and h.
    """
    vol_ref = homogeneous.SU2_REFERENCE_VOLUME

    def f(t: float) -> float:
        return homogeneous.functional_value(sc, g + t * h, tau, vol_ref)

    e = 1e-4
    d1 = (f(-2 * e) - 8 * f(-e) + 8 * f(e) - f(2 * e)) / (12 * e)
    grad = homogeneous.gradient_F(sc, g, tau)
    vol = homogeneous.volume(sc, g, vol_ref)
    g_inv = np.linalg.inv(g)
    pairing = vol * float(np.einsum("ip,jq,ij,pq->", g_inv, g_inv, grad, h))
    return abs(d1 - pairing) / max(1.0, abs(pairing))


def _spd(a: list, d: list) -> np.ndarray:
    """The full SPD metric a a^T + diag(d) from n*n entries a and a diagonal d."""
    n = len(d)
    m = np.array(a).reshape(n, n)
    return m @ m.T + np.diag(d)


def _symmetric(b: list, n: int) -> np.ndarray:
    m = np.array(b).reshape(n, n)
    return m + m.T


@settings(max_examples=25, deadline=None)
@given(st.booleans(), st.lists(unit_entries, min_size=16, max_size=16),
       st.lists(diag_entries, min_size=4, max_size=4),
       st.lists(unit_entries, min_size=16, max_size=16),
       st.floats(min_value=-0.8, max_value=0.8, allow_nan=False, allow_infinity=False))
def test_gradient_matches_directional_derivative(four_dim, a, d, b, tau):
    """d/dt F_tau(g + t h) = Vol <grad F_tau, h>_g for a full SPD g and a full
    symmetric h, on su(2) and on su(2)+R."""
    sc = homogeneous.su2_plus_r() if four_dim else homogeneous.su2()
    n = sc.n
    h = _symmetric(b[:n * n], n)
    assume(np.max(np.abs(h)) > 0.1)
    assert _first_variation_defect(sc, _spd(a[:n * n], d[:n]), h, tau) <= 1e-8


def _first_variation_samples(seed: int = 7, count: int = 20):
    """count seeded (algebra, g, h, tau) per algebra, drawn as in the test above."""
    rng = np.random.default_rng(seed)
    for sc in (homogeneous.su2(), homogeneous.su2_plus_r()):
        n = sc.n
        for _ in range(count):
            g = _spd(rng.uniform(-1.0, 1.0, n * n), rng.uniform(0.5, 2.0, n))
            yield sc, g, _symmetric(rng.uniform(-1.0, 1.0, n * n), n), rng.uniform(-0.8, 0.8)


def _worst_defects() -> dict:
    worst = {}
    for sc, g, h, tau in _first_variation_samples():
        worst[sc.n] = max(worst.get(sc.n, 0.0), _first_variation_defect(sc, g, h, tau))
    return worst


def test_first_variation_fails_for_a_zero_or_swapped_connection_derivative(monkeypatch):
    """Dropping Delta Ric (a zero _cov1) or using the connection with the
    opposite torsion (Gamma^k_ji for Gamma^k_ij) breaks the identity on both
    algebras, by a defect of order 10 or more; the real code stays at roundoff."""
    real = _worst_defects()
    assert max(real.values()) <= 1e-8
    cov1, levi_civita = homogeneous._cov1, homogeneous.levi_civita
    monkeypatch.setattr(homogeneous, "_cov1", lambda gam, t: 0 * cov1(gam, t))
    assert min(_worst_defects().values()) > 1.0
    monkeypatch.setattr(homogeneous, "_cov1", cov1)
    monkeypatch.setattr(homogeneous, "levi_civita",
                        lambda sc, g, g_inv=None: np.swapaxes(levi_civita(sc, g, g_inv), -3, -2))
    assert min(_worst_defects().values()) > 1.0


def test_negated_cov1_cancels_in_the_gradient(monkeypatch):
    """A negated _cov1 cannot fail the first-variation identity: grad F takes
    the derivative only through Delta Ric = tr nabla nabla Ric, where the sign
    enters twice, so the gradient keeps its bits. The metric-compatibility
    test in test_index_kernels pins this sign instead."""
    samples = list(_first_variation_samples(count=3))
    want = [homogeneous.gradient_F(sc, g, tau) for sc, g, _, tau in samples]
    cov1 = homogeneous._cov1
    monkeypatch.setattr(homogeneous, "_cov1", lambda gam, t: -cov1(gam, t))
    for (sc, g, _, tau), w in zip(samples, want):
        assert homogeneous.gradient_F(sc, g, tau).tobytes() == w.tobytes()


_INTERVAL_KEYS = sorted(builtin_catalog())
# the families whose TT data an extension catalog can give one more known
# eigenvalue and still pass validate_model
_EXTENSION_KEYS = [key for key in _INTERVAL_KEYS
                   if key.partition(":")[0] in ("sphere", "cp", "product", "quotient")]
edge_fractions = st.fractions(min_value=Fraction(0), max_value=Fraction(99, 100),
                              max_denominator=100)
extension_v = st.fractions(min_value=Fraction(-1), max_value=Fraction(2), max_denominator=12)


def _extension(key: str, v: Fraction):
    """Catalog model `key` with one more known TT eigenvalue, at 2R/n + v (tail - 2R/n):
    v = 0 puts it on the fixed TT root, v = 1 on the tail bound."""
    base = builtin_catalog()[key]
    fixed, tail = 2 * base.scal / base.n, base.tt.tail_bound
    model = with_tt_eigenvalue(base, fixed + (tail - fixed) * v)
    validate_model(model)
    return model


def _check_inside(model, u: Fraction) -> None:
    """Where the interval's inside passes, tau at fraction u of the way
    across it passes with that verdict; where it is Indeterminate, the
    verdict does not pass."""
    iv = stability_interval(model)
    tau = iv.lo + 10 * u if iv.hi is None else iv.lo + (iv.hi - iv.lo) * u
    assume(contains(iv, tau))
    verdict = combined_verdict(model, tau)
    if iv.verdict_inside == "Indeterminate":
        assert not passes(verdict)
    else:
        assert verdict.variant == iv.verdict_inside


def _check_outside(model, u: Fraction, above: bool) -> None:
    """No tau outside the interval passes, its open ends included."""
    iv = stability_interval(model)
    if above:
        assume(iv.hi is not None)
        tau = iv.hi + 2 * u
    else:
        tau = iv.lo - 2 * u
    assume(not contains(iv, tau))
    try:
        verdict = combined_verdict(model, tau)
    except InsufficientSpectralData:
        # hyperbolic models above -1/n legitimately need lambda_1 input;
        # without it the query cannot pass, which is what matters here
        return
    assert not passes(verdict)


@pytest.mark.parametrize("key", _INTERVAL_KEYS)
@settings(max_examples=12, deadline=None)
@given(u=unit_fractions)
def test_verdict_passes_inside_interval(key, u):
    _check_inside(builtin_catalog()[key], u)


@pytest.mark.parametrize("key", _INTERVAL_KEYS)
@settings(max_examples=12, deadline=None)
@given(u=edge_fractions, above=st.booleans())
def test_verdict_never_passes_outside_interval(key, u, above):
    _check_outside(builtin_catalog()[key], u, above)


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(_EXTENSION_KEYS), v=extension_v, u=unit_fractions)
@example(key="product:3", v=Fraction(1, 2), u=Fraction(9, 10))
@example(key="sphere:4", v=Fraction(2, 5), u=Fraction(9, 10))
def test_extension_verdict_passes_inside_interval(key, v, u):
    _check_inside(_extension(key, v), u)


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(_EXTENSION_KEYS), v=extension_v, u=edge_fractions,
       above=st.booleans())
@example(key="product:3", v=Fraction(1, 2), u=Fraction(0), above=True)
@example(key="sphere:4", v=Fraction(0), u=Fraction(1, 2), above=False)
def test_extension_verdict_never_passes_outside_interval(key, v, u, above):
    _check_outside(_extension(key, v), u, above)


@settings(max_examples=50, deadline=None)
@given(small_fractions)
def test_ratio_round_trip(x):
    assert parse_ratio(format_ratio(x)) == x


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=3, max_value=5),
       st.lists(st.integers(min_value=-5, max_value=5), min_size=5, max_size=5),
       st.fractions(min_value=Fraction(-2), max_value=Fraction(2),
                    max_denominator=9))
def test_symbol_scaling_in_xi(n, ints, tau):
    xi_ints = ints[:n]
    assume(any(k != 0 for k in xi_ints))
    xi = np.empty(n, dtype=object)
    xi[:] = [Fraction(k) for k in xi_ints]
    m1 = gauged_symbol(n, tau, xi).matrix
    m3 = gauged_symbol(n, tau, 3 * xi).matrix
    assert all(v == 0 for v in (m3 - 81 * m1).ravel())


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.3, max_value=1.9,
                 allow_nan=False, allow_infinity=False))
def test_berger_routes_agree(s):
    from qcf.functionals import berger_curve

    tau = Fraction(1, 7)
    [closed] = berger_curve(tau, [s])
    geom = berger_curve_from_geometry(tau, s)
    assert geom == pytest.approx(closed, rel=1e-9, abs=1e-9)
