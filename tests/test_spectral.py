"""Spectral polynomials of the second variation (rational) and principal symbols (spectral)."""

from fractions import Fraction

import numpy as np
import pytest
from conftest import second_factor

from qcf import rational, spectral, verify
from qcf._exact import exact_det, exact_rank_nullspace
from qcf.rational import (
    _second_numerators,
    conformal_killing_symbol,
    conformal_polynomial,
    conformal_s_polynomial,
    tau1,
    tau2,
    tt_jacobi,
    tt_polynomial,
)
from qcf.spectral import (
    gauged_symbol,
    kernel_contains_metric,
    symbol_coefficients,
    symbol_injectivity,
)


def test_thresholds():
    assert tau1(3) == Fraction(-5, 12)
    assert tau1(4) == Fraction(-1, 3)
    assert tau1(5) == Fraction(-11, 40)
    assert tau2(3) == Fraction(-3, 8)
    assert tau2(4) == Fraction(-1, 3)  # coincides with tau1 only at n = 4
    assert tau2(5) == Fraction(-5, 16)


def test_tt_polynomial_spot_values():
    assert tt_jacobi(3, 6, Fraction(1, 3), 12) == 0
    assert tt_jacobi(4, 24, Fraction(0), 32) == 80
    # the factor roots are 2R/n and (4/n + 2 tau)R; tests/test_properties.py
    # checks the factorization on random (n, R, tau)
    p = tt_polynomial(4, Fraction(24), Fraction(0))
    assert p(12) == 0 and p(24) == 0
    assert p(0) == Fraction(4, 16) * 576 + Fraction(0)  # c0 = (4/n^2) R^2


def test_tt_polynomial_unnormalized_offset():
    """Unnormalized = normalized + (n-4)/(2n^2)(1+n tau) R^2, constant in mu."""
    for n in (3, 4, 5, 7):
        R = Fraction(n * (n - 1))
        for t in (Fraction(0), Fraction(1, 3), Fraction(-2, 5)):
            pn = tt_polynomial(n, R, t, normalized=True)
            pu = tt_polynomial(n, R, t, normalized=False)
            offset = Fraction(n - 4, 2 * n * n) * (1 + n * t) * R * R
            assert (pu.c0 - pn.c0, pu.c1 - pn.c1, pu.c2 - pn.c2) == (offset, 0, 0)
    # tau = 0 closed form of the unnormalized coefficients
    n, R = 5, Fraction(20)
    pu = tt_polynomial(n, R, Fraction(0), normalized=False)
    assert pu.c2 == Fraction(1, 2)
    assert pu.c1 == -Fraction(3, n) * R
    assert pu.c0 == Fraction(n + 4, 2 * n * n) * R * R


def test_conformal_polynomial_spot_values():
    assert conformal_polynomial(3, 6, Fraction(0))(8) == 100
    # scalar-flat case collapses to a pure quadratic
    for n in (3, 5, 8):
        p = conformal_polynomial(n, Fraction(0), Fraction(1, 7))
        assert p.c0 == 0 and p.c1 == 0
        t = Fraction(1, 7)
        assert p.c2 == Fraction((n - 1) * n * (n - 4 * t + 4 * n * t), 2 * n)


def test_conformal_s_polynomial_coefficients():
    p = conformal_s_polynomial(4, Fraction(12))
    assert (p.c0, p.c1, p.c2) == (0, -72, 18)
    assert p(4) == 0


def test_conformal_lichnerowicz_root():
    """lambda = R/(n-1) is always a root of the first factor."""
    for n in (3, 4, 6):
        for R in (Fraction(12), Fraction(-30), Fraction(7, 3)):
            for t in (Fraction(0), Fraction(-1, 3), Fraction(2, 5)):
                assert conformal_polynomial(n, R, t)(R / (n - 1)) == 0


def _second_factor(n, R, tau):
    """The slope and constant of p_tau's second factor, as Fractions of
    _second_numerators over the denominators q and qs, and the numerators."""
    (p, q), (r, s) = tau.as_integer_ratio(), R.as_integer_ratio()
    a, b = _second_numerators(n, p, q, r)
    return (Fraction(a, q), Fraction(b, q * s)), (a, b)


def test_q_factor_at_minus_one_over_n():
    """At tau = -1/n the R term drops and the slope is (n-2)^2."""
    for n in (3, 4, 5, 8):
        for lam in (Fraction(2), Fraction(-7, 3)):
            (a, b), _ = _second_factor(n, Fraction(-n * (n - 1)), Fraction(-1, n))
            assert a * lam + b == (n - 2) ** 2 * lam


def test_symbol_coefficients_vanish_appropriately():
    # B is the combination that kills the h(xi,xi) xi xi term at tau = -(n-1)/n
    for n in (3, 4, 5):
        _, B, _ = symbol_coefficients(n, Fraction(-(n - 1), n))
        assert B == 0


def _apply(op, h):
    """The symbol matrix of op applied to the symmetric array h, as an n x n array."""
    h = np.asarray(h)
    out = op.matrix @ np.array([h[i, j] for i, j in op.basis], dtype=h.dtype)
    sym = np.empty((op.n, op.n), dtype=out.dtype)
    for c, (i, j) in zip(out, op.basis):
        sym[i, j] = sym[j, i] = c
    return sym


def test_symbol_homogeneity_degree_four():
    xi = np.array([1, -2, 3], dtype=object)
    xi[:] = [Fraction(1), Fraction(-2), Fraction(3)]
    op1 = gauged_symbol(3, Fraction(1, 5), xi)
    op2 = gauged_symbol(3, Fraction(1, 5), 2 * xi)
    assert all(v == 0 for v in (op2.matrix - 16 * op1.matrix).ravel())


def test_symbol_apply_matches_matrix():
    rng = np.random.default_rng(2)
    xi = rng.normal(size=4)
    op = gauged_symbol(4, 0.1, xi)
    h = np.diag([1.0, 2.0, -1.0, 0.5])
    out = _apply(op, h)
    assert out.shape == (4, 4)
    assert np.allclose(out, out.T)


def test_symbol_injective_away_from_threshold():
    v = symbol_injectivity(4, 0.0, trials=10)
    assert v.injective
    assert v.min_singular_value > 1e-3


def test_symbol_exact_degeneracy_at_threshold():
    for n in (3, 4, 5):
        v = symbol_injectivity(n, tau2(n), trials=2)
        assert not v.injective
        assert v.note == "exact rank deficiency"
        assert kernel_contains_metric(v, n)
        # away from the threshold the exact route certifies full rank
        v2 = symbol_injectivity(n, tau2(n) + Fraction(1, 10), trials=2)
        assert v2.injective
        assert "full rank" in v2.note


def test_trace_free_block_survives_threshold():
    """The rank drop at tau = -n/(4(n-1)) is purely the metric direction."""
    for n in (3, 4):
        v = symbol_injectivity(n, tau2(n), trials=2, restrict_trace_free=True)
        assert v.injective


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("trace_free", [False, True])
def test_e1_decision_matches_rank_at_random_covectors(n, trace_free):
    """Rotation invariance: the decision at e_1 is the decision at every xi."""
    rng = np.random.default_rng(n)
    for tau in (Fraction(1, 3), Fraction(-1, 2), tau2(n)):
        v = symbol_injectivity(n, tau, restrict_trace_free=trace_free)
        for _ in range(2):
            xi = np.zeros(n, dtype=int)
            while not xi.any():
                xi = rng.integers(-5, 6, size=n)
            op = gauged_symbol(n, tau, xi)
            m = op.trace_free_block() if trace_free else op.matrix
            rank, null = exact_rank_nullspace(m)
            assert v.injective == (not null)
            assert len(v.kernel) == len(null) == m.shape[1] - rank
            metric_in_kernel = (not trace_free
                                and not any(_apply(op, np.eye(n, dtype=int)).ravel()))
            assert kernel_contains_metric(v, n) == metric_in_kernel


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_symbol_determinant_at_e1_closed_form(n):
    """det = 2^-(N-2) (n-1)^3 (n + 4(n-1)tau) / n^3, zero exactly at tau2."""
    N = n * (n + 1) // 2
    xi = np.zeros(n, dtype=int)
    xi[0] = 1
    for tau in (Fraction(1, 3), Fraction(-1, 2), Fraction(2, 7), tau2(n)):
        want = (Fraction(1, 2 ** (N - 2)) * (n - 1) ** 3
                * (n + 4 * (n - 1) * tau) / n ** 3)
        assert exact_det(gauged_symbol(n, tau, xi).matrix) == want


def test_symbol_trials_and_seed_change_nothing():
    base = symbol_injectivity(5, Fraction(1, 3))
    for trials, seed in ((1, 0), (7, 3), (100, 11)):
        v = symbol_injectivity(5, Fraction(1, 3), trials=trials, seed=seed)
        assert (v.injective, v.min_singular_value, v.note) == (
            base.injective, base.min_singular_value, base.note)


def _span_oracle(verdict, n, trace_free):
    """Whether g lies in the span of the reported kernel, by exact rank with
    and without g (two eliminations), as kernel_contains_metric decided it
    before it read M g = 0: the oracle. A kernel vector holds coordinates
    in the E_ij basis (i <= j); a trace-free kernel, in the trace-free
    block's basis, never contains g."""
    if not verdict.kernel or trace_free:
        return False
    cols = [list(k) for k in verdict.kernel]
    g = [Fraction(int(i == j)) for i in range(n) for j in range(i, n)]
    rank_with, _ = exact_rank_nullspace(np.array(cols + [g], dtype=object).T)
    rank_without, _ = exact_rank_nullspace(np.array(cols, dtype=object).T)
    return rank_with == rank_without


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 12])
@pytest.mark.parametrize("trace_free", [False, True])
def test_kernel_contains_metric_matches_the_span_oracle(n, trace_free):
    for tau in (Fraction(1, 3), Fraction(-1, 2), Fraction(2, 7), tau2(n),
                tau2(n) + Fraction(1, 10)):
        v = symbol_injectivity(n, tau, restrict_trace_free=trace_free)
        got = kernel_contains_metric(v, n)
        assert got == _span_oracle(v, n, trace_free) == (not trace_free and tau == tau2(n)), (n, tau)


@pytest.mark.parametrize("n, tau, trace_free", [(5, tau2(5), False), (5, tau2(5), True),
                                                (5, Fraction(1, 3), False)])
def test_a_symbol_decision_makes_one_exact_elimination(monkeypatch, n, tau, trace_free):
    """Reading "g in the kernel" from M g costs no elimination beyond the
    rank decision (two more on a degenerate full symbol when it was a
    span test on the kernel)."""
    calls = []
    real = spectral.exact_rank_nullspace
    monkeypatch.setattr(spectral, "exact_rank_nullspace",
                        lambda m: calls.append(m.shape) or real(m))
    kernel_contains_metric(symbol_injectivity(n, tau, restrict_trace_free=trace_free), n)
    assert len(calls) == 1


def test_kernel_contains_metric_edge_cases():
    v = symbol_injectivity(3, Fraction(0), trials=1)
    assert not kernel_contains_metric(v, 3)  # empty kernel


def test_gauged_symbol_input_validation():
    with pytest.raises(ValueError, match="at least 3"):
        gauged_symbol(2, 0.0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="shape"):
        gauged_symbol(3, 0.0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="nonzero"):
        gauged_symbol(3, 0.0, np.zeros(3))


def _ck_eigenvalues_at_e1(n):
    """The conformal-Killing spectrum as it was computed from the covector
    e_1: |xi|^2 summed, (2 - 2/n)|xi|^2 along xi, then sorted (the oracle)."""
    xi = [1.0] + [0.0] * (n - 1)
    xi2 = sum(x * x for x in xi)
    return tuple(sorted([(2.0 - 2.0 / n) * xi2] + [xi2] * (n - 1)))


def test_conformal_killing_symbol_eigenvalues():
    for n in range(2, 13):
        v = conformal_killing_symbol(n)
        want = _ck_eigenvalues_at_e1(n)
        assert [e.hex() for e in v.eigenvalues] == [e.hex() for e in want], n
        assert v.min_singular_value.hex() == min(want).hex() == (1.0).hex()
        assert v.degenerate == (n == 2)
        assert ("dimension two" in v.note) == (n == 2)
        # the spectrum of |xi|^2 I + (1 - 2/n) xi xi^T at a random unit covector
        xi = np.random.default_rng(n).normal(size=n)
        xi /= np.linalg.norm(xi)
        m = np.eye(n) + (1 - 2 / n) * np.outer(xi, xi)
        np.testing.assert_allclose(np.linalg.eigvalsh(m), v.eigenvalues, rtol=0, atol=1e-12)


def _rational(rng, shape):
    out = np.empty(shape, dtype=object)
    out.ravel()[:] = [Fraction(int(p), int(q)) for p, q in
                      zip(rng.integers(-6, 7, size=out.size), rng.integers(1, 5, size=out.size))]
    return out


def _symbol_formula(n, tau, xi, h):
    """The SymbolOperator docstring, written out with numpy products."""
    A, B, C = symbol_coefficients(n, tau)
    xi2 = xi @ xi
    xx = np.outer(xi, xi)
    tr = np.trace(h)
    hxx = xi @ h @ xi
    g = np.eye(n, dtype=int)
    return (Fraction(1, 2) * xi2 * xi2 * h - A * xi2 * tr * xx + B * hxx * xx
            + C * xi2 * xi2 * tr * g - A * xi2 * hxx * g)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_symbol_apply_equals_docstring_formula(n):
    rng = np.random.default_rng(10 + n)
    for tau in (Fraction(1, 3), Fraction(-2, 7), tau2(n)):
        for _ in range(3):
            xi = _rational(rng, n)
            while not xi.any():
                xi = _rational(rng, n)
            h = _rational(rng, (n, n))
            h = h + h.T
            op = gauged_symbol(n, tau, xi)
            assert op.matrix.dtype == object
            want = _symbol_formula(n, tau, xi, h)
            assert (_apply(op, h) == want).all()
            fxi, fh = xi.astype(float), h.astype(float)
            got = _apply(gauged_symbol(n, float(tau), fxi), fh)
            want_f = _symbol_formula(n, float(tau), fxi, fh)
            scale = float(np.max(np.abs(want.astype(float))))
            np.testing.assert_allclose(got, want_f, rtol=0, atol=1e-12 * scale)


def _trace_free_by_projection(op):
    """Apply op to each trace-free basis tensor, remove the trace, read coordinates."""
    n = op.n
    off = [(i, j) for i in range(n) for j in range(i + 1, n)]
    inputs = []
    for i, j in off:
        h = np.zeros((n, n), dtype=int)
        h[i, j] = h[j, i] = 1
        inputs.append(h)
    for i in range(n - 1):
        h = np.zeros((n, n), dtype=int)
        h[i, i], h[n - 1, n - 1] = 1, -1
        inputs.append(h)
    cols = []
    for h in inputs:
        out = _apply(op, h)
        out = out - np.trace(out) / n * np.eye(n, dtype=int)
        cols.append([out[i, j] for i, j in off] + [out[i, i] for i in range(n - 1)])
    return np.array(cols, dtype=op.matrix.dtype).T


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_trace_free_block_equals_projection(n):
    rng = np.random.default_rng(20 + n)
    xi = _rational(rng, n)
    for tau in (Fraction(1, 3), tau2(n), Fraction(-3, 5)):
        op = gauged_symbol(n, tau, xi)
        block = op.trace_free_block()
        assert block.shape == (n * (n + 1) // 2 - 1,) * 2
        assert (block == _trace_free_by_projection(op)).all()
    op = gauged_symbol(n, 0.3, xi.astype(float))
    np.testing.assert_allclose(op.trace_free_block(), _trace_free_by_projection(op),
                               rtol=0, atol=1e-12 * float(np.max(np.abs(op.matrix))))


def _chained_conformal_polynomial(n, R, tau):
    """conformal_polynomial's coefficients (c0, c1, c2) as a chain of
    Fraction operations on the chained second factor (oracle)."""
    a, b = second_factor(n, R, tau)
    return -R * b / (2 * n), ((n - 1) * b - R * a) / (2 * n), (n - 1) * a / (2 * n)


def _second_factor_inputs(count, seed=17):
    """count seeded (n, R, tau, lambda): R = 0 and tau at -1/n and at
    -n/(4(n-1)) among them, the rest ratios of small integers."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(3, 9))
        R = Fraction(0) if k % 7 == 0 else Fraction(int(rng.integers(-60, 61)),
                                                     int(rng.integers(1, 13)))
        tau = (Fraction(-1, n), tau2(n), Fraction(int(rng.integers(-40, 41)),
                                                  int(rng.integers(1, 13))))[k % 3]
        lam = Fraction(int(rng.integers(-60, 61)), int(rng.integers(1, 13)))
        yield n, R, tau, lam


def test_second_factor_keeps_the_chained_values_on_exact_input():
    for n, R, tau, _ in _second_factor_inputs(20000):
        (got, numerators), want = _second_factor(n, R, tau), second_factor(n, R, tau)
        assert got == want and all(type(x) is int for x in numerators)
        assert tuple(conformal_polynomial(n, R, tau)) == _chained_conformal_polynomial(n, R, tau)


def test_verify_10_fails_when_the_second_factor_drops_its_r_term(monkeypatch):
    real = rational._second_numerators
    assert verify.check_property_suites(0).passed
    monkeypatch.setattr(rational, "_second_numerators", lambda n, p, q, r: (real(n, p, q, r)[0], 0))
    assert not verify.check_property_suites(0).passed


def _horner(p, x):
    """SpectralPolynomial evaluated as the Fraction chain (oracle)."""
    return (p.c2 * x + p.c1) * x + p.c0


def _polynomial_inputs(count, seed=23):
    """count seeded exact (polynomial, x): zero coefficients, integer x and
    negative numerators among them."""
    import random

    rng = random.Random(seed)

    def ratio():
        if rng.random() < 0.15:
            return Fraction(0)
        return Fraction(rng.randint(-10**rng.randint(1, 12), 10**6), rng.randint(1, 10**4))

    for k in range(count):
        x = ratio()
        yield rational.SpectralPolynomial(ratio(), ratio(), ratio()), (
            int(x) if k % 3 == 0 else x)


def test_polynomial_call_equals_the_horner_chain_on_exact_input():
    for p, x in _polynomial_inputs(3000):
        got, want = p(x), _horner(p, x)
        assert got == want and type(got) is Fraction
        assert type(got.numerator) is int and type(got.denominator) is int
    n, R, tau = 5, Fraction(20), Fraction(-3, 7)
    for poly in (tt_polynomial(n, R, tau), tt_polynomial(n, R, tau, normalized=False),
                 conformal_polynomial(n, R, tau),
                 conformal_s_polynomial(n, R)):
        for x in (0, -7, Fraction(9, 4), Fraction(-20, 3), True):
            assert poly(x) == _horner(poly, x) and type(poly(x)) is Fraction


def test_float_input_gives_the_result_of_its_exact_value():
    """A float R, tau, eigenvalue or coefficient converts to its exact
    value: each polynomial, coefficient and value is the one the exact
    Fraction of the float gives, and a Fraction."""
    for n, R, tau, lam in _second_factor_inputs(500, seed=18):
        R, tau, lam = float(R), float(tau), float(lam)
        eR, et, el = Fraction(R), Fraction(tau), Fraction(lam)
        assert _second_factor(n, R, tau)[0] == second_factor(n, eR, et)
        for poly, exact in ((conformal_polynomial(n, R, tau), conformal_polynomial(n, eR, et)),
                            (tt_polynomial(n, R, tau), tt_polynomial(n, eR, et)),
                            (conformal_s_polynomial(n, R), conformal_s_polynomial(n, eR))):
            assert poly == exact and poly(lam) == exact(el)
            assert all(type(c) is Fraction for c in (*poly, poly(lam)))
        assert tt_jacobi(n, R, tau, lam) == tt_jacobi(n, eR, et, el)
    for p, x in _polynomial_inputs(500, seed=24):
        c1 = float(p.c1)
        got = p._replace(c1=c1)(float(x))
        assert got == p._replace(c1=Fraction(c1))(Fraction(float(x))) and type(got) is Fraction


def test_verify_10_fails_when_tt_polynomial_moves_its_constant(monkeypatch):
    real = rational.tt_polynomial

    def moved(*args, **kwargs):
        p = real(*args, **kwargs)
        return p._replace(c0=p.c0 + Fraction(1, 10**9))

    assert verify.check_property_suites(0).passed
    monkeypatch.setattr(rational, "tt_polynomial", moved)
    result = verify.check_property_suites(0)
    assert not result.passed and "tt factorization fails" in result.measured
