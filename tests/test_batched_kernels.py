"""The float kernels on a stack of metrics against the per-metric loop.

`homogeneous` and `tensor_core` take leading batch axes, so that verify
06 and 10 evaluate each algebra's samples in one pass. Stacked and
per-metric results agree bit for bit, so the comparisons take no
tolerance: numpy runs a stacked matmul as one product per item, and
each einsum sums every entry in the same order with or without the
batch axes.

`spectral.gauged_symbol` takes a stack of float covectors in the same way,
and one SVD call reads the singular values of the whole stack; verify 07
builds one stack per dimension.

A guard counts the connection and index-raising calls of 06 and 10 and
the symbol builds of 07, so that a per-sample loop cannot come back
unnoticed.
"""

import numpy as np
import pytest

from qcf import homogeneous, spectral, tensor_core, verify
from qcf.homogeneous import _cov1, curvature, divergence, gradient_F, levi_civita
from qcf.tensor_core import (check_curvature_symmetries, decompose, inverse_metric,
                             quadratic_invariants, raise_all, tensor_norm2)

PER_ALGEBRA = 200
ALGEBRAS = {"su2": homogeneous.su2(), "su2xr": homogeneous.su2_plus_r(),
            "solvable": verify._solvable()}


def _metrics(seed, n):
    """PER_ALGEBRA seeded SPD metrics, diagonal and full in turn, and a tau each."""
    rng = np.random.default_rng(seed)
    gs = []
    for k in range(PER_ALGEBRA):
        if k % 2:
            gs.append(np.diag(rng.uniform(0.5, 2.0, n)))
        else:
            a = rng.uniform(-1.0, 1.0, (n, n))
            gs.append(a @ a.T + np.diag(rng.uniform(0.5, 2.0, n)))
    return np.stack(gs), rng.uniform(-1.0, 1.0, PER_ALGEBRA)


def _same(stacked, singles):
    assert stacked.shape == (len(singles), *np.shape(singles[0]))
    for got, want in zip(stacked, singles):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_stacked_kernels_equal_the_per_metric_loop(name):
    sc = ALGEBRAS[name]
    g, taus = _metrics(sorted(ALGEBRAS).index(name), sc.n)
    g_inv = inverse_metric(g)
    gam = levi_civita(sc, g, g_inv)
    cd = curvature(sc, g)
    grad = gradient_F(sc, g, taus, g_inv, gam)
    div = divergence(sc, g, grad, g_inv, gam)
    parts = decompose(g, cd.rm)
    inv = quadratic_invariants(g, cd.rm)
    check_curvature_symmetries(cd.rm, tol=1e-10)
    singles = []
    for gi, tau in zip(g, taus):
        cdi = curvature(sc, gi)
        gradi = gradient_F(sc, gi, tau)
        singles.append((inverse_metric(gi), levi_civita(sc, gi), cdi, gradi,
                        divergence(sc, gi, gradi), decompose(gi, cdi.rm),
                        quadratic_invariants(gi, cdi.rm)))
        check_curvature_symmetries(cdi.rm, tol=1e-10)
    _same(g_inv, [s[0] for s in singles])
    _same(gam, [s[1] for s in singles])
    for attr in ("rm", "ric", "scal"):
        _same(getattr(cd, attr), [getattr(s[2], attr) for s in singles])
    _same(grad, [s[3] for s in singles])
    _same(div, [s[4] for s in singles])
    for k in range(3):
        _same(parts[k], [s[5][k] for s in singles])
    for key in ("rm2", "ric2", "scal", "scal2", "weyl2", "ricci_part2", "scalar_part2"):
        _same(inv[key], [s[6][key] for s in singles])
    for t in (div, grad, cd.rm, parts[0]):
        _same(tensor_norm2(g_inv, t), [tensor_norm2(a, b) for a, b in zip(g_inv, t)])
        _same(raise_all(g_inv, t), [raise_all(a, b) for a, b in zip(g_inv, t)])
    for t in (grad, div):
        _same(_cov1(gam, t), [_cov1(a, b) for a, b in zip(gam, t)])


def test_stacked_symmetry_check_fails_when_one_metric_fails():
    sc = ALGEBRAS["su2xr"]
    g, _ = _metrics(5, sc.n)
    rm = curvature(sc, g).rm.copy()
    rm[17, 0, 1, 2, 3] += 1e-6
    with pytest.raises(ValueError, match="antisymmetry \\(first pair\\)"):
        check_curvature_symmetries(rm, tol=1e-10)
    with pytest.raises(ValueError, match="antisymmetry \\(first pair\\)"):
        check_curvature_symmetries(rm[17], tol=1e-10)
    check_curvature_symmetries(np.delete(rm, 17, axis=0), tol=1e-10)


def _count(monkeypatch):
    calls = {"levi_civita": 0, "raise_all": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(homogeneous, "levi_civita", counted(levi_civita, "levi_civita"))
    monkeypatch.setattr(tensor_core, "raise_all", counted(raise_all, "raise_all"))
    return calls


@pytest.mark.parametrize("check, algebras, raises_per_algebra", [
    # per algebra: |delta grad F|^2
    (verify.check_divergence_free, 3, 1),
    # per algebra: |Rm|^2, |Ric|^2 and |W|^2
    (verify.check_property_suites, 2, 3),
])
def test_random_criteria_build_one_connection_per_algebra(monkeypatch, check, algebras,
                                                          raises_per_algebra):
    """The counts follow the number of algebras, not the 100 or more samples."""
    calls = _count(monkeypatch)
    assert check(0).passed
    assert calls == {"levi_civita": algebras, "raise_all": raises_per_algebra * algebras}


COVECTORS = 200


@pytest.mark.parametrize("n", range(3, 9))
def test_stacked_symbols_equal_the_per_covector_loop(n):
    """gauged_symbol on a stack of float covectors, with one tau each or one
    tau for all, and the singular values of the stack from one SVD call."""
    rng = np.random.default_rng(100 + n)
    xis = rng.normal(size=(COVECTORS, n))
    taus = rng.uniform(-2.0, 2.0, COVECTORS)
    op = spectral.gauged_symbol(n, taus, xis)
    svs = op.min_singular_value()
    singles = [spectral.gauged_symbol(n, float(t), xi) for t, xi in zip(taus, xis)]
    _same(op.matrix, [s.matrix for s in singles])
    _same(svs, [s.min_singular_value() for s in singles])
    shared = spectral.gauged_symbol(n, 0.3, xis[:7])
    _same(shared.matrix, [spectral.gauged_symbol(n, 0.3, xi).matrix for xi in xis[:7]])


def test_symbol_criterion_builds_one_float_symbol_per_dimension(monkeypatch):
    """verify 07 builds its 100 random float symbols as one stack per
    dimension; the exact threshold decisions build one symbol each."""
    calls = []
    real = spectral.gauged_symbol

    def counted(n, tau, xi):
        calls.append((n, isinstance(tau, np.ndarray), np.shape(xi)))
        return real(n, tau, xi)

    monkeypatch.setattr(spectral, "gauged_symbol", counted)
    assert verify.check_symbol(0).passed
    stacked = [c for c in calls if c[1]]
    assert len({c[0] for c in stacked}) == len(stacked) <= 6
    assert sum(c[2][0] for c in stacked) == 100
    assert [c for c in calls if not c[1]] == [(n, False, (n,)) for n in (3, 4, 5)]
