"""Left-invariant curvature and functional gradients on SU(2) frames.

The exact values asserted here (Ricci eigenvalues, the F_{1/4} gradient
and the Ricci Laplacian at diag(1,1,2)) were computed independently with
a computer-algebra Koszul derivation and then frozen.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from qcf import homogeneous
from qcf.catalog import builtin_catalog
from qcf.homogeneous import (
    SU2_REFERENCE_VOLUME,
    StructureConstants,
    berger_metric,
    curvature,
    divergence,
    functional_value,
    gradient_F,
    gradient_from_einstein,
    laplacian,
    levi_civita,
    su2,
    su2_plus_r,
    volume,
)
from qcf.tensor_core import _Exact, check_curvature_symmetries, exact_tensor, tensor_norm2


def _exact_diag(entries):
    return exact_tensor(np.diag([Fraction(e) for e in entries]))


@pytest.fixture
def su2_exact():
    return su2(exact=True)


def test_structure_constants_validate():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # missing the antisymmetric partner
    with pytest.raises(ValueError, match="antisymmetry"):
        StructureConstants(3, c)

    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    c[0, 2, 0], c[2, 0, 0] = 1.0, -1.0
    with pytest.raises(ValueError, match="Jacobi"):
        StructureConstants(3, c)


def test_round_sphere_is_unit_round(su2_exact):
    g = _exact_diag([1, 1, 1])
    cd = curvature(su2_exact, g)
    assert cd.scal == 6
    assert all(cd.ric.fractions()[i, i] == 2 for i in range(3))
    assert cd.einstein_constant() == 2


def test_torsion_free_and_metric_compatible(su2_exact):
    """Gamma^k_ij - Gamma^k_ji recovers c^k_ij on a generic diagonal metric."""
    g = _exact_diag([Fraction(3, 2), Fraction(5, 7), Fraction(2)])
    gam = levi_civita(su2_exact, g).fractions()
    torsion = gam - np.swapaxes(gam, 0, 1)
    assert all(v == 0 for v in (torsion - su2_exact.c.fractions()).ravel())
    # nabla g = 0: Gamma_ij,k + Gamma_ik,j = 0 with the index lowered by g
    low = np.einsum("kl,ijl->ijk", g.fractions(), gam)
    assert all(v == 0 for v in (low + np.swapaxes(low, 1, 2)).ravel())


def test_berger_ricci_closed_form(su2_exact):
    """Ric(diag(1,1,s^2)) = diag(4-2s^2, 4-2s^2, 2s^4) and R = 8-2s^2."""
    for s2 in (Fraction(1, 4), Fraction(1), Fraction(2), Fraction(9, 2)):
        g = _exact_diag([1, 1, s2])
        ric = curvature(su2_exact, g).ric.fractions()
        assert ric[0, 0] == 4 - 2 * s2
        assert ric[1, 1] == 4 - 2 * s2
        assert ric[2, 2] == 2 * s2 * s2
        assert curvature(su2_exact, g).scal == 8 - 2 * s2


def test_frozen_gradient_and_laplacian(su2_exact):
    g = _exact_diag([1, 1, 2])
    cd = curvature(su2_exact, g)
    assert [cd.ric.fractions()[i, i] for i in range(3)] == [0, 0, 8]

    grad = gradient_F(su2_exact, g, Fraction(1, 4)).fractions()
    assert [grad[i, i] for i in range(3)] == [-22, -22, 68]
    assert grad[0, 1] == 0 and grad[0, 2] == 0 and grad[1, 2] == 0

    lap = laplacian(su2_exact, g, cd.ric).fractions()
    assert [lap[i, i] for i in range(3)] == [16, 16, -64]


def test_curvature_symmetries_generic_metric():
    rng = np.random.default_rng(5)
    for sc in (su2(), su2_plus_r()):
        for _ in range(8):
            g = np.diag(rng.uniform(0.4, 2.5, size=sc.n))
            cd = curvature(sc, g)
            check_curvature_symmetries(cd.rm, tol=1e-10)


def test_einstein_gradient_constants():
    cat = builtin_catalog()
    for key in ("sphere:3", "sphere:7", "cp:3", "product:4", "hyperbolic:6"):
        model = cat[key]
        cd = model.curvature_data()
        n, R = model.n, model.scal
        grad0 = gradient_from_einstein(cd, Fraction(0))
        want0 = Fraction(n - 4, 2 * n * n) * R * R
        assert all(v == 0 for v in (grad0 - want0 * cd.g).fractions().ravel())
        grad_s = gradient_from_einstein(cd, Fraction(1)) - grad0
        want_s = Fraction(n - 4, 2 * n) * R * R
        assert all(v == 0 for v in (grad_s - want_s * cd.g).fractions().ravel())


def test_gradient_from_einstein_rejects_non_einstein():
    sc = su2_plus_r(exact=True)
    cd = curvature(sc, _exact_diag([1, 1, 4, 1]))
    with pytest.raises(ValueError, match="not Einstein"):
        gradient_from_einstein(cd, Fraction(0))


def test_two_gradient_routes_agree_on_einstein_data(su2_exact):
    g = _exact_diag([1, 1, 1])
    cd = curvature(su2_exact, g)
    for tau in (Fraction(0), Fraction(1, 3), Fraction(-2, 5)):
        full = gradient_F(su2_exact, g, tau)
        alg = gradient_from_einstein(cd, tau)
        assert all(v == 0 for v in (full - alg).fractions().ravel())


def test_gradient_divergence_free_exact():
    sc = su2(exact=True)
    g = _exact_diag([Fraction(3, 4), Fraction(7, 5), Fraction(2)])
    grad = gradient_F(sc, g, Fraction(-1, 3))
    div = divergence(sc, g, grad)
    assert all(v == 0 for v in div.fractions().ravel())


def test_bach_tensor_properties():
    """The dimension-four Bach tensor 2 grad F_{-1/3} is trace-free and
    divergence-free on the non-Einstein metrics of su(2) + R."""
    sc = su2_plus_r(exact=True)
    g = _exact_diag([Fraction(1), Fraction(4, 3), Fraction(2), Fraction(1)])
    b = 2 * gradient_F(sc, g, Fraction(-1, 3))
    gf, bf = g.fractions(), b.fractions()
    g_inv = np.array([[Fraction(1) / gf[i, i] if i == j else Fraction(0)
                       for j in range(4)] for i in range(4)], dtype=object)
    trace = sum(g_inv[i, i] * bf[i, i] for i in range(4))
    assert trace == 0
    div = divergence(sc, g, b)
    assert all(v == 0 for v in div.fractions().ravel())


def test_bach_vanishes_on_einstein_four_manifolds():
    cat = builtin_catalog()
    for key in ("sphere:4", "cp:2", "product:2", "hyperbolic:4"):
        b = 2 * gradient_from_einstein(cat[key].curvature_data(), Fraction(-1, 3))
        assert all(v == 0 for v in b.fractions().ravel())


def test_volume_and_functional_value():
    sc = su2()
    g = berger_metric(2.0)
    assert volume(sc, g, SU2_REFERENCE_VOLUME) == pytest.approx(4.0 * math.pi**2)
    # round point: F_0 = Vol * |Ric|^2 = 2 pi^2 * 12
    f = functional_value(sc, np.eye(3), 0.0, SU2_REFERENCE_VOLUME)
    assert f == pytest.approx(24.0 * math.pi**2, rel=1e-12)
    fn = functional_value(sc, np.eye(3), 0.0, SU2_REFERENCE_VOLUME, normalized=True)
    assert fn == pytest.approx(f * (2.0 * math.pi**2) ** (4.0 / 3.0 - 1.0), rel=1e-12)


def test_scalar_laplacian_vanishes(su2_exact):
    g = _exact_diag([1, 2, 3])
    lap = laplacian(su2_exact, g, exact_tensor(Fraction(5)))
    assert lap == 0


def test_criticality_of_secondary_berger_point():
    """At tau = -2/5 the point s^2 = 2/13 solves the constrained equation.

    grad F + (p/2) Vol^-1 F g = 0 with p = 4/n - 1 is the Euler-Lagrange
    equation of the volume-normalized functional; the residual must sit
    at roundoff level.
    """
    s = math.sqrt(2.0 / 13.0)
    sc = su2()
    g = berger_metric(s)
    grad = gradient_F(sc, g, -0.4)
    vol = volume(sc, g, SU2_REFERENCE_VOLUME)
    fval = functional_value(sc, g, -0.4, SU2_REFERENCE_VOLUME)
    p = 4.0 / 3.0 - 1.0
    resid = grad + (p / 2.0) * (fval / vol) * g
    g_inv = np.linalg.inv(g)
    rel = math.sqrt(abs(tensor_norm2(g_inv, resid))) / math.sqrt(abs(tensor_norm2(g_inv, g)))
    assert rel < 1e-12


def _count_connection_and_inverse(monkeypatch):
    """Count levi_civita, inverse_metric and np.linalg.inv calls from here on."""
    from qcf import tensor_core

    calls = {"levi_civita": 0, "inverse_metric": 0, "np.linalg.inv": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(homogeneous, "levi_civita", counted(levi_civita, "levi_civita"))
    monkeypatch.setattr(np.linalg, "inv", counted(np.linalg.inv, "np.linalg.inv"))
    for mod in (homogeneous, tensor_core):
        monkeypatch.setattr(mod, "inverse_metric", counted(mod.inverse_metric, "inverse_metric"))
    return calls


def test_gradient_builds_the_connection_and_inverse_once(monkeypatch):
    calls = _count_connection_and_inverse(monkeypatch)
    grad = gradient_F(su2(), np.diag([1.0, 2.0, 3.0]), 0.5)
    assert calls == {"levi_civita": 1, "inverse_metric": 1, "np.linalg.inv": 1}
    assert grad.shape == (3, 3)


@pytest.mark.parametrize("op", [divergence, laplacian])
def test_divergence_and_laplacian_build_the_connection_and_inverse_once(monkeypatch, op):
    sc, g = su2(), np.diag([1.0, 2.0, 3.0])
    grad = gradient_F(sc, g, 0.5)
    calls = _count_connection_and_inverse(monkeypatch)
    out = op(sc, g, grad)
    assert calls == {"levi_civita": 1, "inverse_metric": 1, "np.linalg.inv": 1}
    assert out.shape == ((3,) if op is divergence else (3, 3))


def test_exact_data_stays_exact_tensors():
    """Exact data is held and returned as exact tensors: the catalog's
    curvature data and the exact su(2) and su(2) + R kernels alike."""
    cat = builtin_catalog()
    assert len(cat) == 25
    datas = [cat[key].curvature_data(exact=True) for key in sorted(cat)]
    for sc, g in ((su2(exact=True), berger_metric(Fraction(2, 3), exact=True)),
                  (su2_plus_r(exact=True), _exact_diag([1, Fraction(4, 3), 2, Fraction(5, 7)]))):
        grad = gradient_F(sc, g, Fraction(-1, 3))
        for t in (sc.c, g, levi_civita(sc, g), grad, divergence(sc, g, grad)):
            assert isinstance(t, _Exact)
        datas.append(curvature(sc, g))
    for cd in datas:
        assert cd.g is cd.g
        for t in (cd.g, cd.g_inv, cd.rm, cd.ric, cd.algebraic_gradient(Fraction(1, 2))):
            assert isinstance(t, _Exact)


@pytest.mark.parametrize("exact_sc", [True, False], ids=["exact-sc", "float-sc"])
def test_structure_constants_and_metric_must_be_of_one_kind(exact_sc):
    sc = su2(exact=exact_sc)
    g = np.eye(3) if exact_sc else _exact_diag([1, 1, 1])
    for op in (levi_civita, curvature, lambda sc, g: gradient_F(sc, g, 0)):
        with pytest.raises(ValueError, match="exact structure constants"):
            op(sc, g)
