"""Pointwise curvature algebra: symmetries, decomposition, invariants."""

from fractions import Fraction

import numpy as np
import pytest

from qcf.catalog import builtin_catalog
from qcf.tensor_core import (
    CurvatureData,
    as_sym2,
    check_curvature_symmetries,
    constant_curvature_rm,
    contract_ricci,
    decompose,
    gauss_bonnet_integrand,
    identity,
    inverse_metric,
    kulkarni_nomizu,
    quadratic_invariants,
    raise_all,
    tensor_norm2,
    validate_dim,
    vanishes,
    zeros,
)


def _random_exact_sym(n, rng):
    m = rng.integers(-4, 5, size=(n, n))
    sym = m + m.T
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = Fraction(int(sym[i, j]))
    return out


def test_validate_dim_bounds():
    assert validate_dim(3) == 3
    assert validate_dim(8) == 8
    with pytest.raises(ValueError):
        validate_dim(2)
    with pytest.raises(ValueError):
        validate_dim(9)
    with pytest.raises(ValueError):
        validate_dim(True)
    with pytest.raises(ValueError):
        validate_dim(4.0)


def test_as_sym2_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        as_sym2([[1, 2], [3, 4]])


def test_as_sym2_exact_keeps_fractions():
    a = as_sym2([["1/2", 0], [0, 2]], exact=True)
    assert a[0, 0] == Fraction(1, 2)
    assert isinstance(a[1, 1], Fraction)


def test_exact_constructors_and_zero_test():
    z, eye = zeros((2, 3), True), identity(3, True)
    assert all(type(v) is Fraction for v in [*z.ravel(), *eye.ravel()])
    assert np.array_equal(eye.astype(float), np.eye(3))
    assert np.array_equal(identity(3, False), np.eye(3)) and identity(3, False).dtype == float
    assert vanishes(z, 0.0) and vanishes(zeros(4, False), 0.0)
    z[1, 2] = Fraction(1, 10**30)
    assert not vanishes(z, 1.0)  # exact arrays are compared exactly, whatever tol
    assert vanishes(z.astype(float), 1e-12) and not vanishes(z.astype(float), 0.0)


def test_kulkarni_nomizu_has_curvature_symmetries():
    rng = np.random.default_rng(11)
    for n in (3, 4, 5):
        a = _random_exact_sym(n, rng)
        b = _random_exact_sym(n, rng)
        check_curvature_symmetries(kulkarni_nomizu(a, b))


def test_check_curvature_symmetries_rejects_garbage():
    bad = np.zeros((3, 3, 3, 3))
    bad[0, 1, 2, 0] = 1.0  # no antisymmetry partner
    with pytest.raises(ValueError, match="antisymmetry"):
        check_curvature_symmetries(bad)


def test_constant_curvature_round_sphere():
    """kappa = 1 gives Ric = (n-1) g and R = n(n-1)."""
    for n in (3, 5, 8):
        g = identity(n, True)
        rm = constant_curvature_rm(g, Fraction(1))
        cd = CurvatureData(n, g, rm)
        assert cd.scal == n * (n - 1)
        assert all(cd.ric[i, i] == n - 1 for i in range(n))
        assert cd.einstein_constant() == n - 1


def test_decompose_reassembles_and_is_orthogonal():
    rng = np.random.default_rng(7)
    for n in (4, 5):
        g = identity(n, True)
        a = _random_exact_sym(n, rng)
        rm = kulkarni_nomizu(a, a)
        weyl, ricci_part, scalar_part = decompose(g, rm)
        total = weyl + ricci_part + scalar_part
        assert all(v == 0 for v in (total - rm).ravel())
        g_inv = inverse_metric(g)

        def inner(x, y):
            return np.sum(raise_all(g_inv, x) * y)

        assert inner(weyl, ricci_part) == 0
        assert inner(weyl, scalar_part) == 0
        assert inner(ricci_part, scalar_part) == 0
        # the Weyl part is totally trace-free
        tr = contract_ricci(g_inv, weyl)
        assert all(v == 0 for v in tr.ravel())


def test_weyl_vanishes_in_dimension_three():
    rng = np.random.default_rng(3)
    g = identity(3, True)
    a = _random_exact_sym(3, rng)
    weyl, _, _ = decompose(g, kulkarni_nomizu(a, a))
    assert all(v == 0 for v in weyl.ravel())


def test_invariants_on_model_spaces():
    cat = builtin_catalog()
    inv = cat["cp:2"].curvature_data().invariants()
    assert inv["scal"] == 24
    assert inv["ric2"] == 144
    assert inv["weyl2"] == 96
    assert inv["rm2"] == 192
    assert inv["ricci_part2"] == 0

    inv = cat["product:2"].curvature_data().invariants()
    assert inv["scal"] == 4
    assert inv["ric2"] == 4
    assert inv["rm2"] == 8
    assert inv["weyl2"] == Fraction(16, 3)
    assert inv["scalar_part2"] == Fraction(8, 3)

    for n in (3, 6):
        inv = cat[f"sphere:{n}"].curvature_data().invariants()
        assert inv["scal"] == n * (n - 1)
        assert inv["ric2"] == n * (n - 1) ** 2
        assert inv["rm2"] == 2 * n * (n - 1)
        assert inv["weyl2"] == 0


def test_parts_sum_to_full_norm():
    cat = builtin_catalog()
    for key in ("sphere:4", "cp:2", "product:2", "hyperbolic:5"):
        inv = cat[key].curvature_data().invariants()
        assert inv["rm2"] == inv["weyl2"] + inv["ricci_part2"] + inv["scalar_part2"]


def test_einstein_constant_none_off_locus():
    g = identity(4, True)
    a = identity(4, True)
    a[0, 0] = Fraction(3)
    rm = kulkarni_nomizu(a, g)
    cd = CurvatureData(4, g, rm)
    assert cd.einstein_constant() is None


def test_gauss_bonnet_sphere_four():
    cat = builtin_catalog()
    cd = cat["sphere:4"].curvature_data()
    dens = gauss_bonnet_integrand(cd.g, cd.rm)
    assert dens == 24  # Vol = 8 pi^2 / 3 gives 64 pi^2 = 32 pi^2 * chi(S^4)


def test_gauss_bonnet_wrong_dimension():
    cat = builtin_catalog()
    cd = cat["sphere:3"].curvature_data()
    with pytest.raises(ValueError, match="dimension-4"):
        gauss_bonnet_integrand(cd.g, cd.rm)


def test_tensor_norm2_matches_hand_contraction():
    g = np.diag([1.0, 2.0, 4.0])
    g_inv = np.linalg.inv(g)
    h = np.array([[1.0, 0.5, 0.0], [0.5, 2.0, 1.0], [0.0, 1.0, 3.0]])
    want = sum(
        g_inv[i, p] * g_inv[j, q] * h[i, j] * h[p, q]
        for i in range(3) for j in range(3) for p in range(3) for q in range(3)
    )
    assert abs(tensor_norm2(g_inv, h) - want) < 1e-13


def _tensor_route(g, rm):
    """The norms of the decompose() parts, contracted in full."""
    g_inv = inverse_metric(g)
    weyl, ricci_part, scalar_part = decompose(g, rm)
    return {"weyl2": tensor_norm2(g_inv, weyl),
            "ricci_part2": tensor_norm2(g_inv, ricci_part),
            "scalar_part2": tensor_norm2(g_inv, scalar_part)}


def test_closed_form_norms_equal_the_decomposition_on_every_model():
    cat = builtin_catalog()
    keys = [key for key in sorted(cat) if cat[key].n <= 6]
    assert len(keys) > 10
    for key in keys:
        cd = cat[key].curvature_data(exact=True)
        inv = quadratic_invariants(cd.g, cd.rm)
        for name, want in _tensor_route(cd.g, cd.rm).items():
            assert isinstance(inv[name], Fraction), (key, name)
            assert inv[name] == want, (key, name)


def test_closed_form_norms_match_the_decomposition_on_homogeneous_metrics():
    from qcf import homogeneous

    rng = np.random.default_rng(2)
    for k in range(20):
        sc = homogeneous.su2(exact=False) if k % 2 == 0 else homogeneous.su2_plus_r(exact=False)
        g = np.diag(rng.uniform(0.5, 2.0, size=sc.n))
        cd = homogeneous.curvature(sc, g)
        inv = cd.invariants()
        for name, want in _tensor_route(g, cd.rm).items():
            assert abs(inv[name] - want) <= 1e-12 * inv["rm2"], (k, name)


def _kn_four_terms(a, b):
    t1 = np.einsum("ik,jl->ijkl", a, b)
    t2 = np.einsum("il,jk->ijkl", a, b)
    t3 = np.einsum("ik,jl->ijkl", b, a)
    t4 = np.einsum("il,jk->ijkl", b, a)
    return t1 - t2 + t3 - t4


def test_kulkarni_nomizu_equals_the_four_term_formula():
    rng = np.random.default_rng(13)
    for n in (3, 4, 6):
        a = _random_exact_sym(n, rng) / 3
        b = _random_exact_sym(n, rng) / 5
        got = kulkarni_nomizu(a, b)
        assert got.dtype == object
        assert all(isinstance(v, Fraction) for v in got.ravel())
        assert np.array_equal(got, _kn_four_terms(a, b))
    for n in (3, 4, 8):
        a = np.diag(rng.uniform(-2.0, 2.0, size=n))
        b = np.diag(rng.uniform(-2.0, 2.0, size=n))
        assert kulkarni_nomizu(a, b).tobytes() == _kn_four_terms(a, b).tobytes()
