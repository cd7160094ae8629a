"""Pointwise curvature algebra: symmetries, decomposition, invariants."""

from fractions import Fraction

import numpy as np
import pytest

from qcf.catalog import builtin_catalog
from qcf.tensor_core import (
    CurvatureData,
    check_curvature_symmetries,
    constant_curvature_rm,
    contract_ricci,
    decompose,
    exact_tensor,
    gauss_bonnet_integrand,
    inverse_metric,
    is_exact,
    kulkarni_nomizu,
    quadratic_invariants,
    raise_all,
    tensor_norm2,
    validate_dim,
    vanishes,
)


def _random_exact_sym(n, rng):
    m = rng.integers(-4, 5, size=(n, n))
    return exact_tensor(m + m.T)


def _exact_eye(n):
    return exact_tensor(np.eye(n, dtype=int))


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


def test_exact_constructors_and_zero_test():
    z = exact_tensor(np.zeros((2, 3), dtype=int))
    assert vanishes(z, 0.0) and vanishes(np.zeros(4), 0.0)
    tiny = np.zeros((2, 3), dtype=int)
    tiny[1, 2] = 1
    z = z + Fraction(1, 10**30) * exact_tensor(tiny)
    assert not vanishes(z, 1.0)  # exact tensors are compared exactly, whatever tol
    floats = z.fractions().astype(float)
    assert vanishes(floats, 1e-12) and not vanishes(floats, 0.0)


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
        g = _exact_eye(n)
        rm = constant_curvature_rm(g, Fraction(1))
        cd = CurvatureData(n, g, rm)
        assert cd.scal == n * (n - 1)
        assert all(cd.ric.fractions()[i, i] == n - 1 for i in range(n))
        assert cd.einstein_constant() == n - 1


def test_decompose_reassembles_and_is_orthogonal():
    rng = np.random.default_rng(7)
    for n in (4, 5):
        g = _exact_eye(n)
        a = _random_exact_sym(n, rng)
        rm = kulkarni_nomizu(a, a)
        weyl, ricci_part, scalar_part = decompose(g, rm)
        total = weyl + ricci_part + scalar_part
        assert all(v == 0 for v in (total - rm).fractions().ravel())
        g_inv = inverse_metric(g)

        def inner(x, y):
            return np.sum(raise_all(g_inv.fractions(), x.fractions()) * y.fractions())

        assert inner(weyl, ricci_part) == 0
        assert inner(weyl, scalar_part) == 0
        assert inner(ricci_part, scalar_part) == 0
        # the Weyl part is totally trace-free
        tr = contract_ricci(g_inv, weyl)
        assert all(v == 0 for v in tr.fractions().ravel())


def test_weyl_vanishes_in_dimension_three():
    rng = np.random.default_rng(3)
    g = _exact_eye(3)
    a = _random_exact_sym(3, rng)
    weyl, _, _ = decompose(g, kulkarni_nomizu(a, a))
    assert all(v == 0 for v in weyl.fractions().ravel())


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
    g = _exact_eye(4)
    a = exact_tensor(np.diag([3, 1, 1, 1]))
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
        a = Fraction(1, 3) * _random_exact_sym(n, rng)
        b = Fraction(1, 5) * _random_exact_sym(n, rng)
        got = kulkarni_nomizu(a, b)
        assert is_exact(got)
        got = got.fractions()
        assert all(isinstance(v, Fraction) for v in got.ravel())
        assert np.array_equal(got, _kn_four_terms(a.fractions(), b.fractions()))
    for n in (3, 4, 8):
        a = np.diag(rng.uniform(-2.0, 2.0, size=n))
        b = np.diag(rng.uniform(-2.0, 2.0, size=n))
        assert kulkarni_nomizu(a, b).tobytes() == _kn_four_terms(a, b).tobytes()


# A pure-Fraction oracle for the integer exact core: the same contractions
# written as np.einsum over Fraction object arrays, with g^-1 checked by
# g g^-1 = I rather than taken from the code under test.

def _fraction_array(arr):
    out = np.empty(np.shape(arr), dtype=object)
    out.ravel()[:] = [Fraction(v) for v in np.asarray(arr).ravel().tolist()]
    return out


def _fraction_eye(n):
    return _fraction_array(np.eye(n, dtype=int))


def _oracle(g, g_inv, rm, tau):
    n = g.shape[0]
    assert ((g @ g_inv) == _fraction_eye(n)).all()
    ric = np.einsum("ik,ijkl->jl", g_inv, rm)
    scal = np.einsum("jl,jl->", g_inv, ric)
    rm_up = rm
    if not (g_inv == _fraction_eye(n)).all():  # raising by the identity changes nothing
        for axis in range(4):
            rm_up = np.moveaxis(np.tensordot(g_inv, rm_up, axes=([1], [axis])), 0, axis)
    ric_up = np.einsum("ka,lb,ab->kl", g_inv, g_inv, ric)
    rm2, ric2 = np.sum(rm_up * rm), np.sum(ric_up * ric)
    half = Fraction(1, 2)
    grad0 = -2 * np.einsum("pkql,kl->pq", rm, ric_up) + half * ric2 * g
    grad_s = -2 * scal * ric + half * scal * scal * g
    return {"ric": ric, "scal": scal, "rm2": rm2, "ric2": ric2,
            "grad": grad0 + tau * grad_s, "grad0": grad0, "grad_s": grad_s}


def _assert_matches_oracle(cd, g_inv, tau, einstein):
    from qcf.homogeneous import gradient_from_einstein

    want = _oracle(cd.g.fractions(), g_inv, cd.rm.fractions(), tau)
    inv = cd.invariants()
    ric = cd.ric.fractions()
    assert all(type(v) is Fraction for v in ric.ravel())
    assert np.array_equal(ric, want["ric"])
    assert np.array_equal(cd.g_inv.fractions(), g_inv)
    for name, got in (("scal", cd.scal), ("rm2", inv["rm2"]), ("ric2", inv["ric2"])):
        assert type(got) is Fraction and got == want[name], name
    grad = cd.algebraic_gradient(tau).fractions()
    assert all(type(v) is Fraction for v in grad.ravel())
    assert np.array_equal(grad, want["grad"])
    if einstein:
        grad0 = gradient_from_einstein(cd, Fraction(0))
        grad_s = gradient_from_einstein(cd, Fraction(1)) - grad0
        assert np.array_equal(grad0.fractions(), want["grad0"])
        assert np.array_equal(grad_s.fractions(), want["grad_s"])


def test_integer_core_matches_fraction_oracle_on_every_model():
    cat = builtin_catalog()
    assert len(cat) == 25
    for key in sorted(cat):
        cd = cat[key].curvature_data(exact=True)
        n = cat[key].n
        assert cd.g is cd.g and cd.rm is cd.rm  # built once per object
        _assert_matches_oracle(cd, _fraction_eye(n), Fraction(-3, 7), einstein=True)


def test_integer_core_matches_fraction_oracle_off_the_identity():
    """Rational g != I: non-trivial denominators, g^-1 and non-Einstein data."""
    from qcf import homogeneous

    def diag(entries):
        return _fraction_array(np.diag([Fraction(e) for e in entries]))

    def diag_inv(entries):
        return diag([1 / Fraction(e) for e in entries])

    cases = [
        (homogeneous.su2(exact=True), ["2/3", "5/7", "2/3"], False),
        (homogeneous.su2(exact=True), ["2/3", "2/3", "2/3"], True),
        (homogeneous.su2(exact=True), ["5/7", "5/7", "5/7"], True),
        (homogeneous.su2_plus_r(exact=True), ["2/3", "5/7", "1", "5/7"], False),
        (homogeneous.su2(exact=True), ["1", "1", "1/9"], False),  # berger_metric(1/3)
    ]
    for sc, entries, einstein in cases:
        cd = homogeneous.curvature(sc, exact_tensor(diag(entries)))
        assert (cd.einstein_constant() is not None) == einstein, entries
        _assert_matches_oracle(cd, diag_inv(entries), Fraction(5, 11), einstein)
    g = homogeneous.berger_metric(Fraction(1, 3), exact=True)
    assert np.array_equal(g.fractions(), diag(["1", "1", "1/9"]))
    # a non-diagonal rational metric and a Kulkarni-Nomizu curvature tensor
    g = _fraction_array([[2, Fraction(1, 3), 0, 0], [Fraction(1, 3), Fraction(5, 7), 0, 1],
                         [0, 0, 3, Fraction(-1, 2)], [0, 1, Fraction(-1, 2), 4]])
    rng = np.random.default_rng(17)
    rm = kulkarni_nomizu(Fraction(1, 3) * _random_exact_sym(4, rng),
                         Fraction(1, 5) * _random_exact_sym(4, rng))
    g = exact_tensor(g)
    _assert_matches_oracle(CurvatureData(4, g, rm), inverse_metric(g).fractions(),
                           Fraction(-2, 9), einstein=False)


def test_exact_tensor_round_trip_and_arithmetic():
    from qcf.tensor_core import contract

    a = _fraction_array([[Fraction(1, 3), -2], [Fraction(10**30, 7), 0]])
    b = _fraction_array([[Fraction(-5, 6), 1], [4, Fraction(1, 10**30)]])
    ea, eb = exact_tensor(a), exact_tensor(b)
    assert exact_tensor(ea) is ea
    assert np.array_equal(ea.fractions(), a)
    assert np.array_equal((ea + eb).fractions(), a + b)
    assert np.array_equal((ea - eb).fractions(), a - b)
    assert np.array_equal((Fraction(-3, 4) * ea).fractions(), Fraction(-3, 4) * a)
    assert np.array_equal(ea.transpose(1, 0).fractions(), a.T)
    assert np.array_equal(contract("ij,jk->ik", ea, eb).fractions(), a @ b)
    assert contract("ij,ij->", ea, eb) == np.sum(a * b)
    assert vanishes(ea - ea, 0.0) and not vanishes(ea, 1e300)
    assert np.array_equal(kulkarni_nomizu(ea, eb).fractions(), _kn_four_terms(a, b))


# The int64 numerators: every exact-tensor operation against np.einsum on
# Fraction object arrays, with entries small, near 2**31 (products fit in
# int64, sums of n of them do not), near 2**62 and far past int64.

_TOP = {"small": 9, "2^31": 2**31 - 1, "2^62": 2**62 - 1, "huge": 10**30}


def _draw(rng, shape, top, dens=(1, 2, 3, 5, 7)):
    """Fractions m/d with |m| <= top, one in three of them +top, as an object array."""
    out = np.empty(shape, dtype=object)
    out.ravel()[:] = [Fraction(top if rng.random() < 1 / 3 else rng.randint(-top, top),
                               rng.choice(dens)) for _ in range(out.size)]
    return out


def _checked(e, want):
    """Assert that the exact tensor e holds want, in the form its bound prescribes."""
    from qcf.tensor_core import _Exact

    assert isinstance(e, _Exact)
    assert (e.num.dtype == np.int64) == (e.bound < 2**62)
    assert e.num.dtype in (np.int64, object)
    assert all(abs(v) <= e.bound for v in e.num.ravel().tolist())
    got = e.fractions()
    assert got.shape == want.shape and (got == want).all()
    assert all(type(v) is Fraction and type(v.numerator) is int and type(v.denominator) is int
               for v in got.ravel())


def _raised_norm2(g_inv, t):
    """|t|^2 with every index raised by g_inv, on Fraction arrays."""
    up = t
    for axis in range(t.ndim):
        up = np.moveaxis(np.tensordot(g_inv, up, axes=([1], [axis])), 0, axis)
    return np.sum(up * t)


# einsum specs with the operands they take: a and b are 2-tensors, c a 4-tensor
_SPECS = [("ij,jk->ik", "ab"), ("ik,jl->ijkl", "ab"), ("...il,...jk->...ijkl", "ab"),
          ("ik,ijkl->jl", "ac"), ("pkql,kl->pq", "ca"), ("jl,jl->", "aa"),
          ("ijkl,ijkl->", "cc"), ("ka,lb,ab->kl", "aba")]


@pytest.mark.parametrize("size", sorted(_TOP))
def test_exact_operations_match_the_fraction_oracle(size):
    import random

    from qcf.tensor_core import contract

    rng, top = random.Random(len(size)), _TOP[size]
    for n in range(3, 9):
        a, b = _draw(rng, (n, n), top), _draw(rng, (n, n), top)
        c = _draw(rng, (n,) * 4, top)
        ea, eb, ec = exact_tensor(a), exact_tensor(b), exact_tensor(c)
        for e, want in ((ea, a), (ec, c)):
            _checked(e, want)
        _checked(ea + eb, a + b)
        _checked(ea - eb, a - b)
        _checked(-ec, -c)
        _checked(ec.transpose(2, 0, 3, 1), c.transpose(2, 0, 3, 1))
        for k in (3, -1, Fraction(-5, 7), 2**40, Fraction(7, 2**70)):
            _checked(k * ea, k * a)
            _checked(ec * k, c * k)
        pairs = {"a": (ea, a), "b": (eb, b), "c": (ec, c)}
        for spec, names in _SPECS:
            got = contract(spec, *(pairs[x][0] for x in names))
            want = np.einsum(spec, *(pairs[x][1] for x in names))
            if np.ndim(want) == 0:
                assert type(got) is Fraction and got == want and type(got.numerator) is int
            else:
                _checked(got, want)
        got = tensor_norm2(eb, ea)
        assert type(got) is Fraction and type(got.numerator) is int
        assert got == _raised_norm2(b, a)
        if n <= 5:
            assert tensor_norm2(eb, ec) == _raised_norm2(b, c)
        assert vanishes(ec - ec, 0.0) and not vanishes(ec, 1e300)


def test_sums_of_products_that_fit_int64_are_still_exact():
    """n products of 2**31 - 1 each fit in int64 and their sum does not, so
    the bound of a contraction counts its summed indices (and |T|^2 the
    sizes of the indices it raises and sums)."""
    from qcf.tensor_core import contract

    top = 2**31 - 1
    for n in range(3, 9):
        a = np.full((n, n), top, dtype=np.int64)
        ea = exact_tensor(a)
        assert ea.num.dtype == np.int64
        got = contract("ij,jk->ik", ea, ea)
        assert got.num.dtype == object
        assert got.fractions().tolist() == [[Fraction(n * top * top)] * n] * n
        assert contract("ij,ij->", ea, ea) == n * n * top * top
        cube = 2**21 - 1  # top**3 fits in int64, n**2 top**3 does not
        ec = exact_tensor(np.full((n, n), cube))
        got = contract("ka,lb,ab->kl", ec, ec, ec)
        assert set(got.fractions().ravel().tolist()) == {n * n * cube ** 3}
        assert tensor_norm2(ea, ea) == n ** 4 * top ** 4
        # |T|^2 sums size * n^rank products, each within int64
        ones = exact_tensor(np.ones((n, n), dtype=int))
        for rank, t in ((2, 2**27), (4, 2**20)):
            got = tensor_norm2(ones, exact_tensor(np.full((n,) * rank, t)))
            assert got == n ** (2 * rank) * t * t


def test_numerators_leave_int64_exactly_at_the_limit():
    below, at = exact_tensor([[2**62 - 1]]), exact_tensor(np.array([[-(2**62)]]))
    assert (below.bound, below.num.dtype) == (2**62 - 1, np.int64)
    assert (at.bound, at.num.dtype) == (2**62, object)
    half = exact_tensor(np.array([2**61, -(2**61)]))
    assert half.num.dtype == np.int64
    for e in (half + half, 2 * half, half - -half):
        assert e.bound == 2**62 and e.num.dtype == object
        assert e.fractions().tolist() == [2**62, -(2**62)]
    top = exact_tensor([2**62 - 1, 1])
    assert (top + top).fractions().tolist() == [2**63 - 2, 2]
    assert (top * 4).fractions().tolist() == [2**64 - 4, 4]


def test_huge_scalars_and_denominators_on_zero_and_int64_tensors():
    from qcf.tensor_core import contract

    zero = exact_tensor(np.zeros((3, 3), dtype=int))
    for k in (10**30, -(10**30), Fraction(10**30, 7), Fraction(3, 10**30)):
        z = zero * k
        assert vanishes(z, 0.0) and z.fractions().tolist() == [[Fraction(0)] * 3] * 3
    one = exact_tensor(np.eye(3, dtype=int))
    tiny = exact_tensor(_fraction_array(np.eye(3, dtype=int)) / 10**30)
    assert tiny.den == 10**30 and tiny.num.dtype == np.int64
    _checked(zero + tiny, _fraction_array(np.eye(3, dtype=int)) / 10**30)
    _checked(one * 10**30, _fraction_array(np.eye(3, dtype=int)) * 10**30)
    _checked(one + tiny, _fraction_array(np.eye(3, dtype=int)) * (1 + Fraction(1, 10**30)))
    huge = exact_tensor(_fraction_array([[10**40, -3], [1, Fraction(2, 3)]]))
    assert huge.num.dtype == object
    _checked(contract("ij,jk->ik", huge, exact_tensor(np.eye(2, dtype=int))),
             huge.fractions())
    assert contract("ij,ij->", huge, huge) == 10**80 + 9 + 1 + Fraction(4, 9)


def test_exact_tensor_of_int_fraction_and_python_int_arrays():
    cases = [np.arange(-4, 5).reshape(3, 3), np.arange(9, dtype=np.int32).reshape(3, 3),
             np.array([[0, 255]], dtype=np.uint8), np.array([2**63 + 5, 1], dtype=np.uint64),
             np.array([-(2**63), 2**63 - 1], dtype=np.int64),
             _fraction_array([[Fraction(1, 3), -2], [Fraction(10**30, 7), 0]]),
             np.array([[10**30, -1], [2**62, 0]], dtype=object),
             np.array([[1, -2], [3, 0]], dtype=object), [[1, 2], [3, 4]], np.zeros((2, 0), int)]
    for values in cases:
        e = exact_tensor(values)
        _checked(e, _fraction_array(values))
        if np.asarray(values).dtype.kind in "iu":
            assert e.den == 1
    a = np.eye(3, dtype=np.int64)
    e = exact_tensor(a)
    a[0, 1] = 2**62  # the exact tensor holds its own numerators
    _checked(e, _fraction_array(np.eye(3, dtype=int)))
