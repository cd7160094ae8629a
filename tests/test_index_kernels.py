"""The one-matmul-per-index kernels against their tensordot/moveaxis oracles.

`tensor_core.raise_all` raises every index of a tensor and
`homogeneous._cov1` differentiates an invariant covariant tensor; both
contract one index at a time with a matrix product. The oracles below
are the earlier `np.tensordot` + `np.moveaxis` forms of the same loops,
applied item by item to a stack with leading batch axes.
On float input the kernels must agree with them bit for bit (so that
`qcf grad` and `qcf verify` print the same bytes), and on the exact
tensors of the exact path entry for entry. The mutation tests check that
`qcf verify` notices a broken kernel, and a metric-compatibility check
the one mutation no output shows: the overall sign of the derivative.
"""

from fractions import Fraction

import numpy as np

from qcf import homogeneous, tensor_core, verify
from qcf.homogeneous import _cov1, levi_civita, su2, su2_plus_r
from qcf.tensor_core import exact_tensor, inverse_metric, raise_all, tensor_norm2

CASES = 1200


def _raise_all_oracle(g_inv, t, skip=0):
    """Every index raised by tensordot + moveaxis; `skip` leaves the last indices.

    A stack of metrics g_inv (..., n, n) raises its stack of tensors item by item.
    """
    if g_inv.ndim > 2:
        return np.stack([_raise_all_oracle(gi, ti, skip) for gi, ti in zip(g_inv, t)])
    out = t
    for axis in range(t.ndim - skip):
        out = np.tensordot(g_inv, out, axes=([1], [axis]))
        out = np.moveaxis(out, 0, axis)
    return out


def _cov1_oracle(gam, t, sign=-1):
    """-sum_p Gamma^m_{a i_p} T_{..m..} by tensordot + moveaxis; `sign` is
    that of every contribution after the first. A stack of connections
    (..., n, n, n) takes its stack of tensors item by item."""
    if gam.ndim > 3:
        return np.stack([_cov1_oracle(gi, ti, sign) for gi, ti in zip(gam, t)])
    out = None
    for p in range(t.ndim):
        contrib = np.moveaxis(np.tensordot(gam, t, axes=([2], [p])), 1, p + 1)
        out = -contrib if out is None else out + sign * contrib
    return out


def _spd(rng, n):
    """A diagonal or a full symmetric positive definite matrix, half each."""
    if rng.random() < 0.5:
        return np.diag(rng.uniform(0.3, 3.0, n))
    a = rng.normal(size=(n, n))
    return a @ a.T + rng.uniform(0.1, 1.0) * n * np.eye(n)


def _float_cases(seed):
    rng = np.random.default_rng(seed)
    for _ in range(CASES):
        n = int(rng.integers(3, 9))
        rank = int(rng.integers(1, 5))
        t = rng.normal(size=(n,) * rank) * 10.0 ** int(rng.integers(-3, 4))
        yield rng, n, rank, t


def test_raise_all_is_bitwise_the_tensordot_loop():
    ranks = set()
    for rng, n, rank, t in _float_cases(20261018):
        g_inv = np.linalg.inv(_spd(rng, n))
        got, want = raise_all(g_inv, t), _raise_all_oracle(g_inv, t)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (n, rank)
        assert tensor_norm2(g_inv, t).tobytes() == np.sum(want * t).tobytes()
        ranks.add(rank)
    assert ranks == {1, 2, 3, 4}


def test_cov1_is_bitwise_the_tensordot_loop():
    for rng, n, rank, t in _float_cases(1105):
        gam = rng.normal(size=(n, n, n))
        got, want = _cov1(gam, t), _cov1_oracle(gam, t)
        assert got.shape == want.shape == (n,) * (rank + 1)
        assert got.tobytes() == want.tobytes(), (n, rank)


def test_cov1_is_bitwise_on_connections():
    """On the connections that gradient_F and divergence pass it."""
    rng = np.random.default_rng(4648)
    for sc in (su2(), su2_plus_r()):
        for _ in range(50):
            g = np.diag(rng.uniform(0.5, 2.0, sc.n))
            gam = levi_civita(sc, g)
            h = rng.normal(size=(sc.n, sc.n))
            h = h + h.T
            for t in (h, _cov1(gam, h)):
                assert _cov1(gam, t).tobytes() == _cov1_oracle(gam, t).tobytes()


def _fractions(rng, shape):
    out = np.empty(shape, dtype=object)
    out.ravel()[:] = [Fraction(int(p), int(q)) for p, q in
                      zip(rng.integers(-9, 10, out.size), rng.integers(1, 7, out.size))]
    return out


def test_kernels_are_exact_on_exact_tensors():
    rng = np.random.default_rng(7)
    for n in range(3, 9):
        a = rng.integers(-3, 4, size=(n, n))
        g = exact_tensor(a @ a.T + n * np.eye(n, dtype=int))
        g_inv = inverse_metric(g)
        for rank in range(1, 5):
            t = exact_tensor(_fractions(rng, (n,) * rank))
            got = raise_all(g_inv.num, t.num)
            want = _raise_all_oracle(g_inv.num, t.num)
            assert got.shape == want.shape and (got == want).all()
            # Fraction arithmetic is exact in any order, so the costly
            # Fraction-array cases stop at the ranks and sizes gradient_F uses
            if rank > 3 or (rank == 3 and n > 4):
                continue
            frac = t.fractions()
            if rank < 3:
                assert (tensor_norm2(g_inv, t)
                        == np.sum(_raise_all_oracle(g_inv.fractions(), frac) * frac))
            gam = exact_tensor(_fractions(rng, (n, n, n)))
            got, want = _cov1(gam, t).fractions(), _cov1_oracle(gam.fractions(), frac)
            assert got.shape == want.shape and (got == want).all()


def test_verify_10_fails_when_raise_all_skips_an_index(monkeypatch):
    assert verify.check_property_suites(0).passed
    monkeypatch.setattr(tensor_core, "raise_all",
                        lambda g_inv, t: _raise_all_oracle(g_inv, t, skip=1))
    assert not verify.check_property_suites(0).passed


def test_verify_03_fails_when_cov1_flips_a_sign(monkeypatch):
    """A sign flipped in one contribution of the covariant derivative breaks
    Delta Ric and so the Berger criticality residual of verify 03.

    On su(2) with diagonal metrics alone verify 06 could not see it: there
    the divergence of a diagonal invariant tensor vanishes term by term
    (the next test checks that its other samples do). The overall sign of
    _cov1 cancels in Delta Ric; the metric-compatibility test below pins it.
    """
    mutant = lambda gam, t: _cov1_oracle(gam, t, sign=+1)  # noqa: E731
    assert verify.check_berger_secondary().passed
    monkeypatch.setattr(homogeneous, "_cov1", mutant)
    assert not verify.check_berger_secondary().passed


def test_verify_06_fails_when_cov1_flips_a_sign(monkeypatch):
    mutant = lambda gam, t: _cov1_oracle(gam, t, sign=+1)  # noqa: E731
    assert verify.check_divergence_free(0).passed
    monkeypatch.setattr(homogeneous, "_cov1", mutant)
    assert not verify.check_divergence_free(0).passed


def test_verify_06_fails_when_levi_civita_swaps_its_first_two_indices(monkeypatch):
    """Gamma^k_ji for Gamma^k_ij is the connection with the opposite torsion.
    On su(2) and su(2)+R it leaves delta grad F at roundoff, on the solvable
    algebra [e1,e2] = e2, [e1,e3] = e3 of order 10 (the real code: below 1e-11)."""
    real = levi_civita
    mutant = lambda sc, g, g_inv=None: np.swapaxes(real(sc, g, g_inv), -3, -2)  # noqa: E731
    assert verify.check_divergence_free(0).passed
    monkeypatch.setattr(homogeneous, "levi_civita", mutant)
    result = verify.check_divergence_free(0)
    assert not result.passed
    assert float(result.measured.split("= ")[1].split()[0]) > 1.0


def _cov1_matches_metric_compatibility(cov1) -> bool:
    """Whether cov1 of each 1-form g(e_i, .) is g(nabla_a e_i, .), exactly.

    That identity is nabla g = 0 and fixes the sign of the derivative,
    which the outputs do not: gradient_F applies _cov1 twice (in Delta
    Ric), and the divergence is only ever checked to vanish.
    """
    g = exact_tensor(np.diag([Fraction(3, 2), Fraction(5, 7), Fraction(2)]))
    gam = levi_civita(su2(exact=True), g)
    gf, gamf = g.fractions(), gam.fractions()
    for i in range(3):
        lowered = gamf[:, i, :] @ gf  # [a, k] = g(nabla_a e_i, e_k)
        assert any(v != 0 for v in lowered.ravel())
        if not (cov1(gam, exact_tensor(gf[i])).fractions() == lowered).all():
            return False
    return True


def test_cov1_sign_matches_metric_compatibility():
    assert _cov1_matches_metric_compatibility(_cov1)
    assert not _cov1_matches_metric_compatibility(lambda gam, t: -_cov1(gam, t))
