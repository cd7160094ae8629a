"""Left-invariant geometry from structure constants.

A compact homogeneous metric is described here by the structure
constants of an invariant frame, [e_i, e_j] = c^k_ij e_k, together with
a constant positive-definite matrix g_ij. The Koszul formula then has
no derivative terms, so the Levi-Civita connection, curvature tensor,
covariant derivatives of invariant tensors and the gradients of the
quadratic functionals are all finite algebra. Each kernel has one code
path, which runs on float arrays or, for exact structure constants and
an exact metric (su2(exact=True), berger_metric(s, exact=True)), on
tensor_core's exact tensors: every contraction goes through
tensor_core.contract, which on arrays is np.einsum itself.

The float kernels (levi_civita, curvature, the covariant derivative,
the rough Laplacian, divergence and gradient_F) take leading batch
axes, as tensor_core's do: a stack of metrics g of shape (..., n, n)
over one algebra goes through one call, with tau a number or one value
per metric. One metric takes exactly the operations it took alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from qcf.functionals import evaluate
from qcf.tensor_core import (
    CurvatureData,
    contract,
    exact_tensor,
    inverse_metric,
    is_exact,
    transpose_last,
    vanishes,
)

# Volume of the unit round 3-sphere, the reference frame volume for SU(2)
# with the bi-invariant metric diag(1,1,1).
SU2_REFERENCE_VOLUME = 2.0 * math.pi**2


class _StructureFields(NamedTuple):
    n: int
    c: np.ndarray

    @property
    def exact(self) -> bool:
        return is_exact(self.c)


class StructureConstants(_StructureFields):
    """Structure constants c[i, j, k] = c^k_ij of a Lie algebra frame.

    Validates antisymmetry in (i, j) and the Jacobi identity on
    construction: exact tensors exactly, float arrays to 1e-12.
    """

    __slots__ = ()

    def __new__(cls, n, c):
        if c.shape != (n,) * 3:
            raise ValueError("structure constant array must be n x n x n")
        anti = c + transpose_last(c, (1, 0, 2))
        jac = (
            contract("ijm,mkl->ijkl", c, c)
            + contract("jkm,mil->ijkl", c, c)
            + contract("kim,mjl->ijkl", c, c)
        )
        for name, defect in [("antisymmetry", anti), ("Jacobi identity", jac)]:
            if not vanishes(defect, 1e-12):
                raise ValueError(f"structure constants violate {name}")
        return tuple.__new__(cls, (n, c))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _su2_frame(n: int, exact: bool) -> StructureConstants:
    """su(2) in the first three frame vectors of an n-dimensional algebra."""
    c = np.zeros((n, n, n), dtype=int)
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        c[i, j, k], c[j, i, k] = 2, -2
    return StructureConstants(n, exact_tensor(c) if exact else c.astype(float))


def su2(exact: bool = False) -> StructureConstants:
    """su(2) in the frame with [e1,e2] = 2 e3 (cyclically).

    diag(1,1,1) in this frame is the unit round 3-sphere metric and
    diag(1,1,s^2) is the Berger family.
    """
    return _su2_frame(3, exact)


def su2_plus_r(exact: bool = False) -> StructureConstants:
    """su(2) + R: a 4-dimensional algebra with a central direction.

    Diagonal metrics here are generically non-Einstein, so the
    derivative term Delta Ric of the gradient is nonzero, which is what
    the trace and divergence checks of the F_{-1/3} gradient need.
    """
    return _su2_frame(4, exact)


def berger_metric(s, exact: bool = False):
    """diag(1, 1, s^2): the Hopf-fiber-scaled family on SU(2).

    An exact tensor when exact, for an int or Fraction s.
    """
    if exact:
        s2 = Fraction(s) ** 2
        q = s2.denominator
        return exact_tensor(np.diag([q, q, s2.numerator])) * Fraction(1, q)
    g = np.eye(3)
    g[2, 2] = float(s) ** 2
    return g


def levi_civita(sc: StructureConstants, g: np.ndarray,
                g_inv: np.ndarray | None = None) -> np.ndarray:
    """Connection coefficients G[i, j, k] = Gamma^k_ij in the frame.

    Koszul with constant inner products:
    2 <nab_i e_j, e_k> = c_ij,k - c_jk,i + c_ki,j, indices lowered by g.
    The torsion defect Gamma^k_ij - Gamma^k_ji equals c^k_ij. g_inv,
    when given, is taken as the inverse of g. Exact structure constants
    take an exact metric and float ones a float metric.
    """
    if sc.exact != is_exact(g):
        raise ValueError("exact structure constants take an exact metric "
                         "(exact_tensor), float ones a float metric")
    if g_inv is None:
        g_inv = inverse_metric(g)
    clow = contract("...kl,ijl->...ijk", g, sc.c)  # c_ij,k
    # transpose(clow, (2, 0, 1))[i, j, k] = clow[j, k, i] and
    # transpose(clow, (1, 2, 0))[i, j, k] = clow[k, i, j]
    koszul = clow - transpose_last(clow, (2, 0, 1)) + transpose_last(clow, (1, 2, 0))
    half = Fraction(1, 2) if sc.exact else 0.5
    return half * contract("...kl,...ijl->...ijk", g_inv, koszul)


def curvature(sc: StructureConstants, g: np.ndarray) -> CurvatureData:
    """Curvature tensor of the invariant metric, as CurvatureData.

    Sign convention: R(X,Y)Z = nab_X nab_Y Z - nab_Y nab_X Z - nab_[X,Y] Z
    and Rm[i,j,k,l] = g(e_k, R(e_i,e_j) e_l), which makes the unit round
    metric come out with Rm = (1/2) g kn g and Ric = (n-1) g.
    """
    return _curvature(sc, g, *_connection(sc, g))


def _connection(sc: StructureConstants, g, g_inv=None, gam=None) -> tuple:
    """(g^-1, the connection of g), each built unless given."""
    if g_inv is None:
        g_inv = inverse_metric(g)
    if gam is None:
        gam = levi_civita(sc, g, g_inv)
    return g_inv, gam


def _curvature(sc: StructureConstants, g: np.ndarray, g_inv: np.ndarray,
               gam: np.ndarray) -> CurvatureData:
    """curvature() from the inverse metric and the connection already built."""
    # f[i,j,k,l]: coefficient of e_l in R(e_i,e_j) e_k
    f = (
        contract("...jkm,...iml->...ijkl", gam, gam)
        - contract("...ikm,...jml->...ijkl", gam, gam)
        - contract("ijm,...mkl->...ijkl", sc.c, gam)
    )
    rm = contract("...km,...ijlm->...ijkl", g, f)
    return CurvatureData(sc.n, g, rm, g_inv=g_inv)


def _cov1(gam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Covariant derivative of an invariant covariant tensor.

    Frame components of invariant tensors are constant, so
    (nab T)_{a, i1..ir} = -sum_p Gamma^m_{a i_p} T_{..m..}; the
    derivative index is prepended. A stack of connections (..., n, n, n)
    takes a stack of tensors with the same leading axes.
    """
    lead, n = gam.shape[:-3], gam.shape[-1]
    r = t.ndim - len(lead)
    if r == 0:
        # scalars are constant on a homogeneous space
        zero = np.zeros((*lead, n), dtype=int)
        return exact_tensor(zero) if is_exact(t) else zero.astype(float)
    gam2 = gam.reshape(*lead, n * n, n)
    out = None
    for p in range(r):
        # one matmul over i_p, with the other indices in their order as the
        # columns (np.tensordot's layout, and so its bits); the product has
        # axes (a, i_p, the other indices), and i_p goes back to its place
        rest = [q for q in range(r) if q != p]
        cols = transpose_last(t, [p] + rest).reshape(*lead, n, -1)
        contrib = (gam2 @ cols).reshape(*lead, *(n,) * (r + 1))
        contrib = transpose_last(contrib, [0, *range(2, p + 2), 1, *range(p + 2, r + 1)])
        out = -contrib if out is None else out - contrib
    return out


def _laplacian(g_inv: np.ndarray, gam: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rough Laplacian Delta T = g^ab nab_a nab_b T of an invariant tensor, from
    the inverse metric and the connection (levi_civita)."""
    idx = "ijklmnop"[:t.ndim - (g_inv.ndim - 2)]
    return contract(f"...ab,...ab{idx}->...{idx}", g_inv, _cov1(gam, _cov1(gam, t)))


def divergence(sc: StructureConstants, g: np.ndarray, h: np.ndarray,
               g_inv: np.ndarray | None = None, gam: np.ndarray | None = None) -> np.ndarray:
    """(delta h)_j = nab^i h_ij for a symmetric 2-tensor.

    g_inv and gam, when given, are taken as the inverse of g and its
    connection (levi_civita), as in gradient_F.
    """
    if h.ndim - (g.ndim - 2) != 2:
        raise ValueError("divergence here takes a 2-tensor")
    g_inv, gam = _connection(sc, g, g_inv, gam)
    return contract("...ia,...aij->...j", g_inv, _cov1(gam, h))


def gradient_F(sc: StructureConstants, g: np.ndarray, tau,
               g_inv: np.ndarray | None = None, gam: np.ndarray | None = None) -> np.ndarray:
    """Gradient of F_tau = int |Ric|^2 + tau int R^2 at an invariant metric.

    grad F_0 = -Delta Ric_pq - 2 Rm_pkql Ric^kl + Hess(R)_pq
               - (1/2)(Delta R) g_pq + (1/2)|Ric|^2 g_pq
    grad S   = 2 Hess(R)_pq - 2 (Delta R) g_pq - 2 R Ric_pq + (1/2) R^2 g_pq

    R is an invariant scalar, so Hess(R) and Delta R vanish identically
    on a homogeneous space and those terms are left out; Delta Ric is
    genuinely nonzero away from the Einstein locus. What remains is
    CurvatureData.algebraic_gradient minus Delta Ric. g is inverted and
    the connection built once, for the curvature and for Delta Ric;
    g_inv and gam, when given, are taken as the inverse of g and its
    connection (levi_civita), so that a caller who also takes the
    divergence builds them once.
    """
    g_inv, gam = _connection(sc, g, g_inv, gam)
    cd = _curvature(sc, g, g_inv, gam)
    return cd.algebraic_gradient(tau) - _laplacian(g_inv, gam, cd.ric)


def gradient_from_einstein(cd: CurvatureData, tau) -> np.ndarray:
    """Gradient of F_tau evaluated on Einstein curvature data.

    For Ric = (R/n) g the Ricci tensor is parallel, so every derivative
    term of the gradient vanishes and only the algebraic terms remain.
    Raises if the data is not Einstein (use the structure-constant route
    for non-Einstein metrics, where Delta Ric matters).
    """
    if cd.einstein_constant() is None:
        raise ValueError("curvature data is not Einstein; derivative terms "
                         "would not vanish")
    return cd.algebraic_gradient(tau)


def volume(sc: StructureConstants, g: np.ndarray, vol_ref: float) -> float:
    """Total volume vol_ref * sqrt(det g).

    vol_ref is the volume in the reference frame where g = identity
    (2 pi^2 for the SU(2) frame used by su2()); g is a float metric.
    """
    return float(vol_ref) * math.sqrt(float(np.linalg.det(g)))


def functional_value(sc: StructureConstants, g: np.ndarray, tau,
                     vol_ref: float, normalized: bool = False) -> float:
    """F_tau (or the volume-normalized Ftilde_tau) of an invariant metric.

    The density is constant, so F_tau = Vol * (|Ric|^2 + tau R^2);
    the normalized version multiplies by Vol^(4/n - 1). The value is
    functionals.evaluate's, as a float.
    """
    return float(evaluate(tau, curvature(sc, g), volume(sc, g, vol_ref), normalized))
