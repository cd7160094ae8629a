"""Dense algebraic curvature tensors in an invariant frame.

Everything here is pointwise linear algebra: Kulkarni-Nomizu products,
Ricci contractions, the Weyl/traceless-Ricci/scalar decomposition and
the quadratic invariants |Rm|^2, |Ric|^2, R^2, |W|^2. Two backends share
one code path: float64 arrays, or exact rational tensors (dimensions
are capped at 8, so dense is cheap).

An exact tensor is held in one form, ``_Exact``: integer numerators over
one positive int denominator, with a bound on |numerator| worked out
from the operands. The numerators are int64 while that bound is below
2**62 and Python ints once it reaches it, so one set of numpy calls runs
on machine words for the catalog's small numerators and stays exact at
any size. A contraction is then an integer einsum and a product of
denominators, with no Fraction arithmetic per entry.
``exact_tensor`` builds the form from integers or Fractions, and every
function here, ``CurvatureData`` and the kernels of ``homogeneous`` take
and return it wherever a float backend takes and returns an array: the
exact path is the float path run on exact tensors. A full contraction
gives a Fraction, and a Fraction array is built only when a caller asks
for one with ``_Exact.fractions()``. vanishes is the only code that
decides that a tensor is zero; other modules call it.

Float tensors may carry leading batch axes: a stack of metrics g of
shape (..., n, n) with tensors of shape (..., n, ..., n), one per
metric, goes through the same calls as one metric, and a full
contraction returns an array over the batch axes. The depth of the
batch is read from the metric (g or g_inv), so tensor indices sit at
negative axes. Unbatched input takes exactly the operations of one
metric, bit for bit; exact tensors are never batched.

Index conventions, fixed once and used everywhere:
  Rm[i,j,k,l] is fully covariant with Rm = (1/2) kn(g, g) for the unit
  round metric (sectional curvature +1), and Ric[j,l] = g^ik Rm[i,j,k,l]
  so the round metric has Ric = (n-1) g.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Any

import numpy as np

from qcf._exact import common_denominator, integer_inverse
from qcf._exact import exact_det, exact_inv  # noqa: F401 SITES pins these; ROADMAP item 1b

DIM_MIN = 3
DIM_MAX = 8


_LIMIT = 1 << 62  # numerators are int64 while their bound is below this


class _Exact:
    """An exact tensor num / den with den > 0 and |num| <= bound entrywise.

    Each operation works out the bound of its result first and computes
    in Python ints once it reaches 2**62, so int64 never overflows.
    Supports +, -, negation, multiplication by an int or Fraction scalar,
    matrix products (@), transpose and reshape; einsum goes through
    ``contract``.
    """

    __slots__ = ("num", "den", "bound")
    # the benchmark's span tracer (perfbench/spans.py) tells exact from
    # float invariants by g.dtype == object
    dtype = np.dtype(object)
    __array_ufunc__ = None  # numpy operators defer to the methods below

    def __init__(self, num: np.ndarray, den: int, bound: int):
        dtype = np.int64 if bound < _LIMIT else object
        self.num = num if num.dtype == dtype else num.astype(dtype)
        self.den, self.bound = den, bound

    @property
    def shape(self) -> tuple:
        return self.num.shape

    @property
    def ndim(self) -> int:
        return self.num.ndim

    def fractions(self) -> np.ndarray:
        """The entries as a Fraction array; equal entries share one Fraction."""
        vals = self.num.ravel().tolist()
        made = {v: Fraction(v, self.den) for v in set(vals)}
        out = np.empty(len(vals), dtype=object)
        out[:] = [made[v] for v in vals]
        return out.reshape(self.num.shape)

    def transpose(self, *axes) -> _Exact:
        return _Exact(self.num.transpose(*axes), self.den, self.bound)

    def reshape(self, *shape) -> _Exact:
        return _Exact(self.num.reshape(*shape), self.den, self.bound)

    def __neg__(self) -> _Exact:
        return _Exact(-self.num, self.den, self.bound)

    def __add__(self, other: _Exact) -> _Exact:
        den = math.lcm(self.den, other.den)
        k1, k2 = den // self.den, den // other.den
        bound = self.bound * k1 + other.bound * k2
        return _Exact(_times(self.num, k1, bound) + _times(other.num, k2, bound), den, bound)

    def __sub__(self, other: _Exact) -> _Exact:
        return self + -other

    def __mul__(self, c) -> _Exact:
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        c = Fraction(c)
        bound = self.bound * abs(c.numerator)
        return _Exact(_times(self.num, c.numerator, bound), self.den * c.denominator, bound)

    __rmul__ = __mul__

    def __matmul__(self, other: _Exact) -> _Exact:
        # each entry sums one product per value of the shared index
        bound = self.bound * other.bound * self.shape[-1]
        num = _widened(self.num, bound) @ _widened(other.num, bound)
        return _Exact(num, self.den * other.den, bound)


def _widened(num: np.ndarray, bound: int) -> np.ndarray:
    """num as Python ints when a result bounded by bound is computed from it."""
    return num.astype(object) if bound >= _LIMIT and num.dtype != object else num


def _times(num: np.ndarray, k: int, bound: int) -> np.ndarray:
    # a k past int64 is multiplied in Python ints, even into zeros
    num = _widened(num, max(bound, abs(k)))
    return num if k == 1 else num * k


def _from_ints(nums: list, shape: tuple, den: int) -> _Exact:
    bound = max(map(abs, nums), default=0)
    return _Exact(np.array(nums, dtype=np.int64 if bound < _LIMIT else object).reshape(shape),
                  den, bound)


def transpose_last(t, axes):
    """t with its last len(axes) axes permuted as np.transpose(t, axes) would
    permute them; leading batch axes stay in place. Arrays and exact tensors."""
    lead = len(t.shape) - len(axes)
    return t.transpose(*range(lead), *(lead + a for a in axes))


def _per_metric(s, rank: int):
    """A per-metric scalar shaped to scale tensors of the given rank: an array
    over the batch axes gains rank trailing axes, a number stays as it is."""
    return s[(...,) + (None,) * rank] if isinstance(s, np.ndarray) else s


def exact_tensor(values) -> _Exact:
    """Integers or Fractions of any shape in the exact form (exact tensors pass through)."""
    if isinstance(values, _Exact):
        return values
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":  # machine integers are their own numerators (copied)
        return _Exact(arr.copy(), 1, max(-int(arr.min(initial=0)), int(arr.max(initial=0))))
    nums, den = common_denominator(arr.ravel().tolist())
    return _from_ints(nums, arr.shape, den)


@functools.cache
def _summed(spec: str) -> tuple:
    """(operand, axis from the end) of each index that an einsum spec sums over."""
    ins, out = spec.replace("...", "").split("->")
    at = {c: (k, i - len(t)) for k, t in enumerate(ins.split(",")) for i, c in enumerate(t)}
    return tuple(v for c, v in at.items() if c not in out)


def contract(spec: str, *operands):
    """np.einsum on arrays; on exact tensors, an integer einsum over the product
    of the denominators (a full contraction returns a Fraction)."""
    if not isinstance(operands[0], _Exact):
        return np.einsum(spec, *operands)
    # each entry sums one product of entries per value of the summed indices
    bound = math.prod(op.bound for op in operands)
    bound *= math.prod(operands[k].shape[i] for k, i in _summed(spec))
    num = np.einsum(spec, *(_widened(op.num, bound) for op in operands))
    den = math.prod(op.den for op in operands)
    if np.ndim(num) == 0:
        return Fraction(int(num), den)
    return _Exact(num, den, bound)


def validate_dim(n: int) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError(f"dimension must be an integer, got {n!r}")
    if n < DIM_MIN:
        raise ValueError(f"dimension {n} below minimum {DIM_MIN}")
    if n > DIM_MAX:
        raise ValueError(f"dimension {n} above dense-backend cap {DIM_MAX}")
    return int(n)


def is_exact(t) -> bool:
    return isinstance(t, _Exact)


def vanishes(t, tol: float) -> bool:
    """Whether every entry is zero: exactly for an exact tensor, else max |entry| <= tol."""
    if is_exact(t):
        return not t.num.any()
    return float(np.max(np.abs(t))) <= tol


def inverse_metric(g):
    """g^-1 of the kind of g: a float array, or an exact tensor.

    An exact tensor G / d is inverted fraction-free as d * G^-1 = d adj(G) / det G.
    """
    if is_exact(g):
        num, den = integer_inverse(g.num.tolist(), g.den)
        return _from_ints([x for row in num for x in row], g.shape, den)
    return np.linalg.inv(g)


def kulkarni_nomizu(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a kn b)_ijkl = a_ik b_jl - a_il b_jk + b_ik a_jl - b_il a_jk.

    The result satisfies all algebraic curvature symmetries including
    the first Bianchi identity whenever a and b are symmetric. Arrays
    give an array, exact tensors an exact tensor.
    """
    u = contract("...ik,...jl->...ijkl", a, b) - contract("...il,...jk->...ijkl", a, b)
    # the last two terms are the first two with both index pairs swapped
    return u + transpose_last(u, (1, 0, 3, 2))


def constant_curvature_rm(g: np.ndarray, kappa) -> np.ndarray:
    """Curvature tensor of a space form: kappa * (1/2) g kn g (of the kind of g)."""
    half = Fraction(1, 2) if is_exact(g) else 0.5
    return (kappa * half) * kulkarni_nomizu(g, g)


def contract_ricci(g_inv: np.ndarray, rm: np.ndarray) -> np.ndarray:
    """Ric_jl = g^ik Rm_ijkl."""
    return contract("...ik,...ijkl->...jl", g_inv, rm)


def scalar_curvature(g_inv: np.ndarray, ric: np.ndarray):
    return contract("...jl,...jl->...", g_inv, ric)


def raise_all(g_inv: np.ndarray, t: np.ndarray) -> np.ndarray:
    """T with every index raised by g_inv, by one matmul per index.

    Each step raises the first tensor index and moves it last, so after
    rank steps the indices are back in their order; a stack of metrics
    g_inv (..., n, n) raises a stack of tensors with one batched matmul
    per index. Float, integer or object arrays; on one float metric the
    bits are those of the np.tensordot loop this replaced, for every rank
    1-4 and dimension 3-8 (tests/test_index_kernels.py).
    """
    lead, n = g_inv.shape[:-2], g_inv.shape[-1]
    m = t
    for _ in range(t.ndim - len(lead)):
        m = np.swapaxes(g_inv @ m.reshape(*lead, n, -1), -1, -2)
    return m.reshape(t.shape)


def tensor_norm2(g_inv: np.ndarray, t: np.ndarray):
    """Full contraction |T|^2 with every index raised by g_inv (one per metric)."""
    if isinstance(t, _Exact):
        rank = t.num.ndim
        bound = (g_inv.bound * g_inv.shape[-1]) ** rank * t.bound ** 2 * t.num.size
        gn, tn = _widened(g_inv.num, bound), _widened(t.num, bound)
        return Fraction(int(np.sum(raise_all(gn, tn) * tn)), g_inv.den ** rank * t.den ** 2)
    return (raise_all(g_inv, t) * t).reshape(*g_inv.shape[:-2], -1).sum(-1)


def check_curvature_symmetries(rm: np.ndarray, tol: float = 1e-12) -> None:
    """Raise if rm lacks the algebraic curvature symmetries.

    Checks antisymmetry in both index pairs, pair-exchange symmetry and
    the first Bianchi identity on the last four axes, so a stack of
    tensors is checked at once (the defect is the largest in the stack).
    Exact inputs are compared exactly.
    """
    pairs = [
        ("antisymmetry (first pair)", rm + transpose_last(rm, (1, 0, 2, 3))),
        ("antisymmetry (second pair)", rm + transpose_last(rm, (0, 1, 3, 2))),
        ("pair exchange", rm - transpose_last(rm, (2, 3, 0, 1))),
        ("first Bianchi",
         rm + transpose_last(rm, (0, 2, 3, 1)) + transpose_last(rm, (0, 3, 1, 2))),
    ]
    for name, defect in pairs:
        if not vanishes(defect, tol):
            size = "" if is_exact(defect) else f" (defect {float(np.max(np.abs(defect))):.3e})"
            raise ValueError(f"curvature symmetry violated: {name}{size}")


def decompose(g: np.ndarray, rm: np.ndarray):
    """Split rm into (weyl, traceless-Ricci part, scalar part).

    rm = weyl + kn(E, g)/(n-2) + R/(2n(n-1)) * kn(g, g) with
    E = Ric - (R/n) g. The three parts are orthogonal, and the Weyl
    part is totally trace-free. In dimension 3 the Weyl part of any
    tensor with curvature symmetries vanishes identically.
    """
    n = g.shape[-1]
    cd = CurvatureData(n, g, rm)
    cn = Fraction(1, n) if cd.exact else 1.0 / n
    c2 = Fraction(1, n - 2) if cd.exact else 1.0 / (n - 2)
    cs = Fraction(1, 2 * n * (n - 1)) if cd.exact else 1.0 / (2 * n * (n - 1))
    tracefree_ric = cd.ric - _per_metric(cd.scal * cn, 2) * g
    ricci_part = c2 * kulkarni_nomizu(tracefree_ric, g)
    scalar_part = _per_metric(cd.scal * cs, 4) * kulkarni_nomizu(g, g)
    weyl = rm - ricci_part - scalar_part
    return weyl, ricci_part, scalar_part


def quadratic_invariants(g: np.ndarray, rm: np.ndarray) -> dict[str, Any]:
    """Pointwise quadratic curvature invariants.

    Returns rm2 = |Rm|^2, ric2 = |Ric|^2, scal = R, scal2 = R^2,
    weyl2 = |W|^2 plus the norms of the decomposition parts. The norm
    convention is the plain full contraction (no pair-reordering
    factors), pinned by |W|^2(S^2 x S^2) = 16/3.
    """
    return CurvatureData(g.shape[-1], g, rm).invariants()


def gauss_bonnet_integrand(g: np.ndarray, rm: np.ndarray):
    """The n = 4 Chern-Gauss-Bonnet density |W|^2 - 2|Ric|^2 + (2/3)R^2.

    Integrated over a closed 4-manifold this equals 32 pi^2 chi(M).
    """
    if g.shape[0] != 4:
        raise ValueError("Gauss-Bonnet density is a dimension-4 identity")
    inv = quadratic_invariants(g, rm)
    two_thirds = Fraction(2, 3) if is_exact(g) else 2.0 / 3.0
    return inv["weyl2"] - 2 * inv["ric2"] + two_thirds * inv["scal2"]


class CurvatureData:
    """A metric frame together with its curvature tensor and traces.

    g and rm are both float arrays or both exact tensors (exact_tensor);
    g_inv, when given, is taken as the inverse of g (of the same kind)
    and saves inverting it again. The attributes g, g_inv, rm and ric
    are of that kind too, and scal is a float or a Fraction. Float data
    may be a stack of metrics (module docstring): scal and the
    invariants are then arrays over the batch axes. einstein_constant
    takes one metric.
    """

    def __init__(self, n: int, g, rm, g_inv=None):
        validate_dim(n)
        if rm.shape[-4:] != (n,) * 4:
            raise ValueError("curvature tensor shape mismatch")
        self.exact = is_exact(g)
        if is_exact(rm) != self.exact:
            raise ValueError("g and rm must both be exact tensors or both float arrays")
        self.n, self.g, self.rm = n, g, rm
        self.g_inv = inverse_metric(g) if g_inv is None else g_inv
        self.ric = contract_ricci(self.g_inv, rm)
        self.scal = scalar_curvature(self.g_inv, self.ric)
        self._grads = None

    def einstein_constant(self):
        """Return kappa with Ric = kappa g, or None if not Einstein.

        Exact data is tested exactly; float data to 1e-12 relative.
        """
        kappa = self.scal / self.n
        tol = 0.0
        if not self.exact:
            scale = max(1.0, float(np.max(np.abs(self.g))))
            tol = 1e-12 * abs(float(kappa)) + 1e-12 * scale
        return kappa if vanishes(self.ric - kappa * self.g, tol) else None

    def ric_norm2(self):
        """|Ric|^2, the one contraction F_tau needs besides R."""
        return tensor_norm2(self.g_inv, self.ric)

    def invariants(self) -> dict[str, Any]:
        """The quadratic invariants from the two contractions |Rm|^2, |Ric|^2.

        The Weyl, traceless-Ricci and scalar parts of decompose() are
        orthogonal, with norms |W|^2, 4(|Ric|^2 - R^2/n)/(n-2) and
        2R^2/(n(n-1)) that sum to |Rm|^2 (Besse, Einstein Manifolds, 1.116).
        """
        n, scal = self.n, self.scal
        rm2 = tensor_norm2(self.g_inv, self.rm)
        ric2 = self.ric_norm2()
        scal2 = scal * scal
        ricci_part2 = 4 * (ric2 - scal2 / n) / (n - 2)
        scalar_part2 = 2 * scal2 / (n * (n - 1))
        return {"n": n, "rm2": rm2, "ric2": ric2, "scal": scal, "scal2": scal2,
                "weyl2": rm2 - ricci_part2 - scalar_part2,
                "ricci_part2": ricci_part2, "scalar_part2": scalar_part2}

    def algebraic_gradient(self, tau):
        """The algebraic terms of grad F_tau, F_tau = int |Ric|^2 + tau int R^2:

          -2 Rm_pkql Ric^kl + (1/2)|Ric|^2 g_pq + tau (-2 R Ric_pq + (1/2) R^2 g_pq).

        The other terms of the gradient are derivatives of Ric and R, so
        on data with parallel Ricci tensor (Einstein data) this is the
        whole gradient. It is of the kind of g: exact data, with an int
        or Fraction tau, gives an exact tensor. On a stack of float
        metrics tau is a number or an array with one value per metric.
        The two tau-free parts are contracted on the first call and kept.
        """
        if self._grads is None:
            g, ric = self.g, self.ric
            half = Fraction(1, 2) if self.exact else 0.5
            ric_up = contract("...ka,...lb,...ab->...kl", self.g_inv, self.g_inv, ric)
            ric2 = _per_metric(contract("...kl,...kl->...", ric_up, ric), 2)
            scal = _per_metric(self.scal, 2)
            self._grads = (-2 * contract("...pkql,...kl->...pq", self.rm, ric_up)
                           + half * ric2 * g,
                           -2 * scal * ric + half * scal * scal * g)
        grad0, grad_s = self._grads
        return grad0 + _per_metric(tau, 2) * grad_s
