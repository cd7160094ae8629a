"""The numpy-free decision layer: ratio text, thresholds, Jacobi polynomials.

On an Einstein manifold the Jacobi operator of the normalized quadratic
functionals acts on each Lichnerowicz eigenspace (transverse-traceless
tensors) and each Laplace eigenspace (conformal directions) as plain
multiplication, so the operators reduce to quadratic polynomials in the
eigenvalue. Those polynomials, in exact arithmetic, are what the
stability and rigidity decisions consume. The conformal-Killing gauge
symbol, a closed form at a unit covector, lives here too.

Sign conventions, fixed once: mu ranges over spec(-Delta_L) on TT
tensors and lambda over spec(-Delta) on functions, both bounded below,
so interval statements about spectra translate verbatim.

Every polynomial here is exact: its coefficients and values are
Fractions, and a float argument converts to its exact value. It is
plain arithmetic on Python numbers and imports no numpy, so the commands
built on it (`intervals`, `rigidity`, `bishop`, `berger`,
`symbol --conformal-killing`) start without it.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import NamedTuple


def parse_ratio(text: str) -> Fraction:
    """Parse 'p/q' or a decimal literal into an exact Fraction.

    Raises ValueError when the numerator or the denominator could have
    more than half the digits the interpreter converts between int and
    text (sys.get_int_max_str_digits()). The bound is checked on the
    text, before any conversion, and the half leaves room for what a
    command derives and prints (a bound such as 24 tau + 12), so the
    length of an input bounds the work and the output of every exact
    command on it.
    """
    text = text.strip()
    num, slash, den = text.partition("/")
    if slash:
        digits = max(len(part.strip().lstrip("+-")) for part in (num, den))
    else:
        mantissa, _, exponent = text.lower().partition("e")
        # the numerator and the denominator have at most len(mantissa) + |exponent| digits
        digits = len(mantissa.lstrip("+-")) + abs(int(exponent or 0))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() // 2  # 0: no limit
    if limit and digits > limit:
        raise ValueError(f"{text!r} has more digits than half the interpreter converts")
    return Fraction(int(num), int(den)) if slash else Fraction(text)


def format_ratio(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def tau1(n: int) -> Fraction:
    """Lower stability threshold (4-3n)/(2n(n-1))."""
    return Fraction(4 - 3 * n, 2 * n * (n - 1))


def tau2(n: int) -> Fraction:
    """Degenerate-symbol threshold -n/(4(n-1))."""
    return Fraction(-n, 4 * (n - 1))


class SpectralPolynomial(NamedTuple):
    """Degree <= 2 polynomial c2 x^2 + c1 x + c0 in the eigenvalue variable.

    The variable is mu (TT, eigenvalue of -Delta_L) or lambda (conformal,
    eigenvalue of -Delta). Coefficients and values are exact.
    """

    c0: Fraction
    c1: Fraction
    c2: Fraction

    def __call__(self, x) -> Fraction:
        # one quotient over d0 d1 d2 q^2 in place of a chain of Fractions; a
        # float's integer ratio is its exact value
        (n0, d0), (n1, d1), (n2, d2), (p, q) = (c.as_integer_ratio() for c in (*self, x))
        return Fraction((n2 * d0 * d1 * p + n1 * d0 * d2 * q) * p + n0 * d1 * d2 * q * q,
                        d0 * d1 * d2 * q * q)


def tt_polynomial(n: int, scal, tau, normalized: bool = True) -> SpectralPolynomial:
    """Jacobi action on a TT eigenspace of -Delta_L with eigenvalue mu.

    Normalized functional: (1/2)(2R/n - mu)((4/n + 2 tau)R - mu).
    Unnormalized differs by the constant Einstein-gradient eigenvalue
    c = (n-4)/(2n^2) (1 + n tau) R^2, i.e. unnormalized = normalized + c;
    at tau = 0 this reproduces the coefficients
    (1/2) mu^2 - (3/n) R mu + (n+4)/(2n^2) R^2.
    """
    a, b = scal.as_integer_ratio()
    p, q = tau.as_integer_ratio()
    # with R = a/b and tau = p/q, each coefficient is one quotient:
    # c1 = -(3q + np) a / (nqb), c0 = (8q + 4np [+ (n-4)(q + np)]) a^2 / (2n^2 q b^2)
    k = 8 * q + 4 * n * p
    if not normalized:
        k += (n - 4) * (q + n * p)
    c1 = Fraction(-(3 * q + n * p) * a, n * q * b)
    c0 = Fraction(k * a * a, 2 * n * n * q * b * b)
    return SpectralPolynomial(c0, c1, Fraction(1, 2))


def tt_jacobi(n: int, scal, tau, mu) -> Fraction:
    """Evaluate the normalized TT Jacobi polynomial at the eigenvalue mu."""
    return tt_polynomial(n, scal, tau)(mu)


def conformal_polynomial(n: int, scal, tau) -> SpectralPolynomial:
    """Conformal Jacobi trace polynomial in the -Delta eigenvalue lambda.

    p_tau(lambda) = (1/2n)((n-1)lambda - R)(n(n - 4 tau + 4 n tau)lambda
    + 2(n-4)(1 + n tau)R). At R = 0 this is ((n-1)(n-4tau+4ntau)/2) lambda^2.
    The witness scan in `stability` reads the sign of p_tau from the two
    linear factors and never expands it; the exact factorization checks
    of this expanded form (verify 10, the property tests) are what tie
    that rule to the polynomial.
    """
    (p, q), (r, s) = tau.as_integer_ratio(), scal.as_integer_ratio()
    a, b = _second_numerators(n, p, q, r)
    # the second factor is a/q lambda + b/(qs), and c2 = (n-1)a/(2n),
    # c1 = ((n-1)b - Ra)/(2n), c0 = -Rb/(2n), each one quotient
    den = 2 * n * q
    c2 = Fraction((n - 1) * a, den)
    c1 = Fraction((n - 1) * b - r * a, den * s)
    c0 = Fraction(-r * b, den * s * s)
    return SpectralPolynomial(c0, c1, c2)


def conformal_s_polynomial(n: int, scal) -> SpectralPolynomial:
    """Conformal polynomial of the S-functional:
    2(n-1)^2 lambda^2 + (n-6)(n-1) R lambda - (n-4) R^2."""
    R = Fraction(scal)
    return SpectralPolynomial(-(n - 4) * R * R, (n - 6) * (n - 1) * R,
                              Fraction(2 * (n - 1) ** 2))


def _second_numerators(n: int, p: int, q: int, r: int) -> tuple[int, int]:
    """Numerators of the slope n(nq + 4(n-1)p)/q and the constant
    2(n-4)(q + np)r/(qs) of the second factor of p_tau, for tau = p/q and
    R = r/s (q, s > 0). The slope is positive exactly for tau > -n/(4(n-1)),
    and at tau = -1/n the R term drops out (slope (n-2)^2)."""
    return n * (n * q + 4 * (n - 1) * p), 2 * (n - 4) * (q + n * p) * r


class ConformalKillingVerdict(NamedTuple):
    n: int
    eigenvalues: tuple
    min_singular_value: float
    degenerate: bool
    note: str = ""


def conformal_killing_symbol(n: int) -> ConformalKillingVerdict:
    """Symbol of the conformal-Killing gauge operator at a unit covector.

    At xi the matrix is |xi|^2 I + (1 - 2/n) xi xi^T, with eigenvalues
    (2 - 2/n)|xi|^2 (once, along xi) and |xi|^2 (n-1 times), so it is
    the same up to scale at every nonzero xi. As a matrix it is
    invertible for every n >= 2; the gauge verdict is degenerate exactly
    in dimension two, where the conformal group is infinite dimensional
    and the gauge slice collapses. Both facts are reported: the true
    spectrum and the dimension-two degeneracy flag.
    """
    eigs = (1.0,) * (n - 1) + (2.0 - 2.0 / n,)  # ascending: 2 - 2/n >= 1
    degenerate = n == 2
    note = ""
    if degenerate:
        note = ("dimension two: conformal gauge slice collapses "
                "(infinite-dimensional conformal group); matrix itself has "
                f"min singular value {eigs[0]:g}")
    return ConformalKillingVerdict(n=n, eigenvalues=eigs, min_singular_value=eigs[0],
                                   degenerate=degenerate, note=note)
