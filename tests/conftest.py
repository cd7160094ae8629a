import contextlib
import importlib.util
import io
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from qcf.catalog import TTEigenvalue
from qcf.rational import format_ratio

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(autouse=True)
def _clean_catalog_env(monkeypatch):
    """Keep tests independent of any catalog extension in the environment."""
    monkeypatch.delenv("QCF_CATALOG", raising=False)


class Result(NamedTuple):
    """One in-process `qcf` run: exit code, captured streams, and the
    exception that ended it (the SystemExit of a nonzero exit, or an
    uncaught error)."""

    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


class QcfRunner:
    """Runs `qcf` in-process through `main.main(args=argv, prog_name="qcf")`,
    capturing stdout and stderr and catching SystemExit; an uncaught error
    exits 1, or propagates with catch_exceptions=False."""

    def invoke(self, cli, args, catch_exceptions: bool = True) -> Result:
        out, err = io.StringIO(), io.StringIO()
        code, exception = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main(args=list(args), prog_name="qcf")
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
                exception = exc if code else None
            except Exception as exc:
                if not catch_exceptions:
                    raise
                code, exception = 1, exc
        return Result(code, out.getvalue(), err.getvalue(), exception)


def catalog_json(models) -> dict:
    """Catalog models as a catalog file holds them (QCF_CATALOG,
    catalog.schema.json): the inverse of qcf.catalog.model_from_json. The
    Einstein constant is written as scal/n; the optional is_bound and
    is_subset keys are left out: the family fixes them."""

    def ratio(x):
        return None if x is None else format_ratio(x)

    def model(ms) -> dict:
        vol, tt = ms.volume, ms.tt
        return {
            "key": ms.key, "variant": ms.variant, "dim": ms.n, "m": ms.m,
            "quotient_order": ms.quotient_order,
            "einstein_constant": ratio(ms.scal / ms.n), "scal": ratio(ms.scal),
            "volume": vol and {"coeff": ratio(vol.coeff), "pi_pow": vol.pi_pow},
            "euler_char": ms.euler_char,
            "tt": tt and {
                "known": [{"mu": ratio(e.mu), **({"witness": e.witness} if e.witness else {})}
                          for e in tt.known],
                "tail_bound": ratio(tt.tail_bound)},
            "lambda1": ratio(ms.lambda1),
        }

    return {"schema_version": 1, "models": [model(ms) for ms in models]}


def load_perfbench(name: str):
    """perfbench/{name}.py, loaded by path (perfbench is not a package), as a
    fresh module on each call."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def with_tt_eigenvalue(model, mu):
    """model with mu appended to its known TT eigenvalues, as an extension
    catalog can give it."""
    tt = model.tt._replace(known=model.tt.known + (TTEigenvalue(Fraction(mu)),))
    return model._replace(tt=tt)


def passes(verdict) -> bool:
    """Whether a StabilityVerdict certifies stability."""
    return verdict.variant in ("StrictlyStable", "StableBoundOnly")


def contains(interval, tau) -> bool:
    """Whether tau lies in a TauInterval, open or closed at each end as the
    interval says; None is an unbounded end."""
    t = Fraction(tau) if isinstance(tau, int) else tau
    if interval.lo is not None:
        if t < interval.lo or (interval.lo_open and t == interval.lo):
            return False
    if interval.hi is not None:
        if t > interval.hi or (interval.hi_open and t == interval.hi):
            return False
    return True


def second_factor(n, R, t):
    """Slope and constant (a, b) of the second factor a lambda + b of the
    conformal polynomial, as a chain of Fraction operations (the oracle)."""
    return n * (n - 4 * t + 4 * n * t), 2 * (n - 4) * (1 + n * t) * R


def q_factor(n, R, t, lam):
    """The second factor n(n - 4tau + 4n tau)lambda + 2(n-4)(1 + n tau)R at
    lambda, as a chain of Fraction operations (the oracle); a float lambda
    converts to its exact value."""
    a, b = second_factor(n, R, t)
    return a * Fraction(lam) + b


def berger_curve_from_geometry(tau, s, normalized: bool = True) -> float:
    """Berger functional via the structure-constant curvature route.

    Independent of the closed form functionals.berger_curve: builds the
    left-invariant curvature, evaluates, normalizes, and divides by
    Vol(S^3)^(4/3).
    """
    from qcf import homogeneous
    from qcf.functionals import evaluate

    sc = homogeneous.su2(exact=False)
    g = homogeneous.berger_metric(s, exact=False)
    cd = homogeneous.curvature(sc, g)
    vol = homogeneous.volume(sc, g, homogeneous.SU2_REFERENCE_VOLUME)
    val = evaluate(tau, cd, vol, normalized=normalized)
    if normalized:
        return float(val) / homogeneous.SU2_REFERENCE_VOLUME ** (4.0 / 3.0)
    return float(val)
