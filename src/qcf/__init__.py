"""Quadratic curvature functional stability toolkit.

Computes gradients, second-variation (Jacobi) spectra, stability
intervals and rigidity data for the functionals

    F_tau[g] = int |Ric|^2 dV + tau * int R^2 dV

and their volume-normalized, scale-invariant versions
Ftilde_tau = Vol^(4/n - 1) * F_tau, on Einstein model spaces and
left-invariant homogeneous metrics.
"""

from qcf.catalog import ModelSpace, builtin_catalog, load_catalog
from qcf.stability import TauInterval, StabilityVerdict, stability_interval

__version__ = "0.1.0"


def __getattr__(name: str):
    # CurvatureData lives in the numpy layer; it is imported on first use so
    # that `import qcf` does not import numpy
    if name == "CurvatureData":
        from qcf.tensor_core import CurvatureData

        return CurvatureData
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CurvatureData",
    "ModelSpace",
    "builtin_catalog",
    "load_catalog",
    "TauInterval",
    "StabilityVerdict",
    "stability_interval",
    "__version__",
]
