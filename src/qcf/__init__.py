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

__all__ = [
    "ModelSpace",
    "builtin_catalog",
    "load_catalog",
    "TauInterval",
    "StabilityVerdict",
    "stability_interval",
    "__version__",
]
