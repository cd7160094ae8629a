"""Einstein model spaces with exact spectral data.

The catalog holds the closed-form geometry the stability and rigidity
decisions run on: Einstein constants, scalar curvature, volumes (exact
rational multiples of powers of pi), Euler characteristics in dimension
four, Laplace spectra on functions where closed forms exist, the first
nonzero Laplace eigenvalue, and the known transverse-traceless spectrum
of -Delta_L (exact leading eigenvalues, or a lower bound where only a
bound is available, as on hyperbolic manifolds).

Catalog entries are read from JSON (schema shipped under qcf/schemas/);
an extension catalog can be merged in through the QCF_CATALOG
environment variable. Loading always re-validates the cross identities
between the stored spectra and the curvature normalization, so a
corrupted file fails loudly rather than silently poisoning verdicts.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from importlib import resources
from typing import TYPE_CHECKING, NamedTuple

from qcf.rational import parse_ratio

if TYPE_CHECKING:
    from qcf.tensor_core import CurvatureData

CATALOG_SCHEMA_VERSION = 1

VARIANTS = ("sphere", "quotient", "hyperbolic", "cp", "product", "torus")


class CatalogError(ValueError):
    """Raised when catalog data is malformed or violates a cross identity."""


class ExactVolume(NamedTuple):
    """A volume of the form coeff * pi^pi_pow with rational coeff."""

    coeff: Fraction
    pi_pow: int

    def __float__(self) -> float:
        return float(self.coeff) * math.pi**self.pi_pow

    @staticmethod
    def from_json(obj: dict) -> "ExactVolume":
        return ExactVolume(parse_ratio(str(obj["coeff"])), int(obj["pi_pow"]))


class TTEigenvalue(NamedTuple):
    mu: Fraction
    witness: str = ""


class TTData(NamedTuple):
    """What is known about spec_TT(-Delta_L) for a model.

    ``known`` lists eigenvalues certain to occur (with witnesses where
    the literature names them); every other spectral value is >=
    ``tail_bound``. ``is_bound`` marks models where even the least
    eigenvalue is only bounded, not known (hyperbolic space); verdicts
    that pass through such data are downgraded to bound-only strength.
    ``is_subset`` marks quotients whose spectrum is a subset of the
    listed one: emptiness conclusions stay sound, occupancy ones do not.
    """

    known: tuple[TTEigenvalue, ...]
    tail_bound: Fraction
    is_bound: bool = False
    is_subset: bool = False


class ModelSpace(NamedTuple):
    key: str
    variant: str
    n: int
    m: int | None = None
    quotient_order: int | None = None
    einstein_constant: Fraction = Fraction(0)
    scal: Fraction = Fraction(0)
    volume: ExactVolume | None = None
    euler_char: int | None = None
    tt: TTData | None = None
    lambda1: Fraction | None = None

    @property
    def display_name(self) -> str:
        return {
            "sphere": f"S^{self.n}",
            "quotient": f"S^{self.n}/Z_{self.quotient_order}",
            "hyperbolic": f"hyperbolic^{self.n}",
            "cp": f"CP^{self.m}",
            "product": f"S^{self.m} x S^{self.m}",
            "torus": f"T^{self.n}",
        }[self.variant]

    @property
    def spectra_are_subsets(self) -> bool:
        return self.variant == "quotient"

    @property
    def has_function_spectrum(self) -> bool:
        """Whether function_spectrum has a closed form here (every variant but hyperbolic)."""
        return self.variant in ("sphere", "quotient", "cp", "product", "torus")

    def curvature_data(self, exact: bool = True) -> CurvatureData:
        """Curvature tensor of the model in an orthonormal frame.

        The tensor is built exactly; exact=False returns it as floats.
        """
        import numpy as np

        from qcf.tensor_core import CurvatureData, constant_curvature_rm, exact_tensor

        n = self.n
        g = exact_tensor(np.eye(n, dtype=int))
        if self.variant in ("sphere", "quotient"):
            rm = constant_curvature_rm(g, Fraction(1))
        elif self.variant == "hyperbolic":
            rm = constant_curvature_rm(g, Fraction(-1))
        elif self.variant == "torus":
            rm = constant_curvature_rm(g, Fraction(0))
        elif self.variant == "cp":
            rm = _fubini_study_rm(self.m)
        elif self.variant == "product":
            rm = _product_spheres_rm(self.m)
        else:
            raise CatalogError(f"unknown variant {self.variant}")
        cd = CurvatureData(n, g, rm)
        return cd if exact else CurvatureData(n, cd.g.fractions().astype(float),
                                              cd.rm.fractions().astype(float))


def __getattr__(name: str):
    # kulkarni_nomizu is served from tensor_core on first lookup, so that
    # importing the catalog does not import numpy
    if name == "kulkarni_nomizu":
        from qcf.tensor_core import kulkarni_nomizu

        return kulkarni_nomizu
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fubini_study_rm(m: int):
    """Fubini-Study curvature, holomorphic sectional curvature 4.

    Complex-space-form tensor
      Rm_ijkl = g_ik g_jl - g_il g_jk + J_ik J_jl - J_il J_jk + 2 J_ij J_kl
    with J the standard complex structure; gives Ric = 2(m+1) g. Returns
    an exact tensor.
    """
    import numpy as np

    from qcf.tensor_core import contract, exact_tensor

    n = 2 * m
    g = exact_tensor(np.eye(n, dtype=int))
    jj = np.zeros((n, n), dtype=int)
    for b in range(m):
        jj[2 * b, 2 * b + 1] = 1
        jj[2 * b + 1, 2 * b] = -1
    jj = exact_tensor(jj)
    return (
        contract("ik,jl->ijkl", g, g)
        - contract("il,jk->ijkl", g, g)
        + contract("ik,jl->ijkl", jj, jj)
        - contract("il,jk->ijkl", jj, jj)
        + 2 * contract("ij,kl->ijkl", jj, jj)
    )


def _product_spheres_rm(m: int):
    """Curvature of S^m x S^m, both factors unit round, as an exact tensor."""
    import numpy as np

    from qcf.tensor_core import exact_tensor, kulkarni_nomizu

    g1 = exact_tensor(np.diag([1] * m + [0] * m))
    g2 = exact_tensor(np.diag([0] * m + [1] * m))
    return Fraction(1, 2) * (kulkarni_nomizu(g1, g1) + kulkarni_nomizu(g2, g2))


_SPHERE_VOLUME = {
    3: ExactVolume(Fraction(2), 2),
    4: ExactVolume(Fraction(8, 3), 2),
    5: ExactVolume(Fraction(1), 3),
    6: ExactVolume(Fraction(16, 15), 3),
    7: ExactVolume(Fraction(1, 3), 4),
    8: ExactVolume(Fraction(32, 105), 4),
}


def make_sphere(n: int) -> ModelSpace:
    mu1 = Fraction(4 * n)
    return ModelSpace(
        key=f"sphere:{n}", variant="sphere", n=n,
        einstein_constant=Fraction(n - 1), scal=Fraction(n * (n - 1)),
        volume=_SPHERE_VOLUME[n],
        euler_char=2 if n == 4 else None,
        tt=TTData(known=(TTEigenvalue(mu1, "first Lichnerowicz eigentensors"),),
                  tail_bound=mu1),
        lambda1=Fraction(n),
    )


def make_quotient(n: int, order: int) -> ModelSpace:
    base = make_sphere(n)
    vol = ExactVolume(base.volume.coeff / order, base.volume.pi_pow)
    chi = None
    if n == 4 and 2 % order == 0:
        chi = 2 // order
    return ModelSpace(
        key=f"quotient:{n}:{order}", variant="quotient", n=n, quotient_order=order,
        einstein_constant=base.einstein_constant, scal=base.scal,
        volume=vol, euler_char=chi,
        tt=TTData(known=base.tt.known, tail_bound=base.tt.tail_bound, is_subset=True),
        lambda1=None,  # depends on which representations survive the quotient
    )


def make_hyperbolic(n: int) -> ModelSpace:
    # Compact hyperbolic quotients: volume depends on the lattice, the TT
    # spectrum of -Delta_L is only bounded below by R/(n-1) = -n
    # (equality forces Codazzi tensors).
    return ModelSpace(
        key=f"hyperbolic:{n}", variant="hyperbolic", n=n,
        einstein_constant=Fraction(-(n - 1)), scal=Fraction(-n * (n - 1)),
        volume=None, euler_char=None,
        tt=TTData(known=(), tail_bound=Fraction(-n), is_bound=True),
        lambda1=None,
    )


def make_cp(m: int) -> ModelSpace:
    n = 2 * m
    mu1 = Fraction(8 * (m + 2))
    return ModelSpace(
        key=f"cp:{m}", variant="cp", n=n, m=m,
        einstein_constant=Fraction(2 * (m + 1)), scal=Fraction(4 * m * (m + 1)),
        volume=ExactVolume(Fraction(1, math.factorial(m)), m),
        euler_char=3 if m == 2 else None,
        tt=TTData(known=(TTEigenvalue(mu1, "primitive (1,1) eigentensors"),),
                  tail_bound=mu1),
        lambda1=Fraction(4 * (m + 1)),
    )


def make_product(m: int) -> ModelSpace:
    n = 2 * m
    sv = _SPHERE_VOLUME[m] if m >= 3 else ExactVolume(Fraction(4), 1)
    vol = ExactVolume(sv.coeff**2, 2 * sv.pi_pow)
    known = [TTEigenvalue(Fraction(0), "g1 - g2 (integrable: vary the factor radii)")]
    if m == 2:
        known.append(TTEigenvalue(Fraction(4), "alpha1 . alpha2, Killing one-forms of the factors"))
    return ModelSpace(
        key=f"product:{m}", variant="product", n=n, m=m,
        einstein_constant=Fraction(m - 1), scal=Fraction(2 * m * (m - 1)),
        volume=vol,
        euler_char=4 if m == 2 else None,
        tt=TTData(known=tuple(known), tail_bound=Fraction(2 * m)),
        lambda1=Fraction(m),
    )


def make_torus(n: int) -> ModelSpace:
    # side length 2 pi, so the function spectrum is the integer quadric values
    return ModelSpace(
        key=f"torus:{n}", variant="torus", n=n,
        einstein_constant=Fraction(0), scal=Fraction(0),
        volume=ExactVolume(Fraction(2**n), n),
        euler_char=0 if n == 4 else None,
        tt=TTData(known=(TTEigenvalue(Fraction(0), "parallel trace-free tensors"),),
                  tail_bound=Fraction(0)),
        lambda1=Fraction(1),
    )


def builtin_catalog() -> dict[str, ModelSpace]:
    cat: dict[str, ModelSpace] = {}
    for n in range(3, 9):
        for model in (make_sphere(n), make_hyperbolic(n), make_torus(n)):
            cat[model.key] = model
    cat["quotient:4:2"] = make_quotient(4, 2)
    for m in (2, 3, 4):
        for model in (make_cp(m), make_product(m)):
            cat[model.key] = model
    return cat


# ---------------------------------------------------------------------------
# spectra


def function_spectrum(model: ModelSpace, count: int) -> list[Fraction]:
    """First ``count`` distinct Laplace eigenvalues on functions.

    Closed forms: sphere l(l+n-1); CP^m 4l(l+m) (holomorphic sectional
    curvature 4 normalization); S^m x S^m pairwise sums of two sphere
    lists; flat torus integer values |k|^2 (side 2 pi). Quotient models
    return the covering list (actual spectrum is a subset, see
    ``spectra_are_subsets``); hyperbolic has no closed form.
    """
    if count < 1:
        raise ValueError("count must be positive")
    if not model.has_function_spectrum:
        raise CatalogError(f"no closed-form function spectrum for {model.display_name}")
    v = model.variant
    if v in ("sphere", "quotient"):
        nn = model.n
        return [Fraction(l * (l + nn - 1)) for l in range(count)]
    if v == "cp":
        return [Fraction(4 * l * (l + model.m)) for l in range(count)]
    if v == "product":
        # base[0] = 0 makes every base[l] a sum, so the first count sums are
        # all <= base[count - 1]: only pairs within that bound are needed
        base = [l * (l + model.m - 1) for l in range(count)]
        top = base[-1]
        sums = set()
        for i, a in enumerate(base):
            for b in base[i:]:
                if a + b > top:
                    break
                sums.add(a + b)
        return [Fraction(x) for x in sorted(sums)[:count]]
    return [Fraction(x) for x in _sums_of_squares(model.n, count)]  # torus


def _sums_of_squares(n: int, count: int) -> list[int]:
    """First ``count`` values of k_1^2 + ... + k_n^2 over k in Z^n.

    Every k >= 0 is a sum of four squares (Lagrange), hence of n >= 4
    squares; it is a sum of three squares exactly when it is not of the
    form 4^a (8b + 7) (Legendre).
    """
    vals = []
    k = 0
    while len(vals) < count:
        m = k
        while m and m % 4 == 0:
            m //= 4
        if n >= 4 or m % 8 != 7:
            vals.append(k)
        k += 1
    return vals


# ---------------------------------------------------------------------------
# serialization

def model_from_json(obj: dict) -> ModelSpace:
    tt = None
    if obj.get("tt") is not None:
        t = obj["tt"]
        tt = TTData(
            known=tuple(TTEigenvalue(parse_ratio(str(e["mu"])), e.get("witness", ""))
                        for e in t.get("known", [])),
            tail_bound=parse_ratio(str(t["tail_bound"])),
            is_bound=bool(t.get("is_bound", False)),
            is_subset=bool(t.get("is_subset", False)),
        )
        mus = [e.mu for e in tt.known]
        if any(a >= b for a, b in zip(mus, mus[1:])):
            # validate_model checks each family's first eigenvalue: none may follow it smaller
            raise CatalogError(f"{obj['key']}: known TT eigenvalues "
                               f"{', '.join(map(str, mus))} are not strictly increasing")
    vol = ExactVolume.from_json(obj["volume"]) if obj.get("volume") else None
    lam = parse_ratio(str(obj["lambda1"])) if obj.get("lambda1") is not None else None
    return ModelSpace(
        key=str(obj["key"]), variant=str(obj["variant"]), n=int(obj["dim"]),
        m=obj.get("m"), quotient_order=obj.get("quotient_order"),
        einstein_constant=parse_ratio(str(obj["einstein_constant"])),
        scal=parse_ratio(str(obj["scal"])),
        volume=vol, euler_char=obj.get("euler_char"), tt=tt, lambda1=lam,
    )


def validate_model(model: ModelSpace) -> None:
    """Cross-identities between stored spectra and curvature data.

    A given lambda1 and volume must also be positive: a verdict drawn
    from an impossible spectrum or volume would be meaningless.
    """
    n, kappa, scal = model.n, model.einstein_constant, model.scal
    if model.variant not in VARIANTS:
        raise CatalogError(f"{model.key}: unknown variant {model.variant!r}")
    if not (3 <= n <= 8):
        raise CatalogError(f"{model.key}: dimension {n} outside supported range 3..8")
    if scal != n * kappa:
        raise CatalogError(f"{model.key}: scal {scal} != n * einstein_constant {n * kappa}")
    expected_kappa = {
        "sphere": Fraction(n - 1),
        "quotient": Fraction(n - 1),
        "hyperbolic": Fraction(-(n - 1)),
        "torus": Fraction(0),
    }
    if model.variant in expected_kappa and kappa != expected_kappa[model.variant]:
        raise CatalogError(f"{model.key}: einstein constant {kappa} != {expected_kappa[model.variant]}")
    if model.variant in ("cp", "product"):
        if model.m is None or 2 * model.m != n:
            raise CatalogError(f"{model.key}: m/dim mismatch")
        want = Fraction(2 * (model.m + 1)) if model.variant == "cp" else Fraction(model.m - 1)
        if kappa != want:
            raise CatalogError(f"{model.key}: einstein constant {kappa} != {want}")
    if model.lambda1 is not None and not model.lambda1 > 0:
        raise CatalogError(f"{model.key}: lambda1 {model.lambda1} is not positive")
    if model.volume is not None and not model.volume.coeff > 0:
        raise CatalogError(f"{model.key}: volume coefficient {model.volume.coeff} "
                           "is not positive")
    tt = model.tt
    if tt is None:
        return
    if model.variant in ("sphere", "quotient"):
        want_mu = 4 * scal / (n - 1)
        if not tt.known or tt.known[0].mu != want_mu:
            got = tt.known[0].mu if tt.known else None
            raise CatalogError(
                f"{model.key}: first TT eigenvalue {got} violates the "
                f"sphere identity mu1 = 4R/(n-1) = {want_mu}")
    if model.variant == "cp":
        m = model.m
        want_mu = 2 * (m + 2) * scal / (m * (m + 1))
        if not tt.known or tt.known[0].mu != want_mu:
            got = tt.known[0].mu if tt.known else None
            raise CatalogError(
                f"{model.key}: first TT eigenvalue {got} violates the "
                f"complex-projective identity mu1 = 2(m+2)R/(m(m+1)) = {want_mu}")
    if model.variant == "product":
        if not tt.known or tt.known[0].mu != 0:
            raise CatalogError(f"{model.key}: product TT spectrum must start at 0 (g1 - g2)")
        if tt.tail_bound != 2 * model.m:
            raise CatalogError(f"{model.key}: product TT tail bound must be 2m = {2 * model.m}")
    if model.variant == "hyperbolic":
        if not tt.is_bound or tt.tail_bound != Fraction(-n):
            raise CatalogError(f"{model.key}: hyperbolic TT data must be the bound mu >= -n")


def catalog_schema() -> dict:
    text = resources.files("qcf").joinpath("schemas/catalog.schema.json").read_text()
    return json.loads(text)


def load_catalog(path: str | None = None) -> dict[str, ModelSpace]:
    """Builtin catalog, optionally merged with an extension JSON file.

    ``path`` defaults to the QCF_CATALOG environment variable. Extension
    entries are schema-validated and cross-checked; they may add models
    or override builtin keys.
    """
    cat = builtin_catalog()
    for model in cat.values():
        validate_model(model)
    if path is None:
        path = os.environ.get("QCF_CATALOG")
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise CatalogError(f"cannot read catalog file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CatalogError(f"catalog file {path} is not valid JSON: {exc}") from exc
        import jsonschema

        try:
            jsonschema.validate(data, catalog_schema())
        except jsonschema.ValidationError as exc:
            raise CatalogError(f"catalog file {path} fails schema: {exc.message}") from exc
        if data.get("schema_version") != CATALOG_SCHEMA_VERSION:
            raise CatalogError(
                f"catalog schema_version {data.get('schema_version')} != "
                f"{CATALOG_SCHEMA_VERSION}")
        for obj in data["models"]:
            try:
                model = model_from_json(obj)
            except ZeroDivisionError:  # the schema's ratio pattern admits "p/0"
                raise CatalogError(f"{obj['key']}: zero denominator in catalog file {path}") from None
            validate_model(model)
            cat[model.key] = model
    return cat


# the options each family takes, with the model field each one names
_FAMILY_OPTIONS = {
    "sphere": {"dim": "n"}, "hyperbolic": {"dim": "n"}, "torus": {"dim": "n"},
    "quotient": {"dim": "n", "order": "quotient_order"},
    "cp": {"m": "m"}, "product": {"m": "m"},
}


def resolve_model(cat: dict[str, ModelSpace], name: str, dim: int | None = None,
                  m: int | None = None, order: int | None = None) -> ModelSpace:
    """Find a model by CLI-style name + parameters.

    A given dim, m or order must be one that the model's family takes
    and must agree with the model found; quotient order defaults to 2.
    """
    name = name.strip().lower()
    given = {opt: v for opt, v in (("dim", dim), ("m", m), ("order", order))
             if v is not None}
    model = cat.get(name)
    family = name if model is None else model.variant
    if family not in _FAMILY_OPTIONS:
        raise CatalogError(
            f"unknown model '{name}'; available: " + ", ".join(sorted(cat)))
    options = _FAMILY_OPTIONS[family]
    for opt in given:
        if opt not in options:
            takes = " and ".join(f"--{o}" for o in options)
            raise CatalogError(f"model '{name}' takes {takes}, not --{opt}")
    if model is None:
        required = next(iter(options))  # dim, or m for cp and product
        if required not in given:
            raise CatalogError(f"model '{name}' needs --{required}")
        key = f"{name}:{given[required]}"
        if name == "quotient":
            key += f":{given.get('order', 2)}"
        if key not in cat:
            raise CatalogError(
                f"model '{key}' not in catalog; available: " + ", ".join(sorted(cat)))
        return cat[key]
    for opt, v in given.items():
        have = getattr(model, options[opt])
        if v != have:
            raise CatalogError(f"--{opt} {v} does not match model '{name}' ({opt} {have})")
    return model
