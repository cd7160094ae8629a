"""Einstein model spaces with exact spectral data.

The catalog holds the closed-form geometry the stability and rigidity
decisions run on: Einstein constants, scalar curvature, volumes (exact
rational multiples of powers of pi), Euler characteristics in dimension
four, Laplace spectra on functions where closed forms exist, the first
nonzero Laplace eigenvalue, and the known transverse-traceless spectrum
of -Delta_L (exact leading eigenvalues, or a lower bound where only a
bound is available, as on hyperbolic manifolds).

What every model of a variant shares sits in one table, _FAMILIES, a row
per family: the display name, the CLI options, the Einstein constant, the
first-TT-eigenvalue identity, the TT tail bound's closed form, whether
spectra are quotient subsets or known only as a bound, the function
spectrum, the curvature tensor, and the text of an interval end at the
tail bound. The models themselves (the make_* builders, catalog files)
are data that validate_model checks against the table's rules.

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
from typing import TYPE_CHECKING, Callable, NamedTuple

from qcf.rational import parse_ratio

if TYPE_CHECKING:
    from qcf.tensor_core import CurvatureData

CATALOG_SCHEMA_VERSION = 1


class CatalogError(ValueError):
    """Raised when catalog data is malformed or violates a cross identity."""


class ExactVolume(NamedTuple):
    """A volume of the form coeff * pi^pi_pow with rational coeff."""

    coeff: Fraction
    pi_pow: int

    def __float__(self) -> float:
        return float(self.coeff) * math.pi**self.pi_pow


class TTEigenvalue(NamedTuple):
    mu: Fraction
    witness: str = ""


class TTData(NamedTuple):
    """What is known about spec_TT(-Delta_L) for a model.

    ``known`` lists eigenvalues certain to occur (with witnesses where
    the literature names them); every other spectral value is >=
    ``tail_bound``. Whether the list is a quotient subset or only a
    bound is the family's (ModelSpace.spectra_are_subsets, tt_bound_only).
    """

    known: tuple[TTEigenvalue, ...]
    tail_bound: Fraction


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
        return _FAMILIES[self.variant].name.format(**self._asdict())

    @property
    def spectra_are_subsets(self) -> bool:
        """Whether the spectra are subsets of the covering lists (quotients): emptiness
        conclusions stay sound, occupancy ones do not."""
        return _FAMILIES[self.variant].is_subset

    @property
    def tt_bound_only(self) -> bool:
        """Whether even the least TT eigenvalue is only bounded (hyperbolic)."""
        return _FAMILIES[self.variant].is_bound

    @property
    def has_function_spectrum(self) -> bool:
        """Whether function_spectrum has a closed form here (every variant but hyperbolic)."""
        return _FAMILIES[self.variant].spectrum is not None

    @property
    def tt_tail(self) -> tuple[str, str]:
        """A TT interval end at the tail bound: its provenance and the bound's name,
        the family's closed form (4n, ...) where the bound is that, else its value."""
        tail, bound = _FAMILIES[self.variant].tail, self.tt.tail_bound
        if tail is not None and bound == tail[0](self.n, self.m):
            return f"{tail[3]} {tail[1]}", tail[1]
        return f"TT forbidden interval reaches the tail bound {bound}", str(bound)

    def curvature_data(self, exact: bool = True) -> CurvatureData:
        """Curvature tensor of the model in an orthonormal frame.

        The tensor is built exactly; exact=False returns it as floats.
        """
        import numpy as np

        from qcf.tensor_core import CurvatureData, exact_tensor

        g = exact_tensor(np.eye(self.n, dtype=int))
        cd = CurvatureData(self.n, g, _FAMILIES[self.variant].curvature(g, self.m))
        return cd if exact else CurvatureData(self.n, cd.g.fractions().astype(float),
                                              cd.rm.fractions().astype(float))


def __getattr__(name: str):
    # kulkarni_nomizu is served from tensor_core on first lookup, so that
    # importing the catalog does not import numpy
    if name == "kulkarni_nomizu":
        from qcf.tensor_core import kulkarni_nomizu

        return kulkarni_nomizu
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fubini_study_rm(g, m: int):
    """Fubini-Study curvature, holomorphic sectional curvature 4, in the frame g.

    Complex-space-form tensor
      Rm_ijkl = g_ik g_jl - g_il g_jk + J_ik J_jl - J_il J_jk + 2 J_ij J_kl
    with J the standard complex structure; gives Ric = 2(m+1) g. Returns
    an exact tensor.
    """
    import numpy as np

    from qcf.tensor_core import contract, exact_tensor

    jj = np.zeros((2 * m, 2 * m), dtype=int)
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


def _product_spheres_rm(g, m: int):
    """Curvature of S^m x S^m, both factors unit round, as an exact tensor."""
    import numpy as np

    from qcf.tensor_core import exact_tensor, kulkarni_nomizu

    g1 = exact_tensor(np.diag([1] * m + [0] * m))
    g2 = exact_tensor(np.diag([0] * m + [1] * m))
    return Fraction(1, 2) * (kulkarni_nomizu(g1, g1) + kulkarni_nomizu(g2, g2))


def _space_form_rm(g, k: int):
    """Constant sectional curvature k in the frame g, as an exact tensor."""
    from qcf.tensor_core import constant_curvature_rm

    return constant_curvature_rm(g, Fraction(k))


def _pair_sums(m: int, count: int) -> list[Fraction]:
    """First ``count`` sums of two eigenvalues l(l+m-1) of S^m."""
    # base[0] = 0 makes every base[l] a sum, so the first count sums are
    # all <= base[count - 1]: only pairs within that bound are needed
    base = [l * (l + m - 1) for l in range(count)]
    top = base[-1]
    sums = set()
    for i, a in enumerate(base):
        for b in base[i:]:
            if a + b > top:
                break
            sums.add(a + b)
    return [Fraction(x) for x in sorted(sums)[:count]]


class _Family(NamedTuple):
    """The closed forms that every model of one variant shares."""

    name: str  # display-name template over the model's fields
    options: dict[str, str]  # each CLI option -> the field it names, the required one first
    kappa: Callable  # the Einstein constant from (n, m)
    curvature: Callable  # the exact curvature tensor from the orthonormal frame g and m
    # the first TT eigenvalue from (n, m, R), and its identity's text ({} takes the value)
    mu1: tuple | None = None
    # the TT tail bound from (n, m), its name, whether validation fixes it, an end's provenance
    tail: tuple | None = None
    spectrum: Callable | None = None  # the first `count` function eigenvalues from (n, m, count)
    # the catalog file's optional tt flags: ModelSpace.spectra_are_subsets and tt_bound_only
    is_subset: bool = False
    is_bound: bool = False


_ROUND = dict(
    kappa=lambda n, m: n - 1, curvature=lambda g, m: _space_form_rm(g, 1),
    mu1=(lambda n, m, R: 4 * R / (n - 1), "sphere identity mu1 = 4R/(n-1) = {}"),
    tail=(lambda n, m: 4 * n, "4n", False, "TT gap closes at the first Lichnerowicz eigenvalue"),
    spectrum=lambda n, m, count: [Fraction(l * (l + n - 1)) for l in range(count)])
_FAMILIES = {
    "sphere": _Family("S^{n}", {"dim": "n"}, **_ROUND),
    # a quotient's spectra are the subsets of the sphere's that descend
    "quotient": _Family("S^{n}/Z_{quotient_order}", {"dim": "n", "order": "quotient_order"},
                        is_subset=True, **_ROUND),
    # compact quotients of hyperbolic space: the TT spectrum of -Delta_L is only
    # bounded below by R/(n-1) = -n (equality forces Codazzi tensors)
    "hyperbolic": _Family(
        "hyperbolic^{n}", {"dim": "n"}, lambda n, m: 1 - n, lambda g, m: _space_form_rm(g, -1),
        tail=(lambda n, m: -n, "-n", True, "TT forbidden interval reaches the lower bound"),
        is_bound=True),
    # holomorphic sectional curvature 4
    "cp": _Family(
        "CP^{m}", {"m": "m"}, lambda n, m: 2 * (m + 1), _fubini_study_rm,
        mu1=(lambda n, m, R: 2 * (m + 2) * R / (m * (m + 1)),
             "complex-projective identity mu1 = 2(m+2)R/(m(m+1)) = {}"),
        tail=(lambda n, m: 8 * (m + 2), "8(m+2)", False, "TT gap closes at the first eigenvalue"),
        spectrum=lambda n, m, count: [Fraction(4 * l * (l + m)) for l in range(count)]),
    "product": _Family(
        "S^{m} x S^{m}", {"m": "m"}, lambda n, m: m - 1, _product_spheres_rm,
        mu1=(lambda n, m, R: 0, "product identity mu1 = 0 (g1 - g2)"),
        tail=(lambda n, m: 2 * m, "2m", True,
              "TT forbidden interval reaches the spectral tail bound"),
        spectrum=lambda n, m, count: _pair_sums(m, count)),
    # side length 2 pi, so the function spectrum is the integer quadric values
    "torus": _Family(
        "T^{n}", {"dim": "n"}, lambda n, m: 0, lambda g, m: _space_form_rm(g, 0),
        mu1=(lambda n, m, R: 0, "flat identity mu1 = 0 (parallel trace-free tensors)"),
        spectrum=lambda n, m, count: [Fraction(k) for k in _sums_of_squares(n, count)]),
}


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
    # lambda1 depends on which representations survive the quotient
    return base._replace(
        key=f"quotient:{n}:{order}", variant="quotient", quotient_order=order,
        volume=ExactVolume(base.volume.coeff / order, base.volume.pi_pow),
        euler_char=2 // order if n == 4 and 2 % order == 0 else None, lambda1=None)


def make_hyperbolic(n: int) -> ModelSpace:
    # compact hyperbolic quotients: the volume depends on the lattice
    return ModelSpace(
        key=f"hyperbolic:{n}", variant="hyperbolic", n=n,
        einstein_constant=Fraction(-(n - 1)), scal=Fraction(-n * (n - 1)),
        tt=TTData(known=(), tail_bound=Fraction(-n)),
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
    # side length 2 pi, so the volume is (2 pi)^n
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
    models = [make(n) for n in range(3, 9) for make in (make_sphere, make_hyperbolic, make_torus)]
    models.append(make_quotient(4, 2))
    models += [make(m) for m in (2, 3, 4) for make in (make_cp, make_product)]
    return {model.key: model for model in models}


# ---------------------------------------------------------------------------
# spectra


def function_spectrum(model: ModelSpace, count: int) -> list[Fraction]:
    """First ``count`` distinct Laplace eigenvalues on functions.

    The family's closed form: sphere l(l+n-1), CP^m 4l(l+m), S^m x S^m the
    pairwise sums of two sphere lists, flat torus |k|^2, and for a quotient
    the covering list (see ``spectra_are_subsets``); hyperbolic has none.
    """
    if count < 1:
        raise ValueError("count must be positive")
    spectrum = _FAMILIES[model.variant].spectrum
    if spectrum is None:
        raise CatalogError(f"no closed-form function spectrum for {model.display_name}")
    return spectrum(model.n, model.m, count)


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
        )
        family = _FAMILIES.get(obj["variant"])  # validate_model names an unknown one
        for flag in ("is_bound", "is_subset"):
            if family and flag in t and bool(t[flag]) != getattr(family, flag):
                raise CatalogError(f"{obj['key']}: tt.{flag} {json.dumps(bool(t[flag]))} "
                                   f"contradicts the {obj['variant']} family")
        mus = [e.mu for e in tt.known]
        if any(a >= b for a, b in zip(mus, mus[1:])):
            # validate_model checks each family's first eigenvalue: none may follow it smaller
            raise CatalogError(f"{obj['key']}: known TT eigenvalues "
                               f"{', '.join(map(str, mus))} are not strictly increasing")
    v = obj.get("volume")
    vol = ExactVolume(parse_ratio(str(v["coeff"])), int(v["pi_pow"])) if v else None
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

    The family's rules fix the Einstein constant, the first TT eigenvalue
    where it has a closed form, and the TT tail bound where validation
    fixes it. A given lambda1 and volume must also be positive: a verdict
    drawn from an impossible spectrum or volume would be meaningless.
    """
    n, m, kappa, scal = model.n, model.m, model.einstein_constant, model.scal
    family = _FAMILIES.get(model.variant)
    if family is None:
        raise CatalogError(f"{model.key}: unknown variant {model.variant!r}")
    if not (3 <= n <= 8):
        raise CatalogError(f"{model.key}: dimension {n} outside supported range 3..8")
    if scal != n * kappa:
        raise CatalogError(f"{model.key}: scal {scal} != n * einstein_constant {n * kappa}")
    if "m" in family.options and (m is None or 2 * m != n):
        raise CatalogError(f"{model.key}: m/dim mismatch")
    if kappa != family.kappa(n, m):
        raise CatalogError(f"{model.key}: einstein constant {kappa} != {family.kappa(n, m)}")
    if model.lambda1 is not None and not model.lambda1 > 0:
        raise CatalogError(f"{model.key}: lambda1 {model.lambda1} is not positive")
    if model.volume is not None and not model.volume.coeff > 0:
        raise CatalogError(f"{model.key}: volume coefficient {model.volume.coeff} "
                           "is not positive")
    tt = model.tt
    if tt is None:
        return
    if family.mu1 is not None:
        form, identity = family.mu1
        want, got = form(n, m, scal), tt.known[0].mu if tt.known else None
        if got != want:
            raise CatalogError(f"{model.key}: first TT eigenvalue {got} violates the "
                               f"{identity.format(want)}")
    if family.tail is not None and family.tail[2]:
        form, name, _, _ = family.tail
        if tt.tail_bound != form(n, m):
            raise CatalogError(
                f"{model.key}: TT tail bound {tt.tail_bound} != {name} = {form(n, m)}")


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
    family = _FAMILIES.get(name if model is None else model.variant)
    if family is None:
        raise CatalogError(
            f"unknown model '{name}'; available: " + ", ".join(sorted(cat)))
    options = family.options
    for opt in given:
        if opt not in options:
            takes = " and ".join(f"--{o}" for o in options)
            raise CatalogError(f"model '{name}' takes {takes}, not --{opt}")
    if model is None:
        required = next(iter(options))  # dim, or m for cp and product
        if required not in given:
            raise CatalogError(f"model '{name}' needs --{required}")
        # the key lists the family's options in order; a quotient's order defaults to 2
        key = ":".join([name, *(str(given.get(opt, 2)) for opt in options)])
        if key not in cat:
            raise CatalogError(
                f"model '{key}' not in catalog; available: " + ", ".join(sorted(cat)))
        return cat[key]
    for opt, v in given.items():
        have = getattr(model, options[opt])
        if v != have:
            raise CatalogError(f"--{opt} {v} does not match model '{name}' ({opt} {have})")
    return model
