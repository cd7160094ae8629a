"""Catalog data: serialization round-trips, cross-identity validation, spectra."""

import itertools
import json
from fractions import Fraction

import jsonschema
import pytest
from conftest import catalog_json

from qcf.catalog import (
    CatalogError,
    ExactVolume,
    _sums_of_squares,
    builtin_catalog,
    catalog_schema,
    function_spectrum,
    load_catalog,
    make_sphere,
    model_from_json,
    resolve_model,
    validate_model,
)


@pytest.fixture(scope="module")
def cat():
    return builtin_catalog()


def test_builtin_catalog_contents(cat):
    assert len(cat) == 25
    for n in range(3, 9):
        assert f"sphere:{n}" in cat
        assert f"hyperbolic:{n}" in cat
        assert f"torus:{n}" in cat
    assert "quotient:4:2" in cat
    for m in (2, 3, 4):
        assert f"cp:{m}" in cat
        assert f"product:{m}" in cat


def test_builtin_catalog_validates(cat):
    for model in cat.values():
        validate_model(model)


def test_round_trip(cat):
    doc = catalog_json(cat[k] for k in sorted(cat))
    jsonschema.validate(doc, catalog_schema())
    for obj in doc["models"]:
        model = model_from_json(obj)
        assert model == cat[model.key]


def test_round_trip_through_json_text(cat):
    text = json.dumps(catalog_json(cat.values()))
    doc = json.loads(text)
    rebuilt = {m["key"]: model_from_json(m) for m in doc["models"]}
    assert rebuilt == cat


def test_validate_model_rejects_bad_scal():
    model = make_sphere(4)
    broken = model._replace(scal=Fraction(13))
    with pytest.raises(CatalogError, match="scal"):
        validate_model(broken)


def test_validate_model_names_sphere_identity():
    model = make_sphere(3)
    tt = model.tt
    bad_tt = tt.__class__(known=(tt.known[0].__class__(Fraction(11)),),
                          tail_bound=tt.tail_bound)
    broken = model._replace(tt=bad_tt)
    with pytest.raises(CatalogError, match=r"mu1 = 4R/\(n-1\)"):
        validate_model(broken)


@pytest.mark.parametrize("field,value,named", [
    ("lambda1", Fraction(0), "lambda1 0 is not positive"),
    ("volume", ExactVolume(Fraction(-8, 3), 2), "volume coefficient -8/3 is not positive"),
])
def test_validate_model_rejects_impossible_lambda1_and_volume(field, value, named):
    model = make_sphere(4)
    broken = model._replace(**{field: value})
    with pytest.raises(CatalogError, match=f"^sphere:4: {named}$"):
        validate_model(broken)


def test_corrupted_extension_rejected_by_content(cat, tmp_path):
    """A wrong first TT eigenvalue of CP^2 must fail the named identity."""
    doc = catalog_json([cat["cp:2"]])
    doc["models"][0]["tt"]["known"][0]["mu"] = "30"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(CatalogError, match=r"complex-projective identity"):
        load_catalog(str(path))


def test_extension_fails_schema(tmp_path):
    path = tmp_path / "bad_shape.json"
    path.write_text(json.dumps({"schema_version": 1,
                                "models": [{"key": "x"}]}))
    with pytest.raises(CatalogError, match="schema"):
        load_catalog(str(path))


def test_extension_merges_new_model(cat, tmp_path, monkeypatch):
    new = {
        "key": "quotient:3:2", "variant": "quotient", "dim": 3,
        "m": None, "quotient_order": 2,
        "einstein_constant": "2", "scal": "6",
        "volume": {"coeff": "1", "pi_pow": 2},
        "euler_char": None,
        "tt": {"known": [{"mu": "12"}], "tail_bound": "12",
               "is_bound": False, "is_subset": True},
        "lambda1": None,
    }
    path = tmp_path / "ext.json"
    path.write_text(json.dumps({"schema_version": 1, "models": [new]}))
    monkeypatch.setenv("QCF_CATALOG", str(path))
    merged = load_catalog()
    assert "quotient:3:2" in merged
    assert merged["quotient:3:2"].scal == 6
    # builtin entries survive the merge
    assert merged["sphere:4"] == cat["sphere:4"]
    ms = resolve_model(merged, "quotient", dim=3, order=2)
    assert ms.key == "quotient:3:2"


def test_extension_wrong_schema_version(tmp_path):
    path = tmp_path / "v2.json"
    path.write_text(json.dumps({"schema_version": 2, "models": []}))
    with pytest.raises(CatalogError, match="schema_version"):
        load_catalog(str(path))


def test_resolve_model_paths(cat):
    assert resolve_model(cat, "sphere:5").key == "sphere:5"
    assert resolve_model(cat, "sphere", dim=5).key == "sphere:5"
    assert resolve_model(cat, "cp", m=3).key == "cp:3"
    assert resolve_model(cat, "quotient", dim=4).key == "quotient:4:2"
    with pytest.raises(CatalogError, match="--dim"):
        resolve_model(cat, "sphere")
    with pytest.raises(CatalogError, match="--m"):
        resolve_model(cat, "product")
    with pytest.raises(CatalogError, match="available:"):
        resolve_model(cat, "banana")
    with pytest.raises(CatalogError, match="not in catalog"):
        resolve_model(cat, "sphere", dim=7777)


def test_resolve_model_refuses_options_for_another_model(cat):
    """A given option must be one the family takes and agree with the key:
    neither is dropped or defaulted into another model."""
    assert resolve_model(cat, "sphere:4", dim=4).key == "sphere:4"
    assert resolve_model(cat, "quotient:4:2", dim=4, order=2).key == "quotient:4:2"
    assert resolve_model(cat, "product", m=2).key == "product:2"
    with pytest.raises(CatalogError, match=r"^--dim 5 does not match model 'sphere:4' \(dim 4\)$"):
        resolve_model(cat, "sphere:4", dim=5)
    with pytest.raises(CatalogError, match="^model 'quotient:4:0' not in catalog"):
        resolve_model(cat, "quotient", dim=4, order=0)
    with pytest.raises(CatalogError, match="^model 'cp' takes --m, not --dim$"):
        resolve_model(cat, "cp", m=2, dim=9)
    with pytest.raises(CatalogError, match="^model 'sphere' takes --dim, not --order$"):
        resolve_model(cat, "sphere", dim=4, order=7)
    with pytest.raises(CatalogError, match="^model 'product:2' takes --m, not --dim$"):
        resolve_model(cat, "product:2", dim=4)


def test_function_spectrum_closed_forms(cat):
    assert function_spectrum(cat["sphere:3"], 4) == [0, 3, 8, 15]
    assert function_spectrum(cat["cp:2"], 3) == [0, 12, 32]
    assert function_spectrum(cat["product:2"], 6) == [0, 2, 4, 6, 8, 12]
    # 7 is not a sum of three squares
    assert function_spectrum(cat["torus:3"], 8) == [0, 1, 2, 3, 4, 5, 6, 8]
    with pytest.raises(CatalogError):
        function_spectrum(cat["hyperbolic:4"], 3)
    # S^m x S^m: the first c values of the sorted set of all pairwise sums
    for m in (2, 3, 4):
        base = [l * (l + m - 1) for l in range(402)]
        sums = sorted({a + b for a in base for b in base})
        for c in range(1, 201):
            assert function_spectrum(cat[f"product:{m}"], c) == sums[:c], (m, c)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_sums_of_squares_match_brute_force(n):
    # the first 60 values stay below 81, so |k_i| <= 8 reaches all of them
    sums = {sum(k * k for k in ks) for ks in itertools.product(range(9), repeat=n)}
    assert _sums_of_squares(n, 60) == sorted(v for v in sums if v <= 80)[:60]


def test_volumes_and_euler_characteristics(cat):
    import math

    assert float(cat["sphere:4"].volume) == pytest.approx(8.0 * math.pi**2 / 3.0)
    assert float(cat["cp:2"].volume) == pytest.approx(math.pi**2 / 2.0)
    assert float(cat["product:2"].volume) == pytest.approx(16.0 * math.pi**2)
    assert cat["sphere:4"].euler_char == 2
    assert cat["cp:2"].euler_char == 3
    assert cat["product:2"].euler_char == 4
    assert cat["quotient:4:2"].euler_char == 1
    assert cat["torus:4"].euler_char == 0


def test_display_names(cat):
    assert cat["sphere:4"].display_name == "S^4"
    assert cat["quotient:4:2"].display_name == "S^4/Z_2"
    assert cat["cp:3"].display_name == "CP^3"
    assert cat["product:2"].display_name == "S^2 x S^2"


def test_missing_file_is_a_catalog_error(tmp_path):
    with pytest.raises(CatalogError, match="cannot read"):
        load_catalog(str(tmp_path / "nope.json"))
    bad = tmp_path / "notjson.json"
    bad.write_text("{")
    with pytest.raises(CatalogError, match="not valid JSON"):
        load_catalog(str(bad))
