import pytest

from qcf.rational import format_ratio


@pytest.fixture(autouse=True)
def _clean_catalog_env(monkeypatch):
    """Keep tests independent of any catalog extension in the environment."""
    monkeypatch.delenv("QCF_CATALOG", raising=False)


def catalog_json(models) -> dict:
    """Catalog models as a catalog file holds them (QCF_CATALOG,
    catalog.schema.json): the inverse of qcf.catalog.model_from_json."""

    def ratio(x):
        return None if x is None else format_ratio(x)

    def model(ms) -> dict:
        vol, tt = ms.volume, ms.tt
        return {
            "key": ms.key, "variant": ms.variant, "dim": ms.n, "m": ms.m,
            "quotient_order": ms.quotient_order,
            "einstein_constant": ratio(ms.einstein_constant), "scal": ratio(ms.scal),
            "volume": vol and {"coeff": ratio(vol.coeff), "pi_pow": vol.pi_pow},
            "euler_char": ms.euler_char,
            "tt": tt and {
                "known": [{"mu": ratio(e.mu), **({"witness": e.witness} if e.witness else {})}
                          for e in tt.known],
                "tail_bound": ratio(tt.tail_bound),
                "is_bound": tt.is_bound, "is_subset": tt.is_subset},
            "lambda1": ratio(ms.lambda1),
        }

    return {"schema_version": 1, "models": [model(ms) for ms in models]}
