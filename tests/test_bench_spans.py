"""The benchmark's span tracer records each traced call once.

perfbench/spans.py wraps `kulkarni_nomizu` at two lookup sites,
`qcf.tensor_core` and `qcf.catalog`. The catalog serves the name from
tensor_core on first lookup and its curvature builders call
tensor_core's function, so both sites get the same wrapper and a call
opens one `tensor_core.kn` span, not two.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_kulkarni_nomizu_calls_open_one_span_each(monkeypatch):
    import qcf.cli  # noqa: F401  (the tracer patches names in qcf.cli)
    from qcf import catalog, tensor_core

    calls = []
    kn = tensor_core.kulkarni_nomizu

    def counted(a, b):
        calls.append(1)
        return kn(a, b)

    monkeypatch.setattr(tensor_core, "kulkarni_nomizu", counted)
    cat = catalog.builtin_catalog()
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        for key in ("cp:2", "product:2"):
            cat[key].curvature_data(exact=True)
    finally:
        tracer.uninstall()
        # uninstall sets the looked-up value on the module; drop it so that
        # the catalog serves the name from tensor_core again
        vars(sys.modules["qcf.catalog"]).pop("kulkarni_nomizu", None)
    spans = tracer.summary()["names"]
    assert len(calls) == 2  # product:2 builds one product per factor
    assert spans["tensor_core.kn"]["count"] == len(calls)
