"""Every name the benchmark's span tracer wraps still exists in qcf.

The tracer (perfbench/spans.py) replaces module attributes by name, so
deleting or renaming one of them breaks traced benchmark runs; this
test loads the tracer's site list by path and resolves each name.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _sites() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    names = [site for _, _, sites in mod.SITES for site in sites]
    # patched directly by Tracer.install
    return names + ["qcf.cli.ThreadPoolExecutor", "qcf.cli._emit_json",
                    "qcf.verify.CRITERIA"]


@pytest.mark.parametrize("site", _sites())
def test_traced_name_resolves(site):
    mod_name, _, attr = site.rpartition(".")
    assert hasattr(importlib.import_module(mod_name), attr), site
