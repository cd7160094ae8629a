"""Source hygiene: no unused import in src/qcf or tests, no unreferenced
private helper in src/qcf, and no src/qcf import that slows every
process's start-up.

A standard-library `ast` scan, so it needs no linter. An imported name
is used when the module reads it anywhere or lists it in `__all__`; an
import line marked `# noqa: F401` is deliberate and exempt. A
module-level function or class of src/qcf whose name starts with an
underscore is used when its module reads the name anywhere; names that
only other modules read belong in the public interface. No module of
src/qcf imports `dataclasses` (records are NamedTuples, whose classes
are built without generating and compiling methods), and none imports
`concurrent`, `threading` or `multiprocessing` anywhere, function bodies
included: qcf computes on one thread, and `concurrent.futures` imports
`logging` as well. Test modules are scanned for imports only: pytest
finds their fixtures by name.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "qcf"


def _read_names(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts}
    return names


def _top_package(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name.partition(".")[0] for alias in node.names]
    return [(node.module or "").partition(".")[0]]


_CONCURRENCY = ("concurrent", "threading", "multiprocessing")
# The one exception: qcf.cli.__getattr__ serves the name ThreadPoolExecutor,
# which no qcf code looks up, because the benchmark tracer (perfbench/spans.py)
# subclasses it. It goes when the tracer drops its TracedPool.
_CONCURRENCY_EXEMPT = ("cli", "__getattr__")


def _imports_by_owner(tree: ast.Module):
    """(import node, the module-level function it sits in, or None)."""
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node, owner


def findings(source: str, src: bool = True, module: str = "") -> list[str]:
    """Findings of the scan; `src` adds the rules for src/qcf modules, of
    which `module` names the one scanned."""
    tree = ast.parse(source)
    read = _read_names(tree)
    lines = source.splitlines()
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        else:
            continue
        if "# noqa: F401" not in lines[node.lineno - 1]:
            out += [f"unused import {name}" for name in bound if name not in read]
        if src and "dataclasses" in _top_package(node):
            out.append("imports dataclasses")
    for node, owner in _imports_by_owner(tree) if src else ():
        if (module, owner) != _CONCURRENCY_EXEMPT:
            out += [f"imports {top}" for top in _top_package(node) if top in _CONCURRENCY]
    for node in tree.body if src else ():
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")
                and node.name not in read):
            out.append(f"unreferenced private {node.name}")
    return out


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_import_or_private_helper(path):
    assert findings(path.read_text(encoding="utf-8"), module=path.stem) == []


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_test_module_has_no_unused_import(path):
    assert findings(path.read_text(encoding="utf-8"), src=False) == []


def test_scan_flags_each_kind():
    source = """
import os
import sys  # noqa: F401
import numpy as np
from fractions import Fraction
from concurrent.futures import ThreadPoolExecutor

def _zeros_obj(shape):
    return np.empty(shape, dtype=object)

def _used():
    import concurrent.futures
    from dataclasses import replace
    return np.zeros(3), concurrent.futures.wait, replace

class _Gone:
    import dataclasses

def public():
    import threading
    return _used(), ThreadPoolExecutor, threading

class Pool:
    from multiprocessing import pool

    def run(self):
        return pool

def __getattr__(name):
    from concurrent.futures import Future
    return Future
"""
    scan = findings(source)
    assert scan == [
        "unused import os", "unused import Fraction",
        "imports dataclasses", "unused import dataclasses", "imports dataclasses",
        "imports concurrent", "imports concurrent", "imports threading",
        "imports multiprocessing", "imports concurrent",
        "unreferenced private _zeros_obj", "unreferenced private _Gone"]
    # cli.__getattr__ is the one exception, in cli only
    assert findings(source, module="cli") == scan[:9] + scan[10:]
    assert findings(source, src=False) == [
        "unused import os", "unused import Fraction", "unused import dataclasses"]
