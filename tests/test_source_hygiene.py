"""Source hygiene: no unused import in src/qcf or tests, no src/qcf
function, class or method without a caller, and no src/qcf import that
slows every process's start-up.

A standard-library `ast` scan, so it needs no linter. An imported name
is used when the module reads it anywhere or lists it in `__all__`; an
import line marked `# noqa: F401` is deliberate and exempt. A
module-level function or class of src/qcf whose name starts with an
underscore is used when its module reads the name anywhere; names that
only other modules read belong in the public interface. Beyond that,
every module-level function and class of src/qcf and every method of its
classes has a caller outside the tests: src/qcf reads the name outside
the definition itself (a listing in `__all__` is a string, not a read;
`super().name` in an override reads the base class's method, which the
base's callers reach), or a perfbench/*.py identifier reads it, or it is
the last part of a `qcf.` dotted string there, as in the span tracer's
SITES. Names match as identifiers, unresolved, so one read covers every
definition of that name; a method is reached only as an attribute
(`x.name`), so a local variable of the same name does not count for it.
That match is exact because no two src/qcf classes define a method of
one name: a second `display_name` would share `ModelSpace.display_name`'s
reads. Dunder names and `_make` overrides (the NamedTuple protocol that
`_replace` calls) are exempt from both rules; the CLI commands are read
from `cli`'s command table like any other name. What only tests call lives in the
tests. No module of src/qcf imports `click`, anywhere, function bodies
included: the CLI parses with argparse, which imports in a tenth of the
time. No module of src/qcf imports `dataclasses` (records are
NamedTuples, whose classes are built without generating and compiling
methods), and none imports `concurrent`, `threading` or
`multiprocessing` anywhere, function bodies included: qcf computes on
one thread, and `concurrent.futures` imports `logging` as well. No
module of src/qcf calls `np.tensordot` or `np.moveaxis`: both normalise
their axis arguments in Python on every call, which on the n <= 8
tensors here costs several times the contraction itself (raising both
indices of a 4 x 4 tensor that way takes about 35 us, one matmul per
index about 6 us); a matmul per index (`tensor_core.raise_all`,
`homogeneous._cov1`) does the same contraction with the same bits. The
curvature layer (`tensor_core`, `homogeneous`, `catalog`, `verify`)
holds exact data in one form, `tensor_core._Exact`, so none of its
modules builds an object-dtype array (`dtype=object`) or names that
dtype (`np.dtype(object)`): a Fraction array there would be a second
exact form, with a conversion at every boundary between the two. The
exceptions are `_Exact.fractions()`, the one place that hands a caller a
Fraction array, and the `_Exact.dtype` class attribute. Numerators past
int64, which `_Exact` keeps as Python ints, are an integer array chosen
by its bound and are not named this way. Only the entry point
(`cli._Main.__call__`) freezes the collector's heap (`gc.freeze`): a
frozen heap is never collected again, so no code that a long-lived
caller runs may freeze it. The CLI has one error path: in
`cli`, only the entry point's handler (`_Main.main`) calls `sys.exit` or
writes to stderr (`file=sys.stderr`, `sys.stderr.write`, or an
`err=True` echo), apart from `verify`'s `elapsed:` line (a command
returns its exit code, as verify's 1 on a failed criterion, and the
handler exits with it once stdout is flushed), and no code calls
`np.errstate` (the handler ignores numpy's float warnings). A `__new__` in src/qcf (the
checking records' constructors) takes its fields by name, with no
`*args` or `**kwargs`: forwarding them through `super().__new__` binds
them in the NamedTuple's generated constructor, one more Python call per
record, which made a record cost several times a positional one on the
verdict path. Test modules are scanned for imports only: pytest finds
their fixtures by name.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "qcf"
BENCH = TESTS.parent / "perfbench"


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
_AXIS_SHUFFLES = ("tensordot", "moveaxis")
# The one exception: qcf.cli.__getattr__ serves the name ThreadPoolExecutor,
# which no qcf code looks up, because the benchmark tracer (perfbench/spans.py)
# subclasses it. It goes when the tracer drops its TracedPool.
_CONCURRENCY_EXEMPT = ("cli", "__getattr__")


_EXACT_LAYER = ("tensor_core", "homogeneous", "catalog", "verify")
_OBJECT_DTYPE_EXEMPT = (("_Exact", "fractions"), ("_Exact", "dtype"))


# cli ends a command and prints to stderr only in the entry point's handler,
# apart from this call in verify
_ERROR_HANDLER = ("_Main", "main")
_VERIFY_EXEMPT = "print(f'elapsed: {report.elapsed:.2f}s', file=sys.stderr)"

# the one place that may call gc.freeze: the process ends after it
_FREEZER = ("cli", ("_Main", "__call__"))


def _owners(tree: ast.Module):
    """(node, (class or None, the function or assigned name it defines)) for
    each top-level statement and each statement of a top-level class body."""
    for top in tree.body:
        for node in top.body if isinstance(top, ast.ClassDef) else [top]:
            name = getattr(node, "name", None)
            if isinstance(node, ast.Assign):
                name = next((t.id for t in node.targets if isinstance(t, ast.Name)), None)
            yield node, (top.name if node is not top else None, name)


def _names_object_dtype(node: ast.AST) -> bool:
    """A dtype=object keyword or an np.dtype(object) call."""
    if isinstance(node, ast.keyword):
        value = node.value if node.arg == "dtype" else None
    elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "dtype":
        value = node.args[0] if node.args else None
    else:
        return False
    return isinstance(value, ast.Name) and value.id == "object"


def _is_error_output(node: ast.AST) -> bool:
    """A sys.exit call, or a call that writes to stderr: sys.stderr.write, or
    a file=sys.stderr or err=True keyword."""
    return isinstance(node, ast.Call) and (
        ast.unparse(node.func) in ("sys.exit", "sys.stderr.write")
        or any(ast.unparse(k) in ("file=sys.stderr", "err=True") for k in node.keywords))


def _names_gc_freeze(node: ast.AST) -> bool:
    """A gc.freeze read or a `from gc import freeze`."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "gc" and any(alias.name == "freeze" for alias in node.names)
    return ast.unparse(node) == "gc.freeze" if isinstance(node, ast.Attribute) else False


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
        if src:
            out += [f"imports {top}" for top in _top_package(node)
                    if top in ("dataclasses", "click")]
    for node, owner in _imports_by_owner(tree) if src else ():
        if (module, owner) != _CONCURRENCY_EXEMPT:
            out += [f"imports {top}" for top in _top_package(node) if top in _CONCURRENCY]
    for node in tree.body if src else ():
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")
                and node.name not in read):
            out.append(f"unreferenced private {node.name}")
    for node in ast.walk(tree) if src else ():
        if isinstance(node, ast.Attribute) and node.attr in _AXIS_SHUFFLES:
            out.append(f"calls np.{node.attr}")
    for top, owner in _owners(tree) if src and module in _EXACT_LAYER else ():
        if owner not in _OBJECT_DTYPE_EXEMPT:
            where = ".".join(name for name in owner if name)
            out += [f"object dtype in {where}" for node in ast.walk(top)
                    if _names_object_dtype(node)]
    for top, owner in _owners(tree) if src else ():
        where = ".".join(name for name in owner if name) or "module scope"
        out += [f"freezes the heap in {where}" for node in ast.walk(top)
                if _names_gc_freeze(node) and (module, owner) != _FREEZER]
    for node, (cls, name) in _owners(tree) if src else ():
        if name == "__new__" and (node.args.vararg or node.args.kwarg):
            out.append(f"{cls}.__new__ takes *args or **kwargs")
    for top, owner in _owners(tree) if src and module == "cli" else ():
        where = ".".join(name for name in owner if name)
        for node in ast.walk(top) if owner != _ERROR_HANDLER else ():
            if _is_error_output(node) and not (
                    owner == (None, "verify") and ast.unparse(node) == _VERIFY_EXEMPT):
                out.append(f"error output in {where}: {ast.unparse(node)}")
        out += [f"calls np.errstate in {where}" for node in ast.walk(top)
                if isinstance(node, ast.Attribute) and node.attr == "errstate"]
    return out


_QCF_DOTTED = re.compile(r"qcf(\.\w+)+")


def _is_super_attribute(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and isinstance(node.value, ast.Call) and (
        getattr(node.value.func, "id", None) == "super")


def _reads(tree: ast.AST, skip_super: bool = False) -> Counter:
    """How often each identifier is read under tree: a name as itself, an
    attribute as "." and its name; skip_super leaves out the attributes of
    super()."""
    return Counter(node.id if isinstance(node, ast.Name) else "." + node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
                   and not (skip_super and _is_super_attribute(node)))


def _definitions(tree: ast.Module):
    """(qualified name, node) of each module-level function and class and
    each method of a module-level class."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield top.name, top
        for node in top.body if isinstance(top, ast.ClassDef) else ():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{top.name}.{node.name}", node


def _exempt(node: ast.FunctionDef | ast.ClassDef) -> bool:
    """A dunder or a `_make` override."""
    return node.name.startswith("__") and node.name.endswith("__") or node.name == "_make"


def uncalled(src: dict[str, str], bench: list[str]) -> list[str]:
    """module.qualified names of the definitions in src (module name to
    source) that have no caller in src outside themselves or in bench (the
    perfbench sources)."""
    trees = {module: ast.parse(source) for module, source in src.items()}
    read = sum((_reads(tree) for tree in trees.values()), Counter())
    bench_names = set()
    for tree in map(ast.parse, bench):
        bench_names |= {name.lstrip(".") for name in _reads(tree)}
        bench_names |= {node.value.rpartition(".")[2] for node in ast.walk(tree)
                        if isinstance(node, ast.Constant) and isinstance(node.value, str)
                        and _QCF_DOTTED.fullmatch(node.value)}
    out = []
    for module, tree in trees.items():
        for qualified, node in _definitions(tree):
            if _exempt(node) or node.name in bench_names:
                continue
            # a method is reached only as an attribute, a module-level name also by name
            keys = ["." + node.name] if "." in qualified else [node.name, "." + node.name]
            own = _reads(node, skip_super=True)
            if all(read[key] <= own[key] for key in keys):
                out.append(f"{module}.{qualified}")
    return out


def shared_method_names(src: dict[str, str]) -> list[str]:
    """The method names that more than one class of src defines."""
    methods = {(module, qualified) for module, source in src.items()
               for qualified, node in _definitions(ast.parse(source))
               if "." in qualified and not _exempt(node)}
    names = Counter(qualified.rpartition(".")[2] for _, qualified in methods)
    return sorted(name for name, count in names.items() if count > 1)


def _package() -> tuple[dict[str, str], list[str]]:
    """src/qcf's sources by module name, and perfbench's sources."""
    return ({path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.rglob("*.py"))},
            [path.read_text(encoding="utf-8") for path in sorted(BENCH.glob("*.py"))])


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
    from click import echo
    return np.zeros(3), concurrent.futures.wait, replace, echo

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

def contract(a, b):
    ab = np.tensordot(a, b, axes=1)
    return np.moveaxis(ab, 0, 1)
"""
    scan = findings(source)
    assert scan == [
        "unused import os", "unused import Fraction",
        "imports dataclasses", "imports click", "unused import dataclasses",
        "imports dataclasses", "imports concurrent", "imports concurrent", "imports threading",
        "imports multiprocessing", "imports concurrent",
        "unreferenced private _zeros_obj", "unreferenced private _Gone",
        "calls np.tensordot", "calls np.moveaxis"]
    # cli.__getattr__ is the one exception, in cli only
    assert findings(source, module="cli") == scan[:10] + scan[11:]
    assert findings(source, src=False) == [
        "unused import os", "unused import Fraction", "unused import dataclasses"]


def test_scan_flags_object_dtypes_in_the_curvature_layer():
    source = """
class _Exact:
    dtype = np.dtype(object)

    def fractions(self):
        return np.empty(3, dtype=object)

    def widened(self):
        return np.zeros(3, dtype=object)

def zeros(shape):
    return np.full(shape, Fraction(0), dtype=np.int64 if shape else object)

def identity(n):
    eye = np.empty((n, n), dtype=object)
    return eye.astype(np.dtype(object))

KINDS = {"exact": np.dtype(object), "held": _Exact}
"""
    scan = ["object dtype in _Exact.widened", "object dtype in identity",
            "object dtype in identity", "object dtype in KINDS"]
    for module in ("tensor_core", "homogeneous", "catalog", "verify"):
        assert findings(source, module=module) == scan
    assert findings(source, module="spectral") == []
    # a Fraction array built in homogeneous.su2 fails the scan
    path = SRC / "homogeneous.py"
    text = path.read_text(encoding="utf-8")
    body = "    return _su2_frame(3, exact)\n"
    assert text.count(body) == 1
    mutant = text.replace(body, "    c = np.empty((3, 3, 3), dtype=object)\n" + body)
    assert findings(mutant, module="homogeneous") == ["object dtype in su2"]


def test_scan_keeps_cli_errors_in_the_entry_point_handler():
    source = """
class _Main:
    def main(self, args=None):
        with np.errstate(all="ignore"):
            print("error: x", file=sys.stderr)
            sys.exit(2)

main = _Main()

def verify(report):
    print(f"elapsed: {report.elapsed:.2f}s", file=sys.stderr)
    return 1

def grad():
    with np.errstate(all="ignore"):
        print("warning", file=sys.stderr)
        sys.stderr.write("warning")
        click.echo("warning", err=True)
    print("stdout", file=sys.stdout)
    sys.exit(3)
"""
    assert findings(source, module="cli") == [
        "calls np.errstate in _Main.main",
        "error output in grad: sys.exit(3)",
        "error output in grad: print('warning', file=sys.stderr)",
        "error output in grad: sys.stderr.write('warning')",
        "error output in grad: click.echo('warning', err=True)",
        "calls np.errstate in grad"]
    assert findings(source, module="spectral") == []
    # verify may print only its timing line; it returns its exit code
    assert findings(source.replace("return 1", "sys.exit(1)"), module="cli")[1] == (
        "error output in verify: sys.exit(1)")
    # a command that prints its own stderr line fails the scan
    path = SRC / "cli.py"
    text = path.read_text(encoding="utf-8")
    doc = '    """Strict-stability tau interval of a catalog model, or a point verdict."""\n'
    assert text.count(doc) == 1
    for line, shown in (('print("error: refused", file=sys.stderr)',
                         "print('error: refused', file=sys.stderr)"),
                        ('sys.stderr.write("error: refused")',
                         "sys.stderr.write('error: refused')"),
                        ('click.echo("error: refused", err=True)',
                         "click.echo('error: refused', err=True)")):
        mutant = text.replace(doc, doc + f"    {line}\n")
        assert findings(mutant, module="cli") == [f"error output in intervals: {shown}"]


def test_scan_keeps_record_constructors_positional():
    source = """
class Checked(_Fields):
    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs)

class Named(_Fields):
    def __new__(cls, variant, witness=None):
        return tuple.__new__(cls, (variant, witness))

class Rest(_Fields):
    def __new__(cls, variant, **extra):
        return tuple.__new__(cls, (variant,))
"""
    assert findings(source) == ["Checked.__new__ takes *args or **kwargs",
                                "Rest.__new__ takes *args or **kwargs"]
    assert findings(source, src=False) == []
    # StabilityVerdict forwarding its arguments fails the scan
    path = SRC / "stability.py"
    text = path.read_text(encoding="utf-8")
    sig = "    def __new__(cls, variant, witness=None, notes=(), provenance=()):\n"
    assert text.count(sig) == 1
    mutant = text.replace(sig, "    def __new__(cls, *args, **kwargs):\n")
    assert findings(mutant, module="stability") == [
        "StabilityVerdict.__new__ takes *args or **kwargs"]


def test_every_src_function_class_and_method_has_a_caller():
    assert uncalled(*_package()) == []


def test_no_two_src_classes_define_a_method_of_one_name():
    assert shared_method_names(_package()[0]) == []


def test_caller_scan_rules():
    source = """
__all__ = ["listed"]

def listed():
    return 1

def recursive(n):
    return recursive(n - 1) if n else 0

def used():
    return Record(1)._replace(x=2).total, FLOAT

class Record(NamedTuple):
    x: int

    @property
    def total(self):
        return self.x

    def unread(self):
        return self.unread

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __repr__(self):
        return "Record"

class Parser(argparse.ArgumentParser):
    def error(self, message):
        return super().error(message)

PARSER = Parser()

def intervals():
    pass

@main.command()
def curve():
    pass

COMMANDS = {"intervals": intervals}

def traced():
    pass

def run():
    unread = used()  # a local name does not reach the method Record.unread
    return unread
"""
    bench = 'SITES = ["qcf.mod.traced", "not qcf.mod.listed"]\nmod.run()\n'
    # a command is called from the command table, and a decorator exempts none
    assert uncalled({"mod": source}, [bench]) == ["mod.listed", "mod.recursive",
                                                 "mod.Record.unread", "mod.curve"]
    assert uncalled({"mod": source}, []) == ["mod.listed", "mod.recursive",
                                            "mod.Record.unread", "mod.curve", "mod.traced",
                                            "mod.run"]


def test_caller_scan_flags_what_only_tests_call():
    """A new public function that nothing calls fails the scan, and so does
    a method that only tests call (the verdict's former `passes`). The
    tracer's dotted names keep exact_inv and exact_det, which no src module
    calls."""
    src, bench = _package()
    text = src["stability"]
    mutant = dict(src, stability=text + "\n\ndef tt_gap_check(model, tau):\n"
                                        "    return _tt_gap(model, _exact_tau(tau))\n")
    assert uncalled(mutant, bench) == ["stability.tt_gap_check"]
    anchor = "    provenance: tuple[str, ...] = ()\n"
    assert text.count(anchor) == 1
    passes = ("\n    @property\n    def passes(self) -> bool:\n        return self.variant in "
              "(\"StrictlyStable\", \"StableBoundOnly\")\n")
    mutant = dict(src, stability=text.replace(anchor, anchor + passes))
    assert uncalled(mutant, bench) == ["stability._VerdictFields.passes"]
    assert uncalled(src, []) == ["_exact.exact_inv", "_exact.exact_det"]


def test_caller_scan_flags_a_method_that_only_shares_a_called_name():
    """An uncalled `ExceptionalTau.display_name` passes the name-based
    caller rule, since cli and catalog read `ModelSpace.display_name`, and
    fails the one-class-per-method-name rule; so does a `to_json` put back
    on two records, which nothing calls. A cli renderer whose one read is
    gone fails the caller rule."""
    src, bench = _package()

    def add(text, cls, method):
        head = f"class {cls}(NamedTuple):\n"
        assert text.count(head) == 1
        return text.replace(head, f"{head}{method}\n")
    method = "    @property\n    def display_name(self) -> str:\n        return str(self.tau)\n"
    mutant = dict(src, stability=add(src["stability"], "ExceptionalTau", method))
    assert uncalled(mutant, bench) == []
    assert shared_method_names(mutant) == ["display_name"]
    method = "    def to_json(self) -> dict:\n        return self._asdict()\n"
    text = add(add(src["stability"], "ExceptionalTau", method), "BachVerdict", method)
    mutant = dict(src, stability=text)
    assert uncalled(mutant, bench) == ["stability.ExceptionalTau.to_json",
                                       "stability.BachVerdict.to_json"]
    assert shared_method_names(mutant) == ["to_json"]
    read = "        _emit_json(_rigidity_json(rep, bach))\n"
    assert src["cli"].count(read) == 1
    mutant = dict(src, cli=src["cli"].replace(read, "        _emit_json({})\n"))
    assert uncalled(mutant, bench) == ["cli._rigidity_json"]
    assert shared_method_names(mutant) == []


def test_scan_keeps_gc_freeze_in_the_entry_point():
    source = """
import gc
from gc import freeze

class _Main:
    def main(self, args=None):
        gc.freeze()

    def __call__(self):
        try:
            self.main()
        finally:
            gc.freeze()

def warm():
    def inner():
        return gc.freeze
    return inner, freeze

main = _Main()
"""
    flagged = ["freezes the heap in module scope", "freezes the heap in _Main.main",
               "freezes the heap in warm"]
    assert findings(source, module="cli") == flagged
    assert findings(source, module="stability") == flagged[:2] + [
        "freezes the heap in _Main.__call__", "freezes the heap in warm"]
    # the handler that in-process callers run may not freeze
    path = SRC / "cli.py"
    text = path.read_text(encoding="utf-8")
    call = "                code = _run(prog_name or self.name, argv) or 0\n"
    assert text.count(call) == 1
    mutant = text.replace(call, call + "                gc.freeze()\n")
    assert findings(mutant, module="cli") == ["freezes the heap in _Main.main"]
