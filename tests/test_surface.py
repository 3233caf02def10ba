"""The names qcalc exports, and those the benchmark binds, resolve.

perfbench wraps qcalc's entry points by (module, attribute path) and its
probes import qcalc names directly; a removed or renamed binding would
otherwise only show in a traced benchmark run.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import qcalc

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcalc"
PERFBENCH = ROOT / "perfbench"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _resolve(obj, path):
    for attr in path.split("."):
        obj = getattr(obj, attr)
    return obj


def _imports_from(path, package):
    """(module, name) for every `from <package>... import name` in the file,
    relative imports in it read against package."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"{package}.{module}" if module else package
            if module == package or module.startswith(package + "."):
                out.extend((module, alias.name) for alias in node.names)
    return out


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"qcalc.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"qcalc.{module}.__all__ names missing {name!r}"


def test_package_imports_resolve():
    names = _imports_from(PACKAGE / "__init__.py", "qcalc")
    assert names
    for module, name in names:
        assert hasattr(qcalc, name), f"qcalc has no {name!r} (from {module})"
        assert getattr(qcalc, name) is getattr(importlib.import_module(module), name)


@pytest.fixture(scope="module")
def spans():
    """perfbench/spans.py loaded by path: it only defines names until install()."""
    loaded = set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("_perfbench_spans", PERFBENCH / "spans.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in set(sys.modules) - loaded:  # its sibling `oracle`
            del sys.modules[name]
    return mod


def test_benchmark_boundaries_resolve(spans):
    assert spans.BOUNDARIES
    for name, module, path in spans.BOUNDARIES:
        mod = importlib.import_module(f"qcalc.{module}")
        assert callable(_resolve(mod, path)), f"{name}: qcalc.{module}.{path}"
    qcore = importlib.import_module("qcalc.qcore")
    for fn in spans.CACHED:
        assert hasattr(getattr(qcore, fn), "cache_info"), f"qcalc.qcore.{fn} is not cached"


def test_benchmark_hook_and_probe_names_resolve():
    from qcalc.coeffs import LaurentPoly

    assert callable(LaurentPoly.divexact)
    assert isinstance(LaurentPoly.coeffs, property)
    names = _imports_from(PERFBENCH / "probes.py", "qcalc")
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module} has no {name!r}"
