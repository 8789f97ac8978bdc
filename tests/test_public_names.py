"""Every public name resolves: each module's ``__all__``, the package's exports, and the tracer's layers."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import latticeqe

PACKAGE = Path(latticeqe.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if not path.stem.startswith("_"))


def missing(module, names) -> list[str]:
    return [f"{module.__name__}.{name}" for name in names if not hasattr(module, name)]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"latticeqe.{name}")
    assert missing(module, getattr(module, "__all__", ())) == []


def test_package_exports_resolve():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    names = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert names and missing(latticeqe, names) == []


def test_tracer_layers_resolve():
    # the benchmark's tracer wraps these by name; a missing one would fail only inside a traced run
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    absent = []
    for modname, functions in tracer.LAYERS.values():
        absent += missing(importlib.import_module(f"latticeqe.{modname}"), functions)
    assert absent == []
