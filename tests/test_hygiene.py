"""Source hygiene: no unused imports, and every traced entry point exists."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import locus

MODULES = sorted(Path(locus.__file__).parent.glob("*.py"))
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported) - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_detector():
    assert _unused_imports("import os\nfrom a.b import c, d as e\nprint(e)\n") == ["c", "os"]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_exist():
    tracer = _load_tracer()
    targets = [(layer, dotted) for layer, stems in tracer.SPANS.items()
               for dotted_list in stems.values() for dotted in dotted_list]
    targets += list(tracer.COUNTED)
    missing = []
    for layer, dotted in targets:
        owner, attr = tracer._resolve(importlib.import_module(f"locus.{layer}"), dotted)
        if attr not in owner.__dict__:  # the tracer reads owner.__dict__[attr]
            missing.append(f"locus.{layer}.{dotted}")
    assert missing == []
