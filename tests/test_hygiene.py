"""Source hygiene: no unused imports, no code that no pipeline reaches, and
every traced entry point exists."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

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


def _imports_fractions(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(
                a.name.split(".")[0] == "fractions" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fractions":
            return True
    return False


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_fractions_import(path):
    # every matrix the package builds is integral; exact rationals live in tests
    assert not _imports_fractions(path.read_text())


def test_fractions_import_detector():
    assert _imports_fractions("from fractions import Fraction\n")
    assert _imports_fractions("def f():\n    import fractions\n")
    assert not _imports_fractions("import math\n")


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


def test_entry_points_do_not_import_numpy_random():
    # importing numpy.random after locus raises the max RSS of a fresh
    # process from 28.4 to 34.6 MiB; the seeded draws replay
    # ``random.Random`` instead
    src = str(Path(locus.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, locus.cli, locus.harness; print('numpy.random' in sys.modules)"],
        env={"PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_locality_checks_do_not_import_numpy_ma():
    # ``np.unique`` with no return_* option imports numpy.ma (to test for a
    # masked array), which raises the max RSS of a locality check by 3.6 MiB
    src = str(Path(locus.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from locus.cli import main; "
         "main(['locality-check', '--group', 's4', '--samples', '3000']); "
         "print('numpy.ma' in sys.modules)"],
        env={"PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False"


def test_transfer_map_does_not_import_numpy_ma():
    # the coset representatives of ``transfer_cochain`` are distinct ints,
    # not an ``np.unique`` (which imports numpy.ma)
    src = str(Path(locus.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; from locus.cohomology import CohomologyFamily, transfer_map; "
         "from locus.harness import load_bundled; from locus.permgroups import sylow; "
         "G = load_bundled('s4'); fam = CohomologyFamily(G, 2, 2); "
         "transfer_map(fam.of(frozenset(sylow(G, 2).members)), "
         "fam.of(frozenset([G.identity])), 1); "
         "print('numpy.ma' in sys.modules)"],
        env={"PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "False"


# -- reachability from the pipelines ---------------------------------------------

# where the pipelines start: ``locus`` on the command line, and harness.run
ENTRY_POINTS = [("cli", "main"), ("harness", "run")]

TRACER_PINNED = "wrapped by perfbench/tracer.py SPANS; delete at the next benchmark change"

# functions and methods that no pipeline reaches but that stay, with the reason
ALLOWED_UNREACHED = {
    "catlimits.proto_mackey_check": TRACER_PINNED,
    "signalizer.characteristic_p_reduction": TRACER_PINNED,
    "fusion.centralizer_subsystem": TRACER_PINNED,
    "permgroups.normalizer": TRACER_PINNED,
    "cohomology.transfer_along": "called only by proto_mackey_check, which perfbench/"
                                 "tracer.py SPANS wraps; delete with it",
    "fusion.FusionSystem.fully_centralized": "called only by centralizer_subsystem, which "
                                             "perfbench/tracer.py SPANS wraps; delete with it",
    "permgroups.cycle_string": "writes the bundled groups in scripts/make_groups.py",
    "locality.Locality.restrict": "the restriction L|Delta' of the paper; tested",
}


def _references(node: ast.AST) -> Iterable[Tuple[bool, str]]:
    """(is_attribute, name) for every bare name and attribute under node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield False, n.id
        elif isinstance(n, ast.Attribute):
            yield True, n.attr


def _unreached(sources: Dict[str, str], entry_points) -> List[str]:
    """Functions and methods (dunders aside) that no entry point reaches.

    The walk goes by name.  Module-level code and class bodies run on
    import, so they are reached, as are the entry points.  A reached body
    reaches every module-level function or class its bare names name, and
    through an attribute ``x.f`` also every method ``f``; a reached class
    reaches its dunder methods, which Python calls implicitly.  A local
    variable that shares a method's name does not reach the method, and a
    method is counted as reached whenever another class's method of the
    same name is called, so a dead method that shares its name with a live
    one goes unseen.
    """
    functions: Dict[str, List[Tuple[str, ast.AST]]] = {}
    methods: Dict[str, List[Tuple[str, ast.AST]]] = {}
    dunders: Dict[str, List[Tuple[str, ast.AST]]] = {}  # class name -> its dunders
    todo: List[ast.AST] = []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.setdefault(node.name, []).append((f"{module}.{node.name}", node))
                if (module, node.name) in entry_points:
                    todo.append(node)
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qualname = f"{module}.{node.name}.{sub.name}"
                        methods.setdefault(sub.name, []).append((qualname, sub))
                        if sub.name.startswith("__"):
                            dunders.setdefault(node.name, []).append((qualname, sub))
                    else:
                        todo.append(sub)
                todo += node.decorator_list + node.bases
            else:
                todo.append(node)
    reached, seen = set(), set()
    while todo:
        for ref in _references(todo.pop()):
            if ref in seen:
                continue
            seen.add(ref)
            is_attribute, name = ref
            hits = functions.get(name, []) + dunders.get(name, [])
            if is_attribute:
                hits += methods.get(name, [])
            for qualname, node in hits:
                reached.add(qualname)
                todo.append(node)
    defined = [q for group in (functions, methods) for name, defs in group.items()
               if not name.startswith("__") for q, _ in defs]
    return sorted(q for q in defined if q not in reached)


def _locus_unreached() -> List[str]:
    return _unreached({path.stem: path.read_text() for path in MODULES}, ENTRY_POINTS)


def test_every_function_is_reached_from_a_pipeline():
    unexplained = [q for q in _locus_unreached() if q not in ALLOWED_UNREACHED]
    assert unexplained == [], "delete them, or add them to ALLOWED_UNREACHED with a reason"


def test_allowlist_has_no_stale_entries():
    assert sorted(set(ALLOWED_UNREACHED) - set(_locus_unreached())) == []


def test_tracer_pinned_names_are_traced():
    tracer = _load_tracer()
    traced = {f"{layer}.{dotted}" for layer, stems in tracer.SPANS.items()
              for dotted_list in stems.values() for dotted in dotted_list}
    pinned = {q for q, reason in ALLOWED_UNREACHED.items() if reason == TRACER_PINNED}
    assert sorted(pinned - traced) == []


def test_unreached_detector():
    sources = {
        "cli": "from .core import run\n"
               "def main():\n    return run()\n"
               "if __name__ == '__main__':\n    main()\n",
        "core": "class Box:\n"
                "    def __init__(self):\n        self.v = helper()\n"
                "    def used(self):\n        return 1\n"
                "    def unused(self):\n        return 2\n"
                "def helper():\n    return 0\n"
                "def run():\n    unused = Box()\n    return unused.used()\n"
                "def orphan():\n    return run()\n",
    }
    assert _unreached(sources, [("cli", "main")]) == ["core.Box.unused", "core.orphan"]
