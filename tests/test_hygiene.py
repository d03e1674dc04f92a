"""Source hygiene: no unused imports, no function that the pipeline runs
never enter unless it is listed with a reason, and every traced entry point
exists."""

import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import CodeType
from typing import Callable, Dict, List, Optional, Set

import pytest

import locus
from locus.cli import main

from conftest import S3XA5_GRP

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


# -- reachability by execution ------------------------------------------------------

TRACER_PINNED = "wrapped by perfbench/tracer.py SPANS; delete at the next benchmark change"

# functions and methods that no pipeline enters but that stay, with the reason
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
    "locality.CheckReport.__repr__": "pytest prints it when an `assert rep.passed` fails",
}

# functions that only a failing input enters, with a test (that takes no
# fixtures) that gives one
FAILURE_PATHS = {
    "locality.CheckReport.fail":
        "test_locality::test_locality_axioms_fail_when_s_is_not_a_p_group",
    "locality._Block.word": "test_locality::test_transport_entry_lost_fails_chain_construction",
    "locality._is_partial_subgroup_set":
        "test_locality::test_locality_axioms_fail_l1_on_a_p_subgroup_above_s",
}


def _code_of(obj) -> Optional[CodeType]:
    if isinstance(obj, property):
        obj = obj.fget
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    return getattr(inspect.unwrap(obj), "__code__", None) if callable(obj) else None


def _defined_code(package) -> Dict[CodeType, str]:
    """The code of each module-level function and class method that the
    modules of ``package`` define, to its name ``module.qualname``."""
    modules = [package] + [importlib.import_module(f"{package.__name__}.{info.name}")
                           for info in pkgutil.iter_modules(package.__path__)]
    defined = {}
    for module in modules:
        prefix = module.__name__.partition(".")[2] or module.__name__
        for name, obj in vars(module).items():
            members = ([(f"{name}.{attr}", v) for attr, v in vars(obj).items()]
                       if inspect.isclass(obj) else [(name, obj)])
            for qualname, member in members:
                code = _code_of(member)
                if code is not None and code.co_filename == module.__file__:
                    defined[code] = f"{prefix}.{qualname}"
    return defined


def _entered(run: Callable[[], None]) -> Set[CodeType]:
    """The code of every function whose body ``run()`` enters."""
    entered: Set[CodeType] = set()

    def record(frame, event, arg):
        # called on every event of the run: keep it to one set insertion
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return entered


def _unentered(package, run: Callable[[], None]) -> List[str]:
    """The functions and methods of ``package`` whose body ``run()`` never
    enters, by name ``module.qualname``."""
    entered = _entered(run)
    return sorted(name for code, name in _defined_code(package).items() if code not in entered)


def _pipeline_runs(tmp: Path) -> List[List[str]]:
    """CLI calls that, between them, take all eight pipelines and each path
    that only some inputs or options reach."""
    s3xa5 = tmp / "s3xa5.grp"  # takes the seeds route of o_pprime_locality
    s3xa5.write_text(S3XA5_GRP)
    return [
        ["group-inspect", "--group", "s4"],
        ["group-inspect", "--group", "a6", "--prime", "3"],
        ["locality-check", "--group", "s4", "--objects", "min-order:2",
         "--report", str(tmp / "report.json")],
        ["locality-check", "--group", "a6", "--objects", "centric"],
        ["locality-check", "--group", str(s3xa5)],
        ["fusion-classify", "--group", "a6"],
        ["signalizer-quotient", "--group", "a6xc3"],
        ["orbit-universal", "--group", "s4"],
        ["sharpness", "--group", "s4"],
        ["lie-verify"],
        ["full-acceptance"],
    ]


@pytest.fixture(scope="module")
def locus_unentered(tmp_path_factory) -> List[str]:
    runs = _pipeline_runs(tmp_path_factory.mktemp("pipelines"))

    def run_all():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            statuses = [main(argv) for argv in runs]
        assert statuses == [0] * len(runs)

    return _unentered(locus, run_all)


def test_every_function_is_reached_from_a_pipeline(locus_unentered):
    unexplained = [q for q in locus_unentered
                   if q not in ALLOWED_UNREACHED and q not in FAILURE_PATHS]
    assert unexplained == [], ("delete them, or add them to ALLOWED_UNREACHED with a "
                               "reason or to FAILURE_PATHS with the test that enters them")


def test_allowlist_has_no_stale_entries(locus_unentered):
    listed = set(ALLOWED_UNREACHED) | set(FAILURE_PATHS)
    assert sorted(listed - set(locus_unentered)) == []


def test_failure_paths_enter_what_they_name():
    code_of = {name: code for code, name in _defined_code(locus).items()}
    missed = []
    for qualname, test in FAILURE_PATHS.items():
        module, name = test.split("::")
        if code_of[qualname] not in _entered(getattr(importlib.import_module(module), name)):
            missed.append(test)
    assert missed == []


def test_unreached_detector(tmp_path, monkeypatch):
    # Crate.used shares its name with the live Box.used, and Box.__repr__ is a
    # dunder of a live class: a walk by name counts both as reached
    package = tmp_path / "toypkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("from .core import run\n\ndef main():\n    return run()\n")
    (package / "core.py").write_text(
        "import functools\n"
        "class Box:\n"
        "    def __init__(self):\n        self.v = helper()\n"
        "    def used(self):\n        return 1\n"
        "    @property\n    def size(self):\n        return 2\n"
        "    @staticmethod\n    def spare():\n        return Box()\n"
        "    def __repr__(self):\n        return 'Box()'\n"
        "class Crate:\n"
        "    def used(self):\n        return 3\n"
        "def helper():\n    return 0\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def table():\n    return helper()\n"
        "def run():\n    box = Box()\n    return box.used() + box.size\n"
        "def orphan():\n    return run()\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    toy = importlib.import_module("toypkg")
    main_of_toy = importlib.import_module("toypkg.cli").main
    assert _unentered(toy, main_of_toy) == [
        "core.Box.__repr__", "core.Box.spare", "core.Crate.used", "core.orphan", "core.table"]


def test_tracer_pinned_names_are_traced():
    tracer = _load_tracer()
    traced = {f"{layer}.{dotted}" for layer, stems in tracer.SPANS.items()
              for dotted_list in stems.values() for dotted in dotted_list}
    pinned = {q for q, reason in ALLOWED_UNREACHED.items() if reason == TRACER_PINNED}
    assert sorted(pinned - traced) == []
