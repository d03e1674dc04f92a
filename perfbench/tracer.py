"""Per-layer tracing of ``locus`` from outside the program.

The tracer wraps each layer's entry points (module functions and a few
methods) with spans, and a few hot oracle methods with counters only.  A
function is replaced everywhere it is bound: in the module that defines it
and in every ``locus`` module that imported it by name.  ``restore`` puts
the original objects back.

Spans are kept in memory as ``[name, start, end, parent, run_id]`` lists
(``parent`` is the index of the enclosing span, or -1) and written out by
the caller when the pass ends.  A layer's self time is the time its spans
cover minus the part covered by their child spans.

Which end-to-end metric each layer should move, on which workload (shares
from traced passes at seed 2024):

=========== ======================= ====================== =================
layer       moves                   on                     no change on
=========== ======================= ====================== =================
permgroups  setup_s; wall_s         all; bigcover          tabled path
locality    wall_s                  acceptance (check_s    limits
                                    ~45%), bigcover
                                    (build_s ~35%)
fusion      wall_s                  bigcover (~45%)        acceptance, limits
signalizer  wall_s                  acceptance (~19%)      limits, bigcover
transporter wall_s                  acceptance (kmax,      bigcover
                                    pullback), limits
                                    (orbit category)
cohomology  wall_s, peak_rss_mb     limits                 bigcover
catlimits,  wall_s, peak_rss_mb     limits (rank ~65%),    bigcover
linalg                              acceptance
rootdata    wall_s (small)          acceptance (~8%)       limits, bigcover
=========== ======================= ====================== =================
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

# layer -> metric stem -> entry points ("func" or "Class.method").  A span
# is named "<layer>.<stem>"; stems without a metric of their own still add
# to the layer's self time.
SPANS: Dict[str, Dict[str, List[str]]] = {
    "permgroups": {
        "load": ["load_group", "load_group_file"],
        "lattice": ["all_subgroups", "subgroups_up_to_conjugacy"],
        "tables": ["Group.build_tables"],
        "other": ["sylow", "transporter", "normalizer_set", "normalizer",
                  "centralizer_set", "centralizer", "center", "o_p",
                  "o_pprime", "char_p_tests", "quotient_group"],
    },
    "locality": {
        "build": ["build_locality"],
        "check": ["check_partial_group", "check_locality_axioms"],
        "opprime": ["o_pprime_locality"],
        "other": ["quotient_locality", "is_partial_normal", "cosets"],
    },
    "fusion": {
        "of_group": ["fusion_of_group"],
        "of_locality": ["fusion_of_locality"],
        "saturation": ["is_saturated"],
        "classify": ["classify_subgroups", "classify_subgroups_core_only"],
        "other": ["fusion_systems_equal", "is_characteristic_p_type",
                  "normalizer_subsystem", "centralizer_subsystem"],
    },
    "signalizer": {
        "check": ["check_element_signalizer", "check_object_signalizer",
                  "theta_on_objects"],
        "quotient": ["theta_hat_quotient", "characteristic_p_reduction"],
        "other": ["default_theta"],
    },
    "transporter": {
        "build": ["transporter_of_locality", "orbit_category"],
        "kmax": ["kmax"],
        "pullback": ["pullback"],
        "boxtimes": ["boxtimes"],
        "other": ["double_coset_components", "restriction_fixed_points",
                  "mor_counts_mod_p", "components_match"],
    },
    "cohomology": {
        "fp": ["FpCohomology.__init__"],
        "maps": ["restriction_map", "transfer_map", "mackey_square"],
    },
    "catlimits": {
        "higher_limits": ["higher_limits"],
        "stable": ["stable_subspace_dim"],
        "other": ["sharpness_pipeline", "fusion_orbit_category",
                  "cohomology_functor_on_orbit_category",
                  "transporter_orbit_cat", "lambda_dims", "atomic_comparison",
                  "restrict_to_centrics_comparison", "proto_mackey_check"],
    },
    "linalg": {
        "rank": ["rank_sparse_modp"],
        "echelon": ["row_echelon_modp", "nullspace_modp"],
    },
    "rootdata": {
        "signs": ["SignTable.__init__", "SignTable.verify_identities"],
        "weyl": ["extended_weyl_report", "weyl_group"],
        "chevrels": ["verify_chevrels"],
        "other": ["beta_basis_check", "lattice_index_of_beta_coroots"],
    },
}

LAYERS = list(SPANS)

# hot oracle methods: (layer, "Class.method") -> (counter stem, count
# distinct argument tuples too); counted only, a span each would cost more
# than the call
COUNTED = {("locality", "Locality.s_word"): ("s_word", False),
           ("locality", "Locality.conj_element"): ("conj_element", True)}

# pipelines the child times as "harness.<pipeline>" spans
PIPELINES = ["locality-check", "signalizer-quotient", "orbit-universal",
             "fusion-classify", "sharpness", "lie-verify"]


def _pipeline_stem(pipeline: str) -> str:
    return pipeline.replace("-", "_")


def metric_units() -> Dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = [
        "permgroups.load_s", "permgroups.tables_calls", "permgroups.lattice_s",
        "permgroups.self_s",
        "locality.build_s", "locality.check_s", "locality.states",
        "locality.s_word_calls", "locality.conj_element_calls",
        "locality.conj_element_distinct", "locality.opprime_s",
        "locality.self_s",
        "fusion.of_group_s", "fusion.of_locality_s", "fusion.saturation_s",
        "fusion.classify_s", "fusion.maps", "fusion.self_s",
        "signalizer.check_s", "signalizer.quotient_s", "signalizer.self_s",
        "transporter.build_s", "transporter.kmax_calls",
        "transporter.kmax_distinct", "transporter.kmax_s",
        "transporter.pullback_calls", "transporter.pullback_s",
        "transporter.boxtimes_s", "transporter.self_s",
        "cohomology.fp_calls", "cohomology.fp_s", "cohomology.diff_bytes_max",
        "cohomology.maps_s", "cohomology.self_s",
        "catlimits.higher_limits_calls", "catlimits.higher_limits_s",
        "catlimits.stable_s", "catlimits.self_s",
        "linalg.rank_calls", "linalg.rank_s", "linalg.rank_nnz",
        "linalg.rank_cells_max", "linalg.echelon_s", "linalg.self_s",
        "rootdata.signs_s", "rootdata.weyl_s", "rootdata.chevrels_s",
        "rootdata.self_s",
    ]
    names += [f"harness.{_pipeline_stem(p)}_s" for p in PIPELINES]
    names += ["harness.unattributed_s", "trace.spans", "trace.overhead_s"]
    return {n: "s" if n.endswith("_s") else "bytes" if n.endswith("bytes_max")
            else "count" for n in names}


def _resolve(module, dotted: str):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.maxima: Dict[str, int] = defaultdict(int)
        self._distinct: Dict[str, set] = defaultdict(set)
        self._alive: Dict[int, object] = {}  # keeps ids in distinct keys valid
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording ------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def distinct(self, stem: str, owner, *key) -> None:
        self._alive[id(owner)] = owner
        self._distinct[stem].add((id(owner),) + key)

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in SPANS and every method in COUNTED."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "locus" or name.startswith("locus.")]
        for layer, stems in SPANS.items():
            module = importlib.import_module(f"locus.{layer}")
            for stem, targets in stems.items():
                for dotted in targets:
                    owner, attr = _resolve(module, dotted)
                    original = owner.__dict__[attr]
                    wrapper = self._timed(f"{layer}.{stem}", original,
                                          _HOOKS.get(f"{layer}.{dotted}"))
                    self._rebind(modules, owner, attr, original, wrapper)
        for (layer, dotted), (stem, distinct) in COUNTED.items():
            module = importlib.import_module(f"locus.{layer}")
            owner, attr = _resolve(module, dotted)
            original = owner.__dict__[attr]
            self._rebind(modules, owner, attr, original,
                         self._counted(f"{layer}.{stem}", original, distinct))

    def _rebind(self, modules, owner, attr, original, wrapper) -> None:
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # a module-level function: rebind it in every module that holds it
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _timed(self, name: str, fn: Callable, hook: Optional["_Hook"]):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args = hook.before(tracer, args)
            tracer.counts[name] += 1
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None:
                hook.after(tracer, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable, distinct: bool):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            if distinct:
                tracer.distinct(name, *args)
            return fn(*args)

        return wrapper

    # -- summarising ----------------------------------------------------

    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer totals of this pass; ``trace.overhead_s`` is the caller's."""
        total: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        child_s = [0.0] * len(self.spans)
        for i in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, _ = self.spans[i]
            duration = end - start
            self_s[name.split(".")[0]] += duration - child_s[i]
            if parent >= 0:
                child_s[parent] += duration
            # inclusive time counts only the outermost span of a name
            if not self._has_ancestor(i, name):
                total[name] += duration
        c, d = self.counts, self._distinct
        out = {
            "permgroups.load_s": total["permgroups.load"],
            "permgroups.tables_calls": c["permgroups.tables"],
            "permgroups.lattice_s": total["permgroups.lattice"],
            "locality.build_s": total["locality.build"],
            "locality.check_s": total["locality.check"],
            "locality.states": c["locality.states"],
            "locality.s_word_calls": c["locality.s_word"],
            "locality.conj_element_calls": c["locality.conj_element"],
            "locality.conj_element_distinct": len(d["locality.conj_element"]),
            "locality.opprime_s": total["locality.opprime"],
            "fusion.of_group_s": total["fusion.of_group"],
            "fusion.of_locality_s": total["fusion.of_locality"],
            "fusion.saturation_s": total["fusion.saturation"],
            "fusion.classify_s": total["fusion.classify"],
            "fusion.maps": c["fusion.maps"],
            "signalizer.check_s": total["signalizer.check"],
            "signalizer.quotient_s": total["signalizer.quotient"],
            "transporter.build_s": total["transporter.build"],
            "transporter.kmax_calls": c["transporter.kmax"],
            "transporter.kmax_distinct": len(d["transporter.kmax"]),
            "transporter.kmax_s": total["transporter.kmax"],
            "transporter.pullback_calls": c["transporter.pullback"],
            "transporter.pullback_s": total["transporter.pullback"],
            "transporter.boxtimes_s": total["transporter.boxtimes"],
            "cohomology.fp_calls": c["cohomology.fp"],
            "cohomology.fp_s": total["cohomology.fp"],
            "cohomology.diff_bytes_max": self.maxima["cohomology.diff_bytes"],
            "cohomology.maps_s": total["cohomology.maps"],
            "catlimits.higher_limits_calls": c["catlimits.higher_limits"],
            "catlimits.higher_limits_s": total["catlimits.higher_limits"],
            "catlimits.stable_s": total["catlimits.stable"],
            "linalg.rank_calls": c["linalg.rank"],
            "linalg.rank_s": total["linalg.rank"],
            "linalg.rank_nnz": c["linalg.rank_nnz"],
            "linalg.rank_cells_max": self.maxima["linalg.rank_cells"],
            "linalg.echelon_s": total["linalg.echelon"],
            "rootdata.signs_s": total["rootdata.signs"],
            "rootdata.weyl_s": total["rootdata.weyl"],
            "rootdata.chevrels_s": total["rootdata.chevrels"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        for p in PIPELINES:
            out[f"harness.{_pipeline_stem(p)}_s"] = total[f"harness.{p}"]
        out["harness.unattributed_s"] = wall_s - sum(self_s[l] for l in LAYERS)
        out["trace.spans"] = len(self.spans)
        return out

    def _has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


# -- result and argument hooks ---------------------------------------------

class _Hook:
    def before(self, tracer: Tracer, args: tuple) -> tuple:
        return args

    def after(self, tracer: Tracer, args: tuple, result) -> None:
        pass


class _States(_Hook):
    """Sum the state-graph sizes a checker reports in CheckReport.stats."""

    def after(self, tracer, args, result):
        tracer.counts["locality.states"] += sum(
            v for k, v in result.stats.items()
            if k.startswith(("states_len", "L2_states_len")))


class _Maps(_Hook):
    def after(self, tracer, args, result):
        tracer.counts["fusion.maps"] += sum(len(v) for v in result.maps_from.values())


class _Kmax(_Hook):
    def before(self, tracer, args):
        T, P, Q = args[:3]
        tracer.distinct("transporter.kmax", T, frozenset(P), frozenset(Q))
        return args


class _Bar(_Hook):
    """Largest bar differential d_n: C^n -> C^{n+1}, as int64 bytes."""

    def after(self, tracer, args, result):
        H = args[0]
        largest = max(H.dim_cochain(n + 1) * H.dim_cochain(n) * 8
                      for n in range(H.jmax + 1))
        tracer.maxima["cohomology.diff_bytes"] = max(
            tracer.maxima["cohomology.diff_bytes"], largest)


class _Rank(_Hook):
    """nnz and dense cell count from the arguments of rank_sparse_modp."""

    def before(self, tracer, args):
        nrows, ncols, entries, *rest = args
        entries = list(entries)
        tracer.counts["linalg.rank_nnz"] += len(entries)
        tracer.maxima["linalg.rank_cells"] = max(
            tracer.maxima["linalg.rank_cells"], nrows * ncols)
        return (nrows, ncols, entries, *rest)


_HOOKS = {
    "locality.check_partial_group": _States(),
    "locality.check_locality_axioms": _States(),
    "fusion.fusion_of_group": _Maps(),
    "fusion.fusion_of_locality": _Maps(),
    "transporter.kmax": _Kmax(),
    "cohomology.FpCohomology.__init__": _Bar(),
    "linalg.rank_sparse_modp": _Rank(),
}
