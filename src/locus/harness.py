"""Pipelines, machine-readable reports, and the acceptance runner.

Reports are canonical JSON (sorted keys, fixed separators) so that runs are
byte-comparable; wall-clock timings are collected next to the report and
printed, never serialized into the canonical bytes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from . import permgroups as pg
from .catlimits import (
    atomic_comparison,
    lambda_dims,
    restrict_to_centrics_comparison,
    sharpness_pipeline,
    transporter_orbit_cat,
)
from .cohomology import (
    BudgetError,
    CohomologyFamily,
    budget_mb,
    FpCohomology,
    mackey_square,
    restriction_map,
    transfer_map,
)
from .fusion import (
    classify_subgroups,
    classify_subgroups_core_only,
    fusion_of_group,
    fusion_of_locality,
    fusion_systems_equal,
    is_characteristic_p_type,
    is_saturated,
)
from .locality import (
    Locality,
    LocalityError,
    build_locality,
    check_locality_axioms,
    check_partial_group,
    delta_all_nontrivial,
    delta_min_order,
    o_pprime_locality,
    quotient_locality,
)
from .rootdata import (
    BETAS,
    SIMPLE,
    SignTable,
    Torus,
    all_roots,
    beta_basis_check,
    extended_weyl_report,
    lattice_index_of_beta_coroots,
    pairing,
    verify_chevrels,
)
from .signalizer import (
    check_element_signalizer,
    default_theta,
    theta_hat_quotient,
    theta_on_objects,
)
from .transporter import (
    boxtimes,
    components_match,
    double_coset_components,
    mor_counts_mod_p,
    orbit_category,
    pullback,
    pullbacks,
    restriction_fixed_points,
    transporter_of_locality,
)

DATA_DIR = Path(__file__).resolve().parent / "data"

PIPELINES = [
    "group-inspect", "locality-check", "fusion-classify",
    "signalizer-quotient", "orbit-universal", "sharpness", "lie-verify",
    "full-acceptance",
]


@dataclass
class RunConfig:
    pipeline: str
    group: Optional[str] = None
    prime: int = 2
    objects: str = "all-nontrivial"
    jmax: int = 2
    seed: int = 2024
    samples: int = 100000
    q: Optional[int] = None
    report_path: Optional[str] = None


class Report:
    """Canonical, diff-friendly run record."""

    def __init__(self, pipeline: str, inputs: Dict[str, object]):
        self.data: Dict[str, object] = {
            "pipeline": pipeline,
            "inputs": dict(sorted(inputs.items())),
            "results": {},
        }
        self.timings: Dict[str, float] = {}
        self._start = time.perf_counter()

    def put(self, key: str, value) -> None:
        self.data["results"][key] = _jsonable(value)

    def time(self, key: str) -> None:
        self.timings[key] = round(time.perf_counter() - self._start, 3)
        self._start = time.perf_counter()

    @property
    def passed(self) -> bool:
        return _all_passed(self.data["results"])

    def skipped(self) -> Dict[str, str]:
        """The results a budget guard skipped, each with its reason."""
        return {key: node["skipped"] for key, node in self.data["results"].items()
                if isinstance(node, dict) and node.get("skipped")}

    def canonical_bytes(self) -> bytes:
        payload = dict(self.data)
        payload["passed"] = self.passed
        return json.dumps(payload, sort_keys=True, indent=1).encode()

    def write(self, path) -> None:
        Path(path).write_bytes(self.canonical_bytes())


def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    return str(value)


def _all_passed(node) -> bool:
    if isinstance(node, dict):
        if node.get("skipped"):
            return True  # skipped items are marked, not failed
        ok = True
        for k, v in node.items():
            if k in ("passed", "ok", "seconds_ok", "runtime_ok") and v is False:
                ok = False
            elif isinstance(v, (dict, list)):
                ok = ok and _all_passed(v)
        return ok
    if isinstance(node, list):
        return all(_all_passed(v) for v in node)
    return True


def _budget_guarded(fn: Callable[[], Dict]) -> Dict:
    """Run a criterion; a busted memory budget marks it SKIPPED, not failed."""
    try:
        return fn()
    except BudgetError as exc:
        return {"skipped": f"SKIPPED: {exc}"}


# -- shared setup -------------------------------------------------------------

def load_bundled(name_or_path: Optional[str]) -> pg.Group:
    """A bundled group by name, or a ``.grp`` file by path, with its tables.

    A path to an existing file wins over a bundled name.
    """
    if name_or_path is None:
        raise pg.GroupError("no group given: pass a bundled name or a .grp path "
                            "(--group)")
    path = Path(name_or_path)
    if not path.is_file():
        path = DATA_DIR / f"{name_or_path}.grp"
        if not path.is_file():
            names = ", ".join(sorted(f.stem for f in DATA_DIR.glob("*.grp")))
            raise pg.GroupError(f"unknown group {name_or_path!r}: not a file and "
                                f"not a bundled name ({names})")
    G = pg.load_group_file(path)
    G.build_tables()  # no-op above TABLE_ORDER_CAP
    return G


def resolve_objects(G: pg.Group, S: pg.Subgroup, prime: int, selector: str):
    if selector == "all-nontrivial":
        return delta_all_nontrivial(S)
    if selector.startswith("min-order:"):
        bound = selector.split(":", 1)[1]
        if not bound.isdecimal():
            raise LocalityError(f"object selector {selector!r}: min-order needs "
                                f"a non-negative integer, got {bound!r}")
        return delta_min_order(S, int(bound))
    if selector == "centric":
        F = fusion_of_group(G, S, prime)
        cls = classify_subgroups_core_only(F)
        return cls.all_with("centric")
    if selector == "subcentric":
        F = fusion_of_group(G, S, prime)
        cls = classify_subgroups(F)
        return cls.all_with("subcentric")
    raise LocalityError(f"unknown object selector {selector!r}; choose from "
                        f"all-nontrivial, centric, subcentric, min-order:N")


def locality_from_config(config: RunConfig) -> Locality:
    G = load_bundled(config.group)
    S = pg.sylow(G, config.prime)
    objs = resolve_objects(G, S, config.prime, config.objects)
    return build_locality(G, S, objs, config.prime)


# -- pipelines ----------------------------------------------------------------

def run(config: RunConfig) -> Report:
    handler = {
        "group-inspect": _run_group_inspect,
        "locality-check": _run_locality_check,
        "fusion-classify": _run_fusion_classify,
        "signalizer-quotient": _run_signalizer_quotient,
        "orbit-universal": _run_orbit_universal,
        "sharpness": _run_sharpness,
        "lie-verify": _run_lie_verify,
        "full-acceptance": full_acceptance,
    }.get(config.pipeline)
    if handler is None:
        raise ValueError(f"unknown pipeline {config.pipeline!r}; "
                         f"choose from {PIPELINES}")
    budget_mb()  # a malformed budget is rejected here, not SKIPPED per criterion
    report = handler(config)
    if config.report_path:
        report.write(config.report_path)
    return report


def _inputs(config: RunConfig) -> Dict[str, object]:
    return {
        "group": config.group, "prime": config.prime,
        "objects": config.objects, "jmax": config.jmax,
        "seed": config.seed, "q": config.q,
    }


def _run_group_inspect(config: RunConfig) -> Report:
    report = Report("group-inspect", _inputs(config))
    G = load_bundled(config.group)
    rec = pg.char_p_tests(G, config.prime)
    S = pg.sylow(G, config.prime)
    report.put("order", G.order)
    report.put("degree", G.degree)
    report.put("sylow_order", S.order)
    report.put("O_p_order", rec["O_p"].order)
    report.put("O_pprime_order", rec["O_pprime"].order)
    report.put("center_order", rec["center"].order)
    report.put("is_characteristic_p", rec["is_characteristic_p"])
    report.put("is_p_constrained", rec["is_p_constrained"])
    if S.order <= 512:
        classes = pg.subgroups_up_to_conjugacy(S)
        report.put("sylow_subgroup_classes", len(classes))
    report.time("total")
    return report


def _run_locality_check(config: RunConfig) -> Report:
    report = Report("locality-check", _inputs(config))
    L = locality_from_config(config)
    report.put("carrier_size", len(L.carrier))
    report.put("object_count", len(L.objects))
    by_class = {}
    for cls in pg.subgroups_up_to_conjugacy(L.sylow):
        members = [H for H in cls if H.members in L.objects]
        if members:
            key = f"order{members[0].order}"
            by_class[key] = by_class.get(key, 0) + len(members)
    report.put("objects_by_s_class", by_class)
    r1 = check_partial_group(L, samples=config.samples, seed=config.seed)
    report.put("partial_group", r1.as_dict())
    report.time("partial_group")
    r2 = check_locality_axioms(L, samples=min(config.samples, 20000),
                               seed=config.seed)
    report.put("locality_axioms", r2.as_dict())
    report.time("locality_axioms")
    N, route = o_pprime_locality(L)
    report.put("o_pprime_order", N.order)
    report.put("o_pprime_route", route)
    report.time("o_pprime")
    return report


def _run_fusion_classify(config: RunConfig) -> Report:
    report = Report("fusion-classify", _inputs(config))
    L = locality_from_config(config)
    F = fusion_of_locality(L)
    sat, wit = is_saturated(F)
    report.put("saturated", sat)
    if sat:
        cls = classify_subgroups(F)
        table = []
        for rep, rec in sorted(cls.flags.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))):
            table.append({k: rec[k] for k in
                          ("order", "class_size", "centric", "radical",
                           "essential", "subcentric", "aut_order", "out_order")})
        report.put("classes", table)
        report.put("O_p_of_F_order", len(cls.o_p_f))
        ok, _ = is_characteristic_p_type(F)
        report.put("characteristic_p_type", ok)
    report.time("total")
    return report


def _run_signalizer_quotient(config: RunConfig) -> Report:
    report = Report("signalizer-quotient", _inputs(config))
    L = locality_from_config(config)
    theta = default_theta(L)
    rep = check_element_signalizer(theta)
    report.put("element_signalizer", rep.as_dict())
    Theta, orep = theta_on_objects(theta)
    report.put("object_signalizer", orep.as_dict())
    N, quotient, qrep = theta_hat_quotient(Theta, element_theta=theta)
    report.put("theta_hat_order", N.order)
    report.put("quotient_carrier", len(quotient.locality.carrier))
    report.put("quotient_checks", qrep.as_dict())
    report.time("total")
    return report


def _run_orbit_universal(config: RunConfig) -> Report:
    report = Report("orbit-universal", _inputs(config))
    L = locality_from_config(config)
    T, trep = transporter_of_locality(L)
    OT, orep = orbit_category(T)
    report.put("transporter_axioms", trep.as_dict())
    report.put("orbit_category", orep.as_dict())
    matrix = {}
    for i, P in enumerate(OT.objects):
        for j, Q in enumerate(OT.objects):
            count = len(OT.mor(P, Q))
            if count:
                matrix[f"{i}->{j}"] = count
    report.put("mor_count_matrix", matrix)
    report.put("objects_by_order",
               {f"obj{i}": len(P) for i, P in enumerate(OT.objects)})
    report.put("universal", _universal_suite(OT))
    report.time("total")
    return report


def _universal_suite(OT) -> Dict[str, object]:
    G = OT.group
    T = OT.T
    out: Dict[str, object] = {}

    pairs = [(P, Q) for P in OT.objects for Q in OT.objects]
    out["boxtimes_pairs"] = len(pairs)
    out["boxtimes_ok"] = all([boxtimes(OT, P, Q)[1].passed for P, Q in pairs])

    # every cospan f: P -> R <- Q: g, one block per (P, Q)
    cospans = 0
    pullbacks_ok = True
    for P, Q in pairs:
        fs, gs = OT.cospans(P, Q)
        cospans += len(fs)
        pullbacks_ok = pullbacks_ok and not pullbacks(OT, P, Q, fs, gs)[1].any()
    out["cospans"] = cospans
    out["pullbacks_ok"] = pullbacks_ok

    # the pullbacks of inclusions P -> R <- Q, verified above, against the
    # double cosets
    dc_ok = True
    for R in OT.objects:
        subs = [P for P in OT.objects if P <= R]
        for P in subs:
            for Q in subs:
                obj, _ = pullback(OT, OT.morphism(G.identity, P, R), P,
                                  OT.morphism(G.identity, Q, R), Q, R, verify=False)
                oracle = double_coset_components(T, P, Q, R)
                if not components_match(T, P, obj.components, oracle):
                    dc_ok = False
    out["double_coset_match"] = dc_ok

    counts = mor_counts_mod_p(OT)
    p = T.locality.prime
    out["mor_counts_to_S"] = counts
    out["mor_counts_nonzero_mod_p"] = all(c % p for c in counts.values())

    res_ok = True
    for P in OT.objects:
        for Q in OT.objects:
            if P <= Q and G.subgroup(P).is_normal_in(G.subgroup(Q)):
                if not restriction_fixed_points(OT, P, Q).passed:
                    res_ok = False
    out["restriction_bijections"] = res_ok
    return out


def _run_sharpness(config: RunConfig) -> Report:
    report = Report("sharpness", _inputs(config))
    L = locality_from_config(config)
    result = sharpness_pipeline(L, jmax=config.jmax)
    report.put("objects", result["objects"])
    report.put("higher_vanish", result["higher_vanish"])
    report.put("lim0_matches_stable", result["lim0_matches_stable"])
    report.put("table", {f"i{i}_j{j}": d for (i, j), d in result["table"].items()})
    report.time("total")
    return report


def _run_lie_verify(config: RunConfig) -> Report:
    from .rootdata import pairing_table

    report = Report("lie-verify", _inputs(config))
    q = 7 if config.q is None else config.q
    report.put("pairing_table", pairing_table(all_roots()))
    report.put("pairing_beta1_alpha23", pairing(BETAS[0], (0, 1, 0)))
    report.put("pairing_alpha3_even",
               all(pairing(a, SIMPLE[2]) % 2 == 0 for a in all_roots()))
    st = SignTable()
    report.put("sign_identities", st.verify_identities())
    report.put("beta_basis", beta_basis_check())
    report.put("lattice_index", lattice_index_of_beta_coroots())
    st_table = {f"{a}|{b}": c for (a, b), c in sorted(st.table.items())}
    report.put("sign_table", st_table)
    T = Torus(q * q, -1 if q % 4 == 3 else 1, q)
    report.put("extended_weyl", extended_weyl_report(T))
    report.put("chevrels", verify_chevrels(q))
    report.time("total")
    return report


# -- acceptance ---------------------------------------------------------------

def full_acceptance(config: RunConfig) -> Report:
    """All twelve criteria; each entry carries its own pass flag."""
    report = Report("full-acceptance", _inputs(config))
    samples = config.samples
    seed = config.seed

    loc_cache: Dict[Tuple[str, int, str], Locality] = {}

    def locality(name: str, p: int, selector: str) -> Locality:
        key = (name, p, selector)
        if key not in loc_cache:
            G = load_bundled(name)
            S = pg.sylow(G, p)
            objs = resolve_objects(G, S, p, selector)
            loc_cache[key] = build_locality(G, S, objs, p)
        return loc_cache[key]

    # 1. locality axioms
    c1 = {}
    for name, p, selector in [
        ("s4", 2, "all-nontrivial"), ("a6", 2, "all-nontrivial"),
        ("a6", 2, "centric"), ("a6xc3", 2, "all-nontrivial"),
        ("ext27_sd16", 3, "all-nontrivial"),
    ]:
        L = locality(name, p, selector)
        t0 = time.perf_counter()
        pg_rep = check_partial_group(L, samples=samples, seed=seed)
        ax_rep = check_locality_axioms(L, samples=min(samples, 20000), seed=seed)
        c1[f"{name}/{selector}"] = {
            "passed": pg_rep.passed and ax_rep.passed,
            "seconds_ok": (time.perf_counter() - t0) <= 60.0,
            "carrier": len(L.carrier),
        }
    report.put("criterion_01_locality_axioms", c1)
    report.time("criterion_01")

    # 2. fusion equality
    La6 = locality("a6", 2, "all-nontrivial")
    FL = fusion_of_locality(La6)
    G6 = La6.ambient
    FG = fusion_of_group(G6, La6.sylow, 2)
    pairwise = all(FL.hom(P, Q) == FG.hom(P, Q)
                   for P in FG.subgroups for Q in FG.subgroups)
    report.put("criterion_02_fusion_equality",
               {"passed": fusion_systems_equal(FL, FG) and pairwise})
    report.time("criterion_02")

    # 3. classification
    cls6 = classify_subgroups(FG)
    essentials = [rep for rep, rec in cls6.flags.items() if rec["essential"]]
    klein = all(len(rep) == 4 and G6.subgroup(rep).is_elementary_abelian(2)
                for rep in essentials)
    centrics = cls6.all_with("centric")
    subcent = cls6.all_with("subcentric")
    char2, _ = is_characteristic_p_type(FG)
    Gs4 = load_bundled("s4")
    Fs4 = fusion_of_group(Gs4, pg.sylow(Gs4, 2), 2)
    cls4 = classify_subgroups_core_only(Fs4)
    o2_is_v4 = (len(cls4.o_p_f) == 4
                and Gs4.subgroup(cls4.o_p_f).is_elementary_abelian(2))
    report.put("criterion_03_classification", {
        "essential_count": len(essentials),
        "essentials_are_klein_fours": klein,
        "centrics_are_order_ge_4": centrics == [P for P in FG.subgroups if len(P) >= 4],
        "subcentrics_all_nontrivial": subcent == [P for P in FG.subgroups if len(P) > 1],
        "characteristic_2_type": char2,
        "O2_of_S4_fusion_is_V4": o2_is_v4,
        "passed": (len(essentials) == 2 and klein and char2 and o2_is_v4
                   and centrics == [P for P in FG.subgroups if len(P) >= 4]
                   and subcent == [P for P in FG.subgroups if len(P) > 1]),
    })
    report.time("criterion_03")

    # 4. signalizer functor quotient conclusions
    Lac = locality("a6xc3", 2, "all-nontrivial")
    theta = default_theta(Lac)
    erep = check_element_signalizer(theta)
    Theta, orep = theta_on_objects(theta)
    N, quotient, qrep = theta_hat_quotient(Theta, element_theta=theta)
    report.put("criterion_04_signalizer", {
        "conjugacy_balance": erep.passed and orep.passed,
        "theta_hat_order": N.order,
        "theta_hat_meets_S_trivially":
            N.members & Lac.sylow.members == {Lac.ambient.identity},
        "quotient_carrier_ratio": len(Lac.carrier) // len(quotient.locality.carrier),
        "quotient_checks": qrep.passed,
        "passed": (erep.passed and orep.passed and N.order == 3
                   and len(Lac.carrier) == 3 * len(quotient.locality.carrier)
                   and qrep.passed),
    })
    report.time("criterion_04")

    # 5. O_p' facts
    Lcentric = locality("a6", 2, "centric")
    n_centric, _ = o_pprime_locality(Lcentric)
    Nac, _ = o_pprime_locality(Lac)
    q_ac = quotient_locality(Lac, Nac)
    n_quot, _ = o_pprime_locality(q_ac.locality)
    M432 = load_bundled("ext27_sd16")
    S432 = pg.sylow(M432, 3)
    cm_ok = True
    for V in pg.all_subgroups(S432):
        if len(V) >= 9:
            C = pg.centralizer_set(M432, M432.subgroup(V).gens())
            if not set(C) <= set(V):
                cm_ok = False
    o3_432 = pg.o_pprime(M432, 3)
    report.put("criterion_05_opprime", {
        "centric_a6_trivial": n_centric.order == 1,
        "quotient_reduced": n_quot.order == 1,
        "M432_centralizers_inside": cm_ok,
        "M432_O3prime_trivial": o3_432.order == 1,
        "passed": (n_centric.order == 1 and n_quot.order == 1
                   and cm_ok and o3_432.order == 1),
    })
    report.time("criterion_05")

    # 6. orbit-category universal properties
    c6 = {}
    t0 = time.perf_counter()
    for name in ("s4", "a6"):
        L = locality(name, 2, "all-nontrivial")
        T, trep = transporter_of_locality(L)
        OT, orep2 = orbit_category(T)
        suite = _universal_suite(OT)
        c6[name] = {
            "axioms": trep.passed and orep2.passed,
            "boxtimes_ok": suite["boxtimes_ok"],
            "pullbacks_ok": suite["pullbacks_ok"],
            "double_coset_match": suite["double_coset_match"],
            "passed": (trep.passed and orep2.passed and suite["boxtimes_ok"]
                       and suite["pullbacks_ok"] and suite["double_coset_match"]),
        }
        c6[f"{name}_mor_counts_odd"] = suite["mor_counts_nonzero_mod_p"]
        c6[f"{name}_restriction_bijections"] = suite["restriction_bijections"]
    c6["runtime_ok"] = (time.perf_counter() - t0) <= 300.0
    report.put("criterion_06_orbit_universal", c6)

    # 7. morphism counts (folded into the suites above)
    report.put("criterion_07_mor_counts", {
        "passed": all(c6[f"{n}_mor_counts_odd"] and c6[f"{n}_restriction_bijections"]
                      for n in ("s4", "a6")),
    })
    report.time("criteria_06_07")

    # 8. cohomology core
    def _c8():
        c8 = {}
        Gc2 = pg.load_group("degree 2\n(1 2)", name="C2")
        Hc2 = FpCohomology(Gc2, Gc2.full_subgroup(), 2, 4)
        c8["C2_dims"] = Hc2.dims()
        Gv4 = pg.load_group("degree 4\n(1 2)\n(3 4)", name="V4")
        Hv4 = FpCohomology(Gv4, Gv4.full_subgroup(), 2, 2)
        c8["V4_dims"] = Hv4.dims()
        Gd8 = load_bundled("d8")
        Hd8 = FpCohomology(Gd8, Gd8.full_subgroup(), 2, 3)
        c8["D8_dims"] = Hd8.dims()
        fam = CohomologyFamily(Gd8, 2, 2)
        subs = pg.all_subgroups(Gd8.full_subgroup())
        trres_ok = True
        for Q in subs:
            HQ = fam.of(Q)
            for P in subs:
                if P < Q:
                    HP = fam.of(P)
                    index = len(Q) // len(P)
                    for j in range(3):
                        tr = transfer_map(HQ, HP, j)
                        res = restriction_map(HQ, HP, {x: x for x in P}, j)
                        want = (index % 2) * np.eye(HQ.dim(j), dtype=np.int64)
                        if not np.array_equal((tr @ res) % 2, want % 2):
                            trres_ok = False
        mackey_ok = True
        for Q in subs:
            inner = [m for m in subs if m <= Q]
            for P in inner:
                for K in inner:
                    for j in range(3):
                        if not mackey_square(fam, P, K, Q, j):
                            mackey_ok = False
        c8["transfer_restriction_index"] = trres_ok
        c8["mackey_squares"] = mackey_ok
        c8["passed"] = (Hc2.dims() == [1] * 5 and Hv4.dims() == [1, 2, 3]
                        and Hd8.dims() == [1, 2, 3, 4] and trres_ok and mackey_ok)
        return c8

    report.put("criterion_08_cohomology", _budget_guarded(_c8))
    report.time("criterion_08")

    # 9. sharpness
    def _c9():
        c9 = {}
        t0 = time.perf_counter()
        for name in ("a6", "s4"):
            L = locality(name, 2, "all-nontrivial")
            result = sharpness_pipeline(L, jmax=2, max_degree=4)
            c9[name] = {
                "higher_vanish": result["higher_vanish"],
                "lim0_matches_stable": result["lim0_matches_stable"],
                "table": {f"i{i}_j{j}": d for (i, j), d in result["table"].items()},
                "passed": result["higher_vanish"] and result["lim0_matches_stable"],
            }
        c9["runtime_ok"] = (time.perf_counter() - t0) <= 600.0
        return c9

    report.put("criterion_09_sharpness", _budget_guarded(_c9))
    report.time("criterion_09")

    # 10. Lambda functors and comparisons
    def _c10():
        c10 = {}
        G1 = pg.load_group("degree 1\n()", name="1")
        c10["lambda_trivial"] = lambda_dims(G1, 2, 1, 4) == [1, 0, 0, 0, 0]
        C2g = pg.load_group("degree 2\n(1 2)", name="C2")
        c10["lambda_C2_zero"] = lambda_dims(C2g, 2, 1, 4) == [0] * 5
        S3g = pg.load_group("degree 3\n(1 2)\n(1 2 3)", name="S3")
        lam_s3 = lambda_dims(S3g, 2, 1, 4)
        c10["lambda_S3_higher_zero"] = lam_s3[1:] == [0, 0, 0, 0]
        c10["lambda_S3_dims"] = lam_s3
        La6p = locality("a6", 2, "all-nontrivial")
        T6, _ = transporter_of_locality(La6p)
        OT6, _ = orbit_category(T6)
        cat6 = transporter_orbit_cat(OT6)
        atomic_ok = True
        for cls_ in cat6.iso_classes():
            rep = cat6.objects[cls_[0]]
            ot_side, lam_side = atomic_comparison(OT6, rep, 1, 2, 4)
            if ot_side != lam_side:
                atomic_ok = False
        c10["atomic_comparisons"] = atomic_ok
        F6 = fusion_of_locality(La6p)
        fam6 = CohomologyFamily(La6p.ambient, 2, 2)
        full_dims, centric_dims = restrict_to_centrics_comparison(
            OT6, F6, fam6, 1, 4)
        c10["restrict_to_centrics_h1"] = full_dims == centric_dims
        c10["passed"] = (c10["lambda_trivial"] and c10["lambda_C2_zero"]
                         and c10["lambda_S3_higher_zero"] and atomic_ok
                         and c10["restrict_to_centrics_h1"])
        return c10

    report.put("criterion_10_lambda", _budget_guarded(_c10))
    report.time("criterion_10")

    # 11. Lie / appendix
    c11 = {}
    t0 = time.perf_counter()
    c11["pairing_beta1_alpha23_is_minus2"] = pairing(BETAS[0], (0, 1, 0)) == -2
    c11["pairing_alpha3_even"] = all(
        pairing(a, SIMPLE[2]) % 2 == 0 for a in all_roots())
    st = SignTable()
    ids = st.verify_identities()
    c11["sign_identities"] = ids
    prod_ok = True
    for q in (3, 5, 7, 9):
        Tq = Torus(q * q, -1 if q % 4 == 3 else 1, q)
        total = Tq.mult(Tq.h(BETAS[0], Tq.half), Tq.h(BETAS[1], Tq.half),
                        Tq.h(BETAS[2], Tq.half))
        if total != (0, 0, 0):
            prod_ok = False
        if Tq.fixed_count(Tq.eps * q) != (q - Tq.eps) ** 3:
            prod_ok = False
        if Tq.fixed_count(-Tq.eps * q) != (q + Tq.eps) ** 3:
            prod_ok = False
    c11["proddistinctinvs_and_fixed_counts"] = prod_ok
    T7 = Torus(49, -1, 7)
    trivial_z = len(T7.roots_trivial_on([T7.z()])) == 18
    expected = {b for b in BETAS} | {tuple(-x for x in b) for b in BETAS}
    trivial_z1 = set(T7.roots_trivial_on([T7.z1()])) == expected
    c11["roots_trivial_on"] = trivial_z and trivial_z1
    ew = extended_weyl_report(T7)
    c11["extended_weyl"] = ew["passed"]
    ch3 = verify_chevrels(3)
    ch7 = verify_chevrels(7)
    c11["chevrels_q3"] = ch3["passed"]
    c11["chevrels_q7"] = ch7["passed"]
    c11["chevrels_q7_power_clause"] = ch7["c_power_clause"] is True
    c11["runtime_ok"] = (time.perf_counter() - t0) <= 30.0
    c11["passed"] = all([
        c11["pairing_beta1_alpha23_is_minus2"], c11["pairing_alpha3_even"],
        all(ids.values()), prod_ok, trivial_z, trivial_z1, ew["passed"],
        ch3["passed"], ch7["passed"], c11["chevrels_q7_power_clause"],
    ])
    report.put("criterion_11_lie", c11)
    report.time("criterion_11")

    # 12. determinism: the caller compares these bytes with those of a fresh
    # process run under another PYTHONHASHSEED.
    # Kept verbatim: the digest 2efb4a79...06fd1 in CHANGES.md and perfbench/pending.json covers it.
    report.put("criterion_12_determinism", {"workers": "compared-by-caller"})
    return report