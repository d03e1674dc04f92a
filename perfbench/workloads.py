"""The benchmark's workloads: what a pass runs and what its set-up loads.

A workload is a list of items.  Each item makes one ``harness.Report``
whose canonical bytes are the verdict the benchmark checks.  Every item
runs in the child process of one pass; nothing is shared across passes.

- ``acceptance``: the CLI pipelines behind the acceptance criteria, on the
  acceptance groups, with the workload seed passed as ``seed``.  Every
  layer does work, including ``signalizer`` and ``rootdata``.
- ``limits``: the ``sharpness`` pipeline on a6, s4 (jmax 3) and a6xc3
  (jmax 2).  No checker builds a state graph and ``kmax`` is never called.
- ``bigcover``: PSL(3,4) (order 20160) and PSL(3,3) (order 5616) at p = 3,
  through public calls only.  Both are above the 1500 table cap, so this is
  the only workload on the untabled ``Group.conj`` path.

``limits`` and ``bigcover`` have no random input and ignore the seed.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Tuple

from locus import fusion, harness, locality
from locus import permgroups as pg

DEFAULT_SEED = 2024


class Item:
    def __init__(self, name: str, pipeline: str, make: Callable[[int], harness.Report]):
        self.name = name
        self.pipeline = pipeline  # harness pipeline it runs, or "" for direct calls
        self.make = make


def _pipeline(pipeline: str, group=None, prime: int = 2, **kwargs) -> Item:
    label = "/".join(str(x) for x in (pipeline, group, prime, *kwargs.values())
                     if x is not None)

    def make(seed: int) -> harness.Report:
        return harness.run(harness.RunConfig(pipeline, group=group, prime=prime,
                                             seed=seed, **kwargs))

    return Item(label, pipeline, make)


# -- PSL(3, q) on the points of the projective plane --------------------------

def _field(q: int):
    """Addition and multiplication tables of GF(q), q prime or 4."""
    if q == 4:  # GF(2)[a]/(a^2 + a + 1): 0, 1, a, a + 1 as 0..3
        add = [[x ^ y for y in range(4)] for x in range(4)]
        exp = [1, 2, 3]
        log = {1: 0, 2: 1, 3: 2}
        mul = [[0 if not x or not y else exp[(log[x] + log[y]) % 3]
                for y in range(4)] for x in range(4)]
        return add, mul
    return ([[(x + y) % q for y in range(q)] for x in range(q)],
            [[(x * y) % q for y in range(q)] for x in range(q)])


def psl3_text(q: int) -> str:
    """PSL(3, q) as permutations of the q^2 + q + 1 projective points.

    Generated by the transvections I + t E_ij with t in {1, a} (a the
    generator of GF(4) when q = 4) for (i, j) in (0,1), (1,2), (2,0).
    """
    add, mul = _field(q)
    inv = {x: next(y for y in range(1, q) if mul[x][y] == 1) for x in range(1, q)}

    def normal(v):
        lead = inv[next(x for x in v if x)]
        return tuple(mul[lead][x] for x in v)

    points = sorted({normal(v) for v in itertools.product(range(q), repeat=3) if any(v)})
    index = {v: i for i, v in enumerate(points)}
    lines = [f"degree {len(points)}"]
    for i, j in [(0, 1), (1, 2), (2, 0)]:
        for t in (1, 2) if q == 4 else (1,):
            image = []
            for v in points:
                w = list(v)
                w[i] = add[w[i]][mul[t][v[j]]]
                image.append(index[normal(w)])
            lines.append(_cycles(image))
    return "\n".join(lines) + "\n"


def _cycles(image: List[int]) -> str:
    seen, out = set(), []
    for start in range(len(image)):
        if start in seen or image[start] == start:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(str(x + 1))
            x = image[x]
        out.append("(" + " ".join(cycle) + ")")
    return "".join(out) or "()"


BIGCOVER_GROUPS: List[Tuple[str, int, int, int]] = [
    # name, q, prime, minimal object order
    ("psl3_4", 4, 3, 3),
    ("psl3_3", 3, 3, 9),
]


def _cover(name: str, q: int, prime: int, min_order: int) -> Item:
    """A report of public results on an untabled group, built call by call.

    Module attributes are looked up at call time so that a tracer that
    rebinds them sees these calls.
    """
    def make(seed: int) -> harness.Report:
        G = pg.load_group(psl3_text(q), name=name)
        S = pg.sylow(G, prime)
        objects = locality.delta_min_order(S, min_order)
        L = locality.build_locality(G, S, objects, prime)
        FG = fusion.fusion_of_group(G, S, prime)
        FL = fusion.fusion_of_locality(L)
        report = harness.Report("bigcover", {
            "group": name, "prime": prime, "objects": f"min-order:{min_order}"})
        report.put("order", G.order)
        report.put("sylow_order", S.order)
        report.put("object_count", len(L.objects))
        report.put("carrier_size", len(L.carrier))
        report.put("fusion_of_group_saturated", fusion.is_saturated(FG)[0])
        report.put("fusion_of_locality_saturated", fusion.is_saturated(FL)[0])
        report.put("fusion_maps", {"group": sum(len(v) for v in FG.maps_from.values()),
                                   "locality": sum(len(v) for v in FL.maps_from.values())})
        report.put("O_p_order", pg.o_p(G, prime).order)
        return report

    return Item(f"bigcover/{name}/{prime}/min-order:{min_order}", "", make)


WORKLOADS: Dict[str, List[Item]] = {
    "acceptance": [
        _pipeline("locality-check", "s4"),
        _pipeline("locality-check", "a6"),
        _pipeline("locality-check", "a6", objects="centric"),
        _pipeline("signalizer-quotient", "a6xc3"),
        _pipeline("orbit-universal", "s4"),
        _pipeline("fusion-classify", "a6"),
        _pipeline("sharpness", "s4", jmax=2),
        _pipeline("lie-verify", q=7),
    ],
    "limits": [
        _pipeline("sharpness", "a6", jmax=3),
        _pipeline("sharpness", "s4", jmax=3),
        _pipeline("sharpness", "a6xc3", jmax=2),
    ],
    "bigcover": [_cover(*spec) for spec in BIGCOVER_GROUPS],
}

# groups a pass loads, for the set-up measurement
SETUP_GROUPS = {
    "acceptance": ["s4", "a6", "a6xc3"],
    "limits": ["a6", "s4", "a6xc3"],
}


def setup(workload: str) -> list:
    """Load (and tabulate) the workload's groups the way the CLI does."""
    if workload == "bigcover":
        return [pg.load_group(psl3_text(q), name=name)
                for name, q, _, _ in BIGCOVER_GROUPS]
    return [harness.load_bundled(name) for name in SETUP_GROUPS[workload]]
