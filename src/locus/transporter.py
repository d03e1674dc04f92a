"""Transporter systems of localities, their orbit categories, and the
coproduct-level products and pullbacks.

Morphisms of T are triples (f, P, Q) with ^fP <= Q, composed right to left
(maps act on the left throughout this module, matching the convention
switch between the locality calculus and the category-level arguments).
The orbit category divides out postcomposition by the target group and
numbers its morphisms once, as one FiniteCategory; its products P boxtimes
Q and pullbacks U(f, g) live in the finite-coproduct completion and are
verified against their universal properties on that category's composition
array.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .catlimits import coset_category
from .locality import CheckReport, Locality, MemberSet
from .permgroups import Group

Mor = Tuple[int, MemberSet, MemberSet]  # (element, source, target)


class TransporterError(ValueError):
    pass


class TransporterSystem:
    """The category T_Delta(L) with epsilon and rho structure maps."""

    def __init__(self, L: Locality):
        self.locality = L
        self.group = L.ambient
        self.objects: Tuple[MemberSet, ...] = L.sorted_objects
        self._mor: Dict[Tuple[MemberSet, MemberSet], List[int]] = {
            (P, Q): [] for P in self.objects for Q in self.objects}
        for P in self.objects:
            for f in L.carrier:
                img = L.conj_set(P, self.group.inv(f))
                if img is None:
                    continue
                for Q in self.objects:
                    if img <= Q:
                        self._mor[(P, Q)].append(f)
        self._mor_sets = {k: set(v) for k, v in self._mor.items()}
        # verified K^max per (P, Q), filled by kmax
        self._kmax: Dict[Tuple[MemberSet, MemberSet], "KmaxData"] = {}

    def mor_elements(self, P: MemberSet, Q: MemberSet) -> List[int]:
        return self._mor[(frozenset(P), frozenset(Q))]

    def left_conj(self, x: int, f: int) -> Optional[int]:
        """^fx inside the partial group, None if undefined."""
        return self.locality.conj_element(x, self.group.inv(f))

    def rho(self, phi: Mor) -> Tuple[Tuple[int, int], ...]:
        """Underlying fusion morphism as a sorted map graph."""
        f, P, Q = phi
        return tuple(sorted((x, self.left_conj(x, f)) for x in P))

    def epsilon_elements(self, P: MemberSet, Q: MemberSet) -> List[int]:
        """N_S(P, Q) = {s in S : ^sP <= Q}."""
        G = self.group
        S = self.locality.sylow
        out = []
        for s in S.sorted_members:
            si = G.inv(s)
            if all(G.conj(x, si) in Q for x in P):
                out.append(s)
        return out

    def e_kernel(self, P: MemberSet) -> MemberSet:
        """E(P) = ker(rho_{P,P}), the elements of C_L(P)."""
        return self.locality.local_subgroup(P, "centralizer").members

    def iso_elements(self, P: MemberSet, Q: MemberSet) -> List[int]:
        L = self.locality
        return [f for f in self._mor[(P, Q)] if L.conj_set(P, self.group.inv(f)) == Q]


def transporter_of_locality(L: Locality) -> Tuple[TransporterSystem, CheckReport]:
    T = TransporterSystem(L)
    report = check_transporter_axioms(T)
    if not report.passed:
        raise TransporterError(f"transporter axioms failed: {report.failures[:2]}")
    return T, report


def check_transporter_axioms(T: TransporterSystem) -> CheckReport:
    """(A1), (A2), (B), (C), (I), (II), plus closure under composition."""
    report = CheckReport("transporter-axioms")
    G = T.group
    L = T.locality
    S = L.sylow

    # composition closure and identities
    for P in T.objects:
        if G.identity not in T._mor[(P, P)]:
            report.fail(f"identity missing at object of order {len(P)}")
    for P in T.objects:
        for Q in T.objects:
            for R in T.objects:
                target = T._mor_sets[(P, R)]
                for f in T._mor[(P, Q)]:
                    for g in T._mor[(Q, R)]:
                        if G.mul(g, f) not in target:
                            report.fail("composition escapes the category")
                            break
                    else:
                        continue
                    break
    report.note("objects", len(T.objects))

    # (A2): E(P) acts freely on Mor(P,Q) on the right with orbit map rho;
    # E(Q) acts freely on the left
    for P in T.objects:
        EP = T.e_kernel(P)
        for Q in T.objects:
            mor = T._mor[(P, Q)]
            mor_set = set(mor)
            fibers: Dict[Tuple[Tuple[int, int], ...], Set[int]] = {}
            for f in mor:
                fibers.setdefault(T.rho((f, P, Q)), set()).add(f)
            for f in mor:
                orbit = set()
                for e in EP:
                    fe = G.mul(f, e)
                    if fe not in mor_set:
                        report.fail(f"(A2): right E(P)-action escapes Mor")
                        break
                    if fe in orbit:
                        report.fail(f"(A2): right action of E(P) not free")
                        break
                    orbit.add(fe)
                if orbit != fibers[T.rho((f, P, Q))]:
                    report.fail("(A2): rho is not the E(P)-orbit map")
                    break
            EQ = T.e_kernel(Q)
            for f in mor:
                seen = set()
                for e in EQ:
                    ef = G.mul(e, f)
                    if ef in seen:
                        report.fail("(A2): left action of E(Q) not free")
                        break
                    seen.add(ef)

    # (B): epsilon injective with rho o epsilon = conjugation
    for P in T.objects:
        for Q in T.objects:
            eps = T.epsilon_elements(P, Q)
            if len(set(eps)) != len(eps):
                report.fail("(B): epsilon not injective")
            for s in eps:
                si = G.inv(s)
                want = tuple(sorted((x, G.conj(x, si)) for x in P))
                if T.rho((s, P, Q)) != want:
                    report.fail("(B): rho o epsilon is not c_s")
                    break

    # (C): phi o eps_P(g) = eps_Q(rho(phi)(g)) o phi for all g in P
    for P in T.objects:
        for Q in T.objects:
            for f in T._mor[(P, Q)]:
                for g in P:
                    lhs = G.mul(f, g)
                    rhs = G.mul(T.left_conj(g, f), f)
                    if lhs != rhs:
                        report.fail(f"(C) fails at object order {len(P)}")
                        break

    # (I): eps(S) is Sylow in Aut_T(S)
    Sset = frozenset(S.members)
    autS = T._mor[(Sset, Sset)]
    index = len(autS) // S.order
    if len(autS) % S.order or index % L.prime == 0:
        report.fail("(I): eps(S) not Sylow in Aut_T(S)")
    report.note("aut_T_S", len(autS))

    # (II): isomorphisms extend along normal overgroups
    over: Dict[MemberSet, List[MemberSet]] = {}
    for P in T.objects:
        over[P] = [B for B in T.objects
                   if P <= B and G.subgroup(P).is_normal_in(G.subgroup(B))]
    checked = 0
    for P in T.objects:
        for Q in T.objects:
            for f in T.iso_elements(P, Q):
                for Pbar in over[P]:
                    # phi eps(Pbar) phi^-1, defined as Pbar normalizes P
                    img = L.conj_set(Pbar, G.inv(f))
                    if img is None:
                        report.fail("(II): phi o eps(Pbar) o phi^-1 undefined")
                        continue
                    for Qbar in over[Q]:
                        if img <= Qbar:
                            checked += 1
                            if f not in T._mor_sets[(Pbar, Qbar)]:
                                report.fail("(II): extension morphism missing")
    report.note("II_checked", checked)
    return report


# -- orbit category ---------------------------------------------------------

class OrbitCategory:
    """Morphisms of T modulo postcomposition with the target group.

    The orbit of (f, P, Q) is the coset Q f.  Each orbit is numbered once, as
    a morphism of the FiniteCategory ``cat`` labelled (min element, P, Q), in
    order of source, target and label (``catlimits.coset_category``);
    ``cat.comp`` is its composition.
    """

    def __init__(self, T: TransporterSystem):
        self.T = T
        self.group = G = T.group
        self.objects = T.objects
        self._position = {P: i for i, P in enumerate(self.objects)}
        # _coset_min[j, x] labels the orbit of (x, P, Q_j), whatever P is
        self.cat, self._coset_min = coset_category(
            G, self.objects, lambda i, j: T.mor_elements(self.objects[i], self.objects[j]))
        self._label = np.array([lab[0] for lab in self.cat.labels], dtype=np.intp)
        self._src, self._tgt = (np.array(a, dtype=np.intp) for a in (self.cat.src, self.cat.tgt))
        self._into = [np.flatnonzero(self._tgt == j) for j in range(self.cat.n)]
        self._products: Dict[Tuple[MemberSet, MemberSet], _Product] = {}

    def morphism(self, f: int, P: MemberSet, Q: MemberSet) -> int:
        """The morphism of OT that the morphism (f, P, Q) of T represents."""
        h = self.mor(P, Q)
        label = self._coset_min[self._position[frozenset(Q)], f]
        m = h.start + int(np.searchsorted(self._label[h.start:h.stop], label))
        if m == h.stop or self._label[m] != label:
            raise TransporterError("not a morphism of the transporter system")
        return m

    def mor(self, P: MemberSet, Q: MemberSet) -> range:
        return self.cat.morphisms(self._position[frozenset(P)], self._position[frozenset(Q)])

    def cospans(self, P: MemberSet, Q: MemberSet) -> Tuple[np.ndarray, np.ndarray]:
        """Every cospan f: P -> R <- Q: g over every R, as arrays of f and g."""
        fo, go = (np.flatnonzero(self._src == self._position[frozenset(X)]) for X in (P, Q))
        fi, gi = np.nonzero(self._tgt[fo][:, None] == self._tgt[go])
        return fo[fi], go[gi]

    def _product(self, P: MemberSet, Q: MemberSet) -> "_Product":
        """P boxtimes Q, kept per (P, Q) with the K^max it was read from."""
        data = kmax(self.T, P, Q)
        kept = self._products.get((P, Q))
        if kept is None or kept.data is not data:
            kept = self._products[(P, Q)] = _Product(self, P, Q, data)
        return kept

    def aut(self, P: MemberSet) -> Group:
        """Aut_OT(P) as a permutation group on its morphisms, numbered from 0."""
        h = self.mor(P, P)
        perms = [tuple(row) for row in (self.cat.comp[np.ix_(h, h)] - h.start).tolist()]
        gens = [q for q in perms if q != tuple(range(len(h)))] or [tuple(range(len(h)))]
        H = Group(len(h), gens, name="Aut_OT(P)")
        if H.order != len(h):
            raise TransporterError("orbit automorphisms do not form a regular group")
        return H


def orbit_category(T: TransporterSystem) -> Tuple[OrbitCategory, CheckReport]:
    OT = OrbitCategory(T)
    report = CheckReport("orbit-category")
    G, cat, label = T.group, OT.cat, OT._label
    comp = cat.comp
    for j, Q in enumerate(OT.objects):
        into = OT._into[j]
        # composition well defined on orbits: g q f lies in the orbit
        # comp[g, f] for every element q f of each orbit into Q.  Left
        # multiplication by R keeps the orbit of a product in Mor(P, R), so
        # one g per orbit covers every element of [g].
        elements = G.mul_many(np.array(sorted(Q)), label[into][:, None])
        for k in range(cat.n):
            out = cat.morphisms(j, k)
            got = OT._coset_min[k][G.mul_many(label[out][:, None, None], elements)]
            if (got != label[comp[np.ix_(out, into)]][:, :, None]).any():
                report.fail("orbit composition not well defined")
        # every morphism into Q epic: g -> g o f is injective out of Q
        after = np.sort(comp[np.ix_(np.flatnonzero(OT._src == j), into)], axis=0)
        for _ in np.flatnonzero((after[1:] == after[:-1]).any(axis=0)):
            report.fail("morphism fails to be epic")
    return OT, report


# -- K^max, products, pullbacks ----------------------------------------------

class KmaxData:
    """Maximal elements of K_{P,Q} with the Q x P orbit structure."""

    def __init__(self, pairs: List[Tuple[MemberSet, int]],
                 reps: List[Tuple[MemberSet, int]],
                 orbit_index: Dict[Tuple[MemberSet, int], int]):
        self.pairs = pairs
        self.reps = reps
        self.orbit_index = orbit_index


def kmax(T: TransporterSystem, P: MemberSet, Q: MemberSet) -> KmaxData:
    """K^max_{P,Q} and canonical orbit representatives.

    An element is a pair (A, f) for the morphism (f, A, Q) with A <= P; the
    maximal element over (A, f) keeps f and enlarges A to everything in P
    that f conjugates into Q.

    The result is verified (every element of K_{P,Q} has a unique maximal
    extension) when it is first computed and then cached on T, so every
    call for the same (P, Q) returns verified data.
    """
    P, Q = frozenset(P), frozenset(Q)
    data = T._kmax.get((P, Q))
    if data is None:
        data = T._kmax[(P, Q)] = _kmax_verified(T, P, Q)
    return data


def _kmax_verified(T: TransporterSystem, P: MemberSet, Q: MemberSet) -> KmaxData:
    L = T.locality
    G = T.group
    maximal: List[Tuple[MemberSet, int]] = []
    for f in L.carrier:
        amax = frozenset(x for x in P
                         if (y := T.left_conj(x, f)) is not None and y in Q)
        if amax not in L.objects:
            continue
        if not G.subgroup(amax).verify():
            raise TransporterError("maximal tracked set is not a subgroup")
        maximal.append((amax, f))

    # unique maximal extension over every element of K_{P,Q}: each f has at
    # most one maximal element, so it must exist and contain A
    max_by_f: Dict[int, MemberSet] = {f: A for A, f in maximal}
    for A in T.objects:
        if not A <= P:
            continue
        for f in T.mor_elements(A, Q):
            B = max_by_f.get(f)
            if B is None or not A <= B:
                raise TransporterError("unique maximal extension fails")

    # orbits of Q x P: (y, x) . (A, f) = (^xA, y f x^-1)
    orbit_index: Dict[Tuple[MemberSet, int], int] = {}
    reps: List[Tuple[MemberSet, int]] = []
    pgen = sorted(P)
    qgen = sorted(Q)
    remaining = set(maximal)
    for start in sorted(maximal, key=lambda af: (sorted(af[0]), af[1])):
        if start not in remaining:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            A, f = frontier.pop()
            for x in pgen:
                xi = G.inv(x)
                moved = (frozenset(G.conj(a, xi) for a in A), G.mul(f, xi))
                if moved not in orbit:
                    orbit.add(moved)
                    frontier.append(moved)
            for y in qgen:
                moved = (A, G.mul(y, f))
                if moved not in orbit:
                    orbit.add(moved)
                    frontier.append(moved)
        rep = min(orbit, key=lambda af: (sorted(af[0]), af[1]))
        idx = len(reps)
        reps.append(rep)
        for el in orbit:
            orbit_index[el] = idx
        remaining -= orbit
    return KmaxData(maximal, reps, orbit_index)


class CoproductObject:
    """A formal finite coproduct of objects, with structure morphism data."""

    def __init__(self, components: List[MemberSet],
                 tags: List[Tuple[MemberSet, int]]):
        self.components = components  # the objects L_i
        self.tags = tags              # the defining pairs (L_i, lambda_i)


class _Product:
    """P boxtimes Q on the morphisms of OT, read from one K^max.

    For each orbit representative (A, lambda) of ``data``: ``iota``, the
    inclusion A -> P, and ``lam``, the morphism (lambda, A, Q).  For every
    morphism mu into each A (the representative is ``part``): ``first`` =
    iota o mu and ``second`` = lam o mu, from ``source``, the source of mu.
    This is the factorization map Mor(R, P boxtimes Q) -> Mor(R,P) x Mor(R,Q)
    of every object R at once.
    """

    def __init__(self, OT: OrbitCategory, P: MemberSet, Q: MemberSet, data: "KmaxData"):
        self.data = data
        self.iota = np.array([OT.morphism(OT.group.identity, A, P) for A, _ in data.reps],
                             dtype=np.intp)
        self.lam = np.array([OT.morphism(lam, A, Q) for A, lam in data.reps], dtype=np.intp)
        into = [OT._into[OT._position[A]] for A, _ in data.reps]
        self.part = np.repeat(np.arange(len(into)), [len(mu) for mu in into])
        mu = np.concatenate([np.zeros(0, dtype=np.intp)] + into)
        self.first = OT.cat.comp[self.iota[self.part], mu]
        self.second = OT.cat.comp[self.lam[self.part], mu]
        self.source = OT._src[mu]


def _repeated_at(OT: OrbitCategory, sources: np.ndarray, first: np.ndarray,
                 second: np.ndarray) -> np.ndarray:
    """Per object, whether a pair (first, second) with that source occurs twice."""
    key = first * len(OT.cat.labels) + second
    order = np.argsort(key, kind="stable")
    twice = key[order][1:] == key[order][:-1]
    return np.bincount(sources[order][1:][twice], minlength=len(OT.objects)) > 0


def boxtimes(OT: OrbitCategory, P: MemberSet, Q: MemberSet) -> Tuple[CoproductObject, CheckReport]:
    """P boxtimes Q = coproduct of the K^max orbit representatives, with the
    universal property of the product checked against every object."""
    report = CheckReport("boxtimes")
    P, Q = frozenset(P), frozenset(Q)
    prod = OT._product(P, Q)
    comps = [A for A, _ in prod.data.reps]
    obj = CoproductObject(comps, list(prod.data.reps))
    repeated = _repeated_at(OT, prod.source, prod.first, prod.second)
    total = np.bincount(prod.source, minlength=len(OT.objects))
    for r, R in enumerate(OT.objects):
        if repeated[r]:
            report.fail(f"product map not injective at |R|={len(R)}")
        expect = len(OT.mor(R, P)) * len(OT.mor(R, Q))
        if total[r] != expect or repeated[r]:
            report.fail(
                f"product bijection fails at |R|={len(R)}: {total[r]} vs {expect}")
    report.note("components", len(comps))
    return obj, report


def pullbacks(OT: OrbitCategory, P: MemberSet, Q: MemberSet, fs, gs,
              verify: bool = True) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """U(f, g) inside P boxtimes Q for every cospan f: P -> R <- Q: g of
    morphisms of OT with f = fs[c] and g = gs[c], over every R at once.

    Returns ``on``, with on[c, a] true when the a-th K^max orbit
    representative is a component of the c-th pullback, and, when
    ``verify``, ``fails``, with fails[c, rt] true when its universal
    property fails at the object rt.
    """
    comp = OT.cat.comp
    prod = OT._product(frozenset(P), frozenset(Q))
    fs, gs = np.asarray(fs, dtype=np.intp), np.asarray(gs, dtype=np.intp)
    # the components on which f o iota_A^P = g o lambda
    on = comp[np.ix_(fs, prod.iota)] == comp[np.ix_(gs, prod.lam)]
    if not verify:
        return on, None

    # Mor(Rt, U) -> {(phi, psi) : f o phi = g o psi} is a bijection for every
    # Rt: each factorization solves the equation, none repeats, and there
    # are as many as solutions.  The solutions join the columns f o phi and
    # g o psi on their value: one histogram of each per distinct f and g,
    # multiplied over the values out of each Rt, which are a range.
    n, size, nobj = len(fs), len(OT.cat.labels), len(OT.objects)

    def histograms(hs: np.ndarray, X: MemberSet) -> Tuple[np.ndarray, np.ndarray]:
        distinct = np.flatnonzero(np.bincount(hs, minlength=size))
        values = comp[np.ix_(distinct, OT._into[OT._position[frozenset(X)]])]
        rows = np.arange(len(distinct))[:, None] * size
        counts = np.bincount((rows + values).ravel(), minlength=len(distinct) * size)
        return counts.reshape(len(distinct), size), np.searchsorted(distinct, hs)

    (hf, fi), (hg, gi) = histograms(fs, P), histograms(gs, Q)
    bounds = np.searchsorted(OT._src, np.arange(nobj + 1)).tolist()
    solutions = np.empty((n, nobj), dtype=np.intp)
    for rt in range(nobj):
        cols = slice(bounds[rt], bounds[rt + 1])
        solutions[:, rt] = (hf[:, cols] @ hg[:, cols].T)[fi, gi]

    # the factorizations through each chosen component, keyed by cospan:
    # the entries t of component a are a range, as ``part`` is sorted
    cs, chosen = np.nonzero(on)
    ends = np.cumsum(np.bincount(prod.part, minlength=on.shape[1]))
    lens = np.diff(ends, prepend=0)[chosen]
    cs = np.repeat(cs, lens)
    ts = np.arange(len(cs)) + np.repeat(ends[chosen] - np.cumsum(lens), lens)
    first, second = prod.first[ts], prod.second[ts]
    at = cs * nobj + prod.source[ts]
    fails = np.bincount(at, minlength=n * nobj).reshape(n, nobj) != solutions
    fails.flat[at[comp[fs[cs], first] != comp[gs[cs], second]]] = True
    key = (cs * size + first) * size + second
    order = np.argsort(key, kind="stable")
    fails.flat[at[order][1:][key[order][1:] == key[order][:-1]]] = True
    return on, fails


def pullback(OT: OrbitCategory, f: int, P: MemberSet, g: int, Q: MemberSet, R: MemberSet,
             verify: bool = True) -> Tuple[CoproductObject, CheckReport]:
    """U(f, g) for a cospan f: P -> R <- Q: g of morphisms of OT, inside
    P boxtimes Q: the one-cospan block of ``pullbacks``."""
    report = CheckReport("pullback")
    P, Q = frozenset(P), frozenset(Q)
    on, fails = pullbacks(OT, P, Q, [f], [g], verify)
    chosen = [rep for rep, keep in zip(OT._product(P, Q).data.reps, on[0].tolist()) if keep]
    obj = CoproductObject([A for A, _ in chosen], chosen)
    if not verify:
        return obj, report
    for rt in np.flatnonzero(fails[0]):
        report.fail(f"pullback universal property fails at |Rt|={len(OT.objects[rt])}")
    report.note("components", len(chosen))
    return obj, report


def double_coset_components(T: TransporterSystem, P: MemberSet, Q: MemberSet,
                            R: MemberSet) -> List[MemberSet]:
    """Independent oracle: components Q^x cap P over double cosets Q\\R/P."""
    G = T.group
    P, Q, R = frozenset(P), frozenset(Q), frozenset(R)
    seen: Set[int] = set()
    out: List[MemberSet] = []
    for x in sorted(R):
        if x in seen:
            continue
        coset = {G.mul(G.mul(q, x), p) for q in Q for p in P}
        seen |= coset
        inter = frozenset(y for y in P if G.conj(y, G.inv(x)) in Q)
        # Q^x cap P with left-conjugation convention: elements y of P with
        # ^x-1 y... transported consistently with the pullback construction
        if inter in T.locality.objects:
            out.append(inter)
    return out


def restriction_fixed_points(OT: OrbitCategory, P: MemberSet,
                             Q: MemberSet) -> CheckReport:
    """res: Mor_OT(Q, S) -> Mor_OT(P, S)^{Q/P} is a bijection (P normal in Q)."""
    report = CheckReport("restriction-fixed-points")
    G = OT.group
    P, Q = frozenset(P), frozenset(Q)
    S = frozenset(OT.T.locality.sylow.members)
    if not (P <= Q and G.subgroup(P).is_normal_in(G.subgroup(Q))):
        raise TransporterError("P must be normal in Q")
    comp = OT.cat.comp
    # restriction is precomposition with the inclusion P -> Q
    res_img = comp[OT.mor(Q, S), OT.morphism(G.identity, P, Q)].tolist()
    if len(set(res_img)) != len(res_img):
        report.fail("restriction not injective")
    # x in Q acts on Mor(P, S) by precomposition with (x, P, P)
    onto = np.asarray(OT.mor(P, S))
    acted = comp[np.ix_(onto, [OT.morphism(x, P, P) for x in Q])]
    fixed = onto[(acted == onto[:, None]).all(axis=1)].tolist()
    if sorted(set(res_img)) != fixed:
        report.fail("restriction image differs from Q/P fixed points")
    report.note("fixed_points", len(fixed))
    return report


def mor_counts_mod_p(OT: OrbitCategory) -> Dict[int, int]:
    """|Mor_OT(P, S)| for every object, keyed by a stable object index."""
    S = frozenset(OT.T.locality.sylow.members)
    return {i: len(OT.mor(P, S)) for i, P in enumerate(OT.objects)}


def canonical_component(G: Group, P: MemberSet, A: MemberSet) -> Tuple[int, ...]:
    """Canonical form of a component under conjugation by P (sorted tuple)."""
    best = tuple(sorted(A))
    for x in sorted(P):
        xi = G.inv(x)
        cand = tuple(sorted(G.conj(a, xi) for a in A))
        if cand < best:
            best = cand
    return best


def components_match(T: TransporterSystem, P: MemberSet,
                     comps1: Sequence[MemberSet],
                     comps2: Sequence[MemberSet]) -> bool:
    """Multiset equality of components up to conjugation inside P."""
    G = T.group
    one = sorted(canonical_component(G, P, A) for A in comps1)
    two = sorted(canonical_component(G, P, A) for A in comps2)
    return one == two
