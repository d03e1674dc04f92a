"""Transporter systems of localities, their orbit categories, and the
coproduct-level products and pullbacks.

Morphisms of T are triples (f, P, Q) with ^fP <= Q, composed right to left
(maps act on the left throughout this module, matching the convention
switch between the locality calculus and the category-level arguments).
The orbit category divides out postcomposition by the target group; its
products P boxtimes Q and pullbacks U(f, g) live in the finite-coproduct
completion and are verified against their universal properties directly.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

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

    def __repr__(self) -> str:
        total = sum(len(v) for v in self._mor.values())
        return f"TransporterSystem({self.locality.name}, objects={len(self.objects)}, mors={total})"


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
    """Morphisms of T modulo postcomposition with the target group."""

    def __init__(self, T: TransporterSystem):
        self.T = T
        self.group = T.group
        self.objects = T.objects
        self._orbits: Dict[Tuple[MemberSet, MemberSet], List[FrozenSet[int]]] = {}
        self._orbit_of: Dict[Tuple[int, MemberSet, MemberSet], FrozenSet[int]] = {}
        self._cat = None  # catlimits.transporter_orbit_cat, built on first use
        G = self.group
        for P in self.objects:
            for Q in self.objects:
                seen: Set[int] = set()
                orbits = []
                for f in T.mor_elements(P, Q):
                    if f in seen:
                        continue
                    orbit = frozenset(G.mul(q, f) for q in Q)
                    seen |= orbit
                    orbits.append(orbit)
                    for h in orbit:
                        self._orbit_of[(h, P, Q)] = orbit
                self._orbits[(P, Q)] = sorted(orbits, key=min)

    def mor(self, P: MemberSet, Q: MemberSet) -> List[FrozenSet[int]]:
        return self._orbits[(frozenset(P), frozenset(Q))]

    def compose(self, psi_orbit: FrozenSet[int], Q: MemberSet, R: MemberSet,
                phi_orbit: FrozenSet[int], P: MemberSet) -> FrozenSet[int]:
        """[psi] o [phi]: P -> R via representatives."""
        g = min(psi_orbit)
        f = min(phi_orbit)
        return self._orbit_of[(self.group.mul(g, f), frozenset(P), frozenset(R))]

    def aut(self, P: MemberSet) -> Group:
        """Aut_OT(P) as a permutation group on orbit labels."""
        P = frozenset(P)
        orbits = self.mor(P, P)
        pos = {o: i for i, o in enumerate(orbits)}
        perms = []
        for o in orbits:
            perms.append(tuple(pos[self.compose(o, P, P, q, P)] for q in orbits))
        gens = [q for q in perms if q != tuple(range(len(orbits)))] or [tuple(range(len(orbits)))]
        H = Group(len(orbits), gens, name="Aut_OT(P)")
        if H.order != len(orbits):
            raise TransporterError("orbit automorphisms do not form a regular group")
        return H

    def __repr__(self) -> str:
        total = sum(len(v) for v in self._orbits.values())
        return f"OrbitCategory(objects={len(self.objects)}, mors={total})"


def orbit_category(T: TransporterSystem) -> Tuple[OrbitCategory, CheckReport]:
    OT = OrbitCategory(T)
    report = CheckReport("orbit-category")
    G = T.group
    # composition well-defined on orbits
    for P in OT.objects:
        for Q in OT.objects:
            for R in OT.objects:
                for of in OT.mor(P, Q):
                    for og in OT.mor(Q, R):
                        targets = {OT._orbit_of[(G.mul(g, f), P, R)]
                                   for f in of for g in og}
                        if len(targets) != 1:
                            report.fail("orbit composition not well defined")
    # every morphism epic
    for P in OT.objects:
        for Q in OT.objects:
            for R in OT.objects:
                for oa in OT.mor(P, Q):
                    seen = {}
                    for ob in OT.mor(Q, R):
                        c = OT.compose(ob, Q, R, oa, P)
                        if c in seen and seen[c] != ob:
                            report.fail("morphism fails to be epic")
                        seen[c] = ob
    # identity orbits act as identities
    for P in OT.objects:
        ident = OT._orbit_of[(G.identity, P, P)]
        for Q in OT.objects:
            for of in OT.mor(P, Q):
                if OT.compose(of, P, Q, ident, P) != of:
                    report.fail("identity orbit is not neutral")
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


def boxtimes(OT: OrbitCategory, P: MemberSet, Q: MemberSet) -> Tuple[CoproductObject, CheckReport]:
    """P boxtimes Q = coproduct of the K^max orbit representatives, with the
    universal property of the product checked against every object."""
    report = CheckReport("boxtimes")
    P, Q = frozenset(P), frozenset(Q)
    data = kmax(OT.T, P, Q)
    comps = [A for A, _ in data.reps]
    obj = CoproductObject(comps, list(data.reps))
    G = OT.group
    for R in OT.objects:
        # factorization map Mor(R, P box Q) -> Mor(R,P) x Mor(R,Q)
        seen_pairs: Dict[Tuple[FrozenSet[int], FrozenSet[int]], Tuple[int, FrozenSet[int]]] = {}
        total = 0
        for i, (A, lam) in enumerate(data.reps):
            for mu in OT.mor(R, A):
                total += 1
                m = min(mu)
                first = OT._orbit_of[(m, R, P)]
                second = OT._orbit_of[(G.mul(lam, m), R, Q)]
                key = (first, second)
                if key in seen_pairs and seen_pairs[key] != (i, mu):
                    report.fail(f"product map not injective at |R|={len(R)}")
                seen_pairs[key] = (i, mu)
        expect = len(OT.mor(R, P)) * len(OT.mor(R, Q))
        if total != expect or len(seen_pairs) != expect:
            report.fail(
                f"product bijection fails at |R|={len(R)}: {total} vs {expect}")
    report.note("components", len(comps))
    return obj, report


def pullback(OT: OrbitCategory, f_orbit: FrozenSet[int], P: MemberSet,
             g_orbit: FrozenSet[int], Q: MemberSet, R: MemberSet,
             verify: bool = True) -> Tuple[CoproductObject, CheckReport]:
    """U(f, g) for a cospan P -> R <- Q inside P boxtimes Q."""
    report = CheckReport("pullback")
    P, Q, R = frozenset(P), frozenset(Q), frozenset(R)
    G = OT.group
    data = kmax(OT.T, P, Q)
    f = min(f_orbit)
    g = min(g_orbit)
    chosen: List[Tuple[MemberSet, int]] = []
    for A, lam in data.reps:
        left = OT._orbit_of[(f, A, R)]          # f o iota_A^P restricted
        right = OT._orbit_of[(G.mul(g, lam), A, R)]
        if left == right:
            chosen.append((A, lam))
    obj = CoproductObject([A for A, _ in chosen], chosen)
    if not verify:
        return obj, report

    for Rt in OT.objects:
        pairs = []
        for phi in OT.mor(Rt, P):
            pf = OT._orbit_of[(G.mul(f, min(phi)), Rt, R)]
            for psi in OT.mor(Rt, Q):
                pg = OT._orbit_of[(G.mul(g, min(psi)), Rt, R)]
                if pf == pg:
                    pairs.append((phi, psi))
        through: List[Tuple[FrozenSet[int], FrozenSet[int]]] = []
        for A, lam in chosen:
            for mu in OT.mor(Rt, A):
                m = min(mu)
                through.append((OT._orbit_of[(m, Rt, P)],
                                OT._orbit_of[(G.mul(lam, m), Rt, Q)]))
        if sorted(map(_orbit_pair_key, through)) != sorted(
                map(_orbit_pair_key, [(a, b) for a, b in pairs])):
            report.fail(f"pullback universal property fails at |Rt|={len(Rt)}")
    report.note("components", len(chosen))
    return obj, report


def _orbit_pair_key(pair: Tuple[FrozenSet[int], FrozenSet[int]]):
    a, b = pair
    return (min(a), min(b))


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
    if not G.subgroup(P).is_normal_in(G.subgroup(Q)):
        raise TransporterError("P must be normal in Q")
    res_img: Dict[FrozenSet[int], FrozenSet[int]] = {}
    for of in OT.mor(Q, S):
        f = min(of)
        res_img[of] = OT._orbit_of[(f, P, S)]
    if len(set(res_img.values())) != len(res_img):
        report.fail("restriction not injective")
    fixed = []
    for om in OT.mor(P, S):
        m = min(om)
        if all(OT._orbit_of[(G.mul(m, x), P, S)] == om for x in Q):
            fixed.append(om)
    if sorted(map(min, set(res_img.values()))) != sorted(map(min, fixed)):
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
