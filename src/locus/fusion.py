"""Fusion systems over a finite p-group, from groups or localities.

Morphisms are stored as explicit deduplicated maps (the sorted graph of the
injection), so systems built from a group and from a locality over it can
be compared pairwise on the nose.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from .permgroups import (
    Group,
    Subgroup,
    all_subgroups,
    conj_images,
    member_mask,
    o_p,
    p_part,
    quotient_group,
)

MemberSet = FrozenSet[int]
MapKey = Tuple[Tuple[int, int], ...]


class FusionError(ValueError):
    pass


def _map_key(mapping: Dict[int, int]) -> MapKey:
    return tuple(sorted(mapping.items()))


def _key_image(key: MapKey) -> MemberSet:
    return frozenset(y for _, y in key)


class FusionSystem:
    """Hom-sets of injective homomorphisms between subgroups of S."""

    def __init__(self, group: Group, sylow_sub: Subgroup, prime: int,
                 maps_from: Dict[MemberSet, Set[MapKey]], provenance: str):
        self.group = group
        self.sylow = sylow_sub
        self.prime = prime
        self.subgroups: Sequence[MemberSet] = all_subgroups(sylow_sub)
        self.maps_from = {P: set(maps_from.get(P, set())) for P in self.subgroups}
        self.provenance = provenance
        self._classes: Optional[List[List[MemberSet]]] = None
        self._s_conj: Optional[Dict[int, Dict[int, int]]] = None

    # -- morphisms ------------------------------------------------------

    def hom(self, P: MemberSet, Q: MemberSet) -> List[MapKey]:
        """Hom_F(P, Q), canonically ordered."""
        P, Q = frozenset(P), frozenset(Q)
        return sorted(k for k in self.maps_from[P] if _key_image(k) <= Q)

    def isos(self, P: MemberSet, Q: MemberSet) -> List[MapKey]:
        Q = frozenset(Q)
        return [k for k in self.hom(P, Q) if _key_image(k) == Q]

    def aut(self, P: MemberSet) -> List[MapKey]:
        return self.isos(P, P)

    def aut_group(self, P: MemberSet) -> Group:
        """Aut_F(P) as a permutation group on the points moved by P."""
        return _maps_as_group(self.group, P, self.aut(P))

    def s_conj(self) -> Dict[int, Dict[int, int]]:
        """The S x S conjugation table s -> {x: x^s}, built once."""
        if self._s_conj is None:
            sm = self.sylow.sorted_members
            cols = conj_images(self.group, self.sylow)[:, sm].T.tolist()
            self._s_conj = {s: dict(zip(sm, col)) for s, col in zip(sm, cols)}
        return self._s_conj

    def aut_s(self, P: MemberSet) -> List[MapKey]:
        """Aut_S(P): conjugations by elements of N_S(P)."""
        out = set()
        for c in self.s_conj().values():
            if all(c[x] in P for x in P):
                out.add(_map_key({x: c[x] for x in P}))
        return sorted(out)

    # -- conjugacy ------------------------------------------------------

    def classes(self) -> List[List[MemberSet]]:
        """F-conjugacy classes of all subgroups of S."""
        if self._classes is None:
            remaining = set(self.subgroups)
            out: List[List[MemberSet]] = []
            for P in self.subgroups:
                if P not in remaining:
                    continue
                orbit = {P}
                frontier = [P]
                while frontier:
                    nxt = []
                    for Q in frontier:
                        for k in self.maps_from[Q]:
                            img = _key_image(k)
                            if len(img) == len(Q) and img not in orbit:
                                orbit.add(img)
                                nxt.append(img)
                    frontier = nxt
                remaining -= orbit
                out.append(sorted(orbit, key=sorted))
            self._classes = out
        return self._classes

    def class_of(self, P: MemberSet) -> List[MemberSet]:
        P = frozenset(P)
        for cls in self.classes():
            if P in cls:
                return cls
        raise FusionError("subgroup not under S")

    def n_s(self, P: MemberSet) -> MemberSet:
        return frozenset(s for s, c in self.s_conj().items()
                         if all(c[x] in P for x in P))

    def c_s(self, P: MemberSet) -> MemberSet:
        return frozenset(s for s, c in self.s_conj().items()
                         if all(c[x] == x for x in P))

    def fully_normalized(self, P: MemberSet) -> bool:
        n = len(self.n_s(P))
        return all(len(self.n_s(Q)) <= n for Q in self.class_of(P))

    def fully_centralized(self, P: MemberSet) -> bool:
        c = len(self.c_s(P))
        return all(len(self.c_s(Q)) <= c for Q in self.class_of(P))


def _maps_as_group(G: Group, P: MemberSet, keys: Sequence[MapKey]) -> Group:
    """View a set of automorphism keys of P as a permutation group."""
    pts = sorted(P)
    pos = {x: i for i, x in enumerate(pts)}
    perms = []
    for k in keys:
        d = dict(k)
        perms.append(tuple(pos[d[x]] for x in pts))
    ident = tuple(range(len(pts)))
    gens = [p for p in perms if p != ident] or [ident]
    H = Group(len(pts), gens, name="AutF(P)")
    if H.order != len(set(keys)):
        raise FusionError("automorphism set is not composition-closed")
    return H


# -- constructions ----------------------------------------------------------

def _conjugation_maps(G: Group, S: Subgroup, subgroups: Sequence[MemberSet],
                      among: Optional[Sequence[int]] = None) -> Dict[MemberSet, Set[MapKey]]:
    """The maps c_g on each P in subgroups, for every g (of ``among`` if
    given) with P^g <= S.

    Row i of ``images`` is s_i^g for every g, shared with every other scan
    over S through conj_images; the maps on P are the distinct columns of
    P's rows over the g with P <= S_g.  A Python set removes the repeats:
    np.unique would import numpy.ma (about 1 MiB) and was no faster here.
    """
    row = {s: i for i, s in enumerate(S.sorted_members)}
    images = conj_images(G, S)
    if among is not None:
        images = images[:, among]
    in_s = member_mask(G, S.members)[images]
    maps_from: Dict[MemberSet, Set[MapKey]] = {}
    for P in subgroups:
        xs = sorted(P)
        rows = [row[x] for x in xs]
        hits = in_s[rows].all(axis=0)
        maps_from[P] = {tuple(zip(xs, m)) for m in zip(*images[rows][:, hits].tolist())}
    return maps_from


def fusion_of_group(G: Group, S: Subgroup, prime: int) -> FusionSystem:
    """F_S(G): all conjugation maps between subgroups of S."""
    if p_part(G.order, prime) != S.order:
        raise FusionError("S is not a Sylow p-subgroup of G")
    maps_from = _conjugation_maps(G, S, all_subgroups(S))
    return FusionSystem(G, S, prime, maps_from, f"F_S({G.name})")


def fusion_of_locality(L) -> FusionSystem:
    """F_S(L): generated by the conjugation maps c_g on subgroups of S_g."""
    G = L.ambient
    S = L.sylow
    subgroups = all_subgroups(S)
    maps_from = _conjugation_maps(G, S, subgroups, L.carrier)

    # close under restriction and composition
    changed = True
    while changed:
        changed = False
        for P in subgroups:
            for k in list(maps_from[P]):
                img = _key_image(k)
                d = dict(k)
                for Q in subgroups:
                    if Q < P:
                        rk = _map_key({x: d[x] for x in Q})
                        if rk not in maps_from[Q]:
                            maps_from[Q].add(rk)
                            changed = True
                for k2 in list(maps_from[img]):
                    d2 = dict(k2)
                    ck = _map_key({x: d2[d[x]] for x in P})
                    if ck not in maps_from[P]:
                        maps_from[P].add(ck)
                        changed = True
    return FusionSystem(G, S, L.prime, maps_from, f"F_S({L.name})")


def fusion_systems_equal(F1: FusionSystem, F2: FusionSystem) -> bool:
    """Exact hom-set equality over a shared ambient element numbering."""
    if F1.sylow.members != F2.sylow.members:
        return False
    return all(F1.maps_from[P] == F2.maps_from[P] for P in F1.subgroups)


def fusion_systems_agree_via(F1: FusionSystem, F2: FusionSystem,
                             iso: Dict[int, int]) -> bool:
    """Hom-set equality after transporting F1 along an isomorphism of S."""
    if set(iso) != set(F1.sylow.members):
        return False
    if frozenset(iso.values()) != F2.sylow.members:
        return False
    for P in F1.subgroups:
        img_P = frozenset(iso[x] for x in P)
        moved = {
            tuple(sorted((iso[x], iso[y]) for x, y in k))
            for k in F1.maps_from[P]
        }
        if moved != F2.maps_from[img_P]:
            return False
    return True


# -- saturation ---------------------------------------------------------------

def is_saturated(F: FusionSystem) -> Tuple[bool, List[str]]:
    """Saturation via: every class has a fully automized, receptive member.

    Conventions follow the standard formulation: a fully normalized member
    must have Aut_S(P) of full p-power index in Aut_F(P) (fully automized),
    and every isomorphism onto it must extend to its N_phi (receptive).
    """
    witnesses: List[str] = []
    for cls in F.classes():
        candidates = [P for P in cls if F.fully_normalized(P)]
        good = False
        reasons: List[str] = []
        for P in candidates:
            if not _fully_automized(F, P):
                reasons.append(f"|P|={len(P)}: Aut_S not Sylow in Aut_F")
                continue
            failed = _receptive_failure(F, P)
            if failed is not None:
                reasons.append(f"|P|={len(P)}: extension axiom fails {failed}")
                continue
            good = True
            break
        if not good:
            witnesses.append("; ".join(reasons) or f"class of order {len(cls[0])}")
    return not witnesses, witnesses


def _fully_automized(F: FusionSystem, P: MemberSet) -> bool:
    aut = len(F.aut(P))
    aut_s = len(set(F.aut_s(P)))
    return aut % aut_s == 0 and (aut // aut_s) % F.prime != 0


def _receptive_failure(F: FusionSystem, P: MemberSet) -> Optional[str]:
    aut_s_P = set(F.aut_s(P))
    s_conj = F.s_conj()
    for Q in F.class_of(P):
        for k in F.isos(Q, P):
            d = dict(k)
            n_phi = set()
            for g in F.n_s(Q):
                c = s_conj[g]
                moved = _map_key({d[x]: d[c[x]] for x in Q})
                if moved in aut_s_P:
                    n_phi.add(g)
            n_phi_set = frozenset(n_phi)
            if n_phi_set == Q:
                continue
            if n_phi_set not in F.maps_from:
                return f"N_phi not a recorded subgroup for |Q|={len(Q)}"
            extended = False
            for ext in F.maps_from[n_phi_set]:
                e = dict(ext)
                if all(e[x] == d[x] for x in Q):
                    extended = True
                    break
            if not extended:
                return f"phi from |Q|={len(Q)} with |N_phi|={len(n_phi_set)}"
    return None


# -- classification ------------------------------------------------------------

class SubgroupClassification:
    """Per-class flags keyed by the class representative."""

    def __init__(self, F: FusionSystem):
        self.F = F
        self.flags: Dict[MemberSet, Dict[str, object]] = {}
        self.o_p_f: Optional[MemberSet] = None

    def all_with(self, flag: str) -> List[MemberSet]:
        """All subgroups (not just reps) whose class carries the flag."""
        out = []
        for rep, rec in self.flags.items():
            if rec[flag]:
                out.extend(self.F.class_of(rep))
        return sorted(out, key=lambda m: (len(m), sorted(m)))


def out_group(F: FusionSystem, P: MemberSet) -> Tuple[Group, Dict[int, int]]:
    """Out_F(P) = Aut_F(P)/Inn(P) as a group, plus the projection."""
    G = F.group
    autg = F.aut_group(P)
    pts = sorted(P)
    pos = {x: i for i, x in enumerate(pts)}
    inn = set()
    for s in P:
        inn.add(autg.index(tuple(pos[G.conj(x, s)] for x in pts)))
    if len(inn) == 1:  # P is abelian: Out_F(P) is Aut_F(P)
        return autg, {x: x for x in range(autg.order)}
    return quotient_group(autg, autg.subgroup(inn))


def has_strongly_p_embedded(H: Group, p: int) -> bool:
    """Search all subgroups M with p | |M| and p coprime |M cap M^g| off M."""
    if H.order % p != 0:
        return False
    for M in all_subgroups(H.full_subgroup()):
        if len(M) == H.order or len(M) % p != 0:
            continue
        # |M cap M^g| = #{x in M : x^g in M}, for every g at once
        in_m = member_mask(H, M)
        meets = np.sum([in_m[H.conj_all(x)] for x in M], axis=0)
        if (meets[~in_m] % p != 0).all():
            return True
    return False


def classify_subgroups(F: FusionSystem) -> SubgroupClassification:
    """Centric / radical / essential / subcentric flags plus O_p(F)."""
    out = classify_subgroups_core_only(F)
    essentials = [rec["fully_normalized_rep"] for rec in out.flags.values()
                  if rec["essential"]]
    for R in F.subgroups:
        if _normal_in_fusion(F, R, essentials) and not R <= out.o_p_f:
            raise FusionError("normal subgroups do not have a unique maximum")

    # subcentric: the normalizer of a fully normalized rep is constrained
    for rep, rec in out.flags.items():
        if len(rep) == 1:
            rec["subcentric"] = False
            continue
        fn = rec["fully_normalized_rep"]
        rec["subcentric"] = _normalizer_is_constrained(F, fn)
    return out


def _normal_in_fusion(F: FusionSystem, R: MemberSet,
                      essentials: List[MemberSet]) -> bool:
    """Alperin-style: R normal in S, inside every essential subgroup, and
    invariant under Aut_F(E) for all essential E and under Aut_F(S)."""
    G = F.group
    S = F.sylow.members
    if not all(G.conj(x, s) in R for x in R for s in F.sylow.gens()):
        return False
    for E in essentials + [S]:
        if not R <= E:
            return False
        for k in F.aut(E):
            d = dict(k)
            if frozenset(d[x] for x in R) != R:
                return False
    return True


def _normalizer_is_constrained(F: FusionSystem, P: MemberSet) -> bool:
    NF = normalizer_subsystem(F, P)
    cls = classify_subgroups_core_only(NF)
    Op = cls.o_p_f
    return NF.c_s(Op) <= Op


def classify_subgroups_core_only(F: FusionSystem) -> SubgroupClassification:
    """Like classify_subgroups but skipping the subcentric recursion."""
    sat, wit = is_saturated(F)
    if not sat:
        raise FusionError(f"not saturated: {wit[:1]}")
    G = F.group
    out = SubgroupClassification(F)
    for cls in F.classes():
        rep = cls[0]
        centric = all(F.c_s(Q) <= Q for Q in cls)
        fn_rep = next(Q for Q in cls if F.fully_normalized(Q))
        OutP, _ = out_group(F, fn_rep)
        radical = o_p(OutP, F.prime).order == 1
        essential = bool(
            len(rep) > 1 and centric and radical
            and has_strongly_p_embedded(OutP, F.prime))
        out.flags[rep] = {
            "order": len(rep),
            "class_size": len(cls),
            "centric": centric,
            "radical": radical,
            "essential": essential,
            "fully_normalized_rep": fn_rep,
            "aut_order": len(F.aut(fn_rep)),
            "out_order": OutP.order,
        }
    essentials = [rec["fully_normalized_rep"] for rec in out.flags.values()
                  if rec["essential"]]
    best: MemberSet = frozenset([G.identity])
    for R in F.subgroups:
        if _normal_in_fusion(F, R, essentials) and len(R) > len(best):
            best = R
    out.o_p_f = best
    return out


# -- normalizer and centralizer subsystems ---------------------------------

def normalizer_subsystem(F: FusionSystem, P: MemberSet) -> FusionSystem:
    """N_F(P) over N_S(P): morphisms extending to AP -> BP normalizing P."""
    P = frozenset(P)
    if not F.fully_normalized(P):
        raise FusionError("P must be fully normalized")
    return _local_subsystem(F, P, pointwise=False)


def centralizer_subsystem(F: FusionSystem, P: MemberSet) -> FusionSystem:
    P = frozenset(P)
    if not F.fully_centralized(P):
        raise FusionError("P must be fully centralized")
    return _local_subsystem(F, P, pointwise=True)


def _local_subsystem(F: FusionSystem, P: MemberSet, pointwise: bool) -> FusionSystem:
    G = F.group
    NS = F.c_s(P) if pointwise else F.n_s(P)
    NS_sub = G.subgroup(NS, name="N_S(P)" if not pointwise else "C_S(P)")
    maps_from: Dict[MemberSet, Set[MapKey]] = {}
    for A in all_subgroups(NS_sub):
        AP = G.closure(sorted(A | P))
        collected: Set[MapKey] = set()
        for k in F.maps_from[frozenset(AP)]:
            d = dict(k)
            if pointwise:
                if not all(d[x] == x for x in P):
                    continue
            else:
                if frozenset(d[x] for x in P) != P:
                    continue
            img_A = frozenset(d[x] for x in A)
            if img_A <= NS:
                collected.add(_map_key({x: d[x] for x in A}))
        maps_from[frozenset(A)] = collected
    label = "C" if pointwise else "N"
    return FusionSystem(G, NS_sub, F.prime, maps_from,
                        f"{label}_F(P) in {F.provenance}")


def is_characteristic_p_type(F: FusionSystem) -> Tuple[bool, Dict[int, bool]]:
    """N_F(Q) constrained for every nontrivial fully normalized class rep.

    Uses the abelian-centralizer shortcut when it applies; otherwise builds
    the normalizer subsystem and checks constraint directly.
    """
    G = F.group
    verdicts: Dict[int, bool] = {}
    ok = True
    for idx, cls in enumerate(F.classes()):
        rep = cls[0]
        if len(rep) == 1:
            continue
        fn = next(Q for Q in cls if F.fully_normalized(Q))
        CS = F.c_s(fn)
        if G.subgroup(CS).is_abelian():
            verdicts[idx] = True
            continue
        verdicts[idx] = _normalizer_is_constrained(F, fn)
        ok = ok and verdicts[idx]
    return ok and all(verdicts.values()), verdicts
