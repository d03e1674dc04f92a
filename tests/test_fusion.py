"""Fusion-system construction, saturation, and classification tests."""

import pytest

from locus.fusion import (
    FusionError,
    FusionSystem,
    classify_subgroups,
    classify_subgroups_core_only,
    centralizer_subsystem,
    fusion_of_group,
    fusion_of_locality,
    fusion_systems_equal,
    has_strongly_p_embedded,
    is_characteristic_p_type,
    is_saturated,
    normalizer_subsystem,
    out_group,
)
from locus.locality import build_locality, delta_all_nontrivial
from locus.permgroups import center, o_p, quotient_group, sylow

from conftest import bundled


def F_a6():
    G = bundled("a6")
    return fusion_of_group(G, sylow(G, 2), 2)


def F_s4():
    G = bundled("s4")
    return fusion_of_group(G, sylow(G, 2), 2)


def test_hom_counts_a6():
    F = F_a6()
    G = F.group
    z = next(x for x in F.sylow.members
             if x != G.identity
             and all(G.mul(x, s) == G.mul(s, x) for s in F.sylow.members))
    Z = frozenset([G.identity, z])
    # five involutions in D8, all fused in A6
    assert len(F.hom(Z, F.sylow.members)) == 5


def test_hom_counts_s4_v4():
    F = F_s4()
    G = F.group
    from locus.permgroups import o_p

    V4 = frozenset(o_p(G, 2).members)  # the normal Klein four of S4
    assert len(V4) == 4
    assert len([k for k in F.hom(V4, V4) if len({y for _, y in k}) == 4]) == 6


def test_fusion_of_p_group_itself():
    G = bundled("d8")
    S = G.full_subgroup()
    F = fusion_of_group(G, S, 2)
    # inner conjugations only: |Hom(P,Q)| = maps realized inside D8
    for P in F.subgroups:
        for k in F.maps_from[P]:
            d = dict(k)
            assert any(all(G.conj(x, g) == d[x] for x in P) for g in range(G.order))


def test_fusion_locality_equals_group_fusion_a6():
    G = bundled("a6")
    S = sylow(G, 2)
    L = build_locality(G, S, delta_all_nontrivial(S), 2)
    FL = fusion_of_locality(L)
    FG = fusion_of_group(G, S, 2)
    assert fusion_systems_equal(FL, FG)
    # and pairwise hom sets match on the nose
    for P in FG.subgroups:
        for Q in FG.subgroups:
            assert FL.hom(P, Q) == FG.hom(P, Q)


def test_fusion_locality_equals_group_fusion_s4():
    G = bundled("s4")
    S = sylow(G, 2)
    L = build_locality(G, S, delta_all_nontrivial(S), 2)
    assert fusion_systems_equal(fusion_of_locality(L), fusion_of_group(G, S, 2))


def test_restricted_locality_fusion_single_object():
    G = bundled("a6")
    S = sylow(G, 2)
    L = build_locality(G, S, delta_all_nontrivial(S), 2)
    LS = L.restrict([frozenset(S.members)])
    # single object S: carrier = N_L(S) = S here
    assert set(LS.carrier) == set(S.members)


def test_saturated_group_systems():
    assert is_saturated(F_a6())[0]
    assert is_saturated(F_s4())[0]
    G = bundled("ext27_sd16")
    F = fusion_of_group(G, sylow(G, 3), 3)
    assert is_saturated(F)[0]


def _unsaturated_hand_built():
    # Fusion on C2xC2 with an extra automorphism on one C2 but no extension:
    # take S = V4 inside D8-fusion and delete every proper extension.
    G = bundled("s4")
    S = sylow(G, 2)
    F = fusion_of_group(G, S, 2)
    V4 = next(P for P in F.subgroups
              if len(P) == 4 and F.n_s(P) == F.sylow.members
              and len(F.class_of(P)) == 1)
    sub = G.subgroup(V4)
    maps_from = {P: {k for k in F.maps_from[P] if frozenset(dict(k)) <= V4
                     and frozenset(dict(k).values()) <= V4}
                 for P in F.subgroups if P <= V4}
    # drop all nonidentity maps on V4 itself but keep the S3 worth of
    # automorphisms on a C2 below: extension axiom must then fail
    small = [P for P in maps_from if len(P) == 2]
    broken = dict(maps_from)
    broken[frozenset(V4)] = {k for k in maps_from[frozenset(V4)]
                             if all(x == y for x, y in k)}
    return FusionSystem(G, sub, 2, broken, "hand-built")


def test_unsaturated_hand_built():
    ok, witnesses = is_saturated(_unsaturated_hand_built())
    assert not ok
    assert witnesses


def test_classification_a6():
    F = F_a6()
    cls = classify_subgroups(F)
    essentials = [rep for rep, rec in cls.flags.items() if rec["essential"]]
    assert len(essentials) == 2
    for rep in essentials:
        assert len(rep) == 4
        assert F.group.subgroup(rep).is_elementary_abelian(2)
    centrics = cls.all_with("centric")
    assert centrics == [P for P in F.subgroups if len(P) >= 4]
    subcentrics = cls.all_with("subcentric")
    assert subcentrics == [P for P in F.subgroups if len(P) > 1]


def test_classification_s4_op():
    F = F_s4()
    cls = classify_subgroups(F)
    G = F.group
    assert len(cls.o_p_f) == 4
    assert G.subgroup(cls.o_p_f).is_elementary_abelian(2)


def test_characteristic_2_type_a6():
    ok, _ = is_characteristic_p_type(F_a6())
    assert ok is True


def test_characteristic_2_type_s4():
    ok, _ = is_characteristic_p_type(F_s4())
    assert ok is True


def test_characteristic_2_type_s3():
    from locus.permgroups import load_group

    G = load_group("degree 3\n(1 2)\n(1 2 3)", name="S3")
    G.build_tables()
    F = fusion_of_group(G, sylow(G, 2), 2)
    ok, _ = is_characteristic_p_type(F)
    assert ok is True


def test_normalizer_subsystem_center_a6():
    F = F_a6()
    G = F.group
    z = next(x for x in F.sylow.members
             if x != G.identity
             and all(G.mul(x, s) == G.mul(s, x) for s in F.sylow.members))
    Z = frozenset([G.identity, z])
    NF = normalizer_subsystem(F, Z)
    # N_F(Z) = F_S(C_A6(z)) = F_S(D8): all maps are D8-conjugations
    assert NF.sylow.members == F.sylow.members
    for P in NF.subgroups:
        for k in NF.maps_from[P]:
            d = dict(k)
            assert any(all(G.conj(x, s) == d[x] for x in P)
                       for s in F.sylow.members), (P, k)


def test_normalizer_subsystem_at_s_is_identity_like():
    F = F_a6()
    NF = normalizer_subsystem(F, frozenset(F.sylow.members))
    for P in NF.subgroups:
        assert NF.maps_from[P] <= F.maps_from[P]


def test_centralizer_subsystem_z():
    F = F_a6()
    G = F.group
    z = next(x for x in F.sylow.members
             if x != G.identity
             and all(G.mul(x, s) == G.mul(s, x) for s in F.sylow.members))
    Z = frozenset([G.identity, z])
    CF = centralizer_subsystem(F, Z)
    assert CF.sylow.members == F.sylow.members
    for P in CF.subgroups:
        for k in CF.maps_from[P]:
            assert dict(k).get(z, z) == z


def test_rvext_432():
    # N_F(Z(S)) = N_F(S) on the extraspecial instance
    G = bundled("ext27_sd16")
    S = sylow(G, 3)
    F = fusion_of_group(G, S, 3)
    Z = frozenset(x for x in S.members
                  if all(G.mul(x, s) == G.mul(s, x) for s in S.members))
    assert len(Z) == 3
    NZ = normalizer_subsystem(F, Z)
    NS = normalizer_subsystem(F, frozenset(S.members))
    assert fusion_systems_equal(NZ, NS)
    ok, _ = is_characteristic_p_type(F)
    assert ok is True


def test_out_group_v4_in_a6():
    F = F_a6()
    V = next(P for P in F.subgroups if len(P) == 4
             and F.group.subgroup(P).is_elementary_abelian(2))
    OutP, _ = out_group(F, V)
    assert OutP.order == 6  # S3 on a Klein four


@pytest.mark.parametrize("make", [F_s4, F_a6], ids=["s4", "a6"])
def test_out_group_is_aut_over_inn(make):
    # |Out_F(P)| = |Aut_F(P)| |Z(P)| / |P|.  For abelian P, Inn(P) = 1 and
    # Out_F(P) is Aut_F(P) itself, with no quotient taken; the quotient by
    # the trivial subgroup gives the same invariants
    F = make()
    G = F.group
    abelian = 0
    for P in F.subgroups:
        OutP, proj = out_group(F, P)
        center_P = [z for z in P if all(G.mul(z, x) == G.mul(x, z) for x in P)]
        assert OutP.order == len(F.aut(P)) * len(center_P) // len(P)
        if len(center_P) < len(P):
            continue
        abelian += 1
        autg = F.aut_group(P)
        assert OutP.E.tolist() == autg.E.tolist()
        assert proj == {x: x for x in range(autg.order)}
        Q, _ = quotient_group(autg, autg.subgroup([autg.identity]))
        assert Q.order == OutP.order
        assert o_p(Q, 2).order == o_p(OutP, 2).order
        assert has_strongly_p_embedded(Q, 2) == has_strongly_p_embedded(OutP, 2)
    assert 0 < abelian < len(F.subgroups)


def test_fusion_invariants_classes():
    F = F_a6()
    cls = classify_subgroups(F)
    # flags constant on conjugacy classes by construction; subcentric set
    # closed under overgroups and conjugation
    sub = set(cls.all_with("subcentric"))
    for P in sub:
        for Q in F.subgroups:
            if P <= Q:
                assert Q in sub
    # essential implies centric and radical
    for rep, rec in cls.flags.items():
        if rec["essential"]:
            assert rec["centric"] and rec["radical"]


def test_centric_locality_fusion_generates_group_fusion():
    # object sets containing the centric-radicals already generate all of
    # the group fusion (Alperin-style generation)
    from locus.locality import delta_min_order

    G = bundled("a6")
    S = sylow(G, 2)
    L = build_locality(G, S, delta_min_order(S, 4), 2)
    FL = fusion_of_locality(L)
    FG = fusion_of_group(G, S, 2)
    assert fusion_systems_equal(FL, FG)


def test_normalizer_subsystem_equals_local_fusion():
    # N_F(Z) computed inside F matches the fusion system of the local
    # group N_L(Z) = C_A6(z) = D8, as systems over the same S
    from locus.locality import as_group

    F = F_a6()
    G = F.group
    z = next(x for x in F.sylow.members
             if x != G.identity
             and all(G.mul(x, s) == G.mul(s, x) for s in F.sylow.members))
    Z = frozenset([G.identity, z])
    NF = normalizer_subsystem(F, Z)
    NG = as_group(G, G.subgroup(F.sylow.members))  # C_A6(z) = the Sylow itself
    NG.build_tables()
    S_loc = NG.full_subgroup()
    F_loc = fusion_of_group(NG, S_loc, 2)
    # transport F_loc back to ambient numbering and compare hom sets
    back = {i: G.index(NG.perm(i)) for i in range(NG.order)}
    for P_loc in F_loc.subgroups:
        P_amb = frozenset(back[x] for x in P_loc)
        moved = {tuple(sorted((back[x], back[y]) for x, y in k))
                 for k in F_loc.maps_from[P_loc]}
        assert moved == NF.maps_from[P_amb], len(P_amb)


# -- one test per FusionError site -------------------------------------------

def test_class_of_rejects_a_subgroup_not_under_s():
    F = F_a6()
    with pytest.raises(FusionError, match="subgroup not under S"):
        F.class_of(frozenset(range(F.group.order)))


def test_fusion_of_group_rejects_a_non_sylow_subgroup():
    F = F_a6()
    Z = F.group.subgroup(F.c_s(F.sylow.members))
    assert Z.order == 2
    with pytest.raises(FusionError, match="S is not a Sylow p-subgroup"):
        fusion_of_group(F.group, Z, 2)


def _noncentral_involution(F):
    G = F.group
    z = F.c_s(F.sylow.members)
    t = next(x for x in F.sylow.sorted_members
             if G.element_order(x) == 2 and x not in z)
    return frozenset([G.identity, t])


@pytest.mark.parametrize("local, message", [
    (normalizer_subsystem, "P must be fully normalized"),
    (centralizer_subsystem, "P must be fully centralized"),
])
def test_local_subsystems_reject_a_noncentral_involution_of_a6(local, message):
    # every involution of A6 is conjugate to the central one of S, whose
    # normalizer and centralizer in S are all of S
    F = F_a6()
    T = _noncentral_involution(F)
    assert len(F.n_s(T)) == len(F.c_s(T)) == 4
    with pytest.raises(FusionError, match=message):
        local(F, T)


def test_classification_rejects_an_unsaturated_system():
    FS = _unsaturated_hand_built()
    with pytest.raises(FusionError, match="not saturated"):
        classify_subgroups_core_only(FS)
    with pytest.raises(FusionError, match="not saturated"):
        classify_subgroups(FS)


def test_aut_group_rejects_an_automorphism_set_not_closed_under_composition():
    F = F_a6()
    P = next(P for P in F.subgroups if len(F.aut(P)) == 6)
    G = F.group
    ident = next(k for k in F.aut(P) if all(x == y for x, y in k))
    three = next(k for k in F.aut(P)
                 if k != ident and all(dict(k)[dict(k)[dict(k)[x]]] == x for x in P))
    maps_from = dict(F.maps_from)
    maps_from[P] = {ident, three}
    FS = FusionSystem(G, F.sylow, 2, maps_from, "hand-built")
    with pytest.raises(FusionError, match="automorphism set is not composition-closed"):
        FS.aut_group(P)
