"""Tests for the permutation-group core."""

import pytest

from locus.permgroups import (
    GroupError,
    all_subgroups,
    center,
    centralizer,
    char_p_tests,
    is_prime,
    load_group,
    normalizer,
    o_p,
    o_pprime,
    p_part,
    quotient_group,
    subgroups_up_to_conjugacy,
    sylow,
    transporter,
)

from conftest import bundled


def test_p_part_matches_sympy_factorint():
    from sympy import factorint

    for n in range(1, 2001):
        factors = factorint(n)
        for p in (2, 3, 5):
            assert p_part(n, p) == p ** factors.get(p, 0), (n, p)
            assert (p_part(n, p) == n) == (set(factors) <= {p}), (n, p)


def test_load_s4_from_cycles():
    G = load_group("degree 4; (1 2); (1 2 3 4)".replace(";", "\n"))
    assert G.order == 24


def test_load_a6_order_by_closure():
    # oracle: orbit-stabilizer closure of the two generators gives 360
    G = load_group("degree 6\n(1 2 3 4 5)\n(4 5 6)")
    assert G.order == 360


def test_load_single_3_cycle():
    G = load_group("degree 4\n(1 2 3)")
    assert G.order == 3


def test_load_rejects_garbage():
    with pytest.raises(GroupError):
        load_group("degree 4\n(1 2 3")
    with pytest.raises(GroupError):
        load_group("(1 2)\ndegree 4")


def test_order_cap_enforced():
    with pytest.raises(GroupError):
        load_group("degree 6\n(1 2 3 4 5)\n(4 5 6)", order_cap=100)


def test_group_invariants_s4():
    G = bundled("s4")
    assert G.perm(G.identity) == (0, 1, 2, 3)
    for x in range(G.order):
        assert G.mul(x, G.inv(x)) == G.identity
    # closure spot check on all pairs
    for a in range(G.order):
        for b in range(G.order):
            assert 0 <= G.mul(a, b) < G.order


def test_sylow_orders():
    S4 = bundled("s4")
    assert sylow(S4, 3).order == 3
    assert sylow(S4, 2).order == 8
    A6 = bundled("a6")
    assert sylow(A6, 5).order == 5
    S = sylow(A6, 2)
    assert S.order == 8
    # dihedral presentation check: has an element of order 4 and 5 involutions
    orders = sorted(A6.element_order(x) for x in S.members)
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]


def test_sylow_deterministic():
    from locus.harness import load_bundled

    # a second load of the group builds its Sylow subgroup afresh
    assert sylow(bundled("a6"), 2).members == sylow(load_bundled("a6"), 2).members


def test_sylow_built_once_per_prime(monkeypatch):
    import locus.permgroups as pg

    grown = []
    grow = pg._grow_sylow
    monkeypatch.setattr(pg, "_grow_sylow", lambda G, p: grown.append(p) or grow(G, p))
    G = load_group("degree 4\n(1 2 3 4)\n(1 2)", name="S4")
    assert sylow(G, 2).members == sylow(G, 2).members and o_p(G, 2).order == 4
    assert sylow(G, 3).order == 3
    assert grown == [2, 3]


def test_sylow_memo_leaves_no_reference_cycle():
    import gc
    import weakref

    G = load_group("degree 4\n(1 2 3 4)\n(1 2)", name="S4")
    all_subgroups(sylow(G, 2))
    ref = weakref.ref(G)
    gc.disable()
    try:
        del G
        assert ref() is None  # freed without waiting for the cycle collector
    finally:
        gc.enable()


@pytest.mark.parametrize("p", [-3, 0, 1])
def test_p_part_rejects_p_below_2(deadline, p):
    with pytest.raises(GroupError, match=f"p = {p} is not a prime"):
        p_part(24, p)


def test_is_prime_matches_sympy():
    from sympy import isprime

    assert [n for n in range(-5, 2000) if is_prime(n)] == [
        n for n in range(-5, 2000) if isprime(n)]


@pytest.mark.parametrize("n", [0, -8])
def test_p_part_rejects_n_below_1(deadline, n):
    # p_part(0, 2) once divided 0 by 2 forever
    with pytest.raises(GroupError, match=f"n = {n} has no p-part"):
        p_part(n, 2)


def test_subgroup_lattice_built_once():
    S = sylow(bundled("a6"), 2)
    lattice = all_subgroups(S)
    assert all_subgroups(S) is lattice
    assert isinstance(lattice, tuple)
    # a fresh Subgroup object with the same members rebuilds the same lattice
    assert all_subgroups(S.parent.subgroup(S.members)) == lattice
    assert list(lattice) == sorted(lattice, key=lambda m: (len(m), sorted(m)))


def test_sylow_conjugacy_small_group():
    # every 2-subgroup of S4 lies in a conjugate of the computed Sylow
    G = bundled("s4")
    S = sylow(G, 2)
    conjugates = {S.conjugate_set(g) for g in range(G.order)}
    for mem in all_subgroups(G.full_subgroup()):
        H = G.subgroup(mem)
        if H.is_p_group(2):
            assert any(mem <= c for c in conjugates)


def test_transporter_v4_normal():
    G = bundled("s4")
    V4 = G.subgroup([x for x in range(G.order)
                     if G.perm(x) == (0, 1, 2, 3) or sorted(
                         G.element_order(y) for y in [x]) == [2]
                     and G.perm(x)[0] != 0 and _is_double_transposition(G.perm(x))])
    # build V4 explicitly instead: the double transpositions plus identity
    members = [G.identity] + [x for x in range(G.order)
                              if _is_double_transposition(G.perm(x))]
    V4 = G.subgroup(members)
    assert V4.order == 4
    assert len(transporter(G, V4, V4)) == 24


def _is_double_transposition(p):
    moved = [i for i in range(len(p)) if p[i] != i]
    return len(moved) == 4 and all(p[p[i]] == i for i in moved)


def test_transporter_between_3_cycles():
    G = bundled("s4")
    a = G.index((1, 2, 0, 3))  # (1 2 3)
    b = G.index((1, 3, 2, 0))  # (1 2 4)
    P = G.generated_subgroup([a])
    Q = G.generated_subgroup([b])
    t = transporter(G, P, Q)
    # oracle: direct scan says 6 elements conjugate one 3-cycle group to the other
    direct = [g for g in range(G.order)
              if all(G.conj(x, g) in Q.members for x in P.members)]
    assert t == direct
    assert len(t) == 6


def test_transporter_composition_property():
    G = bundled("s4")
    subs = [G.subgroup(m) for m in all_subgroups(G.full_subgroup()) if len(m) <= 4]
    import random
    rng = random.Random(7)
    for _ in range(40):
        P, Q, R = rng.choice(subs), rng.choice(subs), rng.choice(subs)
        tPQ = transporter(G, P, Q)
        tQR = transporter(G, Q, R)
        tPR = set(transporter(G, P, R))
        for a in tPQ[:5]:
            for b in tQR[:5]:
                assert G.mul(a, b) in tPR


def test_normalizer_of_a6_sylow_is_itself():
    A6 = bundled("a6")
    S = sylow(A6, 2)
    N = normalizer(A6, S)
    assert N.order == 8
    assert N.members == S.members


def test_char_p_tests_s4():
    G = bundled("s4")
    rec = char_p_tests(G, 2)
    assert rec["O_p"].order == 4  # V4
    assert rec["is_characteristic_p"] is True
    assert rec["is_p_constrained"] is True
    assert rec["O_pprime"].order == 1


def test_char_p_tests_c6():
    G = load_group("degree 5\n(1 2)\n(3 4 5)", name="C6")
    assert G.order == 6
    rec = char_p_tests(G, 2)
    assert rec["is_characteristic_p"] is False
    assert rec["O_pprime"].order == 3


def test_char_p_tests_a6xc3():
    G = bundled("a6xc3")
    rec = char_p_tests(G, 2)
    assert rec["O_pprime"].order == 3
    assert rec["O_p"].order == 1


def test_op_in_every_sylow():
    for name, p in [("s4", 2), ("a6", 2), ("ext27_sd16", 3)]:
        G = bundled(name)
        Op = o_p(G, p)
        S = sylow(G, p)
        assert Op.members <= S.members
        Opp = o_pprime(G, p)
        assert Opp.members & S.members == {G.identity}


def test_subgroup_classes_d8():
    G = bundled("d8")
    classes = subgroups_up_to_conjugacy(G.full_subgroup())
    # oracle: exhaustive lattice of D8 has 10 subgroups in 8 classes
    assert sum(len(c) for c in classes) == 10
    assert len(classes) == 8


def test_subgroup_classes_cyclic():
    C2 = load_group("degree 2\n(1 2)")
    assert len(subgroups_up_to_conjugacy(C2.full_subgroup())) == 2
    C4 = load_group("degree 4\n(1 2 3 4)")
    assert len(subgroups_up_to_conjugacy(C4.full_subgroup())) == 3


def test_quotient_s4_by_v4():
    G = bundled("s4")
    V4 = o_p(G, 2)
    Q, proj = quotient_group(G, V4)
    assert Q.order == 6
    # projection is a homomorphism
    for a in range(0, G.order, 5):
        for b in range(0, G.order, 7):
            assert proj[G.mul(a, b)] == Q.mul(proj[a], proj[b])


def test_quotient_a6xc3_by_c3():
    G = bundled("a6xc3")
    C3 = o_pprime(G, 2)
    Q, _ = quotient_group(G, C3)
    assert Q.order == 360


@pytest.mark.parametrize("name, normal", [("s4", lambda G: o_p(G, 2)),
                                          ("d8", center),
                                          ("a6xc3", lambda G: o_pprime(G, 2))])
def test_quotient_projection_is_the_permutation_each_element_induces(name, normal):
    # Q acts on the cosets Nx, numbered by their least elements in order;
    # proj[x] must be the permutation Nr -> Nrx of every x, not only of the
    # coset representatives it is computed from
    G = bundled(name)
    N = normal(G)
    Q, proj = quotient_group(G, N)
    least = [min(G.mul(n, x) for n in N.members) for x in range(G.order)]
    reps = sorted(set(least))
    number = {r: i for i, r in enumerate(reps)}
    for x in range(G.order):
        induced = tuple(number[least[G.mul(r, x)]] for r in reps)
        assert Q.perm(proj[x]) == induced


def test_quotient_d8_by_center_elementary():
    G = bundled("d8")
    Z = center(G)
    assert Z.order == 2
    Q, _ = quotient_group(G, Z)
    assert Q.order == 4
    assert all(Q.element_order(x) <= 2 for x in range(Q.order))


def test_centralizer_pointwise():
    G = bundled("a6")
    S = sylow(G, 2)
    Z = center(Group_of(S))
    # centralizer of the central involution of a Sylow 2-subgroup is that Sylow
    z = next(x for x in S.members
             if x != G.identity and all(G.mul(x, s) == G.mul(s, x) for s in S.members))
    C = centralizer(G, G.subgroup([G.identity, z]))
    assert C.order == 8


def Group_of(S):
    """View a subgroup as its own Group on the same points (helper)."""
    from locus.permgroups import Group

    G = S.parent
    return Group(G.degree, [G.perm(x) for x in S.gens()])


def test_p_constrained_quotient_has_characteristic_p():
    # whenever a bundled group is p-constrained, dividing by O_p' leaves a
    # group of characteristic p
    from locus.permgroups import quotient_group

    for name, p in [("s4", 2), ("a6", 2), ("a6xc3", 2), ("d8", 2),
                    ("sd16", 2), ("es27", 3), ("ext27_sd16", 3)]:
        G = bundled(name)
        rec = char_p_tests(G, p)
        if not rec["is_p_constrained"]:
            continue
        Opp = rec["O_pprime"]
        if Opp.order == 1:
            assert rec["is_characteristic_p"], name
            continue
        Q, _ = quotient_group(G, Opp)
        assert char_p_tests(Q, p)["is_characteristic_p"], name
