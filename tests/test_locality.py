"""Locality construction, axiom checking, quotients, and O_p' tests."""

import copy
import functools
import random
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation

from locus import locality
from locus.cli import main
from locus.harness import resolve_objects
from locus.locality import (
    SAMPLE_LEN,
    Locality,
    LocalityError,
    PartialNormalSubgroup,
    build_locality,
    check_locality_axioms,
    check_partial_group,
    delta_all_nontrivial,
    delta_min_order,
    is_partial_normal,
    o_pprime_locality,
    quotient_locality,
    _choices,
    _sampled_blocks,
)
from locus.permgroups import (TABLE_ORDER_CAP, Group, all_subgroups, member_mask, parse_perm,
                             sylow)

from conftest import bundled


def punctured(name, p):
    G = bundled(name)
    S = sylow(G, p)
    return build_locality(G, S, delta_all_nontrivial(S), p)


cached_punctured = functools.lru_cache(maxsize=None)(punctured)

DIFFERENTIAL = ["s4", "a6", "a6xc3"]


def test_build_s4_punctured_carrier_full():
    L = punctured("s4", 2)
    # V4 = O_2(S4) lies in every S cap S^g
    assert len(L.carrier) == 24


def test_build_a6_carrier_by_scan():
    G = bundled("a6")
    S = sylow(G, 2)
    L = build_locality(G, S, delta_min_order(S, 4), 2)
    sm = S.members
    expected = [g for g in range(G.order)
                if len([x for x in sm if G.conj(x, g) in sm]) >= 4]
    assert list(L.carrier) == expected

    Lp = punctured("a6", 2)
    expected_p = [g for g in range(G.order)
                  if len([x for x in sm if G.conj(x, g) in sm]) > 1]
    assert list(Lp.carrier) == expected_p


def test_build_rejects_non_closed_delta():
    G = bundled("a6")
    S = sylow(G, 2)
    objs = delta_all_nontrivial(S)
    v4s = [m for m in objs if len(m) == 4 and G.subgroup(m).is_elementary_abelian(2)]
    broken = [m for m in objs if m != v4s[0]]
    with pytest.raises(LocalityError):
        build_locality(G, S, broken, 2)


def test_build_rejects_delta_not_conjugation_closed():
    # subgroups of order >= 4 plus Z(S) are overgroup-closed in S = D8, but
    # A6 conjugates the central involution onto non-central ones of S
    G = bundled("a6")
    S = sylow(G, 2)
    sm = S.members
    Z = frozenset(z for z in sm if all(G.mul(z, s) == G.mul(s, z) for s in sm))
    assert len(Z) == 2
    delta = delta_min_order(S, 4) + [Z]
    with pytest.raises(LocalityError, match="conjugation"):
        build_locality(G, S, delta, 2)
    L = cached_punctured("a6", 2)
    with pytest.raises(LocalityError, match="conjugation"):
        L.restrict(delta)
    rep = check_locality_axioms(Locality(G, S, 2, delta, L.carrier), samples=200)
    l3 = [f for f in rep.failures if f.startswith("(L3)")]
    assert l3 and all("conjugation" in f for f in l3), rep.failures


def _misses_an_image(G, S, delta):
    """Some object maps into S under some element of G onto a non-object."""
    sm = S.members
    for P in delta:
        for g in range(G.order):
            image = frozenset(G.conj(x, g) for x in P)
            if image <= sm and image not in delta:
                return True
    return False


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_build_closure_check_matches_scan_over_all_of_g(data):
    name = data.draw(st.sampled_from(["s4", "a6"]))
    G = bundled(name)
    S = sylow(G, 2)
    subs = all_subgroups(S)
    seeds = data.draw(st.lists(st.sampled_from(subs), min_size=1, max_size=3))
    delta = [Q for Q in subs if any(P <= Q for P in seeds)]
    if _misses_an_image(G, S, frozenset(delta)):
        with pytest.raises(LocalityError, match="conjugation"):
            build_locality(G, S, delta, 2)
    else:
        build_locality(G, S, delta, 2)


def test_check_partial_group_s4():
    L = punctured("s4", 2)
    assert check_partial_group(L, samples=3000).passed


def test_check_partial_group_a6():
    L = punctured("a6", 2)
    assert check_partial_group(L, samples=5000).passed


def test_locality_axioms_a6():
    L = punctured("a6", 2)
    assert check_locality_axioms(L, samples=3000).passed


def test_locality_axioms_fail_missing_object():
    G = bundled("a6")
    S = sylow(G, 2)
    objs = delta_all_nontrivial(S)
    v4s = [m for m in objs if len(m) == 4 and G.subgroup(m).is_elementary_abelian(2)]
    broken = [m for m in objs if m != v4s[0]]
    Lgood = build_locality(G, S, objs, 2)
    Lbad = Locality(G, S, 2, broken, Lgood.carrier)
    rep = check_locality_axioms(Lbad, samples=500)
    assert not rep.passed
    assert any("(L3)" in f or "(L2)" in f for f in rep.failures)


def test_locality_axioms_fail_l1_on_a_p_subgroup_above_s():
    # all of D8 over the normal Klein four V = <(1 3), (2 4)>: D8 itself is
    # a 2-subgroup of the carrier above S = V
    G = bundled("d8")
    V = G.subgroup(G.closure([G.index(parse_perm(t, 4)) for t in ("(1 3)", "(2 4)")]))
    rep = check_locality_axioms(Locality(G, V, 2, [V.members], range(G.order)), samples=300)
    assert rep.failures == ["(L1) violated: p-subgroup above S through g=2"]


def test_locality_axioms_fail_when_s_is_not_a_p_group():
    G = bundled("s4")
    C3 = sylow(G, 3)
    rep = check_locality_axioms(Locality(G, C3, 2, [C3.members], None), samples=300)
    assert rep.failures == ["S is not a p-group"]


def test_restriction_passes_axioms():
    G = bundled("a6")
    S = sylow(G, 2)
    L = punctured("a6", 2)
    Lc = L.restrict(delta_min_order(S, 4))
    assert check_locality_axioms(Lc, samples=2000).passed
    assert check_partial_group(Lc, samples=2000).passed


def test_restriction_to_s_is_normalizer():
    L = punctured("a6", 2)
    S = L.sylow
    LS = L.restrict([frozenset(S.members)])
    NS = L.local_subgroup(frozenset(S.members), "normalizer")
    assert set(LS.carrier) == set(NS.members)


def test_restriction_idempotent():
    G = bundled("a6")
    S = sylow(G, 2)
    L = punctured("a6", 2)
    once = L.restrict(delta_min_order(S, 4))
    twice = L.restrict(delta_min_order(S, 2)).restrict(delta_min_order(S, 4))
    assert once.carrier == twice.carrier
    assert once.objects == twice.objects


def test_s_sub_examples():
    L = punctured("a6", 2)
    G = L.ambient
    assert L.s_word((G.identity,)) == L.sylow.members
    g5 = next(x for x in range(G.order) if G.element_order(x) == 5)
    assert len(L.s_word((g5,))) <= 2


def test_s_sub_contained_in_s_of_product():
    import random

    L = punctured("a6", 2)
    rng = random.Random(5)
    for _ in range(300):
        w = tuple(rng.choice(L.carrier) for _ in range(rng.randint(1, 4)))
        sw = L.s_word(w)
        sprod = L.s_word((L.product(w),))
        assert sw <= sprod


def test_s_g_invariants():
    L = punctured("a6", 2)
    G = L.ambient
    for g in L.carrier:
        sg = L.s_word((g,))
        assert sg in L.objects
        sginv = L.s_word((G.inv(g),))
        assert frozenset(G.conj(x, g) for x in sg) == sginv


def test_local_subgroup_examples():
    L = punctured("a6", 2)
    G = L.ambient
    z = next(x for x in L.sylow.members
             if x != G.identity
             and all(G.mul(x, s) == G.mul(s, x) for s in L.sylow.members))
    Z = frozenset([G.identity, z])
    assert Z in L.objects
    assert L.local_subgroup(Z, "normalizer").order == 8

    L2 = punctured("a6xc3", 2)
    G2 = L2.ambient
    z2 = next(x for x in L2.sylow.members
              if x != G2.identity
              and all(G2.mul(x, s) == G2.mul(s, x) for s in L2.sylow.members))
    NZ2 = L2.local_subgroup(frozenset([G2.identity, z2]), "normalizer")
    assert NZ2.order == 24

    L3 = punctured("s4", 2)
    from locus.permgroups import o_p

    V4 = frozenset(o_p(L3.ambient, 2).members)
    NV = L3.local_subgroup(V4, "normalizer")
    assert NV.order == 24


def test_conjugation_word_composite():
    # composite of step conjugations equals conjugation by the product
    import random

    L = punctured("a6", 2)
    G = L.ambient
    rng = random.Random(11)
    for _ in range(200):
        w = tuple(rng.choice(L.carrier) for _ in range(3))
        if not L.in_domain(w):
            continue
        pairs = L.s_word_pairs(w)
        prod = L.product(w)
        for s, t in pairs:
            assert G.conj(s, prod) == t


def test_is_partial_normal():
    L = punctured("a6xc3", 2)
    G = L.ambient
    c3 = [x for x in range(G.order) if G.element_order(x) in (1, 3)
          and all(G.mul(x, y) == G.mul(y, x) for y in G.generators)]
    C3 = frozenset(x for x in c3 if G.element_order(x) == 1 or _moves_only_tail(G, x))
    assert len(C3) == 3
    ok, _ = is_partial_normal(L, C3)
    assert ok

    L6 = punctured("a6", 2)
    G6 = L6.ambient
    z = next(x for x in L6.sylow.members if x != G6.identity
             and all(G6.mul(x, s) == G6.mul(s, x) for s in L6.sylow.members))
    ok, why = is_partial_normal(L6, frozenset([G6.identity, z]))
    assert not ok and why

    ok, _ = is_partial_normal(L6, frozenset([G6.identity]))
    assert ok


def _moved_points(G, x):
    return sum(i != j for i, j in enumerate(G.perm(x)))


def test_is_partial_normal_reasons_come_in_rule_order():
    # in punctured s4 every word lies in D, as V4 = O_2(S4) lies in every S_g
    L = punctured("s4", 2)
    G = L.ambient
    x4 = next(x for x in L.sylow.members if G.element_order(x) == 4)
    a, b = (x for x in L.sylow.members if _moved_points(G, x) == 2)
    t = next(x for x in range(G.order) if _moved_points(G, x) == 2)
    # {1, x4} misses x4^-1 and x4^2; {1, a, b} misses ab and its conjugates
    for mem, reason in [({x4}, f"not inversion-closed at {x4}"),
                        ({a, b}, "product escapes at ("),
                        ({t}, f"conjugate {t}^")]:
        ok, why = is_partial_normal(L, mem | {G.identity})
        assert not ok and why.startswith(reason), why


def test_partial_closure_is_the_least_closed_set():
    L = punctured("a6xc3", 2)
    C3 = _c3_factor(L)
    assert locality._partial_closure(L, frozenset([max(C3)])) == C3
    assert locality._partial_closure(L, C3) == C3
    # a transposition of s4 closes to all of S4 only once the products of
    # its conjugates are taken
    L4 = punctured("s4", 2)
    G4 = L4.ambient
    t = next(x for x in range(G4.order) if _moved_points(G4, x) == 2)
    assert locality._partial_closure(L4, frozenset([t])) == frozenset(range(G4.order))


def _moves_only_tail(G, x):
    p = G.perm(x)
    return all(p[i] == i for i in range(6)) and any(p[i] != i for i in range(6, 9))


def _c3_factor(L):
    G = L.ambient
    return frozenset(
        x for x in range(G.order)
        if G.element_order(x) == 1 or (G.element_order(x) == 3 and _moves_only_tail(G, x)))


def test_quotient_locality_a6xc3():
    L = punctured("a6xc3", 2)
    G = L.ambient
    C3 = _c3_factor(L)
    N = PartialNormalSubgroup(L, C3)
    q = quotient_locality(L, N)
    assert q.report.passed
    assert len(q.locality.carrier) * 3 == len(L.carrier)
    # preimage of S-bar equals NS: 3 * 8 = 24 elements
    sbar = {q.projection[s] for s in L.sylow.members}
    preim = [x for x in L.carrier if q.projection[x] in sbar]
    assert len(preim) == 24
    assert check_locality_axioms(q.locality, samples=1500).passed


def test_quotient_ambient_is_tabled_and_checks_as_untabled():
    # M/K is tabled like every bundled ambient group; the untabled scalar
    # path of a copy of M/K without its tables is the oracle
    L = cached_punctured("a6xc3", 2)
    Lbar = quotient_locality(L, PartialNormalSubgroup(L, _c3_factor(L))).locality
    Q = Lbar.ambient
    assert Q._mul_table is not None and Q._conj_table is not None
    bare = copy.copy(Q)
    bare._mul_table = bare._conj_table = None
    untabled = Locality(bare, bare.subgroup(Lbar.sylow.members), Lbar.prime,
                        Lbar.objects, Lbar.carrier, name=Lbar.name)
    for check in (check_partial_group, check_locality_axioms):
        tabled = check(Lbar, samples=400).as_dict()
        assert tabled["passed"]
        assert check(untabled, samples=400).as_dict() == tabled


def test_quotient_by_trivial_is_identity():
    L = punctured("s4", 2)
    G = L.ambient
    N = PartialNormalSubgroup(L, frozenset([G.identity]))
    q = quotient_locality(L, N)
    assert len(q.locality.carrier) == len(L.carrier)
    assert q.locality.ambient.order == G.order


def test_o_pprime_punctured_a6_trivial():
    L = punctured("a6", 2)
    N, route = o_pprime_locality(L)
    assert N.order == 1
    assert route == "locally-trivial"


def test_o_pprime_a6xc3():
    L = punctured("a6xc3", 2)
    N, route = o_pprime_locality(L)
    assert N.order == 3
    assert N.members == _c3_factor(L)


def test_o_pprime_centric_a6_trivial():
    G = bundled("a6")
    S = sylow(G, 2)
    L = build_locality(G, S, delta_min_order(S, 4), 2)
    N, _ = o_pprime_locality(L)
    assert N.order == 1


def test_quotient_by_o_pprime_is_reduced():
    L = punctured("a6xc3", 2)
    N, _ = o_pprime_locality(L)
    q = quotient_locality(L, N)
    N2, _ = o_pprime_locality(q.locality)
    assert N2.order == 1


@pytest.mark.slow
def test_small_cover_locality_is_normalizer():
    # For the order-60480 cover with extraspecial Sylow 3-subgroup, the
    # locality on subgroups of order >= 9 collapses to N_M(S), and fusion
    # is controlled by that normalizer.
    M = bundled("sl3_4")
    S = sylow(M, 3)
    assert S.order == 27 and max(M.element_order(x) for x in S.members) == 3
    sm = S.members
    carrier = [g for g in range(M.order)
               if len([x for x in sm if M.conj(x, g) in sm]) >= 9]
    NS = [g for g in range(M.order)
          if all(M.conj(x, g) in sm for x in S.gens())]
    assert carrier == NS

    from locus.fusion import fusion_of_group
    from locus.locality import as_group

    FM = fusion_of_group(M, S, 3)
    NSg = as_group(M, M.subgroup(NS, name="N_M(S)"))
    NSg.build_tables()
    Ssub = NSg.subgroup({NSg.index(M.perm(x)) for x in S.members})
    FNS = fusion_of_group(NSg, Ssub, 3)
    # compare after transporting along the identity on S
    for P in FM.subgroups:
        moved = {tuple(sorted((NSg.index(M.perm(x)), NSg.index(M.perm(y)))
                             for x, y in k))
                 for k in FM.maps_from[P]}
        Ploc = frozenset(NSg.index(M.perm(x)) for x in P)
        assert moved == FNS.maps_from[Ploc]


# -- differential tests of the word-domain engine -----------------------------

def _pair_tracked_s_word(L, word):
    """S_w from the step-wise pair tracking of s_word_pairs."""
    return frozenset(s for s, _ in L.s_word_pairs(word))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_s_word_matches_pair_tracking(data):
    L = cached_punctured(data.draw(st.sampled_from(DIFFERENTIAL)), 2)
    word = tuple(data.draw(st.lists(
        st.integers(0, L.ambient.order - 1), max_size=5)))
    assert L.s_word(word) == _pair_tracked_s_word(L, word)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_memoized_conj_element_matches_fresh_domain_test(data):
    L = cached_punctured(data.draw(st.sampled_from(DIFFERENTIAL)), 2)
    G = L.ambient
    x = data.draw(st.sampled_from(L.carrier))
    g = data.draw(st.sampled_from(L.carrier))
    word = (G.inv(g), x, g)
    in_d = (all(h in L.carrier_set for h in word)
            and _pair_tracked_s_word(L, word) in L.objects)
    expected = G.conj(x, g) if in_d else None
    assert L.conj_element(x, g) == expected
    assert L.conj_element(x, g) == expected  # second call comes from the memo


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_conj_set_matches_the_per_element_definition(data):
    L = cached_punctured(data.draw(st.sampled_from(["s4", "a6"])), 2)
    G = L.ambient
    members = data.draw(st.one_of(st.sampled_from(L.sorted_objects),
                                  st.frozensets(st.sampled_from(L.carrier), max_size=4)))
    g = data.draw(st.sampled_from(L.carrier))
    defined = [all(h in L.carrier_set for h in (G.inv(g), x, g))
               and _pair_tracked_s_word(L, (G.inv(g), x, g)) in L.objects for x in members]
    expected = frozenset(G.conj(x, g) for x in members) if all(defined) else None
    assert L.conj_set(members, g) == expected


# state-graph sizes of the punctured localities at p = 2, as recorded before
# states were keyed by (product, S_w mask)
SEED_STATES = {
    "s4": (24, 32, 32),
    "a6": (104, 504, 608),
    "a6xc3": (312, 1512, 1824),
}


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_state_counts_match_seed(name):
    L = punctured(name, 2)
    r1 = check_partial_group(L, samples=50)
    r2 = check_locality_axioms(L, samples=50)
    assert r1.passed and r2.passed
    want = SEED_STATES[name]
    assert tuple(r1.stats[f"states_len{k}"] for k in (1, 2, 3)) == want
    assert tuple(r2.stats[f"L2_states_len{k}"] for k in (1, 2, 3)) == want


def _group(degree, cycles, name):
    G = Group(degree, [parse_perm(t, degree) for t in cycles], name=name)
    G.build_tables()  # no-op above TABLE_ORDER_CAP
    return G


@functools.lru_cache(maxsize=None)
def a5xc3_cubed():
    """The punctured locality of A5 x C3^3 at p = 2 (order 1620, untabled)."""
    G = _group(14, ["(1 2 3 4 5)", "(1 2 3)", "(6 7 8)", "(9 10 11)", "(12 13 14)"],
               "a5xc3^3")
    S = sylow(G, 2)
    return build_locality(G, S, delta_all_nontrivial(S), 2)


def test_untabled_a5xc3_cubed_checkers_give_verdicts():
    # A5 x C3^3 has order 1620, above the table cap of build_tables, so the
    # checkers run on the untabled Group.mul / Group.conj path (they once
    # raised TypeError here).
    L = a5xc3_cubed()
    assert L.ambient.order == 1620 > TABLE_ORDER_CAP
    assert check_partial_group(L, samples=300).passed
    assert check_locality_axioms(L, samples=200).passed


# -- sampled words in blocks ----------------------------------------------------

def _cycle(first, last):
    return "(" + " ".join(str(i) for i in range(first, last + 1)) + ")"


@functools.lru_cache(maxsize=None)
def c128_times_s3():
    """C128 x S3 on 131 points, left untabled, with every element in the
    carrier.  |S| = 256, so a mask row is four uint64 words, and the C128
    members, which S_g keeps for g outside N(S), sit on every other bit."""
    G = Group(131, [parse_perm(t, 131) for t in (_cycle(1, 128), "(129 130 131)",
                                                 "(129 130)")], name="c128xs3")
    S = sylow(G, 2)
    return Locality(G, S, 2, [S.members], range(G.order))


BLOCK_CASES = {
    "s4": lambda: cached_punctured("s4", 2),
    "a6": lambda: cached_punctured("a6", 2),
    "a6xc3": lambda: cached_punctured("a6xc3", 2),
    "a5xc3^3": a5xc3_cubed,
    "c128xs3": c128_times_s3,
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_block_products_and_masks_match_word_oracles(case, monkeypatch):
    L = BLOCK_CASES[case]()
    G = L.ambient
    monkeypatch.setattr(locality, "SAMPLE_BLOCK", 700)  # several blocks, one short
    for min_len in (1, 2):
        sampled = 0
        for block in _sampled_blocks(L, 2000, 11, min_len):
            assert len(block.lengths) <= 700
            for i in range(len(block.lengths)):
                w = block.word(i)
                assert min_len <= len(w) <= SAMPLE_LEN and set(w) <= L.carrier_set
                assert (block.letters[i, len(w):] == G.identity).all()
                assert block.products[i] == G.word(w)
                assert block.masks[block.which[i]] == L._word_mask(w)
                assert block.in_domain[i] == L.in_domain(w)
            sampled += len(block.lengths)
        assert sampled == 2000
    if case == "c128xs3":
        assert L.mask_rows().shape == (G.order, 4)
        assert set(L._masks) == {L._full_mask, sum(1 << i for i in range(0, 256, 2))}


def test_checkers_pass_with_masks_wider_than_64_bits():
    # C128 as one 128-cycle at p = 2: S = G, so every mask has 128 bits
    G = _group(128, [_cycle(1, 128)], "c128")
    S = sylow(G, 2)
    L = build_locality(G, S, delta_all_nontrivial(S), 2)
    assert L.mask_rows().shape == (128, 2)
    r1 = check_partial_group(L, samples=2000)
    r2 = check_locality_axioms(L, samples=2000)
    assert r1.passed and r2.passed, (r1.failures, r2.failures)
    assert r1.stats["sampled_full_battery"] == 1500


def test_corrupt_min_masks_make_the_domain_test_inconsistent(monkeypatch):
    L = copy.copy(cached_punctured("s4", 2))
    L._min_masks = (L._full_mask,)  # as if S were the only minimal object
    monkeypatch.setattr(locality, "SAMPLE_BLOCK", 500)
    rep = check_partial_group(L, samples=20_000)
    assert not rep.passed
    assert all(f.startswith("domain test inconsistent") for f in rep.failures)
    assert len(rep.failures) == 6  # each block fails; stops after more than five


def test_zero_samples_pass_with_zero_sampled_stats():
    L = cached_punctured("s4", 2)
    r1 = check_partial_group(L, samples=0)
    r2 = check_locality_axioms(L, samples=0)
    assert r1.passed and r2.passed
    assert (r1.stats["sampled_words"], r1.stats["sampled_full_battery"]) == (0, 0)
    assert r2.stats["L2_sampled"] == 0


def _check_peak(L, samples):
    tracemalloc.start()
    try:
        check_partial_group(L, samples=samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_check_partial_group_memory_is_bounded_by_blocks():
    L = cached_punctured("s4", 2)
    check_partial_group(L, samples=10)  # the state graph and mask rows, once
    assert _check_peak(L, 400_000) <= 1.5 * _check_peak(L, 100_000)


# -- the seeded draws and the object-transport table ------------------------------

@pytest.mark.parametrize("seed", [2024, 2025, -3, 0, 2**70])
def test_vectorized_choices_replay_random_choices(seed):
    # at n = 2**53 an index is random() * 2**53 itself, so every bit counts
    sizes = [1, 4, len(cached_punctured("s4", 2).carrier),
             len(cached_punctured("a6", 2).carrier), 2**53]
    for n in sizes:
        for k in (1, 3001, 8192):
            reference, replay = random.Random(seed), random.Random(seed)
            expected = reference.choices(range(n), k=k)
            drawn = _choices(replay, n, k)
            assert drawn.dtype == np.intp and drawn.tolist() == expected, (n, k)
            assert replay.random() == reference.random(), (n, k)


def test_locality_check_s4_at_a_negative_seed_passes(capsys):
    assert main(["locality-check", "--group", "s4", "--seed", "-3"]) == 0


def centric(name, p):
    G = bundled(name)
    S = sylow(G, p)
    return build_locality(G, S, resolve_objects(G, S, p, "centric"), p)


@pytest.mark.parametrize("make", [lambda: punctured("s4", 2), lambda: centric("a6", 2)],
                         ids=["punctured-s4", "centric-a6"])
def test_transport_table_matches_sympy_conjugation(make):
    L = make()
    G = L.ambient
    perm = [Permutation(list(G.perm(x))) for x in range(G.order)]
    for P in L.sorted_objects:
        for g in L.carrier:
            image = frozenset(G.index(tuple((perm[x] ^ perm[g]).array_form)) for x in P)
            assert L.transport(P, g) == (image if image in L.objects else None), (P, g)
    assert len(L._transport) == len(L.objects) * len(L.carrier)


def _own_table(L):
    """A shallow copy of L whose object-transport table is its own (a
    shallow copy shares every memo dict with L)."""
    twin = copy.copy(L)
    twin._transport = {}
    return twin


def test_transport_entry_lost_fails_chain_construction():
    cached = cached_punctured("s4", 2)
    L = _own_table(cached)
    S = L.sylow.members
    g = min(S - {L.ambient.identity})
    assert L.transport(S, g) == S
    L._transport[(S, g)] = None  # S^g = S, reached by every word over S
    rep = check_locality_axioms(L, samples=2000)
    assert [f.split(" for ")[0] for f in rep.failures] == ["(L2) chain construction failed"]
    assert check_locality_axioms(cached, samples=2000).passed


def _last_step_of_word_outside_d(L, samples, seed):
    """(Q, g): a minimal object tracks through a sampled word outside D up
    to Q, and the word's last letter g does not carry Q to an object."""
    for block in _sampled_blocks(L, samples, seed, 1):
        for i in np.flatnonzero(~block.in_domain):
            *head, g = block.word(i)
            for Q in L.min_objects:
                for h in head:
                    Q = L.transport(Q, h)
                    if Q is None:
                        break
                if Q is not None:
                    return Q, g
    raise AssertionError("no sampled word outside D ends a chain walk")


def test_transport_entry_invented_finds_a_chain_outside_d():
    cached = cached_punctured("a6", 2)
    L = _own_table(cached)
    Q, g = _last_step_of_word_outside_d(L, 2000, 2024 + 1)
    assert L.transport(Q, g) is None
    L._transport[(Q, g)] = Q
    rep = check_locality_axioms(L, samples=2000)
    assert [f.split(": ")[0] for f in rep.failures] == ["(L2) found chain for word outside D"]
    assert check_locality_axioms(cached, samples=2000).passed


# -- where the word battery fails ------------------------------------------------

def _without_object_mask(L, i):
    """A copy of L whose domain test no longer counts ``L.sorted_objects[i]``
    an object; its state graph is L's, built before the copy."""
    L.state_graph()
    bad = copy.copy(L)
    bad._object_masks = L._object_masks - {L._mask_of(L.sorted_objects[i])}
    return bad


def _with_product(L, a, b):
    """A copy of L whose ambient group sends a * b to another carrier
    element with the same S-mask, so that only products move and no domain
    verdict does; its state graph is L's, built before the copy."""
    L.state_graph()
    G = L.ambient
    x = G.mul(a, b)
    c = next(c for c in L.carrier
             if c not in (x, G.identity) and L._masks[c] == L._masks[x])
    bad_group = copy.copy(G)
    bad_group._mul_table = array("H", G._mul_table)
    bad_group._mul_table[a * G.order + b] = c
    bad = copy.copy(L)
    bad.ambient = bad_group
    return bad


# a6 punctured: sorted_objects[0] is Z(S), [5] a four-group over it, [-1] S
@pytest.mark.parametrize("corrupt, first", [
    (lambda: _without_object_mask(cached_punctured("a6", 2), -1),
     "subword (68,) of domain word (151, 68, 224) not in D"),
    (lambda: _without_object_mask(cached_punctured("a6", 2), 5),
     "spliced word (10,) of (151, 68, 224) not in D"),
    (lambda: _with_product(cached_punctured("s4", 2), 23, 10),
     "splice changes product on (1, 18, 14, 10)"),
    (lambda: _without_object_mask(cached_punctured("a6", 2), 0),
     "w^-1 o w not in D for (63, 167, 10, 6)"),
    (lambda: _with_product(cached_punctured("s4", 2), 16, 13),
     "Pi(w^-1 o w) != 1 for (10, 19, 20)"),
], ids=["subword", "splice-domain", "splice-product", "inverse-domain", "inverse-product"])
def test_battery_failure_sites(corrupt, first):
    rep = check_partial_group(corrupt(), samples=3000)
    assert rep.failures[:1] == [first], rep.failures


# -- the block checkers against the per-word definitions ---------------------------

def _scalar_battery(L, word):
    """The first battery failure of a word in D, or None: every derived word
    decided by ``in_domain`` and multiplied out by ``product`` on its own."""
    G = L.ambient
    if not L.in_domain(word):
        return None
    n = len(word)
    for i in range(n):
        for j in range(i + 1, n + 1):
            if not L.in_domain(word[i:j]):
                return f"subword {word[i:j]} of domain word {word} not in D"
    total = L.product(word)
    for i in range(n):
        for j in range(i + 1, n + 1):
            spliced = word[:i] + (L.product(word[i:j]),) + word[j:]
            if not L.in_domain(spliced):
                return f"spliced word {spliced} of {word} not in D"
            if L.product(spliced) != total:
                return f"splice changes product on {word}"
    inv_word = tuple(G.inv(g) for g in reversed(word))
    if not L.in_domain(inv_word + word):
        return f"w^-1 o w not in D for {word}"
    if L.product(inv_word + word) != G.identity:
        return f"Pi(w^-1 o w) != 1 for {word}"
    return None


def _scalar_walk(L, P, word):
    """P carried through the word a letter at a time by the transport table,
    or None once a step leaves Delta."""
    for g in word:
        if P is None:
            break
        P = L.transport(P, g)
    return P


def _scalar_witness_end(L, word):
    """The last object of the chain from S_w through the word, or None."""
    sw = L.s_word(word)
    return _scalar_walk(L, sw, word) if sw in L.objects else None


def _scalar_search(L, word):
    """Whether some minimal object tracks through the whole word."""
    return any(_scalar_walk(L, P, word) is not None for P in L.min_objects)


@functools.lru_cache(maxsize=None)
def c128():
    """The punctured locality of C128 as one 128-cycle: S = G, 128-bit masks."""
    G = _group(128, [_cycle(1, 128)], "c128")
    S = sylow(G, 2)
    return build_locality(G, S, delta_all_nontrivial(S), 2)


def _lost_transport_entries():
    """A copy of s4 punctured in which no object is carried by one letter."""
    L = _own_table(cached_punctured("s4", 2))
    for P in L.objects:
        L._transport[(P, L.carrier[1])] = None
    return L


def _without_carrier_elements():
    """A copy of a6 punctured whose carrier misses a tenth of its own."""
    L = copy.copy(cached_punctured("a6", 2))
    L.carrier = tuple(g for i, g in enumerate(L.carrier) if i % 10 != 5)
    L.carrier_set = frozenset(L.carrier)
    return L


DIFFERENTIAL_CASES = {
    "s4": lambda: cached_punctured("s4", 2),
    "a6": lambda: cached_punctured("a6", 2),
    "a6-centric": functools.lru_cache(maxsize=None)(lambda: centric("a6", 2)),
    "c128": c128,
    "a5xc3^3-untabled": a5xc3_cubed,
    "a6-without-S": lambda: _without_object_mask(cached_punctured("a6", 2), -1),
    "a6-without-a-four-group": lambda: _without_object_mask(cached_punctured("a6", 2), 5),
    "a6-without-Z(S)": lambda: _without_object_mask(cached_punctured("a6", 2), 0),
    "s4-bad-product": lambda: _with_product(cached_punctured("s4", 2), 23, 10),
    "s4-lost-transport-entries": _lost_transport_entries,
    "a6-without-carrier-elements": _without_carrier_elements,
}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_block_verdicts_match_the_per_word_definitions(data):
    L = DIFFERENTIAL_CASES[data.draw(st.sampled_from(sorted(DIFFERENTIAL_CASES)))]()
    G = L.ambient
    letter = st.one_of(st.sampled_from(L.carrier), st.integers(0, G.order - 1))
    drawn = [tuple(w) for w in data.draw(st.lists(
        st.lists(letter, min_size=1, max_size=SAMPLE_LEN), max_size=8))]
    # and words as the checkers sample them, most of them in D
    block = next(_sampled_blocks(L, 40, data.draw(st.integers(0, 2**32)), 1))
    words = drawn + [block.word(i) for i in range(40)]
    letters = np.full((len(words), SAMPLE_LEN), G.identity, dtype=np.intp)
    for i, w in enumerate(words):
        letters[i, :len(w)] = w
    lengths = np.array([len(w) for w in words])
    every = np.ones(len(words), dtype=bool)

    battery = locality._battery_failures(L, letters, lengths, member_mask(G, L.carrier_set))
    assert battery == [(i, m) for i, w in enumerate(words)
                       if (m := _scalar_battery(L, w)) is not None]
    ends = locality._witness_ends(L, letters, lengths, every)
    assert [L.sorted_objects[e] if e >= 0 else None for e in ends.tolist()] == [
        _scalar_witness_end(L, w) for w in words]
    hits = locality._search_hits(L, letters, lengths, every)
    assert hits.tolist() == [_scalar_search(L, w) for w in words]
    # a word left out gets no witness and no search
    some = np.arange(len(words)) % 2 == 0
    assert (locality._witness_ends(L, letters, lengths, some)[~some] == -1).all()
    assert not locality._search_hits(L, letters, lengths, some)[~some].any()
