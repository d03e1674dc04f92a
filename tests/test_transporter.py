"""Transporter system, orbit category, product/pullback tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locus.harness import _universal_suite
from locus.locality import build_locality, delta_all_nontrivial
from locus.permgroups import o_p, sylow
from locus.transporter import (
    boxtimes,
    check_transporter_axioms,
    components_match,
    double_coset_components,
    kmax,
    KmaxData,
    mor_counts_mod_p,
    orbit_category,
    pullback,
    pullbacks,
    restriction_fixed_points,
    TransporterSystem,
    transporter_of_locality,
)

from conftest import bundled


def _setup(name, p):
    G = bundled(name)
    S = sylow(G, p)
    L = build_locality(G, S, delta_all_nontrivial(S), p)
    T, rep = transporter_of_locality(L)
    assert rep.passed, rep.failures
    OT, orep = orbit_category(T)
    assert orep.passed, orep.failures
    return G, S, L, T, OT


import functools


@functools.lru_cache(maxsize=None)
def setup_s4():
    return _setup("s4", 2)


@functools.lru_cache(maxsize=None)
def setup_a6():
    return _setup("a6", 2)


def test_mor_v4_s4_has_24_triples():
    G, S, L, T, OT = setup_s4()
    V4 = frozenset(o_p(G, 2).members)
    assert len(T.mor_elements(V4, V4)) == 24


def test_aut_T_S_of_a6_is_S():
    G, S, L, T, OT = setup_a6()
    Sset = frozenset(S.members)
    assert len(T.mor_elements(Sset, Sset)) == 8


def test_e_kernel_of_s_a6():
    G, S, L, T, OT = setup_a6()
    Sset = frozenset(S.members)
    assert len(T.e_kernel(Sset)) == 2  # Z(S) acts trivially on fusion


def test_e_kernel_is_the_kernel_of_rho_on_every_object():
    for setup in (setup_s4, setup_a6):
        G, S, L, T, OT = setup()
        for P in T.objects:
            kernel = [f for f in T.mor_elements(P, P)
                      if all(T.left_conj(x, f) == x for x in P)]
            assert T.e_kernel(P) == frozenset(kernel)


def test_axioms_pass_both():
    for setup in (setup_s4, setup_a6):
        G, S, L, T, OT = setup()
        rep = check_transporter_axioms(T)
        assert rep.passed, rep.failures


def test_morphism_factorization_iso_then_inclusion():
    G, S, L, T, OT = setup_a6()
    for P in T.objects:
        for Q in T.objects:
            for f in T.mor_elements(P, Q):
                img = frozenset(T.left_conj(x, f) for x in P)
                assert img <= Q
                assert f in T.iso_elements(P, img)


def test_orbit_mor_s_s_odd():
    G, S, L, T, OT = setup_a6()
    Sset = frozenset(S.members)
    assert len(OT.mor(Sset, Sset)) % 2 == 1


def test_mor_counts_all_odd():
    for setup in (setup_s4, setup_a6):
        G, S, L, T, OT = setup()
        for i, count in mor_counts_mod_p(OT).items():
            assert count % 2 == 1, (i, count)


def test_restriction_fixed_points_all_normal_pairs():
    for setup in (setup_s4, setup_a6):
        G, S, L, T, OT = setup()
        for P in OT.objects:
            for Q in OT.objects:
                if P < Q and G.subgroup(P).is_normal_in(G.subgroup(Q)):
                    rep = restriction_fixed_points(OT, P, Q)
                    assert rep.passed, (len(P), len(Q), rep.failures)


def test_restriction_p_equals_q_identity():
    G, S, L, T, OT = setup_a6()
    P = next(o for o in OT.objects if len(o) == 2)
    rep = restriction_fixed_points(OT, P, P)
    assert rep.passed


def test_kmax_s_source():
    G, S, L, T, OT = setup_a6()
    Sset = frozenset(S.members)
    for Q in OT.objects:
        data = kmax(T, Sset, Q)
        # morphisms from S never extend: A = S for every pair with f in Mor(S, Q)
        for A, f in data.pairs:
            if f in set(T.mor_elements(Sset, Q)):
                assert A == Sset


def test_kmax_uniqueness_s4_exhaustive():
    G, S, L, T, OT = setup_s4()
    for P in T.objects:
        for Q in T.objects:
            kmax(T, P, Q)


def test_boxtimes_universal_s4():
    G, S, L, T, OT = setup_s4()
    for P in OT.objects:
        for Q in OT.objects:
            _, rep = boxtimes(OT, P, Q)
            assert rep.passed, (len(P), len(Q), rep.failures)


def test_boxtimes_symmetric_components():
    G, S, L, T, OT = setup_s4()
    for P in OT.objects:
        for Q in OT.objects:
            b1 = boxtimes(OT, P, Q)[0]
            b2 = boxtimes(OT, Q, P)[0]
            assert sorted(len(c) for c in b1.components) == \
                sorted(len(c) for c in b2.components)


def test_boxtimes_with_s():
    G, S, L, T, OT = setup_a6()
    Sset = frozenset(S.members)
    P = next(o for o in OT.objects if len(o) == 2)
    obj, rep = boxtimes(OT, P, Sset)
    assert rep.passed
    for R in OT.objects:
        total = sum(len(OT.mor(R, A)) for A in obj.components)
        assert total == len(OT.mor(R, P)) * len(OT.mor(R, Sset))


def test_pullback_identity_cospan():
    G, S, L, T, OT = setup_s4()
    for P in OT.objects:
        ident = OT.morphism(G.identity, P, P)
        obj, rep = pullback(OT, ident, P, ident, P, P)
        assert rep.passed
        # U(id, id) is P itself up to the the orbit bookkeeping: one
        # component in the class of P of full size
        assert max(len(c) for c in obj.components) == len(P)


def test_pullback_inclusion_cospan_v4_c4_d8():
    G, S, L, T, OT = setup_s4()
    Sset = frozenset(S.members)
    V4 = frozenset(o_p(G, 2).members)
    C4 = next(o for o in OT.objects if len(o) == 4 and o != V4
              and any(G.element_order(x) == 4 for x in o))
    fP = OT.morphism(G.identity, V4, Sset)
    fQ = OT.morphism(G.identity, C4, Sset)
    obj, rep = pullback(OT, fP, V4, fQ, C4, Sset)
    assert rep.passed, rep.failures
    oracle = double_coset_components(T, V4, C4, Sset)
    assert components_match(T, V4, obj.components, oracle)
    # D8 = C4 V4, a single double coset with intersection Z of order 2
    assert len(obj.components) == 1 and len(obj.components[0]) == 2


def test_pullback_all_inclusion_cospans_match_double_cosets():
    for setup in (setup_s4, setup_a6):
        G, S, L, T, OT = setup()
        for R in OT.objects:
            subs = [P for P in OT.objects if P <= R]
            for P in subs:
                for Q in subs:
                    fP = OT.morphism(G.identity, P, R)
                    fQ = OT.morphism(G.identity, Q, R)
                    obj, rep = pullback(OT, fP, P, fQ, Q, R, verify=False)
                    oracle = double_coset_components(T, P, Q, R)
                    assert components_match(T, P, obj.components, oracle), \
                        (len(P), len(Q), len(R))


def test_pullback_universal_all_cospans_s4():
    G, S, L, T, OT = setup_s4()
    for R in OT.objects:
        for P in OT.objects:
            for Q in OT.objects:
                for fo in OT.mor(P, R):
                    for go in OT.mor(Q, R):
                        _, rep = pullback(OT, fo, P, go, Q, R)
                        assert rep.passed, (len(P), len(Q), len(R))


def _fresh_system(name):
    G = bundled(name)
    S = sylow(G, 2)
    return TransporterSystem(build_locality(G, S, delta_all_nontrivial(S), 2))


cached_system = functools.lru_cache(maxsize=None)(_fresh_system)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cached_kmax_matches_fresh_verified_kmax(data):
    name = data.draw(st.sampled_from(["s4", "a6", "a6xc3"]))
    T = cached_system(name)
    P = data.draw(st.sampled_from(T.objects))
    Q = data.draw(st.sampled_from(T.objects))
    cached = kmax(T, P, Q)
    assert kmax(T, P, Q) is cached  # computed once per (P, Q)
    fresh = kmax(_fresh_system(name), P, Q)
    assert cached.pairs == fresh.pairs
    assert cached.reps == fresh.reps
    assert cached.orbit_index == fresh.orbit_index


def _fresh_s4_transporter():
    G = bundled("s4")
    S = sylow(G, 2)
    return G, TransporterSystem(build_locality(G, S, delta_all_nontrivial(S), 2))


def test_transporter_axioms_fail_without_an_identity():
    G, T = _fresh_s4_transporter()
    P = T.objects[0]
    T._mor[(P, P)].remove(G.identity)
    T._mor_sets[(P, P)].discard(G.identity)
    failures = check_transporter_axioms(T).failures
    assert any(f.startswith("identity missing at object") for f in failures)


def test_transporter_axioms_fail_when_a_composite_is_dropped():
    G, T = _fresh_s4_transporter()
    # g o f in Mor(P, P) for f: P -> Q and g: Q -> P with Q != P, not the
    # identity, so only that composite leaves the category
    P, h = next((P, G.mul(g, f)) for P in T.objects for Q in T.objects if Q != P
                for f in T._mor[(P, Q)] for g in T._mor[(Q, P)]
                if G.mul(g, f) != G.identity)
    T._mor[(P, P)].remove(h)
    T._mor_sets[(P, P)].discard(h)
    failures = check_transporter_axioms(T).failures
    assert "composition escapes the category" in failures
    assert not any(f.startswith("identity missing") for f in failures)


def test_transporter_axioms_fail_when_an_automorphism_of_s_is_dropped():
    G, T = _fresh_s4_transporter()
    S = frozenset(T.locality.sylow.members)
    f = next(f for f in T._mor[(S, S)] if f != G.identity)
    T._mor[(S, S)].remove(f)
    T._mor_sets[(S, S)].discard(f)
    failures = check_transporter_axioms(T).failures
    for message in ["(I): eps(S) not Sylow in Aut_T(S)", "(A2): right E(P)-action escapes Mor",
                    "(II): extension morphism missing"]:
        assert message in failures


def test_transporter_axioms_fail_when_a_kernel_element_is_dropped():
    # e in E(P) has rho(e) = rho(1), so the fibre of rho over the identity
    # map is no longer an E(P)-orbit
    G, T = _fresh_s4_transporter()
    P = next(P for P in T.objects if len(P) == 2)
    e = next(e for e in sorted(T.e_kernel(P)) if e != G.identity)
    T._mor[(P, P)].remove(e)
    T._mor_sets[(P, P)].discard(e)
    assert "(A2): rho is not the E(P)-orbit map" in check_transporter_axioms(T).failures


# The orbit-category checks "orbit composition not well defined" and
# "morphism fails to be epic", and the restriction checks "restriction not
# injective" and "restriction image differs", cannot be made to fail from
# the transporter's morphism lists: the orbits are the cosets Q f of the
# group, whose products, cancellation and restrictions obey the group laws.
# That identity orbits act as identities is checked by the FiniteCategory
# constructor ("right identity fails").  The product and pullback checks
# read the kept K^max.

def _fresh_s4_orbit_category():
    G, T = _fresh_s4_transporter()
    OT, rep = orbit_category(T)
    assert rep.passed
    return G, T, OT, frozenset(T.locality.sylow.members)


def _count_kmax_orbits_twice(T, P, Q):
    data = kmax(T, P, Q)
    T._kmax[(P, Q)] = KmaxData(data.pairs, data.reps + data.reps, data.orbit_index)


def test_boxtimes_fails_when_a_kmax_orbit_is_counted_twice():
    G, T, OT, S = _fresh_s4_orbit_category()
    _count_kmax_orbits_twice(T, S, S)
    failures = boxtimes(OT, S, S)[1].failures
    assert f"product map not injective at |R|={len(S)}" in failures


def test_pullback_fails_when_a_kmax_orbit_is_counted_twice():
    G, T, OT, S = _fresh_s4_orbit_category()
    ident = OT.morphism(G.identity, S, S)
    assert pullback(OT, ident, S, ident, S, S)[1].passed
    _count_kmax_orbits_twice(T, S, S)
    failures = pullback(OT, ident, S, ident, S, S)[1].failures
    assert f"pullback universal property fails at |Rt|={len(S)}" in failures


def _failing_cospans(OT):
    """The cospans (f, g) whose per-cospan ``pullback`` check fails."""
    return sorted((f, g) for P in OT.objects for Q in OT.objects for R in OT.objects
                  for f in OT.mor(P, R) for g in OT.mor(Q, R)
                  if not pullback(OT, f, P, g, Q, R)[1].passed)


def test_universal_suite_fails_when_a_kmax_orbit_is_counted_twice():
    G, T, OT, S = _fresh_s4_orbit_category()
    assert _universal_suite(OT)["pullbacks_ok"]
    _count_kmax_orbits_twice(T, S, S)
    assert _universal_suite(OT)["pullbacks_ok"] is False
    # Mor_OT(S, S) is one morphism, and only the cospan of identities on S
    # reads the corrupted K^max_{S,S}
    ident = OT.morphism(G.identity, S, S)
    assert _failing_cospans(OT) == [(ident, ident)]


def _per_cospan_pullback(OT, f, P, g, Q):
    """The components and failing objects of U(f, g), one cospan at a time:
    the check as it stood before its block form, kept as the oracle."""
    comp = OT.cat.comp
    prod = OT._product(P, Q)
    on = comp[f, prod.iota] == comp[g, prod.lam]
    size = len(OT.cat.labels)
    joined = (np.bincount(comp[f, OT._into[OT._position[P]]], minlength=size)
              * np.bincount(comp[g, OT._into[OT._position[Q]]], minlength=size))
    solutions = np.bincount(OT._src, weights=joined, minlength=len(OT.objects))
    through = on[prod.part]
    first, second, rts = prod.first[through], prod.second[through], prod.source[through]
    bad = set(rts[comp[f, first] != comp[g, second]].tolist())
    bad |= set(np.flatnonzero(np.bincount(rts, minlength=len(OT.objects)) != solutions).tolist())
    pairs = list(zip(rts.tolist(), first.tolist(), second.tolist()))
    bad |= {rt for i, (rt, *_) in enumerate(pairs) if pairs[i] in pairs[:i]}
    return [A for (A, _), keep in zip(prod.data.reps, on.tolist()) if keep], sorted(bad)


def _s4_kmax_orbits_counted_twice():
    G, T, OT, S = _fresh_s4_orbit_category()
    _count_kmax_orbits_twice(T, S, S)
    return G, S, None, T, OT


def _s4_kmax_orbit_in_place_of_another():
    # the factorization counts stay right, so only the repeated
    # factorizations show that the product is wrong
    G, T, OT, S = _fresh_s4_orbit_category()
    P, Q = next((P, Q) for P in OT.objects for Q in OT.objects if len(kmax(T, P, Q).reps) > 1)
    data = kmax(T, P, Q)
    T._kmax[(P, Q)] = KmaxData(data.pairs, data.reps[:1] + data.reps[:1] + data.reps[2:],
                               data.orbit_index)
    return G, S, None, T, OT


@pytest.mark.parametrize("setup", [setup_s4, setup_a6, _s4_kmax_orbits_counted_twice,
                                   _s4_kmax_orbit_in_place_of_another],
                         ids=["s4", "a6", "s4-kmax-orbits-twice", "s4-kmax-orbit-replaced"])
def test_block_pullbacks_match_each_cospan(setup):
    G, S, L, T, OT = setup()
    failing = []
    for P in OT.objects:
        for Q in OT.objects:
            fs, gs = OT.cospans(P, Q)
            assert (OT._tgt[fs] == OT._tgt[gs]).all()
            assert len(fs) == sum(len(OT.mor(P, R)) * len(OT.mor(Q, R)) for R in OT.objects)
            on, fails = pullbacks(OT, P, Q, fs, gs)
            assert (pullbacks(OT, P, Q, fs, gs, verify=False)[0] == on).all()
            reps = OT._product(P, Q).data.reps
            for c, (f, g) in enumerate(zip(fs.tolist(), gs.tolist())):
                components = [A for (A, _), keep in zip(reps, on[c].tolist()) if keep]
                bad = np.flatnonzero(fails[c]).tolist()
                assert (components, bad) == _per_cospan_pullback(OT, f, P, g, Q)
                obj, rep = pullback(OT, f, P, g, Q, OT.objects[OT._tgt[f]])
                assert obj.components == components
                assert rep.failures == [f"pullback universal property fails at "
                                        f"|Rt|={len(OT.objects[rt])}" for rt in bad]
                if bad:
                    failing.append((f, g))
    assert sorted(failing) == _failing_cospans(OT)
    assert bool(failing) == (setup not in (setup_s4, setup_a6))
