"""Bar-resolution cohomology, restriction, transfer, and Mackey tests."""

import tracemalloc
from functools import lru_cache
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locus import cohomology
from locus.catlimits import ModuleFunctor, higher_limits
from locus.cohomology import (
    MEMORY_BUDGET_ENV,
    BudgetError,
    CohomologyFamily,
    FpCohomology,
    mackey_square,
    restriction_map,
    transfer_along,
    transfer_map,
)
from locus.permgroups import GroupError, all_subgroups, load_group, o_p, sylow

from conftest import bundled, labelled_category


def _c2():
    return load_group("degree 2\n(1 2)", name="C2")


def _v4():
    return load_group("degree 4\n(1 2)\n(3 4)", name="V4")


def test_dims_c2():
    G = _c2()
    H = FpCohomology(G, G.full_subgroup(), 2, 4)
    assert H.dims() == [1, 1, 1, 1, 1]


def test_dims_v4():
    G = _v4()
    H = FpCohomology(G, G.full_subgroup(), 2, 2)
    assert H.dims() == [1, 2, 3]


def test_dims_d8():
    G = bundled("d8")
    H = FpCohomology(G, G.full_subgroup(), 2, 3)
    assert H.dims() == [1, 2, 3, 4]


@pytest.mark.parametrize("group, p", [("d8", 2), ("c3", 3)])
def test_coboundary_gathers_the_faces_a_block_of_columns_at_a_time(monkeypatch, group, p):
    G = bundled("d8") if group == "d8" else load_group("degree 3\n(1 2 3)", name="C3")
    H = FpCohomology(G, G.full_subgroup(), p, 3)
    assert not hasattr(H, "diff")
    assert [(F.dtype, F.shape) for F in H.faces] == [
        (np.intp, (n + 2, H.dim_cochain(n + 1))) for n in range(4)]
    # blocks of one column, of seven, and all columns give the oracle's d_3
    K, rows = H.dim_cochain(3), H.dim_cochain(4)
    for cells, width in ((1, 1), (7 * rows, 7), (1 << 30, K)):
        monkeypatch.setattr(cohomology, "BLOCK_CELLS", cells)
        blocks = list(cohomology._unit_blocks(K, rows))
        assert [E.shape[1] for E in blocks[:-1]] == [width] * (len(blocks) - 1)
        assert np.array_equal(np.hstack([H.coboundary(3, E) for E in blocks]),
                              _ref_differential(H, 3))


def test_dims_c4():
    G = load_group("degree 4\n(1 2 3 4)", name="C4")
    H = FpCohomology(G, G.full_subgroup(), 2, 3)
    assert H.dims() == [1, 1, 1, 1]


def test_dims_c3_at_3():
    G = load_group("degree 3\n(1 2 3)", name="C3")
    H = FpCohomology(G, G.full_subgroup(), 3, 3)
    assert H.dims() == [1, 1, 1, 1]


def test_dims_stable_under_isomorphism():
    # two copies of V4 realized differently
    G1 = _v4()
    G2 = load_group("degree 4\n(1 2)(3 4)\n(1 3)(2 4)", name="V4b")
    H1 = FpCohomology(G1, G1.full_subgroup(), 2, 2)
    H2 = FpCohomology(G2, G2.full_subgroup(), 2, 2)
    assert H1.dims() == H2.dims()


def test_restriction_identity():
    G = bundled("d8")
    H = FpCohomology(G, G.full_subgroup(), 2, 2)
    ident = {x: x for x in range(G.order)}
    for j in range(3):
        M = restriction_map(H, H, ident, j)
        assert np.array_equal(M % 2, np.eye(H.dim(j), dtype=np.int64) % 2)


def test_restriction_functorial_on_composites():
    G = bundled("d8")
    fam = CohomologyFamily(G, 2, 2)
    S = G.full_subgroup()
    V = frozenset(o_p_like_v4(G))
    Z = frozenset(center_members(G))
    HS, HV, HZ = fam.of(frozenset(range(G.order))), fam.of(V), fam.of(Z)
    inc_VS = {x: x for x in V}
    inc_ZV = {x: x for x in Z}
    inc_ZS = {x: x for x in Z}
    for j in range(3):
        lhs = restriction_map(HS, HZ, inc_ZS, j)
        rhs = (restriction_map(HV, HZ, inc_ZV, j)
               @ restriction_map(HS, HV, inc_VS, j)) % 2
        assert np.array_equal(lhs % 2, rhs)


def o_p_like_v4(G):
    for m in all_subgroups(G.full_subgroup()):
        if len(m) == 4 and G.subgroup(m).is_elementary_abelian(2):
            # normal Klein four of D8 contains the center
            zc = center_members(G)
            if zc <= m:
                return m
    raise AssertionError


def center_members(G):
    from locus.permgroups import center

    return center(G).members


def test_conjugation_on_v4_inside_d8_swaps():
    G = bundled("d8")
    fam = CohomologyFamily(G, 2, 2)
    V = next(m for m in all_subgroups(G.full_subgroup())
             if len(m) == 4 and G.subgroup(m).is_elementary_abelian(2))
    HV = fam.of(V)
    # conjugation by an element outside V with nontrivial action
    s = next(g for g in range(G.order)
             if any(G.conj(x, g) != x for x in V)
             and all(G.conj(x, g) in V for x in V))
    M = restriction_map(HV, HV, {x: G.conj(x, s) for x in V}, 1)
    assert not np.array_equal(M % 2, np.eye(2, dtype=np.int64))
    assert np.array_equal((M @ M) % 2, np.eye(2, dtype=np.int64))


def test_inner_automorphisms_trivial_on_cohomology():
    G = bundled("d8")
    fam = CohomologyFamily(G, 2, 2)
    S = frozenset(range(G.order))
    HS = fam.of(S)
    for s in range(G.order):
        for j in range(3):
            M = restriction_map(HS, HS, {x: G.conj(x, s) for x in S}, j)
            assert np.array_equal(M % 2, np.eye(HS.dim(j), dtype=np.int64))


def test_transfer_times_restriction_is_index():
    G = bundled("d8")
    fam = CohomologyFamily(G, 2, 2)
    subs = [m for m in all_subgroups(G.full_subgroup())]
    for Q in subs:
        HQ = fam.of(Q)
        for P in subs:
            if not P <= Q or P == Q:
                continue
            HP = fam.of(P)
            index = len(Q) // len(P)
            for j in range(3):
                tr = transfer_map(HQ, HP, j)
                res = restriction_map(HQ, HP, {x: x for x in P}, j)
                prod = (tr @ res) % 2
                want = (index % 2) * np.eye(HQ.dim(j), dtype=np.int64) % 2
                assert np.array_equal(prod, want), (len(P), len(Q), j)


def test_transfer_on_equal_groups_identity():
    G = bundled("d8")
    H = FpCohomology(G, G.full_subgroup(), 2, 2)
    for j in range(3):
        tr = transfer_map(H, H, j)
        assert np.array_equal(tr % 2, np.eye(H.dim(j), dtype=np.int64))


def test_transfer_c2_in_d8_degree1_vanishes_into_index():
    G = bundled("d8")
    fam = CohomologyFamily(G, 2, 1)
    Z = frozenset(center_members(G))
    HS = fam.of(frozenset(range(G.order)))
    HZ = fam.of(Z)
    tr = transfer_map(HS, HZ, 1)
    res = restriction_map(HS, HZ, {x: x for x in Z}, 1)
    assert not np.any((tr @ res) % 2)  # index 4 = 0 mod 2


def test_transfer_along_iso_is_inverse_restriction():
    G = bundled("d8")
    fam = CohomologyFamily(G, 2, 2)
    refl = [m for m in all_subgroups(G.full_subgroup())
            if len(m) == 2 and m != frozenset(center_members(G))]
    A = refl[0]
    pair = next((m, g) for m in refl[1:] for g in range(G.order)
                if m != A and {G.conj(x, g) for x in A} == m)
    B, g = pair
    mapping = {x: G.conj(x, g) for x in A}
    for j in range(3):
        lhs = transfer_along(fam, A, B, mapping, j)
        rhs = restriction_map(fam.of(A), fam.of(B),
                              {y: G.conj(y, G.inv(g)) for y in B}, j)
        assert np.array_equal(lhs % 2, rhs % 2)


def test_mackey_square_v4_c4_in_d8():
    G = bundled("d8")
    fam = CohomologyFamily(G, 2, 2)
    subs = all_subgroups(G.full_subgroup())
    V = o_p_like_v4(G)
    C4 = next(m for m in subs if len(m) == 4
              and any(G.element_order(x) == 4 for x in m))
    Q = frozenset(range(G.order))
    for j in range(3):
        assert mackey_square(fam, V, C4, Q, j)


def test_mackey_square_all_cospans_in_d8():
    G = bundled("d8")
    fam = CohomologyFamily(G, 2, 2)
    subs = all_subgroups(G.full_subgroup())
    for Q in subs:
        inner = [m for m in subs if m <= Q]
        for P in inner:
            for K in inner:
                for j in range(3):
                    assert mackey_square(fam, P, K, Q, j), (len(P), len(K), len(Q), j)


@pytest.mark.parametrize("group, p", [("c3xc3", 3), ("s3", 3)])
def test_mackey_square_all_cospans_at_p_3(group, p):
    G = (_elementary_abelian(3, 2) if group == "c3xc3"
         else load_group("degree 3\n(1 2 3)\n(1 2)", name="S3"))
    fam = CohomologyFamily(G, p, 2)
    subs = all_subgroups(G.full_subgroup())
    for Q in subs:
        inner = [m for m in subs if m <= Q]
        for P in inner:
            for K in inner:
                for j in range(3):
                    assert mackey_square(fam, P, K, Q, j), (len(P), len(K), len(Q), j)


def test_budget_refuses_before_any_face_is_built(monkeypatch):
    # |P| = 16, jmax = 5: the top degree hands in 15^5 rows over 15^5 + 15^6
    # columns (about 1.1 TB of pivots at most)
    monkeypatch.setenv(MEMORY_BUDGET_ENV, "1000")
    G = load_group("degree 8\n(1 2 3 4 5 6 7 8)\n(1 8)(2 7)(3 6)(4 5)", name="D16")
    assert G.order == 16

    def no_allocation(self, n):
        raise AssertionError("faces built before the budget check")

    monkeypatch.setattr(FpCohomology, "_faces", no_allocation)
    with pytest.raises(BudgetError):
        FpCohomology(G, G.full_subgroup(), 2, 5)


@pytest.mark.parametrize("group, p", [("d8", 2), ("c3xc3", 3)])
def test_budget_estimate_bounds_the_tracemalloc_peak(group, p):
    # the estimate bounds what is allocated, and by no more than 10x
    G = bundled("d8") if group == "d8" else _elementary_abelian(3, 2)
    tracemalloc.start()
    try:
        FpCohomology(G, G.full_subgroup(), p, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cohomology.bar_bytes(G.order - 1, p, 3) <= 10 * peak


# -- closed forms -------------------------------------------------------------

def _elementary_abelian(p, r):
    gens = "\n".join("(" + " ".join(str(p * i + j + 1) for j in range(p)) + ")"
                     for i in range(r))
    return load_group(f"degree {p * r}\n{gens}", name=f"C{p}^{r}")


@pytest.mark.parametrize("p, r", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_dims_of_elementary_abelian_groups_are_binomials(p, r):
    # H^*((C_p)^r; F_p) has Poincare series 1/(1 - t)^r
    G = _elementary_abelian(p, r)
    H = FpCohomology(G, G.full_subgroup(), p, 3)
    assert H.dims() == [comb(k + r - 1, r - 1) for k in range(4)]


@pytest.mark.parametrize("group, p", [("trivial", 2), ("trivial", 3),
                                      ("c3", 2), ("s3", 5)])
def test_p_prime_groups_have_only_degree_zero(group, p):
    gens = "(1 2 3)\n(1 2)" if group == "s3" else "(1 2 3)"
    G = load_group(f"degree 3\n{gens}", name=group)
    P = (G.subgroup(frozenset([G.identity])) if group == "trivial"
         else G.full_subgroup())
    H = FpCohomology(G, P, p, 3)
    assert H.dims() == [1, 0, 0, 0]
    assert [H.dim_cochain(n) for n in range(4)] == [
        (len(P.members) - 1) ** n for n in range(4)]


@pytest.mark.parametrize("group, p, top, want", [
    ("d8", 2, 4, [1, 2, 3, 4, 5]), ("c3xc3", 3, 3, [1, 2, 3, 4]), ("c5", 5, 4, [1] * 5)])
def test_dims_match_higher_limits_on_the_one_object_category(group, p, top, want):
    # H^n(P; F_p) is lim^n of the constant functor F_p on P as a category
    # with one object, whose normalized nerve is the normalized bar resolution
    G = _oracle_group(group)
    members = list(G.full_subgroup().sorted_members)
    cat = labelled_category(["P"], {(0, 0): members}, G.mul, lambda i: G.identity)
    constant = ModuleFunctor(cat, p, [1], {m: np.ones((1, 1)) for m in range(len(members))})
    assert higher_limits(constant, top) == want
    assert FpCohomology(G, G.full_subgroup(), p, top).dims() == want


def test_sylow_3_of_ext27_sd16_through_degree_2_at_the_default_budget(monkeypatch):
    # 3^{1+2}_+: once 30.7 s through the dense differentials
    monkeypatch.delenv(MEMORY_BUDGET_ENV, raising=False)
    G = bundled("ext27_sd16")
    assert FpCohomology(G, sylow(G, 3), 3, 2).dims() == [1, 2, 4]


def test_maps_to_and_from_the_trivial_subgroup_have_empty_shapes():
    G = bundled("d8")
    fam = CohomologyFamily(G, 2, 2)
    S, one = frozenset(range(G.order)), frozenset([G.identity])
    for n, d in enumerate(fam.of(S).dims()):
        res = restriction_map(fam.of(S), fam.of(one), {G.identity: G.identity}, n)
        tr = transfer_map(fam.of(S), fam.of(one), n)
        assert (res.shape, tr.shape) == (((1, 1), (1, 1)) if n == 0
                                         else ((0, d), (d, 0)))


def _d8_reflection_pair():
    # two order-2 subgroups of D8, A = {0, 1} and B = {0, 2}
    G = bundled("d8")
    fam = CohomologyFamily(G, 2, 2)
    return fam.of(frozenset({0, 2})), fam.of(frozenset({0, 1}))


def test_restriction_rejects_an_image_outside_the_target():
    # 1 is not in B; once [[1]] in degrees 1 and 2, read off a searchsorted
    # position of 1 in B's nonidentity members
    HB, HA = _d8_reflection_pair()
    for n in (1, 2):
        with pytest.raises(GroupError, match="into the target"):
            restriction_map(HB, HA, {0: 0, 1: 1}, n)


def test_restriction_rejects_a_mapping_that_misses_a_source_member():
    # once a bare KeyError
    HB, HA = _d8_reflection_pair()
    with pytest.raises(GroupError, match="send every source member into the target"):
        restriction_map(HB, HA, {0: 0}, 1)


# -- the scalar oracle ---------------------------------------------------------
# The per-tuple loops that once built every cochain matrix, kept as a
# reference for the index-array code: tuples from itertools.product, each
# located through a position dict.

def _ref_index(H, tup):
    pos = {int(x): i for i, x in enumerate(H.nonid)}
    idx = 0
    for g in tup:
        idx = idx * len(pos) + pos[g]
    return idx


def _ref_tuples(H, n):
    return list(product([int(x) for x in H.nonid], repeat=n))


def _ref_differential(H, n):
    G = H.group
    D = np.zeros((H.dim_cochain(n + 1), H.dim_cochain(n)), dtype=np.int64)
    for r, tup in enumerate(_ref_tuples(H, n + 1)):
        D[r, _ref_index(H, tup[1:])] += 1
        sign = -1
        for i in range(n):
            prod = G.mul(tup[i], tup[i + 1])
            if prod != G.identity:
                D[r, _ref_index(H, tup[:i] + (prod,) + tup[i + 2:])] += sign
            sign = -sign
        D[r, _ref_index(H, tup[:-1])] += sign
    return D % H.p


def _ref_restriction_cochain(H_target, H_source, mapping, n):
    M = np.zeros((H_source.dim_cochain(n), H_target.dim_cochain(n)), dtype=np.int64)
    for r, tup in enumerate(_ref_tuples(H_source, n)):
        image = tuple(mapping[g] for g in tup)
        if all(g != H_target.group.identity for g in image):
            M[r, _ref_index(H_target, image)] += 1
    return M


def _ref_transfer_cochain(H_big, H_small, n):
    G = H_big.group
    reps, rep_of = [], {}
    for x in H_big.sub.sorted_members:
        if x not in rep_of:
            reps.append(x)
            rep_of.update((G.mul(h, x), x) for h in H_small.sub.members)
    M = np.zeros((H_big.dim_cochain(n), H_small.dim_cochain(n)), dtype=np.int64)
    for r_idx, tup in enumerate(_ref_tuples(H_big, n)):
        for s in reps:
            term = []
            for g in tup:
                t = G.mul(s, g)
                s = rep_of[t]
                term.append(G.mul(t, G.inv(s)))
            if G.identity not in term:
                M[r_idx, _ref_index(H_small, tuple(term))] += 1
    return M % H_big.p


def _oracle_group(name):
    gens = {"c2": "degree 2\n(1 2)", "v4": "degree 4\n(1 2)\n(3 4)",
            "c3xc3": "degree 6\n(1 2 3)\n(4 5 6)", "c5": "degree 5\n(1 2 3 4 5)",
            "s3": "degree 3\n(1 2 3)\n(1 2)"}
    return bundled("d8") if name == "d8" else load_group(gens[name], name=name)


@pytest.mark.parametrize("group, p, jmax", [
    ("c2", 2, 3), ("v4", 2, 3), ("d8", 2, 2), ("c3xc3", 3, 2), ("c5", 5, 3),
    ("s3", 2, 2)])
def test_index_arrays_match_the_scalar_oracle(group, p, jmax):
    # every subgroup, the trivial one included; every inclusion, one
    # conjugation and the trivial homomorphism (all images the identity) per
    # pair; transfers along every inclusion, non-normal ones in S3
    G = _oracle_group(group)
    fam = CohomologyFamily(G, p, jmax)
    subs = all_subgroups(G.full_subgroup())
    for P in subs:
        H = fam.of(P)
        for n in range(jmax + 1):
            unit = np.eye(H.dim_cochain(n), dtype=np.int64)
            assert np.array_equal(H.coboundary(n, unit), _ref_differential(H, n)), (len(P), n)
    for Q in subs:
        for P in (m for m in subs if m <= Q):
            HQ, HP = fam.of(Q), fam.of(P)
            g = max(Q)
            gP = frozenset(G.conj(x, g) for x in P)
            homs = [(HQ, {x: x for x in P}), (fam.of(gP), {x: G.conj(x, g) for x in P}),
                    (HQ, {x: G.identity for x in P})]
            for n in range(jmax + 1):
                assert np.array_equal(cohomology.transfer_cochain(HQ, HP, n),
                                      _ref_transfer_cochain(HQ, HP, n)), (len(P), len(Q), n)
                for H_target, mapping in homs:
                    M = _ref_restriction_cochain(H_target, HP, mapping, n)
                    want = HP.coordinates(n, (M @ H_target.basis(n).T) % p)
                    got = restriction_map(H_target, HP, mapping, n)
                    assert np.array_equal(got, want), (len(P), len(Q), n)


@pytest.mark.parametrize("group, p", [("v4", 2), ("c3xc3", 3)])
def test_restriction_along_a_hom_with_a_kernel_matches_the_scalar_oracle(group, p):
    # A x B -> A x B, a^i b^j -> a^i: images hold the identity on some
    # entries of a tuple and not on others
    G = _oracle_group(group)
    a, b = (G.index(g) for g in G.generator_perms)
    powers = {x: [G.word([x] * i) for i in range(G.element_order(x))] for x in (a, b)}
    mapping = {G.mul(x, y): x for x in powers[a] for y in powers[b]}
    H = FpCohomology(G, G.full_subgroup(), p, 2)
    for n in range(3):
        M = _ref_restriction_cochain(H, H, mapping, n)
        got = restriction_map(H, H, mapping, n)
        assert np.array_equal(got, H.coordinates(n, (M @ H.basis(n).T) % p))
        assert got.any()


_HYPOTHESIS_GROUPS = ["c2", "v4", "s3", "c5", "d8", "c3xc3"]


@lru_cache(maxsize=None)
def _family(group, p):
    return CohomologyFamily(_oracle_group(group), p, 2)


@st.composite
def subgroup_pairs(draw):
    group, p = draw(st.sampled_from(_HYPOTHESIS_GROUPS)), draw(st.sampled_from([2, 3, 5]))
    fam = _family(group, p)
    subs = all_subgroups(fam.group.full_subgroup())
    Q = draw(st.sampled_from(subs))
    P = draw(st.sampled_from([m for m in subs if m <= Q]))
    return fam, P, Q, draw(st.sampled_from(range(fam.group.order))), draw(st.integers(0, 2))


@settings(max_examples=100, deadline=None)
@given(subgroup_pairs())
def test_faces_restriction_and_transfer_match_the_scalar_oracle(case):
    fam, P, Q, g, n = case
    G, p = fam.group, fam.p
    HP, HQ = fam.of(P), fam.of(Q)
    unit = np.eye(HP.dim_cochain(n), dtype=np.int64)
    assert np.array_equal(HP.coboundary(n, unit), _ref_differential(HP, n))
    assert np.array_equal(cohomology.transfer_cochain(HQ, HP, n),
                          _ref_transfer_cochain(HQ, HP, n))
    gP = frozenset(G.conj(x, g) for x in P)
    homs = [(HQ, {x: x for x in P}), (fam.of(gP), {x: G.conj(x, g) for x in P})]
    for H_target, mapping in homs:
        M = _ref_restriction_cochain(H_target, HP, mapping, n)
        want = HP.coordinates(n, (M @ H_target.basis(n).T) % p)
        assert np.array_equal(restriction_map(H_target, HP, mapping, n), want)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_HYPOTHESIS_GROUPS), st.sampled_from([2, 3, 5]), st.integers(0, 2),
       st.integers(1, 4), st.data())
def test_coordinates_of_basis_combinations_plus_coboundaries(group, p, n, k, data):
    # k cocycles basis.T A + d X: their coordinates are A mod p
    H = _family(group, p).of(frozenset(range(_oracle_group(group).order)))

    def matrix(rows):
        entries = st.lists(st.integers(-p, 3 * p), min_size=rows * k, max_size=rows * k)
        return np.array(data.draw(entries), dtype=np.int64).reshape(rows, k)

    A = matrix(H.dim(n))
    V = H.basis(n).T @ A + (H.coboundary(n - 1, matrix(H.dim_cochain(n - 1))) if n else 0)
    assert np.array_equal(H.coordinates(n, V), A % p)


# -- the coordinates contract -------------------------------------------------

@pytest.mark.parametrize("group, p", [("d8", 2), ("c3xc3", 3)])
def test_coordinates_read_classes_off_any_cocycle(group, p):
    G = bundled("d8") if group == "d8" else _elementary_abelian(3, 2)
    H = FpCohomology(G, G.full_subgroup(), p, 3)
    rng = np.random.default_rng(7)
    for n in range(H.jmax + 1):
        k = 5
        A = rng.integers(0, 10 * p, size=(H.dim(n), k))
        V = H.basis(n).T @ A
        if n:
            X = rng.integers(0, 10 * p, size=(H.dim_cochain(n - 1), k))
            V = V + H.coboundary(n - 1, X)
        assert np.array_equal(H.coordinates(n, V), A % p)


# -- one test per raise site --------------------------------------------------

@pytest.mark.parametrize("p", [1, 4, 9])
def test_p_that_is_not_a_prime_is_rejected(p):
    # p = 4 once failed inside the elimination with "base is not invertible"
    G = _c2()
    with pytest.raises(GroupError, match=f"p = {p} is not a prime"):
        FpCohomology(G, G.full_subgroup(), p, 2)


@pytest.mark.parametrize("trivial", [False, True])
def test_negative_degree_is_rejected(trivial):
    # C2 once returned dims() == [] and the trivial subgroup divided by zero
    G = _c2()
    P = G.subgroup([G.identity]) if trivial else G.full_subgroup()
    with pytest.raises(GroupError, match="jmax = -1 is negative"):
        FpCohomology(G, P, 2, -1)


def test_degree_cap():
    G = _c2()
    with pytest.raises(GroupError, match="degree cap is 6"):
        FpCohomology(G, G.full_subgroup(), 2, 7)


def test_differential_that_does_not_square_to_zero_is_caught(monkeypatch):
    G = _c2()  # one cochain coordinate in each degree
    honest = FpCohomology._faces

    def no_last_face(self, n):  # d(e) = e in every degree
        F = honest(self, n)
        F[-1] = self.dim_cochain(n)
        return F

    monkeypatch.setattr(FpCohomology, "_faces", no_last_face)
    with pytest.raises(AssertionError, match="does not square to zero"):
        FpCohomology(G, G.full_subgroup(), 2, 2)


def _square_matrix(H, n):
    D = np.zeros((H.dim_cochain(n + 2), H.dim_cochain(n)), dtype=np.int64)
    for rows, cols, values in H._square(n):
        D[rows, cols] = values
    return D


def _face_matrix(H, F):
    """The matrix that face array F stands for, entry by entry."""
    K = H.dim_cochain(len(F) - 2)
    D = np.zeros((F.shape[1], K), dtype=np.int64)
    for j, face in enumerate(F):
        for r, x in enumerate(face.tolist()):
            if x < K:
                D[r, x] += (-1) ** j
    return D


@pytest.mark.parametrize("group, p", [("d8", 2), ("c3xc3", 3)])
def test_d_squared_from_composed_faces_matches_the_matrix_product(group, p, monkeypatch):
    G = _oracle_group(group)
    H = FpCohomology(G, G.full_subgroup(), p, 3)
    for n in range(3):
        want = _ref_differential(H, n + 1) @ _ref_differential(H, n) % p
        assert np.array_equal(_square_matrix(H, n), want), n
    # faces with entries moved at random, several blocks of tuples at a time
    monkeypatch.setattr(cohomology, "BLOCK_CELLS", 1000)
    rng = np.random.default_rng(5)
    for n in range(3):
        for F in H.faces[n:n + 2]:
            F[rng.integers(0, len(F), 40), rng.integers(0, F.shape[1], 40)] = rng.integers(
                0, H.dim_cochain(len(F) - 2) + 1, 40)
        want = _face_matrix(H, H.faces[n + 1]) @ _face_matrix(H, H.faces[n]) % p
        assert np.array_equal(_square_matrix(H, n), want), n
        assert want.any()


def test_coordinates_reject_a_cochain_that_is_not_a_cocycle():
    G = _v4()
    H = FpCohomology(G, G.full_subgroup(), 2, 2)
    unit = np.eye(H.dim_cochain(1), dtype=np.int64)
    j = int(np.flatnonzero(H.coboundary(1, unit).any(axis=0))[0])
    v = np.zeros((H.dim_cochain(1), 1), dtype=np.int64)
    v[j] = 1
    with pytest.raises(ValueError, match="vector is not a cocycle"):
        H.coordinates(1, v)


def test_coordinates_reject_a_cocycle_outside_a_corrupted_basis():
    G = bundled("d8")
    H = FpCohomology(G, G.full_subgroup(), 2, 2)
    z = H.basis(1)[-1:].T.copy()
    assert np.array_equal(H.coordinates(1, z), np.eye(H.dim(1), dtype=np.int64)[:, -1:])
    del H._pivots[1][H._leads[1][-1]]  # the last representative's pivot
    with pytest.raises(ValueError, match="does not reduce into the basis"):
        H.coordinates(1, z)


def test_transfer_requires_the_small_group_inside_the_big_one():
    G = bundled("d8")
    fam = CohomologyFamily(G, 2, 1)
    Z = frozenset(center_members(G))
    with pytest.raises(GroupError, match="transfer requires P <= Q"):
        transfer_map(fam.of(Z), fam.of(frozenset(range(G.order))), 1)


def test_transfer_that_is_not_a_cochain_map_is_caught(monkeypatch):
    G = bundled("d8")
    fam = CohomologyFamily(G, 2, 2)
    HS, HV = fam.of(frozenset(range(G.order))), fam.of(o_p_like_v4(G))
    honest = cohomology.transfer_cochain

    def bent(H_big, H_small, n):
        M = honest(H_big, H_small, n).copy()
        if n == 1:
            M[0, 0] ^= 1
        return M

    monkeypatch.setattr(cohomology, "transfer_cochain", bent)
    with pytest.raises(AssertionError, match="not a cochain map"):
        transfer_map(HS, HV, 1)
