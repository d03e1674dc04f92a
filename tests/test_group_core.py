"""Differential tests of the permutation-group core.

Random groups come from hypothesis: one to three random permutations of
degree <= 7, cut down to the longest prefix of generators whose group has
order <= 200.  Group facts are compared with ``sympy.combinatorics``; the
scans over G (``conj_all``, transporters, normalizers, O_p, O_p') are
compared with oracles written here with the scalar ``Group.conj`` over
every element, and so is the (|S|, |G|) array of ``conj_images``.  The
element array, the inverses, the scalar ``mul`` and both tables of
``build_tables`` are checked against a tuple construction written here: a
breadth-first closure over permutation tuples, sorted, with ``_compose`` and
``_invert``.  ``quotient_group`` is checked against a loop of one scalar
``mul`` per product.  SL3(4) at p = 3 closes the file: its scans
over 60,480 elements are the reason for the vector core.
"""

import json
import random
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from locus.cli import main
from locus.fusion import fusion_of_group, fusion_of_locality, is_saturated
from locus.harness import DATA_DIR
from locus.locality import build_locality, delta_min_order
from locus.permgroups import (
    Group,
    GroupError,
    center,
    centralizer_set,
    conj_images,
    conjugacy_classes,
    load_group,
    load_group_file,
    normalizer_set,
    o_p,
    o_pprime,
    p_part,
    quotient_group,
    sylow,
    transporter,
)

from conftest import bundled

ORDER_CAP = 200


@st.composite
def small_groups(draw) -> Group:
    degree = draw(st.integers(1, 7))
    gens = [tuple(g) for g in draw(st.lists(st.permutations(range(degree)),
                                            min_size=1, max_size=3))]
    for k in range(len(gens), 1, -1):
        try:
            return Group(degree, gens[:k], order_cap=ORDER_CAP)
        except GroupError:
            continue
    return Group(degree, gens[:1])  # one permutation of degree <= 7: order <= 12


def _compose(p, q):
    """p*q acting on points from the right: i -> q[p[i]]."""
    return tuple(q[i] for i in p)


def _invert(p):
    result = [0] * len(p)
    for i, j in enumerate(p):
        result[j] = i
    return tuple(result)


def _tuple_elements(G: Group):
    """The elements of G by a breadth-first closure of its generator
    tuples, sorted: the order of G's element indices."""
    members = {tuple(range(G.degree))}
    frontier = list(members)
    while frontier:
        new = []
        for p in frontier:
            for g in G.generator_perms:
                q = _compose(p, g)
                if q not in members:
                    members.add(q)
                    new.append(q)
        frontier = new
    return sorted(members)


def _assert_matches_tuple_construction(G: Group):
    perms = _tuple_elements(G)
    assert G.order == len(perms) == len(G.E)
    assert [G.perm(x) for x in range(G.order)] == perms
    assert G.E.tolist() == [list(p) for p in perms]
    assert G.E.dtype == (np.uint8 if G.degree <= 256 else np.uint16)
    index = {p: i for i, p in enumerate(perms)}
    assert G.identity == index[tuple(range(G.degree))]
    assert G.inverse == [index[_invert(p)] for p in perms]
    assert G.generators == sorted({index[g] for g in G.generator_perms})
    return perms


def _sympy(G: Group) -> PermutationGroup:
    return PermutationGroup([Permutation(list(g)) for g in G.generator_perms])


def _primes(n: int):
    return [p for p in (2, 3, 5, 7) if n % p == 0]


def _scan_transporter(G, P, Q):
    return [g for g in range(G.order) if all(G.conj(x, g) in Q for x in P)]


def _scan_class(G, x):
    return {G.conj(x, g) for g in range(G.order)}


@settings(max_examples=40, deadline=None)
@given(small_groups())
def test_group_facts_match_sympy(G):
    SG = _sympy(G)
    assert G.order == SG.order()
    for p in _primes(G.order):
        assert sylow(G, p).order == SG.sylow_subgroup(p).order() == p_part(G.order, p)
    assert center(G).order == SG.center().order()
    for x in G.generators:
        cyclic = PermutationGroup([Permutation(list(G.perm(x)))])
        assert len(centralizer_set(G, [x])) == SG.centralizer(cyclic).order()
    # class sizes, each counted once per member: |G : C_G(x)| over all x
    ours = sorted(G.order // len(centralizer_set(G, [x])) for x in range(G.order))
    theirs = sorted(len(c) for c in SG.conjugacy_classes() for _ in c)
    assert ours == theirs
    assert sorted(len(c) for c in conjugacy_classes(G)) == sorted(
        len(c) for c in SG.conjugacy_classes())


@settings(max_examples=30, deadline=None)
@given(small_groups())
def test_conj_all_matches_scalar_conj(G):
    for x in range(G.order):
        assert G.conj_all(x).tolist() == [G.conj(x, g) for g in range(G.order)]


@settings(max_examples=60, deadline=None)
@given(small_groups(), st.data())
def test_transporter_and_normalizer_match_scans(G, data):
    index = st.integers(0, G.order - 1)
    P = G.generated_subgroup([data.draw(index), data.draw(index)])
    # a conjugate of P makes a nonempty transporter; a random Q mostly not
    Q_conj = G.subgroup(P.conjugate_set(data.draw(index)))
    Q_rand = G.generated_subgroup([data.draw(index)])
    for Q in (Q_conj, Q_rand, P):
        assert transporter(G, P, Q) == _scan_transporter(G, P.members, Q.members)
    assert normalizer_set(G, P) == _scan_transporter(G, P.members, P.members)
    assert centralizer_set(G, P.members) == [
        g for g in range(G.order) if all(G.conj(x, g) == x for x in P.members)]


@settings(max_examples=60, deadline=None)
@given(small_groups())
def test_op_and_opprime_match_scans(G):
    for p in _primes(G.order) or [2]:
        S = sylow(G, p).members
        core = set(S)
        for g in range(G.order):
            core &= {G.conj(s, g) for s in S}
        assert o_p(G, p).members == core
        # x lies in O_p'(G) exactly when its normal closure is a p'-group
        opp = {x for x in range(G.order)
               if len(G.closure(_scan_class(G, x))) % p != 0}
        assert o_pprime(G, p).members == opp



def _loop_quotient(G: Group, N):
    """G/N by one scalar ``mul`` per product: the cosets Nx numbered by
    their least elements, in increasing order."""
    coset_of, reps = {}, []
    for x in range(G.order):
        if x not in coset_of:
            for n in N.members:
                coset_of[G.mul(n, x)] = len(reps)
            reps.append(x)
    degree = len(reps)
    Q = Group(degree, [tuple(coset_of[G.mul(r, g)] for r in reps) for g in G.generators])
    image = [Q.index(tuple(coset_of[G.mul(r, y)] for r in reps)) for y in reps]
    return Q, {x: image[coset_of[x]] for x in range(G.order)}


@settings(max_examples=60, deadline=None)
@given(small_groups(), st.data())
def test_quotient_group_matches_the_scalar_loop(G, data):
    x = data.draw(st.integers(0, G.order - 1))
    normals = [G.subgroup([G.identity]), G.full_subgroup(), center(G),
               G.subgroup(G.closure(_scan_class(G, x)))]
    normals += [o_p(G, p) for p in _primes(G.order)]
    normals += [o_pprime(G, p) for p in _primes(G.order)]
    if data.draw(st.booleans()):
        G.build_tables()
    for N in normals:
        Q, proj = quotient_group(G, N)
        want, want_proj = _loop_quotient(G, N)
        assert Q.generator_perms == want.generator_perms
        assert Q.E.tolist() == want.E.tolist()
        assert proj == want_proj



@settings(max_examples=60, deadline=None)
@given(small_groups(), st.data())
def test_quotient_group_refuses_exactly_the_non_normal_subgroups(G, data):
    H = G.generated_subgroup([data.draw(st.integers(0, G.order - 1))])
    normal = all(G.conj(h, g) in H.members for h in H.members for g in range(G.order))
    if normal:
        assert quotient_group(G, H)[0].order == G.order // H.order
    else:
        with pytest.raises(GroupError, match="non-normal"):
            quotient_group(G, H)



@pytest.mark.parametrize("tabled", [True, False], ids=["tabled", "untabled"])
def test_quotient_group_makes_no_scalar_products(monkeypatch, tabled):
    # A6 x C3 by its C3, as the signalizer-quotient pipeline divides it
    G = bundled("a6xc3") if tabled else load_group_file(DATA_DIR / "a6xc3.grp")
    N = o_pprime(G, 2)
    want = _loop_quotient(G, N)
    calls = []
    for name in ("mul", "conj"):
        scalar = getattr(Group, name)
        monkeypatch.setattr(Group, name, lambda self, *a, s=scalar: calls.append(a) or s(self, *a))
    Q, proj = quotient_group(G, N)
    assert calls == []
    assert (Q.E.tolist(), proj) == (want[0].E.tolist(), want[1])


PSL3_3 = """degree 13
(2 8 11)(3 9 13)(4 10 12)
(1 3 4)(6 9 12)(7 13 10)
(5 6 7)(8 9 10)(11 12 13)
"""


PSL3_4 = """degree 21
(2 10)(3 11)(4 12)(5 13)(14 18)(15 20)(16 21)(17 19)
(2 18)(3 21)(4 19)(5 20)(10 14)(11 16)(12 17)(13 15)
(1 3)(4 5)(7 11)(8 16)(9 21)(12 20)(13 17)(15 19)
(1 5)(3 4)(7 15)(8 20)(9 13)(11 19)(12 16)(17 21)
(6 7)(8 9)(10 11)(12 13)(14 15)(16 17)(18 19)(20 21)
(6 8)(7 9)(10 12)(11 13)(14 16)(15 17)(18 20)(19 21)
"""


def _c2_11_c3_on_300():
    """C2^11 x C3 on 300 points (order 6144): uint16 rows, above the
    table cap, so mul and conj take the untabled path."""
    gens = []
    for i in range(11):
        p = list(range(300))
        p[2 * i], p[2 * i + 1] = 2 * i + 1, 2 * i
        gens.append(tuple(p))
    p = list(range(300))
    p[22], p[23], p[24] = 23, 24, 22
    gens.append(tuple(p))
    G = Group(300, gens, name="c2^11xc3")
    G.build_tables()
    assert G.order == 6144 and G._mul_table is None
    return G


@settings(max_examples=60, deadline=None)
@given(small_groups())
def test_elements_match_tuple_construction(G):
    _assert_matches_tuple_construction(G)


@pytest.mark.parametrize("name", ["s4", "a6", "a6xc3", "d8", "es27", "ext27_sd16",
                                  "sd16", "sl3_4"])
def test_bundled_elements_match_tuple_construction(name):
    _assert_matches_tuple_construction(bundled(name))


@pytest.mark.parametrize("make", [
    lambda: load_group(PSL3_4, name="psl3_4"),
    lambda: load_group(PSL3_3, name="psl3_3"),
    _c2_11_c3_on_300,
    lambda: load_group("degree 4"),
], ids=["psl3_4", "psl3_3", "c2^11xc3", "trivial"])
def test_big_and_trivial_elements_match_tuple_construction(make):
    G = make()
    _assert_matches_tuple_construction(G)
    if G.order == 1:
        assert G.E.tolist() == [[0, 1, 2, 3]] and G.generators == []


def test_untabled_mul_matches_tuple_oracle():
    # S4 on 300 points, never tabled: a nonabelian group on uint16 rows
    s4_on_300 = Group(300, [(1, 2, 3, 0) + tuple(range(4, 300)),
                            (1, 0) + tuple(range(2, 300))])
    rng = random.Random(11)
    for G in (load_group(PSL3_4, name="psl3_4"), _c2_11_c3_on_300(), s4_on_300):
        assert G._mul_table is None
        perms = [G.perm(x) for x in range(G.order)]
        index = {p: i for i, p in enumerate(perms)}
        for _ in range(2000):
            a, b = rng.randrange(G.order), rng.randrange(G.order)
            assert G.mul(a, b) == index[_compose(perms[a], perms[b])]
            assert G.conj(a, b) == index[_compose(_compose(_invert(perms[b]), perms[a]),
                                                  perms[b])]
            assert G.inv(a) == index[_invert(perms[a])]
            assert G.index(perms[a]) == a


def test_order_cap_is_hit_inside_a_layer():
    # s4 from (1 2 3 4), (1 2): the 24th element is found partway through
    # the last layer of the closure
    with pytest.raises(GroupError, match="group order exceeds cap 23"):
        load_group("degree 4\n(1 2 3 4)\n(1 2)", order_cap=23)
    assert load_group("degree 4\n(1 2 3 4)\n(1 2)", order_cap=24).order == 24


@pytest.mark.parametrize("bad", [
    (0, 1, 2), (0, 1, 2, 3, 4), (0, 1, 2, 300), (0, 1, 2, -1), (0, 1, 2, 3.0),
    (0, 1, 2, "3"), (0, 1, 2, None), 3, None, "0123", (0, 0, 1, 2)])
def test_index_rejects_bad_input(bad):
    G = load_group("degree 4\n(1 2 3 4)\n(1 2)")
    with pytest.raises(GroupError, match="permutation not in group"):
        G.index(bad)


def test_index_rejects_bad_input_on_uint16_rows():
    G = Group(300, [])
    assert G.index(tuple(range(300))) == G.identity
    for bad in (tuple(range(299)), tuple(range(299)) + (70000,),
                tuple(range(299)) + (299.0,), tuple(range(299)) + (-1,)):
        with pytest.raises(GroupError, match="permutation not in group"):
            G.index(bad)


def test_conj_all_matches_scalar_conj_on_psl3_3():
    G = load_group(PSL3_3, name="psl3_3")
    assert G.order == 5616
    rng = random.Random(2024)
    for x in rng.sample(range(G.order), 20):
        row = G.conj_all(x)
        for g in rng.sample(range(G.order), 1000):
            assert row[g] == G.conj(x, g)


def test_conj_all_keys_wider_than_int64():
    # C2^8 as 8 disjoint transpositions on 300 points: uint16 rows and a
    # base of 8 points, so degree ** len(base) = 300^8 > 2^63 and each key
    # is a 16-byte string
    gens = []
    for i in range(8):
        p = list(range(300))
        p[2 * i], p[2 * i + 1] = 2 * i + 1, 2 * i
        gens.append(tuple(p))
    G = Group(300, gens)
    assert G.order == 256 and 300 ** 8 > 2 ** 63
    E, einv_base, keys, _ = G._base_core()
    assert E.dtype == np.uint16 and einv_base.shape == (256, 8)
    assert keys.dtype.kind == "V" and keys.dtype.itemsize == 16
    # the oracle is a tabled copy; G itself stays on the base-image core
    T = Group(300, gens)
    T.build_tables()
    assert G._conj_table is None and T._conj_table is not None
    for x in range(G.order):
        assert G.conj_all(x).tolist() == [T.conj(x, g) for g in range(G.order)]


@settings(max_examples=40, deadline=None)
@given(small_groups())
def test_tabled_conj_all_is_a_read_only_table_row(G):
    T = Group(G.degree, G.generator_perms)
    T.build_tables()
    table = bytes(T._conj_table)
    for x in range(G.order):
        row = T.conj_all(x)
        assert row.dtype == np.uint16 and not row.flags.writeable
        assert row.tolist() == G.conj_all(x).tolist()
        with pytest.raises(ValueError):
            row[0] = 0
    for H in (G, T):  # past the last element, both paths raise alike
        with pytest.raises(IndexError):
            H.conj_all(G.order)
    assert G._conj_table is None and bytes(T._conj_table) == table


@pytest.mark.parametrize("make,p", [
    (lambda: bundled("s4"), 2),
    (lambda: bundled("a6"), 3),
    (lambda: load_group(PSL3_4, name="psl3_4"), 3),
], ids=["s4", "a6", "psl3_4"])
def test_conj_images_match_scalar_conj(make, p):
    G = make()
    S = sylow(G, p)
    images = conj_images(G, S)
    assert images.tolist() == [[G.conj(s, g) for g in range(G.order)]
                               for s in S.sorted_members]
    assert conj_images(G, G.subgroup(S.members)) is images  # kept per member set
    with pytest.raises(ValueError):
        images[0, 0] = 0
    F = fusion_of_group(G, S, p)
    assert F.s_conj() == {s: {x: G.conj(x, s) for x in S.sorted_members}
                          for s in S.sorted_members}


def test_bigcover_sequence_conjugates_each_member_of_s_once(monkeypatch):
    # PSL(3,3) at p = 3 as the bigcover workload runs it: |S| = 27 rows of
    # conj_images, plus the 3 normalizers that grow the Sylow subgroup
    G = load_group(PSL3_3, name="psl3_3")
    calls = []
    conj_all = Group.conj_all

    def counted(self, x):
        calls.append(self)
        return conj_all(self, x)

    monkeypatch.setattr(Group, "conj_all", counted)
    S = sylow(G, 3)
    L = build_locality(G, S, delta_min_order(S, 9), 3)
    assert is_saturated(fusion_of_group(G, S, 3))[0]
    assert is_saturated(fusion_of_locality(L))[0]
    assert o_p(G, 3).order == 1
    assert S.order == 27 and calls.count(G) == 30
    assert list(G._conj_images) == [S.members]


def test_conj_all_raises_on_a_missing_key():
    G = load_group("degree 4\n(1 2 3 4)\n(1 2)")
    E, einv_base, keys, order = G._base_core()
    G._core = (E, einv_base, keys[1:], order[1:])
    with pytest.raises(GroupError):
        G.conj_all(int(order[0]))
    with pytest.raises(GroupError, match="a product is not an element"):
        G.mul_many([G.identity], [int(order[0])])


@settings(max_examples=40, deadline=None)
@given(small_groups(), st.data())
def test_mul_many_matches_mul(G, data):
    index = st.integers(0, G.order - 1)
    a = data.draw(st.lists(index, min_size=1, max_size=40))
    b = data.draw(st.lists(index, min_size=len(a), max_size=len(a)))
    want = [G.mul(x, y) for x, y in zip(a, b)]
    assert G.mul_many(a, b).tolist() == want  # untabled: base images
    G.build_tables()
    assert G._mul_table is not None
    assert G.mul_many(a, b).tolist() == want  # tabled: the table view
    assert [G.mul(x, y) for x, y in zip(a, b)] == want


def _a5xc3_cubed():
    """A5 x C3^3 (order 1620), left untabled by build_tables."""
    gens = ["(1 2 3 4 5)", "(1 2 3)", "(6 7 8)", "(9 10 11)", "(12 13 14)"]
    G = load_group("degree 14\n" + "\n".join(gens), name="a5xc3^3")
    G.build_tables()
    assert G.order == 1620 and G._mul_table is None
    return G


def test_mul_many_matches_mul_untabled_above_the_cap():
    G = _a5xc3_cubed()
    rng = random.Random(7)
    a = np.array([rng.randrange(G.order) for _ in range(6000)]).reshape(2, 3000)
    b = np.array([rng.randrange(G.order) for _ in range(6000)]).reshape(2, 3000)
    got = G.mul_many(a, b)
    assert got.shape == (2, 3000)
    assert got.ravel().tolist() == [G.mul(x, y) for x, y in zip(a.ravel().tolist(),
                                                                  b.ravel().tolist())]


def test_mul_many_broadcasts_alike_tabled_and_untabled():
    # a (k, 1) column against an (n,) row, and a scalar against an array:
    # the untabled path once failed to reshape what the table view broadcast
    G = _a5xc3_cubed()
    a = np.arange(0, G.order, 97)[:, None]
    b = np.arange(G.order)
    got = G.mul_many(a, b)
    assert got.shape == (len(a), G.order)
    assert got.tolist() == [[G.mul(x, y) for y in range(G.order)] for x in a.ravel().tolist()]
    assert G.mul_many(int(a[1, 0]), b).tolist() == got[1].tolist()
    T = bundled("s4")
    assert T._mul_table is not None
    U = load_group("degree 4\n(1 2 3 4)\n(1 2)")
    assert U._mul_table is None and np.array_equal(U.E, T.E)
    col, row = np.arange(T.order)[:, None], np.arange(T.order)
    assert T.mul_many(col, row).tolist() == U.mul_many(col, row).tolist()
    assert T.mul_many(3, row).tolist() == U.mul_many(3, row).tolist()


def _assert_tables_match_oracle(G):
    """Every entry of both tables against the tuple construction."""
    G.build_tables()
    n = G.order
    for table in (G._mul_table, G._conj_table):
        assert isinstance(table, array) and table.typecode == "H" and len(table) == n * n
    perms = _assert_matches_tuple_construction(G)
    for a, pa in enumerate(perms):
        assert G._mul_table[a * n:(a + 1) * n].tolist() == [
            G.index(_compose(pa, pb)) for pb in perms]
        assert G._conj_table[a * n:(a + 1) * n].tolist() == [
            G.index(_compose(_compose(_invert(pg), pa), pg)) for pg in perms]


@settings(max_examples=40, deadline=None)
@given(small_groups())
def test_tables_match_compose_oracle(G):
    _assert_tables_match_oracle(G)


@pytest.mark.parametrize("name", ["s4", "a6"])
def test_bundled_tables_match_compose_oracle(name):
    _assert_tables_match_oracle(load_group_file(DATA_DIR / f"{name}.grp"))


def test_build_tables_holds_no_third_table_sized_buffer():
    # a zeroed bytes of n*n entries copied into each table once made the peak
    # three tables' worth, and the peak RSS of a run hung on whether the
    # allocator could reuse the freed copy
    G = bundled("a6xc3")
    T = Group(G.degree, G.generator_perms)
    size = 2 * T.order ** 2
    tracemalloc.start()
    try:
        T.build_tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T.order == 1080 and 2 * size < peak < 2.5 * size


def test_order_one_tables():
    for G in (Group(1, [(0,)]), Group(3, [])):
        _assert_tables_match_oracle(G)
        assert G._mul_table.tolist() == G._conj_table.tolist() == [G.identity]


@pytest.mark.slow
def test_sl3_4_bigcover_sequence():
    M = bundled("sl3_4")
    S = sylow(M, 3)
    L = build_locality(M, S, delta_min_order(S, 9), 3)
    assert (len(L.carrier), len(L.objects)) == (216, 5)
    assert is_saturated(fusion_of_group(M, S, 3))[0]
    assert is_saturated(fusion_of_locality(L))[0]
    assert o_p(M, 3).order == 3


@pytest.mark.slow
def test_sl3_4_group_inspect(tmp_path):
    path = tmp_path / "report.json"
    assert main(["group-inspect", "--group", "sl3_4", "--prime", "3",
                 "--report", str(path)]) == 0
    results = json.loads(path.read_text())["results"]
    assert {k: results[k] for k in ("order", "sylow_order", "O_p_order",
                                    "O_pprime_order", "center_order")} == {
        "order": 60480, "sylow_order": 27, "O_p_order": 3,
        "O_pprime_order": 1, "center_order": 3}
