"""Differential tests of the permutation-group core.

Random groups come from hypothesis: one to three random permutations of
degree <= 7, cut down to the longest prefix of generators whose group has
order <= 200.  Group facts are compared with ``sympy.combinatorics``; the
scans over G (``conj_all``, transporters, normalizers, O_p, O_p') are
compared with oracles written here with the scalar ``Group.conj`` over
every element, and both tables of ``build_tables`` entry by entry with
``compose`` and ``invert``.  SL3(4) at p = 3 closes the file: its scans
over 60,480 elements are the reason for the vector core.
"""

import json
import random
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
    compose,
    conjugacy_classes,
    invert,
    load_group,
    load_group_file,
    normalizer_set,
    o_p,
    o_pprime,
    p_part,
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


PSL3_3 = """degree 13
(2 8 11)(3 9 13)(4 10 12)
(1 3 4)(6 9 12)(7 13 10)
(5 6 7)(8 9 10)(11 12 13)
"""


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
    G.build_tables()  # the scalar oracle reads its own table
    for x in range(G.order):
        assert G.conj_all(x).tolist() == [G.conj(x, g) for g in range(G.order)]


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
    assert U._mul_table is None and U.elements == T.elements
    col, row = np.arange(T.order)[:, None], np.arange(T.order)
    assert T.mul_many(col, row).tolist() == U.mul_many(col, row).tolist()
    assert T.mul_many(3, row).tolist() == U.mul_many(3, row).tolist()


def _assert_tables_match_oracle(G):
    """Every entry of both tables against compose / invert on the perms."""
    G.build_tables()
    n = G.order
    for table in (G._mul_table, G._conj_table):
        assert isinstance(table, array) and table.typecode == "H" and len(table) == n * n
    perms = G.elements
    for a, pa in enumerate(perms):
        assert G._mul_table[a * n:(a + 1) * n].tolist() == [
            G.index(compose(pa, pb)) for pb in perms]
        assert G._conj_table[a * n:(a + 1) * n].tolist() == [
            G.index(compose(compose(invert(pg), pa), pg)) for pg in perms]


@settings(max_examples=40, deadline=None)
@given(small_groups())
def test_tables_match_compose_oracle(G):
    _assert_tables_match_oracle(G)


@pytest.mark.parametrize("name", ["s4", "a6"])
def test_bundled_tables_match_compose_oracle(name):
    _assert_tables_match_oracle(load_group_file(DATA_DIR / f"{name}.grp"))


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
