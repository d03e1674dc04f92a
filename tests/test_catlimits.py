"""Higher limits, Lambda functors, and the comparison suites."""

import collections
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locus import catlimits
from locus.catlimits import (
    FiniteCategory,
    FunctorError,
    ModuleFunctor,
    atomic_comparison,
    atomic_functor,
    chain_counts,
    cohomology_functor_on_orbit_category,
    coset_category,
    fusion_orbit_category,
    higher_limits,
    lambda_dims,
    nerve,
    ot_cohomology_functor,
    p_orbit_category,
    proto_mackey_check,
    restrict_to_centrics_comparison,
    sharpness_pipeline,
    skeleton_functor,
    stable_subspace_dim,
    transporter_orbit_cat,
)
from locus.cohomology import MEMORY_BUDGET_ENV, BudgetError, CohomologyFamily
from locus.fusion import classify_subgroups_core_only, fusion_of_group, fusion_of_locality
from locus.locality import build_locality, delta_all_nontrivial
from locus.linalg import row_echelon_modp
from locus.permgroups import all_subgroups, load_group, sylow
from locus.transporter import orbit_category, transporter_of_locality

from conftest import bundled, labelled_category
from test_group_core import small_groups


def poset_category(relations, n):
    """Category of a poset given by a relation list (i <= j)."""
    closure = {(i, i) for i in range(n)} | set(relations)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (c, d) in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    mor = {}
    for i in range(n):
        for j in range(n):
            mor[(i, j)] = [("le", i, j)] if (i, j) in closure else []

    def compose(g, f):
        return ("le", f[1], g[2])

    def identity_of(i):
        return ("le", i, i)

    return labelled_category(list(range(n)), mor, compose, identity_of)


def c3_category():
    return cyclic_category(3)


def cyclic_category(n):
    """One object whose morphisms form the cyclic group of order n."""
    return labelled_category(["*"], {(0, 0): list(range(n))},
                             lambda g, f: (g + f) % n, lambda i: 0)


def constant_functor(cat, p, dim):
    dims = [dim] * cat.n
    mats = {m: np.eye(dim, dtype=np.int64) for m in range(len(cat.labels))}
    return ModuleFunctor(cat, p, dims, mats)


# a loop of order 5 with identity 0 that is not associative
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


@pytest.mark.parametrize("compose, message", [
    (lambda g, f: f, "right identity fails"),
    (lambda g, f: g, "left identity fails"),
    (lambda g, f: LOOP5[g][f], "composition not associative"),
], ids=["right-identity", "left-identity", "not-associative"])
def test_category_axioms_fail_by_name(compose, message):
    with pytest.raises(FunctorError, match=f"^{message}"):
        labelled_category(["*"], {(0, 0): list(range(5))}, compose, lambda i: 0)


def arrow_with(src=(0, 0, 1), tgt=(0, 1, 1), comp=((0, -1, -1), (1, -1, -1), (-1, 1, 2)),
               identity=(0, 2)):
    """The arguments of two objects with their identities 0 and 2 and one
    arrow 1: 0 -> 1, with the arrays given replaced."""
    return [0, 1], list(src), list(tgt), np.array(comp), list(identity), ["id0", "a", "id1"]


@pytest.mark.parametrize("args, message", [
    (arrow_with(src=[1, 0, 1], tgt=[1, 1, 1]), r"morphisms not numbered by \(source, target\)"),
    (arrow_with(tgt=[0, 1, 2]), r"morphisms not numbered by \(source, target\)"),
    (arrow_with(identity=[0, 3]), "identity out of range at object 1"),
    (arrow_with(comp=[[0, -1, -1], [1, -1, -1], [-1, 3, 2]]),
     "composite out of range at morphisms 2, 1"),
    (arrow_with(comp=[[0, -1, -1], [-1, -1, -1], [-1, 1, 2]]),
     "composite missing at morphisms 1, 0"),
    (arrow_with(comp=[[0, -1, -1], [1, -1, 1], [-1, 1, 2]]),
     "composite of morphisms that do not compose at 1, 2"),
    (arrow_with(identity=[1, 2]), "identity with the wrong endpoints at object 0"),
    (arrow_with(comp=[[0, -1, -1], [2, -1, -1], [-1, 1, 2]]),
     "composite with the wrong endpoints at morphisms 1, 0"),
], ids=["unsorted", "object-range", "identity", "composite", "missing", "not-composable",
        "identity-ends", "composite-ends"])
def test_labels_outside_the_hom_set_are_named(args, message):
    # a label outside the hom-set is a morphism number out of range
    # (``labelled_category``); each fault of the arrays has its own name
    assert FiniteCategory(*arrow_with()).iso_classes() == [[0], [1]]
    with pytest.raises(FunctorError, match=f"^{message}$"):
        FiniteCategory(*args)


def test_cosets_outside_the_hom_sets_are_named():
    # {1, g} in C3 is not closed: g o g is the coset of g^2, no morphism
    C3 = load_group("degree 3\n(1 2 3)")
    with pytest.raises(FunctorError, match="^a composite of cosets is not a morphism$"):
        coset_category(C3, [frozenset([C3.identity])], lambda i, j: [C3.identity, 1])


def test_split_idempotent_is_no_isomorphism():
    # i: 0 -> 1 and r: 1 -> 0 with r o i = id_0 but i o r = e != id_1, so
    # r is a one-sided inverse only and 0, 1 stay in separate classes
    table = {("r", "i"): "id0", ("i", "r"): "e", ("e", "i"): "i",
             ("r", "e"): "r", ("e", "e"): "e"}

    def compose(g, f):
        return f if g.startswith("id") else g if f.startswith("id") else table[(g, f)]

    mor = {(0, 0): ["id0"], (0, 1): ["i"], (1, 0): ["r"], (1, 1): ["id1", "e"]}
    cat = labelled_category([0, 1], mor, compose, lambda i: f"id{i}")
    assert cat.iso_classes() == [[0], [1]]


ONE = np.eye(1, dtype=np.int64)


@pytest.mark.parametrize("dims, mats, message", [
    ([1], {0: ONE, 2: ONE}, "no matrix for morphism 1"),
    ([2], {m: ONE for m in range(3)}, "matrix shape mismatch on morphism 0"),
    ([1], {m: 0 * ONE for m in range(3)}, "identity morphism not the identity matrix"),
    ([1], {0: ONE, 1: 0 * ONE, 2: ONE}, "functoriality fails"),
], ids=["missing", "shape", "identity", "functoriality"])
def test_module_functor_check_fails_by_name(dims, mats, message):
    with pytest.raises(FunctorError, match=f"^{message}"):
        ModuleFunctor(c3_category(), 2, dims, mats)


def test_terminal_object_constant_functor_acyclic():
    # 0 -> 2 <- 1 with terminal object 2: contractible nerve
    cat = poset_category([(0, 2), (1, 2)], 3)
    F = constant_functor(cat, 2, 1)
    assert higher_limits(F, 3) == [1, 0, 0, 0]


def test_initial_object_constant_functor_acyclic():
    cat = poset_category([(0, 1), (0, 2)], 3)
    F = constant_functor(cat, 2, 1)
    assert higher_limits(F, 3) == [1, 0, 0, 0]


def test_discrete_two_points():
    cat = poset_category([], 2)
    F = constant_functor(cat, 2, 1)
    assert higher_limits(F, 2) == [2, 0, 0]


def test_one_object_group_category_gives_group_cohomology():
    # single object with C2 worth of automorphisms: lim^i = H^i(C2; F2)
    C2 = load_group("degree 2\n(1 2)")
    mor = {(0, 0): [0, 1]}

    def compose(g, f):
        return g ^ f

    cat = labelled_category(["*"], mor, compose, lambda i: 0)
    F = constant_functor(cat, 2, 1)
    assert higher_limits(F, 4) == [1, 1, 1, 1, 1]


@pytest.mark.parametrize("p, dims", [
    (3, [1, 1, 1, 1, 1]),  # H^*(C3; F_3) is one-dimensional in each degree
    (2, [1, 0, 0, 0, 0]),  # |C3| is invertible in F_2
])
def test_one_object_c3_category_gives_group_cohomology(p, dims):
    assert higher_limits(constant_functor(c3_category(), p, 1), 4) == dims


def s4_centric_orbit_category():
    return s4_centric_fusion()[1]


@functools.lru_cache(maxsize=None)
def s4_centric_fusion():
    G = bundled("s4")
    F = fusion_of_group(G, sylow(G, 2), 2)
    centrics = classify_subgroups_core_only(F).all_with("centric")
    return F, fusion_orbit_category(F, centrics)


def s4_centric_cohomology_functor(j):
    F, cat = s4_centric_fusion()
    return cohomology_functor_on_orbit_category(F, cat, CohomologyFamily(F.group, 2, 1), j)


def chain_levels(cat, depth, dims):
    """The chains of levels 0 to ``depth`` that carry coordinates, each row
    of ``nerve``'s index arrays as a tuple."""
    levels = nerve(cat, dims, depth).levels[:depth + 1]
    return [[tuple(row) for row in level.tolist()] for level in levels]


@pytest.mark.parametrize("make", [
    lambda: poset_category([(0, 1), (1, 2), (0, 3)], 4),
    c3_category,
    s4_centric_orbit_category,
])
def test_chain_counts_match_chain_levels(make):
    cat = make()
    dims = [i + 1 for i in range(cat.n)]
    levels = chain_levels(cat, 5, dims)
    sizes = [sum(dims[c[0] if n == 0 else cat.src[c[0]]] for c in level)
             for n, level in enumerate(levels)]
    assert chain_counts(cat, dims, 5) == ([len(level) for level in levels], sizes)


@pytest.mark.parametrize("dims", [[1, 0, 2, 0, 3], [0, 2, 0, 0, 1], [0, 0, 0, 0, 0]])
def test_chain_levels_keep_only_chains_that_carry_coordinates(dims):
    cat = s4_centric_orbit_category()
    dims = dims[:cat.n]
    first = lambda n, c: c[0] if n == 0 else cat.src[c[0]]
    every = chain_levels(cat, 4, [1] * cat.n)
    carried = chain_levels(cat, 4, dims)
    assert carried == [[c for c in level if dims[first(n, c)]]
                       for n, level in enumerate(every)]
    # each level in descending order of its reversed tuples
    assert all(level == sorted(level, key=lambda c: c[::-1], reverse=True)
               for level in every)
    sizes = [sum(dims[first(n, c)] for c in level) for n, level in enumerate(carried)]
    assert chain_counts(cat, dims, 4) == ([len(level) for level in carried], sizes)


def test_higher_limits_budget_raises_before_building_chains(monkeypatch):
    def no_chains(*args):
        raise AssertionError("nerve ran before the budget check")

    monkeypatch.setattr(catlimits, "nerve", no_chains)
    monkeypatch.setenv(MEMORY_BUDGET_ENV, "1")
    # 2^n chains at level n, about 2^18 in all at depth 17
    with pytest.raises(BudgetError, match="chains per degree"):
        higher_limits(constant_functor(c3_category(), 3, 1), 16)


@functools.lru_cache(maxsize=None)
def a6_centric_h3_functor():
    G = bundled("a6")
    F = fusion_of_group(G, sylow(G, 2), 2)
    cat = fusion_orbit_category(F, classify_subgroups_core_only(F).all_with("centric"))
    return cohomology_functor_on_orbit_category(F, cat, CohomologyFamily(G, 2, 3), 3)


def test_higher_limits_peak_under_budget_estimate():
    functor = a6_centric_h3_functor()
    need = catlimits.limits_bytes(functor, 4)[2]
    tracemalloc.start()
    try:
        assert higher_limits(functor, 4) == [2, 0, 0, 0, 0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < need


@pytest.mark.parametrize("make, max_degree, need", [
    (a6_centric_h3_functor, 4, 46_663_270),
    (lambda: constant_functor(s4_centric_orbit_category(), 3, 2), 3, 105_190_016),
], ids=["a6-h3", "s4-constant"])
def test_limits_bytes_pinned(make, max_degree, need):
    # the factorization term counts composable pairs of morphisms, not M^2
    assert catlimits.limits_bytes(make(), max_degree)[2] == need


def test_clearing_hands_each_degree_the_uncleared_coordinates(monkeypatch):
    # the transposed d_n gets one row per n-coordinate that is not the
    # leading coordinate of a pivot of the transposed d_{n-1}
    functor = a6_centric_h3_functor()
    rank = catlimits.rank_sparse_modp
    handed, ranks = [], []

    def counting(nrows, ncols, rows, p):
        rows = list(rows)
        leads = rank(nrows, ncols, iter(rows), p)
        assert len(rows) == nrows
        handed.append(nrows)
        ranks.append(len(leads))
        return leads

    monkeypatch.setattr(catlimits, "rank_sparse_modp", counting)
    assert higher_limits(functor, 4) == [2, 0, 0, 0, 0]
    sizes = chain_counts(functor.cat, functor.dims, 5)[1]
    assert sizes[4] == 8002 and ranks[3] == 1335 and handed[4] == 6667
    assert handed == [sizes[n] - (ranks[n - 1] if n else 0) for n in range(5)]


def dense_differential_ranks(functor, max_degree):
    """Ranks of the dense d_n, n <= max_degree, written from the normalized
    coboundary: (d phi)(f_1, ..., f_{n+1}) = F(f_1) phi(f_2, ..., f_{n+1})
    + sum_k (-1)^k phi(..., f_{k+1} f_k, ...) + (-1)^{n+1} phi(f_1, ..., f_n),
    where a face whose composite is an identity is a degenerate chain, on
    which normalized cochains vanish."""
    cat, p, dims = functor.cat, functor.p, functor.dims
    levels = chain_levels(cat, max_degree + 1, [1] * cat.n)  # every chain
    starts = []
    for n, level in enumerate(levels):
        pos, start = 0, {}
        for chain in level:
            start[chain] = pos
            pos += dims[chain[0] if n == 0 else cat.src[chain[0]]]
        starts.append((start, pos))
    ranks = []
    for n in range(max_degree + 1):
        (cols, ncols), (rows, nrows) = starts[n], starts[n + 1]
        A = np.zeros((nrows, ncols), dtype=np.int64)
        for chain, r in rows.items():
            f = chain[0]
            d = dims[cat.src[f]]
            tail = chain[1:] if n else (cat.tgt[f],)
            c = cols[tail]
            A[r:r + d, c:c + dims[cat.tgt[f]]] += functor.mats[f]
            faces = [((-1) ** (n + 1), chain[:-1] if n else (cat.src[f],))]
            for k in range(1, n + 1):
                comp = cat.comp[(chain[k], chain[k - 1])]
                if comp not in cat.identity:
                    faces.append(((-1) ** k, chain[:k - 1] + (comp,) + chain[k + 1:]))
            for sign, face in faces:
                c = cols[face]
                A[r:r + d, c:c + d] += sign * np.eye(d, dtype=np.int64)
        ranks.append(len(row_echelon_modp(A, p)[1]) if A.size else 0)
    return ranks


@pytest.mark.parametrize("make, max_degree", [
    (lambda: constant_functor(c3_category(), 2, 1), 4),
    (lambda: constant_functor(c3_category(), 3, 1), 4),
    (lambda: constant_functor(c3_category(), 3, 2), 4),
    (lambda: constant_functor(s4_centric_orbit_category(), 3, 2), 2),
    (lambda: s4_centric_cohomology_functor(0), 3),
    (lambda: s4_centric_cohomology_functor(1), 3),
    (lambda: constant_functor(cyclic_category(5), 5, 2), 4),
    # zero off one object: lim = [2, 0, 0, 0], [0, 0, 0, 1] and 0
    (lambda: atomic_functor(s4_centric_orbit_category(), 3, 2, 2), 3),
    (lambda: atomic_functor(s4_centric_orbit_category(), 1, 1, 3), 3),
    (lambda: atomic_functor(s4_centric_orbit_category(), 1, 2, 5), 3),
])
def test_higher_limits_match_dense_differentials(make, max_degree):
    functor = make()
    ranks = dense_differential_ranks(functor, max_degree)
    sizes = chain_counts(functor.cat, functor.dims, max_degree)[1]
    expected = [sizes[n] - ranks[n] - (ranks[n - 1] if n else 0)
                for n in range(max_degree + 1)]
    assert higher_limits(functor, max_degree) == expected


def dense_limits(functor, max_degree):
    """lim^n from the ranks of the dense differentials."""
    ranks = dense_differential_ranks(functor, max_degree)
    sizes = chain_counts(functor.cat, functor.dims, max_degree)[1]
    return [sizes[n] - ranks[n] - (ranks[n - 1] if n else 0) for n in range(max_degree + 1)]


@st.composite
def height_one_functors(draw):
    """A poset whose morphisms run from minimal to maximal objects, so no two
    nonidentity morphisms compose and any F_p matrices make a functor."""
    p = draw(st.sampled_from([2, 3, 5]))
    low, high = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cat = poset_category([(i, low + j) for i in range(low) for j in range(high)
                          if draw(st.booleans())], low + high)
    dims = draw(st.lists(st.integers(0, 3), min_size=cat.n, max_size=cat.n))
    mats = {}
    for m, (i, j) in enumerate(zip(cat.src, cat.tgt)):
        shape = (dims[i], dims[j])
        entries = draw(st.lists(st.integers(0, p - 1), min_size=shape[0] * shape[1],
                                max_size=shape[0] * shape[1]))
        mats[m] = np.eye(dims[i], dtype=np.int64) if i == j else np.reshape(entries, shape)
    return ModuleFunctor(cat, p, dims, mats)


@settings(max_examples=60, deadline=None)
@given(height_one_functors())
def test_higher_limits_match_dense_on_random_matrices(functor):
    assert higher_limits(functor, 2) == dense_limits(functor, 2)


@st.composite
def constant_functors_with_zeros(draw):
    """A random poset on up to five objects with the constant functor F_p^d
    and, on the same category, its restriction by zero to an up- or
    down-closed set of objects (so that the zeros still make a functor)."""
    p, d = draw(st.sampled_from([2, 3, 5])), draw(st.integers(1, 2))
    n = draw(st.integers(1, 5))
    cat = poset_category([(i, j) for i in range(n) for j in range(i + 1, n)
                          if draw(st.booleans())], n)
    seeds = draw(st.lists(st.integers(0, n - 1), max_size=n))
    up = draw(st.booleans())
    below = lambda i, j: any(cat.morphisms(i, j))  # noqa: E731
    keep = [any(below(s, i) if up else below(i, s) for s in seeds) for i in range(n)]
    dims = [d if k else 0 for k in keep]
    mats = {m: np.eye(d, dtype=np.int64) if keep[i] and keep[j] else
            np.zeros((dims[i], dims[j]), dtype=np.int64)
            for m, (i, j) in enumerate(zip(cat.src, cat.tgt))}
    return constant_functor(cat, p, d), ModuleFunctor(cat, p, dims, mats)


@settings(max_examples=60, deadline=None)
@given(constant_functors_with_zeros())
def test_higher_limits_match_dense_on_supports_of_one_category(functors):
    # the two functors share the category, and each support gets its chains
    for functor in functors:
        assert higher_limits(functor, 3) == dense_limits(functor, 3)


def test_sharpness_builds_each_nerve_level_once(monkeypatch):
    # one category for every H^j of a sharpness run: one Nerve per support,
    # each level built once, however many functors read it
    L, _, _ = punctured_ot("s4", 2)
    nerves, levels, calls = [], [], []
    init, grow, limits = catlimits.Nerve.__init__, catlimits.Nerve.grow, catlimits.higher_limits

    def counting_init(self, cat, support):
        init(self, cat, support)
        nerves.append((id(cat), tuple(support)))

    def counting_grow(self):
        levels.append((id(self), len(self.levels)))
        grow(self)

    def counting_limits(functor, max_degree=4):
        calls.append(tuple(map(bool, functor.dims)))
        return limits(functor, max_degree)

    monkeypatch.setattr(catlimits.Nerve, "__init__", counting_init)
    monkeypatch.setattr(catlimits.Nerve, "grow", counting_grow)
    monkeypatch.setattr(catlimits, "higher_limits", counting_limits)
    sharpness_pipeline(L, jmax=2, max_degree=4)
    assert len(calls) == 3
    assert len(nerves) == len(set(nerves)) == len(set(calls)) == len({c for c, _ in nerves})
    assert sorted(levels) == sorted(set(levels)) and len(levels) == 5 * len(nerves)


def test_supports_of_one_category_get_their_own_levels(monkeypatch):
    F, _ = s4_centric_fusion()
    cat = fusion_orbit_category(F, classify_subgroups_core_only(F).all_with("centric"))
    built = []
    grow = catlimits.Nerve.grow

    def counting(self):
        built.append(id(self))
        grow(self)

    monkeypatch.setattr(catlimits.Nerve, "grow", counting)
    first, second = (atomic_functor(cat, i, 1, 2) for i in (1, 3))
    assert higher_limits(first, 3) == dense_limits(first, 3)
    assert higher_limits(second, 3) == dense_limits(second, 3)
    assert higher_limits(first, 3) == dense_limits(first, 3)
    # the two supports and the dense oracle's every-object support, each
    # built through level 4 once, the repeat building nothing
    assert sorted(collections.Counter(built).values()) == [4, 4, 4]
    assert [len(level) for level in chain_levels(cat, 3, first.dims)] == \
        chain_counts(cat, first.dims, 3)[0] != chain_counts(cat, second.dims, 3)[0]


def test_pushout_poset_limits():
    # b <- a -> c: lim^0 of the constant functor is F_p (connected), no
    # higher limits (free category / nerve contractible)
    cat = poset_category([(0, 1), (0, 2)], 3)
    F = constant_functor(cat, 3, 2)
    assert higher_limits(F, 3) == [2, 0, 0, 0]


def test_lambda_trivial_group():
    G1 = load_group("degree 1\n()", name="1")
    assert lambda_dims(G1, 2, 3, 4) == [3, 0, 0, 0, 0]


def test_lambda_c2_vanishes():
    C2 = load_group("degree 2\n(1 2)")
    assert lambda_dims(C2, 2, 1, 4) == [0, 0, 0, 0, 0]


def test_lambda_s3_higher_degrees_vanish():
    # degree >= 1 vanishing: the centralizer has odd index; degree 0 is
    # computed from the definition (projections to orbits with 2-group
    # isotropy kill the free-orbit coordinate, so it is 0 here)
    S3 = load_group("degree 3\n(1 2)\n(1 2 3)")
    dims = lambda_dims(S3, 2, 1, 4)
    assert dims[1:] == [0, 0, 0, 0]
    assert dims[0] == 0


def test_lambda_c3_at_2_degree_zero_only():
    # p'-group: the p-orbit category is the one-object orbit Gamma/1 with
    # Gamma worth of automorphisms; fixed points in degree 0
    C3 = load_group("degree 3\n(1 2 3)")
    dims = lambda_dims(C3, 2, 1, 3)
    assert dims == [1, 0, 0, 0]


@functools.lru_cache(maxsize=None)
def punctured_ot(name, p):
    G = bundled(name)
    S = sylow(G, p)
    L = build_locality(G, S, delta_all_nontrivial(S), p)
    T, _ = transporter_of_locality(L)
    OT, _ = orbit_category(T)
    return L, T, OT


def coset_oracle(G, objects, elements):
    """``labelled_category`` on the cosets P_j f of the f in elements(i, j),
    each labelled (min P_j f, i, j) and composed by multiplying the minima,
    one scalar ``mul`` at a time."""
    def label(x, i, j):
        return min(G.mul(q, x) for q in objects[j]), i, j

    n = len(objects)
    mor = {(i, j): sorted({label(f, i, j) for f in elements(i, j)})
           for i in range(n) for j in range(n)}
    return labelled_category(objects, mor, lambda g, f: label(G.mul(g[0], f[0]), f[1], g[2]),
                             lambda i: label(G.identity, i, i))


def assert_same_category(cat, oracle):
    assert (cat.objects, cat.src, cat.tgt, cat.identity) == (
        oracle.objects, oracle.src, oracle.tgt, oracle.identity)
    assert np.array_equal(cat.comp, oracle.comp)
    assert [lab[0] for lab in cat.labels] == [lab[0] for lab in oracle.labels]


@pytest.mark.parametrize("name", ["s4", "a6", "a6xc3"])
def test_orbit_category_matches_the_label_oracle(name):
    _, T, OT = punctured_ot(name, 2)
    objects = OT.objects
    assert_same_category(OT.cat, coset_oracle(
        OT.group, objects, lambda i, j: T.mor_elements(objects[i], objects[j])))


def p_subgroup_classes(G, p):
    """The first of each conjugacy class of subgroups of a Sylow p-subgroup
    in ``all_subgroups`` order, the class found by conjugating with every
    element of G."""
    reps, seen = [], set()
    for m in all_subgroups(sylow(G, p)):
        if m not in seen:
            reps.append(m)
            seen |= {frozenset(G.conj(x, g) for x in m) for g in range(G.order)}
    return reps


@settings(max_examples=25, deadline=None)
@given(small_groups())
def test_p_orbit_category_matches_the_label_oracle(G):
    for p in (q for q in (2, 3, 5) if G.order % q == 0):
        cat, reps = p_orbit_category(G, p)
        assert reps == p_subgroup_classes(G, p)
        # Gamma/P -> Gamma/Q sends P to Q h for each h with h P h^-1 <= Q
        assert_same_category(cat, coset_oracle(G, reps, lambda i, j: [
            h for h in range(G.order)
            if all(G.mul(G.mul(h, x), G.inv(h)) in reps[j] for x in reps[i])]))


def test_skeleton_invariance_on_punctured_s4():
    L, T, OT = punctured_ot("s4", 2)
    fam = CohomologyFamily(L.ambient, 2, 2)
    functor = ot_cohomology_functor(OT, fam, 1)
    full = higher_limits(functor, 2)
    skel = higher_limits(skeleton_functor(functor), 2)
    assert full == skel


def test_atomic_comparison_s4_all_classes():
    L, T, OT = punctured_ot("s4", 2)
    cat = transporter_orbit_cat(OT)
    seen = set()
    for cls in cat.iso_classes():
        rep = cat.objects[cls[0]]
        if rep in seen:
            continue
        seen.add(rep)
        ot_side, lam_side = atomic_comparison(OT, rep, 1, 2, 3)
        assert ot_side == lam_side, (len(rep), ot_side, lam_side)


def test_atomic_comparison_a6_all_classes(monkeypatch):
    # criterion 10's call sequence on a fresh orbit category of the
    # punctured a6 builds its 9-object category once
    L, T, _ = punctured_ot("a6", 2)
    built = []
    init = FiniteCategory.__init__

    def counting(self, *args):
        init(self, *args)
        built.append(self.n)

    monkeypatch.setattr(FiniteCategory, "__init__", counting)
    OT, _ = orbit_category(T)
    cat = transporter_orbit_cat(OT)
    for cls in cat.iso_classes():
        rep = cat.objects[cls[0]]
        ot_side, lam_side = atomic_comparison(OT, rep, 1, 2, 4)
        assert ot_side == lam_side, (len(rep), ot_side, lam_side)
    full, centric = restrict_to_centrics_comparison(
        OT, fusion_of_locality(L), CohomologyFamily(L.ambient, 2, 2), 1, 4)
    assert full == centric
    assert cat.n == 9 and built.count(9) == 1


def test_atomic_comparison_a6_builds_its_skeleton_once(monkeypatch):
    # criterion 10's calls on the punctured a6: one skeleton of the orbit
    # category, shared by every class and by the centric comparison
    L, T, _ = punctured_ot("a6", 2)
    OT, _ = orbit_category(T)
    built = []
    init = FiniteCategory.__init__

    def counting(self, objects, *args):
        init(self, objects, *args)
        built.append(list(objects))

    monkeypatch.setattr(FiniteCategory, "__init__", counting)
    cat = transporter_orbit_cat(OT)
    classes = cat.iso_classes()
    for cls in classes:
        atomic_comparison(OT, cat.objects[cls[0]], 1, 2, 4)
    restrict_to_centrics_comparison(
        OT, fusion_of_locality(L), CohomologyFamily(L.ambient, 2, 2), 1, 4)
    skeleton = [cat.objects[cls[0]] for cls in classes]
    assert 1 < len(skeleton) < cat.n
    assert built.count(skeleton) == 1


def test_atomic_zero_module():
    L, T, OT = punctured_ot("s4", 2)
    rep = OT.objects[0]
    ot_side, lam_side = atomic_comparison(OT, rep, 0, 2, 2)
    assert ot_side == [0, 0, 0] and lam_side == [0, 0, 0]


def test_restrict_to_centrics_h1_a6():
    L, T, OT = punctured_ot("a6", 2)
    F = fusion_of_locality(L)
    fam = CohomologyFamily(L.ambient, 2, 2)
    full, centric = restrict_to_centrics_comparison(OT, F, fam, 1, 4)
    assert full == centric


def test_restrict_to_centrics_constant_a6():
    L, T, OT = punctured_ot("a6", 2)
    F = fusion_of_locality(L)
    fam = CohomologyFamily(L.ambient, 2, 2)
    full, centric = restrict_to_centrics_comparison(OT, F, fam, 0, 3)
    assert full == centric


def test_proto_mackey_h1_a6():
    L, T, OT = punctured_ot("a6", 2)
    fam = CohomologyFamily(L.ambient, 2, 2)
    report = proto_mackey_check(OT, fam, 1)
    assert report["passed"], report["failures"][:3]
    assert report["b1"] and report["b2"]


def test_proto_mackey_h0_recorded():
    # degree zero: trivial intersections mean the double-coset formula can
    # miss summands; the outcome is recorded, not asserted
    L, T, OT = punctured_ot("s4", 2)
    fam = CohomologyFamily(L.ambient, 2, 1)
    report = proto_mackey_check(OT, fam, 0)
    assert isinstance(report["passed"], bool)
    assert report["b1"] and report["b2"]


def test_fusion_orbit_category_a6_counts():
    G = bundled("a6")
    S = sylow(G, 2)
    F = fusion_of_group(G, S, 2)
    cls = classify_subgroups_core_only(F)
    centrics = cls.all_with("centric")
    cat = fusion_orbit_category(F, centrics)
    assert cat.n == 4
    # Aut_O(V4) = S3 has 6 orbit classes (Inn(V4) trivial on a Klein four)
    sizes = sorted(len(cat.morphisms(i, i)) for i in range(cat.n))
    assert sizes == [1, 2, 6, 6]


def test_stable_elements_match_lim0_a6():
    G = bundled("a6")
    S = sylow(G, 2)
    F = fusion_of_group(G, S, 2)
    cls = classify_subgroups_core_only(F)
    centrics = cls.all_with("centric")
    cat = fusion_orbit_category(F, centrics)
    fam = CohomologyFamily(G, 2, 2)
    for j in range(3):
        functor = cohomology_functor_on_orbit_category(F, cat, fam, j)
        dims = higher_limits(functor, 3)
        assert dims[0] == stable_subspace_dim(F, fam, j, centrics)
        assert dims[1:] == [0, 0, 0]


class InclusionsOnly:
    """A fusion system stand-in whose hom-sets hold only the inclusions, so
    they are not closed under the inner automorphisms of the target."""

    def __init__(self, group):
        self.group = group

    def hom(self, P, Q):
        return [tuple(sorted((x, x) for x in P))] if P <= Q else []


def test_fusion_orbit_category_needs_inn_q_to_act():
    F, _ = s4_centric_fusion()
    S = frozenset(F.sylow.members)  # a nonabelian D8: Inn(S) moves the identity
    with pytest.raises(FunctorError, match=r"^Inn\(Q\) does not act"):
        fusion_orbit_category(InclusionsOnly(F.group), [S])


def test_descent_needs_inner_automorphisms_to_act_trivially(monkeypatch):
    # inner automorphisms act trivially on H^j (a theorem), so the check is
    # reached only through a broken restriction map
    F, cat = s4_centric_fusion()
    fam = CohomologyFamily(F.group, 2, 1)
    restriction = catlimits.restriction_map
    monkeypatch.setattr(catlimits, "restriction_map", lambda *a: 0 * restriction(*a))
    with pytest.raises(FunctorError, match="^inner automorphism acts nontrivially"):
        cohomology_functor_on_orbit_category(F, cat, fam, 1)


def test_sharpness_needs_a_saturated_fusion_system(monkeypatch):
    # F_S(L) of a locality on all nontrivial subgroups is saturated, so the
    # check is reached only through a saturation test that says no
    from locus import fusion

    L, _, _ = punctured_ot("s4", 2)
    monkeypatch.setattr(fusion, "is_saturated", lambda F: (False, ["witness"]))
    with pytest.raises(FunctorError, match="^fusion system not saturated: \\['witness'\\]"):
        sharpness_pipeline(L, jmax=0, max_degree=1)
