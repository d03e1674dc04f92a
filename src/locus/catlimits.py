"""Functors on finite categories and their derived inverse limits.

The cochain model is the normalized bar complex: an n-chain is a string of
n composable nonidentity morphisms, carrying the functor value at its
source object; faces whose inner composite collapses to an identity drop
out.  Ranks of the differentials are computed over F_p by pivot insertion
(``linalg.rank_sparse_modp``), in cohomology order with clearing: the rank
of d_n is read off the coboundaries of the n-coordinates, each built
straight into the eliminator's representation and reduced at once, and the
coordinates that the pivots of d_{n-1} show to be dependent are skipped
(``higher_limits``).  Neither a dense matrix nor a list of entries is
built, and only chains that carry coordinates are enumerated.

Higher limits are invariant under equivalence of categories, so the
comparisons on orbit categories run on a skeleton (one object per
isomorphism class); the invariance itself is exercised by the test suite
on categories small enough to do both computations.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .cohomology import BudgetError, CohomologyFamily, budget_mb, restriction_map
from .linalg import Row, nullspace_modp, rank_sparse_modp
from .permgroups import Group

MemberSet = FrozenSet[int]


class FunctorError(ValueError):
    pass


class FiniteCategory:
    """Explicit object list, morphism table, and composition law.

    Morphisms are numbered in order of (source, target), so each hom-set is
    a range; ``comp[g, f]`` is g o f, or -1 where g and f do not compose.
    """

    def __init__(self, objects: Sequence, mor_labels: Dict[Tuple[int, int], List],
                 compose: Callable, identity_of: Callable):
        """``compose(j_to_k_label, i_to_j_label)`` returns an i-to-k label;
        ``identity_of(obj_index)`` the identity label at an object."""
        self.objects = list(objects)
        self.n = len(self.objects)
        self.src: List[int] = []
        self.tgt: List[int] = []
        self.labels: List = []
        self._hom: Dict[Tuple[int, int], range] = {}
        index: Dict[Tuple[int, int, object], int] = {}
        for (i, j), labels in sorted(mor_labels.items()):
            self._hom[(i, j)] = range(len(self.labels), len(self.labels) + len(labels))
            for lab in labels:
                index[(i, j, lab)] = len(self.labels)
                self.labels.append(lab)
                self.src.append(i)
                self.tgt.append(j)
        self.identity: List[int] = []
        for i in range(self.n):
            lab = identity_of(i)
            if (i, i, lab) not in index:
                raise FunctorError(f"identity {lab!r} at object {i} is not a morphism")
            self.identity.append(index[(i, i, lab)])
        self.comp = np.full((len(self.labels),) * 2, -1, dtype=np.int32)
        for (j, k), gs in self._hom.items():  # g: j -> k after each f: i -> j
            for i in range(self.n):
                for f in self.morphisms(i, j):
                    for g in gs:
                        lab = compose(self.labels[g], self.labels[f])
                        if (i, k, lab) not in index:
                            raise FunctorError(f"composite {lab!r} of morphisms {g} and {f} "
                                               f"is not a morphism {i} -> {k}")
                        self.comp[g, f] = index[(i, k, lab)]
        self._check_axioms()
        self._skeleton: Optional[Tuple[FiniteCategory, List[List[int]]]] = None

    def _check_axioms(self) -> None:
        every = np.arange(len(self.labels))
        ident, src, tgt = (np.array(a, dtype=np.intp) for a in (self.identity, self.src, self.tgt))
        if (self.comp[every, ident[src]] != every).any():
            raise FunctorError("right identity fails")
        if (self.comp[ident[tgt], every] != every).any():
            raise FunctorError("left identity fails")
        g, f = np.nonzero(self.comp >= 0)
        gf = self.comp[g, f]
        for h in range(len(self.labels)):
            hg = self.comp[h, g]
            on = hg >= 0  # the composable (g, f) with h after g
            if (self.comp[hg[on], f[on]] != self.comp[h, gf[on]]).any():
                raise FunctorError("composition not associative")

    def morphisms(self, i: int, j: int) -> range:
        return self._hom.get((i, j), range(0))

    def nonidentity_out(self, i: int) -> List[int]:
        return [m for j in range(self.n) for m in self.morphisms(i, j) if m != self.identity[i]]

    def iso_classes(self) -> List[List[int]]:
        """Object classes under invertible morphisms.  Isomorphism is an
        equivalence relation, so a class is one object with its isomorphs."""
        def isomorphic(i: int, j: int) -> bool:
            to, back = self.morphisms(i, j), self.morphisms(j, i)
            return bool(((self.comp[np.ix_(back, to)] == self.identity[i])
                         & (self.comp[np.ix_(to, back)].T == self.identity[j])).any())

        classes: List[List[int]] = []
        seen: Set[int] = set()
        for i in range(self.n):
            if i not in seen:
                classes.append([i] + [j for j in range(i + 1, self.n) if isomorphic(i, j)])
                seen.update(classes[-1])
        return classes

    def skeleton(self) -> Tuple["FiniteCategory", List[List[int]]]:
        """The full subcategory on the first object of each isomorphism
        class, with the classes; built on the first call and kept."""
        if self._skeleton is None:
            classes = self.iso_classes()
            self._skeleton = (self.full_subcategory([c[0] for c in classes])[0], classes)
        return self._skeleton

    def full_subcategory(self, keep: Sequence[int]) -> Tuple["FiniteCategory", Dict[int, int]]:
        keep = list(keep)
        old_to_new = {o: i for i, o in enumerate(keep)}
        mor_labels = {(a, b): list(self.morphisms(i, j))
                      for a, i in enumerate(keep) for b, j in enumerate(keep)}
        sub = FiniteCategory([self.objects[o] for o in keep], mor_labels,
                             lambda g, f: int(self.comp[g, f]), lambda i: self.identity[keep[i]])
        return sub, old_to_new


class ModuleFunctor:
    """Contravariant functor into F_p vector spaces.

    mats[m] has shape (dims[src(m)], dims[tgt(m)]): the value of a morphism
    carries the target's space back to the source's.
    """

    def __init__(self, cat: FiniteCategory, p: int, dims: Sequence[int],
                 mats: Dict[int, np.ndarray]):
        self.cat = cat
        self.p = p
        self.dims = list(dims)
        self.mats = {m: np.asarray(M, dtype=np.int64) % p for m, M in mats.items()}
        self.check()

    def check(self) -> None:
        cat, p = self.cat, self.p
        for m in range(len(cat.labels)):
            M = self.mats.get(m)
            if M is None:
                raise FunctorError(f"no matrix for morphism {m}")
            if M.shape != (self.dims[cat.src[m]], self.dims[cat.tgt[m]]):
                raise FunctorError(f"matrix shape mismatch on morphism {m}")
        for i, ident in enumerate(cat.identity):
            if self.dims[i] and not np.array_equal(
                    self.mats[ident] % p, np.eye(self.dims[i], dtype=np.int64)):
                raise FunctorError("identity morphism not the identity matrix")
        gs, fs = np.nonzero(cat.comp >= 0)
        for g, f, gf in zip(gs.tolist(), fs.tolist(), cat.comp[gs, fs].tolist()):
            lhs = self.mats[gf]
            rhs = (self.mats[f] @ self.mats[g]) % p
            if not np.array_equal(lhs % p, rhs):
                raise FunctorError("functoriality fails on a composite")


def chain_levels(cat: FiniteCategory, depth: int,
                 dims: Sequence[int]) -> List[List[Tuple[int, ...]]]:
    """Normalized chains that carry cochain coordinates: level n lists the
    n-tuples of composable nonidentity morphisms whose first source has
    nonzero dimension in ``dims``; level 0 lists one (object,) tuple per
    such object.  Each level is in descending order of its reversed tuples,
    the order ``higher_limits`` numbers cochain coordinates in.

    Appending a morphism keeps the first source, so the chains of a level
    are the extensions of the chains of the level below.
    """
    identities = set(cat.identity)
    nonid = [m for m in reversed(range(len(cat.labels))) if m not in identities]
    levels: List[List[Tuple[int, ...]]] = [[(i,) for i in reversed(range(cat.n)) if dims[i]]]
    ending: Dict[int, List[Tuple[int, ...]]] = {i: [()] if dims[i] else []
                                                for i in range(cat.n)}
    for _ in range(depth):
        # grouped by the last morphism, descending; within a group the
        # previous level's order
        level = [c + (m,) for m in nonid for c in ending[cat.src[m]]]
        levels.append(level)
        ending = {i: [] for i in range(cat.n)}
        for c in level:
            ending[cat.tgt[c[-1]]].append(c)
    return levels


def chain_counts(cat: FiniteCategory, dims: Sequence[int],
                 depth: int) -> Tuple[List[int], List[int]]:
    """Chains and cochain coordinates per level of
    ``chain_levels(cat, depth, dims)``, counted without building a chain.

    The n-chains ending at an object are the (n-1)-chains ending at the
    source of one of its nonidentity in-morphisms, extended by it; a chain
    carries the dimension at its first source, and only chains that carry
    a coordinate count.
    """
    identities = set(cat.identity)
    arrows = [(cat.src[m], cat.tgt[m]) for m in range(len(cat.labels))
              if m not in identities]
    ending = [1 if d else 0 for d in dims]  # chains ending at each object
    coords = list(dims)                     # their coordinates
    chains_out, coords_out = [sum(ending)], [sum(coords)]
    for _ in range(depth):
        nxt_ending, nxt_coords = [0] * cat.n, [0] * cat.n
        for x, y in arrows:
            nxt_ending[y] += ending[x]
            nxt_coords[y] += coords[x]
        ending, coords = nxt_ending, nxt_coords
        chains_out.append(sum(ending))
        coords_out.append(sum(coords))
    return chains_out, coords_out


# Bytes per chain of level n while the complex exists: CHAIN_BYTES + 8n for
# the n-tuple, its list slot, its offsets-dict entry and its offset int.
# tracemalloc on chain_levels plus the offset dicts of the s4 and a6 centric
# orbit categories read 36-148 bytes per chain at levels 0-5.
CHAIN_BYTES = 112
# Bytes per row the rank holds besides its columns (int or dict header and
# pivot-table slot: 56-99 read at p = 2 on the same categories, 224 for the
# smallest dict), and per column at odd p (dict slot, key and value ints);
# an int row at p = 2 packs 30 columns in 4 bytes.
ROW_BYTES, CELL_BYTES = 256, 128


def limits_bytes(functor: ModuleFunctor, max_degree: int) -> Tuple[List[int], List[int], int]:
    """Chains and coordinates per degree (``chain_counts``) and a bound on the
    bytes ``higher_limits`` holds: the chains with their offsets, the
    columns of the morphisms' matrices (one row of at most max(dims)
    columns per coordinate of a target, for each morphism from a nonzero
    source), the tables per object and morphism with the factorizations of
    the morphisms (at most one per composable pair) and the pivots of
    one transposed d_n, at most min(dim C^n, dim C^{n+1}) rows of
    dim C^{n+1} columns."""
    cat, dims = functor.cat, functor.dims
    counts, sizes = chain_counts(cat, dims, max_degree + 1)
    col_bytes = 4 / 30 if functor.p == 2 else CELL_BYTES
    need = sum((CHAIN_BYTES + 8 * n) * c for n, c in enumerate(counts))
    columns = sum(dims[cat.tgt[m]] for m in range(len(cat.labels)) if dims[cat.src[m]])
    need += columns * (ROW_BYTES + max(dims, default=0) * col_bytes)
    need += (cat.n + len(cat.labels) + np.count_nonzero(cat.comp >= 0)) * ROW_BYTES
    need += max(min(sizes[n], sizes[n + 1]) * (ROW_BYTES + sizes[n + 1] * col_bytes)
                for n in range(max_degree + 1))
    return counts, sizes, int(need)


def higher_limits(functor: ModuleFunctor, max_degree: int = 4) -> List[int]:
    """Dimensions of lim^i for 0 <= i <= max_degree.

    Degree by degree, the rank of d_n : C^n -> C^{n+1} is read off the rows
    of its transpose: one coboundary d(e_x) per n-coordinate x, in
    increasing order of x (``_coboundary_rows``).  Clearing skips the rows
    whose coordinate is the leading column of a pivot of the transposed
    d_{n-1}.  Such a pivot is a coboundary e_x + (terms below x), up to a
    unit, and d_n kills coboundaries, so d(e_x) is a combination of the
    d(e_y) with y < x: the row of x lies in the span of the earlier rows,
    and skipping it leaves the rank as it is.  So d_n hands
    dim C^n - rank d_{n-1} rows to the eliminator.

    Raises ``BudgetError`` before any chain is built when ``limits_bytes``
    exceeds the memory budget.
    """
    counts, sizes, need = limits_bytes(functor, max_degree)
    if need > budget_mb() * 1_000_000:
        raise BudgetError(
            f"cochain complex too large: chains per degree {counts}, "
            f"coordinates per degree {sizes}, about {need} bytes "
            f"(budget {budget_mb()} MB)")
    levels = chain_levels(functor.cat, max_degree + 1, functor.dims)
    tables = _coface_tables(functor)
    ranks: List[int] = []
    leads: Set[int] = set()  # leading coordinates of the previous pivots
    for n in range(max_degree + 1):
        rows = _coboundary_rows(functor, tables, levels[n], levels[n + 1], n, leads)
        leads = set(rank_sparse_modp(sizes[n] - len(leads), sizes[n + 1], rows, functor.p))
        ranks.append(len(leads))
    return [sizes[n] - ranks[n] - (ranks[n - 1] if n else 0) for n in range(max_degree + 1)]


CofaceTables = Tuple[Dict[int, List[Tuple[int, List[Row]]]], Dict[int, List[int]],
                     Dict[int, List[Tuple[int, int]]]]


def _coface_tables(functor: ModuleFunctor) -> CofaceTables:
    """What a coboundary reads from the functor and the category.

    For each object s: the nonidentity morphisms f into s from an object of
    nonzero dimension whose matrix is not zero, each with its matrix's
    columns (column j as a row in the representation ``rank_sparse_modp``
    reads at the functor's p); and the nonidentity morphisms out of s.  For
    each morphism h: its factorizations h = b o a into nonidentity a and b,
    as pairs (a, b), from ``cat.comp``, in the order of its composable pairs.
    """
    cat, p = functor.cat, functor.p
    identities = set(cat.identity)
    into: Dict[int, List[Tuple[int, List[Row]]]] = {s: [] for s in range(cat.n)}
    for f in range(len(cat.labels)):
        M = functor.mats[f]
        if f in identities or not M.any():
            continue
        cols = [np.flatnonzero(col).tolist() for col in M.T]
        into[cat.tgt[f]].append((f, [sum(1 << i for i in rows) for rows in cols] if p == 2 else
                                    [dict(zip(rows, col[rows].tolist()))
                                     for col, rows in zip(M.T, cols)]))
    out = {s: cat.nonidentity_out(s) for s in range(cat.n)}
    factors: Dict[int, List[Tuple[int, int]]] = {h: [] for h in range(len(cat.labels))}
    bs, as_ = np.nonzero(cat.comp >= 0)
    for b, a, h in zip(bs.tolist(), as_.tolist(), cat.comp[bs, as_].tolist()):
        if a not in identities and b not in identities:
            factors[h].append((a, b))
    return into, out, factors


def _coboundary_rows(functor: ModuleFunctor, tables: CofaceTables,
                     chains: List[Tuple[int, ...]], upper: List[Tuple[int, ...]],
                     n: int, cleared: Set[int]) -> Iterator[Row]:
    """Rows of the transpose of d_n : C^n -> C^{n+1}: the coboundary of each
    n-coordinate not in ``cleared``, in increasing order, in the
    representation ``rank_sparse_modp`` reads at the functor's p.

    Coordinates are numbered along ``chains`` (the n-chains) and ``upper``
    (the (n+1)-chains), a chain's coordinates j = 0, 1, ... in a row.  The
    coboundary of coordinate j of c = (c_1, ..., c_n), with first source s,
    has three kinds of coface:

    - (f, c_1, ..., c_n) for a nonidentity f into s: F(f)[i, j] at its
      coordinate i (face 0);
    - (c_1, ..., c_n, g) for a nonidentity g out of the target of c_n:
      (-1)^(n+1) at its coordinate j (the last face);
    - c with c_k split as b o a, a and b nonidentity: (-1)^k at its
      coordinate j (inner face k).

    For n = 0, c is an object s and the cofaces are (f,) and (g,).  Values
    at a repeated coordinate add up mod p.
    """
    cat, dims, p = functor.cat, functor.dims, functor.p
    into, out, factors = tables
    # the first coordinate of each (n+1)-chain
    off = dict(zip(upper, accumulate((dims[cat.src[c[0]]] for c in upper), initial=0)))
    signs = [(-1) ** k for k in range(n + 2)]
    firsts = accumulate((dims[c[0] if n == 0 else cat.src[c[0]]] for c in chains), initial=0)
    for c, first in zip(chains, firsts):
        s, tail, t = (c[0], (), c[0]) if n == 0 else (cat.src[c[0]], c, cat.tgt[c[-1]])
        js = [j for j in range(dims[s]) if first + j not in cleared]
        if not js:
            continue
        face0 = [(off[(f,) + tail], cols) for f, cols in into[s]]
        units = [(off[tail + (g,)], signs[n + 1]) for g in out[t]]
        for k in range(1, n + 1):
            head, rest = c[:k - 1], c[k:]
            units += [(off[head + ab + rest], signs[k]) for ab in factors[c[k - 1]]]
        if p == 2:
            unit = 0  # the unit cofaces of coordinate 0, shifted by j below
            for base, _ in units:
                unit ^= 1 << base
        for j in js:
            if p == 2:
                row = unit << j
                for base, cols in face0:
                    row ^= cols[j] << base
            else:
                row = {}
                entries = [(base + i, v) for base, cols in face0 for i, v in cols[j].items()]
                entries += [(base + j, sign) for base, sign in units]
                for col, v in entries:
                    w = (row.get(col, 0) + v) % p
                    if w:
                        row[col] = w
                    else:
                        del row[col]
            yield row


def restrict_functor(functor: ModuleFunctor, keep: Sequence[int]) -> ModuleFunctor:
    """The functor on the full subcategory of the objects ``keep``."""
    return _functor_on(functor, functor.cat.full_subcategory(keep)[0], keep)


def skeleton_functor(functor: ModuleFunctor) -> ModuleFunctor:
    """Restrict to one object per isomorphism class (an equivalence)."""
    sub, classes = functor.cat.skeleton()
    return _functor_on(functor, sub, [cls[0] for cls in classes])


def _functor_on(functor: ModuleFunctor, sub: FiniteCategory,
                keep: Sequence[int]) -> ModuleFunctor:
    # morphism labels in the subcategory are the original morphism indices
    mats = {m: functor.mats[sub.labels[m]] for m in range(len(sub.labels))}
    return ModuleFunctor(sub, functor.p, [functor.dims[i] for i in keep], mats)


# -- categories from fusion/transporter data ---------------------------------

def fusion_orbit_category(F, objects: Sequence[MemberSet]) -> Tuple[FiniteCategory, Dict]:
    """O(F) on the given objects: Hom_F(P,Q) modulo Inn(Q).

    Morphism labels are (orbit representative graph, target index): the
    graph alone does not determine the target object.
    """
    G = F.group
    objs = sorted(objects, key=lambda m: (len(m), sorted(m)))
    obj_index = {P: i for i, P in enumerate(objs)}
    orbit_of: Dict[Tuple[int, int, Tuple], Tuple] = {}
    mor_labels: Dict[Tuple[int, int], List] = {}
    for P in objs:
        for Q in objs:
            j = obj_index[Q]
            seen = set()
            labels = []
            homs = F.hom(P, Q)
            hom_set = set(homs)
            for k in homs:
                if k in seen:
                    continue
                d = dict(k)
                orbit = set()
                for q in Q:
                    moved = tuple(sorted((x, G.conj(d[x], G.inv(q))) for x in P))
                    if moved not in hom_set:
                        raise FunctorError("Inn(Q) does not act on Hom(P,Q)")
                    orbit.add(moved)
                rep = (min(orbit), j)
                for k2 in orbit:
                    orbit_of[(obj_index[P], j, k2)] = rep
                seen |= orbit
                labels.append(rep)
            mor_labels[(obj_index[P], j)] = sorted(labels)

    def compose(glab, flab):
        gk, k = glab
        fk, _ = flab
        gd = dict(gk)
        composed = tuple(sorted((x, gd[y]) for x, y in fk))
        i = obj_index[frozenset(x for x, _ in fk)]
        return orbit_of[(i, k, composed)]

    def identity_of(i):
        P = objs[i]
        ident = tuple(sorted((x, x) for x in P))
        return orbit_of[(i, i, ident)]

    cat = FiniteCategory(objs, mor_labels, compose, identity_of)
    return cat, orbit_of


def cohomology_functor_on_orbit_category(F, cat: FiniteCategory,
                                         fam: CohomologyFamily, j: int) -> ModuleFunctor:
    """H^j descended to the orbit category (inner actions checked trivial)."""
    G = F.group
    p = fam.p
    dims = []
    for P in cat.objects:
        dims.append(fam.of(P).dim(j))
    # descent precondition: inner automorphisms act trivially on H^j
    for i, P in enumerate(cat.objects):
        HP = fam.of(P)
        for s in P:
            mat = restriction_map(HP, HP, {x: G.conj(x, s) for x in P}, j)
            if not np.array_equal(mat % p, np.eye(dims[i], dtype=np.int64)):
                raise FunctorError("inner automorphism acts nontrivially")
    mats = {}
    for m in range(len(cat.labels)):
        P = cat.objects[cat.src[m]]
        Q = cat.objects[cat.tgt[m]]
        graph, _ = cat.labels[m]
        mats[m] = restriction_map(fam.of(Q), fam.of(P), dict(graph), j)
    return ModuleFunctor(cat, p, dims, mats)


def transporter_orbit_cat(OT) -> FiniteCategory:
    """The orbit category of a transporter system as a FiniteCategory,
    built on the first call and kept on ``OT``."""
    if OT._cat is not None:
        return OT._cat
    objs = OT.objects
    obj_index = {P: i for i, P in enumerate(objs)}
    mor_labels: Dict[Tuple[int, int], List] = {}
    for P in objs:
        for Q in objs:
            mor_labels[(obj_index[P], obj_index[Q])] = [
                (min(o), P, Q) for o in OT.mor(P, Q)]

    def compose(glab, flab):
        g, Q, R = glab
        f, P, _ = flab
        orbit = OT._orbit_of[(OT.group.mul(g, f), P, R)]
        return (min(orbit), P, R)

    def identity_of(i):
        P = objs[i]
        orbit = OT._orbit_of[(OT.group.identity, P, P)]
        return (min(orbit), P, P)

    OT._cat = FiniteCategory(objs, mor_labels, compose, identity_of)
    return OT._cat


def ot_cohomology_functor(OT, fam: CohomologyFamily, j: int) -> ModuleFunctor:
    """Pullback of H^j along rho-bar to the orbit category of T."""
    cat = transporter_orbit_cat(OT)
    G = OT.group
    p = fam.p
    dims = [fam.of(P).dim(j) for P in cat.objects]
    mats = {}
    for m in range(len(cat.labels)):
        f, P, Q = cat.labels[m]
        mapping = {x: OT.T.left_conj(x, f) for x in P}
        mats[m] = restriction_map(fam.of(frozenset(Q)), fam.of(frozenset(P)),
                                  mapping, j)
    return ModuleFunctor(cat, p, dims, mats)


# -- Lambda functors ---------------------------------------------------------

def p_orbit_category(Gamma: Group, p: int) -> Tuple[FiniteCategory, List[FrozenSet[int]]]:
    """Transitive Gamma-sets with p-group isotropy, one per conjugacy class.

    Objects are the right-coset sets Gamma/P for class representatives P.
    A map Gamma/P -> Gamma/Q sends P to the coset Q.h and is labelled by
    that coset; it is well defined exactly when h p h^-1 lies in Q for all
    p in P.  Composition of labels Q.h then R.m gives R.(m h).
    """
    from .permgroups import all_subgroups, sylow, transporter

    S = sylow(Gamma, p)
    reps: List[FrozenSet[int]] = []
    seen: Set[FrozenSet[int]] = set()
    for m in all_subgroups(S):
        if m in seen:
            continue
        orbit = {m}
        frontier = [m]
        while frontier:
            h = frontier.pop()
            for g in Gamma.generators:
                img = frozenset(Gamma.conj(x, g) for x in h)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        seen |= orbit
        reps.append(m)

    def right_coset(Q: FrozenSet[int], g: int) -> FrozenSet[int]:
        return frozenset(Gamma.mul(q, g) for q in Q)

    mor_labels: Dict[Tuple[int, int], List] = {}
    for i, P in enumerate(reps):
        for j, Q in enumerate(reps):
            # Q.h is a label exactly when h^-1 lies in the transporter N(P, Q)
            cosets = {right_coset(Q, Gamma.inv(t)) for t in transporter(
                Gamma, Gamma.subgroup(P), Gamma.subgroup(Q))}
            mor_labels[(i, j)] = sorted(((c, i, j) for c in cosets),
                                        key=lambda t: sorted(t[0]))

    def compose(glab, flab):
        cg, _, k = glab
        cf, i, _ = flab
        prod = Gamma.mul(min(cg), min(cf))
        return (right_coset(reps[k], prod), i, k)

    def identity_of(i):
        return (reps[i], i, i)

    names = [f"G/P{i}(|P|={len(P)})" for i, P in enumerate(reps)]
    return FiniteCategory(names, mor_labels, compose, identity_of), reps


def lambda_dims(Gamma: Group, p: int, module_dim: int,
                max_degree: int = 4) -> List[int]:
    """Lambda^*(Gamma, M) for the trivial module M = F_p^module_dim: higher
    limits of the atomic functor on the free orbit over the p-orbit category.
    """
    cat, reps = p_orbit_category(Gamma, p)
    free = next(i for i, P in enumerate(reps) if len(P) == 1)
    return higher_limits(atomic_functor(cat, free, module_dim, p), max_degree)


# -- atomic functors and comparisons ------------------------------------------

def atomic_functor(cat: FiniteCategory, obj_index: int, module_dim: int,
                   p: int) -> ModuleFunctor:
    """Functor concentrated on one object with the trivial module there.

    Every endomorphism of the object acts as the identity on F_p^module_dim;
    all other morphisms carry zero.
    """
    dims = [module_dim if i == obj_index else 0 for i in range(cat.n)]
    mats: Dict[int, np.ndarray] = {}
    for m in range(len(cat.labels)):
        i, j = cat.src[m], cat.tgt[m]
        if i == obj_index and j == obj_index:
            mats[m] = np.eye(module_dim, dtype=np.int64)
        else:
            mats[m] = np.zeros((dims[i], dims[j]), dtype=np.int64)
    return ModuleFunctor(cat, p, dims, mats)


def atomic_comparison(OT, class_rep: MemberSet, module_dim: int = 1,
                      p: Optional[int] = None, max_degree: int = 4
                      ) -> Tuple[List[int], List[int]]:
    """H^*(OT^op; atomic on the class of Q) vs Lambda^*(Aut_OT(Q); M).

    The trivial module of the given dimension is used on both sides.
    Returns the two graded dimension lists (they are asserted equal by the
    acceptance suite, not here).
    """
    p = p or OT.T.locality.prime
    cat = transporter_orbit_cat(OT)
    sub, classes = cat.skeleton()
    # the skeleton object of the class of class_rep
    target = cat.objects.index(frozenset(class_rep))
    rep_idx = next(pos for pos, cls in enumerate(classes) if target in cls)
    ot_side = higher_limits(atomic_functor(sub, rep_idx, module_dim, p), max_degree)
    Gamma = OT.aut(cat.objects[classes[rep_idx][0]])
    lam_side = lambda_dims(Gamma, p, module_dim, max_degree)
    return ot_side, lam_side


def restrict_to_centrics_comparison(OT, F, fam: CohomologyFamily, j: int,
                                    max_degree: int = 4) -> Tuple[List[int], List[int]]:
    """H^*(OT^op; H^j-pullback) vs the same over the centric full
    subcategory; computed on skeleta."""
    from .fusion import classify_subgroups_core_only

    functor = ot_cohomology_functor(OT, fam, j)
    full = higher_limits(skeleton_functor(functor), max_degree)

    cls = classify_subgroups_core_only(F)
    centrics = set(cls.all_with("centric"))
    keep = [i for i, P in enumerate(functor.cat.objects) if P in centrics]
    centric = higher_limits(skeleton_functor(restrict_functor(functor, keep)), max_degree)
    return full, centric


# -- proto-Mackey verification -------------------------------------------------

def proto_mackey_check(OT, fam: CohomologyFamily, j: int) -> Dict[str, object]:
    """Conditions (a)-(c) for (H^j, transfer) on OT, plus (B1)-(B2).

    Returns a report dict; (c) failures are listed per cospan so that the
    degree-zero behaviour can be recorded without failing the caller.
    """
    from .cohomology import transfer_along
    from .transporter import pullback

    G = OT.group
    p = fam.p
    report: Dict[str, object] = {"j": j, "passed": True, "failures": [],
                                 "b1": True, "b2": True}
    m_cache: Dict = {}
    mstar_cache: Dict = {}

    def M_of(flab, P, Q):
        key = (flab, P, Q)
        if key not in m_cache:
            mapping = {x: OT.T.left_conj(x, flab) for x in P}
            m_cache[key] = restriction_map(fam.of(Q), fam.of(P), mapping, j)
        return m_cache[key]

    def Mstar_of(flab, P, Q):
        key = (flab, P, Q)
        if key not in mstar_cache:
            mapping = {x: OT.T.left_conj(x, flab) for x in P}
            mstar_cache[key] = transfer_along(fam, P, Q, mapping, j)
        return mstar_cache[key]

    # (a) equal values: same fam.of(P) on both sides -- structural.
    # (b) on isomorphisms M_* is restriction along the inverse
    for P in OT.objects:
        for Q in OT.objects:
            for f in OT.T.iso_elements(P, Q):
                mapping = {x: OT.T.left_conj(x, f) for x in P}
                inv_map = {y: x for x, y in mapping.items()}
                lhs = Mstar_of(f, P, Q)
                rhs = restriction_map(fam.of(P), fam.of(Q), inv_map, j)
                if not np.array_equal(lhs % p, rhs % p):
                    report["passed"] = False
                    report["failures"].append(
                        f"(b) fails on iso |P|={len(P)}")
    # orbit independence of the covariant side
    for P in OT.objects:
        for Q in OT.objects:
            for orbit in OT.mor(P, Q):
                mats = {tuple((Mstar_of(f, P, Q) % p).ravel()) for f in orbit}
                if len(mats) != 1:
                    report["passed"] = False
                    report["failures"].append(
                        f"M_* not constant on an orbit |P|={len(P)},|Q|={len(Q)}")

    # (c) base change over every cospan
    cospans = 0
    for R in OT.objects:
        for P in OT.objects:
            for Q in OT.objects:
                for fo in OT.mor(P, R):
                    for go in OT.mor(Q, R):
                        cospans += 1
                        f = min(fo)
                        g = min(go)
                        U, _ = pullback(OT, fo, P, go, Q, R, verify=False)
                        lhs = (M_of(g, Q, R) @ Mstar_of(f, P, R)) % p
                        rhs = np.zeros_like(lhs)
                        for A, lam in U.tags:
                            resA = restriction_map(fam.of(P), fam.of(A),
                                                   {x: x for x in A}, j)
                            trA = Mstar_of(lam, A, Q)
                            rhs = (rhs + trA @ resA) % p
                        if not np.array_equal(lhs, rhs):
                            report["passed"] = False
                            report["failures"].append(
                                f"(c) fails on cospan |P|={len(P)},|Q|={len(Q)},|R|={len(R)}")
    report["cospans"] = cospans

    # (B1): endomorphisms are isomorphisms
    for P in OT.objects:
        orbits = OT.mor(P, P)
        for o in orbits:
            f = min(o)
            img = frozenset(OT.T.left_conj(x, f) for x in P)
            if img != P:
                report["b1"] = False
    # (B2): the Sylow object receives morphism sets of order prime to p
    S = frozenset(OT.T.locality.sylow.members)
    for P in OT.objects:
        if len(OT.mor(P, S)) % p == 0:
            report["b2"] = False
    return report


# -- sharpness pipeline ---------------------------------------------------------

def stable_subspace_dim(F, fam: CohomologyFamily, j: int,
                        centrics: Sequence[MemberSet]) -> int:
    """Independent oracle for lim^0: F-stable classes in H^j(S)."""
    G = F.group
    S = frozenset(F.sylow.members)
    HS = fam.of(S)
    rows: List[np.ndarray] = []
    for P in centrics:
        HP = fam.of(P)
        incl = restriction_map(HS, HP, {x: x for x in P}, j)
        for k in F.hom(P, S):
            mat = restriction_map(HS, HP, dict(k), j)
            diff = (mat - incl) % fam.p
            if np.any(diff):
                rows.extend(diff)
    if not rows:
        return HS.dim(j)
    A = np.array(rows, dtype=np.int64)
    return nullspace_modp(A, fam.p).shape[0]


def sharpness_pipeline(L, jmax: int = 2, max_degree: int = 4) -> Dict[str, object]:
    """Higher limits of H^j over the centric orbit category of F_S(L).

    Descends H^j to O(F^c), computes lim^i for i <= max_degree, and checks
    lim^0 against the stable-element count.  Returns the table of
    dimensions plus pass flags.
    """
    from .fusion import classify_subgroups_core_only, fusion_of_locality, is_saturated

    if jmax < 0:
        raise FunctorError(f"jmax = {jmax} is negative")
    G = L.ambient
    F = fusion_of_locality(L)
    sat, wit = is_saturated(F)
    if not sat:
        raise FunctorError(f"fusion system not saturated: {wit[:1]}")
    cls = classify_subgroups_core_only(F)
    centrics = cls.all_with("centric")
    cat, _ = fusion_orbit_category(F, centrics)
    fam = CohomologyFamily(G, L.prime, max(jmax, 2))

    table: Dict[Tuple[int, int], int] = {}
    ok = True
    stable_match = True
    for j in range(jmax + 1):
        functor = cohomology_functor_on_orbit_category(F, cat, fam, j)
        dims = higher_limits(functor, max_degree)
        for i, d in enumerate(dims):
            table[(i, j)] = d
            if i >= 1 and d != 0:
                ok = False
        stable = stable_subspace_dim(F, fam, j, centrics)
        if dims[0] != stable:
            stable_match = False
    return {
        "table": table,
        "higher_vanish": ok,
        "lim0_matches_stable": stable_match,
        "objects": len(cat.objects),
    }
