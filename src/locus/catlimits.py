"""Functors on finite categories and their derived inverse limits.

The cochain model is the normalized bar complex: an n-chain is a string of
n composable nonidentity morphisms, carrying the functor value at its
source object; faces whose inner composite collapses to an identity drop
out.  The chains of one level are one index array, and each coface's index
is computed from a numbering of the chains, not looked up (``Nerve``, kept
on the category per support of the functor).  Ranks of the differentials
are computed over F_p by pivot insertion (``linalg.rank_sparse_modp``), in
cohomology order with clearing: the rank of d_n is read off the
coboundaries of the n-coordinates, each built straight into the
eliminator's representation and reduced at once, and the coordinates that
the pivots of d_{n-1} show to be dependent are skipped (``higher_limits``).
Neither a dense matrix nor a list of entries is built, and only chains
that carry coordinates are enumerated.

Higher limits are invariant under equivalence of categories, so the
comparisons on orbit categories run on a skeleton (one object per
isomorphism class); the invariance itself is exercised by the test suite
on categories small enough to do both computations.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .cohomology import BudgetError, CohomologyFamily, budget_mb, restriction_map
from .linalg import Row, nullspace_modp, rank_sparse_modp
from .permgroups import Group

MemberSet = FrozenSet[int]


class FunctorError(ValueError):
    pass


def _fault(bad: np.ndarray, message: str) -> None:
    """Raise FunctorError ``message`` with the first index where ``bad`` holds."""
    if bad.any():
        raise FunctorError(f"{message} {', '.join(map(str, np.argwhere(bad)[0].tolist()))}")


class FiniteCategory:
    """Explicit object list, morphism arrays, and composition table.

    Morphisms are numbered in order of (source, target), so each hom-set is
    a range; ``comp[g, f]`` is g o f, or -1 where g and f do not compose.
    """

    def __init__(self, objects: Sequence, src: Sequence[int], tgt: Sequence[int],
                 comp: np.ndarray, identity: Sequence[int], labels: Sequence):
        self.objects = list(objects)
        self.n = len(self.objects)
        s, t, ident = (np.asarray(a, dtype=np.intp) for a in (src, tgt, identity))
        self.src, self.tgt, self.identity = s.tolist(), t.tolist(), ident.tolist()
        self.labels, self.comp = list(labels), np.asarray(comp, dtype=np.int32)
        size = len(self.labels)
        if ((len(s), len(t), len(ident)) != (size, size, self.n) or self.comp.shape != (size, size)
                or ((s < 0) | (t < 0) | (s >= self.n) | (t >= self.n)).any()
                or (np.diff(s * self.n + t) < 0).any()):
            raise FunctorError("morphisms not numbered by (source, target)")
        self._first = np.searchsorted(s * self.n + t, np.arange(self.n ** 2 + 1)).tolist()
        composable = s[:, None] == t
        _fault((ident < 0) | (ident >= size), "identity out of range at object")
        _fault((self.comp < -1) | (self.comp >= size), "composite out of range at morphisms")
        _fault(composable & (self.comp < 0), "composite missing at morphisms")
        _fault(~composable & (self.comp >= 0), "composite of morphisms that do not compose at")
        _fault((s[ident] != np.arange(self.n)) | (t[ident] != np.arange(self.n)),
               "identity with the wrong endpoints at object")
        _fault(composable & ((s[self.comp] != s) | (t[self.comp] != t[:, None])),
               "composite with the wrong endpoints at morphisms")
        self._check_axioms()
        self._skeleton: Optional[Tuple[FiniteCategory, List[List[int]]]] = None
        self._nerves: Dict[int, Nerve] = {}  # by support bitmask (``nerve``)

    def _check_axioms(self) -> None:
        every = np.arange(len(self.labels))
        ident, src, tgt = (np.array(a, dtype=np.intp) for a in (self.identity, self.src, self.tgt))
        if (self.comp[every, ident[src]] != every).any():
            raise FunctorError("right identity fails")
        if (self.comp[ident[tgt], every] != every).any():
            raise FunctorError("left identity fails")
        # h composes after the pairs (g, f) with tgt(g) = src(h) only, and
        # the morphisms out of one object are a range
        for j in range(self.n):
            into = np.flatnonzero(tgt == j)
            g, f = np.nonzero(self.comp[into] >= 0)
            g = into[g]
            gf = self.comp[g, f]
            for h in range(self._first[j * self.n], self._first[(j + 1) * self.n]):
                if (self.comp[self.comp[h, g], f] != self.comp[h, gf]).any():
                    raise FunctorError("composition not associative")

    def morphisms(self, i: int, j: int) -> range:
        return range(self._first[i * self.n + j], self._first[i * self.n + j + 1])

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
            self._skeleton = (self.full_subcategory([c[0] for c in classes]), classes)
        return self._skeleton

    def full_subcategory(self, keep: Sequence[int]) -> "FiniteCategory":
        """The full subcategory on the objects ``keep``, in that order; each
        morphism is labelled by its number in this category."""
        keep = list(keep)
        kept = [m for i in keep for j in keep for m in self.morphisms(i, j)]
        number = np.full(len(self.labels) + 1, -1, dtype=np.int32)  # number[-1] is -1
        number[kept] = np.arange(len(kept))
        at = {o: a for a, o in enumerate(keep)}
        return FiniteCategory([self.objects[o] for o in keep], [at[self.src[m]] for m in kept],
                              [at[self.tgt[m]] for m in kept],
                              number[self.comp[np.ix_(kept, kept)]],
                              number[[self.identity[o] for o in keep]], kept)


class ModuleFunctor:
    """Contravariant functor into F_p vector spaces.

    mats[m] has shape (dims[src(m)], dims[tgt(m)]): the value of a morphism
    carries the target's space back to the source's.
    """

    def __init__(self, cat: FiniteCategory, p: int, dims: Sequence[int],
                 mats: Dict[int, np.ndarray]):
        self.cat, self.p, self.dims = cat, p, list(dims)
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
            if not np.array_equal(self.mats[gf] % p, (self.mats[f] @ self.mats[g]) % p):
                raise FunctorError("functoriality fails on a composite")


# the dtype of the chain and coface indices a Nerve keeps; the budget guard
# keeps every level far below 2^31 chains
INDEX = np.int32


class Nerve:
    """The normalized chains of a category whose first source lies in a set
    of objects (a functor's support), level by level.  ``levels[0]`` is a
    (count, 1) array of those objects, descending; ``levels[n]`` a (count, n)
    array of composable nonidentity morphisms c_1, ..., c_n, grouped by c_n,
    descending, the group of m listing the (n-1)-chains that end at the
    source of m in their order.  ``firsts[n]`` holds the first sources.

    A chain's position is its place among the chains of its level that end
    where it ends.  The n-chain c.m sits at start_n[m] + pos(c), start_n[m]
    counting the n-chains in the groups before m, at position within_n[m] +
    pos(c), within_n[m] counting those of them whose morphism ends where m
    does.  So (x_1, ..., x_n) sits at within_1[x_1] + ... +
    within_{n-1}[x_{n-1}] + start_n[x_n], and ``grow`` numbers a coface of
    every chain of a level with n gathers, as Ripser (Bauer, J. Appl.
    Comput. Topol. 2021) numbers cofaces.  ``cofaces[n]`` holds, in CSR form
    over the n-chains, in increasing order of index, the unit cofaces
    (appended or split) as rows (index, sign) and the prepended ones as rows
    (index, f).
    """

    def __init__(self, cat: FiniteCategory, support: Sequence[bool]):
        nonid = np.ones(len(cat.labels), dtype=bool)
        nonid[cat.identity] = False
        self.nonid = np.flatnonzero(nonid)[::-1]
        self.src, self.tgt, self.objects = np.array(cat.src), np.array(cat.tgt), cat.n
        objects = np.flatnonzero(support)[::-1].astype(INDEX)
        self.levels, self.firsts = [objects[:, None]], [objects]
        # last target and position of each chain of the top level
        self.ends, self.pos = objects, np.zeros(len(objects), dtype=np.intp)
        self.within: List[np.ndarray] = []
        self.cofaces: List[Tuple[np.ndarray, ...]] = []  # per level, see above
        # the nonidentity morphisms out of each object and into it from the
        # support; the factorizations (a, b) of each h = b o a, a, b nonidentity
        src, tgt = self.src[self.nonid], self.tgt[self.nonid]
        self.out = _csr(src, self.nonid, cat.n)
        front = np.asarray(support, dtype=bool)[src]
        self.into = _csr(tgt[front], self.nonid[front], cat.n)
        b, a = np.nonzero(cat.comp >= 0)
        keep = nonid[a] & nonid[b]
        self.factors = _csr(cat.comp[b[keep], a[keep]], np.column_stack([a[keep], b[keep]]),
                            len(cat.labels))

    def grow(self) -> None:
        """Build the next level, and number the cofaces of the top one."""
        n, chains, ends, nonid = len(self.levels) - 1, self.levels[-1], self.ends, self.nonid
        count = np.bincount(ends, minlength=self.objects)  # n-chains ending at each
        sizes = count[self.src[nonid]]
        start = np.zeros(len(self.src), dtype=np.intp)
        start[nonid] = np.cumsum(sizes) - sizes
        order = np.argsort(self.tgt[nonid], kind="stable")
        before, same = np.cumsum(sizes[order]) - sizes[order], self.tgt[nonid[order]]
        within = np.zeros_like(start)
        within[nonid[order]] = before - before[np.searchsorted(same, same)]
        group, prev = _expand(self.src[nonid], _csr(ends, np.arange(len(ends)), self.objects))
        m = nonid[group]
        self.levels.append((np.column_stack([chains[prev], m]) if n else m[:, None]).astype(INDEX))
        self.firsts.append(self.firsts[n][prev])
        self.ends, self.pos = self.tgt[m], within[m] + self.pos[prev]

        # an (n+1)-chain sits at the sum of at[q - 1][x_q] over its places q
        at = self.within + [start]
        left = [np.zeros(len(ends), dtype=np.intp)]  # left[k - 1]: c_1..c_{k-1} in place
        right = [left[0]]                            # right[n - k]: c_{k+1}..c_n one on
        for k in range(1, n + 1):
            left.append(left[-1] + at[k - 1][chains[:, k - 1]])
            right.append(right[-1] + at[n + 1 - k][chains[:, n - k]])
        rows, g = _expand(ends, self.out)
        unit = [(rows, left[n][rows] + start[g], np.full(len(g), (-1) ** (n + 1)))]
        for k in range(1, n + 1):
            rows, ab = _expand(chains[:, k - 1], self.factors)
            unit.append((rows, left[k - 1][rows] + at[k - 1][ab[:, 0]] + at[k][ab[:, 1]]
                         + right[n - k][rows], np.full(len(ab), (-1) ** k)))
        rows, f = _expand(self.firsts[n], self.into)
        self.cofaces.append(_by_chain(unit, len(ends))
                            + _by_chain([(rows, at[0][f] + right[n][rows], f)], len(ends)))
        self.within.append(within)


def _csr(keys: np.ndarray, values: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row pointers and ``values`` grouped by ``keys`` (each below ``size``),
    in a stable order."""
    return (np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=size)))),
            values[np.argsort(keys, kind="stable")])


def _expand(keys: np.ndarray, table: Tuple[np.ndarray, np.ndarray]
            ) -> Tuple[np.ndarray, np.ndarray]:
    """Each i with each entry of row ``keys[i]`` of a CSR table, in order."""
    ptr, data = table
    lo = ptr[keys]
    counts = ptr[keys + 1] - lo
    rows = np.repeat(np.arange(len(keys)), counts)
    return rows, data[np.arange(len(rows)) + np.repeat(lo - np.cumsum(counts) + counts, counts)]


def _by_chain(parts: List[Tuple[np.ndarray, ...]], size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Parts (chain, index, datum) as CSR rows (index, datum) over ``size``
    chains, each chain's in increasing order of index."""
    rows, index, data = (np.concatenate(x) for x in zip(*parts))
    order = np.argsort(index, kind="stable")
    return _csr(rows[order], np.column_stack([index, data])[order].astype(INDEX), size)


def nerve(cat: FiniteCategory, dims: Sequence[int], depth: int) -> Nerve:
    """The ``Nerve`` of the support of ``dims`` through level ``depth``.  It is
    built once per support, kept on ``cat`` and grown when a deeper level is
    asked for, so the functors on one category with one support share it."""
    key = sum(1 << i for i, d in enumerate(dims) if d)
    if key not in cat._nerves:
        cat._nerves[key] = Nerve(cat, [bool(d) for d in dims])
    while len(cat._nerves[key].levels) <= depth:
        cat._nerves[key].grow()
    return cat._nerves[key]


def chain_counts(cat: FiniteCategory, dims: Sequence[int],
                 depth: int) -> Tuple[List[int], List[int]]:
    """Chains and cochain coordinates per level of ``nerve(cat, dims,
    depth)``, counted without building a chain.

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


# Bytes per chain of level n while the complex exists: CHAIN_BYTES + 8n.  It
# counted tuples and offset dicts; for index arrays (4n bytes a chain, 8 a
# coface) it is a deliberate over-estimate, kept so that no refusal moves
# until the guard's pivot term is reworked and both are recounted together.
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
    chains, dims = nerve(functor.cat, functor.dims, max_degree + 1), np.array(functor.dims)
    # the first coordinate of each chain, and the level's coordinate count
    offsets = [np.concatenate(([0], np.cumsum(dims[f]))) for f in chains.firsts[:max_degree + 2]]
    columns = _columns(functor)
    ranks: List[int] = []
    leads: Set[int] = set()  # leading coordinates of the previous pivots
    for n in range(max_degree + 1):
        rows = _coboundary_rows(functor.p, chains.cofaces[n], chains.firsts[n], offsets[n],
                                offsets[n + 1], columns, leads)
        leads = set(rank_sparse_modp(sizes[n] - len(leads), sizes[n + 1], rows, functor.p))
        ranks.append(len(leads))
    return [sizes[n] - ranks[n] - (ranks[n - 1] if n else 0) for n in range(max_degree + 1)]


def _columns(functor: ModuleFunctor) -> List[List[Row]]:
    """Column j of each morphism's matrix as a row in the representation
    ``rank_sparse_modp`` reads at the functor's p; none for a zero matrix."""
    columns: List[List[Row]] = []
    for m in range(len(functor.cat.labels)):
        M = functor.mats[m]
        nonzero = [np.flatnonzero(col).tolist() for col in M.T] if M.any() else []
        columns.append([sum(1 << i for i in rows) for rows in nonzero] if functor.p == 2 else
                       [dict(zip(rows, col[rows].tolist())) for col, rows in zip(M.T, nonzero)])
    return columns


def _coboundary_rows(p: int, cofaces: Tuple[np.ndarray, ...], firsts: np.ndarray,
                     lower: np.ndarray, upper: np.ndarray, columns: List[List[Row]],
                     cleared: Set[int]) -> Iterator[Row]:
    """Rows of the transpose of d_n : C^n -> C^{n+1}: the coboundary of each
    n-coordinate not in ``cleared``, in increasing order, in the
    representation ``rank_sparse_modp`` reads at p.

    Chain i of level n has coordinates lower[i] + j, j < lower[i + 1] -
    lower[i], and an (n+1)-chain u those from upper[u].  Coordinate j of c
    has column j of F(f) from upper[u] for each prepended coface u = f.c
    (face 0), and (-1)^(n+1) or (-1)^k at upper[u] + j for each appended
    coface c.g (the last face) or c with c_k split (inner face k); values at
    a repeated column add up mod p.  The prepended cofaces of c are
    consecutive chains, one per f into its first source s, so face 0 fills
    a block of columns laid out by s alone (at n = 0 each object is one
    chain), packed once per s and coordinate.  At p = 2 the unit cofaces of
    a chain make one int, packed from its lowest column, shifted by j.
    """
    unit_ptr, units, front_ptr, fronts = cofaces
    unit_col, front_col = (memoryview(upper[a[:, 0]]) for a in (units, fronts))
    signs, morphisms = memoryview(units[:, 1]), memoryview(fronts[:, 1])
    unit_ptr, front_ptr, firsts, lower = (memoryview(a) for a in (
        unit_ptr, front_ptr, firsts, lower))
    blocks: Dict[int, List[Row]] = {}  # face 0 by first source, per coordinate
    for i in range(len(lower) - 1):
        x, d = lower[i], lower[i + 1] - lower[i]
        js = [j for j in range(d) if x + j not in cleared]
        if not js:
            continue
        us, fs = slice(unit_ptr[i], unit_ptr[i + 1]), slice(front_ptr[i], front_ptr[i + 1])
        base = front_col[fs.start] if fs.stop > fs.start else 0
        if firsts[i] not in blocks:
            face = [(columns[f], b - base) for f, b in zip(morphisms[fs], front_col[fs])]
            blocks[firsts[i]] = [sum(cols[j] << b for cols, b in face if cols) if p == 2 else
                                 {b + r: v for cols, b in face if cols for r, v in cols[j].items()}
                                 for j in range(d)]
        block = blocks[firsts[i]]
        if p == 2:
            low, unit = unit_col[us.start] if us.stop > us.start else 0, 0
            for b in unit_col[us]:
                unit ^= 1 << (b - low)
            for j in js:
                yield (unit << (low + j)) ^ (block[j] << base)
            continue
        for j in js:
            row: Dict[int, int] = {}
            for col, v in [(b + j, sign) for b, sign in zip(unit_col[us], signs[us])] + [
                    (base + r, v) for r, v in block[j].items()]:
                row[col] = row.get(col, 0) + v
            yield {col: v % p for col, v in row.items() if v % p}


def restrict_functor(functor: ModuleFunctor, keep: Sequence[int]) -> ModuleFunctor:
    """The functor on the full subcategory of the objects ``keep``."""
    return _functor_on(functor, functor.cat.full_subcategory(keep), keep)


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

def fusion_orbit_category(F, objects: Sequence[MemberSet]) -> FiniteCategory:
    """O(F) on the given objects: Hom_F(P,Q) modulo Inn(Q).

    Morphism labels are (orbit representative graph, target index): the
    graph alone does not determine the target object.
    """
    G = F.group
    objs = sorted(objects, key=lambda m: (len(m), sorted(m)))
    orbit_of: Dict[Tuple[int, int, Tuple], int] = {}  # (i, j, graph) -> its morphism
    src, tgt, labels = [], [], []
    for i, P in enumerate(objs):
        for j, Q in enumerate(objs):
            homs, least = set(F.hom(P, Q)), {}  # graph -> least graph of its orbit
            for k in homs:
                if k in least:
                    continue
                d = dict(k)
                orbit = {tuple(sorted((x, G.conj(d[x], G.inv(q))) for x in P)) for q in Q}
                if not orbit <= homs:
                    raise FunctorError("Inn(Q) does not act on Hom(P,Q)")
                least.update(dict.fromkeys(orbit, min(orbit)))
            number = {r: len(labels) + a for a, r in enumerate(sorted(set(least.values())))}
            orbit_of.update(((i, j, k), number[r]) for k, r in least.items())
            src += [i] * len(number)
            tgt += [j] * len(number)
            labels += [(r, j) for r in number]
    into = [[f for f, t in enumerate(tgt) if t == j] for j in range(len(objs))]
    comp = np.full((len(labels),) * 2, -1, dtype=np.int32)
    for g, ((graph, k), j) in enumerate(zip(labels, src)):
        d = dict(graph)
        composed = [tuple(sorted((x, d[y]) for x, y in labels[f][0])) for f in into[j]]
        comp[g, into[j]] = [orbit_of.get((src[f], k, c), -1) for f, c in zip(into[j], composed)]
    identity = [orbit_of.get((i, i, tuple(sorted((x, x) for x in P))), -1)
                for i, P in enumerate(objs)]
    return FiniteCategory(objs, src, tgt, comp, identity, labels)


def cohomology_functor_on_orbit_category(F, cat: FiniteCategory,
                                         fam: CohomologyFamily, j: int) -> ModuleFunctor:
    """H^j descended to the orbit category (inner actions checked trivial)."""
    G, p = F.group, fam.p
    dims = [fam.of(P).dim(j) for P in cat.objects]
    # descent precondition: inner automorphisms act trivially on H^j; P acts
    # through a homomorphism, so its generators suffice
    for i, P in enumerate(cat.objects):
        HP = fam.of(P)
        for s in HP.sub.gens():
            mat = restriction_map(HP, HP, {x: G.conj(x, s) for x in P}, j)
            if not np.array_equal(mat % p, np.eye(dims[i], dtype=np.int64)):
                raise FunctorError("inner automorphism acts nontrivially")
    mats = {m: restriction_map(fam.of(cat.objects[cat.tgt[m]]), fam.of(cat.objects[cat.src[m]]),
                               dict(cat.labels[m][0]), j) for m in range(len(cat.labels))}
    return ModuleFunctor(cat, p, dims, mats)


def transporter_orbit_cat(OT) -> FiniteCategory:
    """The orbit category of a transporter system: the FiniteCategory that
    ``transporter.orbit_category`` numbered."""
    return OT.cat


def ot_cohomology_functor(OT, fam: CohomologyFamily, j: int) -> ModuleFunctor:
    """Pullback of H^j along rho-bar to the orbit category of T."""
    cat = transporter_orbit_cat(OT)
    dims = [fam.of(P).dim(j) for P in cat.objects]
    mats = {m: restriction_map(fam.of(frozenset(Q)), fam.of(frozenset(P)),
                               {x: OT.T.left_conj(x, f) for x in P}, j)
            for m, (f, P, Q) in enumerate(cat.labels)}
    return ModuleFunctor(cat, fam.p, dims, mats)


# -- Lambda functors ---------------------------------------------------------

def coset_category(G: Group, objects: Sequence[MemberSet],
                   elements: Callable[[int, int], Sequence[int]]
                   ) -> Tuple[FiniteCategory, np.ndarray]:
    """The category on subgroups P_i of G whose morphisms P_i -> P_j are the
    cosets P_j f of the f in ``elements(i, j)``, labelled (min P_j f, P_i, P_j),
    with the (n, |G|) table of min P_i x.  (P_k g)(P_j f) = P_k gf; a composite
    that is not a morphism raises ``FunctorError``.  The key (i n + j) |G| +
    label increases with the morphism number, so the composites through each
    middle object are one ``mul_many`` gather and one ``searchsorted``."""
    n, order = len(objects), G.order
    coset_min = np.stack([G.mul_many(np.array(sorted(P))[:, None], np.arange(order)).min(axis=0)
                          for P in objects])
    keys = []
    for i in range(n):
        for j in range(n):
            hit = np.zeros(order, dtype=bool)
            hit[coset_min[j][np.asarray(elements(i, j), dtype=np.intp)]] = True
            keys.append((i * n + j) * order + np.flatnonzero(hit))
    keys = np.concatenate(keys + [[-1]])  # the last, -1, matches no key
    (src, tgt), mins = np.divmod(keys[:-1] // order, n), keys[:-1] % order

    def number(i: np.ndarray, k: np.ndarray, element: np.ndarray) -> np.ndarray:
        key = (i * n + k) * order + coset_min[k, element]
        m = np.searchsorted(keys[:-1], key)
        if (keys[m] != key).any():
            raise FunctorError("a composite of cosets is not a morphism")
        return m

    comp = np.full((len(mins),) * 2, -1, dtype=np.int32)
    for j in range(n):
        out, into = np.flatnonzero(src == j), np.flatnonzero(tgt == j)
        comp[np.ix_(out, into)] = number(src[into][None, :], tgt[out][:, None],
                                         G.mul_many(mins[out][:, None], mins[into][None, :]))
    every = np.arange(n)
    labels = [(m, objects[i], objects[j]) for m, i, j in zip(mins.tolist(), src, tgt)]
    return FiniteCategory(objects, src, tgt, comp, number(every, every, np.full(n, G.identity)),
                          labels), coset_min


def p_orbit_category(Gamma: Group, p: int) -> Tuple[FiniteCategory, List[FrozenSet[int]]]:
    """Transitive Gamma-sets with p-group isotropy, one per conjugacy class,
    with the class representatives P: the orbit category of the transporter
    category of Gamma on them.  A map Gamma/P -> Gamma/Q sends P to a coset
    Q.h with h P h^-1 <= Q, so h = t^-1 for t in the transporter N(P, Q)."""
    from .permgroups import all_subgroups, subgroup_classes, sylow, transporter

    reps = [cls[0] for cls in subgroup_classes(Gamma, all_subgroups(sylow(Gamma, p)),
                                               Gamma.generators)]
    subs, inverse = [Gamma.subgroup(P) for P in reps], np.array(Gamma.inverse)
    cat, _ = coset_category(Gamma, reps,
                            lambda i, j: inverse[transporter(Gamma, subs[i], subs[j])])
    return cat, reps


def lambda_dims(Gamma: Group, p: int, module_dim: int, max_degree: int = 4) -> List[int]:
    """Lambda^*(Gamma, M) for the trivial module M = F_p^module_dim: higher
    limits of the atomic functor on the free orbit over the p-orbit category."""
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
    mats = {m: np.eye(module_dim, dtype=np.int64) if i == j == obj_index else
            np.zeros((dims[i], dims[j]), dtype=np.int64)
            for m, (i, j) in enumerate(zip(cat.src, cat.tgt))}
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
    return ot_side, lambda_dims(Gamma, p, module_dim, max_degree)


def restrict_to_centrics_comparison(OT, F, fam: CohomologyFamily, j: int,
                                    max_degree: int = 4) -> Tuple[List[int], List[int]]:
    """H^*(OT^op; H^j-pullback) vs the same over the centric full
    subcategory; computed on skeleta."""
    from .fusion import classify_subgroups_core_only

    functor = ot_cohomology_functor(OT, fam, j)
    full = higher_limits(skeleton_functor(functor), max_degree)
    centrics = set(classify_subgroups_core_only(F).all_with("centric"))
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

    p = fam.p
    report: Dict[str, object] = {"j": j, "passed": True, "failures": [],
                                 "b1": True, "b2": True}

    def fail(message: str) -> None:
        report["passed"] = False
        report["failures"].append(message)

    @functools.lru_cache(maxsize=None)
    def M_of(flab, P, Q):
        return restriction_map(fam.of(Q), fam.of(P), {x: OT.T.left_conj(x, flab) for x in P}, j)

    @functools.lru_cache(maxsize=None)
    def Mstar_of(flab, P, Q):
        return transfer_along(fam, P, Q, {x: OT.T.left_conj(x, flab) for x in P}, j)

    # (a) equal values: same fam.of(P) on both sides -- structural.
    # (b) on isomorphisms M_* is restriction along the inverse
    for P in OT.objects:
        for Q in OT.objects:
            for f in OT.T.iso_elements(P, Q):
                inv_map = {OT.T.left_conj(x, f): x for x in P}
                rhs = restriction_map(fam.of(P), fam.of(Q), inv_map, j)
                if not np.array_equal(Mstar_of(f, P, Q) % p, rhs % p):
                    fail(f"(b) fails on iso |P|={len(P)}")
    # orbit independence of the covariant side
    G = OT.group
    for P in OT.objects:
        for Q in OT.objects:
            for m in OT.mor(P, Q):
                orbit = {G.mul(q, OT.cat.labels[m][0]) for q in Q}
                mats = {tuple((Mstar_of(f, P, Q) % p).ravel()) for f in orbit}
                if len(mats) != 1:
                    fail(f"M_* not constant on an orbit |P|={len(P)},|Q|={len(Q)}")

    # (c) base change over every cospan
    cospans = 0
    for R in OT.objects:
        for P in OT.objects:
            for Q in OT.objects:
                for fo in OT.mor(P, R):
                    for go in OT.mor(Q, R):
                        cospans += 1
                        U, _ = pullback(OT, fo, P, go, Q, R, verify=False)
                        lhs = (M_of(OT.cat.labels[go][0], Q, R)
                               @ Mstar_of(OT.cat.labels[fo][0], P, R)) % p
                        rhs = np.zeros_like(lhs)
                        for A, lam in U.tags:
                            resA = restriction_map(fam.of(P), fam.of(A), {x: x for x in A}, j)
                            rhs = (rhs + Mstar_of(lam, A, Q) @ resA) % p
                        if not np.array_equal(lhs, rhs):
                            fail(f"(c) fails on cospan |P|={len(P)},|Q|={len(Q)},|R|={len(R)}")
    report["cospans"] = cospans

    # (B1): endomorphisms are isomorphisms
    report["b1"] = all(frozenset(OT.T.left_conj(x, OT.cat.labels[o][0]) for x in P) == P
                       for P in OT.objects for o in OT.mor(P, P))
    # (B2): the Sylow object receives morphism sets of order prime to p
    S = frozenset(OT.T.locality.sylow.members)
    report["b2"] = all(len(OT.mor(P, S)) % p for P in OT.objects)
    return report


# -- sharpness pipeline ---------------------------------------------------------

def stable_subspace_dim(F, fam: CohomologyFamily, j: int,
                        centrics: Sequence[MemberSet]) -> int:
    """Independent oracle for lim^0: F-stable classes in H^j(S)."""
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
    return nullspace_modp(np.array(rows, dtype=np.int64), fam.p).shape[0]


def sharpness_pipeline(L, jmax: int = 2, max_degree: int = 4) -> Dict[str, object]:
    """Higher limits of H^j over the centric orbit category of F_S(L).

    Descends H^j to O(F^c), computes lim^i for i <= max_degree, and checks
    lim^0 against the stable-element count.  Returns the table of
    dimensions plus pass flags.
    """
    from .fusion import classify_subgroups_core_only, fusion_of_locality, is_saturated

    if jmax < 0:
        raise FunctorError(f"jmax = {jmax} is negative")
    F = fusion_of_locality(L)
    sat, wit = is_saturated(F)
    if not sat:
        raise FunctorError(f"fusion system not saturated: {wit[:1]}")
    centrics = classify_subgroups_core_only(F).all_with("centric")
    cat = fusion_orbit_category(F, centrics)
    fam = CohomologyFamily(L.ambient, L.prime, max(jmax, 2))

    table: Dict[Tuple[int, int], int] = {}
    ok = stable_match = True
    for j in range(jmax + 1):
        dims = higher_limits(cohomology_functor_on_orbit_category(F, cat, fam, j), max_degree)
        table.update(((i, j), d) for i, d in enumerate(dims))
        ok = not any(dims[1:]) and ok
        stable_match = dims[0] == stable_subspace_dim(F, fam, j, centrics) and stable_match
    return {
        "table": table,
        "higher_vanish": ok,
        "lim0_matches_stable": stable_match,
        "objects": len(cat.objects),
    }
