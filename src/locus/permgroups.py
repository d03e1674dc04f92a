"""Finite permutation groups with full element enumeration.

Groups are given by generators in disjoint-cycle notation and enumerated
completely on construction (desk scale, default cap 200000 elements) into
one (order, degree) array of image rows.  Elements are addressed by their
row's index in lexicographic order, the order of the sorted permutation
tuples, so every iteration order below is deterministic.
"""

from __future__ import annotations

import math
import re
from array import array
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

Perm = Tuple[int, ...]

DEFAULT_ORDER_CAP = 200000
SUBGROUP_LATTICE_CAP = 4096
# groups above this order get no tables; mul and conj compose rows instead
TABLE_ORDER_CAP = 1500


class GroupError(ValueError):
    """Raised on malformed group input or violated preconditions."""


def perm_order(p: Perm) -> int:
    n = len(p)
    seen = [False] * n
    order = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length > 1:
            order = math.lcm(order, length)
    return order


def cycle_string(p: Perm) -> str:
    """Disjoint-cycle notation on 1-based points; '()' for the identity."""
    n = len(p)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        j = p[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
    return "".join(out) if out else "()"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_perm(text: str, degree: int) -> Perm:
    """Parse a product of disjoint cycles like ``(1 2 3)(4 5)`` (1-based)."""
    stripped = text.strip()
    if stripped in ("()", "", "id"):
        return tuple(range(degree))
    consumed = re.sub(_CYCLE_RE, "", stripped).strip()
    if consumed:
        raise GroupError(f"could not parse permutation {text!r}")
    result = list(range(degree))
    hit = [False] * degree
    for match in _CYCLE_RE.finditer(stripped):
        body = match.group(1).replace(",", " ").split()
        if not body:
            continue
        points = [int(tok) - 1 for tok in body]
        for a in points:
            if not 0 <= a < degree:
                raise GroupError(f"point {a + 1} out of range 1..{degree}")
            if hit[a]:
                raise GroupError(f"point {a + 1} repeated in {text!r}")
            hit[a] = True
        for a, b in zip(points, points[1:] + points[:1]):
            result[a] = b
    return tuple(result)


class Group:
    """A fully enumerated permutation group on {1..degree}.

    ``E`` holds the elements as rows of point images (uint8 up to degree
    256, else uint16), in lexicographic order; element x is row x.  The
    product a*b acts on points from the right, i -> b[a[i]]."""

    def __init__(self, degree: int, generators: Sequence[Perm], name: str = "G",
                 order_cap: int = DEFAULT_ORDER_CAP):
        if degree <= 0:
            raise GroupError("degree must be positive")
        self.degree = degree
        self.name = name
        gens = []
        for g in generators:
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise GroupError(f"not a permutation of degree {degree}: {g}")
            gens.append(tuple(g))
        self.generator_perms: List[Perm] = gens
        dtype = np.dtype(np.uint8 if degree <= 256 else np.uint16)
        self.E, self._rows = _enumerate(degree, gens, order_cap, dtype)
        self.order: int = len(self.E)
        # row bytes -> element index, keyed by the bytes objects of _rows
        self._index: Dict[bytes, int] = dict(zip(self._rows, range(self.order)))
        # untabled mul on uint8 rows: b's row padded to a bytes.translate table
        self._pad = bytes(256 - degree) if degree <= 256 else None
        self.identity: int = 0  # (0, 1, ..., degree - 1) sorts first
        inv = np.empty_like(self.E)
        inv[np.arange(self.order)[:, None], self.E] = np.arange(degree, dtype=dtype)
        self.inverse: List[int] = [self._index[r] for r in _row_bytes(inv)]
        self.generators: List[int] = sorted({self.index(g) for g in gens})
        # flat tables, entry a*n + b (set by build_tables)
        self._mul_table: Optional[array] = None
        self._conj_table: Optional[array] = None
        # base-image arrays behind conj_all, built on its first call
        self._core: Optional[Tuple[np.ndarray, ...]] = None
        # the members of one Sylow subgroup per prime, and conj_images(G, S)
        # per member set of S: members only, so that no cycle keeps G alive
        self._sylow: Dict[int, FrozenSet[int]] = {}
        self._conj_images: Dict[FrozenSet[int], np.ndarray] = {}

    # -- basics ---------------------------------------------------------

    def perm(self, x: int) -> Perm:
        return tuple(self.E[x].tolist())

    def index(self, p: Perm) -> int:
        """The element with image tuple p; GroupError for any other input."""
        try:
            return self._index[array(self.E.dtype.char, p).tobytes()]
        except (KeyError, TypeError, ValueError, OverflowError):
            raise GroupError("permutation not in group") from None

    def mul(self, a: int, b: int) -> int:
        if self._mul_table is not None:
            return self._mul_table[a * self.order + b]
        if self._pad is None:  # uint16 rows: one gather
            return self._index[self.E[b][self.E[a]].tobytes()]
        return self._index[self._rows[a].translate(self._rows[b] + self._pad)]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conj(self, x: int, g: int) -> int:
        """x^g = g^-1 x g."""
        if self._conj_table is not None:
            return self._conj_table[x * self.order + g]
        return self.mul(self.mul(self.inverse[g], x), g)

    def conj_all(self, x: int) -> np.ndarray:
        """x^g = g^-1 x g for every g at once, as element indices: tabled, a
        read-only uint16 view of the table's row x, else in the smallest uint dtype.

        Untabled, x^g sends a base point b to g[x[g^-1[b]]].  The base images
        determine an element, so only they are computed, and each image row is
        looked up among the sorted base-image keys; GroupError if one is missing.
        """
        if self._conj_table is not None:
            table = np.frombuffer(memoryview(self._conj_table).toreadonly(), dtype=np.uint16)
            return table.reshape(self.order, -1)[x]
        E, einv_base, _, _ = self._base_core()
        img = np.take_along_axis(E, E[x].take(einv_base), axis=1)
        return self._lookup(img, "a conjugate")

    def mul_many(self, a, b) -> np.ndarray:
        """Elementwise a * b, as ``mul`` does, for index arrays a and b that
        broadcast together; the result has their broadcast shape.

        Tabled groups read a zero-copy view of the multiplication table.
        Untabled ones compose at the base only: (ab)[x] = b[a[x]] for a
        base point x, and the image row is looked up as in ``conj_all``.
        """
        a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
        if self._mul_table is not None:
            table = np.frombuffer(self._mul_table, dtype=np.uint16)
            return table[a * self.order + b]
        E, einv_base, _, _ = self._base_core()
        base = einv_base[self.identity]  # the identity's inverse fixes the base
        img = E[b[..., None], E[a[..., None], base]]
        return self._lookup(img.reshape(-1, len(base)), "a product").reshape(img.shape[:-1])

    def conj_many(self, x, g) -> np.ndarray:
        """Elementwise x^g, as ``conj`` does, for index arrays x and g that
        broadcast together: a view of the conjugation table when tabled,
        else (g^-1 x) g by two ``mul_many``."""
        if self._conj_table is None:
            return self.mul_many(self.mul_many(np.asarray(self.inverse)[g], x), g)
        x, g = np.asarray(x, dtype=np.intp), np.asarray(g, dtype=np.intp)
        return np.frombuffer(self._conj_table, dtype=np.uint16)[x * self.order + g]

    def _lookup(self, img: np.ndarray, what: str) -> np.ndarray:
        """The element index of each row of base images; GroupError naming
        ``what`` if a row is not among the sorted keys."""
        _, _, keys, order = self._base_core()
        found = _row_keys(img)
        pos = np.searchsorted(keys, found)
        pos[pos == len(keys)] = 0
        if not np.array_equal(keys[pos], found):
            raise GroupError(f"{what} is not an element (corrupt group core)")
        return order[pos]

    def _base_core(self) -> Tuple[np.ndarray, ...]:
        """(E, E^-1 at the base, sorted base-image keys, their element indices).

        The base is greedy (Sims 1970): each next point is the one moved by
        the most elements that fix the points chosen so far, until only the
        identity fixes them all.  Keys compare the raw bytes of the image
        rows, so no code of degree ** len(base) is formed that could overflow.
        """
        if self._core is None:
            E, n, d = self.E, self.order, self.degree
            base: List[int] = []
            fixing = E
            while len(fixing) > 1 or not base:
                b = int((fixing != np.arange(d)).sum(axis=0).argmax())
                base.append(b)
                fixing = fixing[fixing[:, b] == b]
            einv_base = E[np.asarray(self.inverse)[:, None], base]
            keys = _row_keys(E[:, base])
            order = np.argsort(keys).astype(np.min_scalar_type(n - 1))
            self._core = (E, einv_base, keys[order], order)
        return self._core

    def element_order(self, x: int) -> int:
        return perm_order(self.perm(x))

    def build_tables(self) -> None:
        """Precompute multiplication and conjugation tables, up to order
        TABLE_ORDER_CAP (larger groups are left untabled).

        Both are flat unsigned 16-bit arrays with entry a*n + b (the cap keeps
        every index below 2^16), one entry repeated (no zeroed n*n bytes copied
        in) and filled in place through (n, n) numpy views.  Columns of the
        multiplication table follow a BFS spanning tree of the Cayley graph, so
        only right products by generators are composed, one gather E[g][E] each.
        """
        n = self.order
        if self._mul_table is not None or n > TABLE_ORDER_CAP:
            return
        gens = self.generators or [self.identity]
        # right multiplication by each generator, as an index array
        right = {g: np.array([self._index[r] for r in _row_bytes(self.E[g][self.E])],
                             dtype=np.uint16) for g in gens}
        # BFS tree: every x != 1 reached as parent * gen
        tree: List[Optional[Tuple[int, int]]] = [None] * n
        bfs_order = [self.identity]
        seen = {self.identity}
        head = 0
        while head < len(bfs_order):
            x = bfs_order[head]
            head += 1
            for g in gens:
                y = int(right[g][x])
                if y not in seen:
                    seen.add(y)
                    tree[y] = (x, g)
                    bfs_order.append(y)
        # column b of a*b is column parent(b) pushed through right
        # multiplication by the tree generator
        mul = array("H", [0]) * (n * n)
        M = np.frombuffer(mul, dtype=np.uint16).reshape(n, n)
        M[:, self.identity] = np.arange(n)
        for b in bfs_order[1:]:
            parent, g = tree[b]
            M[:, b] = right[g][M[:, parent]]
        self._mul_table = mul
        # column g of x^g = (g^-1 x) g: row g^-1 of mul, then column g
        inv = self.inverse
        conj = array("H", [0]) * (n * n)
        C = np.frombuffer(conj, dtype=np.uint16).reshape(n, n)
        for g in range(n):
            C[:, g] = M[:, g][M[inv[g]]]
        self._conj_table = conj

    def word(self, xs: Iterable[int]) -> int:
        acc = self.identity
        for x in xs:
            acc = self.mul(acc, x)
        return acc

    # -- subgroups ------------------------------------------------------

    def subgroup(self, members: Iterable[int], name: str = "") -> "Subgroup":
        return Subgroup(self, frozenset(members), name=name)

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, frozenset(range(self.order)), name=self.name)

    def generated_subgroup(self, gens: Iterable[int], name: str = "") -> "Subgroup":
        return Subgroup(self, self.closure(gens), name=name)

    def closure(self, gens: Iterable[int], limit: Optional[int] = None) -> FrozenSet[int]:
        """Subgroup generated by gens; aborts past ``limit`` if given."""
        gen_list = sorted(set(gens) - {self.identity})
        members = {self.identity}
        frontier = [self.identity]
        while frontier:
            new = []
            for x in frontier:
                for g in gen_list:
                    y = self.mul(x, g)
                    if y not in members:
                        members.add(y)
                        if limit is not None and len(members) > limit:
                            return frozenset(members)
                        new.append(y)
            frontier = new
        return frozenset(members)


def _row_keys(a: np.ndarray) -> np.ndarray:
    """Each row of a 2-d array as one key that compares by its bytes.

    Rows of up to 8 bytes are read as one uint64 (zero-padded), which
    sorts and searches about 3x faster than an opaque byte string.
    """
    a = np.ascontiguousarray(a)
    width = a.dtype.itemsize * a.shape[1]
    if width <= 8:
        padded = np.zeros((len(a), 8), dtype=np.uint8)
        padded[:, :width] = a.view(np.uint8).reshape(len(a), width)
        return padded.view(np.uint64).ravel()
    return a.view(np.dtype((np.void, width))).ravel()


def _row_bytes(a: np.ndarray) -> List[bytes]:
    """The bytes of each row of a 2-d array, cut from one buffer."""
    buf, width = a.tobytes(), a.dtype.itemsize * a.shape[1]
    return [buf[i:i + width] for i in range(0, len(buf), width)]


def _enumerate(degree: int, gens: Sequence[Perm], cap: int,
               dtype: np.dtype) -> Tuple[np.ndarray, List[bytes]]:
    """The group generated by gens as lexicographically sorted rows, and their bytes.

    Breadth first: each generator g takes the whole frontier to its right
    products in one gather g[frontier].  Repeats are dropped by set
    difference on row bytes; the final sort undoes their hash order."""
    gen_rows = [np.asarray(g, dtype=dtype) for g in gens]
    frontier = np.arange(degree, dtype=dtype)[None]
    seen = set(_row_bytes(frontier))
    while len(frontier):
        fresh: set = set()
        for g in gen_rows:
            fresh |= set(_row_bytes(g[frontier])) - seen
            if len(seen) + len(fresh) > cap:
                raise GroupError(f"group order exceeds cap {cap}; refusing to enumerate")
        seen |= fresh
        frontier = np.frombuffer(b"".join(fresh), dtype=dtype).reshape(-1, degree)
    E = np.frombuffer(b"".join(seen), dtype=dtype).reshape(-1, degree)
    E = E[np.lexsort(E.T[::-1])]
    E.flags.writeable = False
    return E, _row_bytes(E)


class Subgroup:
    """Subgroup stored as an explicit member set of a parent Group."""

    def __init__(self, parent: Group, members: FrozenSet[int], name: str = ""):
        self.parent = parent
        self.members = members
        self.name = name
        if parent.identity not in members:
            raise GroupError("subgroup must contain the identity")
        self._sorted: Optional[Tuple[int, ...]] = None
        self._gens: Optional[List[int]] = None
        self._lattice: Optional[Tuple[FrozenSet[int], ...]] = None

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def sorted_members(self) -> Tuple[int, ...]:
        if self._sorted is None:
            self._sorted = tuple(sorted(self.members))
        return self._sorted

    def gens(self) -> List[int]:
        """A small deterministic generating set."""
        if self._gens is None:
            G = self.parent
            have = {G.identity}
            gens: List[int] = []
            for x in self.sorted_members:
                if x not in have:
                    gens.append(x)
                    have = set(G.closure(gens))
                    if len(have) == self.order:
                        break
            self._gens = gens
        return self._gens

    def verify(self) -> bool:
        """Closed under product and inverse (full check)."""
        G = self.parent
        mem = self.members
        for x in mem:
            if G.inv(x) not in mem:
                return False
            for y in mem:
                if G.mul(x, y) not in mem:
                    return False
        return True

    def conjugate_set(self, g: int) -> FrozenSet[int]:
        G = self.parent
        return frozenset(G.conj(x, g) for x in self.members)

    def is_normal_in(self, other: "Subgroup") -> bool:
        return all(self.conjugate_set(g) == self.members for g in other.gens())

    def is_p_group(self, p: int) -> bool:
        return p_part(self.order, p) == self.order

    def is_abelian(self) -> bool:
        G = self.parent
        ms = self.sorted_members
        return all(G.mul(a, b) == G.mul(b, a) for a in ms for b in ms)

    def is_elementary_abelian(self, p: int) -> bool:
        G = self.parent
        return self.is_abelian() and all(
            x == G.identity or G.element_order(x) == p for x in self.members)


# -- group file format --------------------------------------------------

def load_group(text: str, name: str = "G", order_cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Parse the group file format: ``degree N`` then one generator per line."""
    degree = None
    gens: List[Perm] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            m = re.fullmatch(r"degree\s+(\d+)", line)
            if not m:
                raise GroupError(f"expected 'degree N' first, got {line!r}")
            degree = int(m.group(1))
        else:
            gens.append(parse_perm(line, degree))
    if degree is None:
        raise GroupError("empty group file")
    return Group(degree, gens, name=name, order_cap=order_cap)


def load_group_file(path) -> Group:
    """A group file, named after its stem."""
    p = Path(path)
    return load_group(p.read_text(encoding="utf-8"), name=p.stem)


# -- standard queries ---------------------------------------------------

def p_part(n: int, p: int) -> int:
    """The largest power of p dividing n (n >= 1, p >= 2)."""
    if p < 2:
        raise GroupError(f"p = {p} is not a prime")
    if n < 1:
        raise GroupError(f"n = {n} has no p-part (n must be positive)")
    m = 1
    while n % p == 0:
        n //= p
        m *= p
    return m


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def sylow(G: Group, p: int) -> Subgroup:
    """A Sylow p-subgroup, grown deterministically inside normalizers.

    Grown once per (G, p); later calls return a subgroup with the same
    member set.
    """
    if p not in G._sylow:
        G._sylow[p] = _grow_sylow(G, p)
    return G.subgroup(G._sylow[p], name=f"Syl_{p}({G.name})")


def _grow_sylow(G: Group, p: int) -> FrozenSet[int]:
    if not is_prime(p):
        raise GroupError(f"p = {p} is not a prime")
    target = p_part(G.order, p)
    current = G.subgroup([G.identity])
    while current.order < target:
        # any p-subgroup below Sylow order extends inside its normalizer
        norm = normalizer_set(G, current)
        extended = False
        for g in sorted(norm):
            if g in current.members:
                continue
            if p_part(n := G.element_order(g), p) != n:
                continue
            cand = G.closure(sorted(current.members) + [g], limit=target)
            if len(cand) <= target and p_part(len(cand), p) == len(cand):
                current = G.subgroup(cand)
                extended = True
                break
        if not extended:
            raise GroupError("sylow construction failed (internal error)")
    return current.members


def member_mask(G: Group, members: Iterable[int]) -> np.ndarray:
    """Boolean array over the elements of G, True exactly on members."""
    mask = np.zeros(G.order, dtype=bool)
    mask[list(members)] = True
    return mask


def transporter(G: Group, P: Subgroup, Q: Subgroup) -> List[int]:
    """N_G(P,Q) = all g with P^g <= Q, one conj_all per generator of P."""
    in_q = member_mask(G, Q.members)
    hits = np.ones(G.order, dtype=bool)
    for x in P.gens():
        hits &= in_q[G.conj_all(x)]
    return np.flatnonzero(hits).tolist()


def normalizer_set(G: Group, P: Subgroup) -> List[int]:
    return transporter(G, P, P)


def normalizer(G: Group, P: Subgroup) -> Subgroup:
    return G.subgroup(normalizer_set(G, P), name=f"N({P.name})")


def centralizer_set(G: Group, xs: Iterable[int]) -> List[int]:
    hits = np.ones(G.order, dtype=bool)
    for x in xs:
        hits &= G.conj_all(x) == x
    return np.flatnonzero(hits).tolist()


def centralizer(G: Group, P: Subgroup) -> Subgroup:
    return G.subgroup(centralizer_set(G, P.gens() or [G.identity]),
                      name=f"C({P.name})")


def center(G: Group) -> Subgroup:
    return G.subgroup(centralizer_set(G, G.generators), name=f"Z({G.name})")


def conjugacy_classes(G: Group) -> List[List[int]]:
    """The conjugacy classes of G, each sorted, ordered by least member."""
    seen = np.zeros(G.order, dtype=bool)
    classes = []
    for x in range(G.order):
        if not seen[x]:
            in_cls = np.zeros(G.order, dtype=bool)
            in_cls[G.conj_all(x)] = True
            seen |= in_cls
            classes.append(np.flatnonzero(in_cls).tolist())
    return classes


def conj_images(G: Group, S: Subgroup) -> np.ndarray:
    """The read-only (|S|, |G|) array with s_i^g in row i, column g, s_i the
    i-th of ``S.sorted_members``; one conj_all per member, kept on G."""
    if S.members not in G._conj_images:
        images = np.stack([G.conj_all(s) for s in S.sorted_members])
        images.flags.writeable = False
        G._conj_images[S.members] = images
    return G._conj_images[S.members]


def o_p(G: Group, p: int) -> Subgroup:
    """O_p(G): the s in a Sylow p-subgroup S with s^g in S for every g."""
    S = sylow(G, p)
    in_s = member_mask(G, S.members)
    core = [s for s, row in zip(S.sorted_members, conj_images(G, S)) if in_s[row].all()]
    return G.subgroup(core, name=f"O_{p}({G.name})")


def o_pprime(G: Group, p: int) -> Subgroup:
    """O_{p'}(G): grown from p'-elements with p'-group normal closure.

    One representative per conjugacy class is tried, since a class joins
    or fails as a whole.  One sweep suffices: the current subgroup only
    grows, so a class rejected once (its normal closure with the current
    subgroup has order divisible by p) stays rejected.
    """
    bound = G.order // p_part(G.order, p)  # any p'-subgroup order divides this
    current: FrozenSet[int] = frozenset([G.identity])
    for cls in conjugacy_classes(G):
        if cls[0] in current or G.element_order(cls[0]) % p == 0:
            continue
        # current is normal, so this is the normal closure of current and x
        cand = G.closure(current.union(cls), limit=bound)
        if len(cand) <= bound and len(cand) % p != 0:
            current = cand
    return G.subgroup(current, name=f"O_{p}'({G.name})")


def char_p_tests(G: Group, p: int) -> Dict[str, object]:
    """O_p, O_p', center, characteristic-p and p-constrained verdicts."""
    Op = o_p(G, p)
    Opp = o_pprime(G, p)
    Z = center(G)
    C_Op = centralizer(G, Op)
    is_char_p = C_Op.members <= Op.members
    T = sylow(G, p)
    C_T_Op = frozenset(centralizer_set(G, Op.gens() or [G.identity])) & T.members
    is_p_constrained = C_T_Op <= Op.members
    return {
        "O_p": Op,
        "O_pprime": Opp,
        "center": Z,
        "is_characteristic_p": is_char_p,
        "is_p_constrained": is_p_constrained,
    }


def all_subgroups(S: Subgroup) -> Tuple[FrozenSet[int], ...]:
    """Every subgroup of S as a member set (S must be small), ordered by
    (order, sorted members); built once per S."""
    if S._lattice is None:
        S._lattice = _subgroup_lattice(S)
    return S._lattice


def _subgroup_lattice(S: Subgroup) -> Tuple[FrozenSet[int], ...]:
    if S.order > SUBGROUP_LATTICE_CAP:
        raise GroupError(f"subgroup lattice cap exceeded: |S|={S.order}")
    G = S.parent
    found = {frozenset([G.identity])}
    # cyclic subgroups seed the lattice
    for x in S.sorted_members:
        found.add(G.closure([x]))
    frontier = sorted(found, key=sorted)
    while frontier:
        new = []
        for H in frontier:
            for x in S.sorted_members:
                if x in H:
                    continue
                J = G.closure(sorted(H) + [x], limit=S.order)
                if J <= S.members and J not in found:
                    found.add(J)
                    new.append(J)
        frontier = new
    return tuple(sorted(found, key=lambda m: (len(m), sorted(m))))


def subgroup_classes(G: Group, subs: Sequence[FrozenSet[int]],
                     gens: Sequence[int]) -> List[List[FrozenSet[int]]]:
    """The members of ``subs`` by conjugacy classes under <gens>, each class
    sorted, in order of first member.  The walk visits every conjugate, also
    those outside ``subs``, so members joined only through one stay joined."""
    members, seen, classes = set(subs), set(), []
    for mem in subs:
        if mem in seen:
            continue
        orbit, frontier = {mem}, [mem]
        while frontier:
            h = frontier.pop()
            for g in gens:
                img = frozenset(G.conj(x, g) for x in h)
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        seen |= orbit
        classes.append(sorted(orbit & members, key=sorted))
    return classes


def subgroups_up_to_conjugacy(S: Subgroup) -> List[List[Subgroup]]:
    """Conjugacy classes (under S) of all subgroups of S."""
    return [[S.parent.subgroup(m) for m in cls]
            for cls in subgroup_classes(S.parent, all_subgroups(S), S.gens())]


def quotient_group(G: Group, N: Subgroup) -> Tuple[Group, Dict[int, int]]:
    """Coset group G/N (as permutations of the coset space) plus projection."""
    # the right coset Nx is numbered by its least element min_n nx, in
    # increasing order: one gather over N x G and its least row
    members = np.array(sorted(N.members), dtype=np.intp)
    least = G.mul_many(members[:, None], np.arange(G.order)).min(axis=0)
    reps = np.flatnonzero(least == np.arange(G.order))
    coset_of = np.searchsorted(reps, least)
    # N is normal exactly when gN lies in Ng for every generator g
    gens = np.array(G.generators, dtype=np.intp)
    if (coset_of[G.mul_many(gens[:, None], members)] != coset_of[gens][:, None]).any():
        raise GroupError("quotient by a non-normal subgroup")
    gen_perms = [tuple(row) for row in coset_of[G.mul_many(reps, gens[:, None])].tolist()]
    Q = Group(len(reps), gen_perms, name=f"{G.name}/{N.name or 'N'}")
    # projection: x -> the permutation Nr -> Nrx.  G/N acts regularly on the
    # cosets, so that is the one element of Q that sends N (coset 0) to Nx
    image = np.empty(Q.order, dtype=np.intp)
    image[Q.E[:, 0]] = np.arange(Q.order)
    proj = dict(zip(range(G.order), image[coset_of].tolist()))
    return Q, proj
