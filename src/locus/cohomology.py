"""Mod-p group cohomology via the normalized bar resolution.

Cochains in degree n are functions on n-tuples of nonidentity elements,
with the usual inhomogeneous differential (terms whose inner product hits
the identity drop out).  The n-tuples are the rows of an index array,
numbered in mixed radix; faces, restriction (a gather of the target basis)
and transfer (a walk over coset representatives) map its columns whole.
Everything is exact linear algebra over F_p.  No differential is a matrix:
d_n is n + 2 face arrays, applied to blocks of cochain columns by gathers.
In degree n, each coordinate x leading no pivot of B^n hands
``linalg.rank_sparse_modp`` the row e_x + d(e_x), d(e_x) shifted past the
K = dim C^n low columns.  Pivots leading at or above K span B^{n+1} and are
cleared in degree n + 1 (as in ``catlimits``); those leading at x < K are
cocycles e_x + (lower terms), dim H^n class representatives that with B^n's
pivots are a basis of Z^n.  ``CohomologyFamily`` is the one cache of these.
"""

from __future__ import annotations

import os
from typing import Dict, FrozenSet, Iterator, List, Tuple

import numpy as np

from .linalg import Row, rank_sparse_modp, reduce_modp
from .permgroups import Group, GroupError, Subgroup, is_prime

MemberSet = FrozenSet[int]

MEMORY_BUDGET_ENV = "LOCUS_MEMORY_BUDGET_MB"

BLOCK_CELLS = 1 << 15  # of a block of cochain columns, gathered by a coboundary


class BudgetError(RuntimeError):
    pass


def budget_mb() -> int:
    text = os.environ.get(MEMORY_BUDGET_ENV, "1500")
    if not (text.isascii() and text.isdigit()):
        raise BudgetError(f"{MEMORY_BUDGET_ENV} = {text!r} is not a non-negative integer")
    return int(text)


def bar_bytes(k: int, p: int, jmax: int) -> int:
    """Bytes ``FpCohomology`` of a group of order k + 1 holds: the faces (at
    most as many again below the top degree's) and their entries as they are
    sorted, gathered blocks, and the top degree's pivots, at p = 2 at most
    k^jmax ints of k^jmax + k^(jmax+1) bits; at odd p, four times the rows'
    dict entries, which does not bound fill-in."""
    K, R = k ** jmax, k ** (jmax + 1)
    pivots = K * (100 + (K + R) // 7) if p == 2 else 256 * (K + (jmax + 2) * R)
    return 64 * (jmax + 2) * R + 24 * max(BLOCK_CELLS, R) + pivots


class FpCohomology:
    """Graded truncation of H^*(P; F_p) with explicit cocycle bases."""

    def __init__(self, G: Group, P: Subgroup, p: int, jmax: int):
        if not is_prime(p):
            raise GroupError(f"p = {p} is not a prime")
        if jmax < 0:
            raise GroupError(f"jmax = {jmax} is negative")
        if jmax > 6:
            raise GroupError("degree cap is 6")
        self.group = G
        self.sub = P
        self.p = p
        self.jmax = jmax
        self.nonid = np.array([x for x in P.sorted_members if x != G.identity],
                              dtype=np.intp)
        if (est := bar_bytes(len(self.nonid), p, jmax)) > budget_mb() * 1_000_000:
            raise BudgetError(
                f"bar resolution needs ~{est // 1_000_000} MB "
                f"(budget {budget_mb()} MB)")
        self.faces = [self._faces(n) for n in range(jmax + 1)]
        if any(len(values) for n in range(jmax) for _, _, values in self._square(n)):
            raise AssertionError("bar differential does not square to zero")
        # per degree: pivots of B^n and of the representatives, their leads, the basis
        self._pivots, self._leads, self._basis = [], [], []
        bounds: Dict[int, Row] = {}
        for n in range(jmax + 1):
            K = self.dim_cochain(n)
            pivots = rank_sparse_modp(K - len(bounds), K + self.dim_cochain(n + 1),
                                      self._rows(n, bounds), p)
            reps = {x: pivots[x] for x in sorted(pivots) if x < K}
            self._pivots.append({**bounds, **reps})
            self._leads.append(list(reps))
            Z = [[r >> j & 1 if p == 2 else r.get(j, 0) for j in range(K)] for r in reps.values()]
            self._basis.append(np.array(Z, dtype=np.int64).reshape(len(reps), K))
            bounds = {x - K: row >> K if p == 2 else {j - K: v for j, v in row.items() if j >= K}
                      for x, row in pivots.items() if x >= K and n < jmax}

    # -- bases ----------------------------------------------------------

    def dim_cochain(self, n: int) -> int:
        return len(self.nonid) ** n

    def tuples(self, n: int) -> np.ndarray:
        """The n-tuples that index C^n, as the rows of a (k^n, n) array in
        index order (k = len(nonid); the first entry varies slowest)."""
        if n == 0:
            return np.empty((1, 0), dtype=np.intp)
        k = len(self.nonid)
        return self.nonid[np.stack(np.unravel_index(np.arange(k ** n), (k,) * n), axis=1)]

    def tuple_index(self, T: np.ndarray) -> np.ndarray:
        """The index in C^n of each row of T, an array of n-tuples of members
        of ``nonid``: mixed radix in their positions in ``nonid``."""
        radix = len(self.nonid) ** np.arange(T.shape[-1] - 1, -1, -1)
        return np.searchsorted(self.nonid, T) @ radix

    def _faces(self, n: int) -> np.ndarray:
        """d: C^n -> C^{n+1} as an (n + 2, k^{n+1}) array: row j holds face j
        (sign (-1)^j) of each (n+1)-tuple r, or K = k^n where it drops out:
        face 0 drops the first entry (r mod K), face n + 1 the last (r // k),
        and inner face i multiplies entries i - 1 and i."""
        G, K = self.group, self.dim_cochain(n)
        T = self.tuples(n + 1)
        F = np.full((n + 2, len(T)), K, dtype=np.intp)
        F[0], F[n + 1] = np.arange(len(T)) % K, np.arange(len(T)) // len(self.nonid)
        for i in range(1, n + 1):
            prod = G.mul_many(T[:, i - 1], T[:, i])
            ok = prod != G.identity
            F[i, ok] = self.tuple_index(
                np.concatenate([T[ok, :i - 1], prod[ok, None], T[ok, i + 1:]], axis=1))
        return F

    def coboundary(self, n: int, V: np.ndarray) -> np.ndarray:
        """d V mod p for the columns of V, cochains in C^n: a gather per face."""
        V = np.asarray(V, dtype=np.int64) % self.p
        W = np.concatenate([V, np.zeros((1, V.shape[1]), dtype=np.int64)])  # row K reads 0
        return sum((-1) ** j * W[F] for j, F in enumerate(self.faces[n])) % self.p

    def _square(self, n: int) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The nonzero entries of d_{n+1} d_n mod p as (row, column, value)
        arrays, a block of (n+2)-tuples r at a time: row r sums the signed
        entries faces[n][j][faces[n+1][i][r]], sign (-1)^(i+j), like
        ``_rows``, dropping every composition through a face that drops out.
        A block holds BLOCK_CELLS // 4 entries, since sorting and summing
        them takes about as many bytes as a gathered block of BLOCK_CELLS."""
        K, p = self.dim_cochain(n), self.p
        low = np.concatenate([self.faces[n], np.full((n + 2, 1), K, dtype=np.intp)], axis=1)
        high = self.faces[n + 1]
        sign = (-1.0) ** np.add.outer(np.arange(n + 2), np.arange(n + 3))[:, :, None]
        step = max(1, BLOCK_CELLS // 4 // sign.size)
        for start in range(0, high.shape[1], step):
            cols = low[:, high[:, start:start + step]]  # (j, i, r)
            key = cols + (K + 1) * np.arange(start, start + cols.shape[2])
            key, at = np.unique(key.ravel(), return_inverse=True)
            value = np.bincount(at, np.broadcast_to(sign, cols.shape).ravel())
            value = value.astype(np.int64) % p
            live = (value != 0) & (key % (K + 1) < K)
            yield key[live] // (K + 1), key[live] % (K + 1), value[live]

    def _rows(self, n: int, cleared: Dict[int, Row]) -> Iterator[Row]:
        """e_x + d(e_x), d(e_x) shifted past K = dim C^n, for each x not in
        ``cleared`` in increasing order: face entries sorted by (x, r), summed."""
        K, R, p = self.dim_cochain(n), self.dim_cochain(n + 1), self.p
        key, at = np.unique(self.faces[n].ravel() * R + np.tile(np.arange(R), n + 2),
                            return_inverse=True)
        value = np.bincount(at, np.repeat((-1.0) ** np.arange(n + 2), R)).astype(np.int64) % p
        live = (value != 0) & (key < K * R)
        key, value = key[live], value[live]
        ends = np.searchsorted(key, np.arange(K + 1) * R)
        for x in (x for x in range(K) if x not in cleared):
            cols = [x] + (K + key[ends[x]:ends[x + 1]] % R).tolist()
            yield (sum(1 << j for j in cols) if p == 2 else
                   dict(zip(cols, [1] + value[ends[x]:ends[x + 1]].tolist())))

    def dims(self) -> List[int]:
        return [self.dim(n) for n in range(self.jmax + 1)]

    def dim(self, n: int) -> int:
        return len(self._leads[n])

    def basis(self, n: int) -> np.ndarray:
        """Class representatives of H^n as rows, in increasing order of lead."""
        return self._basis[n]

    def coordinates(self, n: int, V: np.ndarray) -> np.ndarray:
        """Coordinates in ``basis(n)``, as columns, of the classes of the
        cocycle columns of V: the multiples of the representatives each takes
        as it reduces to zero against them and the pivots of B^n."""
        p = self.p
        V = np.asarray(V, dtype=np.int64) % p
        if self.coboundary(n, V).any():
            raise ValueError("vector is not a cocycle")
        out = np.zeros((self.dim(n), V.shape[1]), dtype=np.int64)
        for c, nz in enumerate(np.flatnonzero(col).tolist() for col in V.T):
            factors: Dict[int, int] = {}
            row = sum(1 << j for j in nz) if p == 2 else dict(zip(nz, V[nz, c].tolist()))
            if reduce_modp(row, self._pivots[n], p, factors):
                raise ValueError("cocycle does not reduce into the basis")
            out[:, c] = [factors.get(x, 0) for x in self._leads[n]]
        return out


def _unit_blocks(K: int, rows: int) -> Iterator[np.ndarray]:
    """e_0, ..., e_{K-1} by blocks of BLOCK_CELLS // rows columns (at least one)."""
    step = max(1, BLOCK_CELLS // max(rows, 1))
    return (np.eye(K, min(step, K - x), -x, dtype=np.int64) for x in range(0, K, step))


# -- induced maps -----------------------------------------------------------

def restriction_map(H_target: FpCohomology, H_source: FpCohomology,
                    mapping: Dict[int, int], n: int) -> np.ndarray:
    """H^n(target) -> H^n(source) induced by ``mapping``, a homomorphism
    source -> target: each source tuple gathers the target basis at its
    image, or 0 where that holds the identity (normalized cochains vanish)."""
    src = H_source.nonid
    image = np.array([mapping.get(x, -1) for x in src.tolist()], dtype=np.intp)
    if not H_target.sub.members.issuperset(image.tolist()):
        raise GroupError("mapping does not send every source member into the target")
    T = image[np.searchsorted(src, H_source.tuples(n))]
    ok = (T != H_target.group.identity).all(axis=1)
    B = H_target.basis(n)
    V = np.zeros((len(T), len(B)), dtype=np.int64)
    V[ok] = B.T[H_target.tuple_index(T[ok])]
    return H_source.coordinates(n, V)


def transfer_cochain(H_big: FpCohomology, H_small: FpCohomology,
                     n: int) -> np.ndarray:
    """Matrix of the cochain transfer C^n(small) -> C^n(big), small <= big:
    from each representative s_0 of the cosets P s of Q, a tuple (g_1, ...,
    g_n) steps through t_i = s_{i-1} g_i = h_i s_i, h_i in P, and adds
    (h_1, ..., h_n) unless some h_i is 1."""
    G, P, Q = H_big.group, H_small.sub, H_big.sub
    if not P.members <= Q.members:
        raise GroupError("transfer requires P <= Q")
    # x in Q is h x' with x' = min(P x), its coset's representative; the
    # representative and h of each member sit at its position in Q
    members, sub = np.asarray(Q.sorted_members), np.asarray(P.sorted_members)
    at_min = G.mul_many(sub[:, None], members).argmin(axis=0)
    rep = G.mul_many(sub[at_min], members)
    part = np.array([G.inv(h) for h in P.sorted_members], dtype=np.intp)[at_min]
    T = H_big.tuples(n)
    rows = np.arange(len(T))
    M = np.zeros((len(T), H_small.dim_cochain(n)), dtype=np.int64)
    for s0 in sorted(set(rep.tolist())):  # np.unique would import numpy.ma
        s = np.full(len(T), s0)
        term = np.empty_like(T)
        for i in range(n):
            at = np.searchsorted(members, G.mul_many(s, T[:, i]))
            term[:, i], s = part[at], rep[at]
        ok = (term != G.identity).all(axis=1)
        np.add.at(M, (rows[ok], H_small.tuple_index(term[ok])), 1)
    return M % H_big.p


def transfer_map(H_big: FpCohomology, H_small: FpCohomology, n: int) -> np.ndarray:
    """tr: H^n(small) -> H^n(big) for small <= big (cochain-level walk)."""
    p = H_big.p
    M = transfer_cochain(H_big, H_small, n)
    # chain map sanity: d o tr = tr o d
    if n < H_big.jmax and n < H_small.jmax:
        M1 = transfer_cochain(H_big, H_small, n + 1)
        for E in _unit_blocks(H_small.dim_cochain(n), H_big.dim_cochain(n + 1)):
            if np.any((H_big.coboundary(n, M @ E) - M1 @ H_small.coboundary(n, E)) % p):
                raise AssertionError("transfer is not a cochain map")
    return H_big.coordinates(n, (M @ H_small.basis(n).T) % p)


class CohomologyFamily:
    """The one cache of FpCohomology objects over one ambient group."""

    def __init__(self, G: Group, p: int, jmax: int):
        self.group = G
        self.p = p
        self.jmax = jmax
        self._cache: Dict[MemberSet, FpCohomology] = {}

    def of(self, members: MemberSet) -> FpCohomology:
        members = frozenset(members)
        if members not in self._cache:
            self._cache[members] = FpCohomology(
                self.group, self.group.subgroup(members), self.p, self.jmax)
        return self._cache[members]


def transfer_along(fam: CohomologyFamily, P: MemberSet, Q: MemberSet,
                   mapping: Dict[int, int], n: int) -> np.ndarray:
    """Covariant map H^n(P) -> H^n(Q) for an injective hom P -> Q.

    Factors as isomorphism onto the image followed by the coset transfer;
    on an isomorphism this is restriction along the inverse.
    """
    image = frozenset(mapping.values())
    inv_map = {y: x for x, y in mapping.items()}
    iso = restriction_map(fam.of(P), fam.of(image), inv_map, n)
    if image == frozenset(Q):
        return iso
    return (transfer_map(fam.of(Q), fam.of(image), n) @ iso) % fam.p


def mackey_square(fam: CohomologyFamily, P: MemberSet, K: MemberSet,
                  Q: MemberSet, n: int) -> bool:
    """res^Q_K o tr^Q_P equals the double-coset sum, as matrices."""
    G = fam.group
    p = fam.p
    H = fam.of
    lhs = (restriction_map(H(Q), H(K), {x: x for x in K}, n)
           @ transfer_map(H(Q), H(P), n)) % p
    rhs = np.zeros_like(lhs)
    seen = set()
    for x in sorted(Q):
        if x in seen:
            continue
        coset = {G.mul(G.mul(k, x), q) for k in K for q in P}
        seen |= coset
        xi = G.inv(x)
        conj_P = frozenset(G.conj(y, xi) for y in P)       # ^xP
        inter = frozenset(y for y in K if y in conj_P)      # K cap ^xP
        if len(inter) == 0:
            continue
        # c_x : H(P) -> H(^xP) induced by the hom ^xP -> P, y -> y^x
        cx = restriction_map(H(P), H(conj_P), {y: G.conj(y, x) for y in conj_P}, n)
        res = restriction_map(H(conj_P), H(inter), {y: y for y in inter}, n)
        tr = transfer_map(H(K), H(inter), n)
        rhs = (rhs + tr @ res @ cx) % p
    return not np.any((lhs - rhs) % p)
