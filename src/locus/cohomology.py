"""Mod-p group cohomology via the normalized bar resolution.

Cochains in degree n are functions on n-tuples of nonidentity elements,
with the usual inhomogeneous differential (terms whose inner product hits
the identity drop out).  The n-tuples are the rows of an index array,
numbered in mixed radix; faces, restriction (a gather of the target basis)
and transfer (a walk over coset representatives) map its columns whole.
Everything is exact linear algebra over F_p.  The differentials are stored
in uint8 when p < 256 and upcast to int64 a block of rows at a time where
they are multiplied (``_mul_modp``).  ``CohomologyFamily`` is the one cache
of these groups over an ambient group.
"""

from __future__ import annotations

import os
from typing import Dict, FrozenSet, List, Tuple

import numpy as np

from .linalg import nullspace_modp, row_echelon_modp
from .permgroups import Group, GroupError, Subgroup, is_prime

MemberSet = FrozenSet[int]

MEMORY_BUDGET_ENV = "LOCUS_MEMORY_BUDGET_MB"


class BudgetError(RuntimeError):
    pass


def budget_mb() -> int:
    text = os.environ.get(MEMORY_BUDGET_ENV, "1500")
    if not (text.isascii() and text.isdigit()):
        raise BudgetError(f"{MEMORY_BUDGET_ENV} = {text!r} is not a non-negative integer")
    return int(text)


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
        # the largest allocation is diff[jmax] together with the copy
        # row_echelon_modp reduces; 8 bytes a cell each bounds both at any
        # p (uint8 at p < 256)
        est = 2 * 8 * self.dim_cochain(jmax + 1) * self.dim_cochain(jmax)
        if est > budget_mb() * 1_000_000:
            raise BudgetError(
                f"bar resolution needs ~{est // 1_000_000} MB "
                f"(budget {budget_mb()} MB)")
        self.diff = [self._differential(n) for n in range(jmax + 1)]  # C^n -> C^{n+1}
        # d o d = 0
        for n in range(jmax):
            if np.any(_mul_modp(self.diff[n + 1], self.diff[n], p)):
                raise AssertionError("bar differential does not square to zero")
        # per degree, (RREF, pivots) of B^n and of the class representatives;
        # the representatives vanish on the pivots of B^n
        self._b: List[Tuple[np.ndarray, List[int]]] = []
        self._h: List[Tuple[np.ndarray, List[int]]] = []
        for n in range(jmax + 1):
            boundaries = (self.diff[n - 1].T if n else
                          np.zeros((0, self.dim_cochain(0)), dtype=np.int64))
            self._b.append(_echelon(boundaries, p))
            kernel = nullspace_modp(self.diff[n], p)  # rows span Z^n
            self._h.append(_echelon(self._off_boundaries(n, kernel), p))

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

    def _differential(self, n: int) -> np.ndarray:
        """Matrix of d: C^n -> C^{n+1} for trivial F_p coefficients, in uint8
        when p < 256 (built in int16: an entry sums at most n + 2 signs).
        Row r is the tuple T[r]: face 0 drops its first entry (column r mod
        k^n), the last face its last (r // k), and inner face i multiplies
        entries i and i + 1."""
        G = self.group
        p = self.p
        k = len(self.nonid)
        T = self.tuples(n + 1)
        r = np.arange(len(T))
        D = np.zeros((len(T), self.dim_cochain(n)),
                     dtype=np.int16 if p < 256 else np.int64)
        np.add.at(D, (r, r % k ** n), 1)
        np.add.at(D, (r, r // k), (-1) ** (n + 1))
        for i in range(n):
            prod = G.mul_many(T[:, i], T[:, i + 1])
            ok = prod != G.identity
            merged = np.concatenate([T[ok, :i], prod[ok, None], T[ok, i + 2:]], axis=1)
            np.add.at(D, (r[ok], self.tuple_index(merged)), (-1) ** (i + 1))
        D %= p
        return D.astype(np.uint8) if p < 256 else D

    def _off_boundaries(self, n: int, W: np.ndarray) -> np.ndarray:
        """Rows of W minus their B^n parts, so zero on the pivots of B^n."""
        b_ech, b_piv = self._b[n]
        return (W - W[:, b_piv] @ b_ech) % self.p

    def dims(self) -> List[int]:
        return [self.dim(n) for n in range(self.jmax + 1)]

    def dim(self, n: int) -> int:
        return len(self._h[n][1])

    def basis(self, n: int) -> np.ndarray:
        """Class representatives of H^n as rows, in RREF."""
        return self._h[n][0]

    def coordinates(self, n: int, V: np.ndarray) -> np.ndarray:
        """Coordinates, as columns, of the classes of the cocycle columns of V:
        a cocycle minus its B^n part is its coefficients times the basis, so
        the coefficients are its entries at the basis pivots."""
        p = self.p
        if np.any(_mul_modp(self.diff[n], V, p)):
            raise ValueError("vector is not a cocycle")
        h_ech, h_piv = self._h[n]
        W = self._off_boundaries(n, V.T.astype(np.int64) % p)
        coeffs = W[:, h_piv]
        if np.any((W - coeffs @ h_ech) % p):
            raise ValueError("cocycle does not reduce into the basis")
        return coeffs.T


def _echelon(A: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """The nonzero rows of A's RREF, in int64, with their pivot columns."""
    ech, piv = row_echelon_modp(A, p)
    return ech[:len(piv)].astype(np.int64), piv


# cells of a differential upcast to int64 at a time by _mul_modp
MUL_BLOCK_CELLS = 1 << 18


def _mul_modp(D: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """(D @ B) mod p in int64, for D in uint8 or int64.  D is upcast a block
    of rows at a time, so no int64 copy of all of it is made."""
    B = B.astype(np.int64, copy=False)
    step = max(1, MUL_BLOCK_CELLS // max(1, D.shape[1]))
    return np.concatenate([D[i:i + step].astype(np.int64, copy=False) @ B
                           for i in range(0, max(1, D.shape[0]), step)]) % p


# -- induced maps -----------------------------------------------------------

def restriction_map(H_target: FpCohomology, H_source: FpCohomology,
                    mapping: Dict[int, int], n: int) -> np.ndarray:
    """H^n(target) -> H^n(source) induced by ``mapping``, a homomorphism
    source -> target: each source tuple gathers the target basis at its
    image, or 0 where that holds the identity (normalized cochains vanish)."""
    src = H_source.nonid
    image = np.fromiter((mapping[x] for x in src), dtype=np.intp, count=len(src))
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
    for s0 in np.unique(rep):
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
        lhs = _mul_modp(H_big.diff[n], M, p)
        rhs = _mul_modp(transfer_cochain(H_big, H_small, n + 1), H_small.diff[n], p)
        if np.any((lhs - rhs) % p):
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
