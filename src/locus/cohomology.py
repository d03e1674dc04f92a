"""Mod-p group cohomology via the normalized bar resolution.

Cochains in degree n are functions on n-tuples of nonidentity elements,
with the usual inhomogeneous differential (terms whose inner product hits
the identity drop out).  Restriction is precomposition; transfer walks
coset representatives.  Everything is exact linear algebra over F_p.  The
differentials are stored in uint8 when p < 256 and upcast to int64 a block
of rows at a time where they are multiplied (``_mul_modp``).
``CohomologyFamily`` is the one cache of these groups over an ambient group.
"""

from __future__ import annotations

import os
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from .linalg import nullspace_modp, row_echelon_modp
from .permgroups import Group, GroupError, Subgroup

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
        if jmax > 6:
            raise GroupError("degree cap is 6")
        self.group = G
        self.sub = P
        self.p = p
        self.jmax = jmax
        self.nonid = [x for x in P.sorted_members if x != G.identity]
        # the largest allocation is diff[jmax] together with the copy
        # row_echelon_modp reduces; 8 bytes a cell each bounds both at any
        # p (uint8 at p < 256)
        est = 2 * 8 * self.dim_cochain(jmax + 1) * self.dim_cochain(jmax)
        if est > budget_mb() * 1_000_000:
            raise BudgetError(
                f"bar resolution needs ~{est // 1_000_000} MB "
                f"(budget {budget_mb()} MB)")
        self._pos = {x: i for i, x in enumerate(self.nonid)}
        self.diff: List[np.ndarray] = []  # diff[n]: C^n -> C^{n+1}
        for n in range(jmax + 1):
            self.diff.append(self._differential(n))
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

    def tuple_index(self, tup: Sequence[int]) -> int:
        idx = 0
        for g in tup:
            idx = idx * len(self.nonid) + self._pos[g]
        return idx

    def tuples(self, n: int) -> List[Tuple[int, ...]]:
        if n == 0:
            return [()]
        out = [()]
        for _ in range(n):
            out = [t + (g,) for t in out for g in self.nonid]
        return out

    def _differential(self, n: int) -> np.ndarray:
        """Matrix of d: C^n -> C^{n+1} for trivial F_p coefficients, in uint8
        when p < 256 (built in int16: an entry sums at most n + 2 signs)."""
        G = self.group
        p = self.p
        rows = self.dim_cochain(n + 1)
        cols = self.dim_cochain(n)
        D = np.zeros((rows, cols), dtype=np.int16 if p < 256 else np.int64)
        for r, tup in enumerate(self.tuples(n + 1)):
            # face 0 drops the first entry; face n+1 drops the last
            D[r, self.tuple_index(tup[1:])] += 1
            sign = -1
            for i in range(n):
                prod = G.mul(tup[i], tup[i + 1])
                if prod != G.identity:
                    merged = tup[:i] + (prod,) + tup[i + 2:]
                    D[r, self.tuple_index(merged)] += sign
                sign = -sign
            D[r, self.tuple_index(tup[:-1])] += sign
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

def restriction_cochain(H_target: FpCohomology, H_source: FpCohomology,
                        mapping: Dict[int, int], n: int) -> np.ndarray:
    """Matrix of precomposition C^n(target) -> C^n(source) along a hom.

    ``mapping`` sends source elements to target elements.
    """
    rows = H_source.dim_cochain(n)
    cols = H_target.dim_cochain(n)
    M = np.zeros((rows, cols), dtype=np.int64)
    for r, tup in enumerate(H_source.tuples(n)):
        image = tuple(mapping[g] for g in tup)
        if any(g == H_target.group.identity for g in image):
            continue  # normalized cochains vanish there
        M[r, H_target.tuple_index(image)] += 1
    return M


def restriction_map(H_target: FpCohomology, H_source: FpCohomology,
                    mapping: Dict[int, int], n: int) -> np.ndarray:
    """H^n(target) -> H^n(source) induced by a homomorphism source->target."""
    M = restriction_cochain(H_target, H_source, mapping, n)
    return H_source.coordinates(n, (M @ H_target.basis(n).T) % H_target.p)


def transfer_cochain(H_big: FpCohomology, H_small: FpCohomology,
                     n: int) -> np.ndarray:
    """Matrix of the cochain transfer C^n(small) -> C^n(big), small <= big."""
    G = H_big.group
    P = H_small.sub
    Q = H_big.sub
    if not P.members <= Q.members:
        raise GroupError("transfer requires P <= Q")
    # right coset reps: Q = union of P r
    reps: List[int] = []
    seen = set()
    for x in Q.sorted_members:
        if x in seen:
            continue
        reps.append(x)
        for h in P.members:
            seen.add(G.mul(h, x))
    rep_of: Dict[int, int] = {}
    for r in reps:
        for h in P.members:
            rep_of[G.mul(h, r)] = r
    rows = H_big.dim_cochain(n)
    cols = H_small.dim_cochain(n)
    M = np.zeros((rows, cols), dtype=np.int64)
    if n == 0:
        M[0, 0] = len(reps)
        return M % H_big.p
    for r_idx, tup in enumerate(H_big.tuples(n)):
        for r in reps:
            s = r
            term: List[int] = []
            for g in tup:
                t = G.mul(s, g)
                s2 = rep_of[t]
                term.append(G.mul(t, G.inv(s2)))
                s = s2
            if any(x == G.identity for x in term):
                continue
            M[r_idx, H_small.tuple_index(tuple(term))] += 1
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
