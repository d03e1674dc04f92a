"""Exact linear algebra over prime fields.

Two engines: a dense mod-p eliminator on small numpy matrices, and a sparse
pivot-insertion rank for the cochain-complex differentials (tens of
thousands of columns, well under one percent nonzero) produced by the
higher-limit computations.  The sparse rank keeps one pivot row per leading
column and reduces each new row against them; rows are Python ``int``
bitsets at p = 2 and ``{col: value}`` dicts at odd p, so nothing dense is
ever allocated.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np


def _as_modp(A: np.ndarray, p: int) -> np.ndarray:
    M = np.array(A, dtype=np.int64, copy=True)
    np.mod(M, p, out=M)
    return M


def row_echelon_modp(A: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Row-reduce a copy of A mod p (vectorized); returns (RREF, pivot cols)."""
    M = _as_modp(A, p)
    rows, cols = M.shape
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = M[r:, c]
        hits = np.nonzero(col)[0]
        if hits.size == 0:
            continue
        piv = r + int(hits[0])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        inv = pow(int(M[r, c]), -1, p)
        if inv != 1:
            M[r] = (M[r] * inv) % p
        mask = M[:, c].copy()
        mask[r] = 0
        touched = np.nonzero(mask)[0]
        if touched.size:
            M[touched] = (M[touched] - np.outer(mask[touched], M[r])) % p
        pivots.append(c)
        r += 1
    return M, pivots


def nullspace_modp(A: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right nullspace, rows of the returned matrix."""
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    rows, cols = A.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    M, pivots = row_echelon_modp(A, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-int(M[r, fc])) % p
    return basis


def rank_sparse_modp(nrows: int, ncols: int,
                     entries: Iterable[Tuple[int, int, int]], p: int) -> int:
    """Rank over F_p of a sparse integer matrix given by (row, col, value).

    Indices and values are Python ints (a numpy index would overflow the
    bit shift at p = 2); values at a repeated coordinate add up mod p.  The
    matrix is read as its transpose when that has fewer rows (rank is
    invariant under transpose), so at most min(nrows, ncols) rows are held.
    """
    if nrows == 0 or ncols == 0:
        return 0
    swap = nrows > ncols
    if p == 2:
        return _rank_gf2(entries, swap)
    return _rank_odd(entries, swap, p)


def _rank_gf2(entries: Iterable[Tuple[int, int, int]], swap: bool) -> int:
    # a row is an int with bit j set for column j, so a repeated
    # coordinate cancels by XOR and the leading column is bit_length()
    rows: Dict[int, int] = {}
    get = rows.get
    for i, j, v in entries:
        if v & 1:
            if swap:
                i, j = j, i
            rows[i] = get(i, 0) ^ (1 << j)
    pivots: Dict[int, int] = {}
    for i in list(rows):
        row = rows.pop(i)  # input rows are freed as pivots accumulate
        while row:
            lead = row.bit_length()
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = row
                break
            row ^= piv
    return len(pivots)


def _rank_odd(entries: Iterable[Tuple[int, int, int]], swap: bool,
              p: int) -> int:
    # a row is {col: nonzero value}; pivot rows are scaled so that the
    # coefficient at their leading (largest) column is 1
    rows: Dict[int, Dict[int, int]] = {}
    for i, j, v in entries:
        if swap:
            i, j = j, i
        row = rows.setdefault(i, {})
        v = (row.get(j, 0) + v) % p
        if v:
            row[j] = v
        else:
            row.pop(j, None)
    pivots: Dict[int, Dict[int, int]] = {}
    for i in list(rows):
        row = rows.pop(i)  # input rows are freed as pivots accumulate
        while row:
            lead = max(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(row[lead], -1, p)
                pivots[lead] = {j: v * inv % p for j, v in row.items()}
                break
            f = row[lead]
            for j, v in piv.items():
                w = (row.get(j, 0) - f * v) % p
                if w:
                    row[j] = w
                else:
                    del row[j]
    return len(pivots)
