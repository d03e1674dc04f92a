"""Exact linear algebra over prime fields.

Two engines: a dense mod-p eliminator on small numpy matrices, and a sparse
pivot-insertion rank for the cochain-complex differentials (tens of
thousands of columns, well under one percent nonzero) produced by the
higher-limit computations.  The sparse rank reads the rows of a matrix from
an iterable, one at a time, and reduces each against one pivot row per
leading column as it arrives; rows are Python ``int`` bitsets at p = 2 and
``{col: value}`` dicts at odd p, so neither the whole matrix nor anything
dense is ever allocated.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple, Union

import numpy as np

Row = Union[int, Dict[int, int]]


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


def rank_sparse_modp(nrows: int, ncols: int, rows: Iterable[Row], p: int) -> int:
    """Rank over F_p of the nrows x ncols matrix whose rows ``rows`` yields.

    A row is an ``int`` bitset at p = 2 (bit j set for a 1 in column j) and
    a ``{col: value}`` dict with values nonzero mod p at odd p.  Rows are
    reduced one at a time as they arrive, so only the pivots (at most
    min(nrows, ncols) of them) are held.
    """
    if nrows == 0 or ncols == 0:
        return 0
    if p == 2:
        return _rank_gf2(rows)
    return _rank_odd(rows, p)


def _rank_gf2(rows: Iterable[int]) -> int:
    # the leading column of a row is its bit_length()
    pivots: Dict[int, int] = {}
    get = pivots.get
    for row in rows:
        while row:
            lead = row.bit_length()
            piv = get(lead)
            if piv is None:
                pivots[lead] = row
                break
            row ^= piv
    return len(pivots)


def _rank_odd(rows: Iterable[Dict[int, int]], p: int) -> int:
    # pivot rows are scaled so that the coefficient at their leading
    # (largest) column is 1
    pivots: Dict[int, Dict[int, int]] = {}
    for row in rows:
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
