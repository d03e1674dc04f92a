"""Exact linear algebra over prime fields.

Two engines: a dense mod-p eliminator on small numpy matrices, and a sparse
pivot-insertion rank for the cochain-complex differentials (tens of
thousands of columns, well under one percent nonzero) produced by the
higher-limit computations.

The dense eliminator reduces a uint8 copy at p = 2, where adding a pivot
row is an XOR, and an int64 copy at odd p.

The sparse rank reads the rows of a matrix from an iterable, one at a time,
and reduces each against one pivot row per leading (largest) column as it
arrives; rows are Python ``int`` bitsets at p = 2 and ``{col: value}``
dicts at odd p, so neither the whole matrix nor anything dense is ever
allocated.  It returns the leading columns of its pivots, so that a caller
can skip the rows those pivots show to be dependent in a later matrix
(``catlimits.higher_limits`` does, to clear cochain differentials).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple, Union

import numpy as np

Row = Union[int, Dict[int, int]]


def row_echelon_modp(A: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Row-reduce a copy of A mod p (vectorized); returns (RREF, pivot cols).

    The copy is uint8 at p = 2, where adding a pivot row is an XOR, and
    int64 at odd p.  A matrix has one RREF, so the dtype is the only
    difference the GF(2) path makes.
    """
    # the cast to uint8 wraps mod 256, which keeps every entry's parity
    M = np.asarray(A).astype(np.uint8 if p == 2 else np.int64, order="C")
    np.mod(M, p, out=M)
    rows, cols = M.shape
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.flatnonzero(M[r:, c])
        if hits.size == 0:
            continue
        piv = r + int(hits[0])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        inv = pow(int(M[r, c]), -1, p)
        if inv != 1:
            M[r] = (M[r] * inv) % p
        touched = np.flatnonzero(M[:, c])
        touched = touched[touched != r]
        if touched.size and p == 2:
            M[touched] ^= M[r]
        elif touched.size:
            M[touched] = (M[touched] - np.outer(M[touched, c], M[r])) % p
        pivots.append(c)
        r += 1
    return M, pivots


def nullspace_modp(A: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right nullspace, rows of the returned matrix."""
    A = np.atleast_2d(np.asarray(A))
    cols = A.shape[1]
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    M, pivots = row_echelon_modp(A, p)
    free = sorted(set(range(cols)) - set(pivots))
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-M[:len(pivots)][:, free].astype(np.int64).T) % p
    return basis


def rank_sparse_modp(nrows: int, ncols: int, rows: Iterable[Row], p: int) -> Set[int]:
    """Leading columns of the pivots of the nrows x ncols matrix over F_p
    whose rows ``rows`` yields; their count is its rank.

    A row is an ``int`` bitset at p = 2 (bit j set for a 1 in column j) and
    a ``{col: value}`` dict with values nonzero mod p at odd p.  Rows are
    reduced one at a time as they arrive, so only the pivots (at most
    min(nrows, ncols) of them) are held.  A pivot's leading column is its
    largest, and the pivots span the rows: a column is a leading column
    exactly when some combination of the rows has it as its largest.
    """
    if nrows == 0 or ncols == 0:
        return set()
    if p == 2:
        return _rank_gf2(rows)
    return _rank_odd(rows, p)


def _rank_gf2(rows: Iterable[int]) -> Set[int]:
    # pivots are keyed by bit_length(), one more than the leading column
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
    return {lead - 1 for lead in pivots}


def _rank_odd(rows: Iterable[Dict[int, int]], p: int) -> Set[int]:
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
    return set(pivots)
