"""Exact linear algebra over prime fields.

One sparse engine does the cochain reductions: ``rank_sparse_modp`` reads
the rows of a matrix from an iterable, one at a time, and reduces each
against one pivot row per leading (largest) column as it arrives, with
``reduce_modp``, the one reduce loop.  Rows are Python ``int`` bitsets at
p = 2 and ``{col: value}`` dicts at odd p, so neither the whole matrix nor
anything dense is allocated.  The pivots come back keyed by leading column:
a cochain reduction skips the rows they show to be dependent in the next
matrix (clearing), and ``cohomology`` reads its cocycles off them.

The dense eliminator (``row_echelon_modp``, ``nullspace_modp``) serves the
small F-stability systems of ``catlimits.stable_subspace_dim`` and the
tests as a reference.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

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


def rank_sparse_modp(nrows: int, ncols: int, rows: Iterable[Row], p: int) -> Dict[int, Row]:
    """Pivots of the nrows x ncols matrix over F_p whose rows ``rows``
    yields, keyed by leading (largest) column, where their coefficient is 1;
    their count is its rank.  A row is an ``int`` bitset (bit j for column j)
    at p = 2 and a ``{col: value}`` dict of values nonzero mod p at odd p.
    A column leads a pivot exactly when some combination of the rows has it
    as its largest; at most min(nrows, ncols) pivots are ever held."""
    pivots: Dict[int, Row] = {}
    for row in rows if nrows and ncols else ():
        row = reduce_modp(row, pivots, p)
        if row and p == 2:
            pivots[row.bit_length() - 1] = row
        elif row:
            inv = pow(row[max(row)], -1, p)
            pivots[max(row)] = {j: v * inv % p for j, v in row.items()}
    return pivots


def reduce_modp(row: Row, pivots: Dict[int, Row], p: int,
                factors: Optional[Dict[int, int]] = None) -> Row:
    """Subtract pivots (keyed by lead, coefficient 1 there) from ``row``, in
    place at odd p, until its lead leads none; the rest is 0 or {} exactly
    when it lies in their span.  ``factors`` gets each multiple, by lead."""
    while row:
        lead = row.bit_length() - 1 if p == 2 else max(row)
        piv = pivots.get(lead)
        if piv is None:
            break
        f = 1 if p == 2 else row[lead]
        if factors is not None:
            factors[lead] = f
        if p == 2:
            row ^= piv
            continue
        for j, v in piv.items():
            w = (row.get(j, 0) - f * v) % p
            if w:
                row[j] = w
            else:
                del row[j]
    return row
