"""The dense eliminator against sympy, and the sparse F_p rank against the
dense eliminator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from locus.linalg import rank_sparse_modp, reduce_modp, row_echelon_modp


def rows_of(nrows, entries, p):
    """The rows of the matrix with entries (i, j, v), in the representation
    ``rank_sparse_modp`` reads: values at a repeated coordinate add up mod
    p; at p = 2 a row is an int with bit j set, at odd p a dict of the
    nonzero values.  Yielded one at a time, as a stream."""
    rows = [0 if p == 2 else {} for _ in range(nrows)]
    for i, j, v in entries:
        if p == 2:
            rows[i] ^= (v & 1) << j
        elif (w := (rows[i].get(j, 0) + v) % p):
            rows[i][j] = w
        else:
            rows[i].pop(j, None)
    return (row for row in rows)


def sparse_rank(nrows, ncols, entries, p):
    """The rank: the number of pivot leads ``rank_sparse_modp`` returns."""
    return len(rank_sparse_modp(nrows, ncols, rows_of(nrows, entries, p), p))


def dense_rank(nrows, ncols, entries, p):
    A = np.zeros((nrows, ncols), dtype=np.int64)
    for i, j, v in entries:
        A[i, j] += v
    return len(row_echelon_modp(A, p)[1])


@st.composite
def sparse_matrices(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nrows = draw(st.integers(0, 14))
    ncols = draw(st.integers(0, 14))
    if nrows == 0 or ncols == 0:
        return p, nrows, ncols, []
    entry = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1),
                      st.integers(-2 * p, 2 * p))  # includes values 0 mod p
    entries = draw(st.lists(entry, max_size=3 * max(nrows, ncols)))
    # repeat some coordinates with fresh values: they must add up mod p
    for i, j, _ in draw(st.lists(st.sampled_from(entries), max_size=8)
                        if entries else st.just([])):
        entries.append((i, j, draw(st.integers(-2 * p, 2 * p))))
    return p, nrows, ncols, draw(st.permutations(entries))


@settings(max_examples=400, deadline=None)
@given(sparse_matrices())
def test_sparse_rank_matches_dense(case):
    p, nrows, ncols, entries = case
    assert sparse_rank(nrows, ncols, entries, p) == \
        dense_rank(nrows, ncols, entries, p)


def dense_row(row, ncols, p):
    if p == 2:
        return np.array([row >> j & 1 for j in range(ncols)], dtype=np.int64)
    v = np.zeros(ncols, dtype=np.int64)
    v[list(row)] = list(row.values())
    return v


@settings(max_examples=300, deadline=None)
@given(sparse_matrices())
def test_pivots_are_keyed_by_lead_and_rebuild_every_row(case):
    # each pivot has coefficient 1 at its key, its largest column, and every
    # row is the combination of pivots that reduce_modp reports subtracting
    p, nrows, ncols, entries = case
    rows = list(rows_of(nrows, entries, p))
    copies = [row if p == 2 else dict(row) for row in rows]  # reduced in place at odd p
    pivots = rank_sparse_modp(nrows, ncols, iter(copies), p)
    for lead, piv in pivots.items():
        assert lead == (piv.bit_length() - 1 if p == 2 else max(piv))
        assert p == 2 or piv[lead] == 1
    for row in rows:
        factors = {}
        assert not reduce_modp(row if p == 2 else dict(row), pivots, p, factors)
        rebuilt = sum((f * dense_row(pivots[lead], ncols, p) for lead, f in factors.items()),
                      np.zeros(ncols, dtype=np.int64))
        assert np.array_equal(rebuilt % p, dense_row(row, ncols, p))


@pytest.mark.parametrize("p, entries, rank", [
    (2, [(0, 0, 1), (0, 0, 1)], 0),            # cancel by XOR
    (2, [(0, 0, 1), (0, 0, 1), (0, 0, -1)], 1),
    (3, [(0, 0, 1), (0, 0, 2)], 0),            # sum to 0 mod 3
    (3, [(0, 0, 1), (0, 0, 1)], 1),
    (5, [(0, 0, 5), (1, 1, -10)], 0),          # values 0 mod p
    (2, [(0, 0, 2), (1, 1, 3)], 1),
])
def test_repeated_and_zero_entries(p, entries, rank):
    assert sparse_rank(2, 2, entries, p) == rank


@pytest.mark.parametrize("nrows, ncols", [(0, 0), (0, 4), (4, 0), (3, 3)])
@pytest.mark.parametrize("p", [2, 3])
def test_empty(nrows, ncols, p):
    assert sparse_rank(nrows, ncols, [], p) == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_transpose_invariant(p):
    # rows (i, 1, i + 1): the third column is the sum of the other two
    entries = [e for i in range(7) for e in ((i, 0, i), (i, 1, 1), (i, 2, i + 1))]
    tall = sparse_rank(7, 3, entries, p)
    wide = sparse_rank(3, 7, [(j, i, v) for i, j, v in entries], p)
    assert tall == wide == dense_rank(7, 3, entries, p) == 2


@st.composite
def dense_matrices(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    nrows, ncols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    values = draw(st.lists(st.integers(-2 * p, 2 * p), min_size=nrows * ncols,
                           max_size=nrows * ncols))
    return p, np.array(values, dtype=np.int64).reshape(nrows, ncols)


@settings(max_examples=400, deadline=None)
@given(dense_matrices())
def test_row_echelon_matches_sympy_rref(case):
    p, A = case
    K = GF(p)
    rref, pivots = DomainMatrix([[K(int(v)) for v in row] for row in A], A.shape, K).rref()
    before = A.copy()
    M, ours = row_echelon_modp(A, p)
    assert np.array_equal(A, before)  # reduces a copy
    assert M.dtype == (np.uint8 if p == 2 else np.int64)
    assert ours == list(pivots)
    assert M.tolist() == [[int(x) % p for x in row] for row in rref.to_list()]


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64])
def test_gf2_echelon_reads_parity_of_any_integer_dtype(dtype):
    A = np.array([[3, -1, 2], [1, 1, 4], [-2, 5, 7]]).astype(dtype)
    M, pivots = row_echelon_modp(A, 2)
    assert pivots == [0, 1] and M.tolist() == [[1, 0, 1], [0, 1, 1], [0, 0, 0]]
