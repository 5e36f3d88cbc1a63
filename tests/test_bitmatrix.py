from functools import reduce
from operator import xor

import pytest
from hypothesis import given, settings, strategies as st

from burstcover.bitmatrix import BinaryMatrix, row_reduce


def from_rows(masks, cols):
    """The matrix whose row i is masks[i], bit j = column j."""
    return BinaryMatrix(len(masks), cols, tuple(sum((m >> j & 1) << i for i, m in enumerate(masks))
                                                for j in range(cols)))


def preimages(images: list[int]) -> list[int]:
    """u_j with A u_j = e_j, for the invertible A whose column j is images[j]."""
    r = len(images)
    # reduce [A^T | I] to [I | (A^-1)^T]: row j is column j of A^-1
    reduced, pivots = row_reduce([a | 1 << (r + j) for j, a in enumerate(images)], r)
    if len(pivots) < r:
        raise ValueError("singular system")
    return [row >> r for row in reduced]


def row_masks(M):
    """The rows of M as masks, bit j = column j."""
    return tuple(sum((c >> i & 1) << j for j, c in enumerate(M.columns)) for i in range(M.rows))


@st.composite
def matrices(draw, max_rows=8, max_cols=10):
    rows = draw(st.integers(min_value=1, max_value=max_rows))
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    masks = draw(st.lists(st.integers(min_value=0, max_value=(1 << cols) - 1),
                          min_size=rows, max_size=rows))
    return from_rows(masks, cols)


def _mul_vec(M, v):
    """M v over GF(2); bit i of the result is the parity of row i & v."""
    return sum(((m & v).bit_count() & 1) << i for i, m in enumerate(row_masks(M)))


@given(matrices())
@settings(max_examples=80, deadline=None)
def test_rank_nullity_and_kernel(M):
    # the kernel, counted by brute force over all 2^cols vectors
    kernel = sum(1 for v in range(1 << M.cols) if _mul_vec(M, v) == 0)
    assert kernel == 1 << (M.cols - M.rank())


@given(matrices(max_rows=8, max_cols=8), st.integers(min_value=0, max_value=255))
@settings(max_examples=80, deadline=None)
def test_solve_and_invert_square_systems(M, x):
    r = M.rows
    A = from_rows([m & ((1 << r) - 1) for m in row_masks(M)], r)
    x &= (1 << r) - 1
    if A.rank() < r:
        with pytest.raises(ValueError, match="singular system"):
            preimages(A.columns)
        return
    u = preimages(A.columns)
    assert all(_mul_vec(A, u[j]) == 1 << j for j in range(r))
    b = _mul_vec(A, x)
    # A x = b solved as x = A^-1 b, the sum of the preimages of b's bits
    assert reduce(xor, (u[j] for j in range(r) if b >> j & 1), 0) == x
