"""Dense bit matrices stored as their columns, packed into ints (bit i = row i).

Also the numpy blocks of the brute-force oracles: _closure enumerates the
span of some columns by doubling, and _row_blocks cuts a (rows x width)
array of work into blocks of at most _ORACLE_CELLS cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def row_reduce(rows, ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row-echelon form over GF(2) and its pivot columns.

    Rows are ints with bit j = column j.  Pivots are sought only in
    columns < ncols; bits at or above ncols ride along as an augmented
    block, so [A | B] reduces to [rref(A) | T*B] for the row operations
    T that reduce A.  Row i < len(pivots) of the result has its leading
    one in column pivots[i]; the remaining rows are zero below ncols.
    """
    rows = list(rows)
    pivots = []
    for col in range(ncols):
        bit = 1 << col
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(rows)) if rows[i] & bit), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pivot_row = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & bit:
                rows[i] ^= pivot_row
        pivots.append(col)
    return rows, pivots


@dataclass(frozen=True)
class BinaryMatrix:
    rows: int
    cols: int
    columns: tuple[int, ...]

    def __post_init__(self):
        if len(self.columns) != self.cols:
            raise ValueError("column count mismatch")
        if any(c >> self.rows for c in self.columns):
            raise ValueError("column mask wider than the row count")

    def rank(self) -> int:
        # the columns are the rows of H^T, and rank(H^T) = rank(H)
        return len(row_reduce(self.columns, self.rows)[1])

    def hex_rows(self) -> list[str]:
        """One hex string per row; bit j of the row's mask is column j."""
        width = (self.rows + 7) // 8
        packed = b"".join(c.to_bytes(width, "little") for c in self.columns)
        bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8).reshape(self.cols, width),
                             axis=1, bitorder="little")
        rows = np.packbits(bits[:, :self.rows].T, axis=1, bitorder="little")
        return ["0x" + format(int.from_bytes(row.tobytes(), "little"), "X") for row in rows]


def _closure(cols) -> np.ndarray:
    """All XOR combinations of the given columns, by doubling.

    k columns give 2^k values, entry u the XOR of the columns at the set
    bits of u; a (rows, k) array gives one such row per row of columns.
    """
    cols = np.asarray(cols, dtype=np.int64)
    arr = np.zeros(cols.shape[:-1] + (1 << cols.shape[-1],), dtype=np.int64)
    combos = arr.T  # combos[u] holds combination u of every row
    for k, c in enumerate(cols.T):
        np.bitwise_xor(combos[:1 << k], c, out=combos[1 << k:2 << k])
    return arr


# Cells per numpy block of the verification oracles: window closures of
# the matrix method, codeword x pattern marks of the geometric one,
# Laurent draws x field elements, and orbit representatives x
# max(window, 2^s) of the pattern census.
_ORACLE_CELLS = 1 << 14


def _row_blocks(rows: int, width: int):
    """Slices of range(rows), each of at most _ORACLE_CELLS cells of `width`
    (one row when a row alone is wider)."""
    step = max(1, _ORACLE_CELLS // width)
    return (slice(i, min(i + step, rows)) for i in range(0, rows, step))
