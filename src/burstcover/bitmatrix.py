"""Dense bit matrices with rows packed into ints (bit j = column j)."""

from __future__ import annotations

from dataclasses import dataclass


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
    row_masks: tuple[int, ...]

    def __post_init__(self):
        if len(self.row_masks) != self.rows:
            raise ValueError("row count mismatch")
        if any(m >> self.cols for m in self.row_masks):
            raise ValueError("row mask wider than the column count")

    def column(self, j: int) -> int:
        c = 0
        for i, m in enumerate(self.row_masks):
            c |= (m >> j & 1) << i
        return c

    def columns(self) -> list[int]:
        return [self.column(j) for j in range(self.cols)]

    def rank(self) -> int:
        return len(row_reduce(self.row_masks, self.cols)[1])

    def hex_rows(self) -> list[str]:
        """One hex string per row; bit j of the mask is column j."""
        return ["0x" + format(m, "X") for m in self.row_masks]

