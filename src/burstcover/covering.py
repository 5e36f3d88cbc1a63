"""Window-combination certificates for cyclic codes.

Given a syndrome x, solve for the unique load f with deg(f) < r whose
window combination at position 0 equals x (the first r parity columns
are a basis), then slide f through its orbit with f -> X*f mod g until
its degree drops below the requested window width b'.  After t steps
the combination that reproduces x starts at -t mod n.

The per-code linear solve is cached as an inverted basis matrix, so a
query costs one r-bit matrix-vector product plus at most ord(g) <= n
shift steps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .bitmatrix import BinaryMatrix, row_reduce
from .codes import CyclicCode, lc_eval, parity_check_matrix
from .gf2poly import shift_mod, to_hex


class ThresholdError(RuntimeError):
    """Raised when the requested window width is below the actual radius."""


@dataclass(frozen=True)
class CoveringCertificate:
    i: int            # window start
    f: int            # combination pattern, f(0) = 1 unless f = 0
    width: int        # deg(f) + 1, or 0 for the zero pattern
    iterations: int   # shift steps taken

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "f_hex": to_hex(self.f),
            "width": self.width,
            "iterations": self.iterations,
        }


def _invert_leading_block(H: BinaryMatrix) -> list[int]:
    """Rows of the inverse of the block of the first H.rows columns."""
    r = H.rows
    low = (1 << r) - 1
    # reduce [A | I] to [I | A^-1]
    reduced, pivots = row_reduce(
        [(m & low) | 1 << (r + i) for i, m in enumerate(H.row_masks)], r)
    if len(pivots) < r:
        raise ValueError("singular system")
    return [row >> r for row in reduced]


class CoverSolver:
    """Per-code precomputation answering burst-cover queries."""

    def __init__(self, code: CyclicCode):
        self.code = code
        self.inv_rows = _invert_leading_block(parity_check_matrix(code))

    def solve_basis(self, x: int) -> int:
        """The load f, deg(f) < r, whose window at 0 evaluates to x."""
        f = 0
        for i, row in enumerate(self.inv_rows):
            if (row & x).bit_count() & 1:
                f |= 1 << i
        return f

    def cover(self, x: int, b_prime: int) -> CoveringCertificate:
        code = self.code
        if not 0 <= x < (1 << code.r):
            raise ValueError(f"syndrome must have {code.r} bits")
        if b_prime < 1:
            raise ValueError("window width must be >= 1")
        f = self.solve_basis(x)
        t = 0
        limit = 1 << b_prime  # deg(f) < b' iff f < 2^b'
        while f >= limit:
            f = shift_mod(f, code.g)
            t += 1
            if t > code.n:
                raise ThresholdError("threshold below radius")
        i = -t % code.n
        if f:
            # normalize so the window starts at a nonzero coefficient
            v = (f & -f).bit_length() - 1
            f >>= v
            i = (i + v) % code.n
            width = f.bit_length()
        else:
            width = 0
        return CoveringCertificate(i=i, f=f, width=width, iterations=t)


@functools.lru_cache(maxsize=None)
def get_solver(code: CyclicCode) -> CoverSolver:
    return CoverSolver(code)


def burst_cover(code: CyclicCode, x: int, b_prime: int) -> CoveringCertificate:
    """A window combination of width <= b_prime whose syndrome is x.

    b_prime must be at least the burst-covering radius for every
    syndrome to be reachable; the iteration guard reports when it is
    not, instead of looping forever.
    """
    return get_solver(code).cover(x, b_prime)


def verify_certificate(code: CyclicCode, x: int, cert: CoveringCertificate,
                       b_prime: int) -> bool:
    """Recompute the combination and the width constraints."""
    if not 0 <= cert.i < code.n:
        return False
    expected_width = cert.f.bit_length()
    if cert.width != expected_width:
        return False
    if cert.f and not cert.f & 1:
        return False
    if cert.width > b_prime:
        return False
    return lc_eval(code, cert.i, cert.f) == x
