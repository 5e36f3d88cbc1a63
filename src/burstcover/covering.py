"""Window-combination certificates for cyclic codes.

Given a syndrome x, solve for the unique load f with deg(f) < r whose
window combination at position 0 equals x (the first r parity columns
are a basis).  Sliding f through its orbit with f -> X*f mod g moves
the window: after t steps the combination that reproduces x starts at
-t mod n.  A certificate takes the least t at which deg(X^t f mod g)
drops below the requested width b'; `iterations` is that t.

The least t is found without stepping.  The dual sequence of f, s_k =
the top coefficient of X^k f mod g, is sum_i Tr(f(beta_i)/g'(beta_i)
beta_i^k) over a root beta_i of each factor (Lidl and Niederreiter,
Finite Fields, ch. 8), and deg(X^t f mod g) < b' holds exactly when
s_t .. s_(t+r-b'-1) are all zero.  So t is the lowest start of a run of
r - b' zeros, read off the complement of the sequence after
ceil(log2(r - b')) doubling ANDs, whose shifts each solver lists once per
run length.  Per code, the map from a syndrome (block i is f(beta_i)) to
the sequence of its load and the map from r sequence bits back to the
load that emits them are cached as 4-bit chunk XOR tables, so a query
costs about r/2 table lookups, those ANDs and one lowest-bit read on
(n + r)-bit integers, however large t is.  Byte chunks would halve the
lookups but hold 32r rather than 4r integers of n + r bits: 38 MB
instead of 4.7 MB at COVER_MAX_N.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .codes import CyclicCode, lc_eval
from .field import trace_table
from .gf2poly import derivative, to_hex
from .radius import BudgetError

# Length limit of the cover tables.  Their set-up is O(r*n) numpy gathers:
# on 2 vCPUs (Python 3.11, numpy 2.4) 0.03 s for BCH(2,18), n = 2^18 - 1, and
# 0.5 s for the whole `cover` process.  The syndrome tables then hold 4r
# integers of n + r bits, 4.7 MB.
COVER_MAX_N = 1 << 18


class ThresholdError(RuntimeError):
    """Raised when the requested window width is below the actual radius."""


@dataclass(frozen=True, slots=True)
class CoveringCertificate:
    i: int            # window start
    f: int            # combination pattern, f(0) = 1 unless f = 0
    width: int        # deg(f) + 1, or 0 for the zero pattern
    iterations: int   # shift steps X*f mod g from the solved load

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "f_hex": to_hex(self.f),
            "width": self.width,
            "iterations": self.iterations,
        }


def _chunk_tables(images: list[int]) -> list[list[int]]:
    """XOR tables, one per 4-bit chunk, of the linear map sending bit j to images[j]."""
    tables = []
    for c in range(0, len(images), 4):
        table = [0]
        for a in images[c:c + 4]:
            table += [v ^ a for v in table]
        tables.append(table)
    return tables


def check_cover_length(n: int) -> None:
    """Refuse a code longer than COVER_MAX_N before its tables are built."""
    if n > COVER_MAX_N:
        raise BudgetError(f"cover tables over n = {n} columns exceed cover_max_n={COVER_MAX_N}")


def _and_schedule(length: int) -> tuple[int, ...]:
    """The shifts s of `z &= z >> s` that leave bit t set iff bits t .. t+length-1 all were.

    After the shifts taken so far every set bit heads a run of k ones; the
    next shift min(k, length - k) extends k towards length by doubling, so
    ceil(log2 length) shifts reach it.
    """
    steps = []
    k = 1
    while k < length:
        steps.append(min(k, length - k))
        k += steps[-1]
    return tuple(steps)


def _apply(tables: list[list[int]], v: int) -> int:
    out = 0
    for table in tables:
        out ^= table[v & 15]
        v >>= 4
    return out


class CoverSolver:
    """Per-code chunk tables answering burst-cover queries."""

    def __init__(self, code: CyclicCode):
        self.code = code
        n, r = code.n, code.r
        check_cover_length(n)
        # Block i of load f's syndrome is f(beta_i), beta_i = X^(t_i), so its
        # bit j gives the sequence Tr(X^(j + c) beta_i^k), c = -log g'(beta_i),
        # over n + r terms: no zero run or r-bit window starting below n wraps.
        k = np.arange(n + r, dtype=np.int64)
        runs = []
        for fac in code.factors:
            ctx, table = fac.ctx, trace_table(fac.ctx)
            steps = fac.t * k % ctx.n
            c = -ctx.dlog(ctx.evaluate(derivative(code.g), ctx.alpha_pow(fac.t)))
            for j in range(fac.degree):
                bits = np.packbits(table[(j + c) % ctx.n + steps], bitorder="little")
                runs.append(int.from_bytes(bits.tobytes(), "little"))
        self._run_of_syndrome = _chunk_tables(runs)
        # window bit j is term s_j, emitted by the load g >> (j + 1) (fibonacci_to_galois)
        self._load_of_window = _chunk_tables([code.g >> (j + 1) for j in range(r)])
        self._ones = (1 << (n + r)) - 1
        self._low = (1 << r) - 1
        self._steps = [_and_schedule(length) for length in range(r + 1)]

    def cover(self, x: int, b_prime: int) -> CoveringCertificate:
        code = self.code
        if not 0 <= x <= self._low:
            raise ValueError(f"syndrome must have {code.r} bits")
        if b_prime < 1:
            raise ValueError("window width must be >= 1")
        seq = _apply(self._run_of_syndrome, x)
        # deg(X^t f mod g) < b' iff s_t .. s_(t+L-1) are all zero, L = r - b'
        length = code.r - b_prime
        t = 0
        if length > 0:
            zeros = seq ^ self._ones
            for step in self._steps[length]:
                zeros &= zeros >> step
            # a run starting at n or above repeats one starting at 0..r-1
            if not zeros:
                raise ThresholdError("threshold below radius")
            t = (zeros & -zeros).bit_length() - 1
        f = _apply(self._load_of_window, seq >> t & self._low)
        n = code.n
        i = -t % n
        if f:
            # normalize so the window starts at a nonzero coefficient
            v = (f & -f).bit_length() - 1
            f >>= v
            i = (i + v) % n
        return CoveringCertificate(i, f, f.bit_length(), t)


@functools.lru_cache(maxsize=None)
def get_solver(code: CyclicCode) -> CoverSolver:
    return CoverSolver(code)


def burst_cover(code: CyclicCode, x: int, b_prime: int) -> CoveringCertificate:
    """A window combination of width <= b_prime whose syndrome is x.

    b_prime must be at least the burst-covering radius for every
    syndrome to be reachable; ThresholdError reports a syndrome that no
    window of width b_prime reaches.
    """
    return get_solver(code).cover(x, b_prime)


def verify_certificate(code: CyclicCode, x: int, cert: CoveringCertificate,
                       b_prime: int) -> bool:
    """Recompute the combination and the width constraints."""
    if not 0 <= cert.i < code.n or cert.f < 0:
        return False
    expected_width = cert.f.bit_length()
    if cert.width != expected_width:
        return False
    if cert.f and not cert.f & 1:
        return False
    if cert.width > b_prime:
        return False
    return lc_eval(code, cert.i, cert.f) == x
