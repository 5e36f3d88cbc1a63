"""Burst-covering radius: exact computation and every implemented bound.

Three independent methods compute the radius:

* orbit: the burst ball modulo shifts.  b is the least width such that
  every orbit of nonzero residues under f -> X*f mod g holds a residue
  of degree < b, the syndrome of a burst at position 0: b is the bit
  length of the largest orbit minimum.  The minima come from
  lfsr.orbit_minima, which reads only the odd residues (every nonzero
  minimum is odd), from 0 up in numpy blocks that grow shell by shell of
  bit length, and stops below 2^b: about 2^(b-1) residues, not 2^r.  It
  is budgeted by a proven upper bound u >= b.
* matrix: mark every syndrome reachable as a combination within a
  window of b consecutive columns, growing b until the space is full.
* geometric: exhaust F_2^n and test membership in some burst ball
  around some codeword (small n only).

The bounds report evaluates counting bounds, the basic cyclic sandwich,
the non-primitive-factor improvement, the zero-run-guarantee upper
bound (minimized over factor subsets), the exact two-primitive-factor
value, and the BCH/Melas-specific bounds.  Real-valued upper bounds are
floored with exact integer arithmetic (no floating point in verdicts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitmatrix import BinaryMatrix, _closure, _row_blocks
from .codes import CyclicCode, codewords
from .gf2poly import to_hex, to_terms
from .lfsr import orbit_minima, orbit_minimum


# 2^MAX_R is the most entries a table method reads or holds.  The matrix
# method holds one byte per syndrome and the pattern census counts at
# least 2^r - 1 cells, so both take r <= MAX_R.  The orbit method reads
# about the 2^(b-1) odd residues below 2^b and holds one int32 minimum per
# orbit, each a distinct residue below 2^b, so it takes any code whose
# least proven upper bound u >= b is at most MAX_R.  lfsr-stats shares it.
MAX_R = 26

# Work limits of the brute-force methods: window combinations marked by the
# matrix method; length n and codeword x pattern pairs of the geometric one.
MATRIX_MAX_WORK = 1 << 28
GEOMETRIC_MAX_N = 20
GEOMETRIC_MAX_WORK = 1 << 27


class BudgetError(RuntimeError):
    """A computation would exceed its configured budget."""


@dataclass(frozen=True)
class RadiusResult:
    b: int
    method: str               # orbit | matrix | geometric
    witness: int              # orbit representative, or uncovered syndrome
    cyclic: bool
    n: int
    r: int

    def to_json(self) -> dict:
        return {
            "b": self.b,
            "method": self.method,
            "witness_hex": to_hex(self.witness),
            "witness_terms": to_terms(self.witness),
            "cyclic": self.cyclic,
            "n": self.n,
            "r": self.r,
        }


def cyclic_burst_radius(code: CyclicCode) -> RadiusResult:
    """Exact radius of a cyclic code, from the burst ball modulo shifts.

    b is the least width such that every shift orbit of nonzero residues
    holds a residue of degree < b, the syndrome of a burst at position 0:
    the bit length of the largest orbit minimum.  The witness is the least
    orbit minimum of that bit length, the least residue of degree b - 1 on
    an orbit with none lower.

    The work is bounded by u, the least applicable upper or exact bound of
    bounds_report: u <= r (basic_upper), so the report is read only when
    r > MAX_R, and a radius above u is a failed bound, not a budget.
    """
    u, bound = code.r, "basic_upper"
    if code.r > MAX_R:
        u, bound = min((ent.value, ent.name) for ent in bounds_report(code).entries
                       if ent.applicable and ent.kind in ("upper", "exact"))
        if u > MAX_R:
            raise BudgetError(f"orbit method over 2^{u} residues ({bound}) exceeds max_r={MAX_R}")
    minima = orbit_minima(code.r, code.factors)
    b = int(minima[-1]).bit_length()
    if b > u:
        raise AssertionError(f"{bound}: radius {b} above upper bound {u}")
    witness = int(minima[np.searchsorted(minima, 1 << (b - 1))])
    return RadiusResult(b=b, method="orbit", witness=witness, cyclic=True, n=code.n, r=code.r)


def matrix_burst_radius(H: BinaryMatrix, cyclic: bool = True) -> RadiusResult:
    """Smallest b making every syndrome a window-b column combination.

    Brute force over window sizes: for each b the reachable syndromes
    are marked in a bitmap, so the first fully covered level is the
    radius and the smallest syndrome missed at the previous level is
    the witness.  Marks are kept across widths, so width b marks only the
    combinations that use each window's last column; the windows of a
    block of starts are closed together, _ORACLE_CELLS cells at once.
    """
    r, n = H.rows, H.cols
    if r < 1:
        raise ValueError("need at least one parity row")
    if r > MAX_R:
        raise BudgetError(f"syndrome bitmap of 2^{r} entries exceeds max_r={MAX_R}")
    if H.rank() != r:
        raise ValueError("matrix is rank deficient")
    cols = np.array(H.columns, dtype=np.int64)
    full = 1 << r
    covered = np.zeros(full, dtype=bool)
    covered[0] = True
    witness = 1
    b = 0
    work = 0
    while not covered.all():
        witness = int(np.argmin(covered))  # the first uncovered syndrome
        b += 1
        if b > n:
            raise AssertionError("full coverage must occur by b = n")
        starts = n if cyclic else max(1, n - b + 1)
        work += starts << b
        if work > MATRIX_MAX_WORK:
            raise BudgetError(f"window enumeration work {work} exceeds {MATRIX_MAX_WORK}")
        windows = (np.arange(starts)[:, None] + np.arange(b)) % n  # row i: columns i..i+b-1
        for rows in _row_blocks(starts, 1 << (b - 1)):
            w = windows[rows]
            covered[_closure(cols[w[:, :-1]]) ^ cols[w[:, -1:]]] = True
    return RadiusResult(b=b, method="matrix", witness=witness, cyclic=cyclic, n=n, r=r)


def _burst_patterns(n: int, b: int) -> np.ndarray:
    """All n-bit vectors supported in some cyclic window of b < n positions, ascending.

    A nonzero one is a rotation of an odd p < 2^b, its window started at
    a set bit, so there are at most 1 + n * 2^(b-1); they are marked in a
    2^n bitmap, a block of rotations at a time.
    """
    mask = (1 << n) - 1
    odd = np.arange(1, 1 << b, 2, dtype=np.int64)
    shifts = np.arange(n, dtype=np.int64)[:, None]
    marked = np.zeros(1 << n, dtype=bool)
    marked[0] = True
    for rows in _row_blocks(n, max(1, len(odd))):
        i = shifts[rows]
        marked[((odd << i) | (odd >> (n - i))) & mask] = True
    return np.flatnonzero(marked)


def geometric_is_covering(code: CyclicCode, b: int) -> bool:
    """Exhaustive check that burst balls of size b around codewords cover F_2^n.

    The budget is checked before anything is enumerated, on 2^(n-r)
    codewords times 1 + n * 2^(b-1) patterns, a bound on the pattern count
    for every b, exact when 2b <= n.  The cover is marked a block of
    codewords x patterns at a time.
    """
    n = code.n
    if n > GEOMETRIC_MAX_N:
        raise ValueError(f"exhaustive space 2^{n} exceeds max_n={GEOMETRIC_MAX_N}")
    if b >= n:
        return True
    work = (1 << (n - code.r)) * min(1 << n, 1 + (n << b) // 2)
    if work > GEOMETRIC_MAX_WORK:
        raise BudgetError(f"codeword/pattern product {work} exceeds {GEOMETRIC_MAX_WORK}")
    cw = codewords(code)
    pats = _burst_patterns(n, b)
    covered = np.zeros(1 << n, dtype=bool)
    for rows in _row_blocks(len(cw), len(pats)):
        covered[cw[rows, None] ^ pats] = True
    return bool(covered.all())


# ---------------------------------------------------------------------------
# bounds

def _ceil_log2(x: int) -> int:
    return (x - 1).bit_length()


def _floor_plus_half_log(p: int, base: int) -> int:
    """floor(p/2 + log2(base)) for integers p >= 0, base >= 1, exactly."""
    t = base * base << p
    return (t.bit_length() - 1) // 2


@dataclass(frozen=True)
class BoundEntry:
    name: str
    kind: str                 # lower | upper | exact
    value: int
    applicable: bool
    raw: float | None = None
    assumes_b_at_least: int = 1
    note: str = ""

    def to_json(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class BoundsReport:
    code: str
    n: int
    r: int
    entries: tuple[BoundEntry, ...]

    def entry(self, name: str) -> BoundEntry:
        for ent in self.entries:
            if ent.name == name:
                return ent
        raise KeyError(name)

    def validate(self, b: int) -> list[str]:
        """Messages for every applicable bound the radius b violates."""
        out = []
        for ent in self.entries:
            if not ent.applicable or b < ent.assumes_b_at_least:
                continue
            if ent.kind == "lower" and b < ent.value:
                out.append(f"{ent.name}: radius {b} below lower bound {ent.value}")
            elif ent.kind == "upper" and b > ent.value:
                out.append(f"{ent.name}: radius {b} above upper bound {ent.value}")
            elif ent.kind == "exact" and b != ent.value:
                out.append(f"{ent.name}: radius {b} differs from exact value {ent.value}")
        return out

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "n": self.n,
            "r": self.r,
            "bounds": [ent.to_json() for ent in self.entries],
        }


# The run-guarantee bound minimises over all 2^e - 1 nonempty factor
# subsets; codes with more factors than this skip it.
_MAX_SUBSET_FACTORS = 16


def bounds_report(code: CyclicCode) -> BoundsReport:
    """Evaluate every applicable bound on the burst-covering radius."""
    n, r = code.n, code.r
    degrees = sorted(f.degree for f in code.factors)
    d1 = degrees[0]
    e = len(degrees)
    entries = []

    entries.append(BoundEntry(
        name="basic_lower", kind="lower", value=r - d1 + 1, applicable=True,
        note="window shorter than r - min(d_i) + 1 cannot reach a unit syndrome",
    ))
    entries.append(BoundEntry(
        name="basic_upper", kind="upper", value=r, applicable=True,
        note="the first r columns of the cyclic parity check are independent",
    ))

    entries.append(BoundEntry(
        name="window_counting_lower", kind="lower",
        value=max(1, r + 2 - n.bit_length()), applicable=True,
        assumes_b_at_least=2,
        note="n*2^(b-1) cyclic window combinations must reach 2^r - 1 syndromes",
    ))
    entries.append(BoundEntry(
        name="window_counting_lower_binary", kind="lower",
        value=max(1, r + 2 - (n - 1).bit_length()), applicable=r >= 2,
        assumes_b_at_least=3,
        note="binary refinement: n >= 2^(r-b+1) + 1",
    ))

    orders = [f.order for f in code.factors]
    primitive = [order == f.ctx.n for f, order in zip(code.factors, orders)]
    nonprim_min = any(not prim for f, prim in zip(code.factors, primitive) if f.degree == d1)
    entries.append(BoundEntry(
        name="nonprimitive_lower", kind="lower", value=r - d1 + 2,
        applicable=nonprim_min,
        note="a non-primitive minimal-degree factor rules out the basic lower bound",
    ))

    if e <= _MAX_SUBSET_FACTORS:
        best_k = best_raw = -math.inf
        for mask in range(1, 1 << e):
            L = 1
            D = 0
            for j in range(e):
                if mask >> j & 1:
                    L = math.lcm(L, orders[j])
                    D += code.factors[j].degree
            best_k = max(best_k, (2 * r + D - _ceil_log2(L * L)) // 2)
            best_raw = max(best_raw, r - (math.log2(L) - D / 2))
        entries.append(BoundEntry(
            name="run_guarantee_upper", kind="upper", value=best_k,
            applicable=True, raw=best_raw,
            note="every dual sequence contains a zero run of the guaranteed length",
        ))

    if e == 2:
        da, db = sorted(f.degree for f in code.factors)
        both_prim = all(primitive)
        cond = da < db and (math.gcd(da, db) < db - da or db - da <= 2)
        entries.append(BoundEntry(
            name="two_primitive_exact", kind="exact", value=db + 1,
            applicable=both_prim and cond,
            note="two primitive factors of close degrees pin the radius",
        ))

    if code.family == "bch":
        eb, m = code.params
        if eb > 1:
            entries.append(BoundEntry(
                name="bch_upper", kind="upper",
                value=_floor_plus_half_log(2 * m * eb - m + 2, eb - 1),
                applicable=True,
                raw=m * (eb - 0.5) + math.log2(eb - 1) + 1,
                note="pattern-frequency guarantee for the BCH dual sequences",
            ))
    if code.family == "melas":
        eb, m = 2, code.params[0]  # the lower bound below counts two factors
        entries.append(BoundEntry(
            name="melas_upper", kind="upper",
            value=_floor_plus_half_log(3 * m + 2, 1),
            applicable=True, raw=1.5 * m + 1,
            note="Kloosterman-type pattern guarantee for the Melas dual",
        ))
    if code.family in ("bch", "melas"):
        entries.append(BoundEntry(
            name="bch_melas_lower", kind="lower", value=(eb - 1) * m + 2,
            applicable=True, assumes_b_at_least=2,
            note="window counting applied to length 2^m - 1",
        ))

    report = BoundsReport(code=code.describe(), n=n, r=r, entries=tuple(entries))
    _check_internal_consistency(report)
    return report


def _check_internal_consistency(report: BoundsReport):
    lowers = [ent for ent in report.entries
              if ent.applicable and ent.kind == "lower" and ent.assumes_b_at_least == 1]
    uppers = [ent for ent in report.entries if ent.applicable and ent.kind in ("upper", "exact")]
    for lo in lowers:
        for up in uppers:
            if lo.value > up.value:
                raise AssertionError(
                    f"inconsistent bounds: {lo.name}={lo.value} > {up.name}={up.value}"
                )


def witness_recheck(code: CyclicCode, result: RadiusResult) -> bool:
    """Confirm the orbit witness: its orbit never reaches degree < b - 1.

    Equivalently no window of size b - 1 can produce the syndrome of the
    witness load, certifying tightness of the computed radius.
    """
    return orbit_minimum(code.g, result.witness).bit_length() - 1 == result.b - 1
