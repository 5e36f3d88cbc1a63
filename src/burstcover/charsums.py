"""Exponential sums over GF(2^m) and empirical checks of frequency bounds.

The canonical additive character is chi(v) = (-1)^Tr(v).  The Weil and
Laurent sums are computed only by the family checks, wcu_family_check
and laurent_family_check; their reference is the table-free oracle of
tests/test_charsums.py, which evaluates each polynomial with raw gf2poly
arithmetic.  They read the one trace table, field.trace_table: by
linearity the trace of sum c_i x^(e_i) at x = X^k is the XOR of
table[log c_i + (e_i k mod n)], so no field element is built.  The
Weil sums are read from a Walsh-Hadamard transform (_fwht) over the
coefficient masks of x, at the masks phi(c) whose bits are trace-table
entries, so the degree-5 family costs O(n^2 m) integer additions.  Every
bound checked here has the form |x| <= a * 2^(m/2) + b, and every
verdict goes through the one predicate _within(x, m, a, b): |x| against
isqrt(a^2 * 2^m) + b in exact integers, elementwise on integer arrays too,
so no verdict touches floating point.

Checked bounds:

* Weil-Carlitz-Uchiyama for odd-degree polynomials: (deg-1) * sqrt(q).
* Its rational-function extension for Laurent forms a x^t + b x^(-u)
  with odd t, u: (t + u) * sqrt(q) over nonzero x.
* Niederreiter's pattern-frequency bound over one minimal period.
* The sharper pattern bounds for connection polynomials splitting into
  equal-degree factors (exponent labels all odd, or split into positive
  and negative groups), counted over windows of length 2^m - 1.
* The pattern-presence guarantees derived from those bounds.
* The exact power inequality supporting the two-primitive-factor case.

The pattern checks count each code once.  Over a whole period read
cyclically, a length-(s-1) pattern occurs as often as its two length-s
extensions together, so the counts at s - 1 are those at s with the top
bit summed out (_marginals).  pattern_census takes the orbit
representatives and their periods once, counts them at s_max in the
row blocks of _row_blocks, and builds the report of every s = 1..s_max in
that one pass; it is cached per (code, variant, s_max), and
pattern_theorem_check(code, variant, s) reads its report at s = m.
find_avoidance_witness reads the same census (_census), and
niederreiter_check one cached count per sequence at its least factor
degree (_period_census).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import gf2poly, radius
from .bitmatrix import _row_blocks
from .codes import CyclicCode
from .field import FieldContext, get_context, min_odd_coset_member, trace_table
from .gf2poly import poly_order, quot
from .lfsr import LfsrSpec, minimal_connection, orbit_minima, pattern_counts, periods


def _within(x, m: int, a: int, b: int = 0):
    """|x| <= a * 2^(m/2) + b, exactly; elementwise for an integer array x.

    |x| - b is an integer, so it is at most a * 2^(m/2) iff it is at most
    the floor of that, isqrt(a^2 * 2^m).
    """
    return abs(x) <= math.isqrt(a * a << m) + b


# ---------------------------------------------------------------------------
# pattern-frequency checks

@dataclass(frozen=True)
class FrequencyReport:
    name: str
    s: int
    window: int
    sequences_checked: int
    cases_checked: int
    violations: tuple
    vacuous: bool = False
    applicable: bool = True
    note: str = ""
    guaranteed_s: int | None = None
    corollary_misses: tuple = ()
    stronger_bound_sequences: int | None = None

    @property
    def ok(self) -> bool:
        return not self.violations and not self.corollary_misses

    def to_json(self) -> dict:
        return {**self.__dict__, "ok": self.ok}


def niederreiter_check(spec: LfsrSpec, s: int) -> FrequencyReport:
    """Frequency bound over one minimal period of the sequence.

    For every pattern y of length s <= (min factor degree of the minimal
    polynomial): |N - pi/2^s| <= (1 - 2^-s) * 2^(r/2).  The report flags
    the bound as vacuous when its lower bound on N is not positive.  The
    counts come from _period_census, one count per sequence.
    """
    gmin, min_factor_degree, pi, by_s = _period_census(spec)
    rmin = gmin.bit_length() - 1
    if s < 1 or s > min_factor_degree:
        return FrequencyReport(
            "niederreiter", s, 0, 0, 0, (), applicable=False,
            note=f"s must be in [1, {min_factor_degree}] for this sequence",
        )
    slack = (1 << s) - 1
    violations = tuple((y, c) for y, c in enumerate(by_s[s - 1].tolist())
                       if not _within((c << s) - pi, rmin, slack))
    return FrequencyReport(
        "niederreiter", s, pi, 1, 1 << s, violations, vacuous=_within(pi, rmin, slack),
        note=f"minimal polynomial degree {rmin}, period {pi}",
    )


@functools.lru_cache(maxsize=16)
def _period_census(spec: LfsrSpec) -> tuple:
    """(minimal connection gmin, its least factor degree d, its period pi,
    the counts over one period at s = 1..d), kept for the calls at
    s = 1, 2, ... on one sequence: one count at s = d, the rest its
    marginals."""
    gmin = minimal_connection(spec)
    if gmin == 1:
        raise ValueError("the all-zero sequence is excluded")
    min_factor_degree, pi = _degree_and_period(gmin)
    load = quot(spec.load, quot(spec.connection, gmin))  # load/d on g/d, d = gcd(load, g)
    counts = pattern_counts(periods(gmin, [load], pi), pi, min_factor_degree)
    return gmin, min_factor_degree, pi, [c[0] for _, c in _marginals(counts)][::-1]


@functools.lru_cache(maxsize=1024)
def _degree_and_period(gmin: int) -> tuple[int, int]:
    """(least irreducible factor degree, order) of a minimal connection
    polynomial, shared by the sequences it is minimal for."""
    return min(h.bit_length() - 1 for h, _ in gf2poly.factor(gmin)), poly_order(gmin)


def _marginals(counts: np.ndarray):
    """(s, counts at s) for s = S down to 1, from pattern_counts' array at S.

    Over a whole period read cyclically, a length-(s-1) pattern occurs as
    often as its two length-s extensions together, so the counts at s - 1
    are those at s with the top bit (the last term) summed out, one bit at
    a time; only the array at s and its marginal are live together.
    """
    s = counts.shape[1].bit_length() - 1
    while True:
        yield s, counts
        if s == 1:
            return
        half = 1 << (s - 1)
        counts = counts[:, :half] + counts[:, half:]
        s -= 1


def check_census_size(r: int) -> None:
    """Refuse a pattern census of a code of redundancy r above radius.MAX_R
    (read when called) before any table of the code is built: each nonzero
    residue is a cell of its orbit's window."""
    if r > radius.MAX_R:
        raise radius.BudgetError(f"pattern census of at least 2^{r} - 1 cells "
                                 f"exceeds max_r={radius.MAX_R}")


def _census(code: CyclicCode, s_max: int):
    """(orbit representatives, their counts at s_max), ascending, in row blocks.

    The one count of a code's sequences: representatives and periods once,
    then one pattern_counts per block of rows; _marginals gives smaller s.
    """
    check_census_size(code.r)
    window = (1 << max(f.degree for f in code.factors)) - 1
    reps = orbit_minima(code.r, code.factors).tolist()
    rows = periods(code.g, reps, window)
    for block in _row_blocks(len(reps), max(window, 1 << s_max)):
        yield reps[block], pattern_counts(rows[block], window, s_max)


def _positive_odd_exponents(code: CyclicCode) -> list[int]:
    n = code.factors[0].ctx.n
    out = []
    for f in code.factors:
        t = f.exponent
        out.append(t if t >= 1 and t % 2 == 1 else min_odd_coset_member(t, n))
    return out


def pattern_theorem_check(code: CyclicCode, variant: str, s: int) -> FrequencyReport:
    """Sharper pattern bounds for equal-degree connection polynomials.

    Counts every length-s pattern in a window of 2^m - 1 terms of every
    nonzero sequence.  One orbit representative per cyclic shift class
    suffices because counts over a full window are shift invariant.

    variant "equal_degree" uses bound (1 - 2^-s)((max t - 1) 2^(m/2) + 1)
    with all root exponents made odd positive; it needs max t >= 3.
    variant "melas_mixed" uses (1 - 2^-s)(max t + max u) 2^(m/2) with the
    signed exponents split into positive t's and negated u's; it also
    reports how many sequences satisfy the positive-only bound, which is
    sharper whenever the negative-exponent components are inactive.

    An applicable s reads pattern_census(code, variant, m)[s - 1], so the
    calls at s = 1..m share one cached census of the code.
    """
    degrees = {f.degree for f in code.factors}
    m = max(degrees)
    if len(degrees) != 1:
        note = "factors must share one degree"
    elif not 1 <= s <= m:
        note = f"s must be in [1, {m}]"
    else:
        return pattern_census(code, variant, m)[s - 1]
    return FrequencyReport(variant, s, 0, 0, 0, (), applicable=False, note=note)


def _bound_weights(code: CyclicCode, variant: str) -> tuple:
    """(weight, shift, positive_weight, note) of the bound
    |2^s N - window| <= (2^s - 1)(weight 2^(m/2) + shift); a nonempty note
    says why the variant does not apply to the code."""
    if variant == "equal_degree":
        t_max = max(_positive_odd_exponents(code))
        note = "max exponent 1 gives a PN sequence; bound not needed" if t_max < 3 else ""
        return t_max - 1, 1, None, note
    if variant != "melas_mixed":
        raise ValueError(f"unknown variant {variant!r}")
    exps = [f.exponent for f in code.factors]
    ts = [t for t in exps if t > 0]
    us = [-t for t in exps if t < 0]
    if not ts or not us:
        return 0, 0, None, "needs both positive and negative exponents"
    if any(e % 2 == 0 for e in ts + us):
        return 0, 0, None, "exponents must be odd"
    # sharper positive-only bound, met when the negative parts idle
    return max(ts) + max(us), 0, max(ts) - 1, ""


@functools.lru_cache(maxsize=32)
def pattern_census(code: CyclicCode, variant: str, s_max: int) -> tuple[FrequencyReport, ...]:
    """pattern_theorem_check(code, variant, s) for s = 1..s_max, from one count.

    The code's factors share one degree m, and 1 <= s_max <= m.  One pass
    over _census builds every report: each row block is counted once at
    s_max and each smaller s reads its marginal.  Cached per (code,
    variant, s_max), so per-s callers share it.
    """
    degrees = {f.degree for f in code.factors}
    m = max(degrees)
    if len(degrees) != 1 or not 1 <= s_max <= m:
        raise ValueError(f"a census needs factors of one degree m and s_max in [1, m], "
                         f"got degrees {sorted(degrees)} and s_max {s_max}")
    window = (1 << m) - 1
    weight, shift, positive_weight, note = _bound_weights(code, variant)
    if note:
        return tuple(FrequencyReport(variant, s, window, 0, 0, (), applicable=False, note=note)
                     for s in range(1, s_max + 1))

    guaranteed = _guaranteed_pattern_length(m, weight)
    violations = [[] for _ in range(s_max)]
    misses = [[] for _ in range(s_max)]
    stronger = [0] * s_max
    sequences = 0
    for reps, top in _census(code, s_max):
        sequences += len(reps)
        for s, counts in _marginals(top):
            slack = (1 << s) - 1
            devs = (counts << s) - window
            bad = ~_within(devs, m, slack * weight, slack * shift)
            violations[s - 1] += [(reps[i], int(y), int(counts[i, y]))
                                  for i, y in zip(*np.nonzero(bad))]
            if s <= guaranteed:
                misses[s - 1] += [(reps[i], int(y)) for i, y in zip(*np.nonzero(counts == 0))]
            if positive_weight is not None:
                stronger[s - 1] += int(_within(devs, m, slack * positive_weight, slack)
                                       .all(axis=1).sum())
    note = f"m={m}, exponents={[f.exponent for f in code.factors]}"
    return tuple(FrequencyReport(
        variant, s, window, sequences, sequences << s, tuple(violations[s - 1]),
        guaranteed_s=guaranteed, corollary_misses=tuple(misses[s - 1]),
        stronger_bound_sequences=None if positive_weight is None else stronger[s - 1],
        note=note,
    ) for s in range(1, s_max + 1))


def _guaranteed_pattern_length(m: int, weight: int) -> int:
    """Largest s with s <= m/2 - log2(weight); 0 when none exists."""
    s = 0
    while _within(weight << (s + 1), m, 1):
        s += 1
    return s


def find_avoidance_witness(code: CyclicCode, s: int):
    """A nonzero sequence missing some length-s pattern, or None.

    Such witnesses bound how far the pattern-presence guarantee can be
    pushed; this only searches and asserts nothing about existence.
    Returns (initial load, pattern index) for the first missing pair, in
    ascending load order, from the census counted at s.
    """
    m = max(f.degree for f in code.factors)
    if not 1 <= s <= m:
        raise ValueError(f"avoidance pattern length must be in [1, {m}], got {s}")
    for reps, counts in _census(code, s):
        rows, ys = np.nonzero(counts == 0)
        if len(rows):
            return reps[rows[0]], int(ys[0])
    return None


def pattern_count_via_charsums(ctx: FieldContext, terms, y) -> int:
    """Occurrences of pattern y recomputed through the character expansion.

    terms is a list of (gamma mask, signed exponent t) describing the
    sequence a_k = sum_i Tr(gamma_i alpha^(t_i k)).  The count over a
    window of 2^m - 1 positions expands into 2^-s (2^m - 1 + a signed
    combination of character sums), which this evaluates exactly.
    """
    y = tuple(int(b) for b in y)
    s = len(y)
    n = ctx.n
    total = n  # the J = empty set term
    for J in range(1, 1 << s):
        sign = (-1) ** sum(y[j] for j in range(s) if J >> j & 1)
        coefs = []
        for gamma, t in terms:
            c = 0
            for j in range(s):
                if J >> j & 1:
                    c ^= ctx.alpha_pow(t * j)
            coefs.append((ctx.mul(gamma, c), t))
        inner = 0
        for x_log in range(n):
            acc = 0
            for c, t in coefs:
                acc ^= ctx.mul(c, ctx.alpha_pow(t * x_log))
            inner += 1 - 2 * ctx.trace(acc)
        total += sign * inner
    if total % (1 << s):
        raise AssertionError("character expansion did not yield an integer count")
    return total >> s


# ---------------------------------------------------------------------------
# exact power inequality

def gcd_power_inequality_check(a: int, b: int) -> bool:
    """1 + (2^a-1)(2^b-1) / ((2^c-1) 2^((a+b)/2)) > 2^((a+b)/2 - c), c = gcd(a,b).

    Cleared of denominators this is
    2^c (2^c-1) 2^((a+b)/2) + 2^(a+b) + 2^c > 2^(a+c) + 2^(b+c);
    an odd a+b leaves a single sqrt(2) factor, removed by squaring the
    positive parts, so the verdict is exact.
    """
    if a < 1 or b < 1:
        raise ValueError("need a, b >= 1")
    c = math.gcd(a, b)
    h = a + b
    p = (1 << h) + (1 << c)
    rhs = (1 << (a + c)) + (1 << (b + c))
    q = ((1 << c) - 1) << (c + h // 2)
    if h % 2 == 0:
        return p + q > rhs
    if p >= rhs:
        return True
    gap = rhs - p
    return 2 * q * q > gap * gap


# ---------------------------------------------------------------------------
# exhaustive / sampled family checks used by the verification suites

# Limits that the family checks enforce themselves (2-vCPU VM,
# one call each).  The Weil sweep holds a 2^m x (2^m + 2) int16 array and
# its gather by phi, 4x larger per step of m: 7 ms / 35 MB process peak
# at m = 10, 40 ms / 50 MB at m = 11, 0.17 s / 110 MB at m = 12 (a ceiling
# above 11 needs row blocks).  A Laurent draw costs one shift, XOR and
# popcount of packed trace windows (_laurent_sums), linear in n: 2000 draws
# of one form take 2 ms at m = 10 and 12, 6 ms at m = 14 and 20 ms at
# m = 16, after 13 ms for the field context at m = 16.  So 2000 draws for
# each of the 9 forms take about 0.3 s at m = 16, and the whole
# `verify charsums --laurent-m-max 16 --draws 2000` 0.8 s at a 35 MB peak.
WCU_M_MAX = 11
# After butterfly stage k every |entry| of the Weil transform is at most
# 2^(k+1), so every intermediate fits in q = 2^m: int16 up to m = 14.
_WEIL_DTYPE = np.int16
assert 1 << WCU_M_MAX <= np.iinfo(_WEIL_DTYPE).max, "the Weil transform needs a wider dtype"
LAURENT_M_MAX = 16
LAURENT_DRAWS_MAX = 2000


def check_weil_degree(m: int) -> None:
    """Refuse a Weil sweep above WCU_M_MAX before its tables are built."""
    if m > WCU_M_MAX:
        raise radius.BudgetError(f"Weil sweep at m = {m} exceeds wcu_m_max={WCU_M_MAX}")


def check_laurent_size(m: int, draws: int) -> None:
    """Refuse Laurent samples above either Laurent limit before any table is built."""
    if m > LAURENT_M_MAX or draws > LAURENT_DRAWS_MAX:
        raise radius.BudgetError(f"{draws} Laurent draws at m = {m} exceed laurent_m_max="
                                 f"{LAURENT_M_MAX} or laurent_draws_max={LAURENT_DRAWS_MAX}")


@dataclass(frozen=True)
class FamilyCheckReport:
    name: str
    hypotheses: dict
    cases_checked: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {**self.__dict__, "ok": self.ok}


def _fwht(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform over the first axis, in place, in exact integers.

    a must be C-contiguous with a first axis of length 2^m; a[u, ...]
    becomes the sum over x of a[x, ...] * (-1)^popcount(u & x).  Each of
    the m butterfly stages pairs the x whose bit log2(h) differs, and
    every operand is a contiguous run of h rows.
    """
    h = 1
    while h < len(a):
        v = a.reshape(-1, 2, h * (a.size // len(a)))
        lo, hi = v[:, 0], v[:, 1]
        lo += hi
        hi *= -2
        hi += lo  # lo - hi
        h *= 2
    return a


def _weil_signs(m: int) -> np.ndarray:
    """w[x, col] for wcu_family_check's transform, in _WEIL_DTYPE: column 0
    is chi(0), column 1 chi(x^3), then chi(b x^3 + x^5) for b = 0, X^0,
    X^1, ...  An element indexes a row as 0 for 0 and j + 1 for X^j."""
    ctx = get_context(m)
    n, q = ctx.n, 1 << m
    table = trace_table(ctx)
    logs = ctx.log[1:]  # log x for the masks x = 1..n
    fifth = table[5 * logs % n]
    windows = np.lib.stride_tricks.sliding_window_view(table, n)  # [i, j] = Tr(X^(i+j))
    w = np.empty((q, n + 3), dtype=_WEIL_DTYPE)
    w[1:, 1] = table[3 * logs % n]
    w[1:, 2] = fifth
    w[1:, 3:] = windows[3 * logs % n, :n] ^ fifth[:, None]
    w[1:, 1:] *= -2  # trace bit t -> chi = 1 - 2t
    w[1:, 1:] += 1
    w[:, 0] = 1
    w[0] = 1  # x = 0
    return w


def wcu_family_check(m: int) -> FamilyCheckReport:
    """Weil bound over every monic odd-degree polynomial of degree <= 5.

    Tr(a x^2) = Tr(sqrt(a) x), so the sum over the field for
    a0 + a1 x + ... + a4 x^4 + x^5 is chi(a0) times that for the reduced
    form x^5 + b x^3 + c x, b = a3 and c = a1 + a2^(1/2) + a4^(1/4)
    (likewise x^3 + c x and x below).  Sweeping all (b, c) covers the
    family.  Write x as its coefficient mask and let phi(c) be the mask
    with bit i = Tr(c X^i); then Tr(c x) = popcount(phi(c) & x) mod 2, so
    the sum over x of chi(b x^3 + x^5) chi(c x) is the Walsh-Hadamard
    transform of w_b(x) = chi(b x^3 + x^5) read at phi(c): O(n^2 m)
    integer additions for the whole sweep, verdicts exact.
    """
    check_weil_degree(m)
    n, q = (1 << m) - 1, 1 << m
    table = trace_table(get_context(m))
    # log X^i = i, so Tr(X^j X^i) = table[j + i]
    phi = np.zeros(n + 1, dtype=np.int64)
    for i in range(m):
        phi[1:] |= table[i:i + n].astype(np.int64) << i
    sums = _fwht(_weil_signs(m))[phi]

    violations = []
    cases = 0

    # degree 1: x + c has sum 0 over the whole field
    sums1 = sums[:, 0]
    cases += n + 1
    if sums1[0] != q or sums1[1:].any():
        violations.append(("deg1", "nonzero sum"))

    # degree 3: x^3 + c x, bound (3-1) * 2^(m/2)
    sums3 = sums[:, 1]
    cases += n + 1
    bad = np.flatnonzero(~_within(sums3, m, 2))
    violations.extend(("deg3", int(i)) for i in bad)

    # degree 5: x^5 + b x^3 + c x, bound (5-1) * 2^(m/2)
    sums5 = sums[:, 2:].T
    cases += (n + 1) ** 2
    bad_b, bad_c = np.nonzero(~_within(sums5, m, 4))
    violations.extend(("deg5", int(b), int(c)) for b, c in zip(bad_b, bad_c))

    return FamilyCheckReport(
        name="weil_polynomial_bound",
        hypotheses={"m": m, "degrees": [1, 3, 5], "reduced_forms": True},
        cases_checked=cases,
        violations=tuple(violations),
    )


def _trace_windows(ctx: FieldContext, c: int, logs: np.ndarray) -> tuple:
    """The rows Tr(X^(l + c k)), k < n, for each l in logs, as windows of packed strings.

    With d = gcd(c, n), n' = n / d and l = rho + d q, the exponent l + c k
    is rho + d (q + (c/d) k) mod n, so the row is bits s .. s + n - 1 of
    base_rho, bit k = Tr(X^(rho + c k)) for k < n + n', at
    s = q (c/d)^(-1) mod n'.  Returns {rho: base_rho as a Python int} for
    the rho that occur, and the rho and s of each l as lists.
    """
    n = ctx.n
    c %= n
    d = math.gcd(c, n)  # c = 0 gives d = n, n' = 1: every row is constant
    period = n // d
    q, rho = np.divmod(logs, d)
    shifts = q * pow(c // d, -1, period) % period
    rho = rho.tolist()
    table = trace_table(ctx)
    ck = c * np.arange(n + period, dtype=np.int64) % n
    bases = {r: int.from_bytes(np.packbits(table[r + ck], bitorder="little").tobytes(), "little")
             for r in set(rho)}
    return bases, rho, shifts.tolist()


def _laurent_sums(ctx: FieldContext, t: int, u: int, coeffs) -> np.ndarray:
    """Sum of chi(a x^t + b x^(-u)) over nonzero x, for each row (a, b) of coeffs.

    At x = X^k the two trace bits are Tr(X^(log a + t k)) and
    Tr(X^(log b - u k)).  Each side's n bits are a window of a packed
    base string (_trace_windows), so a sum is n - 2 popcount of the XOR of
    two shifted Python ints cut to n bits: one int.bit_count per draw.
    """
    n = ctx.n
    logs = ctx.log[np.asarray(coeffs, dtype=np.int64).reshape(-1, 2)]  # (log a, log b) per draw
    a_bases, a_rho, a_shift = _trace_windows(ctx, t, logs[:, 0])
    b_bases, b_rho, b_shift = _trace_windows(ctx, -u, logs[:, 1])
    mask = (1 << n) - 1
    return np.array([n - 2 * (((a_bases[ra] >> sa) ^ (b_bases[rb] >> sb)) & mask).bit_count()
                     for ra, sa, rb, sb in zip(a_rho, a_shift, b_rho, b_shift)], dtype=np.int64)


def _laurent_draws(rng: random.Random, n: int, draws: int) -> np.ndarray:
    """The (draws, 2) int64 array of [rng.randrange(1, n + 1), rng.randrange(1, n + 1)]
    per draw, n = 2^m - 1 and m <= 32, from one getrandbits call per refill.

    randrange(1, n + 1) is 1 + getrandbits(m), drawn again while that is n,
    and getrandbits(m) is the top m bits of one 32-bit Mersenne Twister
    word; getrandbits(32 w) returns w successive words, least significant
    first.  The first 2 draws values that are not n are kept; words drawn
    past them are never read, which only advances rng.
    """
    m = n.bit_length()
    values = np.empty(0, dtype=np.uint32)
    while len(values) < 2 * draws:
        words = 2 * draws - len(values)
        words += words // n + 16  # about words * 2^m / n are needed
        top = np.frombuffer(rng.getrandbits(32 * words).to_bytes(4 * words, "little"),
                            dtype="<u4") >> (32 - m)
        values = np.concatenate([values, top[top != n]])
    return values[:2 * draws].astype(np.int64).reshape(-1, 2) + 1


def laurent_family_check(m: int, t: int, u: int, draws: int, seed: int) -> FamilyCheckReport:
    """Sampled check of the Laurent bound for forms a x^t + b x^(-u), t, u >= 1."""
    if t < 1 or u < 1 or draws < 0:
        raise ValueError(f"Laurent forms need t, u >= 1 and draws >= 0, "
                         f"got t={t}, u={u}, draws={draws}")
    check_laurent_size(m, draws)
    ctx = get_context(m)
    coeffs = _laurent_draws(random.Random(seed), ctx.n, draws)
    sums = _laurent_sums(ctx, t, u, coeffs)
    bad = np.flatnonzero(~_within(sums, m, t + u))
    return FamilyCheckReport(
        name="laurent_weil_bound",
        hypotheses={"m": m, "t": t, "u": u, "draws": draws, "seed": seed},
        cases_checked=draws,
        violations=tuple((*coeffs[i].tolist(), int(sums[i])) for i in bad),
    )
