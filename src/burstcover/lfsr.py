"""LFSR sequences named by their Galois load, zero runs and pattern counts.

A connection polynomial g of degree r and a load f of degree < r name
the sequence whose k-th term is the top coefficient (of X^(r-1)) of the
Galois state X^k * f mod g, the coefficient of X^(-k-1) in f/g.  The
load is the one state of a sequence: every function here reads it.
When g(0) = 1, periods reads whole periods off products; lfsr_sequence
steps any connection, and orbit_minimum walks one orbit in O(1) memory.
The first r terms (the Fibonacci initial bits) determine the load, the
polynomial part of g times their series; they are only an input and
output form, read by fibonacci_to_galois and printed from lfsr_sequence.

Run lengths and pattern counts are taken over the periodic sequence:
one minimal period read cyclically, with window reads past the end
continuing into the next period.  The all-zero sequence is excluded
from every statistic (its zero run is unbounded).

orbit_minima is the one enumerator of the shift orbits f -> X*f mod g,
read by the radius engine and the pattern checks (from a code's own
factors) and by orbit_representatives (from codes.factors_of(g)): it
names orbits by discrete logs at the roots of g (_OrbitNames, which
gathers them from each field's log array in place), reads only the odd
residues, as every nonzero orbit minimum is odd, from 0 up in numpy
blocks that grow by bit length, and keeps each orbit's first residue,
its minimum: about 2^(b-1) residues for a largest minimum below 2^b.  A
call pays for the shells it reads: the factor values of the first come
from one closure for all factors, each later shell is appended to that
table as it is reached, and once every orbit with a zero component is
named, the rows with one skip the per-support naming.  The trace form
reads the same factor records.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import gf2poly
from .bitmatrix import _closure
from .codes import factors_of
from .field import trace_table
from .gf2poly import derivative, divmod_poly, gcd, poly_order, quot


@dataclass(frozen=True)
class LfsrSpec:
    """A connection polynomial g and the Galois load f, deg f < deg g.

    The load is the state at step 0; the sequence is the top coefficient
    of X^k * f mod g.  Fibonacci initial bits are the input and output
    form only: fibonacci_to_galois turns them into a load, and the first
    deg(g) terms of lfsr_sequence give them back.
    """

    connection: int
    load: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("connection polynomial must have degree >= 1")
        if not 0 <= self.load < 1 << self.order:
            raise ValueError("initial load must have degree < deg(g)")

    @property
    def order(self) -> int:
        return self.connection.bit_length() - 1

    @classmethod
    def from_galois(cls, g: int, f: int) -> "LfsrSpec":
        """The spec of the Galois-mode output for load f."""
        return cls(g, f)


def lfsr_sequence(spec: LfsrSpec, length: int) -> bytes:
    """First `length` terms, one byte each: the top bit of X^k * load mod g."""
    g, f = spec.connection, spec.load
    size, top = 1 << spec.order, spec.order - 1
    out = bytearray(length)
    for k in range(length):
        out[k] = f >> top & 1
        f <<= 1  # the shift X*f mod g, inline as in orbit_minimum
        if f & size:
            f ^= g
    return bytes(out)


def fibonacci_to_galois(g: int, init) -> int:
    """The Galois load whose output reproduces the given initial bits."""
    r = g.bit_length() - 1
    init = tuple(init)
    if len(init) != r:
        raise ValueError(f"need exactly {r} initial bits")
    if any(b not in (0, 1) for b in init):
        raise ValueError("initial conditions are bits")
    # f = g * (f/g), f/g = sum s_k X^(-k-1): the terms k >= r stay below degree 0
    return gf2poly.mul(g, sum(b << (r - 1 - k) for k, b in enumerate(init))) >> r


def minimal_connection(spec: LfsrSpec) -> int:
    """Minimal connection polynomial of the sequence: g / gcd(load, g)."""
    g = spec.connection
    if g & 1 == 0:
        raise ValueError("periodic statistics need a connection with g(0) = 1")
    return quot(g, gcd(g, spec.load))


def max_zero_run(spec: LfsrSpec) -> int:
    """Longest run of zeros in the periodic sequence, read cyclically.

    A run of exactly j zeros starts at step k when the Galois state
    X^k * f mod g has degree r - 1 - j, so the longest run is r minus the
    bit length of the smallest state on the load's orbit.
    """
    g = spec.connection
    if g & 1 == 0:
        raise ValueError("periodic statistics need a connection with g(0) = 1")
    if spec.load == 0:
        raise ValueError("the all-zero sequence has no period statistics")
    return spec.order - orbit_minimum(g, spec.load).bit_length()


def orbit_minimum(g: int, f: int) -> int:
    """Smallest state on the orbit of the load f under f -> X*f mod g.

    The caller guarantees g(0) = 1 and f nonzero, so the orbit returns to
    f.  The shift is inline and the minimum a comparison, as this loop
    runs once per state of the orbit.
    """
    size = 1 << (g.bit_length() - 1)
    start = least = f
    while True:
        f <<= 1
        if f & size:
            f ^= g
        if f == start:
            return least
        if f < least:
            least = f


def periods(g: int, loads, n: int) -> list[int]:
    """The n-term period of each load's sequence: the product load * h.

    h = (X^n + 1)/g, and term k is bit n - 1 - k of the product, as
    f/g = f*h/(X^n + 1) (Lidl and Niederreiter, Finite Fields, ch. 8).
    Loads have degree < deg(g), and g must divide X^n + 1.
    """
    h, rest = divmod_poly((1 << n) | 1, g)
    if rest:
        raise ValueError(f"g does not divide X^{n} + 1")
    return [gf2poly.mul(f, h) for f in loads]


def pattern_counts(rows: list[int], n: int, s: int) -> np.ndarray:
    """[i, y] counts the starts k < n of period rows[i] whose terms k + j,
    read cyclically, are the bits j of y: one bincount, row i offset i * 2^s."""
    size = -(-n // 8)
    raw = np.frombuffer(b"".join(p.to_bytes(size, "big") for p in rows), dtype=np.uint8)
    wrapped = 8 * size - n + np.arange(n + s - 1) % n  # column j holds term j mod n
    bits = np.unpackbits(raw.reshape(len(rows), size), axis=1)[:, wrapped]
    # row i starts at i, which the s shifts below turn into its offset i * 2^s
    windows = np.repeat(np.arange(len(rows), dtype=np.int64)[:, None], n, axis=1)
    for j in reversed(range(s)):
        windows <<= 1
        windows |= bits[:, j:j + n]
    return np.bincount(windows.ravel(), minlength=len(rows) << s).reshape(-1, 1 << s)


def orbit_representatives(g: int) -> list[int]:
    """One representative per orbit of nonzero loads under f -> X*f mod g.

    The representative is the smallest member as an integer.  Requires g
    square-free with g(0) = 1, so the shift map is a permutation, and its
    factors of degree at most 22, the field-table ceiling (factors_of
    checks all three).
    """
    factors = factors_of(g)
    return orbit_minima(g.bit_length() - 1, factors).tolist() if factors else []  # g = 1: none


# Residues per full numpy block of orbit_minima: f = hi * 2^_K + lo has the
# factor components low[lo] ^ high(hi), and a block reads only its 2^(_K-1)
# odd lo, so that many are live at a time.  The table low grows with the
# shells below 2^_K: [0, 2^(_K-2)) is one closure of _K - 3 columns for all
# factors, and [2^(_K-2), 2^(_K-1)) and [2^(_K-1), 2^_K) are appended when
# the scan reaches them.  The shell and block edges need _K >= 3.
_K = 13


def orbit_minima(r: int, factors) -> np.ndarray:
    """The least member of every orbit of nonzero residues mod g, ascending.

    g is square-free of degree r with g(0) = 1, and `factors` holds its
    irreducible factors (codes.CodeFactor), each root beta_i = X^(t_i).
    Every minimum but 0 is odd: a nonzero f with f(0) = 0 is X*h with
    deg h < deg f, and h = X^(-1)*f mod g lies on the orbit of f, so h < f.
    So only the odd residues are read, from 0 up, in numpy blocks that grow
    as bit-length shells, [0, 2^(_K-2)), [2^(_K-2), 2^(_K-1)) and
    [2^(_K-1), 2^_K), then aligned 2^_K blocks; the first position of each
    orbit id (_OrbitNames) is the orbit's minimum.  The read stops at the
    block where the last orbit is named, the one that holds the largest
    minimum, so a radius b costs about the 2^(b-1) odd residues below 2^b.
    Once every orbit with a zero component has its first position, the
    names stop telling those orbits apart (_OrbitNames.partial).
    Positions are int32: the callers keep the minima below 2^26, the radius
    engine by a proven bound u >= b, lfsr-stats by r.
    """
    names = _OrbitNames(r, factors)
    unnamed = np.iinfo(np.int32).max
    first = np.full(names.total, unnamed, dtype=np.int32)
    first[0] = 0  # the zero residue is an orbit of its own, id 0
    named, start = 1, 0
    while named < names.total and start < 1 << r:
        # the shells below 2^_K double in length, then blocks stay at 2^_K
        stop = min(start + min(max(start, 1 << _K - 2), 1 << _K), 1 << r)
        ids = names.ids(start, stop)
        pos = np.arange(start + 1, stop, 2, dtype=np.int32)
        np.minimum.at(first, ids, pos)  # well defined for repeated ids
        # earlier blocks set firsts below start, so a position that is its
        # id's first names a new orbit, and each new orbit has one
        named += np.count_nonzero(first[ids] == pos)
        if names.partial and named < names.total:
            names.partial = bool((first[1:names.full] == unnamed).any())
        start = stop
    first.sort()
    return first[1:]  # first[0] = 0 is the zero orbit


class _OrbitNames:
    """An id in 0..total-1 for each orbit of residues under f -> X*f mod g.

    By CRT a residue f is the tuple v_i = f(beta_i) over the factors, and
    the shift multiplies each v_i by beta_i = X^(t_i): it adds t_i to
    l_i = log v_i modulo n_i.  A stabilizer chain names each orbit once.
    With M the lcm of the orders of the factors fixed so far, the shifts
    that keep them fixed are the multiples of M, which move l_j in steps of
    t_j M mod n_j; so l_j is reduced modulo the radix gcd(t_j M mod n_j, n_j),
    and the shift that reduces it (one modular inverse) is carried to the
    later factors.  When a step has radix 1 and period*w = 0 mod n_i for
    each later weight w, reducing the shift modulo the period does not move
    the carry, so l_j itself is carried with the weight unit*w mod n_i (the
    fused carry, chosen when the chain is built).  Each support set (the
    factors with v_i != 0) has its own chain and its own id offset: ids
    1..full-1 are the orbits with a zero component, full.. those with none.

    The components come from one (factors, rows) table, low[:, i] the
    values at the odd residue 2i + 1.  The first shell, [0, 2^(_K-2)) or
    [0, 2^r) if smaller, is one closure of the columns beta_i^k for
    k = 1.._K-3, XORed with beta_i^0; each later shell [2^k, 2^(k+1)) below
    2^_K is appended as low ^ beta_i^k when a read first reaches it, so the
    full 2^(_K-1) table exists only once a read passes 2^(_K-1).  A block
    above 2^_K XORs the high columns at the set bits of its hi onto it.
    """

    def __init__(self, r: int, factors):
        self.n = [fac.ctx.n for fac in factors]
        t = [fac.t for fac in factors]
        # beta_i^k for k < r, a row per factor: f(beta_i) is their XOR over supp(f)
        self.cols = np.empty((len(factors), r), dtype=np.int64)
        for row, fac in zip(self.cols, factors):
            row[:] = fac.ctx.exp[fac.t * np.arange(r) % fac.ctx.n]
        self.high = self.cols[:, _K:].T  # high(hi), the XOR of rows at the set bits of hi
        shell = min(_K - 2, r)
        self.low = _closure(self.cols[:, 1:shell]) ^ self.cols[:, :1]
        self.logs = [fac.ctx.log for fac in factors]
        self.chains = [(0, [])]  # the zero residue is an orbit of its own
        self.total = 1
        self.split = set()  # the support sets of more than one orbit
        for support in range(1, 1 << len(t)):
            members = [j for j in range(len(t)) if support >> j & 1]
            M, place, steps = 1, 1, []
            for pos, j in enumerate(members):
                n = self.n[j]
                radix = math.gcd(t[j] * M, n)
                period = n // radix
                # the shift M * s with s = q * unit % period takes l_j = c + radix*q to c
                unit = -pow(t[j] * M // radix, -1, period) % period
                carry = [(i, M * t[i] % self.n[i]) for i in members[pos + 1:]] if period > 1 else []
                # with radix 1, (l*unit % period)*w = l*(unit*w) mod n_i when
                # period*w = 0 mod n_i: one _mod per later factor, none for s
                fused = None
                if carry and radix == 1 and all(period * w % self.n[i] == 0 for i, w in carry):
                    fused = [(i, unit * w % self.n[i]) for i, w in carry]
                steps.append((j, radix, place, unit, period, carry, fused))
                place *= radix
                M = math.lcm(M, n // math.gcd(t[j], n))  # the order of beta_j
            self.chains.append((self.total, steps))
            if place > 1:
                self.split.add(support)
            self.total += place
        self.full = self.chains[-1][0]
        self.offsets = np.array([offset for offset, _ in self.chains])
        self.bits = 1 << np.arange(len(t))  # support = bits @ (comps != 0)
        # True while an orbit with a zero component may lack a first position
        self.partial = self.full > 1

    def ids(self, start: int, stop: int) -> np.ndarray:
        """Orbit ids of the odd residues in [start, stop), even bounds
        inside [0, 2^_K) or inside one aligned 2^_K block.

        Once partial is cleared (orbit_minima does so when every orbit
        with a zero component has its first position), a row with a zero
        component gets id 0, the zero orbit's, whose first position 0 no
        row lowers and no row names anew.
        """
        low = self.low
        while low.shape[1] < min(stop, 1 << _K) >> 1:  # append the next shell
            low = np.concatenate((low, low ^ self.cols[:, low.shape[1].bit_length(), None]), axis=1)
        self.low = low
        hi = start >> _K
        comps = low[:, start - (hi << _K) >> 1:stop - (hi << _K) >> 1]
        # a contiguous copy of a later shell: the reads below then run at full speed
        comps = comps ^ _xor_at(self.high, hi)[:, None] if hi else np.ascontiguousarray(comps)
        logs = [log[v] for log, v in zip(self.logs, comps)]
        ids = self._name(len(self.chains) - 1, logs[:])  # every component nonzero
        zero = np.logical_or.reduce(comps == 0)  # the rows with a zero component
        if not self.partial:
            ids[zero] = 0
            return ids
        rows = np.flatnonzero(zero)
        if len(rows):  # a support set of one orbit is named by its offset
            support = self.bits @ (comps[:, rows] != 0)
            ids[rows] = self.offsets[support]
            for s in self.split.intersection(support.tolist()):  # the rest, one set at a time
                sub = rows[support == s]
                ids[sub] = self._name(s, [l[sub] for l in logs])
        return ids

    def _name(self, support: int, logs: list) -> np.ndarray:
        """Ids of residues whose nonzero components are exactly `support`,
        from their logs (a list over all factors; its entries are replaced)."""
        ids, steps = self.chains[support]  # the offset, then each digit times its place
        for j, radix, place, unit, period, carry, fused in steps:
            l = logs[j]
            if radix > 1:
                digit = _mod(l, radix) if radix < self.n[j] else l
                ids = ids + (digit * place if place > 1 else digit)
            if fused:
                for i, w in fused:
                    logs[i] = _mod(logs[i] + l * w, self.n[i])
            elif carry:
                s = _mod((l // radix if radix > 1 else l) * unit, period)
                for i, w in carry:
                    logs[i] = _mod(logs[i] + s * w, self.n[i])
        return ids if isinstance(ids, np.ndarray) else np.full(len(logs[0]), ids)


def _mod(x: np.ndarray, n: int) -> np.ndarray:
    """x % n, read off x // n: numpy's // by a scalar costs a quarter of its %."""
    return x - x // n * n


def _xor_at(cols, bits: int):
    """The XOR of cols[k] over the set bits k of `bits`."""
    return functools.reduce(operator.xor, (c for k, c in enumerate(cols) if bits >> k & 1), 0)


def trace_representation(spec: LfsrSpec) -> list[tuple]:
    """Pairs (factor_i, gamma_i) with a_k = sum_i Tr(gamma_i * beta_i^k).

    factor_i runs over codes.factors_of(g) for the connection polynomial
    g, beta_i = X^(t_i) is its root and gamma_i a raw mask in its field.
    Lagrange interpolation at the distinct roots of g gives the top
    coefficient of any h mod g as sum_beta h(beta)/g'(beta).  For
    h = X^k * f that is sum_beta beta^k f(beta)/g'(beta), and the
    conjugate roots of factor_i add up to a trace, so
    gamma_i = f(beta_i)/g'(beta_i) in closed form.  The result is checked
    by regenerating the first ord(g) + r terms.
    """
    g = spec.connection
    r = spec.order
    dg = derivative(g)  # nonzero at every root, since g is square-free
    gammas = []
    for fac in factors_of(g):
        ctx = fac.ctx
        beta = ctx.alpha_pow(fac.t)
        value = ctx.evaluate(spec.load, beta)
        gamma = ctx.alpha_pow(ctx.dlog(value) - ctx.dlog(ctx.evaluate(dg, beta))) if value else 0
        gammas.append((fac, gamma))

    total = poly_order(g) + r
    if regenerate_from_trace(gammas, total) != lfsr_sequence(spec, total):
        raise AssertionError("trace representation failed to regenerate")
    return gammas


def regenerate_from_trace(gammas, length: int) -> bytes:
    """Sequence sum_i Tr(gamma_i * beta_i^k), one byte a term, from (factor, gamma) pairs.

    With beta_i = X^(t_i), term i at step k is
    trace_table[log gamma_i + (t_i k mod n)]; a zero gamma_i contributes 0.
    """
    k = np.arange(length, dtype=np.int64)
    bits = np.zeros(length, dtype=bool)
    for fac, gamma in gammas:
        if gamma:
            ctx = fac.ctx
            bits ^= trace_table(ctx)[ctx.dlog(gamma) + fac.t * k % ctx.n]
    return bits.astype(np.uint8).tobytes()
