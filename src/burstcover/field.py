"""GF(2^m) as tables over gf2poly, in the polynomial basis {1, x, ..., x^(m-1)}.

A FieldContext wraps a primitive modulus of degree m, so X generates the
multiplicative group: exp[k] is X^k, stepped by the shift v*X mod modulus,
and log X^l = l.  exp (2n entries, uint32) and log (int64) are read-only
numpy arrays, which every engine indexes in place.  Its trace mask (Tr(v)
is the parity of popcount(v & trace_mask)) is read from exp.  Elements
are plain ints (their coefficient masks), and so is every scalar result.
There is one cached context per modulus: get_context(m) is
context_for_modulus(default_modulus(m)).

trace_table(ctx) is the package's one numpy trace table, Tr(X^j) for
j < 2n, read-only like exp and log.  The trace is linear, so
Tr(sum c_i x^(e_i)) at x = X^k is the XOR of table[log c_i + (e_i k mod n)]:
the character sums, trace regeneration and the cover tables read it that
way, without building a field element.

The default modulus for each m is the lexicographically smallest
primitive polynomial of degree m, where coefficient strings compare as
integers.  This makes every derived object reproducible.
"""

from __future__ import annotations

import array
import functools

import numpy as np

from . import gf2poly

_MAX_TABLE_M = 22


def _check_table_degree(m: int):
    """Refuse a degree past the field tables, before any work that grows with it."""
    if m > _MAX_TABLE_M:
        raise ValueError(f"field tables limited to degree {_MAX_TABLE_M}")


@functools.lru_cache(maxsize=None)
def default_modulus(m: int) -> int:
    """Smallest primitive polynomial of degree m, as an integer mask."""
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    p = (1 << m) | 1
    while not gf2poly.is_primitive(p):
        p += 2
    return p


def primitive_moduli(m: int) -> list[int]:
    """All primitive polynomials of degree m, ascending."""
    return [p for p in range((1 << m) | 1, 1 << (m + 1), 2) if gf2poly.is_primitive(p)]


class FieldContext:
    """GF(2^m) modulo a chosen primitive polynomial, generated by X."""

    def __init__(self, modulus: int):
        m = modulus.bit_length() - 1
        _check_table_degree(m)
        if not gf2poly.is_primitive(modulus):
            raise ValueError("modulus must be primitive of degree >= 1")
        self.m = m
        self.modulus = modulus
        self.n = (1 << m) - 1  # multiplicative group order
        self._build_tables()

    def _build_tables(self):
        m, n, modulus = self.m, self.n, self.modulus
        exp = array.array("I")  # uint32 in one compact buffer, not a list of ints
        v = 1
        for _ in range(n):
            exp.append(v)
            v <<= 1  # the shift v*X mod modulus, inline as in lfsr_sequence
            if v >> m:
                v ^= modulus
        exp.extend(exp)  # exp[k + n] = exp[k], so a sum of two logs needs no reduction
        self.exp = np.frombuffer(exp, dtype=np.uint32)
        self.log = np.zeros(n + 1, dtype=np.int64)  # int64: the orbit engine multiplies logs
        self.log[self.exp[:n]] = np.arange(n, dtype=np.uint32)  # log[0] is unused
        self.exp.flags.writeable = self.log.flags.writeable = False
        # Tr(X^l) is the sum of the conjugates X^(l 2^i), read from exp
        mask = 0
        for l in range(m):
            t = 0
            for i in range(m):
                t ^= self.alpha_pow(l << i)
            if t not in (0, 1):
                raise AssertionError("trace left the prime field")
            mask |= t << l
        self.trace_mask = mask

    # -- table-driven operations on raw masks, in and out as ints ----------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp.item(self.log.item(a) + self.log.item(b))

    def alpha_pow(self, k: int) -> int:
        """x^k mod modulus, exponent taken modulo 2^m - 1."""
        return self.exp.item(k % self.n)

    def trace(self, a: int) -> int:
        return (a & self.trace_mask).bit_count() & 1

    def evaluate(self, p: int, v: int) -> int:
        """p(v) for p in GF(2)[X] (a coefficient mask), by Horner's rule."""
        acc = 0
        for i in range(p.bit_length() - 1, -1, -1):
            acc = self.mul(acc, v) ^ (p >> i & 1)
        return acc

    def dlog(self, a: int) -> int:
        """Discrete log base X (a nonzero)."""
        if a == 0:
            raise ValueError("zero has no discrete log")
        return self.log.item(a)

    def __eq__(self, other):
        return isinstance(other, FieldContext) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("FieldContext", self.modulus))

    def __repr__(self):
        return f"FieldContext(m={self.m}, modulus={gf2poly.to_hex(self.modulus)})"


def get_context(m: int) -> FieldContext:
    """The context of GF(2^m) under its default modulus."""
    return context_for_modulus(default_modulus(m))


@functools.lru_cache(maxsize=None)
def context_for_modulus(modulus: int) -> FieldContext:
    """The one cached context for each modulus, the default ones included."""
    return FieldContext(modulus)


@functools.lru_cache(maxsize=None)
def trace_table(ctx: FieldContext) -> np.ndarray:
    """Tr(X^j) as bools for j < 2n, so that s + (t*k mod n) needs no reduction.

    The parities of one period are folded, then tiled: Tr(X^(j+n)) = Tr(X^j).
    """
    v = ctx.exp[:ctx.n] & ctx.trace_mask
    for shift in (16, 8, 4, 2, 1):  # fold the parity of up to 32 bits into bit 0
        v ^= v >> shift
    table = np.tile((v & 1).astype(bool), 2)
    table.flags.writeable = False  # cached: one caller's write would reach every later one
    return table


def cyclotomic_coset(t: int, n: int) -> list[int]:
    """The orbit of t under doubling modulo n, starting from t mod n."""
    t %= n
    out = [t]
    c = t * 2 % n
    while c != t:
        out.append(c)
        c = c * 2 % n
    return out


def min_odd_coset_member(t: int, n: int) -> int:
    """Smallest odd member of the doubling coset of t modulo n (n odd).

    Modulo 1 every t is congruent to 1, so the coset [0] of GF(2), whose
    root 1 gives the parity factor X + 1, is labelled 1.
    """
    if n == 1:
        return 1
    members = [c for c in cyclotomic_coset(t, n) if c & 1]
    if not members:
        raise ValueError("coset has no odd member")
    return min(members)


def minimal_polynomial(ctx: FieldContext, t: int) -> int:
    """Minimal polynomial of alpha^t over GF(2), alpha = X in ctx.

    t is reduced modulo 2^m - 1 and may be negative.  t = 0 names the
    degenerate root 1 and is rejected.
    """
    n = ctx.n
    t %= n
    if t == 0:
        raise ValueError("t = 0 names the degenerate root 1")
    coeffs = [1]  # polynomial over the field, index = degree
    for c in cyclotomic_coset(t, n):
        root = ctx.alpha_pow(c)
        nxt = [0] * (len(coeffs) + 1)
        for i, v in enumerate(coeffs):
            nxt[i + 1] ^= v
            nxt[i] ^= ctx.mul(root, v)
        coeffs = nxt
    out = 0
    for i, v in enumerate(coeffs):
        if v not in (0, 1):
            raise AssertionError("conjugate product left the prime field")
        out |= v << i
    return out


def find_root(ctx: FieldContext, h: int) -> int:
    """A root of irreducible h in ctx, as a raw mask; the smallest one.

    deg(h) must divide m so that the roots exist in the field.  h(v) is
    the XOR of exp[i log v mod n] over the terms X^i of h, read for the
    masks v = 1, 2, ... in numpy blocks that double from 2^6 to 2^16
    elements, up to the first block that holds a root.
    """
    d = h.bit_length() - 1
    if d < 1 or ctx.m % d:
        raise ValueError("polynomial does not split in this field")
    terms = [i for i in range(d + 1) if h >> i & 1]
    start = 1
    while start < 1 << ctx.m:
        stop = min(start + min(max(start, 1 << 6), 1 << 16), 1 << ctx.m)
        logs = ctx.log[start:stop]  # log v for the masks v in [start, stop)
        values = np.zeros(stop - start, dtype=ctx.exp.dtype)
        for i in terms:
            values ^= ctx.exp[logs * i % ctx.n]
        roots = np.flatnonzero(values == 0)
        if len(roots):
            return start + int(roots[0])
        start = stop
    raise ValueError("no root found; is h irreducible?")
