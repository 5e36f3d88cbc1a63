"""GF(2^m) as tables over gf2poly, in the polynomial basis {1, x, ..., x^(m-1)}.

A FieldContext wraps an irreducible modulus of degree m.  Its exp/log
tables over a generator of the multiplicative group are stepped with
gf2poly.mul and gf2poly.rem, and its trace mask (Tr(v) is the parity of
popcount(v & trace_mask)) is read from those tables, so this module does
no polynomial arithmetic of its own.  Elements are plain ints (their
coefficient masks).  There is one cached context per modulus:
get_context(m) is context_for_modulus(default_modulus(m)).

trace_table(ctx) is the package's one numpy trace table, Tr(gen^j) for
j < 2n.  The trace is linear, so Tr(sum c_i x^(e_i)) at x = gen^k is the
XOR of table[log c_i + (e_i k mod n)]: the character sums and trace
regeneration read it that way, without building a field element.

The default modulus for each m is the lexicographically smallest
primitive polynomial of degree m, where coefficient strings compare as
integers.  This makes every derived object reproducible.
"""

from __future__ import annotations

import functools

import numpy as np

from . import gf2poly
from .gf2poly import X
from .mersenne import MERSENNE_FACTORS

_MAX_TABLE_M = 22


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
    """GF(2^m) modulo a chosen irreducible polynomial."""

    def __init__(self, modulus: int):
        m = modulus.bit_length() - 1
        if m > _MAX_TABLE_M:
            raise ValueError(f"field tables limited to degree {_MAX_TABLE_M}")
        if m < 1 or not gf2poly.is_irreducible(modulus):
            raise ValueError("modulus must be irreducible of degree >= 1")
        # X has no order; any other irreducible is primitive iff X has order 2^m - 1
        self.primitive = modulus & 1 == 1 and gf2poly._order_irreducible(modulus) == (1 << m) - 1
        self.m = m
        self.modulus = modulus
        self.n = (1 << m) - 1  # multiplicative group order
        self._build_tables()

    def _build_tables(self):
        m, n, modulus = self.m, self.n, self.modulus
        # the least element of order n: no proper divisor n/p of n kills it
        gen = X if self.primitive else next(
            v for v in range(1, 1 << m)
            if all(gf2poly.pow_mod(v, n // p, modulus) != 1 for p in MERSENNE_FACTORS[m]))
        exp = [1] * (2 * n)
        log = [0] * (n + 1)
        v = 1
        for k in range(n):
            exp[k] = exp[k + n] = v
            log[v] = k
            v = gf2poly.rem(gf2poly.mul(v, gen), modulus)
        self.exp = exp
        self.log = log
        self.generator = gen
        # Tr(x^l) is the sum of the conjugates (x^l)^(2^i), read from the tables
        mask = 0
        for l in range(m):
            t = 0
            for i in range(m):
                t ^= exp[(log[1 << l] << i) % n]
            if t not in (0, 1):
                raise AssertionError("trace left the prime field")
            mask |= t << l
        self.trace_mask = mask

    # -- table-driven operations on raw masks ------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def alpha_pow(self, k: int) -> int:
        """x^k mod modulus, exponent taken modulo 2^m - 1."""
        return self.exp[self.log[X if self.m > 1 else 1] * k % self.n]

    def trace(self, a: int) -> int:
        return (a & self.trace_mask).bit_count() & 1

    def evaluate(self, p: int, v: int) -> int:
        """p(v) for p in GF(2)[X] (a coefficient mask), by Horner's rule."""
        acc = 0
        for i in range(p.bit_length() - 1, -1, -1):
            acc = self.mul(acc, v) ^ (p >> i & 1)
        return acc

    def dlog(self, a: int) -> int:
        """Discrete log base the context generator (a nonzero)."""
        if a == 0:
            raise ValueError("zero has no discrete log")
        return self.log[a]

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
    """Tr(gen^j) as bools for j < 2n, so that s + (t*k mod n) needs no reduction."""
    v = np.array(ctx.exp, dtype=np.int64) & ctx.trace_mask
    for shift in (16, 8, 4, 2, 1):  # fold the parity of up to 32 bits into bit 0
        v ^= v >> shift
    return (v & 1).astype(bool)


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
    """Minimal polynomial of alpha^t over GF(2), alpha the context generator.

    t is reduced modulo 2^m - 1 and may be negative.  t = 0 names the
    degenerate root 1 and is rejected.
    """
    if not ctx.primitive:
        raise ValueError("minimal polynomials need a primitive context")
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

    deg(h) must divide m so that the roots exist in the field.
    """
    d = h.bit_length() - 1
    if d < 1 or ctx.m % d:
        raise ValueError("polynomial does not split in this field")
    for v in range(1, 1 << ctx.m):
        if ctx.evaluate(h, v) == 0:
            return v
    raise ValueError("no root found; is h irreducible?")
