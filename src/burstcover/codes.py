"""Binary cyclic codes: construction, parity checks, window combinations.

A code of length n is specified by a square-free generator polynomial g
dividing X^n - 1.  Each irreducible factor g_i of degree d_i holds the
log t_i of a fixed root X^(t_i) in its field context GF(2^(d_i)), set
by factors_of from g or by make_bch and make_melas from their exponents.
Column j of the parity-check matrix stacks, per factor, a d_i-bit block:
X^(j t_i) over the polynomial basis.

When all factors share one degree m they also share one field context,
and each factor also carries a signed exponent label of the cyclotomic
coset of t_i.  Labels stay signed (the reciprocal factor of a Melas code
is labelled -1, its t_i is 2^m - 2); the character-sum hypotheses
read them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gf2poly
from .bitmatrix import BinaryMatrix, _closure, row_reduce
from .field import (
    _MAX_TABLE_M,
    FieldContext,
    _check_table_degree,
    context_for_modulus,
    default_modulus,
    find_root,
    min_odd_coset_member,
    minimal_polynomial,
)
from .gf2poly import X, is_square_free, mul, parse_poly, pow_mod, reciprocal, to_hex


@dataclass(frozen=True)
class CodeFactor:
    poly: int
    degree: int
    ctx: FieldContext
    t: int                    # the root of poly is X^t in ctx, 0 <= t < n
    exponent: int | None      # signed label of t's coset; None when degrees differ

    @property
    def order(self) -> int:
        """Multiplicative order of the root, X^t: n / gcd(t, n) in its context."""
        return self.ctx.n // math.gcd(self.t, self.ctx.n)


@dataclass(frozen=True)
class CyclicCode:
    n: int
    g: int
    r: int
    factors: tuple[CodeFactor, ...]
    family: str = "generic"
    params: tuple[int, ...] = ()

    def describe(self) -> str:
        if self.family == "bch":
            return f"BCH(e={self.params[0]}, m={self.params[1]})"
        if self.family == "melas":
            return f"Melas(m={self.params[0]})"
        return f"cyclic[n={self.n}, g={to_hex(self.g)}]"

    def __hash__(self) -> int:  # n and g determine the code; equality checks every field
        return hash((self.n, self.g))


def _field(m: int, modulus) -> FieldContext:
    """The context of GF(2^m) under `modulus` (any parse_poly form), or the
    default one; a modulus of another degree is refused."""
    ctx = context_for_modulus(parse_poly(modulus) if modulus else default_modulus(m))
    if ctx.m != m:
        raise ValueError(f"modulus degree {ctx.m} does not match the field degree {m}")
    return ctx


def factors_of(g: int, modulus=None) -> tuple[CodeFactor, ...]:
    """The irreducible factors of g, each with the log t of its least root X^t.

    The one place that factors a generator to find roots.  Equal-degree
    factors share the context of `modulus` (default if None); otherwise
    each gets the default context of its degree.
    """
    if g & 1 == 0:
        raise ValueError("generator must have nonzero constant term")
    if not is_square_free(g):
        raise ValueError("generator has repeated factors")
    # before trial division, whose time grows with the largest factor's degree
    _check_table_degree(gf2poly.high_degree_part(g, _MAX_TABLE_M).bit_length() - 1)
    factors = [(h, h.bit_length() - 1) for h, _ in gf2poly.factor(g)]
    equal = len({d for _, d in factors}) == 1
    if modulus is not None and not equal:
        raise ValueError("a single modulus needs equal-degree factors")
    out = []
    for h, d in factors:
        ctx = _field(d, modulus)
        t = ctx.dlog(find_root(ctx, h))
        out.append(CodeFactor(h, d, ctx, t, min_odd_coset_member(t, ctx.n) if equal else None))
    return tuple(out)


def make_cyclic_code(n: int, g, modulus=None) -> CyclicCode:
    """Cyclic code of odd length n with square-free generator g | X^n - 1."""
    g = parse_poly(g)
    if n < 1 or n % 2 == 0:
        raise ValueError("length must be odd (no repeated roots)")
    r = g.bit_length() - 1
    if r < 1 or r >= n:
        raise ValueError("generator degree must satisfy 1 <= deg(g) < n")
    if pow_mod(X, n, g) != 1:
        raise ValueError("generator does not divide X^n - 1")
    return CyclicCode(n, g, r, factors_of(g, modulus))


def make_bch(e: int, m: int, modulus=None) -> CyclicCode:
    """Primitive BCH code of length 2^m - 1 with designed distance 2e + 1.

    Requires the long-code condition 2^ceil(m/2) > 2e - 1, which makes
    the e minimal polynomials M_1, M_3, ..., M_(2e-1) pairwise coprime
    and all of degree m, so the redundancy is exactly e*m.
    """
    if e < 1 or m < 2:
        raise ValueError("need e >= 1 and m >= 2")
    _check_table_degree(m)  # before the shifts by m and the modulus search
    if not (1 << ((m + 1) // 2)) > 2 * e - 1:
        raise ValueError(
            f"long-code condition violated: 2^ceil(m/2) = {1 << ((m + 1) // 2)}"
            f" must exceed 2e-1 = {2 * e - 1}"
        )
    ctx = _field(m, modulus)
    n = (1 << m) - 1
    g = 1
    factors = []
    for i in range(1, e + 1):
        t = 2 * i - 1
        h = minimal_polynomial(ctx, t)
        if h.bit_length() - 1 != m:
            raise AssertionError("minimal polynomial degree differs from m")
        g = mul(g, h)
        factors.append(CodeFactor(h, m, ctx, t % n, t))
    if len({fac.poly for fac in factors}) != e:
        raise AssertionError("factors were not coprime")
    return CyclicCode(n, g, e * m, tuple(factors), family="bch", params=(e, m))


def make_melas(m: int, modulus=None) -> CyclicCode:
    """Melas code of length 2^m - 1: roots alpha and alpha^(-1), m >= 3."""
    if m < 3:
        raise ValueError("need m >= 3")
    _check_table_degree(m)  # before the modulus search
    ctx = _field(m, modulus)
    m1 = ctx.modulus
    m1_rev = reciprocal(m1)
    if m1_rev == m1:
        raise ValueError("modulus is self-reciprocal: repeated roots")
    n = (1 << m) - 1
    factors = (
        CodeFactor(m1, m, ctx, 1, 1),
        CodeFactor(m1_rev, m, ctx, n - 1, -1),
    )
    return CyclicCode(n, mul(m1, m1_rev), 2 * m, factors, family="melas", params=(m,))


@functools.lru_cache(maxsize=None)
def parity_check_matrix(code: CyclicCode) -> BinaryMatrix:
    """The r x n parity-check matrix, stored as its n columns.

    Column j is OR_i root_i^j << (d_1 + ... + d_(i-1)): factor i's root
    to the j-th power, as its d_i coefficient bits over the polynomial
    basis, placed after the blocks of the factors before it.
    """
    columns = [0] * code.n
    offset = 0
    for fac in code.factors:
        powers = fac.ctx.exp[np.arange(code.n) * fac.t % fac.ctx.n].tolist()  # ints, for the shift
        columns = [c | p << offset for c, p in zip(columns, powers)]
        offset += fac.degree
    # no nonzero codeword has degree < r, so columns 0..r-1 are independent
    if len(row_reduce(columns[:code.r], code.r)[1]) != code.r:
        raise AssertionError("parity-check matrix is rank deficient")
    return BinaryMatrix(code.r, code.n, tuple(columns))


def lc_eval(code: CyclicCode, i: int, f: int) -> int:
    """Syndrome of the window combination (i, f): sum of columns i+j, j in supp(f).

    Column indices wrap modulo n.  Reads one parity column per set bit of
    f, at most b' of them for a certificate of width <= b'; the column
    cache hashes the code on (n, g).
    """
    if not 0 <= i < code.n:
        raise ValueError("window start out of range")
    if f < 0:
        raise ValueError("combination pattern must be nonnegative")
    cols = parity_check_matrix(code).columns
    s = 0
    while f:
        low = f & -f
        s ^= cols[(i + low.bit_length() - 1) % code.n]
        f ^= low
    return s


def codewords(code: CyclicCode) -> np.ndarray:
    """All codewords as n-bit masks, entry u the product u*g, deg(u) < n - r:
    the XOR closure of g * X^k for k < n - r.  The masks are int64, so n <= 63."""
    return _closure([code.g << k for k in range(code.n - code.r)])


def code_to_descriptor(code: CyclicCode) -> dict:
    shared = code.factors[0].ctx if len({f.ctx for f in code.factors}) == 1 else None
    return {
        "family": code.family,
        "params": list(code.params),
        "n": code.n,
        "r": code.r,
        "g_hex": to_hex(code.g),
        "modulus_hex": to_hex(shared.modulus) if shared else None,
        "factors": [
            {
                "poly_hex": to_hex(f.poly),
                "degree": f.degree,
                "exponent": f.exponent,
                "modulus_hex": to_hex(f.ctx.modulus),
            }
            for f in code.factors
        ],
    }


# The `params` of each family, in order: bch codes are built from (e, m),
# melas codes from (m,), generic codes from `n` and `g_hex` instead.
FAMILY_PARAMS = {"bch": ("e", "m"), "melas": ("m",), "generic": ()}


def _descriptor_value(desc: dict, key: str):
    """desc[key], or None; hex fields parsed, so that 0x1a matches 0x1A."""
    value = desc.get(key)
    if value is None or not key.endswith("_hex"):
        return value
    try:
        return parse_poly(value)
    except (AttributeError, TypeError, ValueError) as exc:
        # parse_poly names the fault of a string or int; a JSON list gets only the plain message
        why = f": {exc}" if isinstance(exc, ValueError) else ""
        raise ValueError(f"descriptor key {key!r}: {value!r} is not a polynomial{why}") from None


def descriptor_length(desc: dict) -> int:
    """The length of the code a well-formed descriptor describes, unbuilt:
    `n`, or 2^m - 1 for bch and melas codes (m their last param)."""
    if not isinstance(desc, dict):
        raise ValueError("a code descriptor is a JSON object")
    family = desc.get("family", "generic")
    if family not in FAMILY_PARAMS:
        raise ValueError(f"descriptor key 'family': unknown family {family!r}")
    for key in ("n", "r"):  # JSON true is a Python int; type() tells it apart
        if desc.get(key) is not None and type(desc[key]) is not int:
            raise ValueError(f"descriptor key {key!r}: {desc[key]!r} is not an integer")
    _descriptor_value(desc, "modulus_hex")
    if family == "generic":
        if desc.get("n") is None or _descriptor_value(desc, "g_hex") is None:
            raise ValueError("descriptor keys 'n' (an integer) and 'g_hex' "
                             "are required for a generic code")
        return desc["n"]
    names = FAMILY_PARAMS[family]
    params = desc.get("params")
    if not (isinstance(params, list) and len(params) == len(names)
            and all(type(p) is int for p in params)):
        raise ValueError(f"descriptor key 'params': {family} needs the integers "
                         f"[{', '.join(names)}], got {params!r}")
    _check_table_degree(params[-1])  # before the shift by m
    n = (1 << max(params[-1], 0)) - 1
    if desc.get("n") not in (None, n):
        raise ValueError(f"descriptor key 'n' is {desc['n']!r}, but the code it describes has {n}")
    return n


def code_from_descriptor(desc: dict) -> CyclicCode:
    """Rebuild a code, then check every field the descriptor gives against it.

    bch and melas codes are built from `params`, generic ones from `n` and
    `g_hex`.  Each of `params`, `n`, `r`, `g_hex` and `modulus_hex` that the
    descriptor gives (null counts as absent) must match the rebuilt code,
    so a descriptor never loads as a different code.
    """
    n = descriptor_length(desc)
    modulus = _descriptor_value(desc, "modulus_hex")
    family = desc.get("family", "generic")
    if family == "generic":
        code = make_cyclic_code(n, _descriptor_value(desc, "g_hex"), modulus)
    else:
        code = (make_bch if family == "bch" else make_melas)(*desc["params"], modulus)
    built = code_to_descriptor(code)
    for key in ("params", "r", "g_hex", "modulus_hex"):
        given = _descriptor_value(desc, key)
        if given is not None and given != _descriptor_value(built, key):
            raise ValueError(f"descriptor key {key!r} is {desc[key]!r}, "
                             f"but the code it describes has {built[key]!r}")
    return code
