"""Polynomial arithmetic over GF(2), with polynomials packed into ints.

A polynomial sum(c_i * X^i) is represented by the integer whose bit i is
c_i.  The zero polynomial is 0, X^3+X+1 is 0b1011 = 0xB, and polynomial
equality is integer equality, so the representation is canonical by
construction.  Addition is XOR, and a nonzero a has degree
a.bit_length() - 1.  This is the package's one implementation of
arithmetic in GF(2)[X]; only the shift X*v mod g is written inline
elsewhere (field's exp table, lfsr's steppers).  mul and divmod_poly take
one step per set bit of the multiplier and of the quotient.

Three text forms are accepted by parse_poly and used throughout the CLI:
a hex mask little-endian by coefficient index ("0xB"), a human-readable
sum of terms ("x^3+x+1"), and a coefficient list ("[1,1,0,1]" = c0..c3).
"""

from __future__ import annotations

from math import lcm

from .mersenne import MAX_ORDER_DEGREE, MERSENNE_FACTORS

#: The polynomial X.
X = 0b10


def mul(a: int, b: int) -> int:
    """Carryless product of polynomials a and b."""
    if a < b:
        a, b = b, a
    r = 0
    while b:
        low = b & -b
        r ^= a * low
        b ^= low
    return r


def divmod_poly(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of a divided by b, for nonzero b."""
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = b.bit_length() - 1
    q = 0
    while (shift := a.bit_length() - 1 - db) >= 0:
        a ^= b << shift
        q |= 1 << shift
    return q, a


def rem(a: int, b: int) -> int:
    """Remainder of a modulo b, for nonzero b."""
    return divmod_poly(a, b)[1]


def quot(a: int, b: int) -> int:
    """Quotient of a divided by b, for nonzero b."""
    return divmod_poly(a, b)[0]


def gcd(a: int, b: int) -> int:
    """Greatest common divisor; gcd(a, 0) = a by convention."""
    while b:
        a, b = b, rem(a, b)
    return a


def pow_mod(a: int, e: int, m: int) -> int:
    """Raise a to the power e modulo m (e >= 0, m nonzero)."""
    if m == 0:
        raise ZeroDivisionError("reduction by the zero polynomial")
    r = 1
    a = rem(a, m)
    while e:
        if e & 1:
            r = rem(mul(r, a), m)
        a = rem(mul(a, a), m)
        e >>= 1
    return r


def derivative(a: int) -> int:
    """Formal derivative: bits at odd exponents, shifted down one."""
    r = 0
    i = 1
    while a >> i:
        if a >> i & 1:
            r |= 1 << (i - 1)
        i += 2
    return r


def reciprocal(a: int) -> int:
    """X^deg(a) * a(1/X): the coefficient string reversed."""
    d = a.bit_length() - 1
    r = 0
    for i in range(d + 1):
        if a >> i & 1:
            r |= 1 << (d - i)
    return r


def is_irreducible(a: int) -> bool:
    """Irreducibility test for a over GF(2).

    a is composite iff it shares a factor with X^(2^k) - X for some
    k <= deg(a)/2, since any proper factorization contains an irreducible
    factor of degree at most deg(a)/2.
    """
    if a <= 1:
        return False
    b = X
    for _ in range((a.bit_length() - 1) // 2):
        b = rem(mul(b, b), a)
        if gcd(b ^ X, a) != 1:
            return False
    return True


def is_square_free(a: int) -> bool:
    """True iff a has no repeated irreducible factor (a nonzero)."""
    if a == 0:
        raise ValueError("the zero polynomial has no factorization")
    return gcd(a, derivative(a)) == 1


def high_degree_part(a: int, d: int) -> int:
    """The product of the irreducible factors of degree > d of square-free a.

    Step k divides out gcd(X^(2^k) - X, a), the product of the factors
    whose degree divides k (the test of is_irreducible), for k = 1..d.
    """
    b = X
    for _ in range(d):
        b = rem(mul(b, b), a)
        a = quot(a, gcd(b ^ X, a))
    return a


def factor(g: int) -> list[tuple[int, int]]:
    """Factor g into (irreducible, multiplicity) pairs, ascending.

    Trial division in increasing integer order; composite candidates can
    never divide because their own factors were removed first.
    """
    if g == 0:
        raise ValueError("the zero polynomial has no factorization")
    out = []
    m = 0
    while g & 1 == 0:
        g >>= 1
        m += 1
    if m:
        out.append((X, m))
    c = 3
    while 2 * (c.bit_length() - 1) <= g.bit_length() - 1:
        if rem(g, c) == 0:
            m = 0
            while rem(g, c) == 0:
                g = quot(g, c)
                m += 1
            out.append((c, m))
        c += 2
    if g.bit_length() > 1:
        out.append((g, 1))
    return out


def _order_irreducible(h: int) -> int:
    d = h.bit_length() - 1
    if d > MAX_ORDER_DEGREE:
        raise ValueError(f"order computation limited to degree {MAX_ORDER_DEGREE}")
    e = (1 << d) - 1
    for p in MERSENNE_FACTORS[d]:
        while e % p == 0 and pow_mod(X, e // p, h) == 1:
            e //= p
    return e


def poly_order(g: int) -> int:
    """Least n >= 1 such that g divides X^n - 1.

    Requires g nonzero with nonzero constant term.  For each irreducible
    factor the order is found by stripping primes from 2^d - 1; repeated
    factors contribute a power-of-two multiplier.
    """
    if g == 0:
        raise ValueError("the zero polynomial has no order")
    if g & 1 == 0:
        raise ValueError("X divides g, so g has no order")
    if g == 1:
        return 1
    n = 1
    max_mult = 1
    for h, m in factor(g):
        n = lcm(n, _order_irreducible(h))
        max_mult = max(max_mult, m)
    t = 1
    while t < max_mult:
        t <<= 1
        n <<= 1
    return n


def is_primitive(g: int) -> bool:
    """True iff g is irreducible and its order is 2^deg(g) - 1."""
    if g & 1 == 0 or not is_irreducible(g):
        return False
    d = g.bit_length() - 1
    return _order_irreducible(g) == (1 << d) - 1


# ---------------------------------------------------------------------------
# text forms

def to_hex(a: int) -> str:
    """Hex mask form, little-endian by coefficient index (X^3+X+1 -> 0xB)."""
    return "0x" + format(a, "X")


def to_terms(a: int) -> str:
    """Human form as a sum of powers, highest degree first."""
    if a == 0:
        return "0"
    parts = []
    for i in range(a.bit_length() - 1, -1, -1):
        if a >> i & 1:
            if i == 0:
                parts.append("1")
            elif i == 1:
                parts.append("x")
            else:
                parts.append(f"x^{i}")
    return "+".join(parts)


def _from_terms(s: str) -> int:
    a = 0
    for term in s.replace(" ", "").lower().split("+"):
        if term == "0":
            t = 0
        elif term == "1":
            t = 1
        elif term == "x":
            t = X
        elif term.startswith("x^"):
            k = int(term[2:])
            if k >= 1 << 24:  # before the shift allocates 2^k bits
                raise ValueError(f"polynomial term {term!r}: exponents stop below 2^24")
            t = 1 << k
        else:
            raise ValueError(f"bad polynomial term {term!r}")
        if a & t:
            raise ValueError(f"repeated polynomial term {term!r}")
        a ^= t
    return a


def parse_poly(s) -> int:
    """Parse any accepted polynomial text form (or pass an int through)."""
    if isinstance(s, int):
        if s < 0:
            raise ValueError("polynomial masks are nonnegative")
        return s
    s = s.strip()
    if s.lower().startswith("0x"):
        return int(s, 16)
    if s.startswith("["):
        bits = [int(v) for v in s.strip("[]").split(",") if v.strip()]
        if any(b not in (0, 1) for b in bits):
            raise ValueError("coefficient lists are binary")
        return sum(b << i for i, b in enumerate(bits))
    if s.isdigit():
        return int(s)
    return _from_terms(s)

