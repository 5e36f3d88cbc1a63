import math

import pytest
from hypothesis import given, settings, strategies as st

from burstcover.gf2poly import (
    derivative,
    divmod_poly,
    factor,
    gcd,
    high_degree_part,
    is_irreducible,
    is_primitive,
    is_square_free,
    mul,
    parse_poly,
    poly_order,
    reciprocal,
    rem,
    to_hex,
    to_terms,
)

polys = st.integers(min_value=0, max_value=(1 << 16) - 1)
nonzero_polys = st.integers(min_value=1, max_value=(1 << 16) - 1)


def monic(d: int, low: int) -> int:
    return (1 << d) | (low & ((1 << d) - 1))


def test_characteristic_two_addition():
    assert (0b11 ^ 0b11) == 0


def test_frobenius_square():
    assert mul(0b11, 0b11) == 0b101  # (X+1)^2 = X^2+1


def test_x7_plus_1_divisible_by_period_7_polynomial():
    assert rem((1 << 7) | 1, 0xB) == 0


@given(polys, nonzero_polys)
def test_divmod_reconstructs(a, b):
    q, r = divmod_poly(a, b)
    assert mul(q, b) ^ r == a
    assert r.bit_length() < b.bit_length()


def _mul_by_bit_positions(a: int, b: int) -> int:
    """Oracle: one step per bit position of b, set or not."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _divmod_by_bit_positions(a: int, b: int) -> tuple[int, int]:
    """Oracle: one step per quotient bit position, set or not."""
    da = a.bit_length() - 1
    db = b.bit_length() - 1
    if da < db:
        return 0, a
    q = 0
    b <<= da - db
    for i in range(da - db, -1, -1):
        if a >> (db + i) & 1:
            a ^= b
            q |= 1 << i
        b >>= 1
    return q, a


wide_polys = st.integers(min_value=0, max_value=(1 << 200) - 1)


@given(wide_polys, wide_polys)
def test_mul_matches_the_bit_position_loop(a, b):
    assert mul(a, b) == mul(b, a) == _mul_by_bit_positions(a, b)


@given(wide_polys, st.integers(min_value=1, max_value=(1 << 80) - 1))
def test_divmod_matches_the_bit_position_loop(a, b):
    assert divmod_poly(a, b) == _divmod_by_bit_positions(a, b)


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        divmod_poly(5, 0)
    with pytest.raises(ZeroDivisionError):
        rem(5, 0)


@given(polys, polys, nonzero_polys)
def test_rem_is_ring_homomorphism(a, b, g):
    lhs = rem(mul(a, b), g)
    rhs = rem(mul(rem(a, g), rem(b, g)), g)
    assert lhs == rhs


@given(polys, polys)
def test_gcd_divides_both(a, b):
    d = gcd(a, b)
    if d:
        assert rem(a, d) == 0 and rem(b, d) == 0
    assert gcd(a, 0) == a


def _order_by_trial(g: int) -> int:
    # independent oracle: smallest n with g | X^n + 1
    d = g.bit_length() - 1
    for n in range(1, (1 << d)):
        if rem((1 << n) | 1, g) == 0:
            return n
    raise AssertionError("no order found")


@pytest.mark.parametrize("g,expected", [
    (0xB, 7),
    (0b11, 1),
    (mul(0xB, 0x13), 105),
    (0b11111, 5),
])
def test_poly_order_fixed_cases(g, expected):
    assert poly_order(g) == expected


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=63))
def test_poly_order_matches_trial_search(d, low):
    g = monic(d, low | 1)  # force nonzero constant term
    assert poly_order(g) == _order_by_trial(g)


def test_poly_order_rejects_bad_inputs():
    with pytest.raises(ValueError):
        poly_order(0)
    with pytest.raises(ValueError):
        poly_order(0b10)  # X divides


@given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=127),
       st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=127))
def test_order_of_coprime_product_is_lcm(d1, low1, d2, low2):
    g1, g2 = monic(d1, low1 | 1), monic(d2, low2 | 1)
    if not (is_square_free(g1) and is_square_free(g2) and gcd(g1, g2) == 1):
        return
    assert poly_order(mul(g1, g2)) == math.lcm(poly_order(g1), poly_order(g2))


def test_factor_and_primitivity_fixed_cases():
    assert factor(0xB) == [(0xB, 1)]
    assert is_irreducible(0xB) and is_primitive(0xB) and is_square_free(0xB)

    assert factor(0b11111) == [(0b11111, 1)]  # order 5, not 15
    assert is_irreducible(0b11111) and not is_primitive(0b11111)

    assert factor(0b101) == [(0b11, 2)]  # (X+1)^2
    assert not is_square_free(0b101) and not is_irreducible(0b101)
    assert not is_primitive(0b101)


@given(nonzero_polys)
@settings(max_examples=300)
def test_factor_reconstructs_and_is_irreducible(g):
    prod = 1
    for h, m in factor(g):
        assert is_irreducible(h)
        for _ in range(m):
            prod = mul(prod, h)
    assert prod == g


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=4095))
def test_reciprocal_involution(d, low):
    g = monic(d, low | 1)
    assert reciprocal(reciprocal(g)) == g
    assert reciprocal(g).bit_length() == g.bit_length()


def test_reciprocal_example():
    assert reciprocal(0x13) == 0b11001  # X^4+X+1 -> X^4+X^3+1


@given(polys)
def test_square_free_matches_factorization(a):
    if a == 0:
        return
    assert is_square_free(a) == all(m == 1 for _, m in factor(a))


@given(nonzero_polys, st.integers(min_value=0, max_value=16))
def test_high_degree_part_matches_factorization(a, d):
    if not is_square_free(a):
        return
    expected = 1
    for h, _ in factor(a):
        if h.bit_length() - 1 > d:
            expected = mul(expected, h)
    assert high_degree_part(a, d) == expected


def test_derivative_examples():
    assert derivative(0b101) == 0       # X^2+1: even exponents vanish
    assert derivative(0b1011) == 0b101  # X^3+X+1 -> X^2+1
    assert derivative(0b11) == 1


def test_primitivity():
    assert is_primitive(0xB)
    assert not is_primitive(0b11111)
    assert not is_primitive(mul(0xB, 0x13))


@pytest.mark.parametrize("text,expected", [
    ("0xB", 0xB),
    ("x^3+x+1", 0xB),
    ("[1,1,0,1]", 0xB),
    ("X^4 + X + 1", 0x13),
    ("0", 0),
    ("1", 1),
])
def test_parse_poly_forms(text, expected):
    assert parse_poly(text) == expected


@given(nonzero_polys)
def test_text_round_trips(a):
    assert parse_poly(to_hex(a)) == a
    assert parse_poly(to_terms(a)) == a


def test_parse_refuses_term_exponents_past_2_to_24():
    assert parse_poly(f"x^{(1 << 24) - 1}+1") == (1 << (1 << 24) - 1) | 1
    for text in (f"x^{1 << 24}", "x^1000000000000+x+1"):
        with pytest.raises(ValueError, match="exponents stop below 2\\^24"):
            parse_poly(text)


def test_parse_rejects_repeated_terms():
    with pytest.raises(ValueError):
        parse_poly("x+x")
