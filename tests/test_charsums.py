import decimal
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from burstcover import gf2poly
from burstcover import charsums
from burstcover.charsums import (
    LaurentExponentForm,
    char_sum,
    find_avoidance_witness,
    gcd_power_inequality_check,
    laurent_family_check,
    laurent_weil_check,
    niederreiter_check,
    pattern_count_via_charsums,
    pattern_theorem_check,
    wcu_check,
    wcu_family_check,
)
from burstcover.codes import make_bch, make_cyclic_code, make_melas
from burstcover.field import default_modulus, get_context
from burstcover.gf2poly import mul
from burstcover.lfsr import LfsrSpec, trace_representation, window_histogram


def _char_sum_oracle(m, eval_f):
    """Independent evaluation via raw polynomial arithmetic, no tables."""
    mod = default_modulus(m)

    def trace(v):
        acc, p = 0, v
        for _ in range(m):
            acc ^= p
            p = gf2poly.rem(gf2poly.mul(p, p), mod)
        return acc

    return sum(1 - 2 * trace(eval_f(x)) for x in range(1, 1 << m))


def test_char_sum_of_x():
    ctx = get_context(5)
    form = LaurentExponentForm(positive=((1, 1),))
    assert char_sum(ctx, form, domain="all") == 0
    assert char_sum(ctx, form, domain="nonzero") == -1


def test_char_sum_cubic_against_oracle():
    m = 4
    ctx = get_context(m)
    form = LaurentExponentForm(positive=((1, 3),))
    s = char_sum(ctx, form, domain="nonzero")
    mod = default_modulus(m)
    oracle = _char_sum_oracle(m, lambda x: gf2poly.rem(
        gf2poly.mul(gf2poly.mul(x, x), x), mod))
    assert s == oracle
    assert abs(s + 1) <= 2 * 2 ** (m / 2)  # (3-1) sqrt(q) on the full field


def test_char_sum_domain_consistency():
    ctx = get_context(6)
    for coeff, t in ((1, 3), (5, 5), (17, 1)):
        form = LaurentExponentForm(positive=((coeff, t),))
        assert char_sum(ctx, form, "all") == 1 + char_sum(ctx, form, "nonzero")


def test_char_sum_pole_rejected():
    ctx = get_context(4)
    form = LaurentExponentForm(positive=((1, 1),), negative=((1, 1),))
    with pytest.raises(ValueError):
        char_sum(ctx, form, domain="all")


def test_laurent_form_validation():
    with pytest.raises(ValueError):
        LaurentExponentForm(positive=((1, 2),))  # even exponent
    with pytest.raises(ValueError):
        LaurentExponentForm(positive=((0, 1),))  # zero coefficient
    with pytest.raises(ValueError):
        LaurentExponentForm(positive=((1, 3), (1, 1)))  # not increasing


def test_wcu_degree_one_sum_is_zero():
    ctx = get_context(7)
    res = wcu_check(ctx, [0, 1])
    assert res.applicable and res.ok and res.sum == 0


def test_wcu_even_degree_inapplicable():
    ctx = get_context(5)
    res = wcu_check(ctx, [1, 0, 1])
    assert not res.applicable


@st.composite
def _bound_cases(draw):
    """(xs, m, a, b), the xs spread at random or within 2 of the bound."""
    m = draw(st.integers(min_value=0, max_value=40))
    a = draw(st.integers(min_value=0, max_value=50))
    b = draw(st.integers(min_value=0, max_value=1000))
    edge = math.isqrt(a * a << m) + b
    near = st.builds(lambda sign, delta: sign * (edge + delta),
                     st.sampled_from([1, -1]), st.integers(min_value=-2, max_value=2))
    xs = draw(st.lists(near | st.integers(min_value=-10**9, max_value=10**9),
                       min_size=1, max_size=8))
    return xs, m, a, b


@given(_bound_cases())
@settings(max_examples=300, deadline=None)
def test_within_matches_decimal_oracle(case):
    """The one exact bound test against |x| <= a sqrt(2^m) + b at 60 digits."""
    xs, m, a, b = case
    with decimal.localcontext(decimal.Context(prec=60)):
        bound = a * decimal.Decimal(2**m).sqrt() + b
        expected = [abs(x) <= bound for x in xs]
    assert [charsums._within(x, m, a, b) for x in xs] == expected
    assert charsums._within(np.array(xs, dtype=np.int64), m, a, b).tolist() == expected


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_wcu_random_cubics(m, seed):
    ctx = get_context(m)
    rng = random.Random(seed)
    coeffs = [rng.randrange(1 << m) for _ in range(3)] + [rng.randrange(1, 1 << m)]
    res = wcu_check(ctx, coeffs)
    assert res.applicable and res.ok


def test_wcu_matches_scalar_oracle():
    m = 5
    ctx = get_context(m)
    mod = default_modulus(m)
    coeffs = [3, 7, 0, 1]  # x^3 + 7x + 3
    res = wcu_check(ctx, coeffs)

    def f(x):
        acc = 0
        for c in reversed(coeffs):
            acc = gf2poly.rem(gf2poly.mul(acc, x), mod) ^ c
        return acc

    oracle = _char_sum_oracle(m, f) + (1 - 2 * ctx.trace(coeffs[0]))
    assert res.sum == oracle


@given(st.integers(min_value=2, max_value=6), st.sampled_from([1, 3, 5]),
       st.lists(st.integers(min_value=0, max_value=63), min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
def test_wcu_sum_matches_scalar_oracle_any_polynomial(m, deg, raw):
    ctx = get_context(m)
    mod = default_modulus(m)
    coeffs = [c & ctx.n for c in raw[:deg]] + [(raw[deg] & ctx.n) or 1]

    def f(x):
        acc = 0
        for c in reversed(coeffs):
            acc = gf2poly.rem(gf2poly.mul(acc, x), mod) ^ c
        return acc

    oracle = _char_sum_oracle(m, f) + (1 - 2 * ctx.trace(coeffs[0]))
    assert wcu_check(ctx, coeffs).sum == oracle


def test_laurent_kloosterman_shape():
    ctx = get_context(8)
    for a, b in ((1, 1), (2, 77), (130, 9)):
        form = LaurentExponentForm(positive=((a, 1),), negative=((b, 1),))
        res = laurent_weil_check(ctx, form)
        assert res.applicable and res.ok
        assert res.bound == 2 * math.sqrt(256)


def test_laurent_empty_negative_routes_to_wcu():
    ctx = get_context(6)
    form = LaurentExponentForm(positive=((1, 3),))
    res = laurent_weil_check(ctx, form)
    assert res.applicable  # handled by the polynomial bound
    assert res.ok


def test_laurent_random_small_forms():
    rng = random.Random(11)
    for m in range(2, 11):
        ctx = get_context(m)
        for _ in range(30):
            t = rng.choice((1, 3, 5))
            u = rng.choice((1, 3, 5))
            a = rng.randrange(1, 1 << m)
            b = rng.randrange(1, 1 << m)
            form = LaurentExponentForm(positive=((a, t),), negative=((b, u),))
            assert laurent_weil_check(ctx, form).ok


def test_wcu_family_checks():
    for m in range(2, 9):
        rep = wcu_family_check(m)
        assert rep.ok, rep.violations
        assert rep.cases_checked == (1 << m) ** 2 + 2 * (1 << m)


def test_laurent_family_check_deterministic():
    r1 = laurent_family_check(8, 3, 5, 50, seed=123)
    r2 = laurent_family_check(8, 3, 5, 50, seed=123)
    assert r1 == r2 and r1.ok


def test_niederreiter_pn_single_bit():
    m = 6
    spec = LfsrSpec(default_modulus(m), (1,) + (0,) * (m - 1))
    rep = niederreiter_check(spec, 1)
    assert rep.applicable and rep.ok and not rep.vacuous
    counts = window_histogram(default_modulus(m), 1, 1, (1 << m) - 1)
    assert sorted(counts) == [(1 << (m - 1)) - 1, 1 << (m - 1)]


def test_niederreiter_vacuous_for_equal_degree_pair():
    g = mul(0b1000011, 0b1100001)  # two primitive sextics
    spec = LfsrSpec.from_galois(g, 0b101010101)
    rep = niederreiter_check(spec, 1)
    assert rep.applicable and rep.vacuous and rep.ok


def test_niederreiter_mixed_degrees():
    g = mul(0xB, 0b100101)  # degrees 3 and 5
    code_order = gf2poly.poly_order(g)
    assert code_order == 217
    for load in (1, 5, 100, 217):
        spec = LfsrSpec.from_galois(g, load)
        for s in (1, 2, 3):
            rep = niederreiter_check(spec, s)
            assert rep.applicable and rep.ok
    spec = LfsrSpec.from_galois(g, 1)
    assert not niederreiter_check(spec, 4).applicable


def test_pattern_theorem_bch26():
    code = make_bch(2, 6)
    rep = pattern_theorem_check(code, "equal_degree", 1)
    assert rep.applicable and rep.ok
    assert rep.guaranteed_s == 2  # floor(6/2 - log2(2))
    counts_bound = (1 - 0.5) * ((3 - 1) * 2**3 + 1)
    # s=1: |N - 31.5| <= 8.5 so N in [23, 40]
    for load in (1, 77, 4000):
        counts = window_histogram(code.g, load, 1, 63)
        assert 23 <= counts[0] <= 40 and 23 <= counts[1] <= 40
    assert counts_bound == 8.5


def test_pattern_theorem_inapplicable_cases():
    assert not pattern_theorem_check(make_bch(1, 5), "equal_degree", 1).applicable
    mixed = make_cyclic_code(105, mul(0xB, 0x13))
    assert not pattern_theorem_check(mixed, "equal_degree", 2).applicable
    assert not pattern_theorem_check(make_bch(2, 6), "melas_mixed", 2).applicable
    assert not pattern_theorem_check(make_bch(2, 6), "equal_degree", 7).applicable


@pytest.mark.parametrize("s", [-1, 0, 6])
def test_avoidance_length_checked_before_any_orbit(s, monkeypatch):
    def no_walk(g):
        raise AssertionError("walked the orbits")

    monkeypatch.setattr(charsums, "orbit_representatives", no_walk)
    with pytest.raises(ValueError, match=r"\[1, 5\]"):
        find_avoidance_witness(make_bch(2, 5), s)


def test_melas_mixed_theorem():
    code = make_melas(6)
    rep = pattern_theorem_check(code, "melas_mixed", 1)
    assert rep.applicable and rep.ok
    assert rep.guaranteed_s == 2  # floor(6/2 - log2(1+1))
    assert rep.stronger_bound_sequences >= 1  # the pure PN components


def test_pattern_count_character_duality():
    from burstcover.field import find_root

    m = 6
    code = make_bch(2, m)
    ctx = code.factors[0].ctx
    spec = LfsrSpec.from_galois(code.g, 0b110010101011)
    gammas = trace_representation(spec)
    terms = []
    for fac in code.factors:
        gamma = next(gv for h, gv in gammas if h == fac.poly)
        # the representation picked its own (conjugate) root of the factor
        terms.append((gamma, ctx.dlog(find_root(ctx, fac.poly))))
    for s, ys in ((1, (0, 1)), (2, (0, 3)), (3, (1, 5))):
        counts = window_histogram(code.g, 0b110010101011, s, (1 << m) - 1)
        for y in ys:
            bits = [(y >> i) & 1 for i in range(s)]
            assert pattern_count_via_charsums(ctx, terms, bits) == counts[y]


def test_gcd_power_inequality_basic():
    assert gcd_power_inequality_check(1, 1)
    assert gcd_power_inequality_check(2, 4)
    with pytest.raises(ValueError):
        gcd_power_inequality_check(0, 3)


def test_gcd_power_inequality_small_grid():
    for a in range(1, 13):
        for b in range(1, 13):
            assert gcd_power_inequality_check(a, b)


def test_gcd_power_inequality_against_float():
    # floating-point cross-check away from ties
    for a in range(1, 20):
        for b in range(1, 20):
            c = math.gcd(a, b)
            lhs = 1 + (2**a - 1) * (2**b - 1) / ((2**c - 1) * 2 ** ((a + b) / 2))
            rhs = 2 ** ((a + b) / 2 - c)
            if abs(lhs - rhs) > 1e-6:
                assert gcd_power_inequality_check(a, b) == (lhs > rhs)
