import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from burstcover import gf2poly
from burstcover.field import (
    FieldContext,
    context_for_modulus,
    cyclotomic_coset,
    default_modulus,
    find_root,
    get_context,
    min_odd_coset_member,
    minimal_polynomial,
    primitive_moduli,
    trace_table,
)
from burstcover.gf2poly import X, is_irreducible, is_primitive, reciprocal

# Every irreducible modulus of degree <= 10 with a nonzero constant term
# (225 of them; X itself is irreducible but names no multiplicative group).
SMALL_MODULI = [p for p in range(3, 1 << 11, 2) if is_irreducible(p)]
# The 160 of them that are primitive: the moduli a FieldContext accepts.
SMALL_PRIMITIVE = [p for p in SMALL_MODULI if is_primitive(p)]


def test_default_moduli_are_smallest_primitive():
    assert default_modulus(1) == 0b11
    assert default_modulus(2) == 0b111
    assert default_modulus(3) == 0xB
    assert default_modulus(4) == 0x13
    assert default_modulus(8) == 0x11D  # 0x11B is irreducible but has order 51


def test_primitive_moduli_counts():
    # phi(2^m - 1) / m conjugate classes of primitive elements
    assert len(primitive_moduli(4)) == 2
    assert len(primitive_moduli(5)) == 6
    assert len(primitive_moduli(6)) == 6


def test_minimal_polynomial_examples():
    ctx = get_context(4)
    assert minimal_polynomial(ctx, 1) == 0x13
    assert minimal_polynomial(ctx, 3) == 0b11111
    assert minimal_polynomial(ctx, -1) == reciprocal(0x13)


def test_minimal_polynomial_degenerate_root():
    ctx = get_context(4)
    for t in (0, 15):  # 15 = 0 mod 15
        with pytest.raises(ValueError):
            minimal_polynomial(ctx, t)


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=-500, max_value=500))
@settings(max_examples=80)
def test_minimal_polynomial_frobenius_invariance(m, t):
    ctx = get_context(m)
    if t % ctx.n == 0:
        return
    assert minimal_polynomial(ctx, t) == minimal_polynomial(ctx, 2 * t)


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=500))
@settings(max_examples=80)
def test_minimal_polynomial_has_its_root(m, t):
    ctx = get_context(m)
    t %= ctx.n
    if t == 0:
        return
    h = minimal_polynomial(ctx, t)
    root = ctx.alpha_pow(t)
    acc = 0
    for i in range(h.bit_length() - 1, -1, -1):
        acc = ctx.mul(acc, root) ^ (h >> i & 1)
    assert acc == 0
    assert ctx.m % (h.bit_length() - 1) == 0


def test_trace_fixed_values():
    for m in range(1, 10):
        ctx = get_context(m)
        assert ctx.trace(0) == 0
        assert ctx.trace(1) == m % 2


@pytest.mark.parametrize("m", range(1, 13))
def test_trace_balance(m):
    ctx = get_context(m)
    zeros = sum(1 for v in range(1 << m) if ctx.trace(v) == 0)
    assert zeros == 1 << (m - 1)


@pytest.mark.parametrize("m", range(1, 9))
def test_trace_linearity_exhaustive(m):
    ctx = get_context(m)
    traces = [ctx.trace(v) for v in range(1 << m)]
    for x in range(1 << m):
        for y in range(1 << m):
            assert traces[x ^ y] == traces[x] ^ traces[y]


def test_trace_against_direct_power_sum():
    # independent oracle: Tr(x) = x + x^2 + ... + x^(2^(m-1)) via raw poly ops
    for m in (3, 5, 6):
        mod = default_modulus(m)
        ctx = get_context(m)
        for v in range(1 << m):
            acc, p = 0, v
            for _ in range(m):
                acc ^= p
                p = gf2poly.rem(gf2poly.mul(p, p), mod)
            assert acc in (0, 1)
            assert ctx.trace(v) == acc


def test_exp_log_tables():
    ctx = get_context(6)
    for k in range(ctx.n):
        assert ctx.log[ctx.exp[k]] == k
    a, b = 0b101, 0b11001
    assert ctx.mul(a, b) == gf2poly.rem(gf2poly.mul(a, b), ctx.modulus)
    assert ctx.mul(a, ctx.exp[ctx.n - ctx.log[a]]) == 1


def test_scalar_methods_return_ints():
    # no numpy scalar reaches gf2poly, a shift past 32 bits or --emit json
    ctx = get_context(6)
    values = [ctx.mul(0b101, 0b11001), ctx.alpha_pow(-7), ctx.evaluate(0xB, 0b101),
              ctx.dlog(0b101), ctx.trace(0b101), ctx.trace_mask,
              find_root(ctx, 0xB), minimal_polynomial(ctx, 3)]
    assert [type(v) for v in values] == [int] * len(values)


def test_tables_are_read_only():
    # the context and trace table are cached and shared by every caller
    ctx = get_context(6)
    for table in (ctx.exp, ctx.log, trace_table(ctx)):
        with pytest.raises(ValueError, match="read-only"):
            table[1] = 0
        with pytest.raises(ValueError, match="read-only"):
            table ^= table
    assert ctx.exp[:3].tolist() == [1, 2, 4] and ctx.log[2] == 1 and trace_table(ctx).any()


def test_context_tables_are_compact():
    # 2n uint32 exp entries and n + 1 int64 logs: 1 MB at m = 16, where
    # lists of ints took 5.75 MB
    modulus = default_modulus(16)
    tracemalloc.start()
    try:
        FieldContext(modulus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_non_primitive_moduli_are_refused():
    # X generates every context, so a modulus under which X has a smaller
    # order (or none: the modulus X itself) names no context
    for modulus in [X] + [p for p in SMALL_MODULI if p not in SMALL_PRIMITIVE]:
        with pytest.raises(ValueError, match="primitive"):
            FieldContext(modulus)
    for modulus in (0, 1, 0b110, 0b1111):  # no degree, and two reducible ones
        with pytest.raises(ValueError):
            FieldContext(modulus)


@pytest.mark.parametrize("ctx", [get_context(m) for m in range(1, 9)]
                         + [FieldContext(0x19), FieldContext(0x5B)], ids=repr)
def test_trace_table_matches_scalar_trace(ctx):
    # 0x19 and 0x5B are primitive but not the default moduli of degrees 4 and 6
    table = trace_table(ctx)
    assert len(table) == 2 * ctx.n
    assert table.tolist() == [ctx.trace(ctx.exp[j]) for j in range(2 * ctx.n)]


def test_trace_table_build_peak_is_under_8_bytes_per_entry():
    # one period is folded in uint32 and then tiled; an int64 copy of all
    # 2n entries of exp alone would take 8 bytes per entry
    ctx = get_context(16)
    tracemalloc.start()
    try:
        table = trace_table.__wrapped__(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.tolist() == [ctx.trace(ctx.exp[j]) for j in range(2 * ctx.n)]
    assert peak < 8 * len(table)


def _power_sum_trace(v: int, modulus: int) -> int:
    """Tr(v) = v + v^2 + ... + v^(2^(m-1)), by gf2poly alone."""
    acc = 0
    for _ in range(modulus.bit_length() - 1):
        acc ^= v
        v = gf2poly.rem(gf2poly.mul(v, v), modulus)
    return acc


@pytest.mark.parametrize("m", range(1, 11))
def test_every_small_modulus_multiplies_and_traces(m):
    """ctx.mul against gf2poly, and ctx.trace against the power sum, for
    every primitive modulus of degree m.  Both traces are linear, so they
    agree everywhere once they agree on the basis."""
    rng = random.Random(m)
    for modulus in (p for p in SMALL_PRIMITIVE if p.bit_length() - 1 == m):
        ctx = FieldContext(modulus)
        elements = range(1 << m)
        others = [0, 1, *rng.sample(elements, min(2, 1 << m))]
        for a in elements:
            for b in others:
                assert ctx.mul(a, b) == gf2poly.rem(gf2poly.mul(a, b), modulus)
        for l in range(m):
            assert ctx.trace(1 << l) == _power_sum_trace(1 << l, modulus)


def _order(v: int, modulus: int) -> int:
    k, x = 1, v
    while x != 1:
        k, x = k + 1, gf2poly.rem(gf2poly.mul(x, v), modulus)
    return k


@pytest.mark.parametrize("m", range(1, 11))
def test_generator_is_least_element_of_full_order(m):
    # the tables' generator exp[1] is X (1 modulo X + 1), of full order
    for modulus in (p for p in SMALL_PRIMITIVE if p.bit_length() - 1 == m):
        ctx = FieldContext(modulus)
        gen = ctx.alpha_pow(1)
        assert gen == gf2poly.rem(X, modulus)
        assert _order(gen, modulus) == ctx.n
        assert all(_order(v, modulus) < ctx.n for v in range(1, gen))


def _stepped_tables(modulus: int):
    """exp and log by powers of X taken with gf2poly alone, and the trace
    mask from the power sums of the basis."""
    m = modulus.bit_length() - 1
    n = (1 << m) - 1
    exp, log, v = [], [0] * (n + 1), 1
    for k in range(2 * n):
        exp.append(v)
        if k < n:
            log[v] = k
        v = gf2poly.rem(gf2poly.mul(v, X), modulus)
    mask = sum(_power_sum_trace(1 << l, modulus) << l for l in range(m))
    return exp, log, mask


def test_tables_match_the_stepped_oracle():
    moduli = [p for m in range(1, 13) for p in primitive_moduli(m)]
    assert len(moduli) == 480
    for modulus in moduli:
        ctx = FieldContext(modulus)
        tables = (ctx.exp.tolist(), ctx.log.tolist(), ctx.trace_mask)
        assert tables == _stepped_tables(modulus), hex(modulus)


def test_non_primitive_modulus_tests_irreducibility_once(monkeypatch):
    # the one check is_primitive, which tests irreducibility once, refuses 0x1F
    calls = []
    irreducible = gf2poly.is_irreducible

    def counted(p):
        calls.append(p)
        return irreducible(p)

    monkeypatch.setattr(gf2poly, "is_irreducible", counted)
    with pytest.raises(ValueError, match="primitive"):
        FieldContext(0x1F)  # x^4 + x^3 + x^2 + x + 1: x has order 5
    assert calls == [0x1F]
    ctx = FieldContext(0x19)  # x^4 + x^3 + 1 is primitive
    assert calls == [0x1F, 0x19]
    assert ctx.trace_mask == 14
    assert ctx.exp[:15].tolist() == [1, 2, 4, 8, 9, 11, 15, 7, 14, 5, 10, 13, 3, 6, 12]


def test_one_context_per_modulus():
    for m in range(1, 9):
        assert get_context(m) is context_for_modulus(default_modulus(m))
    assert get_context(6) is context_for_modulus(0x43)


def test_find_root():
    ctx = get_context(6)
    for h in (0xB, 0b1101, 0b111):  # degree-3 and degree-2 factors split in GF(2^6)
        v = find_root(ctx, h)
        acc = 0
        for i in range(h.bit_length() - 1, -1, -1):
            acc = ctx.mul(acc, v) ^ (h >> i & 1)
        assert acc == 0
    with pytest.raises(ValueError):
        find_root(ctx, 0x13)  # degree 4 does not divide 6


def _scalar_find_root(ctx, h):
    """Test oracle: the least mask v with h(v) = 0, one Horner pass per v."""
    for v in range(1, 1 << ctx.m):
        if ctx.evaluate(h, v) == 0:
            return v
    raise ValueError("no root found")


@pytest.mark.parametrize("m", range(1, 11))
def test_find_root_matches_the_scalar_scan(m):
    # every irreducible h of degree d | m, so roots past the first numpy
    # block (2^6 masks) are reached at m >= 7
    ctx = get_context(m)
    for h in (h for h in SMALL_MODULI if m % (h.bit_length() - 1) == 0):
        assert find_root(ctx, h) == _scalar_find_root(ctx, h), hex(h)


def test_find_root_past_the_first_blocks():
    # the least root of the minimal polynomial of X^311 in GF(2^16) lies in
    # the ninth block, [8320, 16640)
    ctx = get_context(16)
    h = minimal_polynomial(ctx, 311)
    assert find_root(ctx, h) == _scalar_find_root(ctx, h) == 10602


def test_cyclotomic_coset():
    assert cyclotomic_coset(1, 15) == [1, 2, 4, 8]
    assert sorted(cyclotomic_coset(3, 15)) == [3, 6, 9, 12]
    assert min_odd_coset_member(3, 15) == 3
    assert min_odd_coset_member(-1, 63) == 31
