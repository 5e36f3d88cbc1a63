import decimal
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import burstcover.bitmatrix as bitmatrix_mod
from burstcover import gf2poly
from burstcover import charsums
from burstcover.charsums import (
    find_avoidance_witness,
    gcd_power_inequality_check,
    laurent_family_check,
    niederreiter_check,
    pattern_census,
    pattern_count_via_charsums,
    pattern_theorem_check,
    wcu_family_check,
)
from burstcover.codes import make_bch, make_cyclic_code, make_melas
from burstcover.corpus import mixed_degree_entries
from burstcover.field import default_modulus, get_context, trace_table
from burstcover.gf2poly import mul
from burstcover.lfsr import (
    LfsrSpec,
    fibonacci_to_galois,
    orbit_minima,
    pattern_counts,
    periods,
    trace_representation,
)
from test_cli import _fail_if_called
from test_lfsr import window_histogram


# The reference for every sum the family checks judge: raw gf2poly
# arithmetic modulo the default modulus, whose generator is X, no tables.

def _oracle_trace(m, v):
    """Tr(v) = v + v^2 + ... + v^(2^(m-1)), by repeated squaring."""
    mod = default_modulus(m)
    acc = 0
    for _ in range(m):
        acc ^= v
        v = gf2poly.rem(gf2poly.mul(v, v), mod)
    return acc


def _char_sum_oracle(m, eval_f):
    """Sum of chi(eval_f(x)) over nonzero x, one field element at a time."""
    return sum(1 - 2 * _oracle_trace(m, eval_f(x)) for x in range(1, 1 << m))


def _mulmod(m, a, b):
    return gf2poly.rem(gf2poly.mul(a, b), default_modulus(m))


def _poly(m, coeffs):
    """x -> sum coeffs[i] x^i by Horner's rule."""
    def f(x):
        acc = 0
        for c in reversed(coeffs):
            acc = _mulmod(m, acc, x) ^ c
        return acc
    return f


def _elements(m):
    """The element each row of the family sums stands for: 0, then gen^j."""
    mod = default_modulus(m)
    return [0] + [gf2poly.pow_mod(gf2poly.X, j, mod) for j in range((1 << m) - 1)]


def _spy(monkeypatch, name):
    """Record (args, result) of every call of charsums.<name> from now on."""
    calls = []
    real = getattr(charsums, name)

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(charsums, name, spy)
    return calls


def _weil_sums(m, monkeypatch):
    """The degree-3 and degree-5 sums wcu_family_check(m) judges, by bound weight."""
    calls = _spy(monkeypatch, "_within")
    assert wcu_family_check(m).ok
    return {args[2]: args[0] for args, _ in calls}


@pytest.mark.parametrize("m", [3, 4, 5])
def test_weil_family_sums_match_oracle(m, monkeypatch):
    sums = _weil_sums(m, monkeypatch)
    elems = _elements(m)
    mod = default_modulus(m)
    cubes = {x: gf2poly.pow_mod(x, 3, mod) for x in range(1 << m)}
    fifths = {x: gf2poly.pow_mod(x, 5, mod) for x in range(1 << m)}
    for c, cv in enumerate(elems):
        # f(0) = 0 adds chi(0) = 1 for x = 0
        cubic = _char_sum_oracle(m, lambda x: cubes[x] ^ _mulmod(m, cv, x))
        assert sums[2][c] == 1 + cubic
        for b, bv in enumerate(elems):
            quintic = _char_sum_oracle(
                m, lambda x: fifths[x] ^ _mulmod(m, bv, cubes[x]) ^ _mulmod(m, cv, x))
            assert sums[4][b, c] == 1 + quintic, (b, c)


def _matmul_weil_sums(m):
    """The degree-3 and degree-5 family sums as (n+1) x n sign-row products, O(n^3)."""
    n = (1 << m) - 1
    table = trace_table(get_context(m))
    k = np.arange(n, dtype=np.int64)

    def sign_rows(t):
        """Row c: chi(c * x^t) over nonzero x; c = 0 then gen^0..gen^(n-1)."""
        rows = np.empty((n + 1, n), dtype=np.int64)
        rows[0] = 1
        rows[1:] = 1 - 2 * table[k[:, None] + (t * k % n)[None, :]]
        return rows

    s1, s3 = sign_rows(1), sign_rows(3)
    sums3 = 1 + s1 @ (1 - 2 * table[3 * k % n])
    sums5 = 1 + (s3 * (1 - 2 * table[5 * k % n])[None, :]) @ s1.T
    return sums3, sums5


@pytest.mark.parametrize("m", range(2, 9))
def test_weil_family_sums_match_matmul(m, monkeypatch):
    sums = _weil_sums(m, monkeypatch)
    sums3, sums5 = _matmul_weil_sums(m)
    assert np.array_equal(sums[2], sums3)
    assert np.array_equal(sums[4], sums5)


@pytest.mark.parametrize("m", range(2, 9))
def test_weil_violations_in_matmul_order(m, monkeypatch):
    """Under weight-1 bounds the sweep reports what the matmul sums exceed, in (b, c) order."""
    real = charsums._within
    monkeypatch.setattr(charsums, "_within", lambda x, m, a, b=0: real(x, m, 1, b))
    sums3, sums5 = _matmul_weil_sums(m)
    deg3 = [("deg3", int(c)) for c in np.flatnonzero(~real(sums3, m, 1))]
    deg5 = [("deg5", int(b), int(c)) for b, c in zip(*np.nonzero(~real(sums5, m, 1)))]
    assert deg5
    assert wcu_family_check(m).violations == tuple(deg3 + deg5)


@pytest.mark.parametrize("m", range(7))
def test_fwht_matches_direct_sum(m):
    rng = np.random.default_rng(m)
    q = 1 << m
    signs = np.array([[(-1) ** (u & x).bit_count() for x in range(q)] for u in range(q)])
    a = rng.integers(-1000, 1000, size=(q, 3))
    expected = signs @ a
    assert charsums._fwht(a) is a
    assert np.array_equal(a, expected)
    row = rng.integers(-1000, 1000, size=q)
    assert np.array_equal(charsums._fwht(row.copy()), signs @ row)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_monic_quintics_reduce_to_swept_forms(m, monkeypatch):
    """sum chi(a0 + a1 x + ... + a4 x^4 + x^5) = chi(a0) S5[a3, a1 + a2^(1/2) + a4^(1/4)]."""
    sums5 = _weil_sums(m, monkeypatch)[4]
    index = {v: i for i, v in enumerate(_elements(m))}
    mod = default_modulus(m)

    def root(a, e):  # a^(1/2^e) = a^(2^(m-e))
        return gf2poly.pow_mod(a, 1 << (m - e), mod)

    rng = random.Random(m)
    for _ in range(40):
        a = [rng.randrange(1 << m) for _ in range(5)] + [1]
        chi0 = 1 - 2 * _oracle_trace(m, a[0])
        whole = chi0 + _char_sum_oracle(m, _poly(m, a))
        c = a[1] ^ root(a[2], 1) ^ root(a[4], 2)
        assert whole == chi0 * sums5[index[a[3]], index[c]], a


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_laurent_family_sums_match_oracle(m, monkeypatch):
    n = (1 << m) - 1
    mod = default_modulus(m)
    calls = _spy(monkeypatch, "_laurent_sums")
    forms = [(t, u) for t in (1, 3, 5) for u in (1, 3, 5)]
    for t, u in forms:
        assert laurent_family_check(m, t, u, draws=30, seed=10 * t + u).ok
    assert [args[1:3] for args, _ in calls] == forms
    for (_, t, u, coeffs), sums in calls:
        pos = {x: gf2poly.pow_mod(x, t, mod) for x in range(1, n + 1)}
        neg = {x: gf2poly.pow_mod(x, n - u, mod) for x in range(1, n + 1)}  # x^(-u)
        assert len(sums) == len(coeffs) == 30
        for (a, b), s in zip(coeffs, sums):
            oracle = _char_sum_oracle(
                m, lambda x: _mulmod(m, a, pos[x]) ^ _mulmod(m, b, neg[x]))
            assert s == oracle, (t, u, a, b)


def _laurent_pair_loop(ctx, t, u, coeffs):
    """The per-pair loop: one gather, XOR and 1-D count for each draw."""
    table = trace_table(ctx)
    k = np.arange(ctx.n, dtype=np.int64)
    tk, uk = t * k % ctx.n, -u * k % ctx.n
    return [ctx.n - 2 * int(np.count_nonzero(table[ctx.log[a] + tk] ^ table[ctx.log[b] + uk]))
            for a, b in coeffs]


@pytest.mark.parametrize("cells", [1, 100, None])
@pytest.mark.parametrize("m", range(2, 13))
def test_laurent_blocks_match_the_pair_loop(m, cells, monkeypatch):
    # cells = 1: one-row blocks; 100: blocks of a few draws with a short last
    # one; m >= 11 rows are counted one draw at a time whatever the block
    if cells:
        monkeypatch.setattr(bitmatrix_mod, "_ORACLE_CELLS", cells)
    ctx = get_context(m)
    rng = random.Random(m)
    coeffs = [(rng.randrange(1, ctx.n + 1), rng.randrange(1, ctx.n + 1)) for _ in range(37)]
    for t, u in ((1, 1), (3, 5), (5, 3)):
        sums = charsums._laurent_sums(ctx, t, u, coeffs)
        assert sums.dtype == np.int64
        assert sums.tolist() == _laurent_pair_loop(ctx, t, u, coeffs), (t, u)
    assert charsums._laurent_sums(ctx, 1, 1, []).tolist() == []


def test_niederreiter_cache_matches_the_uncached_report(monkeypatch):
    def reports():  # s = 0 and s = dmin + 1 are the inapplicable reports
        return [niederreiter_check(LfsrSpec(entry.code.g, load), s)
                for entry in mixed_degree_entries()[:6]
                for load in orbit_minima(entry.code.r, entry.code.factors).tolist()[:8]
                for s in range(min(f.degree for f in entry.code.factors) + 2)]

    cached = reports()
    for name in ("_degree_and_period", "_period_census"):
        monkeypatch.setattr(charsums, name, getattr(charsums, name).__wrapped__)
    assert len(cached) > 50 and {rep.applicable for rep in cached} == {True, False}
    assert cached == reports()


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


def test_wcu_family_checks():
    for m in range(2, 11):
        rep = wcu_family_check(m)
        assert rep.ok, rep.violations
        assert rep.cases_checked == (1 << m) ** 2 + 2 * (1 << m)


def test_laurent_family_check_deterministic():
    r1 = laurent_family_check(8, 3, 5, 50, seed=123)
    r2 = laurent_family_check(8, 3, 5, 50, seed=123)
    assert r1 == r2 and r1.ok


def test_niederreiter_pn_single_bit():
    m = 6
    g = default_modulus(m)
    spec = LfsrSpec(g, fibonacci_to_galois(g, (1,) + (0,) * (m - 1)))
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
    for code, s_max in ((mixed, 2), (make_bch(2, 6), 7), (make_bch(2, 6), 0)):
        with pytest.raises(ValueError, match="census needs"):
            pattern_census(code, "equal_degree", s_max)


@pytest.mark.parametrize("s", [-1, 0, 6])
def test_avoidance_length_checked_before_any_orbit(s, monkeypatch):
    def no_walk(r, roots):
        raise AssertionError("walked the orbits")

    monkeypatch.setattr(charsums, "orbit_minima", no_walk)
    with pytest.raises(ValueError, match=r"\[1, 5\]"):
        find_avoidance_witness(make_bch(2, 5), s)


@pytest.mark.parametrize("cells", [1, 64 * 7])
def test_row_blocks_leave_the_reports_unchanged(cells, monkeypatch):
    """One row per block, and 7-row blocks with a ragged tail, against the
    default blocks (one block for these codes); every row is 2^6 cells."""
    checks = [(make_bch(2, 6), "equal_degree"), (make_melas(6), "melas_mixed")]

    def reports():
        return ([pattern_theorem_check(code, variant, s) for code, variant in checks
                 for s in range(1, 7)]
                + [find_avoidance_witness(code, s) for code, _ in checks for s in range(1, 7)])

    pattern_census.cache_clear()
    default = reports()
    monkeypatch.setattr(bitmatrix_mod, "_ORACLE_CELLS", cells)
    pattern_census.cache_clear()
    assert reports() == default


def test_checks_read_periods_not_the_steppers(monkeypatch):
    import burstcover.lfsr as lfsr_mod

    _fail_if_called(monkeypatch, lfsr_mod, "lfsr_sequence", "orbit_minimum")
    pattern_census.cache_clear()
    charsums._period_census.cache_clear()
    assert pattern_theorem_check(make_bch(2, 6), "equal_degree", 3).ok
    assert pattern_theorem_check(make_melas(6), "melas_mixed", 2).ok
    assert find_avoidance_witness(make_melas(5), 4) is not None
    g = mul(0xB, 0b100101)
    for load, period in ((100, 217), (0xB, 31)):  # load 0xB leaves the factor X^5 + X^2 + 1
        rep = niederreiter_check(LfsrSpec.from_galois(g, load), 2)
        assert rep.applicable and rep.ok and rep.window == period


def test_pattern_checks_read_the_codes_own_roots(monkeypatch):
    # the orbits come from the code's factors: g is neither factored nor
    # searched for roots again
    import burstcover.lfsr as lfsr_mod

    codes = [make_bch(2, 6), make_melas(6)]
    _fail_if_called(monkeypatch, gf2poly, "factor")
    _fail_if_called(monkeypatch, lfsr_mod, "factors_of", "orbit_representatives")
    pattern_census.cache_clear()
    assert pattern_theorem_check(codes[0], "equal_degree", 3).ok
    assert pattern_theorem_check(codes[1], "melas_mixed", 2).ok
    assert find_avoidance_witness(codes[1], 4) is not None


CENSUS_CODES = [(make_bch(2, m), "equal_degree") for m in range(3, 9)] + [
    (make_melas(m), "melas_mixed") for m in range(3, 9)]


@pytest.mark.parametrize("code, variant", CENSUS_CODES)
def test_census_marginals_match_direct_counts(code, variant, monkeypatch):
    """Each s < m read off the s = m count equals pattern_counts at s,
    in 5-row blocks and in the default ones (rows of 2^m cells)."""
    m = code.factors[0].degree
    window = (1 << m) - 1
    reps = orbit_minima(code.r, code.factors).tolist()
    rows = periods(code.g, reps, window)
    for cells in (5 << m, None):
        if cells:
            monkeypatch.setattr(bitmatrix_mod, "_ORACLE_CELLS", cells)
        blocks = list(charsums._census(code, m))
        assert [r for block, _ in blocks for r in block] == reps
        marginals = [dict(charsums._marginals(top)) for _, top in blocks]
        for s in range(1, m + 1):
            got = np.concatenate([by_s[s] for by_s in marginals])
            assert np.array_equal(got, pattern_counts(rows, window, s)), (cells, s)


@pytest.mark.parametrize("code, variant", CENSUS_CODES[2::3])
def test_census_reports_do_not_depend_on_the_order_of_s(code, variant):
    m = code.factors[0].degree
    ascending = list(range(1, m + 1))
    orders = [ascending, ascending[::-1], random.Random(m).sample(ascending, m)]
    seen = []
    for order in orders:
        pattern_census.cache_clear()
        seen.append({s: pattern_theorem_check(code, variant, s) for s in order})
    assert seen[0] == seen[1] == seen[2]
    assert [rep.s for rep in seen[0].values()] == ascending


@pytest.mark.parametrize("code, variant", CENSUS_CODES[1::2])
def test_census_prefixes_agree(code, variant):
    m = code.factors[0].degree
    whole = pattern_census(code, variant, m)
    assert [rep.s for rep in whole] == list(range(1, m + 1))
    for k in range(1, m + 1):
        assert pattern_census.__wrapped__(code, variant, k) == whole[:k], k


@pytest.mark.parametrize("code, variant", [(make_bch(2, 8), "equal_degree"),
                                           (make_melas(7), "melas_mixed")])
def test_sweep_over_s_counts_each_block_once(code, variant, monkeypatch):
    m = code.factors[0].degree
    rows = len(orbit_minima(code.r, code.factors))
    monkeypatch.setattr(bitmatrix_mod, "_ORACLE_CELLS", 9 << m)  # blocks of 9 rows
    calls = _spy(monkeypatch, "pattern_counts")
    pattern_census.cache_clear()
    reports = [pattern_theorem_check(code, variant, s) for s in range(1, m + 1)]
    assert all(rep.applicable and rep.ok for rep in reports)
    assert len(calls) == -(-rows // 9) > 1
    assert {args[2] for args, _ in calls} == {m}


def test_weil_transform_in_int16_matches_int64():
    w = charsums._weil_signs(charsums.WCU_M_MAX)
    assert w.dtype == np.int16
    wide = charsums._fwht(w.astype(np.int64))
    assert np.array_equal(charsums._fwht(w), wide)
    assert np.abs(wide).max() == 1 << charsums.WCU_M_MAX  # column 0, all ones, at u = 0


def test_melas_mixed_theorem():
    code = make_melas(6)
    rep = pattern_theorem_check(code, "melas_mixed", 1)
    assert rep.applicable and rep.ok
    assert rep.guaranteed_s == 2  # floor(6/2 - log2(1+1))
    assert rep.stronger_bound_sequences >= 1  # the pure PN components


def test_pattern_count_character_duality():
    m = 6
    code = make_bch(2, m)
    ctx = code.factors[0].ctx
    spec = LfsrSpec.from_galois(code.g, 0b110010101011)
    gammas = trace_representation(spec)
    terms = []
    for fac in code.factors:
        # the representation picked its own (conjugate) root of the factor
        own, gamma = next(pair for pair in gammas if pair[0].poly == fac.poly)
        terms.append((gamma, own.t))
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
