import json

import pytest
from hypothesis import given, settings, strategies as st

from burstcover import gf2poly
from burstcover.codes import (
    code_from_descriptor,
    code_to_descriptor,
    codewords,
    descriptor_length,
    factors_of,
    lc_eval,
    make_bch,
    make_cyclic_code,
    make_melas,
    parity_check_matrix,
)
from burstcover.corpus import build_corpus, exact_two_primitive_cases
from burstcover.covering import get_solver
from burstcover.field import default_modulus
from burstcover.gf2poly import mul, reciprocal
from burstcover.lfsr import LfsrSpec, lfsr_sequence
from burstcover.radius import cyclic_burst_radius
from test_bitmatrix import row_masks
from test_lfsr import shift_mod


def test_hamming_code():
    code = make_cyclic_code(7, 0xB)
    assert code.r == 3 and code.n == 7
    assert len(code.factors) == 1 and code.factors[0].exponent == 1


def test_bch_generator_matches_generic_construction():
    bch = make_bch(2, 6)
    generic = make_cyclic_code(63, bch.g)
    assert generic.g == bch.g and generic.r == 12
    assert sorted(f.poly for f in generic.factors) == sorted(f.poly for f in bch.factors)


def test_two_primitive_product():
    code = make_cyclic_code(105, mul(0xB, 0x13))
    assert code.r == 7
    assert sorted(f.degree for f in code.factors) == [3, 4]
    assert all(f.exponent is None for f in code.factors)  # mixed degrees


def test_make_cyclic_code_rejections():
    with pytest.raises(ValueError):
        make_cyclic_code(8, 0xB)  # even length
    with pytest.raises(ValueError):
        make_cyclic_code(9, 0xB)  # does not divide X^9 - 1
    with pytest.raises(ValueError):
        make_cyclic_code(7, mul(0xB, 0xB))  # repeated factors


def test_divisibility_needs_no_long_division_of_x_to_the_n(monkeypatch):
    # X^n mod g by squaring divides nothing wider than 2 deg(g) bits, where
    # X^n - 1 itself is n + 1 bits wide
    divmod_poly = gf2poly.divmod_poly
    for entry in build_corpus():
        n, g = entry.code.n, entry.code.g

        def narrow(a, b, width=2 * (g.bit_length() - 1)):
            assert a.bit_length() <= width, f"a {a.bit_length()}-bit dividend"
            return divmod_poly(a, b)

        monkeypatch.setattr(gf2poly, "divmod_poly", narrow)
        assert make_cyclic_code(n, g).r == entry.code.r, entry.name
    monkeypatch.undo()
    for n in range(1, 40, 2):  # the old division test, against pow_mod
        for g in range(2, 1 << 7):
            divides = gf2poly.rem((1 << n) | 1, g) == 0
            assert divides == (gf2poly.pow_mod(gf2poly.X, n, g) == 1), (n, g)


def test_bch_parameters():
    code = make_bch(2, 6)
    assert code.n == 63 and code.r == 12
    assert [f.exponent for f in code.factors] == [1, 3]

    hamming = make_bch(1, 5)
    assert hamming.r == 5 and gf2poly.is_primitive(hamming.g)


def test_bch_long_code_condition_boundary():
    code = make_bch(2, 3)  # 2^2 = 4 > 3 holds
    assert code.n == 7 and code.r == 6
    with pytest.raises(ValueError, match="long-code condition"):
        make_bch(3, 3)  # 4 > 5 fails


def test_melas_construction():
    code = make_melas(6)
    assert code.n == 63 and code.r == 12
    assert [f.exponent for f in code.factors] == [1, -1]
    assert code.factors[1].poly == reciprocal(code.factors[0].poly)
    assert gf2poly.poly_order(code.g) == 63


def test_melas_rejects_small_m():
    with pytest.raises(ValueError):
        make_melas(2)


@pytest.mark.parametrize("build, args", [
    (make_bch, (2, 10**12)),  # the long-code check would shift by m / 2
    (make_bch, (2, 2000)),
    (make_bch, (2, 23)),
    (make_melas, (2000,)),
    (make_melas, (65,)),  # past gf2poly's order computation too
    (descriptor_length, ({"family": "bch", "params": [2, 10**12]},)),
    (descriptor_length, ({"family": "melas", "params": [23]},)),
], ids=["bch-10^12", "bch-2000", "bch-23", "melas-2000", "melas-65",
        "descriptor-bch-10^12", "descriptor-melas-23"])
def test_family_degree_past_the_field_tables_is_refused_first(build, args, monkeypatch):
    import burstcover.codes as codes_mod
    from test_cli import _fail_if_called

    _fail_if_called(monkeypatch, codes_mod, "default_modulus", "minimal_polynomial")
    with pytest.raises(ValueError, match="field tables limited to degree 22"):
        build(*args)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7, 8])
def test_melas_order(m):
    assert gf2poly.poly_order(make_melas(m).g) == (1 << m) - 1


def test_hamming_parity_check_columns():
    code = make_bch(1, 3)
    H = parity_check_matrix(code)
    assert H.rows == 3 and H.cols == 7
    cols = list(H.columns)
    assert sorted(cols) == list(range(1, 8))  # all nonzero vectors of F_2^3
    ctx = code.factors[0].ctx
    assert cols == [ctx.alpha_pow(j) for j in range(7)]


def _parity_rows_by_column(code):
    """The parity-check rows built one column and one coefficient bit at a time."""
    masks = [0] * code.r
    base = 0
    for fac in code.factors:
        v = 1
        for j in range(code.n):
            for l in range(fac.degree):
                if v >> l & 1:
                    masks[base + l] |= 1 << j
            v = fac.ctx.mul(v, fac.ctx.exp[fac.t])
        base += fac.degree
    return tuple(masks)


_PARITY_CASES = [(e.name, e.code) for e in build_corpus() + exact_two_primitive_cases()] + [
    ("mixed_105", make_cyclic_code(105, mul(0xB, 0x13))),
    ("even_weight_15", make_cyclic_code(15, 0b11)),
    ("bch2_8", make_bch(2, 8)),
    ("melas_8", make_melas(8)),
]


@pytest.mark.parametrize("code", [c for _, c in _PARITY_CASES], ids=[n for n, _ in _PARITY_CASES])
def test_parity_check_matrix_matches_column_loop(code):
    assert row_masks(parity_check_matrix(code)) == _parity_rows_by_column(code)


# BCH(7,9): 63-bit columns and 511-bit rows, so the transpose is checked past a machine word
@pytest.mark.parametrize("code", [c for _, c in _PARITY_CASES] + [make_bch(7, 9)],
                         ids=[n for n, _ in _PARITY_CASES] + ["bch7_9"])
def test_hex_rows_is_the_one_transpose(code):
    H = parity_check_matrix(code)
    rows = _parity_rows_by_column(code)
    assert H.hex_rows() == ["0x" + format(m, "X") for m in rows]
    assert H.columns == tuple(sum((m >> j & 1) << i for i, m in enumerate(rows))
                              for j in range(code.n))


@pytest.mark.parametrize("code", [c for _, c in _PARITY_CASES], ids=[n for n, _ in _PARITY_CASES])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_lc_eval_matches_root_definition(code, data):
    # the window (i, f) is the word X^i f(X) mod X^n - 1; its syndrome block
    # at factor k is beta_k^i f(beta_k), whatever the layout of H
    i = data.draw(st.integers(min_value=0, max_value=code.n - 1), label="i")
    width = data.draw(st.integers(min_value=0, max_value=2 * code.n), label="width")
    f = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1), label="f")
    expected, base = 0, 0
    for fac in code.factors:
        ctx, beta = fac.ctx, fac.ctx.exp[fac.t]
        expected |= ctx.mul(ctx.evaluate(1 << i, beta), ctx.evaluate(f, beta)) << base
        base += fac.degree
    assert lc_eval(code, i, f) == expected


@given(st.integers(min_value=0, max_value=(1 << 8) - 1))
@settings(max_examples=100)
def test_parity_check_annihilates_codewords(u):
    code = make_cyclic_code(15, mul(0b111, 0x13))  # r = 6, dimension 9
    H = parity_check_matrix(code)
    c = mul(u & ((1 << 9) - 1), code.g)
    assert all((m & c).bit_count() % 2 == 0 for m in row_masks(H))


def test_melas_column_stacking():
    m = 4
    code = make_melas(m)
    H = parity_check_matrix(code)
    ctx = code.factors[0].ctx
    n = code.n
    for j in (0, 1, 5, n - 1):
        col = H.columns[j]
        lo = col & ((1 << m) - 1)
        hi = col >> m
        assert lo == ctx.alpha_pow(j)
        assert hi == ctx.alpha_pow(-j)


def _lc_eval_bit_loop(code, i, f):
    """lc_eval's former loop: one iteration per bit position of f, set or not."""
    cols = parity_check_matrix(code).columns
    s = 0
    j = 0
    while f:
        if f & 1:
            s ^= cols[(i + j) % code.n]
        f >>= 1
        j += 1
    return s


_BIT_LOOP_CODES = {
    "bch2_8": make_bch(2, 8),
    "melas_8": make_melas(8),
    "mixed_21": make_cyclic_code(21, mul(0b111, 0xB)),  # factor degrees 2 and 3
}


# widths up to 2n: from i = n - 1 the window wraps past n twice
@pytest.mark.parametrize("name", _BIT_LOOP_CODES)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_lc_eval_matches_the_bit_position_loop(name, data):
    code = _BIT_LOOP_CODES[name]
    n = code.n
    i = data.draw(st.sampled_from([0, n - 1]) | st.integers(min_value=0, max_value=n - 1),
                  label="i")
    width = data.draw(st.integers(min_value=0, max_value=2 * n), label="width")
    f = data.draw(st.integers(min_value=0, max_value=(1 << width) - 1), label="f")
    assert lc_eval(code, i, f) == _lc_eval_bit_loop(code, i, f)


@pytest.mark.parametrize("name", _BIT_LOOP_CODES)
def test_lc_eval_matches_the_bit_position_loop_at_the_edges(name):
    code = _BIT_LOOP_CODES[name]
    n = code.n
    for i in (0, 1, n - 1):
        for f in (0, 1, 1 << (n - 1), 1 << n, 1 << (2 * n - 1), (1 << n) - 1,
                  (1 << 2 * n) - 1, ((1 << 2 * n) - 1) ^ 0b1010):
            assert lc_eval(code, i, f) == _lc_eval_bit_loop(code, i, f), (i, f)


def test_code_hashes_on_n_and_g():
    for code in _BIT_LOOP_CODES.values():
        assert hash(code) == hash((code.n, code.g))


def test_equal_builds_share_the_cached_solver_and_columns():
    a, b = make_bch(2, 8), make_bch(2, 8)
    assert a is not b and a == b
    assert get_solver(a) is get_solver(b)
    assert parity_check_matrix(a) is parity_check_matrix(b)


def test_lc_eval_zero_pattern():
    code = make_bch(2, 4)
    assert lc_eval(code, 5, 0) == 0


def test_lc_eval_rejects_negative_pattern():
    with pytest.raises(ValueError, match="nonnegative"):
        lc_eval(make_bch(2, 6), 0, -1)


@given(st.integers(min_value=0, max_value=62), st.integers(min_value=0, max_value=2047))
@settings(max_examples=100)
def test_lc_shift_identity(i, f):
    code = make_bch(2, 6)
    assert lc_eval(code, i, mul(0b10, f)) == lc_eval(code, (i + 1) % code.n, f)


@given(st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=255))
@settings(max_examples=60)
def test_lc_eval_debug_cross_check(i, f):
    # oracle: the stacked field evaluations root^i * f(root), one per factor
    code = make_cyclic_code(21, mul(0b111, 0xB))
    i %= code.n
    expected, base = 0, 0
    for fac in code.factors:
        ctx = fac.ctx
        fx = 0
        for j in range(f.bit_length()):
            if f >> j & 1:
                fx ^= ctx.exp[fac.t * j % ctx.n]
        expected |= ctx.mul(ctx.exp[fac.t * i % ctx.n], fx) << base
        base += fac.degree
    assert lc_eval(code, i, f) == expected


def test_first_window_spans_all_syndromes():
    code = make_cyclic_code(15, mul(0b111, 0x13))
    seen = {lc_eval(code, 0, f) for f in range(1 << code.r)}
    assert seen == set(range(1 << code.r))


@pytest.mark.parametrize("n,g", [
    (7, 0xB),
    (15, mul(0b111, 0x13)),
    (21, mul(0b111, 0xB)),
    (63, make_bch(2, 6).g),
])
def test_dual_sequences_equal_row_space(n, g):
    code = make_cyclic_code(n, g)
    H = parity_check_matrix(code)
    # row space of H, enumerated directly
    space = {0}
    for row in row_masks(H):
        space |= {v ^ row for v in space}
    as_tuples = {tuple((v >> j) & 1 for j in range(n)) for v in space}
    duals = {tuple(lfsr_sequence(LfsrSpec.from_galois(g, load), n))
             for load in range(1 << code.r)}
    assert duals == as_tuples


def test_codeword_count():
    code = make_cyclic_code(7, 0xB)
    words = set(codewords(code))
    assert len(words) == 1 << (7 - 3)


def test_descriptor_round_trip(tmp_path):
    for code in (make_bch(2, 5), make_melas(4), make_cyclic_code(105, mul(0xB, 0x13))):
        desc = code_to_descriptor(code)
        text = json.dumps(desc)
        again = code_from_descriptor(json.loads(text))
        assert again.g == code.g and again.n == code.n
        assert [f.poly for f in again.factors] == [f.poly for f in code.factors]


@pytest.mark.parametrize("desc, key", [
    ({"family": "bch", "params": [2, 6], "n": 31, "g_hex": "0x3"}, "'n'"),
    ({"family": "bch"}, "'params'"),
    ({"family": "melas", "params": [5], "g_hex": "0x3"}, "'g_hex'"),
    ({"family": "generic", "n": 15, "g_hex": "0x13", "r": 5}, "'r'"),
    ({"family": "generic", "g_hex": "0x13"}, "'n'"),
    # JSON true is a Python int; BCH(e=true, m=6) would load as a Hamming code
    ({"family": "bch", "params": [True, 6]}, "'params'"),
    ({"family": "generic", "n": True, "g_hex": "0x3"}, "'n'"),
    ({"family": "generic", "n": 3, "g_hex": "0x3", "r": True}, "'r'"),
])
def test_descriptor_must_describe_the_code_it_loads(desc, key):
    with pytest.raises(ValueError, match=key):
        code_from_descriptor(desc)


def test_descriptor_hex_fields_ignore_case():
    desc = code_to_descriptor(make_melas(6))
    assert desc["g_hex"] == "0x18E3"
    desc["g_hex"] = "0x18e3"
    assert code_from_descriptor(desc) == make_melas(6)


def test_equal_degree_exponents_are_odd_coset_representatives():
    code = make_cyclic_code(63, make_bch(2, 6).g)
    exps = sorted(f.exponent for f in code.factors)
    assert exps == [1, 3]
    melas_generic = make_cyclic_code(63, make_melas(6).g)
    assert sorted(f.exponent for f in melas_generic.factors) == [1, 31]


def test_modulus_override():
    code = make_bch(2, 6, modulus=0x5B)
    assert code.factors[0].ctx.modulus == 0x5B
    with pytest.raises(ValueError):
        make_bch(2, 6, modulus=0b1010111)  # order-21 sextic is not primitive
    with pytest.raises(ValueError, match="primitive"):
        make_cyclic_code(5, 0b11111, modulus=0b11111)  # a generic code's modulus too


def test_modulus_errors():
    # one modulus serves only factors of one degree, and only its own degree
    with pytest.raises(ValueError, match="a single modulus needs equal-degree factors"):
        factors_of(mul(0b111, 0b1011), 0xB)
    for build in (lambda: factors_of(0xB, 0x13), lambda: make_bch(2, 6, 0x13),
                  lambda: make_melas(6, 0x13)):
        with pytest.raises(ValueError, match="modulus degree 4 does not match the field degree"):
            build()


@pytest.mark.parametrize("n, g, b, witness, exponents", [
    (5, 0b11111, 3, 5, [3]),                          # order 5 in GF(16)
    (45, gf2poly.mul(0x1F, 0x49), 9, 363, [None, None]),  # orders 5 and 9, mixed degrees
])
def test_non_primitive_factors_live_in_primitive_contexts(n, g, b, witness, exponents):
    code = make_cyclic_code(n, g)
    assert all(f.ctx.modulus == default_modulus(f.degree) for f in code.factors)
    assert [f.exponent for f in code.factors] == exponents
    res = cyclic_burst_radius(code)
    assert (res.b, res.witness) == (b, witness)


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=20))
@settings(max_examples=60)
def test_lc_value_sets_constant_on_orbits(f, k):
    code = make_cyclic_code(21, mul(0b111, 0xB))
    shifted = f
    for _ in range(k):
        shifted = shift_mod(shifted, code.g)
    lhs = {lc_eval(code, i, f) for i in range(code.n)}
    rhs = {lc_eval(code, i, shifted) for i in range(code.n)}
    assert lhs == rhs


def test_bch_factor_degrees_and_coprimality():
    # every admissible (e, m) with e*m <= 24 and m <= 12
    for m in range(2, 13):
        for e in range(1, 24 // m + 1):
            if not (1 << ((m + 1) // 2)) > 2 * e - 1:
                continue
            code = make_bch(e, m)
            assert code.r == e * m
            assert all(f.degree == m for f in code.factors)
            for i, fi in enumerate(code.factors):
                for fj in code.factors[i + 1:]:
                    assert gf2poly.gcd(fi.poly, fj.poly) == 1


def test_make_bch_refuses_a_repeated_factor(monkeypatch):
    # every factor has degree m, so deg g = e*m always; only a repeated
    # minimal polynomial can make the factors fail to be coprime
    import burstcover.codes as codes_mod

    real = codes_mod.minimal_polynomial
    monkeypatch.setattr(codes_mod, "minimal_polynomial", lambda ctx, t: real(ctx, 1))
    with pytest.raises(AssertionError, match="coprime"):
        make_bch(2, 6)


def test_factor_roots_are_ints():
    # t feeds shifts, pow(x, -1, n) and --emit json, so it is never a numpy scalar
    codes = [make_bch(2, 6), make_melas(5), make_cyclic_code(45, gf2poly.mul(0x1F, 0x49))]
    assert all(type(f.t) is int for code in codes for f in code.factors)
