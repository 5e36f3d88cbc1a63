import inspect
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import burstcover.bitmatrix as bitmatrix_mod
import burstcover.lfsr as lfsr_mod
import burstcover.radius as radius_mod
from burstcover import gf2poly
from burstcover.bitmatrix import BinaryMatrix
from burstcover.charsums import laurent_family_check
from burstcover.codes import (
    codewords,
    make_bch,
    make_cyclic_code,
    make_melas,
    parity_check_matrix,
)
from burstcover.corpus import build_corpus
from burstcover.covering import burst_cover, verify_certificate
from burstcover.field import get_context, primitive_moduli, trace_table
from burstcover.gf2poly import divmod_poly, mul, poly_order
from burstcover.lfsr import orbit_representatives
from burstcover.radius import (
    MAX_R,
    BoundEntry,
    BoundsReport,
    BudgetError,
    bounds_report,
    cyclic_burst_radius,
    geometric_is_covering,
    matrix_burst_radius,
    witness_recheck,
)
from test_bitmatrix import from_rows, row_masks
from test_lfsr import shift_mod, walk_minima


def _from_bit_rows(rows):
    """The matrix whose row i has bit j = rows[i][j]."""
    return from_rows([sum(bit << j for j, bit in enumerate(row)) for row in rows], len(rows[0]))


def _from_columns(cols, r):
    """The r-row matrix whose column j has bit i = row i."""
    return BinaryMatrix(r, len(cols), tuple(cols))


EXT_HAMMING = _from_bit_rows([
    [1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 0, 0, 1, 1, 1, 1],
    [0, 0, 1, 1, 0, 0, 1, 1],
    [0, 1, 0, 1, 0, 1, 0, 1],
])

EXT_HAMMING_PERMUTED = _from_bit_rows([
    [1, 1, 1, 1, 1, 1, 1, 1],
    [0, 0, 1, 1, 1, 0, 0, 1],
    [0, 0, 0, 1, 1, 1, 1, 0],
    [0, 1, 0, 0, 1, 1, 0, 1],
])


def test_example_matrices():
    assert matrix_burst_radius(EXT_HAMMING).b == 4
    assert matrix_burst_radius(EXT_HAMMING_PERMUTED).b == 3


def test_identity_matrix_radius_is_r():
    for r in (2, 3, 5):
        eye = from_rows([1 << i for i in range(r)], r)
        assert matrix_burst_radius(eye).b == r


def test_first_r_columns_alone_need_full_window():
    code = make_bch(2, 4)
    H = parity_check_matrix(code)
    sub = _from_columns(H.columns[:code.r], code.r)
    assert matrix_burst_radius(sub).b == code.r


def test_rank_deficient_rejected():
    M = from_rows([0b101, 0b101], 3)
    with pytest.raises(ValueError):
        matrix_burst_radius(M)


def test_budget_guard(monkeypatch):
    H = parity_check_matrix(make_bch(2, 6))
    monkeypatch.setattr(radius_mod, "MATRIX_MAX_WORK", 100)
    with pytest.raises(BudgetError):
        matrix_burst_radius(H)
    monkeypatch.setattr(radius_mod, "MAX_R", 5)
    with pytest.raises(BudgetError, match="max_r=5"):
        matrix_burst_radius(H)


def test_witness_is_uncovered_at_previous_level():
    res = matrix_burst_radius(EXT_HAMMING)
    # re-check: the witness syndrome is not a window-(b-1) combination
    cols = EXT_HAMMING.columns
    n = EXT_HAMMING.cols
    reachable = set()
    for i in range(n):
        for p in range(1 << (res.b - 1)):
            s = 0
            for j in range(res.b - 1):
                if p >> j & 1:
                    s ^= cols[(i + j) % n]
            reachable.add(s)
    assert res.witness not in reachable
    # and it is the first such syndrome
    assert all(x in reachable for x in range(res.witness))


def test_orbit_witness_recheck():
    for code in (make_bch(2, 5), make_melas(5), make_cyclic_code(105, mul(0xB, 0x13))):
        res = cyclic_burst_radius(code)
        assert witness_recheck(code, res)


def test_cyclic_matches_matrix_on_sample():
    for code in (make_bch(2, 4), make_melas(4), make_cyclic_code(21, mul(0b111, 0xB))):
        b_orbit = cyclic_burst_radius(code).b
        H = parity_check_matrix(code)
        assert matrix_burst_radius(H, cyclic=True).b == b_orbit


def test_noncyclic_radius_at_least_cyclic():
    for code in (make_bch(2, 4), make_cyclic_code(15, mul(0b11, 0x13))):
        H = parity_check_matrix(code)
        b_c = matrix_burst_radius(H, cyclic=True).b
        b_l = matrix_burst_radius(H, cyclic=False).b
        assert b_l >= b_c


def test_row_operations_preserve_radius():
    rng = random.Random(7)
    H = EXT_HAMMING
    b0 = matrix_burst_radius(H).b
    rows = list(row_masks(H))
    for _ in range(5):
        # random invertible row mix: add one row into another
        i, j = rng.sample(range(4), 2)
        rows[i] ^= rows[j]
        mixed = from_rows(rows, 8)
        assert mixed.rank() == 4
        assert matrix_burst_radius(mixed).b == b0


def test_degree_one_factor_forces_b_equal_r():
    for g2 in (0xB, 0x13, 0b100101):
        g = mul(0b11, g2)
        code = make_cyclic_code((1 << (g2.bit_length() - 1)) - 1, g)
        assert cyclic_burst_radius(code).b == code.r


@pytest.mark.parametrize("n", [3, 5, 7, 15])
def test_parity_code_radius_is_one(n):
    # g = X + 1: the one syndrome bit is the parity, covered by any single 1
    code = make_cyclic_code(n, 0x3)
    assert code.r == 1 and code.factors[0].exponent == 1
    assert cyclic_burst_radius(code).b == 1
    assert matrix_burst_radius(parity_check_matrix(code)).b == 1
    assert geometric_is_covering(code, 1)
    assert bounds_report(code).validate(1) == []
    assert verify_certificate(code, 1, burst_cover(code, 1, 1), 1)


def test_geometric_thresholds():
    code = make_cyclic_code(7, 0xB)
    b = cyclic_burst_radius(code).b
    assert geometric_is_covering(code, b)
    assert geometric_is_covering(code, 7)
    if b > 1:
        assert not geometric_is_covering(code, b - 1)


def test_geometric_rejects_large_space(monkeypatch):
    import burstcover.radius as radius_mod

    def no_enumeration(code):
        raise AssertionError("codewords enumerated before the max_n check")

    monkeypatch.setattr(radius_mod, "codewords", no_enumeration)
    for code in (make_bch(2, 5), make_bch(2, 6)):
        with pytest.raises(ValueError):
            geometric_is_covering(code, 3)


def test_geometric_work_budget(monkeypatch):
    code = make_cyclic_code(15, 0x13)  # 2^11 codewords
    assert geometric_is_covering(code, 3)
    monkeypatch.setattr(radius_mod, "GEOMETRIC_MAX_WORK", 1 << 11)
    with pytest.raises(BudgetError):
        geometric_is_covering(code, 3)


def test_geometric_budget_checked_before_any_enumeration(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("codewords or patterns enumerated before the work budget")

    monkeypatch.setattr(radius_mod, "codewords", no_enumeration)
    monkeypatch.setattr(radius_mod, "_burst_patterns", no_enumeration)
    monkeypatch.setattr(radius_mod, "GEOMETRIC_MAX_WORK", 1 << 11)
    # 2^11 codewords times 1 + 15 * 2^(b-1) patterns, at b = 3 and b = 14
    for b in (3, 14):
        with pytest.raises(BudgetError, match="exceeds 2048"):
            geometric_is_covering(make_cyclic_code(15, 0x13), b)


def _rotation_set(n, b):
    """Every rotation of every b-bit pattern, as a set of n-bit masks."""
    mask = (1 << n) - 1
    return {((p << i) | (p >> (n - i))) & mask for p in range(1 << b) for i in range(n)}


@pytest.mark.parametrize("n", range(1, 13))
def test_burst_patterns_match_the_rotation_set(n):
    # the work budget's pattern count 1 + n * 2^(b-1) bounds every b and is exact for 1 <= b <= n/2
    for b in range(n):
        pats = _rotation_set(n, b)
        assert radius_mod._burst_patterns(n, b).tolist() == sorted(pats)
        bound = 1 + (n << b) // 2
        assert len(pats) <= bound and (len(pats) == bound or 2 * b > n or b == 0)


def test_codewords_are_the_products_in_order():
    for code in (make_cyclic_code(7, 0xB), make_cyclic_code(15, mul(0b111, 0x13)), make_bch(2, 4)):
        assert codewords(code).tolist() == [mul(u, code.g) for u in range(1 << (code.n - code.r))]


def _geometric_oracle(code, b):
    """The per-codeword loop: every codeword XOR a set of burst patterns."""
    n = code.n
    if b >= n:
        return True
    pats = _rotation_set(n, b)
    covered = set()
    for u in range(1 << (n - code.r)):
        c = mul(u, code.g)
        covered.update(c ^ p for p in pats)
    return len(covered) == 1 << n


@pytest.mark.parametrize("cells", [1, 64, None])
def test_geometric_blocks_match_the_codeword_loop(cells, monkeypatch):
    if cells:  # blocks of a few codewords, or of one
        monkeypatch.setattr(bitmatrix_mod, "_ORACLE_CELLS", cells)
    codes = [e.code for e in build_corpus() if e.code.n <= 16]
    codes += [make_cyclic_code(15, g) for g in (0x3, 0x7, 0x13, 0x1F)] + [make_cyclic_code(9, 0x49)]
    assert len(codes) > 8
    for code in codes:
        b = cyclic_burst_radius(code).b
        for trial in (b - 1, b):
            assert geometric_is_covering(code, trial) == _geometric_oracle(code, trial) == (trial >= b)


def _matrix_oracle(H, cyclic):
    """The per-start loop: one closure per window start, (b, witness)."""
    r, n, cols = H.rows, H.cols, H.columns
    covered = np.zeros(1 << r, dtype=bool)
    covered[0] = True
    witness = 1
    b = 0
    while not covered.all():
        witness = int(np.argmin(covered))
        b += 1
        covered = np.zeros(1 << r, dtype=bool)
        covered[0] = True
        for i in range(n) if cyclic else range(max(1, n - b + 1)):
            span = [0]
            for j in range(b):
                span += [v ^ cols[(i + j) % n] for v in span]
            covered[span] = True
    return b, witness


@pytest.mark.parametrize("cells", [1, 64, None])
@pytest.mark.parametrize("cyclic", [True, False])
def test_matrix_blocks_match_the_per_start_loop(cells, cyclic, monkeypatch):
    if cells:  # blocks of one start, or of a few starts with a short last block
        monkeypatch.setattr(bitmatrix_mod, "_ORACLE_CELLS", cells)
    matrices = [EXT_HAMMING, EXT_HAMMING_PERMUTED]
    matrices += [parity_check_matrix(code) for code in (
        make_bch(2, 4), make_bch(2, 5), make_melas(5), make_cyclic_code(21, mul(0b111, 0xB)),
        make_cyclic_code(15, mul(0b11, 0x13)))]
    for H in matrices:
        res = matrix_burst_radius(H, cyclic=cyclic)
        assert (res.b, res.witness) == _matrix_oracle(H, cyclic)


def test_oracle_blocks_bound_the_peak():
    # one block holds 2^14 cells, 128 kB of int64: the peaks are 0.41 MB
    # (matrix) and 0.42 MB (geometric); blocks of 2^16 cells reach 0.80 and
    # 0.81 MB.  The Laurent check cuts no blocks: its 2000 draws and their
    # packed trace windows peak at 0.25 MB
    H = parity_check_matrix(make_bch(2, 8))
    code = make_cyclic_code(15, 0x3)  # 2^14 codewords, the most at n <= 16
    trace_table(get_context(10))

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(lambda: matrix_burst_radius(H)) < 640 << 10
    assert peak(lambda: [geometric_is_covering(code, b) for b in (1, 4, 7)]) < 640 << 10
    assert peak(lambda: laurent_family_check(10, 3, 5, 2000, seed=5)) < 800 << 10


def test_orbit_budget_guard(monkeypatch):
    monkeypatch.setattr(radius_mod, "MAX_R", 9)
    with pytest.raises(BudgetError):
        cyclic_burst_radius(make_bch(2, 6))


def test_orbit_budget_checked_before_any_work(monkeypatch):
    def no_work(r, roots):
        raise AssertionError("orbit tables built before the max_r check")

    monkeypatch.setattr(lfsr_mod, "_OrbitNames", no_work)
    monkeypatch.setattr(radius_mod, "MAX_R", 9)
    with pytest.raises(BudgetError):
        cyclic_burst_radius(make_bch(2, 6))


@pytest.mark.parametrize("make, b", [(lambda: make_bch(2, 14), 19), (lambda: make_melas(14), 20)])
def test_orbit_method_admits_r_above_max_r_when_u_fits(make, b):
    # r = 28 > MAX_R, but u = floor(1.5 m + 1) = 22 <= MAX_R
    code = make()
    assert code.r > MAX_R
    res = cyclic_burst_radius(code)
    assert res.b == b
    assert witness_recheck(code, res)


def test_orbit_budget_names_the_bound(monkeypatch):
    # BCH(2,6): r = 12, u = bch_upper = 10
    monkeypatch.setattr(radius_mod, "MAX_R", 9)
    with pytest.raises(BudgetError, match=r"2\^10 residues \(bch_upper\) exceeds max_r=9"):
        cyclic_burst_radius(make_bch(2, 6))
    monkeypatch.setattr(radius_mod, "MAX_R", 11)  # r > MAX_R >= u: admitted
    assert cyclic_burst_radius(make_bch(2, 6)).b == 9


def test_radius_above_a_proven_bound_is_an_assertion(monkeypatch):
    # a bound below the radius (9) is a failed theorem, not a budget
    def report(code):
        return BoundsReport(code.describe(), code.n, code.r,
                            (BoundEntry("false_upper", "upper", 8, True),))

    monkeypatch.setattr(radius_mod, "bounds_report", report)
    monkeypatch.setattr(radius_mod, "MAX_R", 11)
    with pytest.raises(AssertionError, match="false_upper: radius 9 above upper bound 8"):
        cyclic_burst_radius(make_bch(2, 6))


def test_orbit_names_close_at_most_k_columns(monkeypatch):
    # one closure for every factor at once, of the first shell's columns
    # 1.._K-3 (bit 0 is set in every odd residue); the later shells XOR one
    # column onto it and the high columns are XORed per block
    closure = lfsr_mod._closure
    shapes = []

    def counted(cols):
        shapes.append(np.shape(cols))
        return closure(cols)

    monkeypatch.setattr(lfsr_mod, "_closure", counted)
    code = make_bch(2, 9)  # r = 18, two factors
    assert lfsr_mod.orbit_minima(code.r, code.factors).tolist() == walk_minima(code.g)
    assert shapes == [(2, lfsr_mod._K - 3)]


def test_orbit_table_holds_only_the_shells_read():
    # BCH(2,7): the first shell [0, 2^11) is built at once, [2^11, 2^12)
    # and [2^12, 2^13) are appended when a read first reaches them
    code = make_bch(2, 7)
    names = lfsr_mod._OrbitNames(code.r, code.factors)
    k = lfsr_mod._K
    assert names.low.shape == (2, 1 << k - 3)
    names.ids(0, 1 << k - 2)
    assert names.low.shape == (2, 1 << k - 3)
    names.ids(1 << k - 2, 1 << k - 1)
    assert names.low.shape == (2, 1 << k - 2)
    fresh = lfsr_mod._OrbitNames(code.r, code.factors)
    assert names.ids(1 << k, 2 << k).tolist() == fresh.ids(1 << k, 2 << k).tolist()
    assert names.low.shape == fresh.low.shape == (2, 1 << k - 1)


def _walk_radius(code):
    """Test oracle: the orbit walk's (b, witness), the first orbit minimum
    of the greatest bit length."""
    best = witness = 0
    for rep in walk_minima(code.g):
        if rep.bit_length() > best:
            best, witness = rep.bit_length(), rep
    return best, witness


# Every irreducible of degree 1..6 but X: X+1, non-primitive ones such as
# x^4+x^3+x^2+x+1 (order 5), and primitive ones of every degree.
IRREDUCIBLES = [h for h in range(3, 1 << 7, 2) if gf2poly.is_irreducible(h)]


def _product(factors):
    g = 1
    for h in factors:
        g = mul(g, h)
    return g


square_free_generators = st.lists(
    st.sampled_from(IRREDUCIBLES), min_size=1, max_size=4, unique=True,
).map(_product).filter(lambda g: g.bit_length() - 1 <= 12 and poly_order(g) >= g.bit_length())


@given(square_free_generators)
@example(_product([0b11, 0b11111, 0b1011]))      # X+1, order 5, mixed degrees
@example(_product([0b11111, 0b1001001]))         # orders 5 and 9
@settings(max_examples=60, deadline=None)
def test_orbit_radius_matches_walk(g):
    code = make_cyclic_code(poly_order(g), g)
    res = cyclic_burst_radius(code)
    assert (res.b, res.witness) == _walk_radius(code)


PRIMITIVE_CLASSES = [(m, p) for m in (6, 7) for p in primitive_moduli(m)]


@pytest.mark.parametrize("family", ["bch", "melas"])
@pytest.mark.parametrize("m, modulus", PRIMITIVE_CLASSES)
def test_orbit_radius_matches_walk_every_primitive_class(family, m, modulus):
    code = make_bch(2, m, modulus) if family == "bch" else make_melas(m, modulus)
    res = cyclic_burst_radius(code)
    assert (res.b, res.witness) == _walk_radius(code)


@pytest.mark.parametrize("factors", [(0x83, 0x211), (0b111, 0x8003), (0x20009,)])
def test_orbit_rows_longer_than_a_block_match_walk(factors):
    # primitive factors of degrees 7 and 9, 2 and 15, and 17
    g = _product(factors)
    code = make_cyclic_code(poly_order(g), g)
    assert code.n > 1 << lfsr_mod._K  # every orbit is longer than a block
    res = cyclic_burst_radius(code)
    assert (res.b, res.witness) == _walk_radius(code)
    assert orbit_representatives(g) == walk_minima(g)


@pytest.mark.parametrize("k", [3, 5])
def test_small_blocks_match_walk_on_the_corpus(k, monkeypatch):
    monkeypatch.setattr(lfsr_mod, "_K", k)
    for entry in build_corpus():
        res = cyclic_burst_radius(entry.code)
        assert (res.b, res.witness) == _walk_radius(entry.code), entry.name
        assert orbit_representatives(entry.code.g) == walk_minima(entry.code.g), entry.name


# Codes whose orbits with a zero component are named late or never all
# before the end: a parity factor X+1 puts a zero component in half of all
# residues, and a factor of order 5 has orbits of five.
LATE_ZERO_COMPONENTS = ["parity_p3", "parity_p4", "parity_p5", "parity_2_3",
                        "ord5_quartic", "ord5_prim4", "ord5_prim2", "ord5_prim3"]


@pytest.mark.parametrize("k", [3, 5])
def test_late_zero_component_orbits_match_walk(k, monkeypatch):
    monkeypatch.setattr(lfsr_mod, "_K", k)
    corpus = {entry.name: entry.code for entry in build_corpus()}
    codes = [corpus[name] for name in LATE_ZERO_COMPONENTS]
    codes.append(make_cyclic_code(105, _product([0b111, 0xB, 0x13])))  # degrees 2, 3 and 4
    for code in codes:
        assert lfsr_mod.orbit_minima(code.r, code.factors).tolist() == walk_minima(code.g), code.g


@pytest.mark.parametrize("code", [make_bch(2, 5), make_melas(6), make_bch(3, 5)],
                         ids=["bch-2-5", "melas-6", "bch-3-5"])
def test_retired_zero_pass_gives_zero_component_rows_id_0(code, monkeypatch):
    # once every orbit with a zero component has a first position, such rows
    # get the zero orbit's id; every other row keeps its own
    monkeypatch.setattr(lfsr_mod, "_K", 3)
    retired = []
    ids = lfsr_mod._OrbitNames.ids

    def recorded(self, start, stop):
        out = ids(self, start, stop)
        if not self.partial:
            retired.extend(zip(range(start + 1, stop, 2), out.tolist()))
        return out

    monkeypatch.setattr(lfsr_mod._OrbitNames, "ids", recorded)
    assert lfsr_mod.orbit_minima(code.r, code.factors).tolist() == walk_minima(code.g)
    zero = {f for f, _ in retired if any(divmod_poly(f, fac.poly)[1] == 0 for fac in code.factors)}
    assert zero  # the retired pass met rows with a zero component
    assert all((i == 0) == (f in zero) for f, i in retired)


@given(square_free_generators)
@settings(max_examples=60, deadline=None)
def test_orbit_minima_in_blocks_of_8_match_walk(g):
    code = make_cyclic_code(poly_order(g), g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lfsr_mod, "_K", 3)
        assert lfsr_mod.orbit_minima(code.r, code.factors).tolist() == walk_minima(g)


def test_fused_carry_matches_the_two_step_carry():
    # a radix-1 step carries (l*unit mod period)*w to a later factor i; where
    # period*w = 0 mod n_i the chain stores unit*w mod n_i and carries l times it
    rng = np.random.default_rng(28)
    fused_steps = refused_steps = 0
    for entry in build_corpus():
        names = lfsr_mod._OrbitNames(entry.code.r, entry.code.factors)
        for _, steps in names.chains:
            for j, radix, _, unit, period, carry, fused in steps:
                l = rng.integers(0, names.n[j], 500)
                s = l * unit % period
                if fused is None:
                    if carry and radix == 1:  # refused: fusing would move some logs
                        refused_steps += 1
                        assert any(period * w % names.n[i] for i, w in carry)
                        assert any(((s * w - l * (unit * w)) % names.n[i]).any() for i, w in carry)
                    continue
                fused_steps += 1
                assert radix == 1 and [i for i, _ in fused] == [i for i, _ in carry]
                for (i, w), (_, w_fused) in zip(carry, fused):
                    x = rng.integers(0, names.n[i], 500)
                    assert ((x + l * w_fused) % names.n[i] == (x + s * w) % names.n[i]).all()
    assert fused_steps and refused_steps


@pytest.mark.parametrize("m", [5, 6])
def test_three_factor_bch_matches_walk(m):
    code = make_bch(3, m)
    res = cyclic_burst_radius(code)
    assert (res.b, res.witness) == _walk_radius(code)


@pytest.mark.parametrize("code", [
    make_bch(2, 4),
    make_melas(4),
    make_cyclic_code(15, mul(0b11, 0x13)),        # X+1 and a primitive quartic
    make_cyclic_code(45, mul(0x1F, 0x49)),        # orders 5 and 9
    make_cyclic_code(105, _product([0b111, 0xB, 0x13])),  # degrees 2, 3 and 4
], ids=["bch-2-4", "melas-4", "parity-x-0x13", "orders-5-9", "degrees-2-3-4"])
def test_orbit_names_are_exactly_the_orbits(code):
    names = lfsr_mod._OrbitNames(code.r, code.factors)
    assert code.r <= lfsr_mod._K  # one block holds every residue
    odd = range(1, 1 << code.r, 2)
    ids = names.ids(0, 1 << code.r).tolist()
    assert len(ids) == len(odd)  # one id per odd residue
    id_of = dict(zip(odd, ids))
    id_of[0] = 0  # the zero orbit, whose id orbit_minima presets
    orbit_of = {}  # walk every state with f -> X*f mod g; 0 is an orbit of its own
    for f in range(1 << code.r):
        x = f
        while x not in orbit_of:
            orbit_of[x] = f
            x = shift_mod(x, code.g)
    orbits = {}
    for f, o in orbit_of.items():
        orbits.setdefault(o, []).append(f)
    assert all(any(f & 1 for f in orbit) for o, orbit in orbits.items() if o)  # each holds an odd residue
    by_orbit = {}
    for f, i in id_of.items():
        by_orbit.setdefault(orbit_of[f], set()).add(i)
    assert by_orbit.keys() == orbits.keys()  # zero and the odd residues meet every orbit
    assert all(len(s) == 1 for s in by_orbit.values())  # constant along each orbit
    named = [i for s in by_orbit.values() for i in s]
    assert len(set(named)) == len(named)  # different orbits, different ids
    assert sorted(named) == list(range(names.total))


def test_factor_orders_match_poly_order():
    """CodeFactor.order, shared by the orbit method and the bounds, against
    poly_order and is_primitive, on every irreducible of degree <= 8 used
    as a factor: alone, in a shared context, and in a mixed-degree code."""
    factors = []
    for h in (h for h in range(3, 1 << 9, 2) if gf2poly.is_irreducible(h)):
        factors += make_cyclic_code(max(poly_order(h), 3), h).factors
    for code in [make_bch(e, m) for e, m in ((2, 4), (2, 6), (2, 8), (3, 6), (3, 8))]:
        factors += code.factors
    factors += make_melas(8).factors
    factors += make_cyclic_code(105, _product([0b111, 0xB, 0x13])).factors
    for fac in factors:
        assert fac.order == poly_order(fac.poly)
        assert (fac.order == (1 << fac.degree) - 1) == gf2poly.is_primitive(fac.poly)


def test_orbit_radius_does_not_walk_the_states():
    # the state walk is gone from the package: orbit_minima reads blocks
    src = Path(radius_mod.__file__).parent
    assert [p.name for p in src.glob("*.py") if "_orbit_minima" in p.read_text()] == []
    res = cyclic_burst_radius(make_bch(2, 8))
    assert (res.b, res.witness) == (12, 2055)  # the walk's values


@pytest.mark.parametrize("code", [make_bch(2, 8), make_melas(7), make_bch(3, 5),
                                  make_cyclic_code(105, _product([0b111, 0xB, 0x13]))],
                         ids=["bch-2-8", "melas-7", "bch-3-5", "degrees-2-3-4"])
def test_orbit_minima_stops_at_the_block_of_the_largest_minimum(code, monkeypatch):
    monkeypatch.setattr(lfsr_mod, "_K", 3)
    blocks = []
    ids = lfsr_mod._OrbitNames.ids

    def counted(self, start, stop):
        blocks.append((start, stop))
        return ids(self, start, stop)

    monkeypatch.setattr(lfsr_mod._OrbitNames, "ids", counted)
    minima = lfsr_mod.orbit_minima(code.r, code.factors)
    assert minima.tolist() == walk_minima(code.g)
    # the shells [0, 2), [2, 4), [4, 8), then aligned blocks of 2^3
    edges = [0, 2, 4, *range(8, 1 << code.r, 8), 1 << code.r]
    last = next(i for i, e in enumerate(edges) if e > minima[-1])
    assert blocks == list(zip(edges[:last], edges[1:last + 1]))


@given(square_free_generators)
@settings(max_examples=60, deadline=None)
def test_every_nonzero_orbit_minimum_is_odd(g):
    minima = walk_minima(g)
    assert all(f & 1 for f in minima)
    code = make_cyclic_code(poly_order(g), g)
    assert lfsr_mod.orbit_minima(code.r, code.factors).tolist() == minima


@pytest.mark.parametrize("code", [make_bch(2, 8), make_melas(7)], ids=["bch-2-8", "melas-7"])
def test_orbit_minima_reads_only_odd_residues_below_the_radius_edge(code, monkeypatch):
    read = []
    ids = lfsr_mod._OrbitNames.ids

    def counted(self, start, stop):
        out = ids(self, start, stop)
        assert start % 2 == stop % 2 == 0 and len(out) == (stop - start) // 2  # odd positions only
        read.append(len(out))
        return out

    monkeypatch.setattr(lfsr_mod._OrbitNames, "ids", counted)
    b = cyclic_burst_radius(code).b
    k = lfsr_mod._K
    edge = min(e for e in [1 << k - 2, 1 << k - 1, *range(1 << k, 2 << b, 1 << k)] if e >= 1 << b)
    assert sum(read) <= edge // 2  # about the 2^(b-1) odd residues below 2^b


def test_orbit_scan_memory_does_not_grow_with_the_block_count():
    # BCH(2,17): r = 34, so 2^21 blocks of 2^13 span the residues; the
    # scan must not hold a list of them
    code = make_bch(2, 17)
    cyclic_burst_radius(code)  # field tables and bounds outside the trace
    tracemalloc.start()
    try:
        cyclic_burst_radius(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_table_methods_share_the_max_r_default(monkeypatch):
    # MAX_R is a constant of the module, not a keyword of either method
    assert MAX_R == 26
    for fn in (cyclic_burst_radius, matrix_burst_radius):
        assert "max_r" not in inspect.signature(fn).parameters
    code = make_bch(2, 6)
    monkeypatch.setattr(radius_mod, "MAX_R", 9)
    with pytest.raises(BudgetError, match="max_r=9"):
        cyclic_burst_radius(code)
    with pytest.raises(BudgetError, match="max_r=9"):
        matrix_burst_radius(parity_check_matrix(code))


def _radius_oracle(cols, r, cyclic):
    # straightforward set-based reference, independent of the numpy path
    n = len(cols)
    full = set(range(1 << r))
    for b in range(1, n + 1):
        reachable = {0}
        starts = range(n) if cyclic else range(max(1, n - b + 1))
        for i in starts:
            for p in range(1 << min(b, n)):
                s = 0
                for j in range(min(b, n)):
                    if p >> j & 1:
                        s ^= cols[(i + j) % n]
                reachable.add(s)
        if reachable == full:
            return b
    raise AssertionError("no covering width found")


@given(st.integers(min_value=0, max_value=2**31 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_matrix_radius_matches_set_oracle(seed, cyclic):
    rng = random.Random(seed)
    r = rng.randrange(2, 5)
    n = rng.randrange(r, 9)
    while True:
        cols = [rng.randrange(1 << r) for _ in range(n)]
        M = _from_columns(cols, r)
        if M.rank() == r:
            break
    res = matrix_burst_radius(M, cyclic=cyclic)
    assert res.b == _radius_oracle(cols, r, cyclic)


def test_bounds_report_bch_uppers():
    expected = {6: 10, 7: 11, 8: 13, 9: 14, 10: 16, 11: 17}
    for m, val in expected.items():
        rep = bounds_report(make_bch(2, m))
        assert rep.entry("bch_upper").value == val


def test_bounds_report_lower_bounds():
    rep = bounds_report(make_bch(3, 8))
    assert rep.entry("bch_melas_lower").value == 2 * 8 + 2
    rep = bounds_report(make_melas(7))
    assert rep.entry("bch_melas_lower").value == 9
    assert rep.entry("melas_upper").value == 11  # floor(3*7/2 + 1)


def test_bounds_exact_two_primitive_case():
    code = make_cyclic_code(105, mul(0xB, 0x13))
    rep = bounds_report(code)
    ent = rep.entry("two_primitive_exact")
    assert ent.applicable and ent.value == 5
    assert cyclic_burst_radius(code).b == 5


def test_bounds_nonprimitive_lower():
    code = make_cyclic_code(5, 0b11111)
    rep = bounds_report(code)
    ent = rep.entry("nonprimitive_lower")
    assert ent.applicable and ent.value == code.r - 4 + 2
    # BCH(2,6) has a min-degree factor of order 21, so the bound applies there
    assert bounds_report(make_bch(2, 6)).entry("nonprimitive_lower").applicable
    # both factors of BCH(2,7) are primitive: 3 is coprime to 127
    assert not bounds_report(make_bch(2, 7)).entry("nonprimitive_lower").applicable


def test_bounds_validate_flags_violations():
    rep = bounds_report(make_bch(2, 6))
    assert rep.validate(9) == []
    assert rep.validate(20)  # above the uppers
    assert rep.validate(3)   # below the lowers


def test_hamming_radius_is_one_and_bounds_respected():
    code = make_bch(1, 4)
    b = cyclic_burst_radius(code).b
    assert b == 1
    assert bounds_report(code).validate(b) == []
