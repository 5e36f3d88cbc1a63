import dataclasses
import functools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from burstcover.bitmatrix import row_reduce
from burstcover.codes import lc_eval, make_bch, make_cyclic_code, make_melas, parity_check_matrix
from burstcover.corpus import build_corpus, exact_two_primitive_cases
from burstcover.covering import (
    CoverSolver,
    CoveringCertificate,
    ThresholdError,
    _and_schedule,
    _apply,
    _chunk_tables,
    burst_cover,
    get_solver,
    verify_certificate,
)
from burstcover.gf2poly import mul
from burstcover.lfsr import periods
from burstcover.radius import BudgetError, cyclic_burst_radius
from test_bitmatrix import preimages, row_masks
from test_lfsr import shift_mod


@functools.lru_cache(maxsize=None)
def _inverse_rows(code):
    """Rows of the inverse of H's leading r x r block, by reducing [A | I]."""
    r = code.r
    low = (1 << r) - 1
    reduced, _ = row_reduce([(m & low) | 1 << (r + i)
                             for i, m in enumerate(row_masks(parity_check_matrix(code)))], r)
    return [row >> r for row in reduced]


def solved_load(code, x):
    """The load f, deg(f) < r, whose window at 0 evaluates to x."""
    return sum(((row & x).bit_count() & 1) << i for i, row in enumerate(_inverse_rows(code)))


def shift_loop_cover(code, x, b_prime):
    """Reference: step the solved load by f -> X*f mod g until deg(f) < b'."""
    f = solved_load(code, x)
    t = 0
    while f >= 1 << b_prime:
        f = shift_mod(f, code.g)
        t += 1
        if t > code.n:
            raise ThresholdError("threshold below radius")
    i = -t % code.n
    if f:
        v = (f & -f).bit_length() - 1
        f >>= v
        i = (i + v) % code.n
    return CoveringCertificate(i=i, f=f, width=f.bit_length(), iterations=t)


ORACLE_CODES = [
    *(make_bch(2, m) for m in range(3, 9)),
    *(make_melas(m) for m in range(3, 9)),
    make_cyclic_code(105, mul(0xB, 0x13)),
    make_cyclic_code(7, mul(0b11, 0xB)),
    make_cyclic_code(15, 0b11),  # the even-weight code, r = 1
]


def _run_lengths(z, nbits):
    """runs[t]: the number of consecutive set bits of z from bit t up."""
    runs = [0] * (nbits + 1)
    for t in range(nbits - 1, -1, -1):
        runs[t] = runs[t + 1] + 1 if z >> t & 1 else 0
    return runs


def test_and_schedule_finds_every_run():
    rng = random.Random(11)
    nbits = 400
    for length in range(1, 65):
        steps = _and_schedule(length)
        assert len(steps) == math.ceil(math.log2(length))
        for density in (0.9, 0.97, 0.995):
            z = sum(1 << t for t in range(nbits) if rng.random() < density)
            runs = _run_lengths(z, nbits)
            for step in steps:
                z &= z >> step
            assert [z >> t & 1 for t in range(nbits)] == [runs[t] >= length for t in range(nbits)]
    code = make_melas(7)
    assert get_solver(code)._steps == [_and_schedule(length) for length in range(code.r + 1)]


@pytest.mark.parametrize("code", [make_bch(2, 10), make_melas(10)], ids=lambda c: c.describe())
def test_cover_matches_shift_loop_at_r_20(code):
    # the codes of the cover_stream benchmark, past the r <= 16 oracle codes
    b = cyclic_burst_radius(code).b
    rng = random.Random(f"shift-loop:{code.describe()}")
    for _ in range(200):
        x = rng.getrandbits(code.r)
        for b_prime in (b, b + 1, b + 2):
            assert burst_cover(code, x, b_prime) == shift_loop_cover(code, x, b_prime)


@st.composite
def cover_queries(draw):
    code = draw(st.sampled_from(ORACLE_CODES))
    x = draw(st.integers(min_value=0, max_value=(1 << code.r) - 1))
    return code, x, draw(st.integers(min_value=1, max_value=code.r + 1))


@given(cover_queries())
@settings(max_examples=400, deadline=None)
def test_cover_matches_shift_loop(query):
    code, x, b_prime = query
    try:
        want = shift_loop_cover(code, x, b_prime)
    except ThresholdError:
        with pytest.raises(ThresholdError, match="threshold below radius"):
            burst_cover(code, x, b_prime)
        return
    assert burst_cover(code, x, b_prime) == want


def test_zero_syndrome():
    code = make_bch(2, 6)
    cert = burst_cover(code, 0, 9)
    assert cert == CoveringCertificate(i=0, f=0, width=0, iterations=0)
    assert verify_certificate(code, 0, cert, 9)


def test_basis_solve_inverts():
    # at full width no shift is taken: the certificate is the solved load,
    # normalized to start at its lowest term
    code = make_bch(2, 5)
    for x in (1, 37, 1023, (1 << 10) - 1):
        cert = burst_cover(code, x, code.r)
        assert cert.iterations == 0
        f = cert.f << cert.i
        assert f == solved_load(code, x)
        assert lc_eval(code, 0, f) == x


def test_random_syndromes_verify_at_radius():
    code = make_bch(2, 6)
    b = cyclic_burst_radius(code).b
    rng = random.Random(42)
    for _ in range(300):
        x = rng.randrange(1 << code.r)
        cert = burst_cover(code, x, b)
        assert cert.width <= b
        assert cert.iterations <= code.n
        assert verify_certificate(code, x, cert, b)


def test_shift_walk_reproduces_x_up_to_the_certificate():
    # after t shifts the load reproduces x from window start -t mod n, and
    # after `iterations` shifts it is the certificate's pattern
    code = make_melas(5)
    b = cyclic_burst_radius(code).b
    for x in (5, 99, 1000):
        cert = burst_cover(code, x, b)
        f = solved_load(code, x)
        for t in range(cert.iterations):
            assert lc_eval(code, -t % code.n, f) == x
            f = shift_mod(f, code.g)
        assert f == cert.f << (cert.i + cert.iterations) % code.n
        assert verify_certificate(code, x, cert, b)


def test_full_width_never_iterates():
    code = make_bch(2, 5)
    rng = random.Random(1)
    for _ in range(50):
        x = rng.randrange(1 << code.r)
        cert = burst_cover(code, x, code.r)
        assert cert.iterations == 0
        assert cert.width <= code.r
        assert verify_certificate(code, x, cert, code.r)


def test_exhaustive_completeness_small_codes():
    for code in (make_cyclic_code(7, mul(0b11, 0xB)),      # r=4, b=r
                 make_cyclic_code(105, mul(0xB, 0x13)),    # r=7, b=5
                 make_bch(2, 6),                           # r=12, b=9
                 make_melas(6)):                           # r=12, b=9
        b = cyclic_burst_radius(code).b
        for x in range(1 << code.r):
            cert = burst_cover(code, x, b)
            assert verify_certificate(code, x, cert, b)


def test_threshold_below_radius_detected():
    code = make_bch(2, 6)
    b = cyclic_burst_radius(code).b
    tripped = False
    for x in range(1 << code.r):
        try:
            burst_cover(code, x, b - 1)
        except ThresholdError as exc:
            assert "threshold below radius" in str(exc)
            tripped = True
            break
    assert tripped


def test_tampered_certificates_fail():
    code = make_bch(2, 6)
    x = 0xABC
    cert = burst_cover(code, x, 9)
    assert verify_certificate(code, x, cert, 9)
    moved = CoveringCertificate((cert.i + 1) % code.n, cert.f, cert.width, cert.iterations)
    assert not verify_certificate(code, x, moved, 9)
    flipped = CoveringCertificate(cert.i, cert.f ^ 1, cert.f.bit_length(), cert.iterations)
    assert not verify_certificate(code, x, flipped, 9)
    wrong_width = CoveringCertificate(cert.i, cert.f, cert.width + 1, cert.iterations)
    assert not verify_certificate(code, x, wrong_width, 9)


def test_window_start_out_of_range_is_rejected():
    # i = n and i = -1 name the columns of i = 0 and i = n - 1 modulo n, so
    # each forged certificate would reproduce x if its start were wrapped
    code = make_bch(2, 6)
    f = 0b101
    for start, forged in ((0, code.n), (code.n - 1, -1)):
        x = lc_eval(code, start, f)
        cert = CoveringCertificate(start, f, f.bit_length(), 0)
        assert verify_certificate(code, x, cert, 9)
        assert not verify_certificate(code, x, dataclasses.replace(cert, i=forged), 9)


def test_certificate_is_a_frozen_hashable_value():
    code = make_bch(2, 6)
    cert = burst_cover(code, 0xABC, 9)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.f = 1
    assert not hasattr(cert, "__dict__")
    assert [field.name for field in dataclasses.fields(cert)] == ["i", "f", "width", "iterations"]
    twin = CoveringCertificate(cert.i, cert.f, cert.width, cert.iterations)
    assert twin == cert and hash(twin) == hash(cert)
    flipped = dataclasses.replace(cert, f=cert.f ^ 2)
    assert flipped == CoveringCertificate(cert.i, cert.f ^ 2, cert.width, cert.iterations)
    assert list(cert.to_json()) == ["i", "f_hex", "width", "iterations"]


def test_negative_pattern_is_rejected():
    # -1 has bit length 1 and an odd low bit, so only the sign tells it apart
    code = make_bch(2, 6)
    forged = CoveringCertificate(i=0, f=-1, width=1, iterations=0)
    assert not verify_certificate(code, 9, forged, 9)


def test_pattern_is_normalized():
    code = make_bch(2, 6)
    rng = random.Random(3)
    for _ in range(100):
        x = rng.randrange(1, 1 << code.r)
        cert = burst_cover(code, x, 9)
        assert cert.f & 1 == 1  # constant coefficient present after normalization


def test_bad_inputs():
    code = make_bch(2, 4)
    with pytest.raises(ValueError):
        burst_cover(code, 1 << code.r, 8)
    with pytest.raises(ValueError):
        burst_cover(code, -1, 8)
    with pytest.raises(ValueError):
        burst_cover(code, 1, 0)
    with pytest.raises(ValueError):
        burst_cover(code, 1, -1)


def test_solver_checks_the_length_before_any_table(monkeypatch):
    # the command line checks the length before it builds the code; a
    # library caller that built one is stopped here, before any trace read
    import burstcover.covering as covering_mod
    from test_cli import _fail_if_called

    monkeypatch.setattr(covering_mod, "COVER_MAX_N", 62)
    _fail_if_called(monkeypatch, covering_mod, "trace_table", "derivative")
    with pytest.raises(BudgetError, match="cover_max_n=62"):
        CoverSolver(make_bch(2, 6))


def test_generic_twin_of_a_bch_code_is_its_own_cache_key():
    # same n and g, so the same hash, but a different family: unequal codes
    bch = make_bch(2, 8)
    twin = make_cyclic_code(bch.n, bch.g)
    assert hash(twin) == hash(bch) and twin != bch
    assert twin.describe() != bch.describe()
    assert get_solver(twin) is not get_solver(bch)
    b = cyclic_burst_radius(bch).b
    for x in (0, 1, 0x1234, (1 << bch.r) - 1):
        for b_prime in (b, bch.r):
            cert = burst_cover(bch, x, b_prime)
            assert burst_cover(twin, x, b_prime) == cert
            assert verify_certificate(twin, x, cert, b_prime)


def division_tables(code):
    """The solver's two tables as once built from the period of load 1.

    Load 1's dual sequence is h = (X^n + 1)/g read from bit n - 1 down,
    load X^j emits it shifted by j, and two r x r inversions map a syndrome
    to its load and r sequence bits back to theirs.
    """
    n, r = code.n, code.r
    low = (1 << r) - 1
    one = int(format(periods(code.g, [1], n)[0], f"0{n}b")[::-1], 2)
    runs = [s | (s & low) << n for s in (one >> j for j in range(r))]
    run_of_load = _chunk_tables(runs)
    loads = preimages(parity_check_matrix(code).columns[:r])
    return (_chunk_tables([_apply(run_of_load, f) for f in loads]),
            _chunk_tables(preimages([s & low for s in runs])))


def _table_codes():
    """The corpus, every BCH(e,m) with e <= 3 and Melas(m) for m = 3..12,
    and three small generic codes, one of them of mixed degrees."""
    codes = [entry.code for entry in build_corpus() + exact_two_primitive_cases()]
    for m in range(3, 13):
        codes += [make_bch(e, m) for e in (1, 2, 3) if 1 << (m + 1) // 2 > 2 * e - 1]
        codes.append(make_melas(m))
    return codes + [make_cyclic_code(105, mul(0xB, 0x13)),
                    make_cyclic_code(21, mul(0b111, 0xB)),
                    make_cyclic_code(15, 0b11)]


def test_trace_form_tables_match_the_division():
    codes = _table_codes()
    assert len(codes) == 93
    for code in codes:
        solver = CoverSolver(code)
        tables = (solver._run_of_syndrome, solver._load_of_window)
        assert tables == division_tables(code), code.describe()


def test_solver_set_up_neither_divides_nor_inverts(monkeypatch):
    # each function is patched under every name a package module holds it by
    import sys

    code = make_melas(7)

    def fail(*args, **kwargs):
        raise AssertionError("the set-up divided or inverted")

    for original in (periods, row_reduce):
        for name, module in list(sys.modules.items()):
            if name.startswith("burstcover") and getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, fail)
    solver = CoverSolver(code)
    monkeypatch.undo()
    assert (solver._run_of_syndrome, solver._load_of_window) == division_tables(code)
