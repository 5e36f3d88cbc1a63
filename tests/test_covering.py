import random

import pytest

from burstcover.codes import lc_eval, make_bch, make_cyclic_code, make_melas
from burstcover.covering import (
    CoveringCertificate,
    ThresholdError,
    burst_cover,
    get_solver,
    verify_certificate,
)
from burstcover.gf2poly import mul, shift_mod
from burstcover.radius import cyclic_burst_radius


def test_zero_syndrome():
    code = make_bch(2, 6)
    cert = burst_cover(code, 0, 9)
    assert cert == CoveringCertificate(i=0, f=0, width=0, iterations=0)
    assert verify_certificate(code, 0, cert, 9)


def test_basis_solve_inverts():
    code = make_bch(2, 5)
    solver = get_solver(code)
    for x in (1, 37, 1023, (1 << 10) - 1):
        f = solver.solve_basis(x)
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


def test_debug_mode_checks_invariant():
    # the loop invariant of CoverSolver.cover, walked here: after t shifts
    # the load reproduces x from window start -t mod n
    code = make_melas(5)
    b = cyclic_burst_radius(code).b
    for x in (5, 99, 1000):
        cert = burst_cover(code, x, b)
        f = get_solver(code).solve_basis(x)
        for t in range(cert.iterations + 1):
            assert lc_eval(code, -t % code.n, f) == x
            f = shift_mod(f, code.g)
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
        burst_cover(code, 1, 0)
