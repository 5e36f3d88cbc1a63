import functools

import pytest
from hypothesis import example, given, settings, strategies as st

from burstcover import gf2poly
from burstcover.codes import make_bch
from burstcover.lfsr import (
    LfsrSpec,
    fibonacci_to_galois,
    lfsr_sequence,
    max_zero_run,
    minimal_connection,
    orbit_minimum,
    orbit_representatives,
    pattern_counts,
    periods,
    regenerate_from_trace,
    trace_representation,
)


def monic(d: int, low: int) -> int:
    return (1 << d) | (low & ((1 << d) - 1))


def fibonacci(g: int, init, length: int) -> list[int]:
    """The recurrence a_k = sum(g_i * a_{k-r+i}) from the initial bits: the
    oracle for lfsr_sequence, which steps the Galois state instead."""
    r = g.bit_length() - 1
    out = list(init)
    while len(out) < length:
        out.append(sum(g >> i & out[len(out) - r + i] for i in range(r)) & 1)
    return out[:length]


def from_bits(g: int, init) -> LfsrSpec:
    return LfsrSpec(g, fibonacci_to_galois(g, init))


def shift_mod(f: int, g: int) -> int:
    """X*f reduced modulo g: the Galois step that the package inlines, as an oracle."""
    f <<= 1
    if f >> (g.bit_length() - 1) & 1:
        f ^= g
    return f


def window_histogram(g: int, load: int, s: int, window_length: int) -> list[int]:
    """Test oracle, shared with test_charsums and test_acceptance: counts of
    every length-s pattern over the Galois output for `load`.

    Index j of the result counts the pattern whose bit i is (j >> i) & 1
    at starts k < window_length; reads run on past the window, so a window
    of one period counts cyclic occurrences.  One rolling pass holding
    only the s-bit window, so all 2^s patterns cost one generation.
    """
    r = g.bit_length() - 1
    if r < 1 or load.bit_length() > r:
        raise ValueError("need deg(g) >= 1 and deg(load) < deg(g)")
    if s < 1 or window_length < 1:
        raise ValueError("pattern and window lengths must be >= 1")
    counts = [0] * (1 << s)
    size, top, high = 1 << r, r - 1, s - 1
    w = 0
    for k in range(window_length + high):
        w = (w >> 1) | (load >> top & 1) << high
        if k >= high:
            counts[w] += 1
        load <<= 1  # the Galois step X*f mod g
        if load & size:
            load ^= g
    return counts


def galois_states(g: int, f: int, steps: int) -> list[int]:
    """The states X^k * f mod g for k < steps."""
    states = []
    for _ in range(steps):
        states.append(f)
        f = shift_mod(f, g)
    return states


specs = st.builds(
    lambda d, low, init: (monic(d, low | 1), init & ((1 << d) - 1)),
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
)


def test_period7_pn_sequence():
    spec = from_bits(0xB, (1, 0, 0))  # connection 1 + X + X^3
    bits = lfsr_sequence(spec, 14)
    assert bits[:7] == bits[7:]  # period 7
    windows = {tuple(bits[k:k + 3]) for k in range(7)}
    assert len(windows) == 7 and (0, 0, 0) not in windows


@pytest.mark.parametrize("make", [
    lambda: LfsrSpec(0b1, 0),  # degree 0
    lambda: LfsrSpec(0xB, 0b1000),  # load of degree 3 = deg(g)
    lambda: LfsrSpec(0xB, -1),
    lambda: fibonacci_to_galois(0xB, (1, 0)),  # two bits for degree 3
    lambda: fibonacci_to_galois(0xB, (1, 2, 0)),
])
def test_loads_and_initial_bits_are_validated(make):
    with pytest.raises(ValueError):
        make()


def test_zero_initial_conditions_stay_zero():
    spec = from_bits(0xB, (0, 0, 0))
    assert spec.load == 0 and lfsr_sequence(spec, 20) == bytes(20)


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=255))
@settings(max_examples=60)
def test_primitive_connection_reaches_full_period(m, init_bits):
    from burstcover.field import default_modulus

    g = default_modulus(m)
    init = tuple((init_bits >> i) & 1 for i in range(m))
    if not any(init):
        return
    spec = from_bits(g, init)
    assert gf2poly.poly_order(minimal_connection(spec)) == (1 << m) - 1
    bits = lfsr_sequence(spec, 2 * ((1 << m) - 1))
    assert bits[:(1 << m) - 1] == bits[(1 << m) - 1:]


def test_galois_zero_load():
    assert galois_states(0xB, 0, 5) == [0] * 5
    assert lfsr_sequence(LfsrSpec(0xB, 0), 5) == bytes(5)


def test_galois_hand_example():
    assert galois_states(0xB, 0b100, 3) == [0b100, 0b011, 0b110]  # X^2, 1+X, X+X^2
    assert lfsr_sequence(LfsrSpec(0xB, 0b100), 3) == bytes([1, 0, 1])


@given(specs)
@settings(max_examples=150)
def test_galois_output_matches_fibonacci(params):
    """The Galois stepper against the Fibonacci recurrence: the load that
    fibonacci_to_galois reads from r initial bits starts with those bits
    and then follows the recurrence, and the first r terms of a load's
    sequence convert back to that load."""
    g, bits = params
    r = g.bit_length() - 1
    steps = 3 * r + 8
    init = [bits >> i & 1 for i in range(r)]
    out = lfsr_sequence(from_bits(g, init), steps)
    assert out[:r] == bytes(init)
    assert out == bytes(fibonacci(g, init, steps))
    assert fibonacci_to_galois(g, lfsr_sequence(LfsrSpec(g, bits), r)) == bits


@given(specs)
@settings(max_examples=150)
def test_degree_equals_top_minus_zero_run(params):
    g, f = params
    r = g.bit_length() - 1
    steps = 2 * r + 6
    states = galois_states(g, f, steps)
    out = lfsr_sequence(LfsrSpec(g, f), steps + r + 1)
    for k in range(steps):
        j = 0
        while out[k + j] == 0 and j <= r:
            j += 1
        if states[k] == 0:
            continue
        assert states[k].bit_length() - 1 == r - 1 - j


def test_max_zero_run_pn():
    for m in (3, 5, 8):
        from burstcover.field import default_modulus

        spec = from_bits(default_modulus(m), (1,) + (0,) * (m - 1))
        assert max_zero_run(spec) == m - 1


def test_max_zero_run_minimum_over_states_bch26():
    g = make_bch(2, 6).g
    best = min(
        max_zero_run(LfsrSpec.from_galois(g, rep)) for rep in orbit_representatives(g)
    )
    assert best == 3  # 12 - 9


def test_all_ones_sequence_has_no_zeros():
    g = gf2poly.mul(0b11, 0xB)  # parity factor
    spec = from_bits(g, (1, 1, 1, 1))
    assert minimal_connection(spec) == 0b11
    assert max_zero_run(spec) == 0


def test_max_zero_run_rejects_zero_state():
    with pytest.raises(ValueError):
        max_zero_run(LfsrSpec(0xB, 0))


def test_max_zero_run_rejects_connection_without_constant_term():
    # with g(0) = 0 the orbit of the load never returns to it
    with pytest.raises(ValueError, match="g\\(0\\) = 1"):
        max_zero_run(LfsrSpec(0b1010, 0b100))


@given(specs)
@settings(max_examples=200)
def test_max_zero_run_matches_runs_of_one_period(params):
    """The state-degree identity against the zero runs of one period, read
    cyclically: the trailing run wraps into the leading one."""
    g, f = params
    if f == 0:
        return
    spec = LfsrSpec.from_galois(g, f)
    runs = "".join(map(str, lfsr_sequence(spec, orbit_size(g, f)))).split("1")
    assert max_zero_run(spec) == max([len(runs[0]) + len(runs[-1]), *map(len, runs[1:-1])])


@given(specs)
@settings(max_examples=100)
def test_orbit_minimum_is_least_state(params):
    g, f = params
    if f == 0:
        return
    assert orbit_minimum(g, f) == min(galois_states(g, f, orbit_size(g, f)))


def test_max_zero_run_holds_no_period(monkeypatch):
    import burstcover.lfsr as lfsr_mod
    from burstcover.field import default_modulus

    def fail(*args):
        raise AssertionError("the period was generated")

    for name in ("lfsr_sequence", "periods", "poly_order"):
        monkeypatch.setattr(lfsr_mod, name, fail)
    spec = from_bits(default_modulus(16), (1,) + (0,) * 15)
    assert max_zero_run(spec) == 15


@given(specs)
@settings(max_examples=100)
def test_max_zero_run_below_order_for_minimal_sequences(params):
    g, f = params
    if f == 0 or g & 1 == 0:
        return
    spec = LfsrSpec.from_galois(g, f)
    r = g.bit_length() - 1
    if minimal_connection(spec) == g:
        # a run of r zeros would force the zero state
        assert max_zero_run(spec) <= r - 1


def test_pattern_count_pn_census():
    m = 5
    from burstcover.field import default_modulus

    g = default_modulus(m)
    load = fibonacci_to_galois(g, (1,) + (0,) * (m - 1))
    n = (1 << m) - 1
    for s in range(1, m + 1):
        counts = window_histogram(g, load, s, n)
        for y in range(1 << s):
            assert counts[y] == ((1 << (m - s)) - 1 if y == 0 else 1 << (m - s))


def test_pattern_count_length_m_unique():
    m = 6
    from burstcover.field import default_modulus

    g = default_modulus(m)
    load = fibonacci_to_galois(g, (1,) + (0,) * (m - 1))
    assert window_histogram(g, load, m, (1 << m) - 1)[(1 << m) - 1] == 1


@given(specs, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=40))
@settings(max_examples=100)
def test_pattern_counts_partition_window(params, s, L):
    g, f = params
    if f == 0:
        return
    assert sum(window_histogram(g, f, s, L)) == L


@given(specs, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=40))
@settings(max_examples=60)
def test_window_histogram_matches_pattern_count(params, s, L):
    """The Galois-mode histogram against a count over the Fibonacci sequence."""
    g, f = params
    if f == 0:
        return
    counts = window_histogram(g, f, s, L)
    bits = lfsr_sequence(LfsrSpec.from_galois(g, f), L + s - 1)
    windows = [sum(bits[k + i] << i for i in range(s)) for k in range(L)]
    for y in range(1 << s):
        assert counts[y] == windows.count(y)


@pytest.mark.parametrize("load, s, window", [(8, 1, 7), (1, 0, 7), (1, 2, 0)])
def test_window_histogram_rejects_bad_sizes(load, s, window):
    with pytest.raises(ValueError):
        window_histogram(0xB, load, s, window)


# connections with g(0) = 1 as products of up to three factors of degree
# <= 4, so reducible and non-square-free ones (a repeated factor) come up
connections = st.lists(st.integers(min_value=1, max_value=15), min_size=1, max_size=3).map(
    lambda lows: functools.reduce(gf2poly.mul, [2 * low + 1 for low in lows]))


@given(connections, st.integers(min_value=0, max_value=(1 << 12) - 1), st.sampled_from([1, 2]))
@example(0b101, 0b10, 2)  # (X + 1)^2
@example(gf2poly.mul(0b111, 0b111), 0b1011, 1)  # (X^2 + X + 1)^2
@example(gf2poly.mul(0b11, 0b10011), 0b11111, 2)  # (X + 1)(X^4 + X + 1)
@settings(max_examples=150)
def test_periods_match_the_stepper(g, load, multiple):
    """Term k of a period is bit n - 1 - k of load * h, at n = ord(g) and 2 ord(g)."""
    load &= (1 << (g.bit_length() - 1)) - 1
    n = multiple * gf2poly.poly_order(g)
    (row,) = periods(g, [load], n)
    assert bytes(row >> (n - 1 - k) & 1 for k in range(n)) == lfsr_sequence(LfsrSpec(g, load), n)


def test_periods_of_many_loads_share_one_quotient():
    g = make_bch(2, 4).g
    loads = orbit_representatives(g)
    assert periods(g, loads, 15) == [periods(g, [f], 15)[0] for f in loads]
    assert periods(g, [], 15) == []


@pytest.mark.parametrize("g, n", [
    (0b1010, 7),  # X^3 + X: g(0) = 0
    (0b10, 1),  # X
    (0b1011, 6),  # ord(X^3 + X + 1) = 7 does not divide 6
    (gf2poly.mul(0b1011, 0b1011), 7),  # its square needs n = 14
])
def test_periods_refuse_a_connection_that_does_not_divide(g, n):
    with pytest.raises(ValueError, match="does not divide"):
        periods(g, [1], n)


@given(connections.filter(lambda g: g.bit_length() <= 9), st.integers(min_value=1, max_value=8),
       st.lists(st.integers(min_value=1, max_value=255), min_size=1, max_size=6))
@settings(max_examples=100)
def test_pattern_counts_match_the_stepped_histogram(g, s, loads):
    """Every row of pattern_counts against the stepped oracle, m <= 8."""
    r = g.bit_length() - 1
    loads = [f & ((1 << r) - 1) or 1 for f in loads]
    n = gf2poly.poly_order(g)
    counts = pattern_counts(periods(g, loads, n), n, s)
    assert counts.shape == (len(loads), 1 << s)
    for row, f in zip(counts.tolist(), loads):
        assert row == window_histogram(g, f, s, n)


def test_pattern_counts_of_a_pn_period():
    from burstcover.field import default_modulus

    m = 8
    n = (1 << m) - 1
    counts = pattern_counts(periods(default_modulus(m), [1], n), n, m)
    assert counts[0, 0] == 0 and (counts[0, 1:] == 1).all()


def orbit_size(g: int, f: int) -> int:
    """Shifts of f -> X*f mod g until f returns: an oracle apart from poly_order."""
    x, size = shift_mod(f, g), 1
    while x != f:
        x, size = shift_mod(x, g), size + 1
    return size


def test_orbits_primitive_single():
    assert orbit_representatives(0xB) == [1]


def test_orbits_partition_bch26():
    g = make_bch(2, 6).g
    reps = orbit_representatives(g)
    assert sum(orbit_size(g, rep) for rep in reps) == (1 << 12) - 1


def test_orbit_sizes_divide_order():
    g = gf2poly.mul(0xB, 0x13)
    for rep in orbit_representatives(g):
        assert 105 % orbit_size(g, rep) == 0


def test_orbit_closure():
    g = gf2poly.mul(0xB, 0x13)
    for rep in orbit_representatives(g)[:20]:
        f = rep
        for _ in range(orbit_size(g, rep)):
            f = shift_mod(f, g)
        assert f == rep


square_free_moduli = st.builds(
    lambda d, low: monic(d, low | 1),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=(1 << 12) - 1),
).filter(gf2poly.is_square_free)


def walk_minima(g: int) -> list[int]:
    """Test oracle, shared with test_radius: the least member of every orbit
    of nonzero residues mod g, ascending, from a walk of each orbit."""
    minima = []
    seen = set()
    for f in range(1, 1 << (g.bit_length() - 1)):
        if f in seen:
            continue
        orbit = [f]
        x = shift_mod(f, g)
        while x != f:
            orbit.append(x)
            x = shift_mod(x, g)
        seen.update(orbit)
        minima.append(min(orbit))
    return sorted(minima)


@given(square_free_moduli)
@settings(max_examples=40, deadline=None)
def test_orbit_walker_matches_shift_mod_minima(g):
    assert orbit_representatives(g) == walk_minima(g)


def test_orbit_rejects_bad_polys():
    with pytest.raises(ValueError):
        orbit_representatives(0b10)  # X | g
    with pytest.raises(ValueError):
        orbit_representatives(0b101)  # (X+1)^2


def test_trace_representation_impulse():
    m = 5
    from burstcover.field import default_modulus

    g = default_modulus(m)
    spec = from_bits(g, (1,) + (0,) * (m - 1))
    gammas = trace_representation(spec)  # verifies internally
    assert len(gammas) == 1
    assert gammas[0][1] != 0


def test_trace_representation_zero_sequence_component():
    g1, g2 = 0xB, 0x13
    g = gf2poly.mul(g1, g2)
    spec = LfsrSpec.from_galois(g, 0b1011001)
    gammas = trace_representation(spec)
    assert all(type(gamma) is int for _, gamma in gammas)
    # dropping the second component leaves a sequence with connection g1
    only_first = [(fac, gamma) for fac, gamma in gammas if fac.poly == g1]
    bits = regenerate_from_trace(only_first, 40)
    sub = from_bits(g1, bits[:3])
    assert lfsr_sequence(sub, 40) == bits


@given(specs)
@example((0b11, 1))  # X + 1 alone: the root 1 and GF(2)
@example((0x1D, 0b1011))  # (X + 1)(X^3 + X + 1)
@example((gf2poly.mul(0x1D, 0b111), 0b101101))  # three factors of degrees 1, 2, 3
@settings(max_examples=40, deadline=None)
def test_trace_representation_round_trip(params):
    g, f = params
    if f == 0 or not gf2poly.is_square_free(g):
        return
    spec = LfsrSpec.from_galois(g, f)
    trace_representation(spec)  # raises if regeneration mismatches
