"""Value-type tests: decimal codec, promotion, field laws, ulp distances."""

import copy
import math
import pickle
import random
import time

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import workprec

from lineinterp import precision
from lineinterp import (
    ApComplex,
    ConfigError,
    NodeSequence,
    NumericError,
    ParseError,
    exp_sum_series,
    parse_decimal,
    render_decimal,
    ulp,
)
from support import make_complex, reference_render_decimal, ulps_apart


def nearest_bits(num, den, bits):
    """Independent nearest-value oracle: round num/den to bits, ties to even."""
    neg = (num < 0) != (den < 0)
    num, den = abs(num), abs(den)
    shift = bits - (num.bit_length() - den.bit_length())
    while True:
        if shift >= 0:
            q, r = divmod(num << shift, den)
            d = den
        else:
            q, r = divmod(num, den << -shift)
            d = den << -shift
        if q.bit_length() == bits:
            break
        shift += bits - q.bit_length()
    if 2 * r > d or (2 * r == d and q & 1):
        q += 1
    with workprec(bits + 8):
        v = mpmath.ldexp(mpmath.mpf(q), -shift)
        return -v if neg else v


def test_parse_one_tenth_matches_integer_oracle():
    x = make_complex("0.1", "0", 256)
    assert x.re == nearest_bits(1, 10, 256)
    assert x.im == 0


@pytest.mark.parametrize("bits", [64, 128, 256, 521])
def test_parse_against_oracle_random_decimals(bits):
    rng = random.Random(1000 + bits)
    for _ in range(60):
        digits = rng.randint(1, 40)
        body = str(rng.randint(1, 10**digits))
        frac = rng.randint(0, 12)
        if frac:
            body += "." + str(rng.getrandbits(40) % 10**frac).zfill(frac)
        text = ("-" if rng.random() < 0.5 else "") + body
        if rng.random() < 0.5:
            text += "e%+d" % rng.randint(-25, 25)
        got = parse_decimal(text, bits)
        intpart = text.lstrip("+-")
        mant, _, exppart = intpart.partition("e")
        exp10 = int(exppart) if exppart else 0
        ip, _, fp = mant.partition(".")
        num = int(ip + fp)
        exp10 -= len(fp)
        if text.startswith("-"):
            num = -num
        if exp10 >= 0:
            num, den = num * 10**exp10, 1
        else:
            den = 10**-exp10
        assert got == nearest_bits(num, den, bits)


@pytest.mark.parametrize("bits", [64, 256, 8192])
def test_parse_rounds_halfway_decimals_to_even(bits):
    # m * 2^e with m of bits + 1 bits and odd lies halfway between two
    # neighbours at bits; its exact decimal must round to the even one, and
    # the decimals one unit in their last digit either side of it must not
    rng = random.Random(bits)
    rounded = {"up": 0, "down": 0}
    for trial in range(24):
        m = (1 << bits) | rng.getrandbits(bits) | 1
        e = rng.randint(-2 * bits, bits // 2)
        if e >= 0:
            text, num, den = str(m << e), m << e, 1
        else:
            text, num, den = "%de%d" % (m * 5**-e, e), m * 5**-e, 10**-e
        negative = trial % 2
        sign = -1 if negative else 1
        half = m >> 1
        even = half + (half & 1)
        rounded["up" if even > half else "down"] += 1
        with workprec(bits + 8):
            want = sign * mpmath.ldexp(even, e + 1)
        got = parse_decimal(("-" if negative else "") + text, bits)
        assert got == want == nearest_bits(sign * num, den, bits)
        for step in (-1, 1):
            near = num * 10 + step
            text = "%de%d" % (sign * near, min(e, 0) - 1)
            assert parse_decimal(text, bits) == nearest_bits(sign * near, den * 10, bits)
            with workprec(bits + 8):
                assert (abs(parse_decimal(text, bits)) > abs(want)) is (step > 0 and even == half)
    assert min(rounded.values()) >= 6


def test_render_parse_round_trip_random_values():
    rng = random.Random(42)
    for _ in range(300):
        bits = rng.choice([64, 128, 256, 512])
        m = rng.getrandbits(bits) | (1 << (bits - 1))
        e = rng.randint(-700, 700)
        with workprec(bits + 4):
            v = mpmath.ldexp(mpmath.mpf(m), e)
            if rng.random() < 0.5:
                v = -v
        assert parse_decimal(render_decimal(v), bits) == v


def test_render_is_exact_decimal():
    # The rendered string re-reads to the same value at any higher precision.
    x = make_complex("0.1", "0", 64)
    s = render_decimal(x.re)
    for bits in (64, 128, 1024):
        assert parse_decimal(s, bits) == x.re


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2.25", "2.25"),
        ("-0.5", "-0.5"),
        ("0", "0"),
        ("-0", "0"),
        ("1e30", "1e30"),
        ("1e10", "10000000000"),
        ("0.0001220703125", "0.0001220703125"),
    ],
)
def test_render_exact_values(text, expected):
    assert render_decimal(parse_decimal(text, 256)) == expected


@pytest.mark.parametrize(
    "bad", ["", "1.2.3", "abc", "1e", "e5", "0x10", "1 2", "--3", ".5", "5.", "nan", "1+2j"]
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_decimal(bad, 256)


def test_parse_bounds_the_decimal_order_of_magnitude():
    top = precision.MAX_DECIMAL_ORDER
    for text in ("1e%d" % top, "-9.5e%d" % (top - 1), "1e-%d" % top, "0.25e-%d" % (top - 1)):
        assert parse_decimal(text, 64) != 0
    for text in ("1e%d" % (top + 1), "10e%d" % top, "1e-%d" % (top + 1), "0.1e-%d" % top,
                 "1e999999999", "-3e-999999999"):
        with pytest.raises(ParseError, match="outside"):
            parse_decimal(text, 64)
    # zero has no order of magnitude, so its exponent is never used
    assert parse_decimal("0.000e999999999", 64) == 0
    # more digits than Python converts to an int
    with pytest.raises(ParseError, match="too long"):
        parse_decimal("1" * (top + 1), 64)


def test_render_parse_round_trip_at_8192_bits_and_extreme_exponents():
    rng = random.Random(8192)
    for e in (-100000, -8192, 8192, 100000):
        with workprec(8192):
            v = mpmath.ldexp(mpmath.mpf(rng.getrandbits(8192) | 1 << 8191), e)
        assert parse_decimal(render_decimal(v), 8192) == v


def _dyadic(rng, bits, e, negative=False):
    """A bits-bit value m * 2^e with m odd, so e is its stored exponent."""
    m = rng.getrandbits(bits) | 1 << (bits - 1) | 1
    with workprec(bits):
        v = mpmath.ldexp(mpmath.mpf(-m if negative else m), e)
    assert int(v.exp) == e
    return v


@pytest.mark.parametrize("bits", [64, 256, 1024, 8192])
def test_render_matches_int_oracle(bits):
    # Deep exponents of both signs: |e| = 256k + r with r in {0, 1, 255}, the
    # residue the cached powers leave to an int; then |e| < 256.
    rng = random.Random(bits)
    exponents = [sign * (256 * k + r) for sign in (1, -1)
                 for k in (1, 2, 33, 64) for r in (0, 1, 255)]
    exponents += [-1, -2, -128, -255, 0, 1, 77, 255]
    for e in exponents:
        for negative in (False, True):
            v = _dyadic(rng, bits, e, negative)
            assert render_decimal(v) == reference_render_decimal(v), (bits, e)


@pytest.mark.parametrize(
    "x", [0, 1, -7, 10**30, -(3**200), 2**300, 0.0, -0.0, 0.1, -1.5, 1e300, -2.5e-300, 5e-324]
)
def test_render_int_and_float_match_int_oracle(x):
    assert render_decimal(x) == reference_render_decimal(x)


@pytest.mark.parametrize(
    "x",
    ["1.5", mpmath.mpc(1, 2), mpmath.inf, -mpmath.inf, mpmath.nan, float("inf"), float("nan")],
)
def test_render_turns_away_what_is_not_a_finite_number(x):
    with pytest.raises(ParseError):
        render_decimal(x)


def test_powers_of_five_cache_stays_bounded():
    cache = precision._pow
    cache.cache_clear()
    rng = random.Random(5)
    steps = cache.cache_info().maxsize + 8
    for k in range(steps):
        v = _dyadic(rng, 256, -(256 * k + 7))
        assert render_decimal(v) == reference_render_decimal(v), k
        info = cache.cache_info()
        assert info.currsize <= info.maxsize
    assert cache.cache_info().misses == steps
    # a sweep back over the evicted low steps still renders exactly
    for k in range(steps):
        v = _dyadic(rng, 256, -256 * k)
        assert render_decimal(v) == reference_render_decimal(v), k
    assert cache.cache_info().currsize <= cache.cache_info().maxsize
    # powers of two for positive exponents share the same bounded cache
    for k in range(steps):
        v = _dyadic(rng, 256, 256 * k + 7)
        assert render_decimal(v) == reference_render_decimal(v), k
    assert cache.cache_info().misses == 3 * steps
    assert cache.cache_info().currsize <= cache.cache_info().maxsize


def _value(m, n):
    """m * 2^-n exactly, at a precision that holds m."""
    with workprec(max(m.bit_length(), 8)):
        return mpmath.ldexp(mpmath.mpf(m), -n)


@pytest.mark.parametrize("bits", [64, 256, 1024, 4096, 8192, 16384])
def test_fraction_digits_match_the_int_product(bits):
    # n below the chunk, at it and at its multiples, and around the mantissa
    # length: for n < bits the value has a nonzero integer part
    rng = random.Random(bits + 5)
    k = precision._CHUNK
    for n in (1, k - 1, k, k + 1, 2 * k, 3 * k, bits - 1, bits, bits + 1, 2 * bits + 3):
        m = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        assert precision._fraction_digits(m, n) == str(m * 5**n), (bits, n)
        for negative in (False, True):
            v = _value(m, n)
            v = -v if negative else v
            assert render_decimal(v) == reference_render_decimal(v), (bits, n)


@pytest.mark.parametrize("bits", [256, 2048, 8192])
def test_fraction_digits_around_powers_of_ten(bits):
    # m / 2^n just below and above 10^-j and 10^j: runs of nines and zeros
    # across chunk boundaries, carries, and the leading-zero skip at its edge
    for j in (1, 7, 199, 200, 201, 600):
        width = int(j * math.log2(10)) + 1
        cases = [(bits + width, (1 << (bits + width)) // 10**j)]
        if bits > width:
            cases.append((bits - width, 10**j << (bits - width)))
        for n, center in cases:
            for m in (center - 1, center, center + 1, center + 2):
                assert precision._fraction_digits(m, n) == str(m * 5**n), (bits, j, n, m - center)
                v = _value(m, n)
                assert render_decimal(v) == reference_render_decimal(v), (bits, j, n)


def _edge(bits, digits):
    """The largest n with (bits - 1) * log10(2) + n * log10(5) <= digits, render_decimal's estimate."""
    n = int((digits - (bits - 1) * precision._LOG10_2) / math.log10(5))
    while (bits - 1) * precision._LOG10_2 + (n + 1) * math.log10(5) <= digits:
        n += 1
    while (bits - 1) * precision._LOG10_2 + n * math.log10(5) > digits:
        n -= 1
    return n


def test_render_takes_the_chunks_up_to_the_crossover(monkeypatch):
    # the digits come from _fraction_digits up to the crossover and from the
    # Decimal path past it, and both sides match the oracle
    powers = []
    power = precision._pow

    def counting(base, n):
        powers.append(n)
        return power(base, n)

    monkeypatch.setattr(precision, "_pow", counting)
    rng = random.Random(11)
    slope, floor = precision._CHUNK_SLOPE, precision._CHUNK_FLOOR_BITS
    cases = [(bits, min(slope * (bits - floor), precision._CHUNK_MAX_DIGITS))
             for bits in (floor + 512, 4096, 8192, 16384)]
    for bits, limit in cases:
        n = _edge(bits, limit)
        for past, shift in ((False, n), (True, n + 1)):
            for negative in (False, True):
                del powers[:]
                v = _dyadic(rng, bits, -shift, negative)
                assert render_decimal(v) == reference_render_decimal(v), (bits, shift)
                assert bool(powers) is past, (bits, shift)
    # a mantissa of _CHUNK_FLOOR_BITS or fewer bits keeps the Decimal path
    for bits in (64, 256, floor):
        del powers[:]
        v = _dyadic(rng, bits, -(bits + 7))
        assert render_decimal(v) == reference_render_decimal(v)
        assert powers


def test_kernel_growth_shapes_never_reach_the_decimal_path(monkeypatch):
    # the 8192-bit criterion and dd tables print mantissas of about 7900 to
    # 8192 bits at 2^-8200 .. 2^-16400; none of them may fall back to the
    # cached powers of five
    def refuse(base, n):
        raise AssertionError("_pow(%d, %d) called" % (base, n))

    monkeypatch.setattr(precision, "_pow", refuse)
    rng = random.Random(16400)
    for bits in (7900, 8100, 8192):
        for e in (-8200, -8300, -8400, -12000, -16400):
            for negative in (False, True):
                v = _dyadic(rng, bits, e, negative)
                assert render_decimal(v) == reference_render_decimal(v), (bits, e)


def test_render_holds_deep_expansions_to_the_int_to_str_cap():
    # 3 * 2^-716000 and 3 * 2^1661000 have more than the 500000 decimal digits
    # render_decimal writes, so their decimals would lie outside the range
    # parsing accepts.
    with workprec(64):
        inside = mpmath.ldexp(3, -715000)
        outside = (mpmath.ldexp(3, -716000), mpmath.ldexp(3, 1661000))
    assert render_decimal(inside).startswith("1.")
    for v in outside:
        with pytest.raises(NumericError, match="500000 digits"):
            render_decimal(v)


def test_render_turns_away_values_far_past_the_cap_at_once():
    # Forming 2^40000000 or 5^40000000 exactly takes seconds and tens of MB.
    for e in (40000000, -40000000):
        with workprec(64):
            v = mpmath.ldexp(3, e)
        start = time.perf_counter()
        with pytest.raises(NumericError, match="500000 digits"):
            render_decimal(v)
        assert time.perf_counter() - start < 0.1, e


def test_render_deep_positive_exponent_is_fast():
    # 3 * 2^1660000 has 499711 digits; the int oracle is quadratic at this
    # size, so check the leading digits against a logarithm and the trailing
    # ones against modular arithmetic.
    with workprec(64):
        v = mpmath.ldexp(3, 1660000)
    start = time.perf_counter()
    text = render_decimal(v)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    mantissa, _, k = text.partition("e")
    digits = mantissa.replace(".", "")
    with workprec(128):
        log10 = mpmath.log10(3) + 1660000 * mpmath.log10(2)
        lead = int(mpmath.floor(10 ** (log10 - mpmath.floor(log10) + 14)))
    assert int(k) == int(log10) and len(digits) == int(k) + 1 == 499711
    assert mantissa[1] == "." and int(digits[:15]) == lead
    assert int(digits[-12:]) == 3 * pow(2, 1660000, 10**12) % 10**12


def test_precision_floor_enforced():
    with pytest.raises(ConfigError):
        make_complex("1", "0", 32)
    with pytest.raises(ConfigError):
        make_complex("1", "0", 63)
    make_complex("1", "0", 64)


def test_default_precision_is_256():
    assert make_complex("1", "1").precision_bits == 256


def test_values_carry_no_arithmetic():
    # ApComplex is an edge type: computations unbox with to_mpc and work on mpc.
    with pytest.raises(TypeError):
        ApComplex(1) + ApComplex(1)
    one = ApComplex(1, 0, 256)
    with pytest.raises(TypeError):
        one * 2
    with pytest.raises(TypeError):
        -one


def test_immutability():
    a = make_complex("1", "2")
    with pytest.raises(AttributeError):
        a.re = mpmath.mpf(3)


@pytest.mark.parametrize("bits", [64, 256, 8192])
def test_immutable_values_copy_and_pickle_through_their_constructors(bits):
    with workprec(bits):
        third = mpmath.mpf(1) / 3
        z = ApComplex(third, -7 * third, bits)
    nodes = NodeSequence([z, ApComplex(1, 0, bits), ApComplex(0, third, bits)], bits)
    series = exp_sum_series(5, bits)
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        got = clone(z)
        assert got == z and got.precision_bits == bits
        assert (got.re._mpf_, got.im._mpf_) == (z.re._mpf_, z.im._mpf_)
        got = clone(nodes)
        assert list(got) == list(nodes) and got.precision_bits == bits
        assert [v._mpc_ for v in got.zs] == [v._mpc_ for v in nodes.zs]
        got = clone(series)
        assert (got.max_order, got.precision_bits) == (series.max_order, bits)
        assert [(kl, v._mpc_) for kl, v in got.items()] == [
            (kl, v._mpc_) for kl, v in series.items()
        ]


def test_hash_agrees_with_equal_numbers():
    one = ApComplex(1, 0, 256)
    assert one == 1 and hash(one) == hash(1)
    half = ApComplex(mpmath.mpf("0.5"), 0, 512)
    assert half == mpmath.mpf("0.5") and hash(half) == hash(mpmath.mpf("0.5"))
    z = make_complex("1", "2")
    assert hash(z) == hash(1 + 2j) == hash(mpmath.mpc(1, 2))
    # equal values at different precisions hash alike
    narrow = make_complex("0.1", "-3", 256)
    assert hash(narrow) == hash(ApComplex(narrow.re, narrow.im, 512))


def test_squared_magnitude_identity_within_two_ulp():
    rng = random.Random(6)
    for _ in range(100):
        a = make_complex(
            "%d.%06d" % (rng.randint(-3, 3), rng.randint(0, 999999)),
            "%d.%06d" % (rng.randint(-3, 3), rng.randint(0, 999999)),
        )
        if a == 0:
            continue
        bits = a.precision_bits
        with workprec(bits):
            av = a.to_mpc()
            prod = ApComplex.from_mpc(av * av.conjugate(), bits)
            mag = a.magnitude()
            mag2 = ApComplex.from_mpc(mpmath.mpc(mag) * mpmath.mpc(mag), bits)
        assert float(ulps_apart(prod, mag2)) <= 2.0


def test_json_codec_round_trip():
    a = make_complex("0.1", "-3.25e-7", 256)
    obj = precision._point_json(a.re, a.im)
    assert set(obj) == {"re", "im"}
    back = precision._point_from_json(obj, 256)
    assert back == a.to_mpc()


def test_json_codec_rejects_bad_payload():
    with pytest.raises(ParseError):
        precision._point_from_json({"re": "1"}, 256)
    with pytest.raises(ParseError):
        precision._point_from_json({"re": "1", "im": "x"}, 256)


def test_ulp_of_one():
    assert ulp(1, 256) == mpmath.ldexp(1, -255)
    assert ulp(0, 256) == 0


@given(st.integers(min_value=-(10**25), max_value=10**25), st.integers(0, 25))
@settings(max_examples=60, deadline=None)
def test_integer_scaled_decimals_parse_exactly(n, k):
    # n * 10^-k parses to the nearest 256-bit value; re-render re-parses equal.
    text = ("-" if n < 0 else "") + str(abs(n)) + ("e-%d" % k if k else "")
    v = parse_decimal(text, 256)
    assert parse_decimal(render_decimal(v), 256) == v


@given(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=-20, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_dyadic_values_round_trip_exactly(a, b, e):
    # Dyadic rationals are exactly representable and survive the codec.
    with workprec(96):
        x = ApComplex(mpmath.ldexp(a, e), mpmath.ldexp(b, e), 96)
    assert precision._point_from_json(precision._point_json(x.re, x.im), 96) == x.to_mpc()
