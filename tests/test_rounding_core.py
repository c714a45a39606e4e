"""The rounding core of lineinterp.precision against mpmath.libmp, bit for bit.

`_add(m, e, n, f, prec)` stands for mpf_add (and, with n negated, mpf_sub),
`_add(m * n, e + f, 0, 0, prec)` for mpf_mul and `_cmul` for mpc_mul, all at
round_nearest. Each result is boxed by `_part` and compared with the raw mpf
tuple mpmath returns, and its core form must be canonical: an odd mantissa,
or 0 for zero. The operands are finite and normalized, as every mpf is, and
may hold up to 2 prec + 64 bits, as the exact products inside mpc_mul do.

The fixed cases pin the branches a textbook adder would get wrong:
mpf_add's perturbation branch (an exponent offset above 100 and top bits
more than prec + 4 apart), which is not correct rounding when the larger
operand holds more than prec bits; exact cancellation; 0 - 0, which is
fzero and never (1, 0, 0, 0); an all-ones mantissa that carries into the
next power of two; and exact ties with the kept bit even and odd.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    from_man_exp,
    fzero,
    mpc_mul,
    mpf_add,
    mpf_mul,
    mpf_sub,
    normalize,
    round_nearest,
)

from lineinterp.precision import _add, _cmul, _part

PRECISIONS = (64, 256, 8192)


def mpf_of(m, e):
    """The exact normalized mpf tuple of m * 2^e."""
    return from_man_exp(m, e)


def core_of(x):
    sign, man, exp, _ = x
    return (-man if sign else man), exp


def canonical(m, e):
    return m == 0 or m & 1 == 1


def check_add(s, t, prec):
    """_add, its negated form and its product form against mpf_add, mpf_sub and mpf_mul."""
    (m, e), (n, f) = core_of(s), core_of(t)
    for got, want in (
        (_add(m, e, n, f, prec), mpf_add(s, t, prec, round_nearest)),
        (_add(m, e, -n, f, prec), mpf_sub(s, t, prec, round_nearest)),
        (_add(m * n, e + f, 0, 0, prec), mpf_mul(s, t, prec, round_nearest)),
    ):
        assert canonical(*got)
        assert _part(*got) == want


def check_cmul(z, w, prec):
    x = core_of(z[0]) + core_of(z[1])
    y = core_of(w[0]) + core_of(w[1])
    m, e, n, f = _cmul(x, y, prec)
    assert canonical(m, e) and canonical(n, f)
    assert (_part(m, e), _part(n, f)) == mpc_mul(z, w, prec, round_nearest)


def correctly_rounded_sum(s, t, prec):
    sign, man, exp, bc = mpf_add(s, t)  # exact at prec 0
    return normalize(sign, man, exp, bc, prec, round_nearest)


def test_pinned_64_bit_sum_takes_the_perturbation_branch_and_is_not_correctly_rounded():
    # s holds 128 bits whose low half is 0111...1; t = (2^120 + 1) 2^-101 is
    # about 2^19, so the exact sum carries into bit 63 of s and rounds up,
    # but the offset 101 and the top-bit gap 108 > 64 + 4 nudge s instead.
    m = ((1 << 63 | 12345) << 64) | ((1 << 63) - 1)
    s, t = mpf_of(m, 0), mpf_of((1 << 120) + 1, -101)
    want = mpf_add(s, t, 64, round_nearest)
    assert want != correctly_rounded_sum(s, t, 64)
    assert _part(*_add(m, 0, (1 << 120) + 1, -101, 64)) == want
    check_add(s, t, 64)
    check_add(t, s, 64)


def perturbs(s, t, prec):
    """Whether mpf_add(s, t, prec) takes its perturbation branch."""
    offset, delta = s[2] - t[2], (s[2] + s[3]) - (t[2] + t[3])
    return offset > 100 and delta > prec + 4 or offset < -100 and -delta > prec + 4


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_perturbation_branch_with_either_operand_larger(prec, signs):
    rng = random.Random(prec)
    smalls = (1, 3, (1 << prec) - 1, rng.getrandbits(prec + 63) | 1 << (prec + 63) | 1)
    hits = 0
    for width in (prec, prec + 1, 2 * prec + 64):
        big = mpf_of((rng.getrandbits(width - 1) | 1 << (width - 1) | 1) * signs[0], 0)
        for small in smalls:
            for exp in (-101, -102, -prec - 101, -3 * prec):
                t = mpf_of(small * signs[1], exp)
                hits += perturbs(big, t, prec)
                check_add(big, t, prec)
                check_add(t, big, prec)
    assert hits >= 24


@pytest.mark.parametrize("prec", PRECISIONS)
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("same", [True, False], ids=["same-signs", "opposite-signs"])
def test_perturbation_branch_rounds_a_wide_operand_as_mpf_add_does(prec, sign, same):
    # the pinned case at every precision: s holds 2 prec bits, its low half
    # just below one half ulp for a sum and just above it for a difference,
    # and t, about 2^(prec - 45), crosses that half in the exact sum
    top = random.Random(prec).getrandbits(prec - 1) | 1 << (prec - 1)
    low = (1 << (prec - 1)) - 1 if same else (1 << (prec - 1)) + 1
    s = mpf_of(sign * ((top << prec) | low), 0)
    t = mpf_of((sign if same else -sign) * ((1 << (prec + 56)) + 1), -101)
    assert perturbs(s, t, prec) and perturbs(t, s, prec)
    assert mpf_add(s, t, prec, round_nearest) != correctly_rounded_sum(s, t, prec)
    check_add(s, t, prec)
    check_add(t, s, prec)


@pytest.mark.parametrize("prec", PRECISIONS)
def test_exact_cancellation_and_zero_minus_zero_give_fzero(prec):
    for m, e in ((1, 0), (-3, 7), ((1 << (2 * prec + 63)) + 1, -prec)):
        x = mpf_of(m, e)
        check_add(x, x, prec)
        assert _part(*_add(m, e, -m, e, prec)) == fzero
    assert mpf_sub(fzero, fzero, prec, round_nearest) == fzero
    assert _part(*_add(0, 0, -0, 0, prec)) == fzero
    assert _part(*_add(0, 0, 0, 0, prec)) == fzero != (1, 0, 0, 0)
    check_add(fzero, fzero, prec)


@pytest.mark.parametrize("prec", PRECISIONS)
def test_all_ones_mantissa_carries_to_the_next_power_of_two(prec):
    for extra in (1, 2, prec + 64):
        ones = (1 << (prec + extra)) - 1
        for sign in (1, -1):
            x = mpf_of(sign * ones, -prec)
            check_add(x, fzero, prec)
            check_add(fzero, x, prec)
            check_add(x, mpf_of(sign, -prec), prec)
            assert _add(sign * ones, 0, 0, 0, prec) == (sign, prec + extra)


@pytest.mark.parametrize("prec", PRECISIONS)
def test_exact_ties_go_to_the_even_neighbour(prec):
    for kept in ((1 << (prec - 1)) + 2, (1 << (prec - 1)) + 1):  # kept bit even, then odd
        for sign in (1, -1):
            tie = sign * (kept * 2 + 1)  # exactly half an ulp above kept
            m, e = _add(tie, 0, 0, 0, prec)
            want = kept + (kept & 1)
            assert m * 2**e == sign * want * 2
            check_add(mpf_of(tie, 0), fzero, prec)
            # the same tie formed by a sum, and one just above it
            check_add(mpf_of(sign * kept * 2, 0), mpf_of(sign, 0), prec)
            check_add(mpf_of(sign * kept * 2, 0), mpf_of(sign * 3, -1), prec)


@pytest.mark.parametrize("prec", PRECISIONS)
def test_zero_operands_round_the_other_operand(prec):
    rng = random.Random(prec + 1)
    for width in (1, prec, prec + 1, 2 * prec + 64):
        x = mpf_of(rng.getrandbits(width - 1) | 1 << (width - 1) | 1, -width)
        check_add(x, fzero, prec)
        check_add(fzero, x, prec)
        check_cmul((x, fzero), (fzero, x), prec)
        check_cmul((fzero, fzero), (x, x), prec)


@st.composite
def operands(draw, prec):
    """An mpf: zero, or up to 2 prec + 64 bits wide at orders out to 3 prec + 16."""
    if draw(st.integers(0, 6)) == 6:
        return fzero
    width = draw(st.one_of(st.integers(1, 8), st.integers(prec - 4, 2 * prec + 64)))
    far = 3 * prec + 16
    order = draw(st.one_of(st.integers(-4, 4), st.integers(-200, 200), st.integers(-far, far)))
    noise = random.Random(draw(st.integers(0, 2**64 - 1))).getrandbits(width)
    if draw(st.integers(0, 7)) == 7:
        noise = (1 << width) - 1  # all ones below the top bit
    man = ((1 << (width - 1)) | noise | 1) & ((1 << width) - 1)
    return mpf_of(man * draw(st.sampled_from((1, -1))), order - width)


@pytest.mark.parametrize("prec", PRECISIONS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_core_matches_libmp_on_random_operands(prec, data):
    s, t = data.draw(operands(prec)), data.draw(operands(prec))
    check_add(s, t, prec)
    check_add(t, s, prec)
    w = (data.draw(operands(prec)), data.draw(operands(prec)))
    check_cmul((s, t), w, prec)
