"""The rounding core of lineinterp.precision against mpmath.libmp, bit for bit.

`_add(m, e, n, f, prec)` stands for mpf_add (and, with n negated, mpf_sub),
`_add(m * n, e + f, 0, 0, prec)` for mpf_mul and `_cmul` for mpc_mul, all at
round_nearest; with down set, `_add` stands for mpf_add at round_down. Each
result is boxed by `_part` and compared with the raw mpf tuple mpmath
returns, and its core form must be canonical: an odd mantissa, or 0 for
zero. The operands are finite and normalized, as every mpf is, and may hold
up to 2 prec + 64 bits, as the exact products inside mpc_mul do.

The division step `_quotient(x, y, _gap(z, w, prec), prec)` stands for
mpc_div(mpc_sub(x, y), mpc_sub(z, w)) at round_nearest, whose intermediates
c^2 + d^2, a c + b d and b c - a d mpc_div rounds toward zero at prec + 10;
`_append` and `difference_rows` chain it, and must equal the mpc loop.

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
import mpmath
from mpmath import mpc, workprec
from mpmath.libmp import (
    from_man_exp,
    fzero,
    mpc_div,
    mpc_mul,
    mpc_sub,
    mpf_add,
    mpf_mul,
    mpf_sub,
    normalize,
    round_down,
    round_nearest,
)

from lineinterp.divdiff import NodeConditioning, difference_rows
from lineinterp.errors import DomainError
from lineinterp.precision import _add, _append, _cmul, _gap, _gap_row, _part, _quotient, _raw

PRECISIONS = (64, 256, 8192)
DIVISION_PRECISIONS = (53, 64, 256, 1024, 8192)


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
        (_add(m, e, n, f, prec, True), mpf_add(s, t, prec, round_down)),
        (_add(m, e, -n, f, prec, True), mpf_sub(s, t, prec, round_down)),
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


# -- the division step -------------------------------------------------------


def core_of_mpc(z):
    return core_of(z[0]) + core_of(z[1])


def check_quotient(x, y, z, w, prec):
    """_gap and _quotient against mpc_sub, the c^2 + d^2 of mpc_div, and mpc_div itself."""
    gap = mpc_sub(z, w, prec, round_nearest)
    g = _gap(core_of_mpc(z), core_of_mpc(w), prec)
    assert all(canonical(*g[i : i + 2]) for i in (0, 2, 4))
    assert (_part(*g[:2]), _part(*g[2:4])) == gap
    # mpc_div's own intermediate, at mpf_add's default rounding, toward zero
    assert _part(*g[4:]) == mpf_add(mpf_mul(gap[0], gap[0]), mpf_mul(gap[1], gap[1]), prec + 10)
    numerator = mpc_sub(x, y, prec, round_nearest)
    if gap == (fzero, fzero):
        with pytest.raises(ZeroDivisionError):
            mpc_div(numerator, gap, prec, round_nearest)
        with pytest.raises(ZeroDivisionError):
            _quotient(core_of_mpc(x), core_of_mpc(y), g, prec)
        return
    m, e, n, f = _quotient(core_of_mpc(x), core_of_mpc(y), g, prec)
    assert canonical(m, e) and canonical(n, f)
    assert (_part(m, e), _part(n, f)) == mpc_div(numerator, gap, prec, round_nearest)


@st.composite
def node_parts(draw, prec):
    """An mpf of at most prec bits: zero, or at orders out to 3 prec + 200."""
    if draw(st.integers(0, 4)) == 4:
        return fzero
    width = draw(st.one_of(st.integers(1, 8), st.integers(max(1, prec - 4), prec)))
    far = 3 * prec + 200
    order = draw(st.one_of(st.integers(-4, 4), st.integers(-200, 200), st.integers(-far, far)))
    noise = random.Random(draw(st.integers(0, 2**64 - 1))).getrandbits(width)
    man = ((1 << (width - 1)) | noise | 1) & ((1 << width) - 1)
    return mpf_of(man * draw(st.sampled_from((1, -1))), order - width)


@st.composite
def complexes(draw, prec):
    return draw(node_parts(prec)), draw(node_parts(prec))


@pytest.mark.parametrize("prec", DIVISION_PRECISIONS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_division_step_matches_libmp_on_random_operands(prec, data):
    x, y, z, w = (data.draw(complexes(prec)) for _ in range(4))
    check_quotient(x, y, z, w, prec)
    # an axis gap, with a zero imaginary or real part
    check_quotient(x, y, (z[0], w[1]), w, prec)
    check_quotient(x, y, (w[0], z[1]), w, prec)
    # an exact zero numerator, and one with a zero part
    check_quotient(x, x, z, w, prec)
    check_quotient(x, (x[0], y[1]), z, w, prec)
    # coincident nodes
    check_quotient(x, y, z, z, prec)


@pytest.mark.parametrize("prec", DIVISION_PRECISIONS)
def test_division_step_takes_the_perturbation_branch_toward_zero(prec):
    # parts far apart in exponent: c^2 + d^2 and the numerator sums take
    # mpf_add's perturbation branch at prec + 10, where truncation and
    # rounding to nearest part ways
    rng = random.Random(prec)
    hits = 0
    for spread in (101, 150, prec + 120, 3 * prec):
        for _ in range(6):
            big = mpf_of(rng.getrandbits(prec) | 1 << (prec - 1) | 1, -prec)
            small = mpf_of(rng.choice((1, -1)) * (rng.getrandbits(prec) | 1), -prec - spread)
            num = (mpf_of(rng.getrandbits(prec) | 1, -prec), small)
            for z in ((big, small), (small, big)):
                check_quotient(num, (fzero, fzero), z, (fzero, fzero), prec)
                check_quotient(z, num, num, (fzero, fzero), prec)
                mag = mpf_add(mpf_mul(big, big), mpf_mul(small, small), prec + 10)
                hits += mag != mpf_add(mpf_mul(big, big), mpf_mul(small, small), prec + 10,
                                       round_nearest)
    assert hits > 0


def mpc_loop_rows(values, zs):
    rows = [list(values)]
    for p in range(1, len(zs)):
        prev = rows[-1]
        rows.append([(prev[k + 1] - prev[k]) / (zs[k + p] - zs[k]) for k in range(len(zs) - p)])
    return rows


def random_mpc(rng, prec, far):
    def part():
        if rng.random() < 0.2:
            return mpmath.mpf(0)
        exponent = rng.randint(-far, 4) if rng.random() < 0.3 else rng.randint(-4, 4)
        return mpmath.ldexp(rng.choice((1, -1)) * (rng.getrandbits(prec) | 1), exponent - prec)

    return mpc(part(), part())


@pytest.mark.parametrize("prec", DIVISION_PRECISIONS)
def test_tables_and_appended_chains_equal_the_mpc_loop(prec):
    rng = random.Random(prec + 3)
    for trial in range(12):
        with workprec(prec):
            count = rng.randint(1, 8)
            zs = []
            while len(zs) < count:
                z = random_mpc(rng, prec, 150 if trial % 2 else 4)
                if z not in zs:
                    zs.append(z)
            values = [random_mpc(rng, prec, 150) for _ in zs]
            want = mpc_loop_rows(values, zs)
            got = difference_rows(values, NodeConditioning(zs, prec))
            assert [[v._mpc_ for v in row] for row in got] == [
                [v._mpc_ for v in row] for row in want
            ]
            # the last diagonal, grown one node at a time
            diag = []
            for j, value in enumerate(values):
                diag = _append(diag, value, _gap_row(zs[j], zs[:j]))
                assert [_raw(v)._mpc_ for v in diag] == [want[p][j - p]._mpc_ for p in range(j + 1)]


@pytest.mark.parametrize("prec", (53, 8192))
def test_coincident_nodes_raise_zero_division(prec):
    with workprec(prec):
        zs = [mpc(1, 0), mpc(0, 1), mpc(1, 0)]
        for values, error in (
            ([mpc(1), mpc(2), mpc(3)], ZeroDivisionError),
            # the core refuses the inf value before it reaches the zero gap
            ([mpc(1), mpc(mpmath.inf), mpc(3)], DomainError),
        ):
            with pytest.raises(ZeroDivisionError):
                mpc_loop_rows(values, zs)
            with pytest.raises(error):
                difference_rows(values, NodeConditioning(zs, prec))
