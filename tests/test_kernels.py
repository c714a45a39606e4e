"""The accumulation kernels of lineinterp.precision against the mpc loops they replace.

Each reference below is the mpc operator loop a kernel stands for, as the
library wrote it without kernels: each kernel must give the same value to
the bit, compared as raw (re, im) parts. The draws cover exact zeros, values
that are only real or only imaginary, binary orders over +-1000, and
mantissas of up to 64 bits above the ambient precision.
"""

import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpc, mpf, workprec

from lineinterp import ApComplex, TaylorSeries2, restrict_to_line
from lineinterp.divdiff import _running_products
from lineinterp.funcmodel import GradedTerms
from lineinterp.precision import _dot, _horner, _products, _sum

PRECISIONS = (64, 256, 8192)


def reference_sum(values):
    total = mpc(0)
    for v in values:
        total += v
    return total


def reference_dot(pairs):
    total = mpc(0)
    for x, y in pairs:
        total += x * y
    return total


def reference_horner(coeffs, w, count):
    row = [mpc(0)] * count
    acc = mpc(0)
    for m in range(len(coeffs) - 1, -1, -1):
        acc = acc * w + coeffs[m]
        if m < count:
            row[m] = acc
    return row


def reference_graded_total(f, z1, z2, start):
    """The term-by-term series loop, zero powers included."""
    with workprec(max(f.precision_bits, z1.precision_bits, z2.precision_bits)):
        pow1 = _running_products([z1.to_mpc()] * f.max_order)
        pow2 = _running_products([z2.to_mpc()] * f.max_order)
        total = mpc(0)
        for m in range(start, f.max_order + 1):
            for k, a in f.degree_row(m):
                total += a * pow1[k] * pow2[m - k]
    return total


def reference_restriction(f, eta):
    with workprec(max(f.precision_bits, eta.precision_bits)):
        powers = _running_products([eta.to_mpc()] * f.max_order)
        out = []
        for m in range(f.max_order + 1):
            total = mpc(0)
            for k, a in f.degree_row(m):
                total += a * powers[k]
            out.append(total)
    return out


def raw(values):
    return [v._mpc_ for v in values]


@st.composite
def parts(draw, bits):
    """An mpf: zero, or of binary order within +-1000 with up to bits + 64 mantissa bits.

    A mantissa is odd with its top bit set, so it keeps its width, and its
    other bits are seeded pseudo-random: Hypothesis's own big integers sit
    near their bounds, which are powers of two. The widest mantissas and
    nearby orders are the draws Hypothesis makes most often, so that sums and
    products round in most draws.
    """
    if draw(st.integers(0, 4)) == 4:
        return mpf(0)
    width = draw(st.one_of(st.integers(0, 72).map(lambda k: bits + 64 - k), st.integers(1, 8)))
    order = draw(st.one_of(st.integers(-4, 4), st.integers(-1000, 1000)))
    noise = random.Random(draw(st.integers(0, 2**64 - 1))).getrandbits(width - 1)
    man = ((1 << (width - 1)) | noise | 1) * draw(st.sampled_from((1, -1)))
    with workprec(width):
        return mpmath.ldexp(mpf(man), order - width)


@st.composite
def values(draw, bits):
    """A raw mpc that is neither, only real, only imaginary or zero, held exactly."""
    shape = draw(st.sampled_from(("both", "real", "imag", "zero")))
    re = draw(parts(bits)) if shape in ("real", "both") else mpf(0)
    im = draw(parts(bits)) if shape in ("imag", "both") else mpf(0)
    with workprec(bits + 64):
        return mpc(re, im)


def tuples(bits, size):
    return st.lists(st.tuples(*[values(bits)] * size), max_size=8)


KERNEL_SETTINGS = settings(max_examples=40, deadline=None)


@pytest.mark.parametrize("bits", PRECISIONS)
@KERNEL_SETTINGS
@given(data=st.data())
def test_sum_is_the_mpc_loop_bit_for_bit(bits, data):
    vals = data.draw(st.lists(values(bits), max_size=10))
    with workprec(bits):
        assert _sum(vals)._mpc_ == reference_sum(vals)._mpc_


@pytest.mark.parametrize("bits", PRECISIONS)
@KERNEL_SETTINGS
@given(data=st.data())
def test_dot_is_the_mpc_loop_bit_for_bit(bits, data):
    pairs = data.draw(tuples(bits, 2))
    with workprec(bits):
        assert _dot(pairs)._mpc_ == reference_dot(pairs)._mpc_


@pytest.mark.parametrize("bits", PRECISIONS)
@KERNEL_SETTINGS
@given(data=st.data())
def test_products_are_the_nonzero_term_products_bit_for_bit(bits, data):
    triples = data.draw(tuples(bits, 3))
    with workprec(bits):
        terms = [a * x * y for a, x, y in triples]
        assert raw(_products(triples)) == raw(t for t in terms if t != 0)


@pytest.mark.parametrize("bits", PRECISIONS)
@KERNEL_SETTINGS
@given(data=st.data())
def test_horner_is_the_mpc_step_bit_for_bit(bits, data):
    coeffs = data.draw(st.lists(values(bits), min_size=1, max_size=8))
    w = data.draw(values(bits))
    count = data.draw(st.integers(1, len(coeffs) + 3))
    with workprec(bits):
        assert raw(_horner(coeffs, w, count)) == raw(reference_horner(coeffs, w, count))


@pytest.mark.parametrize("bits", PRECISIONS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_graded_terms_and_restrictions_match_the_unskipped_loops(bits, data):
    max_order = data.draw(st.integers(0, 5))
    coeffs = {
        (k, m - k): data.draw(values(bits))
        for m in range(max_order + 1)
        for k in range(m + 1)
    }
    f = TaylorSeries2(coeffs, max_order, bits)
    z = [ApComplex.from_mpc(data.draw(values(bits)), bits + 64) for _ in range(2)]
    zero = ApComplex(0, 0, bits)
    for z1, z2 in [(zero, z[1]), (z[0], zero), (zero, zero), (z[0], z[1])]:
        terms = GradedTerms(f, z1, z2)
        for start in range(max_order + 2):
            assert terms.total(start)._mpc_ == reference_graded_total(f, z1, z2, start)._mpc_
    for eta in (zero, z[0]):
        assert raw(restrict_to_line(f, eta).coeffs) == raw(reference_restriction(f, eta))
