"""The accumulation kernels of lineinterp.precision against the mpc loops they replace.

Each reference below is the mpc operator loop a kernel stands for, as the
library wrote it without kernels: each kernel must give the same value to
the bit, its core forms boxed by _raw and compared as raw (re, im) parts. The references use mpc operators
only, never a kernel, so they stay independent of the rounding core. The
draws cover exact zeros, values that are only real or only imaginary,
binary orders out to about three times the precision either way, so that
some sums take mpf_add's perturbation branch at every precision, and
mantissas of up to 64 bits above the ambient precision.
"""

import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpc, mpf, workprec

from lineinterp import (
    ApComplex,
    DomainError,
    LinePlan,
    NodeSequence,
    ScalarFunction,
    TaylorSeries2,
    delta_table,
    restrict_to_line,
)
from lineinterp.precision import (
    _append,
    _cores,
    _dot,
    _gap_row,
    _horner,
    _products,
    _raw,
    _running_products,
    _sum,
)
from support import graded_terms

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


def reference_running_products(factors):
    out = [mpc(1)]
    for x in factors:
        out.append(out[-1] * x)
    return out


def reference_graded_total(f, z1, z2, start):
    """The term-by-term series loop, zero powers included."""
    with workprec(max(f.precision_bits, z1.precision_bits, z2.precision_bits)):
        pow1 = reference_running_products([z1.to_mpc()] * f.max_order)
        pow2 = reference_running_products([z2.to_mpc()] * f.max_order)
        total = mpc(0)
        for (k, l), a in f.items():
            if k + l >= start:
                total += a * pow1[k] * pow2[l]
    return total


def reference_restriction(f, eta):
    with workprec(max(f.precision_bits, eta.precision_bits)):
        powers = reference_running_products([eta.to_mpc()] * f.max_order)
        out = [mpc(0)] * (f.max_order + 1)
        for (k, l), a in f.items():
            out[k + l] += a * powers[k]
    return out


def raw(values):
    return [v._mpc_ for v in values]


@st.composite
def parts(draw, bits):
    """An mpf: zero, or of binary order within +-(3 bits + 16) with up to bits + 64 mantissa bits.

    A mantissa is odd with its top bit set, so it keeps its width, and its
    other bits are seeded pseudo-random: Hypothesis's own big integers sit
    near their bounds, which are powers of two. The widest mantissas and
    nearby orders are the draws Hypothesis makes most often, so that sums and
    products round in most draws. Orders over +-1000 make nearby sums at every
    precision, and orders out to +-(3 bits + 16) put two operands more than
    bits + 4 orders apart, which is mpf_add's perturbation branch, even at
    8192 bits.
    """
    if draw(st.integers(0, 4)) == 4:
        return mpf(0)
    width = draw(st.one_of(st.integers(0, 72).map(lambda k: bits + 64 - k), st.integers(1, 8)))
    far = 3 * bits + 16
    order = draw(
        st.one_of(st.integers(-4, 4), st.integers(-1000, 1000), st.integers(-far, far))
    )
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
        want = reference_sum(vals)._mpc_
        assert _raw(_sum(vals))._mpc_ == want
        assert _raw(_sum(_cores(vals)))._mpc_ == want


@pytest.mark.parametrize("bits", PRECISIONS)
@KERNEL_SETTINGS
@given(data=st.data())
def test_dot_is_the_mpc_loop_bit_for_bit(bits, data):
    pairs = data.draw(tuples(bits, 2))
    with workprec(bits):
        want = reference_dot(pairs)._mpc_
        assert _raw(_dot(pairs))._mpc_ == want
        assert _raw(_dot(zip(_cores(x for x, _ in pairs), (y for _, y in pairs))))._mpc_ == want


@pytest.mark.parametrize("bits", PRECISIONS)
@KERNEL_SETTINGS
@given(data=st.data())
def test_products_are_the_nonzero_term_products_bit_for_bit(bits, data):
    triples = data.draw(tuples(bits, 3))
    with workprec(bits):
        terms = [a * x * y for a, x, y in triples]
        want = raw(t for t in terms if t != 0)
        assert raw(map(_raw, _products(triples))) == want
        cores = _cores(a for a, _, _ in triples)
        assert raw(map(_raw, _products((c, x, y) for c, (_, x, y) in zip(cores, triples)))) == want
        assert _raw(_sum(_products(triples)))._mpc_ == reference_sum(t for t in terms if t != 0)._mpc_


@pytest.mark.parametrize("bits", PRECISIONS)
@KERNEL_SETTINGS
@given(data=st.data())
def test_horner_is_the_mpc_step_bit_for_bit(bits, data):
    coeffs = data.draw(st.lists(values(bits), min_size=1, max_size=8))
    w = data.draw(values(bits))
    count = data.draw(st.integers(1, len(coeffs) + 3))
    with workprec(bits):
        want = raw(reference_horner(coeffs, w, count))
        assert raw(map(_raw, _horner(coeffs, w, count))) == want
        assert raw(map(_raw, _horner(_cores(coeffs), w, count))) == want


@pytest.mark.parametrize("bits", PRECISIONS)
@KERNEL_SETTINGS
@given(data=st.data())
def test_running_products_is_the_mpc_loop_bit_for_bit(bits, data):
    factors = data.draw(st.lists(values(bits), max_size=8))
    with workprec(bits):
        want = raw(reference_running_products(factors))
        assert raw(map(_raw, _running_products(factors))) == want
        assert raw(map(_raw, _running_products(_cores(factors)))) == want


NON_FINITE = [mpf("inf"), -mpf("inf"), mpf("nan")]


def kernel_calls(vals, w):
    """Calls of the seven kernels, each on vals or on w in every operand it can take."""
    zs = [mpc(1, 0), mpc(0, 1), mpc(-1, 0)]
    return {
        "_sum": lambda: _sum(vals),
        "_dot (x)": lambda: _dot((x, mpc(1)) for x in vals),
        "_dot (y)": lambda: _dot((mpc(1), y) for y in vals),
        "_products": lambda: _products(zip(vals, vals[1:], vals[2:])),
        "_horner": lambda: _horner(vals, mpc(2), 7),
        "_horner (w)": lambda: _horner(vals[:1], w, 7),
        "_running_products": lambda: _running_products(vals),
        "_gap_row (z)": lambda: _gap_row(w, zs),
        "_gap_row (zs)": lambda: _gap_row(mpc(2), vals),
        "_append (value)": lambda: _append([mpc(1)], w, _gap_row(mpc(2), zs[:1])),
        "_append (diag)": lambda: _append(vals, mpc(1), _gap_row(mpc(2), zs)),
    }


@pytest.mark.parametrize("bits", PRECISIONS)
@pytest.mark.parametrize("bad", NON_FINITE, ids=["inf", "-inf", "nan"])
def test_inf_and_nan_parts_are_a_domain_error_in_every_kernel(bits, bad):
    """The core holds finite values only, and no kernel computes around that.

    Each non-finite part sits in the real or the imaginary part, or both, as
    a raw mpc among raw values and among core forms; _cores refuses it too.
    """
    with workprec(bits):
        finite = [mpc(3, -5) / 7, mpc(0, 1) / 3, mpc(2), mpc(0)]
        for v in (mpc(bad, 1), mpc(1, bad), mpc(bad, bad)):
            with pytest.raises(DomainError, match="non-finite value"):
                _cores(finite[:2] + [v] + finite[2:])
            for head, tail in ((finite[:2], finite[2:]), (_cores(finite[:2]), _cores(finite[2:]))):
                for name, call in kernel_calls(head + [v] + tail, v).items():
                    with pytest.raises(DomainError, match="non-finite value"):
                        call()
                        pytest.fail("%s computed on %s" % (name, v))


def test_a_non_finite_value_is_a_domain_error_on_the_public_paths():
    bits = 128
    nodes = NodeSequence([ApComplex(k, 1 - k, bits) for k in range(4)], bits)
    inf = ScalarFunction(fn=lambda w: w + mpf("inf"))
    with pytest.raises(DomainError, match="non-finite value"):
        delta_table(inf, nodes)
    f = TaylorSeries2({(0, 0): 1, (1, 1): ApComplex(0, mpf("inf"), bits)}, 2, bits)
    with pytest.raises(DomainError, match="non-finite value"):
        LinePlan(f, nodes, 3, bits).at(ApComplex(1, 0, bits), ApComplex(0, 1, bits)).en(3)


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
        terms = graded_terms(f, z1, z2)
        for start in range(max_order + 2):
            assert terms.total(start)._mpc_ == reference_graded_total(f, z1, z2, start)._mpc_
    for eta in (zero, z[0]):
        assert raw(restrict_to_line(f, eta).coeffs) == raw(reference_restriction(f, eta))
