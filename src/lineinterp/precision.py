"""Arbitrary-precision complex values with explicit per-value precision.

Inside the library a value is a raw mpc at a stated precision: a node set
holds its nodes raw, rounded once to its precision, and every computation
works on raw mpc under workprec. ApComplex, a pair of mpmath binary floats
together with the precision (in bits) it is maintained at, appears only where
a value enters or leaves the library; it carries no arithmetic. Those edges
are the public one-point functions, NodeSequence indexing, LinePlan.at,
make_context and the CLI's --eta-inf: a boxed input is unboxed once with
to_mpc (or _as_mpc), and a result boxed once with from_mpc. A file holds a
complex value as the payload {"re": ..., "im": ...} of two exact decimals;
_point_json writes it and _point_from_json reads it straight to a raw mpc,
for every class that stores complex values, so a loaded value is never boxed.

Decimal I/O is exact in both directions: rendering writes the exact decimal
expansion of the stored binary value (every m * 2^e has one), and parsing
rounds the decimal to the nearest representable value (ties to even) using
integer arithmetic only, through the core's division step _div (fact 4).
Consequently parse(render(x)) == x at equal precision, and files written at
one precision load losslessly at any higher one.

The accumulation kernels at the end (_sum, _dot, _products, _horner and
_running_products) run the series, restriction, Horner, E_N and product
loops, and _gap_row and _append the divided-difference recursion, on a
small rounding core over signed int mantissas: a part m*2^e of a raw mpc is
held as (m, e), m odd or 0 as in mpmath's own tuples, and the value as the
core form (m, e, n, f). The kernels take raw mpc or core forms, and return
core forms. They read the precision from mpmath.mp.prec at call time; _cores
converts operands that many calls share once, and _raw boxes a result where
mpc operators take over. The kernels do the same roundings in the same order
as the mpc operator loops they stand for, so every result equals that loop's
bit for bit, by the core's contract:

1. _add(m, e, n, f, prec) is mpf_add at (prec, round_nearest), which mpc +
   mpc applies to each part: the exact sum rounded to nearest, ties to even,
   except in mpf_add's perturbation branch. When the exponents differ by
   more than 100 and the top bits by more than prec + 4, the smaller operand
   only nudges the larger one by a unit prec + 4 bits below its last bit.
   That is correct rounding when the larger operand holds at most prec bits,
   but not when it holds more, as the exact products inside mpc_mul can; the
   core takes the same branch, so it rounds as mpf_add does, not correctly.
2. With n = 0, _add rounds m*2^e alone. That is mpf_add(acc, 0), which
   leaves an accumulator of at most prec bits unchanged, so the kernels skip
   zero addend parts; and it is mpf_mul, which rounds the exact product once.
3. mpc_mul forms its four products exactly and rounds a*c - b*d and a*d + b*c
   once each through mpf_sub and mpf_add; _cmul does the same through _add.
4. mpc_div of (a, b) by (c, d) forms c^2 + d^2, a*c + b*d and b*c - a*d from
   exact products and rounds each once through mpf_add at prec + 10 with its
   default rounding, round_fast, which is toward zero: _add with down set,
   perturbation branch included. Only the two quotients round to nearest,
   as mpf_div rounds them: the numerator is shifted so that the quotient has
   at least prec + 5 bits, divmod gives it, a nonzero remainder sets a
   sticky bit below its last, and the result is rounded (_div). The sticky
   bit sits at least five bits below the rounding position, so _div rounds
   correctly, and parse_decimal rounds num / 10^k through it. _gap forms a
   node gap z_i - z_j as mpc_sub does, with its c^2 + d^2, once, and
   _quotient(x, y, gap) is then what `(x - y) / (z_i - z_j)` returns on raw
   mpc: the division step of the divided-difference recursion.

The core was checked against mpmath 1.3.0 on its python backend, where a
mantissa is an int. mpmath has no public rounding setting and its context
always rounds to nearest, so the core rounds toward zero only where mpc_div
does inside (fact 4). The core holds finite values only; a non-finite part is
a DomainError, since none of the objects the kernels compute is defined on
one. A zero gap raises ZeroDivisionError, as the mpc loop does.

fork_spool, last, is the one place that calls os.fork: it maps a function
over items in forked workers, one per usable CPU, and is the one way their
results come back. Every worker appends each result as it is made, as one
record, to one unlinked spool file; the caller frames every record once and
then reads the results back by item index, one at a time. A record is a
result's raw bytes, a pickled value or a pickled failure. The cli tables
render their rows to bytes pieces, which reach the spool as they are and
come back as one pread's bytes, never pickled; a pickled value, such as a
result of fork_map, is decoded once. fork_map returns the list the plain loop
would; the grid sweeps of interpolate and the columns of criterion_profile
run through it. A worker that dies, or whose record does not decode, is a
NumericError; so every forked map needs a writable temporary directory, and
a spool that cannot be made or written is a ConfigError.
"""

from __future__ import annotations

import contextlib
import decimal
import functools
import math
import os
import pickle
import re
import signal
import struct
import sys
import tempfile
import threading

import mpmath
from mpmath import mpf, mpc, workprec
from mpmath.libmp import from_int, fzero

from .errors import ConfigError, DomainError, NumericError, ParseError

MIN_PRECISION = 64
DEFAULT_PRECISION = 256

# Parsing long decimals needs long str->int conversions; lift CPython's
# conversion cap well clear of anything the supported exponent range produces.
# Rendered expansions are formed as Decimals and held to the same cap.
_MAX_STR_DIGITS = 500000
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(max(_MAX_STR_DIGITS, sys.get_int_max_str_digits()))

# Largest |k| accepted for a decimal d.ddd * 10^k. render_decimal writes every
# digit of its value, at most _MAX_STR_DIGITS of them, so its outputs all lie
# inside this range and round-trip; parsing checks k before building any
# power of ten, whose cost grows with the exponent.
MAX_DECIMAL_ORDER = _MAX_STR_DIGITS

# The digits of a rendered value m * 2^e are those of m * 2^e for e >= 0 and
# of m * 5^n for e = -n < 0. They are formed in one of two exact ways.
#
# Every e >= 0, and every e < 0 that the chunks below do not take, goes
# through an exact Decimal: CPython's int->str is quadratic in the digit
# count, Decimal's str is linear and its multiply is subquadratic. The
# context can hold any product exactly and traps on any rounding, so a wrong
# digit cannot be written silently.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded],
)
_POW_STEP = 256
_TOO_LONG = "decimal expansion exceeds the limit of %d digits" % _MAX_STR_DIGITS

# For e < 0 the Decimal path costs about bits * D for a mantissa of `bits`
# bits and an expansion of D digits, since it converts the whole mantissa to
# decimal and multiplies; _fraction_digits writes the fraction _CHUNK digits
# at a time with int operations only, which costs about D^2 plus a fixed cost
# per chunk. So the chunks are used while D <= _CHUNK_SLOPE * (bits -
# _CHUNK_FLOOR_BITS): that keeps the mantissas of 1024 bits or fewer, whose
# Decimal conversion is cheap, on Decimal. Past _CHUNK_MAX_DIGITS libmpdec's
# transform multiply wins at any mantissa length. Measured with CPython 3.11
# on an Intel Xeon, on random mantissas of 256 to 32768 bits: the chunks were
# faster up to about 0.7 digits per bit at 256 bits, mixed at 1024, faster up
# to about 2.2 at 2048 and past 2.5 at 4096 and 8192, and up to about 1.5 at
# 16384 and 1.1 at 32768 (the table is in CHANGES.md).
_CHUNK = 200
_CHUNK_POWER = 5**_CHUNK
_CHUNK_SLOPE = 2.5
_CHUNK_FLOOR_BITS = 1024
_CHUNK_MAX_DIGITS = 20000
_LOG10_2 = math.log10(2)


@functools.lru_cache(maxsize=32)
def _pow(base, n):
    """base^n as an exact Decimal, for n a multiple of _POW_STEP.

    At most 32 powers are kept, so a sweep over extreme exponents cannot grow
    memory without limit.
    """
    return _EXACT.power(decimal.Decimal(base), n)


def _fraction_digits(m, n):
    """str(m * 5^n), the digits of m / 2^n, for ints m > 0 and n > 0.

    This is the scaled-fraction method: the integer part m >> n is written
    first, then the fraction f / 2^n, _CHUNK digits at a time. Each step
    multiplies f by 5^_CHUNK, so that f * 10^_CHUNK / 2^n = f * 5^_CHUNK /
    2^(n - _CHUNK); the bits above n - _CHUNK are the next digits and the rest
    is the new fraction. With no integer part, all but at most two of the
    leading zeros are skipped at once by a factor 5^z, so the first chunk is
    nonzero, and every chunk after it is padded to its width.
    """
    head = m >> n
    f = m - (head << n)
    parts = [str(head)] if head else []
    if not head:
        # 2^(width - n - 1) <= f / 2^n < 2^(width - n), so the count of its
        # leading zeros is floor((n - width) * log10(2)) or one more; one fewer
        # stays clear of the float's rounding.
        z = int((n - f.bit_length()) * _LOG10_2) - 1
        if z > 0:
            f *= 5**z
            n -= z
    while n > _CHUNK:
        n -= _CHUNK
        t = f * _CHUNK_POWER
        chunk = t >> n
        f = t - (chunk << n)
        parts.append(str(chunk).zfill(_CHUNK) if parts else str(chunk))
    chunk = f * 5**n
    parts.append(str(chunk).zfill(n) if parts else str(chunk))
    return "".join(parts)


_DECIMAL_RE = re.compile(r"^[+-]?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?$")


def check_precision(bits):
    """Validate a precision request, returning it as an int."""
    if not isinstance(bits, int) or isinstance(bits, bool):
        raise ConfigError("precision_bits must be an integer")
    if bits < MIN_PRECISION:
        raise ConfigError(
            "precision_bits must be at least %d, got %d" % (MIN_PRECISION, bits)
        )
    return bits


def parse_decimal(text, precision_bits=DEFAULT_PRECISION):
    """Parse a decimal string to the nearest mpf at the given precision."""
    bits = check_precision(precision_bits)
    if not isinstance(text, str):
        raise ParseError("expected a decimal string, got %r" % (text,))
    s = text.strip()
    if not _DECIMAL_RE.match(s):
        raise ParseError("malformed decimal string: %r" % (text,))
    negative = s.startswith("-")
    s = s.lstrip("+-")
    mant, _, exppart = s.partition("e") if "e" in s else s.partition("E")
    intpart, _, fracpart = mant.partition(".")
    significant = (intpart + fracpart).lstrip("0")
    if not significant:
        return mpf(0)
    try:
        exp10 = int(exppart) if exppart else 0
        digits = int(significant)
    except ValueError as exc:
        raise ParseError("decimal string too long: %s" % (exc,)) from exc
    exp10 -= len(fracpart)
    order = len(significant) - 1 + exp10
    if abs(order) > MAX_DECIMAL_ORDER:
        raise ParseError(
            "decimal of order 1e%d is outside 1e-%d..1e%d"
            % (order, MAX_DECIMAL_ORDER, MAX_DECIMAL_ORDER)
        )
    if exp10 >= 0:
        num, den = digits * 10**exp10, 1
    else:
        num, den = digits, 10**-exp10
    return _make_mpf(_part(*_div(-num if negative else num, 0, den, 0, bits)))


def render_decimal(x):
    """Exact decimal expansion of a finite mpf, round-trippable at any precision."""
    if isinstance(x, int):
        with workprec(max(8, x.bit_length() + 1)):
            x = mpf(x)
    elif isinstance(x, float):
        with workprec(64):
            x = mpf(x)
    elif not isinstance(x, mpf):
        raise ParseError("cannot render %r as a decimal string" % (x,))
    if not mpmath.isfinite(x):
        raise ParseError("cannot render non-finite value %r" % (x,))
    if x == 0:
        return "0"
    sign = "-" if x < 0 else ""
    m, e = int(x.man), int(x.exp)
    base, n = (2, e) if e >= 0 else (5, -e)
    # low <= log10(m * base^n), so a value far past the cap is turned away
    # before any power is formed; the exact digit count decides near the cap.
    bits = m.bit_length()
    low = (bits - 1) * _LOG10_2 + n * math.log10(base)
    if low > _MAX_STR_DIGITS + 1:
        raise NumericError(_TOO_LONG)
    if e < 0 and low <= _CHUNK_SLOPE * (bits - _CHUNK_FLOOR_BITS) and low <= _CHUNK_MAX_DIGITS:
        digits = _fraction_digits(m, n)
    else:
        # n - r is a multiple of _POW_STEP
        r = n % _POW_STEP
        exact = _EXACT.multiply(decimal.Decimal(m * base**r), _pow(base, n - r))
        if exact.adjusted() >= _MAX_STR_DIGITS:
            raise NumericError(_TOO_LONG)
        digits = str(exact)
    exp10 = min(e, 0)
    stripped = digits.rstrip("0")
    exp10 += len(digits) - len(stripped)
    # Scientific exponent if we wrote d.dddd * 10^k.
    k = len(stripped) - 1 + exp10
    if 0 <= exp10 and k < 24:
        return sign + stripped + "0" * exp10
    point = len(stripped) + exp10
    if 0 < point < len(stripped):
        return sign + stripped[:point] + "." + stripped[point:]
    if -6 < point <= 0:
        return sign + "0." + "0" * -point + stripped
    body = stripped[0] + ("." + stripped[1:] if len(stripped) > 1 else "")
    return sign + body + "e" + str(k)


def _point_json(re, im):
    """The payload {"re": ..., "im": ...} of the mpf parts re and im, as exact decimals."""
    return {"re": render_decimal(re), "im": render_decimal(im)}


def _point_from_json(obj, bits):
    """The raw mpc of a payload {"re": ..., "im": ...}, each part parsed once at bits."""
    if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
        raise ParseError("complex payload must be {'re': ..., 'im': ...}")
    return _make_mpc((parse_decimal(obj["re"], bits)._mpf_, parse_decimal(obj["im"], bits)._mpf_))


class ApComplex:
    """Immutable complex value held at an explicit binary precision."""

    __slots__ = ("re", "im", "precision_bits")

    def __init__(self, re, im=0, precision_bits=DEFAULT_PRECISION):
        bits = check_precision(precision_bits)
        with workprec(bits):
            object.__setattr__(self, "re", +mpf(re))
            object.__setattr__(self, "im", +mpf(im))
        object.__setattr__(self, "precision_bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("ApComplex is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the blocked __setattr__
        return type(self), (self.re, self.im, self.precision_bits)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_mpc(cls, value, precision_bits=DEFAULT_PRECISION):
        bits = check_precision(precision_bits)
        # mpc() re-rounds its components at the ambient context, so convert
        # under the target precision.
        with workprec(bits):
            value = mpc(value)
        return cls(value.real, value.imag, bits)

    def to_mpc(self):
        with workprec(self.precision_bits):
            return mpc(self.re, self.im)

    # -- edge accessors -------------------------------------------------------

    def magnitude(self):
        """|z| as an mpf at this value's precision."""
        with workprec(self.precision_bits):
            return mpmath.hypot(self.re, self.im)

    # -- comparison and hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, ApComplex):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, mpf)):
            return self.re == other and self.im == 0
        return NotImplemented

    def __hash__(self):
        # mpc hashes like the equal Python number, as __eq__ requires
        return hash(self.to_mpc())

    def __repr__(self):
        return "ApComplex(%s, %s, precision_bits=%d)" % (
            render_decimal(self.re),
            render_decimal(self.im),
            self.precision_bits,
        )


def ulp(scale, precision_bits):
    """Unit in the last place at the given precision for a magnitude scale."""
    bits = check_precision(precision_bits)
    if isinstance(scale, ApComplex):
        scale = scale.magnitude()
    if not isinstance(scale, mpf):
        with workprec(64):
            scale = mpf(scale)
    if scale == 0:
        return mpf(0)
    # 2^(e-1) <= |scale| < 2^e, read off the stored mantissa and exponent.
    e = int(scale.exp) + int(scale.man).bit_length()
    return mpmath.ldexp(1, e - bits)


def _as_mpc(value):
    """value, an ApComplex, mpc, mpf or int, as a raw mpc, without rounding it."""
    if isinstance(value, ApComplex):
        return value.to_mpc()
    if isinstance(value, mpc):
        return value
    if isinstance(value, mpf):
        return _make_mpc((value._mpf_, fzero))
    if isinstance(value, int):
        return _make_mpc((from_int(value), fzero))
    raise ConfigError("expected an ApComplex, mpc, mpf or int, got %r" % (value,))


# -- rounding core and accumulation kernels (facts 1-4 of the module docstring) --


_ZERO = (0, 0, 0, 0)
_ONE = (1, 0, 0, 0)
_make_mpf = mpmath.mp.make_mpf
_make_mpc = mpmath.mp.make_mpc


def _add(m, e, n, f, prec, down=False):
    """m*2^e + n*2^f rounded as mpf_add rounds it at (prec, round_nearest) (fact 1).

    The mantissas are signed ints, odd unless zero, as in every mpf, and may
    hold any number of bits; the result (mantissa, exponent) has that form
    too, with mantissa 0 for zero. With n = 0 this rounds m*2^e alone. With
    down set it rounds toward zero, as mpf_add does at round_down (fact 4).
    """
    if not n:
        pass
    elif not m:
        m, e = n, f
    else:
        d = e - f
        # mpf_add's perturbation branch: the far smaller operand becomes a
        # one-unit nudge prec + 4 bits below the larger operand's last bit
        if d > 100 and m.bit_length() - n.bit_length() + d > prec + 4:
            m = (m << prec + 4) + (1 if n > 0 else -1)
            e -= prec + 4
        elif d < -100 and n.bit_length() - m.bit_length() - d > prec + 4:
            m = (n << prec + 4) + (1 if m > 0 else -1)
            e = f - prec - 4
        elif d >= 0:
            m = (m << d) + n
            e = f
        else:
            m += n << -d
    a = -m if m < 0 else m
    k = a.bit_length() - prec
    if k > 0:
        if down:
            a >>= k
        else:
            # to nearest, ties to even
            t = a >> (k - 1)
            if t & 1 and (t & 2 or a & ((1 << (k - 1)) - 1)):
                a = (t >> 1) + 1
            else:
                a = t >> 1
        e += k
    if a and not a & 1:
        # strip trailing zero bits, so that a nonzero mantissa is odd
        k = (a & -a).bit_length() - 1
        a >>= k
        e += k
    return (-a if m < 0 else a), e


def _split(z):
    """The core form (m, e, n, f) of a raw mpc, whose parts are m*2^e and n*2^f.

    A core form is returned as it is. A part that is inf or nan is a
    DomainError, since the core holds finite values only.
    """
    if z.__class__ is tuple:
        return z
    (s, m, e, _), (t, n, f, _) = z._mpc_
    if not m and e or not n and f:
        raise DomainError("non-finite value %s: the kernels compute on finite values only" % z)
    return (-m if s else m), e, (-n if t else n), f


def _cores(values):
    """The values as core forms, for kernels to reuse."""
    return [_split(v) for v in values]


def _part(m, e):
    """The raw mpf of m*2^e: a zero is fzero, which has no sign bit."""
    if not m:
        return fzero
    if m < 0:
        return 1, -m, e, (-m).bit_length()
    return 0, m, e, m.bit_length()


def _raw(z):
    """z, a core form or a _gap, as a raw mpc."""
    return _make_mpc((_part(z[0], z[1]), _part(z[2], z[3])))


def _cmul(x, y, prec):
    """x * y for core forms x and y, rounded as mpc_mul rounds it (fact 3)."""
    a, ae, b, be = x
    c, ce, d, de = y
    real = _add(a * c, ae + ce, -(b * d), be + de, prec)
    return real + _add(a * d, ae + de, b * c, be + ce, prec)


def _gap(x, y, prec):
    """x - y for core forms as mpc_sub rounds it, and the c^2 + d^2 mpc_div forms of it (fact 4).

    Returns (c, ce, d, de, r, re): the core form of the gap, then r*2^re.
    """
    a, ae, b, be = x
    c, ce, d, de = y
    c, ce = _add(a, ae, -c, ce, prec)
    d, de = _add(b, be, -d, de, prec)
    return (c, ce, d, de) + _add(c * c, 2 * ce, d * d, 2 * de, prec + 10, True)


def _div(m, e, n, f, prec):
    """m*2^e / n*2^f for n >= 0, rounded as mpf_div rounds it at (prec, round_nearest)."""
    if not n:
        raise ZeroDivisionError
    if not m:
        return 0, 0
    if n == 1:
        return _add(m, e - f, 0, 0, prec)
    a = -m if m < 0 else m
    extra = max(prec - a.bit_length() + n.bit_length() + 5, 5)
    q, r = divmod(a << extra, n)
    if r:
        # a sticky bit below the quotient's last, as mpf_div sets it
        q = q << 1 | 1
        extra += 1
    return _add(-q if m < 0 else q, e - f - extra, 0, 0, prec)


def _quotient(x, y, g, prec):
    """(x - y) / g for core forms x, y and a gap g from _gap, rounded as mpc - and / round it."""
    a, ae, b, be = x
    m, me, n, nf = y
    a, ae = _add(a, ae, -m, me, prec)
    b, be = _add(b, be, -n, nf, prec)
    c, ce, d, de, r, re_exp = g
    wp = prec + 10
    t, te = _add(a * c, ae + ce, b * d, be + de, wp, True)
    u, ue = _add(b * c, be + ce, -(a * d), ae + de, wp, True)
    return _div(t, te, r, re_exp, prec) + _div(u, ue, r, re_exp, prec)


def _sum(values):
    """The loop `total = mpc(0); total += v` over values, zero parts skipped (fact 2)."""
    prec = mpmath.mp.prec
    m = e = n = f = 0
    for v in values:
        a, ae, b, be = _split(v)
        if a:
            m, e = _add(m, e, a, ae, prec)
        if b:
            n, f = _add(n, f, b, be, prec)
    return m, e, n, f


def _dot(pairs):
    """The loop `total = mpc(0); total += x * y` over (x, y) pairs, zero parts skipped."""
    prec = mpmath.mp.prec
    m = e = n = f = 0
    for x, y in pairs:
        a, ae, b, be = _split(x)
        c, ce, d, de = _split(y)
        # x * y as _cmul forms it, written out: this is the hottest loop
        r, re_exp = _add(a * c, ae + ce, -(b * d), be + de, prec)
        i, im_exp = _add(a * d, ae + de, b * c, be + ce, prec)
        if r:
            m, e = _add(m, e, r, re_exp, prec)
        if i:
            n, f = _add(n, f, i, im_exp, prec)
    return m, e, n, f


def _products(triples):
    """[x * y * z for (x, y, z) in triples], exact zeros left out (fact 2)."""
    prec = mpmath.mp.prec
    out = []
    for x, y, z in triples:
        p = _cmul(_cmul(_split(x), _split(y), prec), _split(z), prec)
        if p[0] or p[2]:
            out.append(p)
    return out


def _horner(coeffs, w, count):
    """[H_0, ..., H_{count-1}], H_k = sum_{m>=k} w^(m-k) coeffs[m].

    H_k is acc after `acc = acc * w + coeffs[k]`, run from mpc(0) and the top
    coefficient down; it is zero past the last coefficient.
    """
    prec = mpmath.mp.prec
    wv, acc, out = _split(w), _ZERO, []
    for c in reversed(coeffs):
        m, e, n, f = _cmul(acc, wv, prec)
        a, ae, b, be = _split(c)
        acc = _add(m, e, a, ae, prec) + _add(n, f, b, be, prec)
        out.append(acc)
    out = out[::-1][:count]
    return out + [_ZERO] * (count - len(out))


def _running_products(factors):
    """[1, x0, x0*x1, ...]: products of the leading factors, in order."""
    prec = mpmath.mp.prec
    acc, out = _ONE, [_ONE]
    for x in factors:
        acc = _cmul(acc, _split(x), prec)
        out.append(acc)
    return out


def _gap_row(z, zs):
    """[z - zs[-1], z - zs[-2], ..., z - zs[0]] as _gap forms them, for _append."""
    prec = mpmath.mp.prec
    z = _split(z)
    return [_gap(z, _split(y), prec) for y in reversed(zs)]


def _append(diag, value, gaps):
    """The last diagonal of a divided-difference table, extended by one node in O(n).

    diag[p] is the last entry of row p of the table over nodes zs ([] for
    none), value the function's value at the new node z and gaps its _gap_row
    against zs. Entry p of the result, the last of row p over zs + [z], is
    `(entry[p - 1] - diag[p - 1]) / (z - zs[-p])`, rounded as that mpc loop
    rounds it, with entry 0 the value.
    """
    prec = mpmath.mp.prec
    x = _split(value)
    out = [x]
    for d, g in zip(diag, gaps):
        x = _quotient(x, _split(d), g, prec)
        out.append(x)
    return out


# -- forked map -------------------------------------------------------------


# a spooled record: its item index, its byte length and its kind, then its bytes
_RECORD = struct.Struct("<QQB")
# the kinds of record: a result's own bytes, a pickled result, a pickled failure
_RAW, _VALUE, _FAILED = range(3)
# the most buffers one os.writev takes; POSIX promises at least 16
_IOV_MAX = max(os.sysconf("SC_IOV_MAX"), 16)
# where an item's record has not been seen
_MISSING = object()


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _open_spool():
    """An unlinked temporary file open for reading and appending; returns its fd."""
    try:
        fd, path = tempfile.mkstemp(prefix="lineinterp-", suffix=".spool")
        try:
            return os.open(path, os.O_RDWR | os.O_APPEND)
        finally:
            os.close(fd)
            os.unlink(path)
    except OSError as exc:
        raise ConfigError("cannot make a spool file: %s" % (exc,)) from exc


def _write_record(fd, i, kind, pieces):
    """Append item i's record of the given kind, whose bytes are the pieces in order, to the spool fd.

    The record goes out in one os.writev. With O_APPEND each write lands
    whole at the end of the file, so workers sharing fd never interleave
    their records. A record of more pieces than one os.writev takes has
    runs of them joined first, from the end, each run dropped from the
    pieces as it is joined, so its bytes are never held twice.
    """
    step = -(-len(pieces) // (_IOV_MAX - 1))
    if step > 1:
        pieces, runs = list(pieces), []
        for start in reversed(range(0, len(pieces), step)):
            runs.append(b"".join(pieces[start:]))
            del pieces[start:]
        pieces = runs[::-1]
    length = sum(map(len, pieces))
    size = _RECORD.size + length
    try:
        written = os.writev(fd, [_RECORD.pack(i, length, kind), *pieces])
    except OSError as exc:
        raise ConfigError("cannot write the spool file: %s" % (exc,)) from exc
    if written != size:
        raise ConfigError("cannot write the spool file: %d of %d bytes written" % (written, size))


def _spool_chunk(fn, items, indices, fd, raw):
    """Spool fn(items[i]) for i in indices, each as it is made; (i, exc) at the first failure, else None.

    With raw set a result is a sequence of bytes pieces, written as they
    are; else it is pickled. No result is held once it is written.
    """
    for i in indices:
        try:
            if raw:
                _write_record(fd, i, _RAW, fn(items[i]))
            else:
                _write_record(fd, i, _VALUE, [pickle.dumps(fn(items[i]), pickle.HIGHEST_PROTOCOL)])
        except Exception as exc:
            return i, exc
    return None


def _fork_chunk(fn, items, indices, fd, raw):
    """Fork a child that spools its chunk to fd, its first failure as a failed record; returns its pid.

    An exception that does not pickle is sent as a NumericError at the same
    item that names its type and message.
    """
    pid = os.fork()
    if pid == 0:
        # os._exit skips atexit handlers and never flushes the buffers the
        # child inherited, such as the caller's pending stdout.
        status = 1
        try:
            failure = _spool_chunk(fn, items, indices, fd, raw)
            if failure is not None:
                i, exc = failure
                try:
                    data = pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
                except Exception:
                    text = "%s: %s (in a forked worker; the error does not pickle)"
                    data = pickle.dumps(NumericError(text % (type(exc).__name__, exc)), pickle.HIGHEST_PROTOCOL)
                _write_record(fd, i, _FAILED, [data])
            status = 0
        finally:
            os._exit(status)
    return pid


def _lost(indices, how):
    """(first item, NumericError) for a forked worker whose results did not all come back.

    It fails at its first item, since which of its items were reached is unknown.
    """
    shown = list(indices) if len(indices) <= 4 else [indices[0], indices[1], "...", indices[-1]]
    return indices[0], NumericError("the forked worker of items %s %s" % (", ".join(map(str, shown)), how))


def _ended(code):
    """How a child that exited with the nonzero code ended."""
    if code > 0:
        return "exited with status %d" % code
    try:
        return "was killed by %s" % signal.Signals(-code).name
    except ValueError:
        return "was killed by signal %d" % -code


def _scan(fd, chunks, failures):
    """Where each item's result is in the spool fd, by index.

    The records are framed once, in the order they were written. A raw
    record's bytes are never read: its entry is their (byte length, offset).
    A pickled record is decoded once: a value is its entry, and a failure,
    or the error its decoding raises, is appended to failures; a record of
    chunk 0 is the caller's own. A partial record, which a worker killed
    part way through its write leaves at the end, ends the scan. When
    nothing failed, an item with no record fails at its worker's first item.
    """
    k = len(chunks)
    where = [_MISSING] * sum(map(len, chunks))
    end = os.fstat(fd).st_size
    pos = 0
    while pos + _RECORD.size <= end:
        i, size, kind = _RECORD.unpack(os.pread(fd, _RECORD.size, pos))
        start = pos + _RECORD.size
        pos = start + size
        if i >= len(where) or pos > end or kind > _FAILED:
            break
        if kind == _RAW:
            where[i] = size, start
            continue
        try:
            value = pickle.loads(os.pread(fd, size, start))
        except Exception as exc:
            how = "(%s: %s)" % (type(exc).__name__, exc)
            if i % k:
                failures.append(_lost(chunks[i % k], "sent a reply that does not decode " + how))
            else:
                failures.append((i, NumericError("the result of item %d does not decode %s" % (i, how))))
        else:
            if kind == _FAILED:
                failures.append((i, value))
            else:
                where[i] = value
    missing = next((i for i, entry in enumerate(where) if entry is _MISSING), None)
    if not failures and missing is not None:
        failures.append(_lost(chunks[missing % k], "exited without the result of item %d" % missing))
    return where


@contextlib.contextmanager
def fork_spool(fn, items, raw=False):
    """Map fn over items in forked workers; yields read, with read(i) = fn(items[i]).

    The items are dealt round-robin into k = min(usable CPUs, len(items))
    chunks: the caller runs chunk 0 and a forked child each other chunk, so
    fn and the items are inherited, never pickled. Without fork, or with
    other threads running (a forked child holds only the calling thread), k
    is 1. Each worker appends each result, as it is made, to one spool as
    one record. With raw set, fn returns a sequence of bytes pieces, which
    are written as they are, and read(i) returns item i's bytes as one
    pread gives them, so only the results read are held. Else each result
    is pickled, and read(i) returns the value its record decoded to. Every
    child is reaped and every record framed, and every pickle decoded once,
    before anything is yielded. A failure raises the exception of the
    lowest item index, as the plain loop would. A child that is killed,
    exits with a nonzero status or writes a record that does not decode
    fails at its first item with a NumericError naming its items and how it
    ended. A spool that cannot be made or written is a ConfigError. The
    spool is closed on every exit path.
    """
    items = list(items)
    k = max(1, min(_usable_cpus(), len(items)))
    if not hasattr(os, "fork") or threading.active_count() > 1:
        k = 1
    chunks = [range(c, len(items), k) for c in range(k)]
    fd = _open_spool()
    try:
        pids = []
        try:
            for indices in chunks[1:]:
                pids.append(_fork_chunk(fn, items, indices, fd, raw))
            own = _spool_chunk(fn, items, chunks[0], fd, raw)
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        # a dead worker's failure goes first, so it wins a tie with its own records
        failures = [_lost(indices, _ended(code)) for indices, code in zip(chunks[1:], codes) if code]
        if own is not None:
            failures.append(own)
        where = _scan(fd, chunks, failures)
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
        yield (lambda i: os.pread(fd, *where[i])) if raw else where.__getitem__
    finally:
        os.close(fd)


def fork_map(fn, items):
    """[fn(x) for x in items], mapped in forked workers through fork_spool; fn's results must pickle."""
    items = list(items)
    with fork_spool(fn, items) as read:
        return [read(i) for i in range(len(items))]
