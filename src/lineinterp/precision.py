"""Arbitrary-precision complex values with explicit per-value precision.

Every value wraps a pair of mpmath binary floats together with the precision
(in bits) it is maintained at. ApComplex is the type values enter and leave
the library as; it carries no arithmetic. Computations unbox with to_mpc, work
on raw mpc under workprec, and box their results once with from_mpc.

Decimal I/O is exact in both directions: rendering writes the exact decimal
expansion of the stored binary value (every m * 2^e has one), and parsing
rounds the decimal to the nearest representable value (ties to even) using
integer arithmetic only. Consequently parse(render(x)) == x at equal
precision, and files written at one precision load losslessly at any higher
one.

The accumulation kernels at the end (_sum, _dot, _products, _horner) run the
series, Horner and E_N loops with mpmath.libmp, which no other module
imports, on the (re, im) parts of raw mpc values. They take and return raw
mpc, read the precision from mpmath.mp.prec at call time, and do the same
roundings in the same order as the mpc operator loops they stand for, so every
result equals that loop's bit for bit, by three facts:

1. mpc + mpc is mpc_add, which is mpf_add on each part at (prec, rounding).
2. mpf_add(acc, 0) is _normalize1(acc), which is acc itself when acc holds
   at most prec bits, as every accumulator does; so a zero addend part is
   skipped. Every other part still goes through mpf_add, so a part held at
   more than prec bits is rounded as before.
3. mpc_mul((a, 0), (x, y)) rounds the exact a*x - 0 and a*y + 0 once each:
   that is mpf_mul(a, x) and mpf_mul(a, y) at (prec, rounding), and likewise
   with the real factor second. Both mpmath backends round correctly, so
   this holds on gmpy too.

mpmath 1.3.0 has no public rounding setting and its context always rounds to
nearest, so the kernels round with round_nearest.

fork_map, last, is the one place that calls os.fork: it maps a function over
items in forked workers, one per usable CPU, and returns what the plain loop
would. The grid sweeps of interpolate, the columns of criterion_profile and
the row rendering of the cli tables run through it. Each child's reply is
unpickled as it comes off the pipe, so no whole copy of it is held, and a
worker that dies or cannot send its reply back is a NumericError.
"""

from __future__ import annotations

import decimal
import functools
import math
import os
import re
import sys
import threading

import mpmath
from mpmath import mpf, mpc, workprec
from mpmath.libmp import fzero, mpc_mul, mpf_add, mpf_mul, round_nearest

from .errors import ConfigError, NumericError, ParseError

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

# The digits of a rendered value are formed as an exact Decimal, for either
# sign of the binary exponent: CPython's int->str is quadratic in the digit
# count, Decimal's str is linear and its multiply is subquadratic. The context
# can hold any product exactly and traps on any rounding, so a wrong digit
# cannot be written silently.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded],
)
_POW_STEP = 256
_TOO_LONG = "decimal expansion exceeds the limit of %d digits" % _MAX_STR_DIGITS


@functools.lru_cache(maxsize=32)
def _pow(base, n):
    """base^n as an exact Decimal, for n a multiple of _POW_STEP.

    At most 32 powers are kept, so a sweep over extreme exponents cannot grow
    memory without limit.
    """
    return _EXACT.power(decimal.Decimal(base), n)


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


def _round_ratio_to_bits(num, den, bits):
    """Round num/den (both positive ints) to a bits-bit float, ties to even.

    Returns (mantissa, exponent) with value mantissa * 2^exponent and
    2^(bits-1) <= mantissa < 2^bits before the final carry, which can bump the
    mantissa to the next power of two (still exactly representable).
    """
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
    return q, -shift


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
    m, e = _round_ratio_to_bits(num, den, bits)
    # Every mpf operation, negation included, rounds at the ambient context,
    # so stay inside workprec until the value is final.
    with workprec(bits):
        value = mpmath.ldexp(mpf(m), e)
        if negative:
            value = -value
    return value


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
    # The digits are those of m * 2^e for e >= 0, and of m * 5^n for e < 0
    # (m * 2^e = m * 5^n / 10^n with n = -e); n - r is a multiple of _POW_STEP.
    base, n = (2, e) if e >= 0 else (5, -e)
    # low <= log10(m * base^n), so a value far past the cap is turned away
    # before any power is formed; the exact digit count decides near the cap.
    low = (m.bit_length() - 1) * math.log10(2) + n * math.log10(base)
    if low > _MAX_STR_DIGITS + 1:
        raise NumericError(_TOO_LONG)
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

    def at_precision(self, bits):
        """Same value re-rounded (or exactly embedded) at another precision."""
        return ApComplex(self.re, self.im, bits)

    # -- edge accessors -------------------------------------------------------

    def conjugate(self):
        with workprec(self.precision_bits):
            return ApComplex(self.re, -self.im, self.precision_bits)

    def magnitude(self):
        """|z| as an mpf at this value's precision."""
        with workprec(self.precision_bits):
            return mpmath.hypot(self.re, self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

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

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self):
        return {"re": render_decimal(self.re), "im": render_decimal(self.im)}

    @classmethod
    def from_json_obj(cls, obj, precision_bits=DEFAULT_PRECISION):
        if not isinstance(obj, dict) or "re" not in obj or "im" not in obj:
            raise ParseError("complex payload must be {'re': ..., 'im': ...}")
        return cls(
            parse_decimal(obj["re"], precision_bits),
            parse_decimal(obj["im"], precision_bits),
            precision_bits,
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


def ulps_apart(a, b, precision_bits=None, scale=None):
    """Distance |a - b| measured in ulps of a magnitude scale.

    The scale defaults to the larger magnitude of the two values. Callers
    checking algebraic identities should pass the largest intermediate
    magnitude so near-cancelling instances are judged on the problem scale.
    """
    if precision_bits is None:
        precision_bits = max(a.precision_bits, b.precision_bits)
    with workprec(precision_bits + 16):
        gap = abs(a.to_mpc() - b.to_mpc())
        if scale is None:
            scale = max(abs(a.to_mpc()), abs(b.to_mpc()))
        step = ulp(scale, precision_bits)
        if gap == 0:
            return mpf(0)
        if step == 0:
            return mpf("inf")
        return gap / step


# -- accumulation kernels (facts 1-3 of the module docstring) ---------------

_ZERO = (fzero, fzero)


def _mul(z, w, prec):
    """The parts of z * w for (re, im) pairs, rounded as mpc_mul rounds them (fact 3)."""
    (a, b), (c, d) = z, w
    if b == fzero:
        return mpf_mul(a, c, prec, round_nearest), mpf_mul(a, d, prec, round_nearest)
    if d == fzero:
        return mpf_mul(a, c, prec, round_nearest), mpf_mul(b, c, prec, round_nearest)
    return mpc_mul(z, w, prec, round_nearest)


def _accumulate(parts, prec):
    """Left-to-right sum of (re, im) pairs as an mpc, zero parts skipped (facts 1, 2)."""
    re = im = fzero
    for a, b in parts:
        if a != fzero:
            re = mpf_add(re, a, prec, round_nearest)
        if b != fzero:
            im = mpf_add(im, b, prec, round_nearest)
    return mpmath.mp.make_mpc((re, im))


def _sum(values):
    """The loop `total = mpc(0); total += v` over raw mpc values."""
    return _accumulate((v._mpc_ for v in values), mpmath.mp.prec)


def _dot(pairs):
    """The loop `total = mpc(0); total += x * y` over (x, y) pairs of raw mpc."""
    prec = mpmath.mp.prec
    return _accumulate((_mul(x._mpc_, y._mpc_, prec) for x, y in pairs), prec)


def _products(triples):
    """[x * y * z for (x, y, z) in triples] of raw mpc, exact zeros left out (fact 2)."""
    prec = mpmath.mp.prec
    out = []
    for x, y, z in triples:
        p = _mul(_mul(x._mpc_, y._mpc_, prec), z._mpc_, prec)
        if p != _ZERO:
            out.append(mpmath.mp.make_mpc(p))
    return out


def _horner(coeffs, w, count):
    """[H_0, ..., H_{count-1}], H_k = sum_{m>=k} w^(m-k) coeffs[m], as raw mpc.

    H_k is acc after `acc = acc * w + coeffs[k]`, run from mpc(0) and the top
    coefficient down; it is zero past the last coefficient.
    """
    prec, wv = mpmath.mp.prec, w._mpc_
    acc, out = _ZERO, []
    for c in reversed(coeffs):
        (re, im), (a, b) = _mul(acc, wv, prec), c._mpc_
        acc = (mpf_add(re, a, prec, round_nearest), mpf_add(im, b, prec, round_nearest))
        out.append(acc)
    out = out[::-1] + [_ZERO] * (count - len(out))
    return [mpmath.mp.make_mpc(v) for v in out[:count]]


# -- forked map -------------------------------------------------------------


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_chunk(fn, items, indices):
    """(results, None) over items[i] for i in indices, or (None, (i, exc)) at the first failure."""
    out = []
    for i in indices:
        try:
            out.append(fn(items[i]))
        except Exception as exc:
            return None, (i, exc)
    return out, None


def _fork_chunk(fn, items, indices):
    """Fork a child that pickles _run_chunk's reply to a pipe; returns (pid, read fd)."""
    # imported on first fork, so runs that never fork do not load it
    import pickle

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        # os._exit skips atexit handlers and never flushes the buffers the
        # child inherited, such as the caller's pending stdout.
        status = 1
        try:
            os.close(read_fd)
            outcome = _run_chunk(fn, items, indices)
            # pickled as it is written, so the child holds no whole copy either
            with open(write_fd, "wb") as pipe:
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _collect(pid, read_fd):
    """(exit code, reply) of a forked child, its pipe read to the end and the child reaped.

    The reply is unpickled as it is read, so the caller never holds the whole
    pickle beside the values it decodes to. When it does not decode, as when
    the child wrote nothing or was killed part way, the reply is the exception
    that decoding raised.
    """
    import pickle

    with open(read_fd, "rb") as pipe:
        try:
            reply = pickle.load(pipe)
        except Exception as exc:
            reply = exc
        # the rest of a reply that did not decode: closing the pipe early would
        # fail the child's write, and its exit status would not say it sent all
        while pipe.read(1 << 16):
            pass
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), reply


def _reply(indices, code, reply):
    """The _run_chunk outcome a child sent, or a NumericError at its first item when it sent none.

    A worker that dies, or cannot send back what its items gave, fails at its
    first item, since which of its items were reached is unknown.
    """
    if code == 0 and isinstance(reply, tuple):
        return reply
    if code < 0:
        import signal

        try:
            how = "was killed by %s" % signal.Signals(-code).name
        except ValueError:
            how = "was killed by signal %d" % -code
    elif code > 0:
        how = "exited with status %d" % code
    else:
        how = "sent a reply that does not decode (%s: %s)" % (type(reply).__name__, reply)
    shown = list(indices) if len(indices) <= 4 else [indices[0], indices[1], "...", indices[-1]]
    error = NumericError("the forked worker of items %s %s" % (", ".join(map(str, shown)), how))
    return None, (indices[0], error)


def fork_map(fn, items):
    """[fn(x) for x in items], the items dealt round-robin to forked workers.

    k = min(usable CPUs, len(items)) chunks: the caller runs chunk 0 and a
    forked child each other chunk, so fn and the items are inherited, never
    pickled; only the results come back. Without fork, or with other threads
    running (a forked child holds only the calling thread), k is 1. A failure
    raises the exception of the lowest item index, as the plain loop would.
    Every pipe is read to its end and every child reaped before that. A child
    that is killed, exits without a reply or sends one that does not decode
    fails at its first item with a NumericError naming its items and how it
    ended.
    """
    items = list(items)
    k = min(_usable_cpus(), len(items))
    if not hasattr(os, "fork") or threading.active_count() > 1:
        k = 1
    if k <= 1:
        return [fn(x) for x in items]
    chunks = [range(c, len(items), k) for c in range(k)]
    children = []
    try:
        for indices in chunks[1:]:
            children.append(_fork_chunk(fn, items, indices))
        own = _run_chunk(fn, items, chunks[0])
    finally:
        replies = [_collect(pid, read_fd) for pid, read_fd in children]
    outcomes = [own] + [_reply(indices, *reply) for indices, reply in zip(chunks[1:], replies)]
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    results = [None] * len(items)
    for indices, (values, _) in zip(chunks, outcomes):
        results[indices.start :: k] = values
    return results
