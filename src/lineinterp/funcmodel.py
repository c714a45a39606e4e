"""Truncated two-variable power series and their restrictions to lines.

A function is represented by its Taylor coefficients a_{k,l} for k+l <= M
about the origin. Restricting to the complex line {z1 = eta * z2} through the
origin produces a one-variable series with coefficients

    c_m(eta) = sum_{k+l=m} a_{k,l} eta^k,

which is all the interpolant construction is allowed to consume. The
orthogonal projection of a point onto a line uses the Hermitian inner
product: w = (z2 + conj(eta) z1) / (1 + |eta|^2) and the projected point is
(eta * w, w), so |w| never exceeds the norm of the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from mpmath import mpf, workprec

from .errors import ConfigError, ParseError
from .precision import (
    DEFAULT_PRECISION,
    ApComplex,
    _as_mpc,
    _dot,
    _point_from_json,
    _point_json,
    _products,
    _raw,
    _running_products,
    _sum,
    check_precision,
)

# Highest total degree of a series read from a spec or a file, checked before
# the series, with its one list per degree, is built.
MAX_SERIES_ORDER = 512


def _check_series_order(max_order):
    """A ConfigError naming the limit when max_order is over MAX_SERIES_ORDER."""
    if max_order > MAX_SERIES_ORDER:
        raise ConfigError(
            "series order %d exceeds the limit of %d" % (max_order, MAX_SERIES_ORDER)
        )


class TaylorSeries2:
    """Coefficients a_{k,l}, k+l <= max_order, at a fixed working precision.

    Exact for polynomials: a polynomial of total degree <= max_order is
    represented without truncation error. Every coefficient is rounded to
    precision_bits, whatever precision it comes at.
    """

    __slots__ = ("max_order", "precision_bits", "_coeffs", "_by_degree")

    def __init__(self, coeffs, max_order, precision_bits=DEFAULT_PRECISION):
        bits = check_precision(precision_bits)
        if max_order < 0:
            raise ConfigError("max_order must be nonnegative")
        frozen = {}
        for (k, l), value in coeffs.items():
            if k < 0 or l < 0 or k + l > max_order:
                raise ConfigError(
                    "coefficient index (%d, %d) outside 0 <= k+l <= %d"
                    % (k, l, max_order)
                )
            with workprec(bits):
                v = +_as_mpc(value)
            if v != 0:
                frozen[(k, l)] = v
        by_degree = [[] for _ in range(max_order + 1)]
        for (k, l) in sorted(frozen):
            by_degree[k + l].append((k, frozen[(k, l)]))
        object.__setattr__(self, "max_order", max_order)
        object.__setattr__(self, "precision_bits", bits)
        object.__setattr__(self, "_coeffs", frozen)
        object.__setattr__(self, "_by_degree", by_degree)

    def __setattr__(self, name, value):
        raise AttributeError("TaylorSeries2 is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the blocked __setattr__;
        # exact, since __init__ holds every coefficient at precision_bits
        return type(self), (self._coeffs, self.max_order, self.precision_bits)

    def items(self):
        """Deterministic (k, l) -> mpc iteration in graded order."""
        for m, row in enumerate(self._by_degree):
            for k, v in row:
                yield (k, m - k), v

    def to_json_obj(self):
        out = [{"k": k, "l": l, **_point_json(v.real, v.imag)} for (k, l), v in self.items()]
        return {"max_order": self.max_order, "coeffs": out}

    @classmethod
    def from_json_obj(cls, obj, precision_bits=DEFAULT_PRECISION):
        if not isinstance(obj, dict):
            raise ParseError("function payload must be an object")
        max_order = obj.get("max_order")
        entries = obj.get("coeffs")
        if not isinstance(max_order, int) or isinstance(max_order, bool):
            raise ParseError("function payload needs an integer max_order")
        _check_series_order(max_order)
        if not isinstance(entries, list):
            raise ParseError("function payload needs a coeffs list")
        coeffs = {}
        for entry in entries:
            if not isinstance(entry, dict) or not {"k", "l", "re", "im"} <= set(entry):
                raise ParseError("coefficient entries need k, l, re, im")
            k, l = entry["k"], entry["l"]
            if any(not isinstance(i, int) or isinstance(i, bool) for i in (k, l)):
                raise ParseError("coefficient indices must be integers")
            if k < 0 or l < 0:
                raise ParseError("negative coefficient index")
            if (k, l) in coeffs:
                raise ParseError("duplicate coefficient index (%d, %d)" % (k, l))
            coeffs[(k, l)] = _point_from_json(entry, precision_bits)
        return cls(coeffs, max_order, precision_bits)


@dataclass(frozen=True)
class LineRestriction:
    """One-variable series c_m of f along the line {z1 = eta * z2}."""

    eta: ApComplex
    coeffs: tuple
    precision_bits: int


class GradedTerms:
    """Terms a_{k,l} z1^k z2^l of a series at one point, grouped by total degree.

    The series value is the sum of all rows and the tail of order n the sum
    from row n on; both accumulate term by term in graded order, so every
    partial sum is the one a direct evaluation of that range would give.
    The point (z1, z2) is raw mpc, and bits the precision of the terms and
    sums. The terms are formed by the kernel _products and held in the
    kernels' core form, and total returns the sums of _sum as raw mpc; a row
    leaves out exactly zero terms, as at z1 = 0.
    """

    __slots__ = ("rows", "precision_bits")

    def __init__(self, f, z1, z2, bits):
        with workprec(bits):
            pow1 = _running_products([z1] * f.max_order)
            pow2 = _running_products([z2] * f.max_order)
            self.rows = [
                _products((a, pow1[k], pow2[m - k]) for k, a in row)
                for m, row in enumerate(f._by_degree)
            ]
        self.precision_bits = bits

    def total(self, start=0, stop=None):
        """Sum of the rows of total degree start..stop (default: to the end)."""
        if stop is None or stop >= len(self.rows):
            stop = len(self.rows) - 1
        with workprec(self.precision_bits):
            return _raw(_sum(chain.from_iterable(self.rows[m] for m in range(start, stop + 1))))


def eval2(f, z1, z2):
    """Value of the truncated series at (z1, z2), summed in graded order."""
    bits = max(f.precision_bits, z1.precision_bits, z2.precision_bits)
    return ApComplex.from_mpc(GradedTerms(f, z1.to_mpc(), z2.to_mpc(), bits).total(), bits)


def restrict_to_line(f, eta, precision_bits=None):
    """Line restriction coefficients c_m(eta) = sum_{k+l=m} a_{k,l} eta^k."""
    if not isinstance(eta, ApComplex):
        raise ConfigError("eta must be an ApComplex value")
    bits = check_precision(precision_bits or max(f.precision_bits, eta.precision_bits))
    with workprec(bits):
        powers = _running_products([eta.to_mpc()] * f.max_order)
        out = tuple(_raw(_dot((a, powers[k]) for k, a in row)) for row in f._by_degree)
    return LineRestriction(eta=eta, coeffs=out, precision_bits=bits)


def _weight(ev):
    """1 + |eta|^2 for a raw mpc eta, at the ambient precision."""
    return 1 + ev.real**2 + ev.imag**2


def _projection(ev, z1v, z2v, weight):
    """Raw w = (z2 + conj(eta) z1) / (1 + |eta|^2), given weight = _weight(eta).

    The orthogonal projection of (z1, z2) onto the line {z1 = eta * z2} is (eta * w, w).
    """
    return (z2v + ev.conjugate() * z1v) / weight


# -- builtin generators -------------------------------------------------------


def poly_series(spec_body, precision_bits=DEFAULT_PRECISION):
    """Inline polynomial: "k,l,re,im;k,l,re,im;..." entries."""
    chunks = [chunk for chunk in spec_body.split(";") if chunk.strip()]
    if not chunks:
        raise ParseError("empty inline polynomial spec")
    entries = []
    for chunk in chunks:
        parts = [part.strip() for part in chunk.split(",")]
        if len(parts) != 4:
            raise ParseError("inline coefficient needs k,l,re,im, got %r" % (chunk,))
        try:
            k, l = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError("bad coefficient index in %r" % (chunk,)) from exc
        entries.append({"k": k, "l": l, "re": parts[2], "im": parts[3]})
    max_order = max(e["k"] + e["l"] for e in entries)
    return TaylorSeries2.from_json_obj({"max_order": max_order, "coeffs": entries}, precision_bits)


def exp_sum_series(max_order, precision_bits=DEFAULT_PRECISION):
    """Truncation of exp(z1 + z2): a_{k,l} = 1/(k! l!)."""
    bits = check_precision(precision_bits)
    coeffs = {}
    with workprec(bits):
        for k in range(max_order + 1):
            for l in range(max_order + 1 - k):
                coeffs[(k, l)] = mpf(1) / (
                    mpf(math.factorial(k)) * mpf(math.factorial(l))
                )
    return TaylorSeries2(coeffs, max_order, bits)


def expcos_series(max_order, precision_bits=DEFAULT_PRECISION):
    """Truncation of exp(z1) * cos(z2)."""
    bits = check_precision(precision_bits)
    coeffs = {}
    with workprec(bits):
        for k in range(max_order + 1):
            for l in range(0, max_order + 1 - k, 2):
                value = mpf(1) / (mpf(math.factorial(k)) * mpf(math.factorial(l)))
                if (l // 2) % 2 == 1:
                    value = -value
                coeffs[(k, l)] = value
    return TaylorSeries2(coeffs, max_order, bits)


def series_from_spec(spec, precision_bits=DEFAULT_PRECISION):
    """Builtin generator dispatch: poly:<entries>, exp_sum:<M>, expcos:<M>."""
    name, sep, body = spec.partition(":")
    if not sep:
        raise ParseError("function spec needs the form name:body, got %r" % (spec,))
    if name == "poly":
        return poly_series(body, precision_bits)
    if name in ("exp_sum", "expcos"):
        try:
            max_order = int(body)
        except ValueError as exc:
            raise ParseError("bad truncation order %r" % (body,)) from exc
        if max_order < 0:
            raise ParseError("truncation order must be nonnegative")
        _check_series_order(max_order)
        builder = exp_sum_series if name == "exp_sum" else expcos_series
        return builder(max_order, precision_bits)
    raise ParseError("unknown builtin function %r" % (name,))
