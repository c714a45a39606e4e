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

from mpmath import mpc, mpf, workprec

from .divdiff import _running_products
from .errors import ConfigError, ParseError
from .precision import (
    DEFAULT_PRECISION,
    ApComplex,
    _dot,
    _products,
    _sum,
    check_precision,
    parse_decimal,
    render_decimal,
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
                # unary plus rounds every kind, mpc and ApComplex too, to bits
                v = +(value.to_mpc() if isinstance(value, ApComplex) else mpc(value))
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

    def coefficient(self, k, l):
        """a_{k,l} as ApComplex (zero when absent)."""
        v = self._coeffs.get((k, l))
        if v is None:
            return ApComplex(0, 0, self.precision_bits)
        return ApComplex.from_mpc(v, self.precision_bits)

    def items(self):
        """Deterministic (k, l) -> mpc iteration in graded order."""
        for m, row in enumerate(self._by_degree):
            for k, v in row:
                yield (k, m - k), v

    def degree_row(self, m):
        """List of (k, a_{k, m-k}) for total degree m."""
        if m < 0 or m > self.max_order:
            return []
        return list(self._by_degree[m])

    def total_degree(self):
        """Largest m with a nonzero coefficient, -1 for the zero series."""
        for m in range(self.max_order, -1, -1):
            if self._by_degree[m]:
                return m
        return -1

    def truncated(self, new_max_order):
        """Drop all terms of total degree above new_max_order."""
        if new_max_order >= self.max_order:
            return TaylorSeries2(
                dict(self.items()), new_max_order, self.precision_bits
            )
        kept = {
            (k, l): v for (k, l), v in self.items() if k + l <= new_max_order
        }
        return TaylorSeries2(kept, new_max_order, self.precision_bits)

    def at_precision(self, bits):
        return TaylorSeries2(dict(self.items()), self.max_order, bits)

    def to_json_obj(self):
        out = []
        for (k, l), v in self.items():
            out.append(
                {
                    "k": k,
                    "l": l,
                    "re": render_decimal(v.real),
                    "im": render_decimal(v.imag),
                }
            )
        return {"max_order": self.max_order, "coeffs": out}

    @classmethod
    def from_json_obj(cls, obj, precision_bits=DEFAULT_PRECISION):
        if not isinstance(obj, dict):
            raise ParseError("function payload must be an object")
        max_order = obj.get("max_order")
        entries = obj.get("coeffs")
        if not isinstance(max_order, int) or isinstance(max_order, bool):
            raise ParseError("function payload needs an integer max_order")
        if not isinstance(entries, list):
            raise ParseError("function payload needs a coeffs list")
        coeffs = {}
        for entry in entries:
            if not isinstance(entry, dict) or not {"k", "l", "re", "im"} <= set(entry):
                raise ParseError("coefficient entries need k, l, re, im")
            k, l = entry["k"], entry["l"]
            if any(not isinstance(i, int) or isinstance(i, bool) for i in (k, l)):
                raise ParseError("coefficient indices must be integers")
            if (k, l) in coeffs:
                raise ParseError("duplicate coefficient index (%d, %d)" % (k, l))
            coeffs[(k, l)] = ApComplex(
                parse_decimal(entry["re"], precision_bits),
                parse_decimal(entry["im"], precision_bits),
                precision_bits,
            )
        return cls(coeffs, max_order, precision_bits)


@dataclass(frozen=True)
class LineRestriction:
    """One-variable series c_m of f along the line {z1 = eta * z2}."""

    eta: ApComplex
    coeffs: tuple
    precision_bits: int

    @property
    def max_order(self):
        return len(self.coeffs) - 1

    def coefficient(self, m):
        if m < 0 or m >= len(self.coeffs):
            return ApComplex(0, 0, self.precision_bits)
        return ApComplex.from_mpc(self.coeffs[m], self.precision_bits)


class GradedTerms:
    """Terms a_{k,l} z1^k z2^l of a series at one point, grouped by total degree.

    The series value is the sum of all rows and the tail of order n the sum
    from row n on; both accumulate term by term in graded order, so every
    partial sum is the one a direct evaluation of that range would give.
    Terms and sums are raw mpc at precision_bits, formed by the kernels
    _products and _sum; a row leaves out exactly zero terms, as at z1 = 0.
    """

    __slots__ = ("rows", "precision_bits")

    def __init__(self, f, z1, z2):
        bits = max(f.precision_bits, z1.precision_bits, z2.precision_bits)
        with workprec(bits):
            pow1 = _running_products([z1.to_mpc()] * f.max_order)
            pow2 = _running_products([z2.to_mpc()] * f.max_order)
            self.rows = [
                _products((a, pow1[k], pow2[m - k]) for k, a in f.degree_row(m))
                for m in range(f.max_order + 1)
            ]
        self.precision_bits = bits

    def total(self, start=0, stop=None):
        """Sum of the rows of total degree start..stop (default: to the end)."""
        if stop is None or stop >= len(self.rows):
            stop = len(self.rows) - 1
        with workprec(self.precision_bits):
            return _sum(chain.from_iterable(self.rows[m] for m in range(start, stop + 1)))


def eval2(f, z1, z2):
    """Value of the truncated series at (z1, z2), summed in graded order."""
    terms = GradedTerms(f, z1, z2)
    return ApComplex.from_mpc(terms.total(), terms.precision_bits)


def restrict_to_line(f, eta, precision_bits=None):
    """Line restriction coefficients c_m(eta) = sum_{k+l=m} a_{k,l} eta^k."""
    if not isinstance(eta, ApComplex):
        raise ConfigError("eta must be an ApComplex value")
    bits = check_precision(precision_bits or max(f.precision_bits, eta.precision_bits))
    with workprec(bits):
        powers = _running_products([eta.to_mpc()] * f.max_order)
        out = tuple(
            _dot((a, powers[k]) for k, a in f.degree_row(m)) for m in range(f.max_order + 1)
        )
    return LineRestriction(eta=eta, coeffs=out, precision_bits=bits)


def _weight(ev):
    """1 + |eta|^2 for a raw mpc eta, at the ambient precision."""
    return 1 + ev.real**2 + ev.imag**2


def _projection(ev, z1v, z2v, weight):
    """Raw w = (z2 + conj(eta) z1) / (1 + |eta|^2), given weight = _weight(eta)."""
    return (z2v + ev.conjugate() * z1v) / weight


def project_to_line(eta, z1, z2):
    """Orthogonal projection onto the line {z1 = eta * z2}.

    Returns (w, (eta*w, w)) where w = (z2 + conj(eta) z1) / (1 + |eta|^2).
    """
    if not isinstance(eta, ApComplex):
        raise ConfigError("eta must be an ApComplex value")
    bits = max(eta.precision_bits, z1.precision_bits, z2.precision_bits)
    with workprec(bits):
        ev = eta.to_mpc()
        w = _projection(ev, z1.to_mpc(), z2.to_mpc(), _weight(ev))
        p1 = ev * w
    return (
        ApComplex.from_mpc(w, bits),
        (ApComplex.from_mpc(p1, bits), ApComplex.from_mpc(w, bits)),
    )


# -- builtin generators -------------------------------------------------------


def poly_series(spec_body, precision_bits=DEFAULT_PRECISION):
    """Inline polynomial: "k,l,re,im;k,l,re,im;..." entries."""
    entries = [chunk for chunk in spec_body.split(";") if chunk.strip()]
    if not entries:
        raise ParseError("empty inline polynomial spec")
    coeffs = {}
    for chunk in entries:
        parts = [part.strip() for part in chunk.split(",")]
        if len(parts) != 4:
            raise ParseError("inline coefficient needs k,l,re,im, got %r" % (chunk,))
        try:
            k, l = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError("bad coefficient index in %r" % (chunk,)) from exc
        if (k, l) in coeffs:
            raise ParseError("duplicate coefficient index (%d, %d)" % (k, l))
        coeffs[(k, l)] = ApComplex(
            parse_decimal(parts[2], precision_bits),
            parse_decimal(parts[3], precision_bits),
            precision_bits,
        )
    if any(k < 0 or l < 0 for k, l in coeffs):
        raise ParseError("negative coefficient index")
    max_order = max(k + l for k, l in coeffs)
    return TaylorSeries2(coeffs, max_order, precision_bits)


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
        builder = exp_sum_series if name == "exp_sum" else expcos_series
        return builder(max_order, precision_bits)
    raise ParseError("unknown builtin function %r" % (name,))
