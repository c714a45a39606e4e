"""Growth diagnostics for divided differences of conjugation-type kernels.

The reconstruction theory asks whether the divided differences of the kernels

    g_q(zeta) = (conj(zeta) / (1 + |zeta|^2))^q

stay below R^(p+q) for a single finite R over all orders p and powers q. A
finite computation can only sample a (P, Q) window, so everything here is an
observed estimate: the profile reports the largest normalized entry as
r_hat_observed and never claims the bound holds beyond the window. Each
kernel power q is one column of the profile, built in a forked worker
through precision.fork_map. Node generators for lines and circles, and the
holomorphic germs that represent conj(zeta) on those sets, support the
families for which boundedness is expected.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import mpmath
from mpmath import mpc, mpf, workprec

from .divdiff import (
    NodeConditioning,
    NodeSequence,
    ScalarFunction,
    _leading_column,
    _require_order,
    as_node_sequence,
)
from .errors import ConfigError, DomainError
from .funcmodel import _weight
from .precision import (
    DEFAULT_PRECISION,
    MIN_PRECISION,
    ApComplex,
    check_precision,
    fork_map,
    parse_decimal,
)


def conj_kernel(q, s=None):
    """Kernel zeta -> conj(zeta)^s / (1 + |zeta|^2)^q, with 0 <= s <= q.

    s defaults to q, giving the diagonal kernel g_q. The closed-form
    derivative with respect to conj(zeta) is attached for use by the
    adversarial construction.
    """
    if s is None:
        s = q
    if q < 0 or s < 0:
        raise DomainError("kernel powers must be nonnegative")
    if s > q:
        raise DomainError("kernel needs s <= q, got s=%d q=%d" % (s, q))

    def fn(w):
        return w.conjugate() ** s / _weight(w) ** q

    def conj_derivative(w):
        mod2 = _weight(w)
        first = mpc(0)
        if s > 0:
            first = s * w.conjugate() ** (s - 1) / mod2**q
        return first - q * w.conjugate() ** s * w / mod2 ** (q + 1)

    return ScalarFunction(
        fn=fn, kind="conjugate-kernel", conj_derivative=conj_derivative
    )


def _root(value, k):
    """value^(1/k) for a nonnegative mpf at the ambient precision."""
    if value == 0:
        return mpf(0)
    return mpmath.root(value, k)


@dataclass(frozen=True)
class CriterionProfile:
    """Window of |Delta_p[g_q]| magnitudes with normalized growth rates.

    raw[p][q] is the magnitude of the order-p divided difference of g_q over
    the ordered node prefix; normalized[p][q] is raw^(1/(p+q)) except at
    (0, 0) where the raw value (always 1) is kept. r_hat_observed is the
    largest normalized entry with p + q >= 1, an estimate over this finite
    window only.
    """

    p_max: int
    q_max: int
    precision_bits: int
    raw: tuple
    normalized: tuple
    r_hat_observed: mpf


def _profile_column(conditioning, q):
    """Column q of the profile over the conditioning's nodes: |Delta_p[g_q]| and its (p+q)-th root.

    The root is skipped at (0, 0), where the raw value is kept.
    """
    with workprec(conditioning.precision_bits):
        kernel = conj_kernel(q)
        values = [kernel.raw(z) for z in conditioning.zs]
        raw = [abs(v) for v in _leading_column(values, conditioning)]
        normalized = [v if p + q == 0 else _root(v, p + q) for p, v in enumerate(raw)]
    return raw, normalized


def criterion_profile(nodes, p_max, q_max, precision_bits=None):
    """Magnitudes |Delta_p[g_q](eta_{p+1})| over the ordered node prefix."""
    seq = as_node_sequence(nodes)
    if q_max < 0:
        raise DomainError("profile window must be nonnegative")
    _require_order(seq, p_max + 1)
    bits = check_precision(precision_bits or seq.precision_bits)
    # one column per kernel power, each in a forked worker that inherits the node gaps
    conditioning = NodeConditioning(seq.zs[: p_max + 1], bits)
    columns = fork_map(partial(_profile_column, conditioning), range(q_max + 1))
    raw_cols, normalized_cols = zip(*columns)
    raw, normalized = tuple(zip(*raw_cols)), tuple(zip(*normalized_cols))
    r_hat = mpf(0)
    for p, row in enumerate(normalized):
        for q, value in enumerate(row):
            if p + q:
                r_hat = max(r_hat, value)
    return CriterionProfile(
        p_max=p_max,
        q_max=q_max,
        precision_bits=bits,
        raw=raw,
        normalized=normalized,
        r_hat_observed=r_hat,
    )


# -- node families -------------------------------------------------------------------


FAMILY_KINDS = ("line", "circle")


@dataclass(frozen=True)
class NodeFamily:
    """Nodes on a real line or a circle, the sets that carry a conjugation germ."""

    kind: str
    a: object = None
    b: object = None
    c: object = None
    center: object = None
    radius: object = None
    count: object = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ConfigError("unknown node family kind %r" % (self.kind,))
        # Parameters are checked as mpf at the lowest precision: rounding to
        # it keeps the sign of any value and never turns a nonzero value into zero.
        if self.kind == "line":
            if _as_real(self.a, MIN_PRECISION) == 0 and _as_real(self.b, MIN_PRECISION) == 0:
                raise ConfigError("line family needs (a, b) != (0, 0)")
        elif _as_real(self.radius, MIN_PRECISION) <= 0:
            raise ConfigError("circle family needs a positive radius")


def _as_real(value, bits):
    """A decimal string or a number as an mpf rounded to bits."""
    with workprec(bits):
        if isinstance(value, str):
            return parse_decimal(value, bits)
        return +mpf(value)


def _as_point(value, bits):
    """An ApComplex, a (re, im) pair or a real value as a raw mpc rounded to bits."""
    with workprec(bits):
        if isinstance(value, ApComplex):
            return +value.to_mpc()
        if isinstance(value, tuple):
            return mpc(_as_real(value[0], bits), _as_real(value[1], bits))
        return mpc(_as_real(value, bits))


def line_family(a, b, c, count=None):
    """Nodes on the real line a*Re(z) + b*Im(z) + c = 0."""
    return NodeFamily(kind="line", a=a, b=b, c=c, count=count)


def circle_family(center, radius, count=None):
    """Nodes on the circle |z - center| = radius."""
    return NodeFamily(kind="circle", center=center, radius=radius, count=count)


def _golden_fraction():
    # evaluated under the caller's working precision
    return (mpmath.sqrt(5) - 1) / 2


def generate_nodes(family, count=None, seed=0, precision_bits=DEFAULT_PRECISION):
    """Deterministic distinct nodes from a family; the seed offsets the walk."""
    bits = check_precision(precision_bits)
    if count is None:
        count = family.count
    if count is None:
        raise ConfigError("node count required")
    if count < 1:
        raise DomainError("node count must be at least 1")
    out = []
    with workprec(bits):
        phi = _golden_fraction()
        if family.kind == "line":
            a = _as_real(family.a, bits)
            b = _as_real(family.b, bits)
            c = _as_real(family.c, bits)
            norm2 = a**2 + b**2
            base = mpc(-c * a / norm2, -c * b / norm2)
            direction = mpc(-b, a)
            span = mpf(max(4, count))
            for k in range(count):
                t = (k + seed) * phi
                t = span * (t - mpmath.floor(t) - mpf(1) / 2)
                out.append(base + t * direction)
        else:
            center = _as_point(family.center, bits)
            radius = _as_real(family.radius, bits)
            for k in range(count):
                angle = 2 * mpmath.pi * ((k + seed) * phi)
                out.append(center + radius * mpc(mpmath.cos(angle), mpmath.sin(angle)))
    return NodeSequence(out, bits)


def germ_for_family(family, precision_bits=DEFAULT_PRECISION):
    """Holomorphic g with g(eta) = conj(eta) on the family's line or circle."""
    bits = check_precision(precision_bits)
    if family.kind == "line":
        with workprec(bits):
            a = _as_real(family.a, bits)
            b = _as_real(family.b, bits)
            c = _as_real(family.c, bits)
            num_coeff = mpc(a, -b) / 2
            den_coeff = mpc(a, b) / 2

        def fn(w):
            return -(num_coeff * w + c) / den_coeff

        return ScalarFunction(fn=fn, kind="composite")
    with workprec(bits):
        center = _as_point(family.center, bits)
        r2 = _as_real(family.radius, bits) ** 2

    def fn(w):
        return center.conjugate() + r2 / (w - center)

    return ScalarFunction(fn=fn, kind="composite")
