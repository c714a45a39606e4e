"""Growth diagnostics for divided differences of conjugation-type kernels.

The reconstruction theory asks whether the divided differences of the kernels

    g_q(zeta) = (conj(zeta) / (1 + |zeta|^2))^q

stay below R^(p+q) for a single finite R over all orders p and powers q. A
finite computation can only sample a (P, Q) window, so everything here is an
observed estimate: the profile reports the largest normalized entry as
r_hat_observed and never claims the bound holds beyond the window. Node
generators for lines and circles, and the holomorphic germs that represent
conj(zeta) on those sets, support the families for which boundedness is
expected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import mpmath
from mpmath import mpc, mpf, workprec

from .divdiff import (
    NodeSequence,
    ScalarFunction,
    as_node_sequence,
    conjugation,
    delta,
    delta_table,
)
from .errors import ArityError, ConfigError, DomainError
from .precision import (
    DEFAULT_PRECISION,
    MIN_PRECISION,
    ApComplex,
    check_precision,
    parse_decimal,
    render_decimal,
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
        denom = (1 + w.real**2 + w.imag**2) ** q
        return w.conjugate() ** s / denom

    def conj_derivative(w):
        mod2 = 1 + w.real**2 + w.imag**2
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

    def to_csv_text(self):
        lines = ["p,q,raw,normalized"]
        for p in range(self.p_max + 1):
            for q in range(self.q_max + 1):
                lines.append(
                    "%d,%d,%s,%s"
                    % (
                        p,
                        q,
                        render_decimal(self.raw[p][q]),
                        render_decimal(self.normalized[p][q]),
                    )
                )
        return "\n".join(lines) + "\n"

    def to_json_obj(self):
        return {
            "p_max": self.p_max,
            "q_max": self.q_max,
            "precision_bits": self.precision_bits,
            "estimate_kind": "observed-finite-window",
            "r_hat_observed": render_decimal(self.r_hat_observed),
            "raw": [[render_decimal(v) for v in row] for row in self.raw],
            "normalized": [
                [render_decimal(v) for v in row] for row in self.normalized
            ],
        }


def criterion_profile(nodes, p_max, q_max, precision_bits=None):
    """Magnitudes |Delta_p[g_q](eta_{p+1})| over the ordered node prefix."""
    seq = as_node_sequence(nodes)
    if p_max < 0 or q_max < 0:
        raise DomainError("profile window must be nonnegative")
    if len(seq) < p_max + 1:
        raise ArityError(
            "profile to order %d needs %d nodes, have %d"
            % (p_max, p_max + 1, len(seq))
        )
    bits = check_precision(precision_bits or seq.precision_bits)
    prefix = seq.first(p_max + 1)
    raw_cols = []
    with workprec(bits):
        for q in range(q_max + 1):
            table = delta_table(conj_kernel(q), prefix, bits)
            raw_cols.append([abs(table.rows[p][0]) for p in range(p_max + 1)])
        raw = tuple(
            tuple(raw_cols[q][p] for q in range(q_max + 1))
            for p in range(p_max + 1)
        )
        normalized = []
        r_hat = mpf(0)
        for p in range(p_max + 1):
            row = []
            for q in range(q_max + 1):
                if p + q == 0:
                    row.append(raw[p][q])
                else:
                    value = _root(raw[p][q], p + q)
                    row.append(value)
                    r_hat = max(r_hat, value)
            normalized.append(tuple(row))
    return CriterionProfile(
        p_max=p_max,
        q_max=q_max,
        precision_bits=bits,
        raw=raw,
        normalized=tuple(normalized),
        r_hat_observed=r_hat,
    )


def strengthened_bound(nodes, p_max, r_hat, precision_bits=None):
    """R' = [max(3, 3 * max|eta|, r_hat)]^2 over the profile prefix."""
    seq = as_node_sequence(nodes)
    bits = check_precision(precision_bits or seq.precision_bits)
    with workprec(bits):
        sup = seq.first(p_max + 1).max_modulus()
        base = max(mpf(3), 3 * sup, mpf(r_hat))
        return base**2


@dataclass(frozen=True)
class MixedProfile:
    """Entries |Delta_p[conj^s / (1+|.|^2)^q]| for all s <= q in the window.

    r_prime_observed is the strengthened constant derived from the diagonal
    profile's r_hat_observed; violations lists (p, q, s) entries exceeding
    r_prime_observed^(p+q), which boundedness on line/circle families
    forbids.
    """

    p_max: int
    q_max: int
    precision_bits: int
    entries: tuple  # entries[p][q][s]
    r_prime_observed: mpf
    violations: tuple

    def entry(self, p, q, s):
        if s > q:
            raise DomainError("mixed entries need s <= q")
        return self.entries[p][q][s]

    def to_csv_text(self):
        lines = ["p,q,s,raw,normalized"]
        with workprec(self.precision_bits):
            for p in range(self.p_max + 1):
                for q in range(self.q_max + 1):
                    for s in range(q + 1):
                        value = self.entries[p][q][s]
                        norm = value if p + q == 0 else _root(value, p + q)
                        lines.append(
                            "%d,%d,%d,%s,%s"
                            % (p, q, s, render_decimal(value), render_decimal(norm))
                        )
        return "\n".join(lines) + "\n"

    def to_json_obj(self):
        return {
            "p_max": self.p_max,
            "q_max": self.q_max,
            "precision_bits": self.precision_bits,
            "estimate_kind": "observed-finite-window",
            "r_prime_observed": render_decimal(self.r_prime_observed),
            "violations": [list(v) for v in self.violations],
            "entries": [
                [[render_decimal(v) for v in col] for col in row]
                for row in self.entries
            ],
        }


def mixed_profile(nodes, p_max, q_max, precision_bits=None):
    """All mixed-kernel magnitudes plus the strengthened-bound check."""
    seq = as_node_sequence(nodes)
    if p_max < 0 or q_max < 0:
        raise DomainError("profile window must be nonnegative")
    if len(seq) < p_max + 1:
        raise ArityError(
            "profile to order %d needs %d nodes, have %d"
            % (p_max, p_max + 1, len(seq))
        )
    bits = check_precision(precision_bits or seq.precision_bits)
    diag = criterion_profile(seq, p_max, q_max, bits)
    r_prime = strengthened_bound(seq, p_max, diag.r_hat_observed, bits)
    prefix = seq.first(p_max + 1)
    entries = []
    violations = []
    with workprec(bits):
        tables = {}
        for q in range(q_max + 1):
            for s in range(q + 1):
                tables[(q, s)] = delta_table(conj_kernel(q, s), prefix, bits)
        for p in range(p_max + 1):
            row = []
            for q in range(q_max + 1):
                col = []
                for s in range(q + 1):
                    value = abs(tables[(q, s)].rows[p][0])
                    col.append(value)
                    if p + q >= 1 and value > r_prime ** (p + q):
                        violations.append((p, q, s))
                row.append(tuple(col))
            entries.append(tuple(row))
    return MixedProfile(
        p_max=p_max,
        q_max=q_max,
        precision_bits=bits,
        entries=tuple(entries),
        r_prime_observed=r_prime,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class ProbeReport:
    """Sampled subsequence maxima of |Delta_p[kernel]| and a growth fit.

    Evidence only: the probe samples subsequences, it cannot exhaust them.
    """

    p_max: int
    trials: int
    seed: int
    kernel_kind: str
    precision_bits: int
    per_p_max: tuple
    growth_ratio: object  # mpf or None when too few nonzero maxima

    def to_json_obj(self):
        return {
            "p_max": self.p_max,
            "trials": self.trials,
            "seed": self.seed,
            "kernel": self.kernel_kind,
            "precision_bits": self.precision_bits,
            "estimate_kind": "sampled-subsequences",
            "per_p_max": [render_decimal(v) for v in self.per_p_max],
            "growth_ratio": (
                None if self.growth_ratio is None else render_decimal(self.growth_ratio)
            ),
        }


def uniform_delta_probe(nodes, p_max, trials=200, seed=0, kernel=None,
                        precision_bits=None):
    """Max |Delta_p[kernel]| over sampled increasing subsequences, per p.

    The canonical prefix (the first p+1 nodes in order) is always among the
    sampled subsequences; the rest are seeded random index choices. The
    growth ratio is fitted from a least-squares line through (p, log2 max_p)
    over the nonzero maxima with p >= 1.
    """
    seq = as_node_sequence(nodes)
    if p_max < 0:
        raise DomainError("p_max must be nonnegative")
    if len(seq) < p_max + 1:
        raise ArityError(
            "probe to order %d needs %d nodes, have %d"
            % (p_max, p_max + 1, len(seq))
        )
    if trials < 0:
        raise DomainError("trials must be nonnegative")
    bits = check_precision(precision_bits or seq.precision_bits)
    if kernel is None:
        kernel = conjugation()
    rng = random.Random(seed)
    count = len(seq)
    per_p = []
    with workprec(bits):
        for p in range(p_max + 1):
            best = mpf(0)
            picks = [list(range(p + 1))]
            for _ in range(trials):
                picks.append(sorted(rng.sample(range(count), p + 1)))
            for idx in picks:
                sub = NodeSequence([seq[i] for i in idx], bits)
                value = delta(kernel, sub, p, bits)
                best = max(best, abs(value.to_mpc()))
            per_p.append(best)
        points = [
            (p, mpmath.log(per_p[p], 2)) for p in range(1, p_max + 1) if per_p[p] > 0
        ]
        ratio = None
        if len(points) >= 2:
            xbar = mpf(sum(x for x, _ in points)) / len(points)
            ybar = sum(y for _, y in points) / len(points)
            num = sum((x - xbar) * (y - ybar) for x, y in points)
            den = sum((x - xbar) ** 2 for x, _ in points)
            ratio = mpf(2) ** (num / den)
    return ProbeReport(
        p_max=p_max,
        trials=trials,
        seed=seed,
        kernel_kind=kernel.kind,
        precision_bits=bits,
        per_p_max=tuple(per_p),
        growth_ratio=ratio,
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


def _as_real(value, bits):
    with workprec(bits):
        if isinstance(value, str):
            return parse_decimal(value, bits)
        return +mpf(value)


def _as_point(value, bits):
    if isinstance(value, ApComplex):
        return value.at_precision(bits)
    with workprec(bits):
        if isinstance(value, tuple):
            return ApComplex(_as_real(value[0], bits), _as_real(value[1], bits), bits)
        return ApComplex(_as_real(value, bits), 0, bits)


# Parameters are checked as mpf at the lowest precision: rounding to it keeps
# the sign of any value and never turns a nonzero value into zero.


def line_family(a, b, c, count=None):
    """Nodes on the real line a*Re(z) + b*Im(z) + c = 0."""
    if _as_real(a, MIN_PRECISION) == 0 and _as_real(b, MIN_PRECISION) == 0:
        raise ConfigError("line family needs (a, b) != (0, 0)")
    return NodeFamily(kind="line", a=a, b=b, c=c, count=count)


def circle_family(center, radius, count=None):
    """Nodes on the circle |z - center| = radius."""
    if _as_real(radius, MIN_PRECISION) <= 0:
        raise ConfigError("circle family needs a positive radius")
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
            if a == 0 and b == 0:
                raise ConfigError("line family needs (a, b) != (0, 0)")
            norm2 = a**2 + b**2
            base = mpc(-c * a / norm2, -c * b / norm2)
            direction = mpc(-b, a)
            span = mpf(max(4, count))
            for k in range(count):
                t = (k + seed) * phi
                t = span * (t - mpmath.floor(t) - mpf(1) / 2)
                out.append(base + t * direction)
        else:
            center = _as_point(family.center, bits).to_mpc()
            radius = _as_real(family.radius, bits)
            if radius <= 0:
                raise ConfigError("circle family needs a positive radius")
            for k in range(count):
                angle = 2 * mpmath.pi * ((k + seed) * phi)
                out.append(center + radius * mpc(mpmath.cos(angle), mpmath.sin(angle)))
        points = [ApComplex.from_mpc(z, bits) for z in out]
    return NodeSequence(points, bits)


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
        center = _as_point(family.center, bits).to_mpc()
        r2 = _as_real(family.radius, bits) ** 2

    def fn(w):
        return center.conjugate() + r2 / (w - center)

    return ScalarFunction(fn=fn, kind="composite")
