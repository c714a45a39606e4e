"""Shared test helpers: exact rational complex arithmetic and input generators.

The rational layer is the independent oracle for the divided-difference
identities: it mirrors the recursions over Fraction pairs, where every step is
exact, so expected values carry no floating-point assumptions. Generators
produce dyadic rationals (denominator a power of two) so the same inputs are
exactly representable in the binary value type and both routes see identical
data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from lineinterp import DEFAULT_PRECISION, ApComplex, parse_decimal, ulp
from lineinterp.funcmodel import GradedTerms


@dataclass(frozen=True)
class QC:
    """Exact complex rational."""

    re: Fraction
    im: Fraction

    @classmethod
    def of(cls, re, im=0):
        return cls(Fraction(re), Fraction(im))

    def __add__(self, other):
        return QC(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return QC(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero QC")
        return QC(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __neg__(self):
        return QC(-self.re, -self.im)

    def conj(self):
        return QC(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def is_zero(self):
        return self.re == 0 and self.im == 0


QC_ZERO = QC.of(0)
QC_ONE = QC.of(1)


def ulps_apart(a, b):
    """|a - b| for ApComplex values, in ulps of the larger magnitude at the wider precision."""
    bits = max(a.precision_bits, b.precision_bits)
    with mpmath.workprec(bits + 16):
        gap = abs(a.to_mpc() - b.to_mpc())
        step = ulp(max(abs(a.to_mpc()), abs(b.to_mpc())), bits)
        if gap == 0:
            return mpmath.mpf(0)
        if step == 0:
            return mpmath.mpf("inf")
        return gap / step


def value_at(h, z):
    """ScalarFunction h at an ApComplex z, as h.raw gives it at z's precision, boxed there."""
    with mpmath.workprec(z.precision_bits):
        return ApComplex.from_mpc(h.raw(z.to_mpc()), z.precision_bits)


def graded_terms(f, z1, z2):
    """GradedTerms of f at the ApComplex point (z1, z2), at the widest precision of f and the point.

    That is the precision eval2 and LinePlan.at give the series terms.
    """
    bits = max(f.precision_bits, z1.precision_bits, z2.precision_bits)
    return GradedTerms(f, z1.to_mpc(), z2.to_mpc(), bits)


def apply_unitary(ctx, z1, z2):
    """U of a MobiusContext applied to the ApComplex point (z1, z2), boxed at its precision."""
    bits = ctx.precision_bits
    with mpmath.workprec(bits):
        u1, u2 = ctx._unitary(z1.to_mpc(), z2.to_mpc())
    return ApComplex.from_mpc(u1, bits), ApComplex.from_mpc(u2, bits)


def qc_pow(base, n):
    out = QC_ONE
    for _ in range(n):
        out = out * base
    return out


def qc_dd_table(values, nodes):
    """Exact triangular divided-difference table from point values."""
    rows = [list(values)]
    j = len(nodes)
    for p in range(1, j):
        prev = rows[-1]
        row = []
        for k in range(j - p):
            row.append((prev[k + 1] - prev[k]) / (nodes[k + p] - nodes[k]))
        rows.append(row)
    return rows


def qc_newton_sum(values, nodes, x):
    """Exact Newton-form interpolant value at x."""
    table = qc_dd_table(values, nodes)
    total = QC_ZERO
    lead = QC_ONE
    for p in range(len(nodes)):
        total = total + lead * table[p][0]
        lead = lead * (x - nodes[p])
    return total


def qc_lagrange_sum(values, nodes, x):
    """Exact Lagrange-form interpolant value at x."""
    total = QC_ZERO
    for p, node in enumerate(nodes):
        term = values[p]
        for j, other in enumerate(nodes):
            if j != p:
                term = term * (x - other) / (node - other)
        total = total + term
    return total


def qc_poly_eval(coeffs, x):
    """Exact value of sum coeffs[n] * x^n."""
    total = QC_ZERO
    power = QC_ONE
    for c in coeffs:
        total = total + c * power
        power = power * x
    return total


def qc_poly2_eval(coeffs, z1, z2):
    """Exact value of a bivariate polynomial given as {(k, l): QC}."""
    total = QC_ZERO
    for (k, l), c in sorted(coeffs.items()):
        total = total + c * qc_pow(z1, k) * qc_pow(z2, l)
    return total


# -- interpolant oracle -----------------------------------------------------------
#
# Direct transcription of the interpolant and remainder formulas over exact
# rationals: nested sums and literal products, no shared-prefix or Horner
# rearrangement, so agreement with the package is evidence and not tautology.


def qc_c_m(coeffs2, eta, m):
    """Exact restriction coefficient sum_{k+l=m} a_{k,l} eta^k."""
    total = QC_ZERO
    for (k, l), a in sorted(coeffs2.items()):
        if k + l == m:
            total = total + a * qc_pow(eta, k)
    return total


def qc_proj_w(eta, z1, z2):
    """Exact projection parameter (z2 + conj(eta) z1) / (1 + |eta|^2)."""
    return (z2 + eta.conj() * z1) / (QC_ONE + QC(eta.abs2(), Fraction(0)))


def qc_eval_EN(coeffs2, max_order, nodes, n, z1, z2):
    """Exact interpolant value, nested-sum form."""
    total = QC_ZERO
    for p in range(1, n + 1):
        outer = QC_ONE
        for j in range(p + 1, n + 1):
            outer = outer * (z1 - nodes[j - 1] * z2)
        inner = QC_ZERO
        for q in range(p, n + 1):
            eta_q = nodes[q - 1]
            alpha = (QC_ONE + nodes[p - 1] * eta_q.conj()) / (
                QC_ONE + QC(eta_q.abs2(), Fraction(0))
            )
            denom = QC_ONE
            for j in range(p, n + 1):
                if j != q:
                    denom = denom * (eta_q - nodes[j - 1])
            w = qc_proj_w(eta_q, z1, z2)
            series = QC_ZERO
            for m in range(n - p, max_order + 1):
                series = series + qc_pow(w, m - (n - p)) * qc_c_m(coeffs2, eta_q, m)
            inner = inner + alpha / denom * series
        total = total + outer * inner
    return total


def qc_eval_RN_lagrange(coeffs2, max_order, nodes, n, z1, z2):
    """Exact Lagrange-form remainder value."""
    total = QC_ZERO
    for p in range(1, n + 1):
        eta_p = nodes[p - 1]
        lag = QC_ONE
        for j in range(1, n + 1):
            if j != p:
                lag = lag * (z1 - nodes[j - 1] * z2) / (eta_p - nodes[j - 1])
        w = qc_proj_w(eta_p, z1, z2)
        series = QC_ZERO
        for m in range(n, max_order + 1):
            series = series + qc_pow(w, m - n + 1) * qc_c_m(coeffs2, eta_p, m)
        total = total + lag * series
    return total


def qc_eval_RN_newton(coeffs2, max_order, nodes, n, z1, z2):
    """Exact Newton-form remainder value."""

    def r_kernel(zeta):
        w = qc_proj_w(zeta, z1, z2)
        out = QC_ZERO
        for m in range(n, max_order + 1):
            out = out + qc_pow(w, m - n + 1) * qc_c_m(coeffs2, zeta, m)
        return out

    prefix = nodes[:n]
    table = qc_dd_table([r_kernel(zeta) for zeta in prefix], prefix)
    total = QC_ZERO
    for p in range(n):
        term = qc_pow(z2, n - 1 - p) * table[p][0]
        for j in range(p):
            term = term * (z1 - nodes[j] * z2)
        total = total + term
    return total


def qc_tail(coeffs2, n, z1, z2):
    """Exact tail sum of terms with total degree >= n."""
    total = QC_ZERO
    for (k, l), a in sorted(coeffs2.items()):
        if k + l >= n:
            total = total + a * qc_pow(z1, k) * qc_pow(z2, l)
    return total


# -- conversions ----------------------------------------------------------------


def qc_to_ap(q, bits=256):
    """Exact embedding of a dyadic QC into ApComplex; raises if not dyadic."""

    def part(fr):
        den = fr.denominator
        k = den.bit_length() - 1
        if den != 1 << k:
            raise ValueError("not dyadic: %r" % (fr,))
        with mpmath.workprec(max(bits, abs(fr.numerator).bit_length() + 4)):
            return mpmath.ldexp(mpmath.mpf(fr.numerator), -k)

    return ApComplex(part(q.re), part(q.im), bits)


def ap_to_qc(a):
    """Exact rational value of an ApComplex (always possible)."""

    def part(x):
        if x == 0:
            return Fraction(0)
        m, e = int(x.man), int(x.exp)
        if x < 0:
            m = -m
        return Fraction(m) * Fraction(2) ** e

    return QC(part(a.re), part(a.im))


def make_complex(re_text, im_text="0", precision_bits=DEFAULT_PRECISION):
    """Build an ApComplex from decimal strings (nearest value at the precision)."""
    return ApComplex(
        parse_decimal(re_text, precision_bits),
        parse_decimal(im_text, precision_bits),
        precision_bits,
    )


def series_coefficient(f, k, l):
    """a_{k,l} of a TaylorSeries2, read from its items, as an ApComplex (zero when absent)."""
    return ApComplex.from_mpc(dict(f.items()).get((k, l), 0), f.precision_bits)


def ap_gap(a, b):
    """|a - b| of two ApComplex values, formed on mpc at the larger precision."""
    bits = max(a.precision_bits, b.precision_bits)
    with mpmath.workprec(bits):
        return abs(a.to_mpc() - b.to_mpc())


def mpf_to_fraction(x):
    if x == 0:
        return Fraction(0)
    m, e = int(x.man), int(x.exp)
    if x < 0:
        m = -m
    return Fraction(m) * Fraction(2) ** e


def reference_render_decimal(x):
    """Exact decimal of a dyadic int, float or mpf in render_decimal's layout.

    This is render_decimal's former formula: for a value n / 2^s the digits
    are str(n * 5^s), one Python int. It does not use the decimal module;
    CPython's int->str is quadratic, so keep the inputs test-sized.
    """
    q = mpf_to_fraction(x) if isinstance(x, mpmath.mpf) else Fraction(x)
    if q == 0:
        return "0"
    sign = "-" if q < 0 else ""
    e = 1 - q.denominator.bit_length()
    digits = str(abs(q.numerator) * 5**-e)
    stripped = digits.rstrip("0")
    exp10 = e + len(digits) - len(stripped)
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


# -- generators -------------------------------------------------------------------


def rand_dyadic(rng, scale=2, denom_bits=6):
    """Random dyadic Fraction in [-scale, scale]."""
    den = 1 << denom_bits
    return Fraction(rng.randint(-scale * den, scale * den), den)


def rand_qc(rng, scale=2, denom_bits=6):
    return QC(rand_dyadic(rng, scale, denom_bits), rand_dyadic(rng, scale, denom_bits))


def rand_distinct_nodes(rng, count, scale=2, denom_bits=5, min_gap=Fraction(1, 8)):
    """Random dyadic complex nodes with a guaranteed pairwise gap."""
    nodes = []
    guard = 0
    while len(nodes) < count:
        guard += 1
        if guard > 10000:
            raise RuntimeError("node sampling stalled")
        cand = rand_qc(rng, scale, denom_bits)
        if all((cand - n).abs2() >= min_gap * min_gap for n in nodes):
            nodes.append(cand)
    return nodes


def rand_clustered_nodes(rng, count, exponent):
    """Distinct dyadic nodes in clusters a few multiples of 2^-exponent wide.

    Centers come from rand_distinct_nodes; every other node is a center moved
    by a dyadic offset of modulus at most 2^(1/2 - exponent), so each cluster
    is nearly confluent. All parts are multiples of 2^-(exponent + 3) below 4
    in modulus, so the nodes and their differences are exact at exponent + 8
    bits or more.
    """
    centers = rand_distinct_nodes(rng, max(1, count // 2))
    nodes = list(centers)
    step = Fraction(1, 2**exponent)
    while len(nodes) < count:
        offset = rand_qc(rng, 1, 3)
        cand = rng.choice(centers) + QC(offset.re * step, offset.im * step)
        if cand not in nodes:
            nodes.append(cand)
    rng.shuffle(nodes)
    return nodes


def log2_gap_sum_exceeds(zs, bits):
    """Whether the sum of |log2 |zs[i] - zs[j]|| over pairs exceeds bits/2.

    The reference of the cancellation gate: gaps and logarithms at the full
    working precision, summed pair by pair.
    """
    with mpmath.workprec(bits):
        total = mpmath.mpf(0)
        for a, b in itertools.combinations(zs, 2):
            total += abs(mpmath.log(abs(a - b), 2))
    return total > mpmath.mpf(bits) / 2


def rand_poly_coeffs(rng, degree, scale=2, denom_bits=5):
    """Random univariate QC coefficients, degree exact."""
    coeffs = [rand_qc(rng, scale, denom_bits) for _ in range(degree + 1)]
    while coeffs[-1].is_zero():
        coeffs[-1] = rand_qc(rng, scale, denom_bits)
    return coeffs


def rand_poly2_coeffs(rng, max_degree, scale=2, denom_bits=5, density=0.7):
    """Random bivariate coefficient dict {(k, l): QC} with k+l <= max_degree."""
    coeffs = {}
    for k in range(max_degree + 1):
        for l in range(max_degree + 1 - k):
            if rng.random() < density:
                coeffs[(k, l)] = rand_qc(rng, scale, denom_bits)
    if not coeffs:
        coeffs[(0, 0)] = QC_ONE
    return coeffs
