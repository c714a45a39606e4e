"""Interpolant from line-restriction data and its two remainder forms.

Given the restrictions of a truncated series f to the lines {z1 = eta_q z2},
q = 1..N, the interpolant is

    E_N(f)(z) = sum_{p=1}^{N} prod_{j=p+1}^{N} (z1 - eta_j z2)
                * sum_{q=p}^{N} (1 + eta_p conj(eta_q)) / (1 + |eta_q|^2)
                  * [prod_{j=p..N, j != q} (eta_q - eta_j)]^(-1)
                  * sum_{m >= N-p} w_q(z)^(m-N+p) c_m(eta_q)

with w_q the projection parameter onto line q and c_m the restriction
coefficients; only line data enters. Two independent remainder forms are
provided: a Lagrange-type sum over high-order restriction terms and a
Newton-type sum of divided differences of a non-holomorphic kernel. They
satisfy f = E_N - R_N + tail_N with tail_N the high part of the series
itself, which is the identity every report checks.

All of these are evaluated through a LinePlan: line data built once for the
first n_max lines, then one set of point tables per evaluation point that
every N <= n_max shares. The single-point functions build a one-point plan.
The grid sweeps of a plan deal their points to forked workers, one per usable
CPU, through precision.fork_map; each point's arithmetic is the same, so the
result is the same bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, partial

import mpmath
from mpmath import mpf, workprec

from .criterion import _as_real
from .divdiff import (
    NodeConditioning,
    _leading_column,
    _newton_total,
    _require_order,
    as_node_sequence,
)
from .errors import ArityError, ConfigError
from .funcmodel import GradedTerms, _projection, _weight, restrict_to_line
from .precision import (
    ApComplex,
    _cmul,
    _cores,
    _dot,
    _horner,
    _raw,
    _running_products,
    check_precision,
    fork_map,
)


def _lagrange_chain(line, zs, p, count):
    """Running products of line[j] / (eta_p - eta_j) over j < count, j != p.

    line[j] = z1 - eta_j z2, so for p < n entry n-1 is L_p of the first n
    lines, homogeneous of degree n-1: z2^(n-1) on line p and 0 on the others.
    """
    return _running_products(line[j] / (zs[p] - zs[j]) for j in range(count) if j != p)


@dataclass(frozen=True)
class InterpolantReport:
    """Joint evaluation of all identity members at one point."""

    n: int
    node_count: int
    precision_bits: int
    value_en: ApComplex
    value_rn_lagrange: ApComplex
    value_rn_newton: ApComplex
    value_tail: ApComplex
    value_f: ApComplex
    identity_residual: ApComplex
    cross_form_gap: mpf
    condition_estimate: mpf
    conditioning_pairs: tuple


class LinePlan:
    """Line data shared by every evaluation point and every N <= n_max.

    Built once per (f, nodes, n_max, precision): the restrictions c_m(eta_q)
    of the first n_max lines, the node values, and the node-only factors of
    the double sum in E_N. The coefficients for one N are made on first use
    and kept. `at(z1, z2)` returns the tables of one point, which all N
    share. eval_EN, both remainder forms and identity_report are one-point,
    one-N uses of a plan, so a plan gives their values bit for bit. Given
    restrictions must be those of the first n_max nodes, in node order.
    """

    def __init__(self, f, nodes, n_max, precision_bits=None, restrictions=None):
        seq = as_node_sequence(nodes)
        _require_order(seq, n_max)
        bits = check_precision(
            max(f.precision_bits, seq.precision_bits, precision_bits or 0)
        )
        if restrictions is None:
            restrictions = [restrict_to_line(f, seq[q], bits) for q in range(n_max)]
        elif len(restrictions) < n_max:
            raise ArityError(
                "order %d needs %d restrictions, have %d" % (n_max, n_max, len(restrictions))
            )
        elif any(r.eta != seq[q] for q, r in enumerate(restrictions[:n_max])):
            raise ConfigError("restrictions must lie on the first %d lines, in order" % n_max)
        self.f = f
        self.nodes = seq
        self.n_max = n_max
        self.precision_bits = bits
        # in the kernels' core form, made once for every point's Horner table
        self.restriction_coeffs = [_cores(r.coeffs) for r in restrictions[:n_max]]
        self.zs = zs = seq.zs[:n_max]
        with workprec(bits):
            self.denoms = [_weight(z) for z in zs]
            # gaps[q][t] = product of (eta_q - eta_j) over the first t indices
            # j != q: prod_{j<p} for t = p <= q, prod_{j<N, j != q} for t = N-1.
            self._gaps = [
                [_raw(g) for g in _running_products(zs[q] - zs[j] for j in range(n_max) if j != q)]
                for q in range(n_max)
            ]
            # numer[p][q-p] = (1 + eta_p conj(eta_q)) / (1 + |eta_q|^2)
            #                 * prod_{j<p} (eta_q - eta_j), for p <= q
            self._numer = [
                [
                    (1 + zs[p] * zs[q].conjugate()) / self.denoms[q] * self._gaps[q][p]
                    for q in range(p, n_max)
                ]
                for p in range(n_max)
            ]
        self._coeff_cache = {}

    def _coefficients(self, n):
        """K[p][q-p] = numer[p][q-p] / prod_{j<n, j != q} (eta_q - eta_j), as core forms."""
        _require_order(self.zs, n)
        if n not in self._coeff_cache:
            with workprec(self.precision_bits):
                self._coeff_cache[n] = [
                    _cores(num / self._gaps[q][n - 1] for q, num in enumerate(row[: n - p], p))
                    for p, row in enumerate(self._numer[:n])
                ]
        return self._coeff_cache[n]

    def at(self, z1, z2):
        """The PointTables of the ApComplex point (z1, z2), unboxed once; see PointTables."""
        bits = self.precision_bits
        if max(z1.precision_bits, z2.precision_bits) > bits:
            raise ConfigError("point precision exceeds the plan's %d bits" % bits)
        series_bits = max(self.f.precision_bits, z1.precision_bits, z2.precision_bits)
        return PointTables(self, z1.to_mpc(), z2.to_mpc(), series_bits)

    def sup_errors(self, points, orders):
        """{N: max over the points of |E_N(f) - f|}, the points in forked workers."""
        for n in orders:
            self._coefficients(n)
        sups = {n: mpf(0) for n in orders}
        for gaps in fork_map(partial(self._point_errors, orders), points):
            for n, gap in zip(orders, gaps):
                if gap > sups[n]:
                    sups[n] = gap
        return sups

    def _point_errors(self, orders, point):
        with workprec(self.precision_bits):
            tables = self.at(*point)
            return [abs(tables.en(n) - tables.f_value) for n in orders]

    @cached_property
    def _conditioning(self):
        """The NodeConditioning of the plan's nodes at its precision."""
        return NodeConditioning(self.zs, self.precision_bits)

    def identity_residuals(self, points, orders, tail_max_order=None):
        """(N, point index, |identity residual|, cross_form_gap) rows, by N then point."""
        for n in orders:
            self._coefficients(n)
        # formed here, so the forked workers inherit the node gaps
        self._conditioning
        per_point = fork_map(partial(self._point_residuals, orders, tail_max_order), points)
        rows = [
            (n, idx, mag, gap)
            for idx, pairs in enumerate(per_point)
            for n, (mag, gap) in zip(orders, pairs)
        ]
        rows.sort(key=lambda row: row[:2])
        return rows

    def _point_residuals(self, orders, tail_max_order, point):
        with workprec(self.precision_bits):
            tables = self.at(*point)
            out = []
            for n in orders:
                *_, residual, gap = tables.identity(n, tail_max_order)
                out.append((abs(residual), gap))
            return out


class PointTables:
    """Tables of one evaluation point, shared by every N of its plan.

    Line factors z1 - eta_j z2, projection parameters w_q, the Horner table
    H[q][k] = sum_{m>=k} w_q^(m-k) c_m(eta_q) (zero above the series order)
    and, on first use, the graded series terms, the Lagrange basis chains and
    the Newton products. The inner sums of E_N are H[q][N-p]; both remainder
    forms take the kernel values H[q][N] * w_q at the nodes, formed once per
    N. The Horner table, the w_q and the kernel values are core forms, and
    the sums of E_N and both remainders use the kernels _horner and _dot.
    The point (z1, z2) is raw mpc, at most the plan's precision, and the
    series terms are formed at series_bits, the widest precision of f and
    the point as LinePlan.at gives it. Every member returns raw values; the
    public functions box them.
    """

    def __init__(self, plan, z1, z2, series_bits):
        self.plan = plan
        self.z1, self.z2 = z1, z2
        self.series_bits = series_bits
        self._kernel_cache = {}
        with workprec(plan.precision_bits):
            self.line = [z1 - eta * z2 for eta in plan.zs]
            self.w = _cores(_projection(eta, z1, z2, d) for eta, d in zip(plan.zs, plan.denoms))
            # only H[q][k] for k <= n_max is ever read
            self.horner = [
                _horner(coeffs, w, plan.n_max + 1)
                for w, coeffs in zip(self.w, plan.restriction_coeffs)
            ]

    @cached_property
    def _series(self):
        return GradedTerms(self.plan.f, self.z1, self.z2, self.series_bits)

    @cached_property
    def f_value(self):
        return self._series.total()

    @cached_property
    def _lagrange(self):
        # L_p for the first N lines is _lagrange[p][N-1]
        zs, n_max = self.plan.zs, self.plan.n_max
        with workprec(self.plan.precision_bits):
            return [_lagrange_chain(self.line, zs, p, n_max) for p in range(n_max)]

    @cached_property
    def _newton(self):
        # lead[p] = prod_{j<p} (z1 - eta_j z2) and z2pow[i] = z2^i
        n_max = self.plan.n_max
        with workprec(self.plan.precision_bits):
            lead = _running_products(self.line[: n_max - 1])
            z2pow = _running_products([self.z2] * (n_max - 1))
        return lead, z2pow

    def _kernel_values(self, n):
        if n not in self._kernel_cache:
            bits = self.plan.precision_bits
            self._kernel_cache[n] = [_cmul(self.horner[q][n], self.w[q], bits) for q in range(n)]
        return self._kernel_cache[n]

    def en(self, n):
        """E_N(f) at this point from the first n lines."""
        coeffs = self.plan._coefficients(n)
        with workprec(self.plan.precision_bits):
            # suffix[n-1-p] = prod_{j=p+1}^{n-1} (z1 - eta_j z2), built from the top
            suffix = _running_products(reversed(self.line[1:n]))
            inner = (
                _dot(zip(coeffs[p], (row[n - 1 - p] for row in self.horner[p:n])))
                for p in range(n)
            )
            return _raw(_dot(zip(reversed(suffix), inner)))

    def rn_lagrange(self, n):
        """Remainder in Lagrange form: kernel values against the basis L_p."""
        _require_order(self.plan.zs, n)
        with workprec(self.plan.precision_bits):
            return _raw(_dot(zip((chain[n - 1] for chain in self._lagrange), self._kernel_values(n))))

    def rn_newton(self, n):
        """Remainder in Newton form: divided differences of the kernel values."""
        _require_order(self.plan.zs, n)
        lead, z2pow = self._newton
        with workprec(self.plan.precision_bits):
            column = _leading_column(self._kernel_values(n), self.plan._conditioning)
            total = _newton_total(z2pow, lead, column)
        return total

    def identity(self, n, tail_max_order=None):
        """The identity members for the first n lines; the tail may be capped.

        (E_N, R_N Lagrange, R_N Newton, tail_N, f, residual, cross-form gap)
        with residual = E_N - R_N + tail_N - f, as mpc, and the gap |R_N
        Lagrange - R_N Newton| as mpf.
        """
        en = self.en(n)
        rl = self.rn_lagrange(n)
        rn = self.rn_newton(n)
        tail = self._series.total(n, tail_max_order)
        fz = self.f_value
        with workprec(self.plan.precision_bits):
            return en, rl, rn, tail, fz, en - rl + tail - fz, abs(rl - rn)


def _point_tables(f, nodes, n, z1, z2, restrictions=None):
    # the plan works at the widest precision of f, the nodes and the point
    bits = max(z1.precision_bits, z2.precision_bits)
    return LinePlan(f, nodes, n, bits, restrictions).at(z1, z2)


def _edge_value(member, f, nodes, n, z1, z2, restrictions=None):
    tables = _point_tables(f, nodes, n, z1, z2, restrictions)
    return ApComplex.from_mpc(member(tables, n), tables.plan.precision_bits)


def eval_EN(f, nodes, n, z1, z2, restrictions=None):
    """Interpolant value at (z1, z2) built from the first n line restrictions."""
    return _edge_value(PointTables.en, f, nodes, n, z1, z2, restrictions)


def eval_RN_lagrange(f, nodes, n, z1, z2, restrictions=None):
    """Remainder in Lagrange form: high restriction terms against L_p."""
    return _edge_value(PointTables.rn_lagrange, f, nodes, n, z1, z2, restrictions)


def eval_RN_newton(f, nodes, n, z1, z2):
    """Remainder in Newton form: divided differences of the tail kernel."""
    return _edge_value(PointTables.rn_newton, f, nodes, n, z1, z2)


def identity_report(f, nodes, n, z1, z2):
    """Evaluate E_N, both remainders, the tail, and the defect of the identity

    f(z) = E_N(f)(z) - R_N(f)(z) + tail_N(f)(z).
    """
    tables = _point_tables(f, nodes, n, z1, z2)
    en, rl, rn, tail, fz, residual, gap = tables.identity(n)
    plan, series_bits = tables.plan, tables.series_bits
    bits = plan.precision_bits
    if plan.nodes.precision_bits == bits:
        conditioning = plan._conditioning
    else:
        conditioning = NodeConditioning(plan.zs, plan.nodes.precision_bits)
    return InterpolantReport(
        n=n,
        node_count=len(plan.nodes),
        precision_bits=bits,
        value_en=ApComplex.from_mpc(en, bits),
        value_rn_lagrange=ApComplex.from_mpc(rl, bits),
        value_rn_newton=ApComplex.from_mpc(rn, bits),
        value_tail=ApComplex.from_mpc(tail, series_bits),
        value_f=ApComplex.from_mpc(fz, series_bits),
        identity_residual=ApComplex.from_mpc(residual, bits),
        cross_form_gap=gap,
        condition_estimate=conditioning.inverse_gap_product(),
        conditioning_pairs=conditioning.near_pairs(),
    )


def default_zgrid(precision_bits=None, radius="0.5", side=5, extra=10, seed=0):
    """Deterministic evaluation grid: side x side axis points plus seeded draws.

    Coordinates come from {0, +r, -r, +ir, -ir} (truncated or cycled to the
    requested side count) crossed with itself, then `extra` random points in
    the polydisc of the same radius.
    """
    bits = check_precision(precision_bits or 256)
    rv = _as_real(radius, bits)
    with workprec(bits):
        base = [
            ApComplex(0, 0, bits),
            ApComplex(rv, 0, bits),
            ApComplex(-rv, 0, bits),
            ApComplex(0, rv, bits),
            ApComplex(0, -rv, bits),
        ]
    axis = [base[i % len(base)] for i in range(side)]
    points = [(a, b) for a in axis for b in axis]
    rng = random.Random(seed)
    with workprec(bits):
        for _ in range(extra):
            def draw():
                rad = rv * mpmath.sqrt(mpf(rng.random()))
                ang = 2 * mpmath.pi * mpf(rng.random())
                return ApComplex(rad * mpmath.cos(ang), rad * mpmath.sin(ang), bits)

            points.append((draw(), draw()))
    return points
