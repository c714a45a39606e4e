"""Complex divided differences over pairwise-distinct nodes.

The central object is the triangular table T[p][k] built from point values by
the two-point recursion

    T[0][k]   = h(eta_{k+1})
    T[p+1][k] = (T[p][k+1] - T[p][k]) / (eta_{k+p+2} - eta_{k+1})

so T[p][0] is the order-p divided difference of h over the first p+1 nodes.
Alongside the recursion the module provides the identities that make the
table trustworthy: the Newton and Lagrange summation forms of the same
interpolant, the Leibniz product rule, and the direct nested-sum evaluation
for analytic series (equivalently, complete homogeneous symmetric polynomials
in the shifted nodes). Confluent (repeated) nodes are rejected; behavior near
confluence is exercised by shrinking clusters of distinct nodes.

NodeConditioning forms the pairwise gaps eta_j - eta_i of a node prefix
once, and extends them node by node; the table recursion, the near pairs,
the inverse gap product and the cancellation gate all read those gaps, and
nothing else in the package forms the gaps of a node set. A lone probe node,
or one factor of a Lagrange basis, takes its gaps from _gap_row directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath import mpc, mpf, workprec

from .errors import (
    ArityError,
    ConfigError,
    DomainError,
    NodeDistinctnessError,
    ParseError,
)
from .precision import (
    _ONE,
    DEFAULT_PRECISION,
    ApComplex,
    _append,
    _as_mpc,
    _cmul,
    _dot,
    _gap_row,
    _point_from_json,
    _point_json,
    _raw,
    _running_products,
    check_precision,
)

SCALAR_KINDS = ("analytic-series", "conjugate-kernel", "composite")


@dataclass(frozen=True)
class ScalarFunction:
    """One-variable scalar function usable under divided differences.

    fn maps an mpc to an mpc and must be deterministic; it is always invoked
    under the caller's working precision. conj_derivative, when present, is
    the closed-form derivative with respect to conj(zeta), used by the
    adversarial construction.
    """

    fn: object
    kind: str = "composite"
    conj_derivative: object = None

    def __post_init__(self):
        if self.kind not in SCALAR_KINDS:
            raise ConfigError("unknown scalar function kind %r" % (self.kind,))

    def raw(self, w):
        """The value at an mpc as an mpc rounded at the ambient working precision."""
        return mpc(self.fn(w))


def analytic_series(coeffs):
    """ScalarFunction for the truncated series sum a_n zeta^n, the coefficients held unrounded."""
    frozen = [_as_mpc(c) for c in coeffs]

    def fn(w):
        total = mpc(0)
        for a in reversed(frozen):
            total = total * w + a
        return total

    # holomorphic, so the conjugate derivative is identically zero
    return ScalarFunction(
        fn=fn, kind="analytic-series", conj_derivative=lambda w: mpc(0)
    )


def conjugation():
    """ScalarFunction for zeta -> conj(zeta)."""
    return ScalarFunction(fn=lambda w: w.conjugate(), kind="conjugate-kernel")


def product(g, h):
    """Pointwise product of two scalar functions."""
    return ScalarFunction(fn=lambda w: g.fn(w) * h.fn(w), kind="composite")


class NodeSequence:
    """Ordered, pairwise-distinct complex nodes at a common working precision.

    zs holds the nodes as raw mpc, each rounded once to precision_bits, and
    is all the sequence stores; computations read it. A node may be given as
    an ApComplex, mpc, mpf or int. Without precision_bits the nodes must be
    ApComplex values, and the sequence takes the largest of their
    precisions. Indexing, and so iteration, boxes a node at the sequence's
    precision, for callers at the API edge; the JSON payload is written from
    zs and read straight into it, each node parsed once at precision_bits.
    """

    __slots__ = ("zs", "precision_bits")

    def __init__(self, nodes, precision_bits=None):
        nodes = tuple(nodes)
        if not nodes:
            raise ArityError("a node sequence needs at least one node")
        if precision_bits is None:
            if not all(isinstance(n, ApComplex) for n in nodes):
                raise ConfigError("nodes that are not ApComplex values need precision_bits")
            precision_bits = max(n.precision_bits for n in nodes)
        bits = check_precision(precision_bits)
        with workprec(bits):
            zs = tuple(+_as_mpc(n) for n in nodes)
        seen = {}
        for i, z in enumerate(zs):
            if z._mpc_ in seen:
                raise NodeDistinctnessError(
                    "nodes %d and %d coincide exactly" % (seen[z._mpc_], i)
                )
            seen[z._mpc_] = i
        object.__setattr__(self, "zs", zs)
        object.__setattr__(self, "precision_bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("NodeSequence is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the blocked __setattr__
        return type(self), (self.zs, self.precision_bits)

    def __len__(self):
        return len(self.zs)

    def __getitem__(self, idx):
        return ApComplex.from_mpc(self.zs[idx], self.precision_bits)

    def first(self, n):
        if n < 1 or n > len(self.zs):
            raise ArityError("requested %d nodes, have %d" % (n, len(self.zs)))
        return NodeSequence(self.zs[:n], self.precision_bits)

    def to_json_obj(self):
        return {"nodes": [_point_json(z.real, z.imag) for z in self.zs]}

    @classmethod
    def from_json_obj(cls, obj, precision_bits=DEFAULT_PRECISION):
        if not isinstance(obj, dict) or not isinstance(obj.get("nodes"), list):
            raise ParseError("node payload must be {'nodes': [...]}")
        if not obj["nodes"]:
            raise ParseError("node payload contains no nodes")
        return cls([_point_from_json(z, precision_bits) for z in obj["nodes"]], precision_bits)


class NodeConditioning:
    """The pairwise gaps of a node prefix and the measures read from them.

    rows[j] is the _gap_row of zs[j] against zs[:j], which _append reads,
    formed once at precision_bits. prefix, the conditioning of a leading part
    of zs at the same precision, lends its rows, so only the gaps of the
    nodes past it are formed. gaps holds (i, j, |zs[i] - zs[j]|) for every
    pair i < j, its moduli formed on first read and kept; the measures are
    computed from it when read.
    """

    __slots__ = ("zs", "precision_bits", "rows", "_gaps")

    def __init__(self, zs, precision_bits, prefix=None):
        self.zs = tuple(zs)
        self.precision_bits = precision_bits
        self.rows = list(prefix.rows) if prefix else []
        self._gaps = None
        with workprec(precision_bits):
            for j in range(len(self.rows), len(self.zs)):
                self.rows.append(_gap_row(self.zs[j], self.zs[:j]))

    @property
    def gaps(self):
        if self._gaps is None:
            n = len(self.zs)
            rows = self.rows
            with workprec(self.precision_bits):
                self._gaps = tuple(
                    (i, j, abs(_raw(rows[j][j - 1 - i]))) for i in range(n) for j in range(i + 1, n)
                )
        return self._gaps

    def near_pairs(self):
        """The (i, j, gap) triples with gap below the threshold 2^-(P/2)."""
        threshold = mpmath.ldexp(1, -(self.precision_bits // 2))
        return tuple(pair for pair in self.gaps if pair[2] < threshold)

    def inverse_gap_product(self):
        """Product of 1/gap over all pairs."""
        with workprec(self.precision_bits):
            total = mpf(1)
            for _, _, gap in self.gaps:
                total /= gap
        return total

    def cancellation_exceeds(self, half):
        """Whether the sum of |log2 gap| over all pairs exceeds half.

        The terms are summed in floats from the c^2 + d^2 that each _gap form
        carries, as |log2(c^2 + d^2)| / 2, so no modulus is formed. That sum
        of squares is rounded toward zero at P + 10 bits, so its half log2 is
        within 2^-(P+8) of |log2 gap|, and the float term is within (1 + term)
        * 2^-50 of it. The float sum adds at most n_pairs * total * 2^-53,
        while the full-precision sum is within n_pairs * (1 + total) * 2^-58
        of the truth. A float sum farther than n_pairs * (1 + total) * 2^-40
        from half therefore sits on the same side as the full-precision one;
        inside that band, or when two nodes coincide, the full-precision sum
        of the moduli in gaps decides.
        """
        norms = [g[4:] for row in self.rows for g in row]
        if all(r for r, _ in norms):
            total = sum(abs(_log2_float(r, re)) for r, re in norms) / 2
            if abs(total - half) > len(norms) * (1 + total) * 2.0**-40:
                return total > half
        with workprec(self.precision_bits):
            total = mpf(0)
            for _, _, gap in self.gaps:
                total += abs(mpmath.log(gap, 2))
        return total > half


def _log2_float(man, exp):
    """log2 of man * 2^exp, for an int man > 0, as a float exact in the integer part.

    The value is split as 2^(exp + width) * (man / 2^width) with the second
    factor in [1/2, 1), so no float overflows or underflows at any exponent,
    and the result is within (1 + |log2(man * 2^exp)|) * 2^-51 of the truth.
    """
    width = man.bit_length()
    return (exp + width) + math.log2(man / (1 << width))


def as_node_sequence(nodes, precision_bits=None):
    if isinstance(nodes, NodeSequence):
        return nodes
    return NodeSequence(nodes, precision_bits)


@dataclass(frozen=True)
class DividedDiffTable:
    """Triangular divided-difference table over a node sequence."""

    nodes: NodeSequence
    precision_bits: int
    rows: tuple

    def entry(self, p, k=0):
        """T[p][k] as an ApComplex."""
        return ApComplex.from_mpc(self.rows[p][k], self.precision_bits)


def delta_table(h, nodes, precision_bits=None):
    """Full triangular table of divided differences of h over the nodes."""
    seq = as_node_sequence(nodes)
    bits = check_precision(precision_bits or seq.precision_bits)
    with workprec(bits):
        rows = difference_rows([h.raw(z) for z in seq.zs], NodeConditioning(seq.zs, bits))
    return DividedDiffTable(seq, bits, rows)


def _diagonals(values, conditioning):
    """The last diagonal of the table over the first k+1 nodes, for k = 0, 1, ..., from _append.

    Works under the ambient working precision, which must be the
    conditioning's; there may be fewer values than nodes.
    """
    diag = []
    for value, gaps in zip(values, conditioning.rows):
        diag = _append(diag, value, gaps)
        yield diag


def difference_rows(values, conditioning):
    """Rows of the two-point recursion from given values at the conditioning's nodes.

    Raw mpc values in and out, under the conditioning's precision. rows[p][k]
    is the order-p divided difference over zs[k..k+p]: entry p of the last
    diagonal once node k+p is appended.
    """
    rows = []
    for diag in _diagonals(values, conditioning):
        rows.append([])
        for row, entry in zip(rows, diag):
            row.append(_raw(entry))
    return tuple(map(tuple, rows))


def _leading_column(values, conditioning):
    """[rows[p][0] for each p] of difference_rows: each last diagonal's last entry, in O(n) memory."""
    return [_raw(diag[-1]) for diag in _diagonals(values, conditioning)]


def _require_order(seq, n):
    """Check that an order reads the first n nodes of seq, n at least 1."""
    if n < 1:
        raise DomainError("an order reads at least one node, got %d" % n)
    if len(seq) < n:
        raise ArityError("%d nodes needed, have %d" % (n, len(seq)))


def _order_prefix(nodes, p):
    """The first p+1 nodes, which an order-p divided difference reads."""
    seq = as_node_sequence(nodes)
    _require_order(seq, p + 1)
    return seq.first(p + 1)


def delta(h, nodes, p, precision_bits=None):
    """Order-p divided difference of h over the first p+1 nodes.

    The recursion consumes nodes eta_1..eta_p and evaluates at eta_{p+1},
    matching the two-point recursion on the leading column of the table.
    """
    return delta_table(h, _order_prefix(nodes, p), precision_bits).entry(p)


def _newton_total(scale, lead, column):
    """sum_p scale[n-1-p] * lead[p] * column[p] over the n entries, as a raw mpc.

    scale and lead are core forms, lead[p] = prod_{j<p} (x - eta_j), and
    column is the _leading_column of the first n nodes; a unit scale gives
    the plain Newton form.
    """
    prec = mpmath.mp.prec
    n = len(column)
    return _raw(_dot((_cmul(scale[n - 1 - p], lead[p], prec), column[p]) for p in range(n)))


def newton_sum(h, nodes, n, x, precision_bits=None):
    """Newton form: sum_{p<n} prod_{j<=p} (x - eta_j) * Delta_p(h)(eta_{p+1})."""
    seq = as_node_sequence(nodes)
    _require_order(seq, n)
    bits = check_precision(precision_bits or max(seq.precision_bits, x.precision_bits))
    with workprec(bits):
        zs = seq.zs[:n]
        column = _leading_column([h.raw(z) for z in zs], NodeConditioning(zs, bits))
        xv = x.to_mpc()
        lead = _running_products(xv - z for z in zs[:-1])
        total = _newton_total([_ONE] * n, lead, column)
    return ApComplex.from_mpc(total, bits)


def lagrange_sum(h, nodes, n, x, precision_bits=None):
    """Lagrange form: sum_p prod_{j != p} (x - eta_j)/(eta_p - eta_j) * h(eta_p)."""
    seq = as_node_sequence(nodes)
    _require_order(seq, n)
    bits = check_precision(precision_bits or max(seq.precision_bits, x.precision_bits))
    with workprec(bits):
        zs = seq.zs[:n]
        xv = x.to_mpc()
        total = mpc(0)
        for p in range(n):
            term = h.raw(zs[p])
            for j in range(n):
                if j != p:
                    # (x - eta_j) / (eta_p - eta_j), through the division step
                    term *= _raw(_append([zs[j]], xv, _gap_row(zs[p], [zs[j]]))[1])
            total += term
    return ApComplex.from_mpc(total, bits)


def leibniz_delta(g, h, nodes, p, precision_bits=None):
    """Product rule: Delta_p(g*h) as the convolution of shifted tables.

    Delta_p(gh)(eta_{p+1}) = sum_q Delta_{p-q}(g over eta_{q+1..p})(eta_{p+1})
                                   * Delta_q(h over eta_1..q)(eta_{q+1}).
    """
    head = _order_prefix(nodes, p)
    bits = check_precision(precision_bits or head.precision_bits)
    tg = delta_table(g, head, bits)
    th = delta_table(h, head, bits)
    with workprec(bits):
        total = mpc(0)
        for q in range(p + 1):
            total += tg.rows[p - q][q] * th.rows[q][0]
    return ApComplex.from_mpc(total, bits)


def delta_analytic(coeffs, center, nodes, p, precision_bits=None):
    """Divided difference of the series sum a_n (zeta - center)^n, direct route.

    Evaluates the nested-sum expansion of Delta_p: the inner monotone sums
    over exponent tuples collapse to complete homogeneous symmetric
    polynomials of the shifted nodes, accumulated here by the standard
    one-variable-at-a-time recurrence. This route never forms a difference
    quotient, so it is the cross-check partner of the table recursion.
    """
    head = _order_prefix(nodes, p)
    bits = check_precision(precision_bits or head.precision_bits)
    frozen = [_as_mpc(c) for c in coeffs]
    if not frozen:
        raise ArityError("series needs at least one coefficient")
    top = len(frozen) - 1 - p
    if top < 0:
        return ApComplex(0, 0, bits)
    with workprec(bits):
        c0 = mpc(0) if center is None else _as_mpc(center)
        xs = [z - c0 for z in head.zs]
        # homog[m] = complete homogeneous symmetric polynomial of degree m in
        # the variables added so far; updating in ascending m adds one variable.
        homog = [mpc(1)]
        for m in range(1, top + 1):
            homog.append(homog[-1] * xs[0])
        for t in range(1, p + 1):
            for m in range(1, top + 1):
                homog[m] = homog[m] + xs[t] * homog[m - 1]
        total = mpc(0)
        for n in range(p, len(frozen)):
            total += frozen[n] * homog[n - p]
    return ApComplex.from_mpc(total, bits)


def monotone_tuple_count(n, p):
    """Number of monotone exponent tuples n >= l_1 >= ... >= l_p >= 0."""
    if n < 0 or p < 0:
        raise DomainError("counting needs nonnegative n and p")
    return math.comb(n + p, p)
