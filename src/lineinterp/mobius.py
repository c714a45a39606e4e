"""Reduction of unbounded node sets to bounded ones by a unitary change of frame.

A node set that keeps a positive distance from some reference slope eta_inf
can be mapped through the homography

    theta_j = (1 + conj(eta_inf) * eta_j) / (eta_j - eta_inf)

to a bounded set, while the two-variable picture transforms by the unitary

    U = (1 + |eta_inf|^2)^(-1/2) * [[conj(eta_inf), 1], [1, -eta_inf]].

U carries the line of slope eta_j onto the line of slope theta_j, and because
it is unitary all the Hermitian quantities in the interpolant transform
covariantly; reduction coherence is checked numerically in the tests. The
degenerate reference slope at infinity corresponds to a pure rotation
theta_j = -exp(-2*i*phi) * eta_j and is reachable through theta_infinity.

MobiusContext.residuals is the one evaluator of the reduction's checks: the
round trip _inverse(_theta), the line-factor identity and the coherence of
the interpolant under the frame change, all on raw mpc.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import mpmath
from mpmath import mpc, mpf, workprec

from .criterion import _as_real
from .divdiff import NodeSequence, as_node_sequence
from .errors import DomainError, SeparationError
from .funcmodel import TaylorSeries2, _weight
from .interpolate import LinePlan, PointTables
from .precision import _raw, _running_products, check_precision


@dataclass(frozen=True)
class MobiusContext:
    """Reference slope, its separation from the nodes, and the unitary frame.

    eta_inf is a raw mpc rounded once to precision_bits by make_context, the
    edge that unboxes it; the separation epsilon_inf, the unitary, the thetas
    of to_bounded, theta_bound and the residuals all read that one value. The
    checks of residuals draw raw points, apply U with _unitary and evaluate
    the interpolants through PointTables, so nothing inside them is boxed.
    """

    eta_inf: mpc
    epsilon_inf: mpf
    unitary: tuple  # ((u11, u12), (u21, u22)) as raw mpc at precision_bits
    nodes: NodeSequence
    precision_bits: int

    def _unitary(self, w1, w2):
        """U applied to the raw (w1, w2)."""
        (a, b), (c, d) = self.unitary
        return a * w1 + b * w2, c * w1 + d * w2

    def _adjoint(self, w1, w2):
        """U* (conjugate transpose) applied to the raw (w1, w2)."""
        (a, b), (c, d) = self.unitary
        return a.conjugate() * w1 + c.conjugate() * w2, b.conjugate() * w1 + d.conjugate() * w2

    def _line_factor_defect(self, e, ej, theta, w1, w2):
        """Raw defect at zeta = (w1, w2), e = eta_inf, ej = eta_j of the line-factor identity
        (U* zeta)_1 - eta_j (U* zeta)_2 == (e - ej) / sqrt(1 + |e|^2) * (zeta_1 - theta zeta_2).
        """
        u1, u2 = self._adjoint(w1, w2)
        factor = (e - ej) / mpmath.sqrt(_weight(e))
        return u1 - ej * u2 - factor * (w1 - theta * w2)

    def unitarity_defect(self):
        """max |(U U* - I)_{jk}|, which unitarity keeps at rounding level."""
        rows = self.unitary
        with workprec(self.precision_bits):
            worst = mpf(0)
            for j in range(2):
                for k in range(2):
                    entry = (
                        rows[j][0] * rows[k][0].conjugate()
                        + rows[j][1] * rows[k][1].conjugate()
                    )
                    if j == k:
                        entry -= 1
                    worst = max(worst, abs(entry))
            return worst

    def residuals(self, thetas, seed):
        """(max |theta_j|, round-trip, line-factor, coherence residuals) as mpf.

        thetas is to_bounded(self). The round trip maps each theta_j back to
        its node. The line-factor identity is probed at (theta_j, 1) and at
        two seeded points per node. Coherence compares E_n of three seeded
        polynomials of total degree n+1 (n = min(4, node count)) over the
        nodes at a seeded point z with E_n of their pushforwards over the
        thetas at U z. Every draw comes from one random.Random(seed), in
        that order, each point's real part before its imaginary part.
        """
        bits = self.precision_bits
        rng = random.Random(seed)

        def draw():
            # dyadic numerators keep the draw exactly representable at any precision
            return mpc(mpf(rng.randint(-64, 64)) / 128, mpf(rng.randint(-64, 64)) / 128)

        with workprec(bits):
            e = self.eta_inf
            max_mod = round_trip = line_res = coherence = mpf(0)
            for ej, theta in zip(self.nodes.zs, thetas.zs):
                max_mod = max(max_mod, abs(theta))
                round_trip = max(round_trip, abs(_inverse(e, theta) - ej))
                probes = [(theta, mpc(1)), (draw(), draw()), (draw(), draw())]
                for w1, w2 in probes:
                    gap = abs(self._line_factor_defect(e, ej, theta, w1, w2))
                    line_res = max(line_res, gap)
            n = min(4, len(self.nodes))
            for _ in range(3):
                coeffs = {(k, m): draw() for k in range(n + 2) for m in range(n + 2 - k)}
                f = TaylorSeries2(coeffs, n + 1, bits)
                z1, z2 = draw(), draw()
                u1, u2 = self._unitary(z1, z2)
                plan = LinePlan(f, self.nodes, n, bits)
                image = LinePlan(pushforward(f, self), thetas, n, bits)
                en = PointTables(plan, z1, z2, bits).en(n)
                coherence = max(coherence, abs(en - PointTables(image, u1, u2, bits).en(n)))
        return max_mod, round_trip, line_res, coherence


def make_context(nodes, eta_inf, precision_bits=None):
    """Build the reduction context; eta_inf must avoid every node exactly."""
    seq = as_node_sequence(nodes)
    bits = check_precision(
        precision_bits or max(seq.precision_bits, eta_inf.precision_bits)
    )
    with workprec(bits):
        e = +eta_inf.to_mpc()
        eps = mpf("inf")
        for z in seq.zs:
            gap = abs(z - e)
            if gap == 0:
                raise SeparationError("eta_inf coincides with a node")
            eps = min(eps, gap)
        scale = 1 / mpmath.sqrt(_weight(e))
        unitary = ((scale * e.conjugate(), mpc(scale)), (mpc(scale), -scale * e))
    return MobiusContext(
        eta_inf=e,
        epsilon_inf=eps,
        unitary=unitary,
        nodes=seq,
        precision_bits=bits,
    )


def _theta(e, w):
    """theta = (1 + conj(e) w) / (w - e) on raw mpc, e = eta_inf; w = e raises SeparationError."""
    denom = w - e
    if denom == 0:
        raise SeparationError("homography undefined at eta_inf itself")
    return (1 + e.conjugate() * w) / denom


def to_bounded(ctx):
    """Map the nodes through the homography; the image is a bounded set."""
    bits = ctx.precision_bits
    with workprec(bits):
        thetas = [_theta(ctx.eta_inf, z) for z in ctx.nodes.zs]
    return NodeSequence(thetas, bits)


def theta_bound(ctx):
    """Explicit a-priori bound on sup |theta_j| from the separation."""
    bits = ctx.precision_bits
    with workprec(bits):
        mod = abs(ctx.eta_inf)
        if mod == 0:
            return 1 / ctx.epsilon_inf
        first = (1 + 2 * mod**2) / ctx.epsilon_inf
        second = 2 * (mod + 1 / (2 * mod))
        return max(first, second)


def _inverse(e, t):
    """Slope (e * t + 1) / (t - conj(e)) of theta = t, raw mpc; t = conj(e) raises DomainError."""
    denom = t - e.conjugate()
    if denom == 0:
        raise DomainError("inverse homography undefined at conj(eta_inf)")
    return (e * t + 1) / denom


def pushforward(f, ctx):
    """Taylor coefficients of f composed with the adjoint frame map U*.

    The substitution is linear, so total degree and max_order are preserved.
    """
    bits = max(f.precision_bits, ctx.precision_bits)
    top = f.max_order
    (a, b), (c, d) = ctx.unitary
    with workprec(bits):
        # z1 -> conj(a) zeta1 + conj(c) zeta2, z2 -> conj(b) zeta1 + conj(d) zeta2
        pow11, pow12, pow21, pow22 = (
            [_raw(v) for v in _running_products([u.conjugate()] * top)] for u in (a, c, b, d)
        )
        binom = [[mpf(mpmath.binomial(n, i)) for i in range(n + 1)] for n in range(top + 1)]
        out = {}
        for (k, l), coeff in f.items():
            for i in range(k + 1):
                left = binom[k][i] * pow11[i] * pow12[k - i]
                for j in range(l + 1):
                    weight = coeff * left * binom[l][j] * pow21[j] * pow22[l - j]
                    key = (i + j, (k - i) + (l - j))
                    if key in out:
                        out[key] += weight
                    else:
                        out[key] = weight
    return TaylorSeries2(out, top, bits)


def theta_infinity(nodes, phi="0", precision_bits=None):
    """Rotation variant for the reference slope at infinity:

    theta_j = -exp(-2 i phi) * eta_j.
    """
    seq = as_node_sequence(nodes)
    bits = check_precision(precision_bits or seq.precision_bits)
    angle = _as_real(phi, bits)
    with workprec(bits):
        factor = -mpmath.exp(mpc(0, -2 * angle))
        out = [factor * z for z in seq.zs]
    return NodeSequence(out, bits)
