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
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mpc, mpf, workprec

from .divdiff import NodeSequence, _running_products, as_node_sequence
from .errors import DomainError, SeparationError
from .funcmodel import TaylorSeries2, _weight
from .interpolate import eval_EN
from .precision import (
    ApComplex,
    check_precision,
    parse_decimal,
    render_decimal,
)


@dataclass(frozen=True)
class MobiusContext:
    """Reference slope, its separation from the nodes, and the unitary frame."""

    eta_inf: ApComplex
    epsilon_inf: mpf
    unitary: tuple  # ((u11, u12), (u21, u22)) as raw mpc at precision_bits
    nodes: NodeSequence
    precision_bits: int

    def apply_unitary(self, z1, z2):
        """U applied to (z1, z2)."""
        bits = self.precision_bits
        (a, b), (c, d) = self.unitary
        with workprec(bits):
            w1, w2 = z1.to_mpc(), z2.to_mpc()
            return (
                ApComplex.from_mpc(a * w1 + b * w2, bits),
                ApComplex.from_mpc(c * w1 + d * w2, bits),
            )

    def apply_adjoint(self, z1, z2):
        """U* (conjugate transpose) applied to (z1, z2)."""
        bits = self.precision_bits
        (a, b), (c, d) = self.unitary
        with workprec(bits):
            w1, w2 = z1.to_mpc(), z2.to_mpc()
            return (
                ApComplex.from_mpc(a.conjugate() * w1 + c.conjugate() * w2, bits),
                ApComplex.from_mpc(b.conjugate() * w1 + d.conjugate() * w2, bits),
            )

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

    def to_json_obj(self):
        thetas = to_bounded(self)
        return {
            "eta_inf": self.eta_inf.to_json_obj(),
            "epsilon_inf": render_decimal(self.epsilon_inf),
            "precision_bits": self.precision_bits,
            "unitary": [
                [ApComplex.from_mpc(u, self.precision_bits).to_json_obj() for u in row]
                for row in self.unitary
            ],
            "theta": [t.to_json_obj() for t in thetas],
        }


def make_context(nodes, eta_inf, precision_bits=None):
    """Build the reduction context; eta_inf must avoid every node exactly."""
    seq = as_node_sequence(nodes)
    bits = check_precision(
        precision_bits or max(seq.precision_bits, eta_inf.precision_bits)
    )
    with workprec(bits):
        e = eta_inf.to_mpc()
        eps = mpf("inf")
        for node in seq:
            gap = abs(node.to_mpc() - e)
            if gap == 0:
                raise SeparationError("eta_inf coincides with a node")
            eps = min(eps, gap)
        scale = 1 / mpmath.sqrt(_weight(e))
        unitary = ((scale * e.conjugate(), mpc(scale)), (mpc(scale), -scale * e))
    return MobiusContext(
        eta_inf=eta_inf.at_precision(bits),
        epsilon_inf=eps,
        unitary=unitary,
        nodes=seq,
        precision_bits=bits,
    )


def theta_of(ctx, eta):
    """theta = (1 + conj(eta_inf) eta) / (eta - eta_inf) for a single slope."""
    bits = ctx.precision_bits
    with workprec(bits):
        e = ctx.eta_inf.to_mpc()
        w = eta.to_mpc()
        denom = w - e
        if denom == 0:
            raise SeparationError("homography undefined at eta_inf itself")
        return ApComplex.from_mpc((1 + e.conjugate() * w) / denom, bits)


def to_bounded(ctx, nodes=None):
    """Map the nodes through the homography; the image is a bounded set."""
    seq = ctx.nodes if nodes is None else as_node_sequence(nodes)
    return NodeSequence([theta_of(ctx, node) for node in seq], ctx.precision_bits)


def theta_bound(ctx):
    """Explicit a-priori bound on sup |theta_j| from the separation."""
    bits = ctx.precision_bits
    with workprec(bits):
        e = ctx.eta_inf.to_mpc()
        mod = abs(e)
        if mod == 0:
            return 1 / ctx.epsilon_inf
        first = (1 + 2 * mod**2) / ctx.epsilon_inf
        second = 2 * (mod + 1 / (2 * mod))
        return max(first, second)


def inverse_homography(ctx, w):
    """Recover the slope: eta = (eta_inf * w + 1) / (w - conj(eta_inf))."""
    bits = ctx.precision_bits
    with workprec(bits):
        e = ctx.eta_inf.to_mpc()
        t = w.to_mpc()
        denom = t - e.conjugate()
        if denom == 0:
            raise DomainError("inverse homography undefined at conj(eta_inf)")
        return ApComplex.from_mpc((e * t + 1) / denom, bits)


def line_factor_check(ctx, eta_j, zeta):
    """Defect of the line-factor identity

    (U* zeta)_1 - eta_j (U* zeta)_2
        == (eta_inf - eta_j) / sqrt(1 + |eta_inf|^2) * (zeta_1 - theta_j zeta_2).
    """
    bits = ctx.precision_bits
    z1, z2 = zeta
    u1, u2 = ctx.apply_adjoint(z1, z2)
    theta = theta_of(ctx, eta_j)
    with workprec(bits):
        e = ctx.eta_inf.to_mpc()
        ej = eta_j.to_mpc()
        lhs = u1.to_mpc() - ej * u2.to_mpc()
        factor = (e - ej) / mpmath.sqrt(_weight(e))
        rhs = factor * (z1.to_mpc() - theta.to_mpc() * z2.to_mpc())
        return ApComplex.from_mpc(lhs - rhs, bits)


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
            _running_products([u.conjugate()] * top) for u in (a, c, b, d)
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


def _random_point(rng, bits):
    # dyadic numerators keep the draw exactly representable at any precision
    with workprec(bits):
        return ApComplex(
            mpf(rng.randint(-64, 64)) / 128, mpf(rng.randint(-64, 64)) / 128, bits
        )


def _coherence_residual(ctx, nodes, thetas, rng, bits):
    """Largest frame-change defect of the interpolant on random polynomials.

    Draws three polynomials of total degree n+1 (n = min(4, len(nodes))) and
    one point each from rng, and compares E_n of f at z over the nodes with
    E_n of the pushforward at U z over the thetas.
    """
    n = min(4, len(nodes))
    with workprec(bits):
        worst = mpf(0)
        for _ in range(3):
            coeffs = {}
            for k in range(n + 2):
                for m in range(n + 2 - k):
                    coeffs[(k, m)] = _random_point(rng, bits)
            f = TaylorSeries2(coeffs, n + 1, bits)
            g = pushforward(f, ctx)
            z1, z2 = _random_point(rng, bits), _random_point(rng, bits)
            u1, u2 = ctx.apply_unitary(z1, z2)
            gap = abs(
                eval_EN(f, nodes, n, z1, z2).to_mpc()
                - eval_EN(g, thetas, n, u1, u2).to_mpc()
            )
            if gap > worst:
                worst = gap
    return worst


def theta_infinity(nodes, phi="0", precision_bits=None):
    """Rotation variant for the reference slope at infinity:

    theta_j = -exp(-2 i phi) * eta_j.
    """
    seq = as_node_sequence(nodes)
    bits = check_precision(precision_bits or seq.precision_bits)
    with workprec(bits):
        if isinstance(phi, str):
            angle = parse_decimal(phi, bits)
        else:
            angle = +mpf(phi)
        factor = -mpmath.exp(mpc(0, -2 * angle))
        out = [ApComplex.from_mpc(factor * node.to_mpc(), bits) for node in seq]
    return NodeSequence(out, bits)
