"""Unitary frame change, homography to bounded nodes, and reduction coherence."""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpc, mpf, workprec

from lineinterp import (
    ApComplex,
    DomainError,
    NodeSequence,
    SeparationError,
    TaylorSeries2,
    eval2,
    eval_EN,
    eval_RN_lagrange,
)
from lineinterp.mobius import (
    _inverse,
    _theta,
    make_context,
    pushforward,
    theta_bound,
    theta_infinity,
    to_bounded,
)
from support import (
    QC,
    QC_ONE,
    apply_unitary,
    graded_terms,
    qc_to_ap,
    rand_distinct_nodes,
    rand_poly2_coeffs,
    rand_qc,
    series_coefficient,
)

BITS = 256


def ap(re, im=0):
    return qc_to_ap(QC.of(Fraction(re), Fraction(im)), BITS)


def nodes_of(*qs):
    return NodeSequence([qc_to_ap(QC.of(*t), BITS) for t in qs], BITS)


def series_from_qc(coeffs, max_order):
    return TaylorSeries2(
        {kl: qc_to_ap(v, BITS) for kl, v in coeffs.items()}, max_order, BITS
    )


def raw(a):
    """The mpc of a, which is an ApComplex or already raw."""
    return a.to_mpc() if isinstance(a, ApComplex) else a


def mag(a):
    with workprec(BITS + 16):
        return abs(raw(a))


def mag_diff(a, b):
    """|a - b|: the difference formed at BITS, its modulus at BITS + 16."""
    with workprec(BITS):
        diff = raw(a) - raw(b)
    with workprec(BITS + 16):
        return abs(diff)


# -- context -----------------------------------------------------------------------


def test_make_context_separation_values():
    ctx = make_context(nodes_of((0,), (1,), (2,)), ap(0, 1), BITS)
    assert ctx.epsilon_inf == mpf(1)  # distance from 0 to i
    ctx0 = make_context(nodes_of((1,), (2,), (3,)), ap(0), BITS)
    assert ctx0.epsilon_inf == mpf(1)
    with pytest.raises(SeparationError):
        make_context(nodes_of((1,), (2,)), ap(2), BITS)


def test_unitary_is_unitary():
    for eta in (ap(0), ap(0, 1), ap(Fraction(3, 8), Fraction(7, 4)), ap(-5, 2)):
        ctx = make_context(nodes_of((100,),), eta, BITS)
        assert ctx.unitarity_defect() <= mpmath.ldexp(1, -252)  # 8 ulp at scale 1
        rng = random.Random(17)
        for _ in range(4):
            z1, z2 = qc_to_ap(rand_qc(rng), BITS), qc_to_ap(rand_qc(rng), BITS)
            u1, u2 = apply_unitary(ctx, z1, z2)
            with workprec(BITS):
                before = mpmath.sqrt(abs(z1.to_mpc()) ** 2 + abs(z2.to_mpc()) ** 2)
                after = mpmath.sqrt(abs(u1.to_mpc()) ** 2 + abs(u2.to_mpc()) ** 2)
                assert abs(before - after) <= mpmath.ldexp(1, -240)
            with workprec(BITS):
                b1, b2 = ctx._adjoint(u1.to_mpc(), u2.to_mpc())
            assert mag_diff(b1, z1) <= mpmath.ldexp(1, -240)
            assert mag_diff(b2, z2) <= mpmath.ldexp(1, -240)


# -- homography ---------------------------------------------------------------------


def test_theta_frozen_values():
    ctx = make_context(nodes_of((0,),), ap(0, 1), BITS)
    with workprec(BITS):
        assert _theta(ctx.eta_inf, mpc(0)) == mpc(0, 1)  # 1 / (-i) = i
    ctx0 = make_context(nodes_of((1,), (2,), (4,)), ap(0), BITS)
    thetas = to_bounded(ctx0)
    assert thetas.zs == nodes_of((1,), (Fraction(1, 2),), (Fraction(1, 4),)).zs


def test_theta_unit_modulus_for_integer_nodes():
    # with reference slope i the real axis maps onto the unit circle
    nodes = NodeSequence([ApComplex(j, 0, BITS) for j in range(1, 51)], BITS)
    ctx = make_context(nodes, ap(0, 1), BITS)
    thetas = to_bounded(ctx)
    bound = theta_bound(ctx)
    assert len(thetas) == 50
    with workprec(BITS):
        assert ctx.epsilon_inf == mpmath.sqrt(2)
        for t in thetas:
            m = abs(t.to_mpc())
            assert abs(m - 1) <= mpmath.ldexp(1, -250)
            assert m <= bound
    assert bound == mpf(3)  # max((1+2)/sqrt(2), 2*(1+1/2))


def test_theta_bound_origin_case():
    ctx = make_context(nodes_of((2,), (-4,)), ap(0), BITS)
    assert theta_bound(ctx) == mpf(1) / 2  # 1/eps with eps = 2


def test_eta_inf_finer_than_the_context_is_rounded_once():
    # a 512-bit center on 128 bits is rounded once to 128 bits, and the
    # separation and the thetas read that one value; from the unrounded
    # center, the separation from node -1/2 rounds to another 128-bit value
    with workprec(512):
        third = mpf(1) / 3
        center = ApComplex(third, third, 512)
    nodes = NodeSequence([mpf(-0.5), 2, mpc(0, 2)], 128)
    ctx = make_context(nodes, center, 128)
    with workprec(128):
        assert ctx.eta_inf == +center.to_mpc()
        assert ctx.epsilon_inf == min(abs(z - ctx.eta_inf) for z in nodes.zs)
        assert ctx.epsilon_inf != abs(nodes.zs[0] - center.to_mpc())
        assert to_bounded(ctx).zs == tuple(_theta(ctx.eta_inf, z) for z in nodes.zs)


def test_inverse_homography_recovers_nodes():
    rng = random.Random(31)
    qnodes = rand_distinct_nodes(rng, 8)
    nodes = NodeSequence([qc_to_ap(q, BITS) for q in qnodes], BITS)
    ctx = make_context(nodes, ap(Fraction(3, 8), Fraction(7, 4)), BITS)
    with workprec(BITS):
        e = ctx.eta_inf
        for z in nodes.zs:
            assert mag_diff(_inverse(e, _theta(e, z)), z) <= mpmath.ldexp(1, -240)
        with pytest.raises(DomainError):
            _inverse(e, e.conjugate())
        with pytest.raises(SeparationError):
            _theta(e, e)


def test_line_factor_identity():
    ctx = make_context(nodes_of((1,), (-2, 1), (0, -1)), ap(Fraction(1, 2), 3), BITS)
    rng = random.Random(77)
    with workprec(BITS):
        e = ctx.eta_inf
        for ej in ctx.nodes.zs:
            theta = _theta(e, ej)
            on_line = ctx._line_factor_defect(e, ej, theta, theta, mpc(1))
            assert mag(on_line) <= mpmath.ldexp(1, -240)
            assert ctx._line_factor_defect(e, ej, theta, mpc(0), mpc(0)) == 0
            for _ in range(3):
                w1 = qc_to_ap(rand_qc(rng), BITS).to_mpc()
                w2 = qc_to_ap(rand_qc(rng), BITS).to_mpc()
                gap = mag(ctx._line_factor_defect(e, ej, theta, w1, w2))
                assert gap <= mpmath.ldexp(1, -240)


# -- pushforward ----------------------------------------------------------------------


def test_pushforward_constant_and_coordinate():
    ctx0 = make_context(nodes_of((1,),), ap(0), BITS)
    one = series_from_qc({(0, 0): QC_ONE}, 0)
    assert series_coefficient(pushforward(one, ctx0), 0, 0) == ap(1)
    z1 = series_from_qc({(1, 0): QC_ONE}, 1)
    pushed = pushforward(z1, ctx0)
    # frame swap at eta_inf = 0 sends z1 to z2
    assert series_coefficient(pushed, 0, 1) == ap(1)
    assert series_coefficient(pushed, 1, 0) == ap(0)
    assert pushed.max_order == 1


def test_pushforward_eval_consistency():
    rng = random.Random(55)
    ctx = make_context(nodes_of((1,), (2,)), ap(Fraction(3, 8), Fraction(7, 4)), BITS)
    for _ in range(6):
        m = rng.randint(0, 5)
        f = series_from_qc(rand_poly2_coeffs(rng, m), m)
        g = pushforward(f, ctx)
        z1, z2 = qc_to_ap(rand_qc(rng, 1), BITS), qc_to_ap(rand_qc(rng, 1), BITS)
        with workprec(BITS):
            u1, u2 = (ApComplex.from_mpc(u, BITS) for u in ctx._adjoint(z1.to_mpc(), z2.to_mpc()))
        assert mag_diff(eval2(g, z1, z2), eval2(f, u1, u2)) <= mpmath.ldexp(1, -230)
        assert g.max_order == f.max_order


# -- reduction coherence ----------------------------------------------------------------


def test_reduction_coherence_small_orders():
    # remainder minus tail is frame-invariant: computing in the original
    # frame at z agrees with the bounded frame at Uz.
    rng = random.Random(42)
    eta_inf = ap(Fraction(3, 8), Fraction(7, 4))
    for _ in range(8):
        n = rng.randint(1, 5)
        m = rng.randint(n, 6)
        qnodes = rand_distinct_nodes(rng, n)
        f = series_from_qc(rand_poly2_coeffs(rng, m), m)
        nodes = NodeSequence([qc_to_ap(q, BITS) for q in qnodes], BITS)
        ctx = make_context(nodes, eta_inf, BITS)
        thetas = to_bounded(ctx)
        g = pushforward(f, ctx)
        z1, z2 = qc_to_ap(rand_qc(rng, 1), BITS), qc_to_ap(rand_qc(rng, 1), BITS)
        uz1, uz2 = apply_unitary(ctx, z1, z2)
        with workprec(BITS):
            lhs = (
                eval_RN_lagrange(f, nodes, n, z1, z2).to_mpc()
                - graded_terms(f, z1, z2).total(n)
            )
            rhs = (
                eval_RN_lagrange(g, thetas, n, uz1, uz2).to_mpc()
                - graded_terms(g, uz1, uz2).total(n)
            )
            residual = lhs - rhs
        with workprec(BITS + 16):
            assert abs(residual) <= mpmath.ldexp(1, -200)
        # equivalently the interpolants correspond
        en_gap = mag_diff(eval_EN(f, nodes, n, z1, z2), eval_EN(g, thetas, n, uz1, uz2))
        assert en_gap <= mpmath.ldexp(1, -200)


# -- slope at infinity --------------------------------------------------------------------


def test_theta_infinity_rotation():
    nodes = nodes_of((1,), (0, 2), (-3, 1))
    flipped = theta_infinity(nodes, "0", BITS)
    for before, after in zip(nodes, flipped):
        with workprec(BITS):
            assert after.to_mpc() == -before.to_mpc()
    rng = random.Random(3)
    with workprec(BITS):
        half_pi = mpmath.pi / 2
    rotated = theta_infinity(nodes, half_pi, BITS)
    for before, after in zip(nodes, rotated):
        assert mag_diff(after, before) <= mpmath.ldexp(1, -245)
        with workprec(BITS):
            assert abs(abs(after.to_mpc()) - abs(before.to_mpc())) <= mpmath.ldexp(
                1, -245
            )
