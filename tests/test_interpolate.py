"""Interpolant, remainder forms, and the reconstruction identity."""

from __future__ import annotations

import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf, workprec

from lineinterp import (
    ApComplex,
    ArityError,
    ConfigError,
    DomainError,
    LinePlan,
    NodeSequence,
    TaylorSeries2,
    default_zgrid,
    eval2,
    eval_EN,
    eval_RN_lagrange,
    eval_RN_newton,
    identity_report,
    restrict_to_line,
)
from lineinterp.divdiff import NodeConditioning
from lineinterp.interpolate import _lagrange_chain
from lineinterp.precision import _raw
from support import (
    QC,
    QC_ONE,
    ap_gap,
    ap_to_qc,
    graded_terms,
    qc_eval_EN,
    qc_eval_RN_lagrange,
    qc_eval_RN_newton,
    qc_poly2_eval,
    qc_tail,
    qc_to_ap,
    rand_distinct_nodes,
    rand_poly2_coeffs,
    rand_qc,
)

BITS = 256


def ap(re, im=0):
    return qc_to_ap(QC.of(Fraction(re), Fraction(im)), BITS)


def series_from_qc(coeffs, max_order):
    return TaylorSeries2(
        {kl: qc_to_ap(v, BITS) for kl, v in coeffs.items()}, max_order, BITS
    )


def nodes_from_qc(qs):
    return NodeSequence([qc_to_ap(q, BITS) for q in qs], BITS)


def gap(a, b):
    with workprec(BITS + 16):
        return abs(a.to_mpc() - b.to_mpc())


def assert_close(a, b, log2_tol=-200):
    assert gap(a, b) <= mpmath.ldexp(1, log2_tol)


def assert_qc_close(got_ap, want_qc, log2_tol=-200):
    # exact rational distance, no second rounding step
    diff = ap_to_qc(got_ap) - want_qc
    assert diff.abs2() <= Fraction(1, 2 ** (-2 * log2_tol))


# -- frozen hand-derived instances -------------------------------------------------


def test_frozen_product_function_two_nodes():
    # f = z1 z2 restricted to lines through 1 and 2; at (1, 1) every member
    # of the identity equals 1.
    f = series_from_qc({(1, 1): QC_ONE}, 2)
    nodes = nodes_from_qc([QC.of(1), QC.of(2)])
    one, pt = ap(1), ap(1)
    assert_close(eval_EN(f, nodes, 2, pt, pt), one, -240)
    assert_close(eval_RN_lagrange(f, nodes, 2, pt, pt), one, -240)
    assert_close(eval_RN_newton(f, nodes, 2, pt, pt), one, -240)
    assert graded_terms(f, pt, pt).total(2) == one.to_mpc()
    rep = identity_report(f, nodes, 2, pt, pt)
    with workprec(BITS):
        assert abs(rep.identity_residual.to_mpc()) <= mpmath.ldexp(1, -240)


def test_constant_series_reproduced_exactly():
    f = series_from_qc({(0, 0): QC_ONE}, 0)
    nodes = nodes_from_qc([QC.of(1), QC.of(2), QC.of(0, 1), QC.of(-3, 2)])
    z1, z2 = ap(Fraction(1, 4), Fraction(-1, 2)), ap(Fraction(3, 8))
    for n in range(1, 5):
        value = eval_EN(f, nodes, n, z1, z2)
        assert_close(value, ap(1), -240)


def test_single_node_at_origin_kills_square():
    # f = z1^2 restricted to the line z1 = 0 vanishes identically, so the
    # one-node interpolant and both remainders are exactly zero and the tail
    # carries everything.
    f = series_from_qc({(2, 0): QC_ONE}, 2)
    nodes = nodes_from_qc([QC.of(0)])
    z1, z2 = ap(Fraction(1, 2)), ap(Fraction(1, 4))
    zero = ap(0)
    assert eval_EN(f, nodes, 1, z1, z2) == zero
    assert eval_RN_lagrange(f, nodes, 1, z1, z2) == zero
    assert eval_RN_newton(f, nodes, 1, z1, z2) == zero
    assert graded_terms(f, z1, z2).total(1) == ap(Fraction(1, 4)).to_mpc()
    rep = identity_report(f, nodes, 1, z1, z2)
    assert rep.identity_residual == zero


def test_single_node_one_remainder_is_projected_square():
    # f = z1^2, node 1: the remainder is w^2 with w = (z1 + z2)/2, and all
    # quantities are dyadic so equality is exact.
    f = series_from_qc({(2, 0): QC_ONE}, 2)
    nodes = nodes_from_qc([QC.of(1)])
    z1, z2 = ap(Fraction(3, 4)), ap(Fraction(1, 2))
    w2 = ap(Fraction(25, 64))  # ((3/4 + 1/2)/2)^2
    assert eval_RN_lagrange(f, nodes, 1, z1, z2) == w2
    assert eval_RN_newton(f, nodes, 1, z1, z2) == w2
    assert eval_EN(f, nodes, 1, z1, z2) == w2
    rep = identity_report(f, nodes, 1, z1, z2)
    assert rep.identity_residual == ap(0)
    assert rep.value_f == ap(Fraction(9, 16))


# -- rational oracle cross-checks ---------------------------------------------------


def _random_instance(rng, n_max=4, m_max=6):
    n = rng.randint(1, n_max)
    m = rng.randint(max(0, n - 1), m_max)
    qnodes = rand_distinct_nodes(rng, n + rng.randint(0, 2))
    qcoeffs = rand_poly2_coeffs(rng, m)
    qz1, qz2 = rand_qc(rng, 1), rand_qc(rng, 1)
    return n, m, qnodes, qcoeffs, qz1, qz2


def test_interpolant_matches_rational_oracle():
    rng = random.Random(101)
    for _ in range(20):
        n, m, qnodes, qcoeffs, qz1, qz2 = _random_instance(rng)
        f = series_from_qc(qcoeffs, m)
        nodes = nodes_from_qc(qnodes)
        z1, z2 = qc_to_ap(qz1, BITS), qc_to_ap(qz2, BITS)
        got = eval_EN(f, nodes, n, z1, z2)
        want = qc_eval_EN(qcoeffs, m, qnodes, n, qz1, qz2)
        assert_qc_close(got, want, -200)


def test_remainders_match_rational_oracle():
    rng = random.Random(202)
    for _ in range(15):
        n, m, qnodes, qcoeffs, qz1, qz2 = _random_instance(rng)
        f = series_from_qc(qcoeffs, m)
        nodes = nodes_from_qc(qnodes)
        z1, z2 = qc_to_ap(qz1, BITS), qc_to_ap(qz2, BITS)
        want_l = qc_eval_RN_lagrange(qcoeffs, m, qnodes, n, qz1, qz2)
        want_n = qc_eval_RN_newton(qcoeffs, m, qnodes, n, qz1, qz2)
        assert (want_l - want_n).is_zero()  # the two forms agree exactly
        assert_qc_close(eval_RN_lagrange(f, nodes, n, z1, z2), want_l, -200)
        assert_qc_close(eval_RN_newton(f, nodes, n, z1, z2), want_n, -200)


def test_tail_matches_rational_oracle():
    rng = random.Random(303)
    for _ in range(10):
        n, m, _, qcoeffs, qz1, qz2 = _random_instance(rng)
        f = series_from_qc(qcoeffs, m)
        z1, z2 = qc_to_ap(qz1, BITS), qc_to_ap(qz2, BITS)
        want = qc_tail(qcoeffs, n, qz1, qz2)
        got = ApComplex.from_mpc(graded_terms(f, z1, z2).total(n), BITS)
        assert_qc_close(got, want, -230)


def test_identity_exact_in_rational_arithmetic():
    # E - R + tail - f vanishes identically, not merely numerically.
    rng = random.Random(404)
    for _ in range(8):
        n, m, qnodes, qcoeffs, qz1, qz2 = _random_instance(rng)
        e = qc_eval_EN(qcoeffs, m, qnodes, n, qz1, qz2)
        r = qc_eval_RN_lagrange(qcoeffs, m, qnodes, n, qz1, qz2)
        t = qc_tail(qcoeffs, n, qz1, qz2)
        fval = qc_poly2_eval(qcoeffs, qz1, qz2)
        assert (e - r + t - fval).is_zero()


# -- identity and interpolation properties -----------------------------------------


def test_identity_report_residual_small():
    rng = random.Random(505)
    for _ in range(10):
        n, m, qnodes, qcoeffs, qz1, qz2 = _random_instance(rng)
        f = series_from_qc(qcoeffs, m)
        nodes = nodes_from_qc(qnodes)
        rep = identity_report(f, nodes, n, qc_to_ap(qz1, BITS), qc_to_ap(qz2, BITS))
        with workprec(BITS):
            assert abs(rep.identity_residual.to_mpc()) <= mpmath.ldexp(1, -200)
        assert rep.cross_form_gap <= mpmath.ldexp(1, -200)
        assert rep.n == n
        assert rep.node_count == len(nodes)


def test_plan_shares_tables_across_orders_bit_for_bit():
    # One plan and one set of point tables serve every N; each value equals
    # the single-call result exactly, whatever order the N are asked in.
    rng = random.Random(808)
    qnodes = rand_distinct_nodes(rng, 6)
    m = 3  # below n_max, so the Horner table is read above the series order
    f = series_from_qc(rand_poly2_coeffs(rng, m), m)
    nodes = nodes_from_qc(qnodes)
    plan = LinePlan(f, nodes, 5)
    for _ in range(3):
        z1, z2 = qc_to_ap(rand_qc(rng, 1), BITS), qc_to_ap(rand_qc(rng, 1), BITS)
        tables = plan.at(z1, z2)
        for n in (5, 1, 3, 2, 4):
            # the tables hold raw mpc; the public functions box the same value
            assert tables.en(n) == eval_EN(f, nodes, n, z1, z2).to_mpc()
            assert tables.rn_lagrange(n) == eval_RN_lagrange(f, nodes, n, z1, z2).to_mpc()
            assert tables.rn_newton(n) == eval_RN_newton(f, nodes, n, z1, z2).to_mpc()
            *members, gap = tables.identity(n)
            single = identity_report(f, nodes, n, z1, z2)
            assert members == _boxed_members(single)
            assert gap == single.cross_form_gap
            # the report measures the first n nodes, not the whole sequence
            record = NodeConditioning(nodes.zs[:n], nodes.precision_bits)
            assert single.condition_estimate == record.inverse_gap_product()
            assert single.conditioning_pairs == record.near_pairs()
        assert tables.f_value == eval2(f, z1, z2).to_mpc()


def _boxed_members(rep):
    """The boxed identity members of an InterpolantReport, unboxed in order."""
    return [
        v.to_mpc()
        for v in (
            rep.value_en,
            rep.value_rn_lagrange,
            rep.value_rn_newton,
            rep.value_tail,
            rep.value_f,
            rep.identity_residual,
        )
    ]


def test_plan_capped_tail_matches_truncated_series():
    rng = random.Random(909)
    m = 6
    f = series_from_qc(rand_poly2_coeffs(rng, m), m)
    nodes = nodes_from_qc(rand_distinct_nodes(rng, 4))
    z1, z2 = qc_to_ap(rand_qc(rng, 1), BITS), qc_to_ap(rand_qc(rng, 1), BITS)
    tables = LinePlan(f, nodes, 4).at(z1, z2)
    for cap in (0, 2, 4, 6, 9):
        kept = {kl: v for kl, v in f.items() if sum(kl) <= cap}
        truncated = TaylorSeries2(kept, cap, BITS) if cap < m else f
        for n in range(1, 5):
            en, rl, rn, tail, fz, residual, _ = tables.identity(n, cap)
            # only the tail depends on the cap
            uncapped = _boxed_members(identity_report(f, nodes, n, z1, z2))
            assert [en, rl, rn, fz] == uncapped[:3] + uncapped[4:5]
            want = graded_terms(truncated, z1, z2).total(n)
            assert tail == want
            with workprec(BITS):
                assert residual == en - rl + want - fz


def test_plan_rejects_orders_and_points_it_cannot_serve():
    f = series_from_qc({(1, 0): QC_ONE}, 1)
    nodes = nodes_from_qc([QC.of(1), QC.of(2), QC.of(3)])
    plan = LinePlan(f, nodes, 2)
    z = ap(Fraction(1, 2))
    tables = plan.at(z, z)
    with pytest.raises(DomainError):
        tables.en(0)
    with pytest.raises(ArityError):
        tables.rn_newton(3)
    with pytest.raises(ArityError):
        LinePlan(f, nodes, 4)
    with pytest.raises(ConfigError):
        plan.at(ApComplex(z.re, z.im, 512), z)
    # given restrictions must be those of the first n_max lines, in order
    rest = [restrict_to_line(f, nodes[q]) for q in range(3)]
    assert LinePlan(f, nodes, 2, restrictions=rest).restriction_coeffs == plan.restriction_coeffs
    with pytest.raises(ArityError):
        LinePlan(f, nodes, 2, restrictions=rest[:1])
    with pytest.raises(ConfigError):
        LinePlan(f, nodes, 3, restrictions=[rest[1], rest[0], rest[2]])


def test_low_degree_reproduction():
    # deg f <= n - 1 forces both remainders and the tail to vanish, so the
    # interpolant reproduces f everywhere.
    rng = random.Random(606)
    for _ in range(8):
        n = rng.randint(1, 5)
        deg = rng.randint(0, n - 1)
        qcoeffs = rand_poly2_coeffs(rng, deg)
        qnodes = rand_distinct_nodes(rng, n)
        f = series_from_qc(qcoeffs, deg)
        nodes = nodes_from_qc(qnodes)
        for _ in range(3):
            qz1, qz2 = rand_qc(rng, 1), rand_qc(rng, 1)
            z1, z2 = qc_to_ap(qz1, BITS), qc_to_ap(qz2, BITS)
            assert graded_terms(f, z1, z2).total(n) == 0
            assert_close(eval_EN(f, nodes, n, z1, z2), eval2(f, z1, z2), -200)


def test_interpolation_check_vanishes_on_lines():
    rng = random.Random(707)
    for _ in range(8):
        n, m, qnodes, qcoeffs, _, _ = _random_instance(rng)
        f = series_from_qc(qcoeffs, m)
        nodes = nodes_from_qc(qnodes)
        v = qc_to_ap(rand_qc(rng, 1), BITS)
        plan = LinePlan(f, nodes, n)
        for p in range(1, n + 1):
            # E_N - f at (eta_p v, v) on the p-th line
            with workprec(BITS):
                z1 = ApComplex.from_mpc(nodes.zs[p - 1] * v.to_mpc(), BITS)
                tables = plan.at(z1, v)
                assert abs(tables.en(n) - tables.f_value) <= mpmath.ldexp(1, -200)


def _lagrange_value(zs, q, z1, z2):
    """L_q(z) over the raw nodes zs, q one-based, by the chain the plan runs."""
    line = [z1 - eta * z2 for eta in zs]
    return _raw(_lagrange_chain(line, zs, q - 1, len(zs))[-1])


def test_lagrange_monomial_is_line_indicator():
    zs = nodes_from_qc([QC.of(1), QC.of(2), QC.of(0, 1)]).zs
    v = ap(Fraction(3, 4)).to_mpc()
    v2 = ap(Fraction(9, 16)).to_mpc()
    for p in range(1, 4):
        with workprec(BITS):
            z1 = zs[p - 1] * v
            for q in range(1, 4):
                got = _lagrange_value(zs, q, z1, v)
                want = v2 if q == p else 0
                with workprec(BITS + 16):
                    assert abs(got - want) <= mpmath.ldexp(1, -240)


def test_lagrange_monomial_homogeneous():
    zs = nodes_from_qc([QC.of(1), QC.of(-1), QC.of(2, 1)]).zs
    z1, z2 = ap(Fraction(1, 2), Fraction(1, 4)).to_mpc(), ap(Fraction(-3, 8)).to_mpc()
    lam = ap(Fraction(5, 4)).to_mpc()
    with workprec(BITS):
        for q in (1, 2, 3):
            base = _lagrange_value(zs, q, z1, z2)
            scaled = _lagrange_value(zs, q, lam * z1, lam * z2)
            want = base * lam**2
            with workprec(BITS + 16):
                assert abs(scaled - want) <= mpmath.ldexp(1, -240)


# -- conditioning -------------------------------------------------------------------


def test_condition_estimate_frozen_values():
    nodes = nodes_from_qc([QC.of(0), QC.of(2)])
    assert NodeConditioning(nodes.zs, BITS).inverse_gap_product() == mpf("0.5")
    nodes3 = nodes_from_qc([QC.of(0), QC.of(1), QC.of(3)])
    product = NodeConditioning(nodes3.zs, BITS).inverse_gap_product()
    with workprec(BITS):
        assert abs(product - mpf(1) / 6) <= mpmath.ldexp(1, -250)


def test_condition_estimate_explodes_for_near_pair():
    nodes = NodeSequence([ap(1), ap(1 + Fraction(1, 2**200))], BITS)
    f = series_from_qc({(1, 0): QC_ONE}, 1)
    rep = identity_report(f, nodes, 2, ap(Fraction(1, 4)), ap(Fraction(1, 8)))
    assert rep.condition_estimate > mpmath.ldexp(1, 100)
    assert rep.conditioning_pairs
    assert rep.conditioning_pairs[0][0] == 0 and rep.conditioning_pairs[0][1] == 1


# -- reports, probes, grids ----------------------------------------------------------


def test_en_is_node_order_invariant():
    # E_N depends on the set of the first n lines, not on their order.
    f = series_from_qc({(2, 1): QC_ONE, (0, 1): QC.of(-2)}, 3)
    nodes = nodes_from_qc([QC.of(1), QC.of(-1), QC.of(2), QC.of(0, 1)])
    z1, z2 = ap(Fraction(1, 2)), ap(Fraction(1, 4))
    baseline = eval_EN(f, nodes, 4, z1, z2)
    rng = random.Random(11)
    for _ in range(6):
        perm = list(range(4))
        rng.shuffle(perm)
        value = eval_EN(f, NodeSequence([nodes[i] for i in perm], BITS), 4, z1, z2)
        assert ap_gap(value, baseline) <= mpmath.ldexp(1, -200)  # well-separated nodes


def test_default_zgrid_shape_and_determinism():
    grid_a = default_zgrid(BITS, radius="0.5", side=5, extra=10, seed=3)
    grid_b = default_zgrid(BITS, radius="0.5", side=5, extra=10, seed=3)
    assert len(grid_a) == 35
    assert grid_a == grid_b
    assert grid_a[0] == (ApComplex(0, 0, BITS), ApComplex(0, 0, BITS))
    with workprec(BITS):
        bound = mpf("0.5") * (1 + mpmath.ldexp(1, -50))
        for z1, z2 in grid_a:
            assert abs(z1.to_mpc()) <= bound
            assert abs(z2.to_mpc()) <= bound
    other = default_zgrid(BITS, radius="0.5", side=5, extra=10, seed=4)
    assert other != grid_a


# -- argument validation --------------------------------------------------------------


def test_rejects_bad_orders_and_indices():
    f = series_from_qc({(0, 0): QC_ONE}, 0)
    nodes = nodes_from_qc([QC.of(1), QC.of(2)])
    z = ap(Fraction(1, 2))
    with pytest.raises(DomainError):
        eval_EN(f, nodes, 0, z, z)
    with pytest.raises(ArityError):
        eval_EN(f, nodes, 3, z, z)
