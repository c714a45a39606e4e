"""Growth criterion profiles, subsequence probes, and node families."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpc, mpf, workprec

from lineinterp import (
    ApComplex,
    ArityError,
    ConfigError,
    DomainError,
    NodeFamily,
    NodeSequence,
    ScalarFunction,
    circle_family,
    conj_kernel,
    conjugation,
    criterion_profile,
    delta,
    delta_table,
    generate_nodes,
    germ_for_family,
    line_family,
)
from lineinterp.divdiff import NodeConditioning
from support import QC, qc_dd_table, qc_to_ap, rand_distinct_nodes, ulps_apart, value_at

BITS = 256


def ap(re, im=0):
    return qc_to_ap(QC.of(Fraction(re), Fraction(im)), BITS)


def conj(z):
    """The conjugate of an ApComplex, negated exactly at its own precision."""
    with workprec(z.precision_bits):
        return ApComplex(z.re, -z.im, z.precision_bits)


def nodes_of(*qs):
    return NodeSequence([qc_to_ap(QC.of(*t), BITS) for t in qs], BITS)


# -- kernels ------------------------------------------------------------------------


def test_conj_kernel_frozen_values():
    k00 = conj_kernel(0)
    assert value_at(k00, ap(Fraction(3, 4), Fraction(-1, 2))) == ap(1)
    k11 = conj_kernel(1)
    assert value_at(k11, ap(1)) == ap(Fraction(1, 2))
    k21 = conj_kernel(2, 1)
    assert value_at(k21, ap(0, 1)) == ap(0, Fraction(-1, 4))


def test_conj_kernel_derivative_values():
    k = conj_kernel(1)
    with workprec(BITS):
        at0 = k.conj_derivative(mpc(0))
        at1 = k.conj_derivative(mpc(1))
    assert at0 == mpc(1)
    assert at1 == mpc(mpf(1) / 4)


def test_conj_kernel_rejects_bad_powers():
    with pytest.raises(DomainError):
        conj_kernel(1, 2)
    with pytest.raises(DomainError):
        conj_kernel(-1)
    with pytest.raises(DomainError):
        conj_kernel(2, -1)


# -- diagonal profile ----------------------------------------------------------------


def test_profile_structural_invariants():
    nodes = nodes_of((1,), (Fraction(1, 2), 1), (-2, Fraction(1, 4)), (0, -1), (3,))
    prof = criterion_profile(nodes, 4, 3, BITS)
    assert prof.raw[0][0] == mpf(1)
    for p in range(1, 5):
        assert prof.raw[p][0] == mpf(0)
    for q in range(4):
        assert prof.raw[0][q] <= mpf(1)
    assert prof.normalized[0][0] == prof.raw[0][0]


def test_profile_single_node_powers_of_half():
    nodes = nodes_of((1,), (2,))
    prof = criterion_profile(nodes, 1, 5, BITS)
    for q in range(6):
        assert prof.raw[0][q] == mpf(1) / (1 << q)


def test_profile_real_nodes_match_holomorphic_oracle():
    # On real nodes conj(zeta) = zeta, so the kernel column q agrees with the
    # holomorphic rational function zeta^q / (1 + zeta^2)^q, whose divided
    # differences we recompute exactly over rationals.
    qnodes = [QC.of(n) for n in (1, 2, 3, 4, 5)]
    nodes = nodes_of((1,), (2,), (3,), (4,), (5,))
    p_max, q_max = 4, 3
    prof = criterion_profile(nodes, p_max, q_max, BITS)
    for q in range(q_max + 1):
        values = []
        for qn in qnodes:
            n = qn.re
            values.append(QC(Fraction(n**q, (1 + n * n) ** q), Fraction(0)))
        table = qc_dd_table(values, qnodes)
        for p in range(p_max + 1):
            want = table[p][0].re  # real nodes give real differences
            with workprec(BITS + 64):
                got = prof.raw[p][q]
                exact = abs(mpf(want.numerator) / mpf(want.denominator))
                assert abs(got - exact) <= mpmath.ldexp(1, -200)


def test_profile_normalization_and_r_hat():
    nodes = nodes_of((1,), (Fraction(1, 2), 1), (-1, Fraction(-1, 2)))
    prof = criterion_profile(nodes, 2, 2, BITS)
    best = mpf(0)
    with workprec(BITS):
        for p in range(3):
            for q in range(3):
                if p + q == 0:
                    continue
                norm = prof.normalized[p][q]
                # normalized^(p+q) recovers raw
                assert abs(norm ** (p + q) - prof.raw[p][q]) <= mpmath.ldexp(1, -200)
                best = max(best, norm)
    assert prof.r_hat_observed == best


def test_profile_rejects_bad_window():
    nodes = nodes_of((1,), (2,))
    with pytest.raises(ArityError):
        criterion_profile(nodes, 2, 1, BITS)
    with pytest.raises(DomainError):
        criterion_profile(nodes, -1, 1, BITS)
    with pytest.raises(DomainError):
        criterion_profile(nodes, 1, -1, BITS)


# -- mixed profile -------------------------------------------------------------------


def test_mixed_profile_diagonal_matches_and_origin_entry():
    # The mixed kernels conj^s / (1+|.|^2)^q with s = q are the diagonal g_q.
    nodes = nodes_of((0,), (1,), (Fraction(1, 2), Fraction(1, 2)))
    prof = criterion_profile(nodes, 2, 2, BITS)
    with workprec(BITS):
        for q in range(3):
            table = delta_table(conj_kernel(q, q), nodes, BITS)
            for p in range(3):
                assert abs(table.rows[p][0]) == prof.raw[p][q]
    assert delta(conj_kernel(1, 0), nodes, 0, BITS) == 1  # 1/(1+|z|^2) at node 0
    with pytest.raises(DomainError):
        conj_kernel(1, 2)


def test_mixed_profile_bound_holds_on_bounded_real_nodes():
    # Strengthened bound: |Delta_p[conj^s / (1+|.|^2)^q]| <= R'^(p+q) for all
    # s <= q, with R' = max(3, 3 * max|eta|, r_hat)^2.
    nodes = nodes_of((1,), (2,), (-1,), (Fraction(1, 2),), (Fraction(-3, 2),))
    r_hat = criterion_profile(nodes, 4, 3, BITS).r_hat_observed
    with workprec(BITS):
        sup = max(abs(z) for z in nodes.zs)
        r_prime = max(mpf(3), 3 * sup, r_hat) ** 2
        for q in range(4):
            for s in range(q + 1):
                table = delta_table(conj_kernel(q, s), nodes, BITS)
                for p in range(5):
                    if p + q >= 1:
                        assert abs(table.rows[p][0]) <= r_prime ** (p + q), (p, q, s)


def test_binomial_expansion_consistency():
    # Delta_p of ((z2 + conj(zeta) z1) / (1+|zeta|^2))^q expands through the
    # mixed entries with binomial weights.
    rng = random.Random(99)
    qnodes = rand_distinct_nodes(rng, 5)
    nodes = NodeSequence([qc_to_ap(q, BITS) for q in qnodes], BITS)
    z1 = qc_to_ap(QC.of(Fraction(1, 2), Fraction(1, 4)), BITS)
    z2 = qc_to_ap(QC.of(Fraction(-3, 8), Fraction(1, 8)), BITS)
    z1v, z2v = z1.to_mpc(), z2.to_mpc()
    for q in (1, 2, 3):
        for p in (1, 2, 4):

            def fn(w, q=q):
                return ((z2v + w.conjugate() * z1v) / (1 + w.real**2 + w.imag**2)) ** q

            direct = delta(ScalarFunction(fn=fn), nodes, p, BITS)
            with workprec(BITS):
                acc = mpc(0)
                for s in range(q + 1):
                    weight = math.comb(q, s) * z1v**s * z2v ** (q - s)
                    acc += weight * delta(conj_kernel(q, s), nodes, p, BITS).to_mpc()
                assert abs(direct.to_mpc() - acc) <= mpmath.ldexp(1, -200)


def test_conjugation_annihilates_real_nodes_above_order_one():
    # conj is the identity on real nodes: Delta_1 = 1 and Delta_p = 0 for
    # p >= 2, over every increasing subsequence.
    nodes = nodes_of((1,), (2,), (3,), (4,), (5,), (6,))
    for p in range(1, 5):
        for idx in itertools.combinations(range(len(nodes)), p + 1):
            sub = NodeSequence([nodes[i] for i in idx], BITS)
            assert delta(conjugation(), sub, p, BITS) == (1 if p == 1 else 0), idx


# -- node families ----------------------------------------------------------------------


def test_generate_line_families():
    real_axis = generate_nodes(line_family(0, 1, 0), 3, seed=0, precision_bits=BITS)
    assert len(real_axis) == 3
    for node in real_axis:
        assert node.im == 0
    imag_axis = generate_nodes(line_family(1, 0, 0), 3, seed=0, precision_bits=BITS)
    for node in imag_axis:
        assert node.re == 0
    slanted = generate_nodes(line_family(1, 1, -1), 8, seed=2, precision_bits=BITS)
    with workprec(BITS):
        for node in slanted:
            # a*Re + b*Im + c = 0 up to rounding in the parametrization
            assert abs(node.re + node.im - 1) <= mpmath.ldexp(1, -240)


def test_generate_circle_families():
    unit = generate_nodes(circle_family(0, 1), 2, seed=0, precision_bits=BITS)
    assert len(unit) == 2
    with workprec(BITS):
        for node in unit:
            assert abs(abs(node.to_mpc()) - 1) <= mpmath.ldexp(1, -250)
    shifted = generate_nodes(
        circle_family((1, -1), "0.5"), 7, seed=3, precision_bits=BITS
    )
    with workprec(BITS):
        center = mpc(1, -1)
        for node in shifted:
            assert abs(abs(node.to_mpc() - center) - mpf("0.5")) <= mpmath.ldexp(
                1, -250
            )


def test_generated_nodes_distinct_at_scale():
    for family in (line_family(1, 2, 3), circle_family(0, 2)):
        seq = generate_nodes(family, 50, seed=0, precision_bits=BITS)
        assert len(seq) == 50  # NodeSequence enforces exact distinctness
        gaps = NodeConditioning(seq.zs, seq.precision_bits).gaps
        assert min(gap for _, _, gap in gaps) > mpmath.ldexp(1, -60)


def test_generate_seed_offsets_the_walk():
    fam = circle_family(0, 1)
    a = generate_nodes(fam, 4, seed=0, precision_bits=BITS)
    b = generate_nodes(fam, 4, seed=5, precision_bits=BITS)
    assert a.zs != b.zs
    # on a circle, seed s starts the walk at its step s
    longer = generate_nodes(fam, 9, seed=0, precision_bits=BITS)
    assert b.zs == longer.zs[5:]


def test_family_validation():
    with pytest.raises(ConfigError):
        line_family(0, 0, 1)
    with pytest.raises(ConfigError):
        circle_family(0, 0)
    with pytest.raises(DomainError):
        generate_nodes(line_family(0, 1, 0), 0, precision_bits=BITS)
    with pytest.raises(ConfigError):
        generate_nodes(line_family(0, 1, 0), None, precision_bits=BITS)
    with pytest.raises(ConfigError):
        line_family("0.0", "-0", "1")
    with pytest.raises(ConfigError):
        circle_family(("0", "0"), "-1e-400")
    # a family built directly is checked the same way
    with pytest.raises(ConfigError, match="positive radius"):
        NodeFamily(kind="circle", center=0, radius=0)
    with pytest.raises(ConfigError, match=r"\(a, b\) != \(0, 0\)"):
        NodeFamily(kind="line", a="0", b=0, c=1)


def test_family_validation_is_exact_for_tiny_parameters():
    # values below double range are nonzero at 256 bits
    flat = generate_nodes(line_family("1e-400", "0", "0"), 3, precision_bits=BITS)
    assert len(flat) == 3
    assert all(node.re == 0 for node in flat)
    tiny = generate_nodes(circle_family(("0", "0"), "1e-400"), 3, precision_bits=BITS)
    with workprec(BITS):
        assert all(0 < abs(node.to_mpc()) < mpf("1e-399") for node in tiny)
    assert line_family(mpf("1e-400"), 0, 0).kind == "line"
    assert circle_family(0, mpf("1e-400")).kind == "circle"


# -- germs ------------------------------------------------------------------------------


def test_germ_frozen_examples():
    real_axis = germ_for_family(line_family(0, 1, 0), BITS)
    z = ap(Fraction(7, 8), Fraction(0))
    assert value_at(real_axis, z) == z
    imag_axis = germ_for_family(line_family(1, 0, 0), BITS)
    w = ap(0, Fraction(3, 4))
    assert value_at(imag_axis, w) == conj(w)
    unit_circle = germ_for_family(circle_family(0, 1), BITS)
    i = ap(0, 1)
    assert value_at(unit_circle, i) == conj(i)


def test_germ_matches_conjugate_on_generated_nodes():
    for family in (
        line_family(1, 1, -1),
        line_family("0.25", "-1", "2"),
        circle_family((1, -1), "0.5"),
        circle_family(0, 2),
    ):
        germ = germ_for_family(family, BITS)
        seq = generate_nodes(family, 12, seed=1, precision_bits=BITS)
        for node in seq:
            assert ulps_apart(value_at(germ, node), conj(node)) <= 4
