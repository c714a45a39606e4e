"""Divided-difference engine tests against exact rational oracles."""

import itertools
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpc, mpf, workprec

from lineinterp import (
    ApComplex,
    ArityError,
    ConfigError,
    DomainError,
    NodeDistinctnessError,
    NodeSequence,
    ParseError,
    ScalarFunction,
    analytic_series,
    conjugation,
    delta,
    delta_analytic,
    delta_table,
    lagrange_sum,
    leibniz_delta,
    monotone_tuple_count,
    newton_sum,
    parse_decimal,
    product,
)
from lineinterp.divdiff import NodeConditioning
from support import (
    QC,
    QC_ZERO,
    ap_gap,
    log2_gap_sum_exceeds,
    make_complex,
    mpf_to_fraction,
    qc_dd_table,
    qc_lagrange_sum,
    qc_newton_sum,
    qc_poly_eval,
    qc_to_ap,
    rand_clustered_nodes,
    rand_distinct_nodes,
    rand_poly_coeffs,
    rand_qc,
    ulps_apart,
    value_at,
)


def series_function(coeffs_qc):
    """Library ScalarFunction and exact evaluator for the same polynomial."""
    ap_coeffs = [qc_to_ap(c) for c in coeffs_qc]
    return analytic_series(ap_coeffs), lambda z: qc_poly_eval(coeffs_qc, z)


def rel_gap(a, b):
    """|a - b| / max(|a|, |b|) at high precision, 0 for exact agreement."""
    with workprec(600):
        ga = abs(a.to_mpc() - b.to_mpc())
        scale = max(abs(a.to_mpc()), abs(b.to_mpc()))
        if ga == 0:
            return mpmath.mpf(0)
        return ga / scale


def test_delta_order_zero_is_point_value():
    h = conjugation()
    nodes = NodeSequence([make_complex("2", "3")])
    assert delta(h, nodes, 0) == make_complex("2", "-3")


def test_delta_conjugation_three_nodes_frozen():
    # Frozen expected value for h = conj over nodes (1, i, -1): order 2 gives i.
    # Cross-checked below by the exact rational recursion on the same data.
    h = conjugation()
    nodes = NodeSequence(
        [make_complex("1", "0"), make_complex("0", "1"), make_complex("-1", "0")]
    )
    got = delta(h, nodes, 2)
    assert got == make_complex("0", "1")

    qnodes = [QC.of(1, 0), QC.of(0, 1), QC.of(-1, 0)]
    table = qc_dd_table([q.conj() for q in qnodes], qnodes)
    assert table[2][0] == QC.of(0, 1)


def test_table_recursion_invariant_holds_exactly():
    rng = random.Random(11)
    qnodes = rand_distinct_nodes(rng, 6)
    coeffs = rand_poly_coeffs(rng, 5)
    fn, _ = series_function(coeffs)
    nodes = NodeSequence([qc_to_ap(q) for q in qnodes])
    table = delta_table(fn, nodes)
    zs = nodes.zs
    with workprec(nodes.precision_bits):
        for p in range(len(table.rows) - 1):
            for k in range(len(nodes) - p - 1):
                lhs = table.rows[p + 1][k]
                rhs = (table.rows[p][k + 1] - table.rows[p][k]) / (
                    zs[k + p + 1] - zs[k]
                )
                assert abs(lhs - rhs) <= mpmath.ldexp(1, -200) * max(1, abs(lhs))


def test_raw_and_boxed_nodes_build_the_same_sequence():
    boxed = [make_complex("0.1", "-0.3"), make_complex("1e-40", "7"), make_complex("-2")]
    with workprec(256):
        raw = [boxed[0].to_mpc(), boxed[1].to_mpc(), mpf(-2)]
    from_boxed, from_raw = NodeSequence(boxed), NodeSequence(raw, 256)
    assert isinstance(from_raw.zs, tuple) and len(from_raw) == 3
    assert [z._mpc_ for z in from_raw.zs] == [z._mpc_ for z in from_boxed.zs]
    assert [z._mpc_ for z in from_boxed.zs] == [n.to_mpc()._mpc_ for n in boxed]
    # boxing gives the same nodes back, at the sequence's precision
    assert list(from_raw) == list(from_boxed) == boxed
    assert [from_raw[i].precision_bits for i in range(3)] == [256] * 3
    head = from_raw.first(2)
    assert [z._mpc_ for z in head.zs] == [z._mpc_ for z in from_raw.zs[:2]]
    # an int is a node too; raw nodes state their precision
    assert NodeSequence([0, 1], 64).zs == (mpc(0), mpc(1))
    with pytest.raises(ConfigError):
        NodeSequence(raw)


def test_nodes_finer_than_the_sequence_are_rounded_once():
    # nodes held below, at and above the sequence's 256 bits: each is rounded
    # once to 256 bits, as ApComplex rounds its parts, and exact ones stay
    nodes = [make_complex("0.1", "-0.3", bits) for bits in (64, 1024)]
    nodes.append(make_complex("1e-40", "7", 1024))
    seq = NodeSequence(nodes, 256)
    want = [ApComplex(n.re, n.im, 256).to_mpc() for n in nodes]
    assert [z._mpc_ for z in seq.zs] == [z._mpc_ for z in want]
    assert seq.zs[0] == nodes[0].to_mpc()
    assert seq.zs[1] != nodes[1].to_mpc()  # 0.1 at 1024 bits is not 0.1 at 256
    with workprec(1024):
        raw = [z.to_mpc() for z in nodes]
    assert [z._mpc_ for z in NodeSequence(raw, 256).zs] == [z._mpc_ for z in want]
    # distinct at 1024 bits, equal once rounded to 256
    with workprec(1024):
        tenth = mpf(1) / 10
        close = [ApComplex(tenth, 0, 1024), ApComplex(tenth * (1 + mpf(2) ** -500), 0, 1024)]
    assert len(NodeSequence(close, 1024)) == 2
    for pair in (close, [z.to_mpc() for z in close]):
        with pytest.raises(NodeDistinctnessError, match="nodes 0 and 1 coincide exactly"):
            NodeSequence(pair, 256)


def test_duplicate_nodes_rejected():
    with pytest.raises(NodeDistinctnessError):
        NodeSequence([make_complex("1", "2"), make_complex("1", "2")])


def test_near_duplicate_flagged_but_usable():
    eps = "1e-60"
    nodes = NodeSequence(
        [make_complex("1", "0"), make_complex("1", eps), make_complex("0", "0")]
    )
    flagged = NodeConditioning(nodes.zs, nodes.precision_bits).near_pairs()
    assert [(i, j) for i, j, _ in flagged] == [(0, 1)]
    table = delta_table(conjugation(), nodes)
    assert len(table.rows) - 1 == 2


@st.composite
def clustered_prefixes(draw):
    """(bits, dyadic nodes) with clusters near 2^-(bits/2) or anywhere below."""
    bits = draw(st.sampled_from([64, 256, 8192]))
    half = bits // 2
    exponent = draw(st.one_of(st.integers(half - 3, half + 3), st.integers(4, bits - 8)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return bits, rand_clustered_nodes(rng, draw(st.integers(2, 7)), exponent)


@given(clustered_prefixes())
@settings(max_examples=40, deadline=None)
def test_node_conditioning_matches_exact_gaps(prefix):
    bits, qnodes = prefix
    zs = [qc_to_ap(q, bits).to_mpc() for q in qnodes]
    record = NodeConditioning(zs, bits)
    exact = {
        (i, j): (qnodes[i] - qnodes[j]).abs2()
        for i, j in itertools.combinations(range(len(qnodes)), 2)
    }
    assert [(i, j) for i, j, _ in record.gaps] == list(exact)
    # each gap and each division rounds once: at most 2^-bits apiece
    budget = Fraction(3 * len(exact), 2**bits)
    squared = mpf_to_fraction(record.inverse_gap_product()) ** 2
    for abs2 in exact.values():
        squared *= abs2
    assert abs(squared - 1) <= 2 * budget + budget**2
    # |gap|^2 < 2^-2(P//2), except where the gap is within an ulp of 2^-(P//2)
    threshold = Fraction(1, 2 ** (bits // 2))
    ulp = threshold / 2 ** (bits - 1)
    near = {(i, j) for i, j, _ in record.near_pairs()}
    for pair, abs2 in exact.items():
        if not (threshold - ulp) ** 2 <= abs2 <= (threshold + ulp) ** 2:
            assert (pair in near) is (abs2 < threshold**2)
    assert record.cancellation_exceeds(bits / 2) is log2_gap_sum_exceeds(zs, bits)


def test_node_conditioning_forms_each_modulus_once():
    # identity_report reads the gaps through inverse_gap_product and then
    # near_pairs: the moduli are formed on the first read and kept
    record = NodeConditioning([mpc(k, 1) for k in range(4)], 256)
    gaps = record.gaps
    assert len(gaps) == 6
    assert record.gaps is gaps
    record.inverse_gap_product()
    record.near_pairs()
    assert record.gaps is gaps


def test_newton_equals_lagrange_and_oracle():
    rng = random.Random(21)
    for _ in range(25):
        count = rng.randint(2, 8)
        qnodes = rand_distinct_nodes(rng, count)
        coeffs = rand_poly_coeffs(rng, rng.randint(0, 6))
        fn, exact = series_function(coeffs)
        nodes = NodeSequence([qc_to_ap(q) for q in qnodes])
        qx = rand_qc(rng)
        x = qc_to_ap(qx)
        nv = newton_sum(fn, nodes, count, x)
        lv = lagrange_sum(fn, nodes, count, x)
        assert rel_gap(nv, lv) <= mpmath.ldexp(1, -(256 - 32))
        values = [exact(q) for q in qnodes]
        want_n = qc_newton_sum(values, qnodes, qx)
        want_l = qc_lagrange_sum(values, qnodes, qx)
        assert want_n == want_l
        wide = qc_to_ap(want_n, 512)
        assert rel_gap(nv, ApComplex(wide.re, wide.im, 256)) <= mpmath.ldexp(
            1, -(256 - 40)
        ) or ap_gap(nv, wide) <= mpmath.ldexp(1, -200)


def test_interpolant_reproduces_low_degree_polynomial():
    rng = random.Random(31)
    for _ in range(10):
        count = rng.randint(2, 7)
        qnodes = rand_distinct_nodes(rng, count)
        coeffs = rand_poly_coeffs(rng, count - 1)
        fn, exact = series_function(coeffs)
        nodes = NodeSequence([qc_to_ap(q) for q in qnodes])
        qx = rand_qc(rng)
        values = [exact(q) for q in qnodes]
        # Exactness in rational arithmetic.
        assert qc_newton_sum(values, qnodes, qx) == exact(qx)
        got = newton_sum(fn, nodes, count, qc_to_ap(qx))
        want = qc_to_ap(exact(qx), 320)
        assert ap_gap(got, want) <= mpmath.ldexp(1, -200)


def test_leibniz_identity_linear_times_linear():
    # g = h = zeta over nodes (0, 1, 2): order-2 difference of zeta^2 is 1.
    ident = analytic_series([make_complex("0"), make_complex("1")])
    nodes = NodeSequence(
        [make_complex("0"), make_complex("1"), make_complex("2")]
    )
    got = leibniz_delta(ident, ident, nodes, 2)
    assert got == make_complex("1")


def test_leibniz_matches_direct_product_table():
    rng = random.Random(41)
    for _ in range(15):
        count = rng.randint(1, 7)
        qnodes = rand_distinct_nodes(rng, count)
        cg = rand_poly_coeffs(rng, rng.randint(0, 4))
        ch = rand_poly_coeffs(rng, rng.randint(0, 4))
        g, exact_g = series_function(cg)
        h, exact_h = series_function(ch)
        nodes = NodeSequence([qc_to_ap(q) for q in qnodes])
        p = count - 1
        got = leibniz_delta(g, h, nodes, p)
        direct = delta(product(g, h), nodes, p)
        assert rel_gap(got, direct) <= mpmath.ldexp(1, -(256 - 32)) or ap_gap(
            got, direct
        ) <= mpmath.ldexp(1, -220)
        # Exact rational route.
        values = [exact_g(q) * exact_h(q) for q in qnodes]
        want = qc_dd_table(values, qnodes)[p][0]
        assert ap_gap(got, qc_to_ap(want, 320)) <= mpmath.ldexp(1, -180)


def test_delta_analytic_matches_recursion():
    rng = random.Random(51)
    for _ in range(15):
        count = rng.randint(1, 8)
        deg = rng.randint(count - 1, 8)
        qnodes = rand_distinct_nodes(rng, count)
        coeffs = rand_poly_coeffs(rng, deg)
        fn, _ = series_function(coeffs)
        nodes = NodeSequence([qc_to_ap(q) for q in qnodes])
        p = count - 1
        direct = delta_analytic([qc_to_ap(c) for c in coeffs], None, nodes, p)
        recursive = delta(fn, nodes, p)
        assert rel_gap(direct, recursive) <= mpmath.ldexp(1, -(256 - 32)) or ap_gap(
            direct, recursive
        ) <= mpmath.ldexp(1, -220)


def test_delta_analytic_annihilates_high_orders():
    # p greater than the truncation degree gives exactly zero, no tolerance.
    rng = random.Random(61)
    qnodes = rand_distinct_nodes(rng, 7)
    nodes = NodeSequence([qc_to_ap(q) for q in qnodes])
    coeffs = [make_complex("3", "-1"), make_complex("0", "2"), make_complex("5")]
    for p in (3, 4, 5, 6):
        assert delta_analytic(coeffs, None, nodes, p) == 0
    # The exact rational recursion agrees.
    qcoeffs = [QC.of(3, -1), QC.of(0, 2), QC.of(5, 0)]
    values = [qc_poly_eval(qcoeffs, q) for q in qnodes]
    table = qc_dd_table(values, qnodes)
    for p in (3, 4, 5, 6):
        assert table[p][0] == QC_ZERO


def test_delta_analytic_reads_raw_coefficients_unrounded():
    # at the default 53-bit ambient precision, raw 256-bit mpf coefficients
    # and center give what the same values boxed as ApComplex give
    bits = 256
    texts = ["0.1", "-2.7", "0.3", "1e-30", "7"]
    coeffs = [parse_decimal(t, bits) for t in texts]
    center = parse_decimal("0.35", bits)
    nodes = NodeSequence([qc_to_ap(q, bits) for q in rand_distinct_nodes(random.Random(67), 4)])
    with workprec(53):
        for p in range(4):
            boxed = delta_analytic(
                [ApComplex(c, 0, bits) for c in coeffs], ApComplex(center, 0, bits), nodes, p
            )
            assert delta_analytic(coeffs, center, nodes, p) == boxed


def test_delta_analytic_confluent_limit_recovers_coefficient():
    # Clustering all nodes at the center drives Delta_p to a_p.
    # Terms above order p make the limit nontrivial.
    coeffs = [
        make_complex("2"),
        make_complex("-1", "1"),
        make_complex("0.5"),
        make_complex("0", "-3"),
        make_complex("1", "1"),
        make_complex("-2"),
        make_complex("0.25", "4"),
    ]
    center = make_complex("0.25", "-0.5")
    p = 3
    gaps = []
    for k in (16, 128, 1024):
        shift = Fraction(1, k)
        qnodes = [
            QC(
                Fraction(1, 4) + shift * (j + 1),
                Fraction(-1, 2) + shift * shift * (j + 1) ** 2,
            )
            for j in range(p + 1)
        ]
        nodes = NodeSequence([qc_to_ap(q) for q in qnodes])
        value = delta_analytic(coeffs, center, nodes, p)
        gaps.append(ap_gap(value, coeffs[p]))
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < mpmath.mpf("0.05")


def test_permutation_invariance_well_separated_16_ulp():
    # Gaps >= 2 keep the recursion amplification-free; permuted evaluations
    # then agree to a few ulp.
    rng = random.Random(71)
    base = [QC.of(2 * j, (j * j) % 5) for j in range(7)]
    coeffs = rand_poly_coeffs(rng, 6)
    fn, _ = series_function(coeffs)
    nodes = NodeSequence([qc_to_ap(q) for q in base])
    p = 6
    reference = delta(fn, nodes, p)
    for trial in range(5):
        perm = list(range(7))
        rng.shuffle(perm)
        permuted = NodeSequence([nodes[i] for i in perm], nodes.precision_bits)
        value = delta(fn, permuted, p)
        assert float(ulps_apart(value, reference)) <= 16.0


def test_permutation_invariance_generic_nodes_tolerance():
    rng = random.Random(81)
    for _ in range(10):
        count = rng.randint(3, 8)
        qnodes = rand_distinct_nodes(rng, count)
        coeffs = rand_poly_coeffs(rng, count - 1)
        fn, _ = series_function(coeffs)
        nodes = NodeSequence([qc_to_ap(q) for q in qnodes])
        p = count - 1
        reference = delta(fn, nodes, p)
        perm = list(range(count))
        rng.shuffle(perm)
        value = delta(fn, NodeSequence([nodes[i] for i in perm], nodes.precision_bits), p)
        assert rel_gap(value, reference) <= mpmath.ldexp(1, -(256 - 40)) or ap_gap(
            value, reference
        ) <= mpmath.ldexp(1, -200)


def test_monotone_tuple_count_matches_enumeration():
    def brute(n, p):
        if p == 0:
            return 1
        count = 0
        for tup in itertools.product(range(n + 1), repeat=p):
            if all(tup[i] >= tup[i + 1] for i in range(p - 1)):
                count += 1
        return count

    for n in range(0, 7):
        for p in range(0, 5):
            assert monotone_tuple_count(n, p) == brute(n, p)


def test_monotone_tuple_count_pascal_recurrence():
    for n in range(1, 31):
        for p in range(1, 31):
            assert monotone_tuple_count(n, p) == monotone_tuple_count(
                n - 1, p
            ) + monotone_tuple_count(n, p - 1)
    assert monotone_tuple_count(0, 4) == 1
    assert monotone_tuple_count(5, 0) == 1
    assert monotone_tuple_count(2, 2) == 6


def test_monotone_tuple_count_domain():
    with pytest.raises(DomainError):
        monotone_tuple_count(-1, 2)


def test_arity_errors():
    h = conjugation()
    nodes = NodeSequence([make_complex("1"), make_complex("2")])
    with pytest.raises(ArityError):
        delta(h, nodes, 2)
    with pytest.raises(ArityError):
        newton_sum(h, nodes, 3, make_complex("0"))
    with pytest.raises(ArityError):
        lagrange_sum(h, nodes, 3, make_complex("0"))
    with pytest.raises(ArityError):
        delta_analytic([], None, nodes, 0)
    with pytest.raises(ArityError):
        NodeSequence([])


def test_scalar_function_kind_validated():
    with pytest.raises(ConfigError):
        ScalarFunction(fn=lambda w: w, kind="mystery")


def test_scalar_function_deterministic():
    fn = conjugation()
    z = make_complex("1.5", "-2")
    assert value_at(fn, z) == value_at(fn, z)


def test_node_json_round_trip():
    nodes = NodeSequence(
        [make_complex("0.5", "-1"), make_complex("2e-3", "7")]
    )
    obj = nodes.to_json_obj()
    back = NodeSequence.from_json_obj(obj, 256)
    assert list(back) == list(nodes)
    with pytest.raises(ParseError):
        NodeSequence.from_json_obj({"nodes": []}, 256)
    with pytest.raises(ParseError):
        NodeSequence.from_json_obj({"points": []}, 256)


def test_cluster_shrink_tracks_confluent_limit_recursively():
    # Recursive route on shrinking distinct clusters approaches the series
    # coefficient, the documented substitute for confluent nodes.
    coeffs = [
        make_complex("1"),
        make_complex("2"),
        make_complex("-3", "0.5"),
        make_complex("4", "-1"),
        make_complex("-0.5", "2"),
    ]
    fn = analytic_series(coeffs)
    errs = []
    for k in (8, 32, 128):
        qnodes = [QC(Fraction(j + 1, k * 4), Fraction(0)) for j in range(3)]
        nodes = NodeSequence([qc_to_ap(q) for q in qnodes])
        value = delta(fn, nodes, 2)
        errs.append(ap_gap(value, coeffs[2]))
    assert errs[2] < errs[1] < errs[0]
