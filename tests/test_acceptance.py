"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Shared 256-bit results are cached so the precision-robustness rerun
(AC-10) can compare against them without recomputation.
"""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction

from mpmath import ldexp, mpc, mpf, workprec

from lineinterp import (
    ApComplex,
    LinePlan,
    NodeSequence,
    TaylorSeries2,
    analytic_series,
    build_sequence,
    circle_family,
    conj_kernel,
    criterion_profile,
    default_kernel,
    default_zgrid,
    delta,
    delta_analytic,
    eval_EN,
    generate_nodes,
    identity_report,
    lagrange_sum,
    leibniz_delta,
    line_family,
    monotone_tuple_count,
    newton_sum,
    parse_decimal,
    product,
    restrict_to_line,
    series_from_spec,
    verify_growth,
)
from lineinterp.mobius import (
    _inverse,
    _theta,
    make_context,
    pushforward,
    theta_bound,
    to_bounded,
)
from support import (
    QC,
    QC_ZERO,
    apply_unitary,
    mpf_to_fraction,
    qc_dd_table,
    qc_poly_eval,
    qc_to_ap,
    rand_distinct_nodes,
    rand_dyadic,
    rand_poly2_coeffs,
    rand_poly_coeffs,
    rand_qc,
)

BITS = 256

_cache = {}


def _report(name, ok, detail):
    line = "%s: %s  (%s)" % (name, "PASS" if ok else "FAIL", detail)
    print(line)
    sys.stdout.flush()
    assert ok, line


def _tol(text, bits=BITS):
    with workprec(bits):
        return parse_decimal(text, bits)


def _raw(a):
    """The mpc of a, which is an ApComplex or already raw."""
    return a.to_mpc() if isinstance(a, ApComplex) else a


def _mag(a, bits=BITS):
    with workprec(bits + 16):
        return abs(_raw(a))


def _mag_diff(a, b, bits=BITS):
    """|a - b|: the difference formed at bits, its modulus at bits + 16."""
    with workprec(bits):
        diff = _raw(a) - _raw(b)
    with workprec(bits + 16):
        return abs(diff)


def _series(qcoeffs, max_order, bits):
    return TaylorSeries2(
        {kl: qc_to_ap(v, bits) for kl, v in qcoeffs.items()}, max_order, bits
    )


def _nodes(qnodes, bits):
    return NodeSequence([qc_to_ap(q, bits) for q in qnodes], bits)


# -- AC-1: divided-difference identities ----------------------------------------------


def test_ac1_divided_difference_identities():
    rng = random.Random(20260815)
    kern = conj_kernel(1)
    tol = ldexp(1, -(BITS - 32))
    worst = mpf(0)

    def rel_gap(a, b):
        with workprec(BITS + 16):
            am, bm = a.to_mpc(), b.to_mpc()
            return abs(am - bm) / max(mpf(1), abs(am), abs(bm))

    for _ in range(200):
        count = rng.randint(2, 12)
        p = count - 1
        qnodes = rand_distinct_nodes(rng, count)
        nodes = _nodes(qnodes, BITS)
        while True:
            qx = QC.of(rand_dyadic(rng), rand_dyadic(rng))
            if all(not (qx - q).is_zero() for q in qnodes):
                break
        x = qc_to_ap(qx, BITS)
        gap = rel_gap(
            newton_sum(kern, nodes, count, x), lagrange_sum(kern, nodes, count, x)
        )
        qcoeffs = rand_poly_coeffs(rng, rng.randint(0, p))
        acoeffs = [qc_to_ap(c, BITS) for c in qcoeffs]
        poly = analytic_series(acoeffs)
        gap = max(
            gap,
            rel_gap(
                leibniz_delta(poly, kern, nodes, p),
                delta(product(poly, kern), nodes, p),
            ),
        )
        perm = list(range(count))
        rng.shuffle(perm)
        gap = max(
            gap,
            rel_gap(
                delta(kern, NodeSequence([nodes[i] for i in perm], BITS), p),
                delta(kern, nodes, p),
            ),
        )
        gap = max(
            gap, rel_gap(delta_analytic(acoeffs, None, nodes, p), delta(poly, nodes, p))
        )
        with workprec(BITS):
            if gap > worst:
                worst = gap
        # annihilation of lower-degree polynomials, exact rational route
        low = rand_poly_coeffs(rng, p - 1) if p >= 1 else [QC_ZERO]
        values = [qc_poly_eval(low, q) for q in qnodes]
        assert qc_dd_table(values, qnodes)[p][0].is_zero()
    _report(
        "AC-1 divided-difference identities",
        worst <= tol,
        "200 instances, worst relative gap %.3e vs 2^-%d" % (float(worst), BITS - 32),
    )


# -- AC-2: counting --------------------------------------------------------------------


def test_ac2_monotone_tuple_counting():
    ok = True
    for n in range(9):
        for p in range(9):
            brute = sum(
                1 for _ in itertools.combinations_with_replacement(range(n + 1), p)
            )
            ok = ok and monotone_tuple_count(n, p) == brute
    for n in range(1, 31):
        for p in range(1, 31):
            ok = ok and monotone_tuple_count(n, p) == monotone_tuple_count(
                n - 1, p
            ) + monotone_tuple_count(n, p - 1)
    _report(
        "AC-2 monotone tuple counting",
        ok,
        "brute force n,p<=8 and Pascal recurrence n,p<=30",
    )


# -- AC-3: polynomial reproduction -------------------------------------------------------


def _run_ac3(bits):
    key = ("ac3", bits)
    if key not in _cache:
        rng = random.Random(2026)
        grid = default_zgrid(bits)
        worst = mpf(0)
        for _ in range(100):
            n = rng.randint(1, 10)
            deg = rng.randint(0, n - 1) if n > 1 else 0
            nodes = _nodes(rand_distinct_nodes(rng, n), bits)
            f = _series(rand_poly2_coeffs(rng, deg), deg, bits)
            rest = [restrict_to_line(f, nodes[q], bits) for q in range(n)]
            sup = LinePlan(f, nodes, n, bits, rest).sup_errors(grid, [n])[n]
            worst = max(worst, sup)
        _cache[key] = worst
    return _cache[key]


def test_ac3_polynomial_reproduction():
    worst = _run_ac3(BITS)
    _report(
        "AC-3 polynomial reproduction",
        worst <= _tol("1e-60"),
        "100 polynomials, sup grid error %.3e vs 1e-60" % (float(worst),),
    )


# -- AC-4: line interpolation ------------------------------------------------------------


def _run_ac4(bits):
    key = ("ac4", bits)
    if key not in _cache:
        rng = random.Random(41)
        worst = mpf(0)
        for _ in range(50):
            n = rng.randint(1, 8)
            m = rng.randint(0, 8)
            nodes = _nodes(rand_distinct_nodes(rng, n), bits)
            f = _series(rand_poly2_coeffs(rng, m), m, bits)
            v = qc_to_ap(rand_qc(rng, 1), bits)
            plan = LinePlan(f, nodes, n, bits)
            for p in range(1, n + 1):
                # E_N - f at (eta_p v, v) on the p-th line, its modulus at bits + 16
                with workprec(bits):
                    z1 = ApComplex.from_mpc(nodes.zs[p - 1] * v.to_mpc(), bits)
                    tables = plan.at(z1, v)
                    diff = tables.en(n) - tables.f_value
                with workprec(bits + 16):
                    worst = max(worst, abs(diff))
        _cache[key] = worst
    return _cache[key]


def test_ac4_line_interpolation():
    worst = _run_ac4(BITS)
    _report(
        "AC-4 line interpolation",
        worst <= _tol("1e-60"),
        "50 instances, all p<=N<=8, worst gap %.3e vs 1e-60" % (float(worst),),
    )


# -- AC-5: fundamental identity ------------------------------------------------------------


def _run_ac5(bits):
    key = ("ac5", bits)
    if key not in _cache:
        rng = random.Random(42)
        worst_res = mpf(0)
        worst_gap = mpf(0)
        for _ in range(100):
            n = rng.randint(1, 8)
            m = rng.randint(0, 12)
            nodes = _nodes(rand_distinct_nodes(rng, n), bits)
            f = _series(rand_poly2_coeffs(rng, m), m, bits)
            z1 = qc_to_ap(rand_qc(rng, 1), bits)
            z2 = qc_to_ap(rand_qc(rng, 1), bits)
            rep = identity_report(f, nodes, n, z1, z2)
            res = _mag(rep.identity_residual, bits)
            with workprec(bits):
                if res > worst_res:
                    worst_res = res
                if rep.cross_form_gap > worst_gap:
                    worst_gap = +rep.cross_form_gap
        _cache[key] = (worst_res, worst_gap)
    return _cache[key]


def test_ac5_fundamental_identity():
    worst_res, worst_gap = _run_ac5(BITS)
    tol = _tol("1e-55")
    _report(
        "AC-5 fundamental identity",
        worst_res <= tol and worst_gap <= tol,
        "100 instances, residual %.3e, remainder-form gap %.3e vs 1e-55"
        % (float(worst_res), float(worst_gap)),
    )


# -- AC-6: convergence rate -----------------------------------------------------------------


def _run_ac6(bits):
    key = ("ac6", bits)
    if key not in _cache:
        nodes = generate_nodes(circle_family((0, 0), 1, 24), precision_bits=bits)
        f = series_from_spec("exp_sum:40", bits)
        plan = LinePlan(f, nodes, 16, bits)
        _cache[key] = plan.sup_errors(default_zgrid(bits), range(4, 17))
    return _cache[key]


def test_ac6_convergence_rate():
    errors = _run_ac6(BITS)
    with workprec(BITS):
        decreasing = all(errors[n] > errors[n + 1] for n in range(4, 16))
        ratios = [errors[n + 2] / errors[n] for n in range(8, 15)]
        geometric = all(r <= mpf(1) / 2 for r in ratios)
        worst_ratio = max(ratios)
    _report(
        "AC-6 convergence rate",
        decreasing and geometric,
        "24 circle nodes, error strictly decreasing N=4..16, "
        "worst two-step ratio %.3e vs 0.5" % (float(worst_ratio),),
    )


# -- AC-7: counterexample growth ----------------------------------------------------------------


def _sequence5():
    if "seq5" not in _cache:
        _cache["seq5"] = build_sequence(default_kernel(), 5)
    return _cache["seq5"]


def test_ac7_counterexample_growth():
    f = default_kernel()
    seq = _sequence5()
    report = verify_growth(seq, f)
    ok = report.all_passed and len(seq.stage_log) == 5
    bits = seq.precision_bits
    with workprec(bits):
        ok = ok and all(node.re * node.im == 0 for node in seq.nodes)
    achieved = []
    for rec in seq.stage_log:
        s = rec.stage
        check_bits = rec.precision_bits + 64
        value = delta(f, seq.nodes.first(3 * s), 3 * s - 1, check_bits)
        with workprec(check_bits):
            got = abs(value.to_mpc())
            ok = ok and got >= s**s
        achieved.append(got)
        lead, first, second = (seq.nodes[3 * s - 3 + k] for k in range(3))
        moduli = []
        with workprec(bits):
            for node in (lead, first, second):
                moduli.append(abs(node.re) if node.im == 0 else abs(node.im))
            ok = ok and moduli[0] > moduli[1] == moduli[2]
            prior = seq.nodes.first(3 * (s - 1)) if s > 1 else ()
            earlier = [abs(n.re) if n.im == 0 else abs(n.im) for n in prior]
            ok = ok and all(moduli[0] < m for m in earlier)
        ok = ok and mpf_to_fraction(moduli[0]) < Fraction(1, 3 * s - 2)
    _report(
        "AC-7 counterexample growth",
        ok,
        "5 stages on the axes, recomputed |D_(3p+2)| >= (p+1)^(p+1), "
        "final stage %.3e vs 3125" % (float(achieved[-1]),),
    )


# -- AC-8: criterion refutation vs compliance ------------------------------------------------------


def test_ac8_criterion_refutation_vs_compliance():
    real_nodes = generate_nodes(line_family(0, 1, 0, 16), precision_bits=BITS)
    prof = criterion_profile(real_nodes, 15, 15, BITS)
    with workprec(BITS):
        zero_rows = all(prof.raw[p][0] == 0 for p in range(1, 16))
        observed = max(
            prof.normalized[p][q] for p in range(16) for q in range(16)
        )
        # frozen witness constant; the observed maximum on this family is 1.0
        bounded = observed <= mpf(2)
    seq = _sequence5()
    growth_prof = criterion_profile(seq.nodes, 14, 1)
    with workprec(growth_prof.precision_bits):
        refuted = max(growth_prof.normalized[p][1] for p in range(15)) > 10
    _report(
        "AC-8 criterion refutation vs compliance",
        zero_rows and bounded and refuted,
        "real line max normalized %.3f with zero q=0 rows; "
        "adversarial q=1 column peaks %.2f > 10"
        % (
            float(observed),
            float(max(growth_prof.normalized[p][1] for p in range(15))),
        ),
    )


# -- AC-9: Mobius reduction ----------------------------------------------------------------------


def test_ac9_mobius_reduction():
    nodes = NodeSequence([ApComplex(j, 0, BITS) for j in range(1, 51)], BITS)
    eta_inf = ApComplex(0, 1, BITS)
    ctx = make_context(nodes, eta_inf, BITS)
    thetas = to_bounded(ctx)
    bound = theta_bound(ctx)
    tol = _tol("1e-60")
    rng = random.Random(9)
    with workprec(BITS):
        e = ctx.eta_inf
        in_bound = all(abs(t) <= bound for t in thetas.zs)
        round_trip = max(_mag_diff(_inverse(e, t), z) for z, t in zip(nodes.zs, thetas.zs))
        unitarity = +ctx.unitarity_defect()
        line_res = mpf(0)
        for z, theta in zip(nodes.zs, thetas.zs):
            drawn = [qc_to_ap(rand_qc(rng, 1), BITS).to_mpc() for _ in range(2)]
            probes = [(theta, mpc(1)), tuple(drawn)]
            for w1, w2 in probes:
                gap = _mag(ctx._line_factor_defect(e, z, _theta(e, z), w1, w2))
                if gap > line_res:
                    line_res = gap
    coherence = mpf(0)
    done = 0
    while done < 20:
        n = rng.randint(1, 4)
        m = rng.randint(n, 6)
        qnodes = rand_distinct_nodes(rng, n)
        if any(q.re == 0 and q.im == 1 for q in qnodes):
            continue  # redraw: the center must stay off the node set
        small = _nodes(qnodes, BITS)
        small_ctx = make_context(small, eta_inf, BITS)
        small_thetas = to_bounded(small_ctx)
        f = _series(rand_poly2_coeffs(rng, m), m, BITS)
        g = pushforward(f, small_ctx)
        z1 = qc_to_ap(rand_qc(rng, 1), BITS)
        z2 = qc_to_ap(rand_qc(rng, 1), BITS)
        u1, u2 = apply_unitary(small_ctx, z1, z2)
        gap = _mag_diff(eval_EN(f, small, n, z1, z2), eval_EN(g, small_thetas, n, u1, u2))
        with workprec(BITS):
            if gap > coherence:
                coherence = gap
        done += 1
    ok = (
        in_bound
        and bound == mpf(3)
        and round_trip <= tol
        and unitarity <= tol
        and line_res <= tol
        and coherence <= _tol("1e-50")
    )
    _report(
        "AC-9 Mobius reduction",
        ok,
        "50 integer nodes, |theta|<=3, residuals %.2e/%.2e/%.2e vs 1e-60, "
        "coherence %.2e vs 1e-50"
        % (float(unitarity), float(line_res), float(round_trip), float(coherence)),
    )


# -- AC-10: precision robustness --------------------------------------------------------------------


def test_ac10_precision_robustness():
    pairs = []
    high = 512
    with workprec(high + 64):
        gap3 = abs(_run_ac3(high) - _run_ac3(BITS))
        pairs.append(("AC-3", gap3, _tol("1e-60", high)))
        gap4 = abs(_run_ac4(high) - _run_ac4(BITS))
        pairs.append(("AC-4", gap4, _tol("1e-60", high)))
        res_lo, gap_lo = _run_ac5(BITS)
        res_hi, gap_hi = _run_ac5(high)
        gap5 = max(abs(res_hi - res_lo), abs(gap_hi - gap_lo))
        pairs.append(("AC-5", gap5, _tol("1e-55", high)))
        err_lo, err_hi = _run_ac6(BITS), _run_ac6(high)
        gap6 = max(abs(err_hi[n] - err_lo[n]) for n in range(4, 17))
        pairs.append(("AC-6", gap6, _tol("1e-60", high)))
        ok = all(gap <= tol for _, gap, tol in pairs)
        worst_name, worst_gap, _ = max(pairs, key=lambda item: item[1])
    _report(
        "AC-10 precision robustness",
        ok,
        "AC-3..AC-6 rerun at 512 bits, largest magnitude shift %.3e (%s)"
        % (float(worst_gap), worst_name),
    )
