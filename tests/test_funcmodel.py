"""Two-variable series, line restrictions, and projection tests."""

import json
import pickle
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import workprec

from lineinterp import (
    ApComplex,
    ConfigError,
    ParseError,
    TaylorSeries2,
    analytic_series,
    eval2,
    exp_sum_series,
    expcos_series,
    project_to_line,
    restrict_to_line,
    series_from_spec,
    ulps_apart,
)
from support import (
    QC,
    ap_gap,
    make_complex,
    qc_poly2_eval,
    qc_pow,
    qc_to_ap,
    rand_poly2_coeffs,
    rand_qc,
)


def series_from_qc(coeffs_qc, max_order=None, bits=256):
    if max_order is None:
        max_order = max((k + l for k, l in coeffs_qc), default=0)
    return TaylorSeries2(
        {kl: qc_to_ap(v, bits) for kl, v in coeffs_qc.items()}, max_order, bits
    )


def test_eval2_polynomial_matches_exact():
    rng = random.Random(101)
    for _ in range(20):
        coeffs = rand_poly2_coeffs(rng, rng.randint(0, 6))
        f = series_from_qc(coeffs)
        q1, q2 = rand_qc(rng), rand_qc(rng)
        got = eval2(f, qc_to_ap(q1), qc_to_ap(q2))
        want = qc_poly2_eval(coeffs, q1, q2)
        assert ap_gap(got, qc_to_ap(want, 320)) <= mpmath.ldexp(1, -200)


def test_eval2_exp_sum_tail_bound():
    # Truncated exp(z1+z2) at order 20 matches exp(0.3) within the tail.
    f = exp_sum_series(20, 256)
    got = eval2(f, make_complex("0.1"), make_complex("0.2"))
    with workprec(300):
        want = mpmath.exp(mpmath.mpf("0.3"))
        tail = mpmath.mpf("0.3") ** 21 / mpmath.factorial(21) * 2
        assert abs(got.to_mpc() - want) <= tail


def test_eval2_zero_series():
    f = TaylorSeries2({}, 5, 256)
    assert eval2(f, make_complex("1"), make_complex("2")).is_zero()
    assert f.total_degree() == -1


def test_series_rejects_out_of_range_indices():
    with pytest.raises(ConfigError):
        TaylorSeries2({(2, 3): make_complex("1")}, 4, 256)
    with pytest.raises(ConfigError):
        TaylorSeries2({(-1, 0): make_complex("1")}, 4, 256)


def test_series_rounds_every_coefficient_to_its_precision():
    with workprec(512):
        third = mpmath.mpf(1) / 3
        raw = mpmath.mpc(third, -third)
    with workprec(256):
        rounded = +raw
    boxed = ApComplex.from_mpc(raw, 512)
    for value in (boxed, raw):
        series = TaylorSeries2({(1, 0): value}, 1, 256)
        for got in (series, pickle.loads(pickle.dumps(series))):
            assert got.precision_bits == 256
            assert [v._mpc_ for _, v in got.items()] == [rounded._mpc_]
            assert got.coefficient(1, 0) == ApComplex.from_mpc(rounded, 256)


def test_restrict_vertical_axis_picks_second_index():
    # eta = 0 restricts to c_m = a_{0,m}.
    coeffs = {
        (0, 0): make_complex("7"),
        (0, 2): make_complex("-1", "2"),
        (1, 1): make_complex("5"),
        (2, 0): make_complex("3"),
    }
    f = TaylorSeries2(coeffs, 3, 256)
    r = restrict_to_line(f, make_complex("0"))
    assert r.coefficient(0) == make_complex("7")
    assert r.coefficient(1).is_zero()
    assert r.coefficient(2) == make_complex("-1", "2")
    assert r.coefficient(3).is_zero()


def test_restrict_product_example():
    # f = z1 * z2 on the line with slope 2: c_2 = 2, everything else 0.
    f = TaylorSeries2({(1, 1): make_complex("1")}, 2, 256)
    r = restrict_to_line(f, make_complex("2"))
    assert r.coefficient(0).is_zero()
    assert r.coefficient(1).is_zero()
    assert r.coefficient(2) == make_complex("2")


def test_restrict_matches_exact_substitution():
    rng = random.Random(111)
    for _ in range(15):
        coeffs = rand_poly2_coeffs(rng, rng.randint(0, 6))
        f = series_from_qc(coeffs)
        qeta = rand_qc(rng)
        r = restrict_to_line(f, qc_to_ap(qeta))
        for m in range(f.max_order + 1):
            want = QC.of(0)
            for (k, l), c in coeffs.items():
                if k + l == m:
                    want = want + c * qc_pow(qeta, k)
            got = r.coefficient(m)
            assert ap_gap(got, qc_to_ap(want, 320)) <= mpmath.ldexp(1, -200)


def test_restriction_value_is_function_on_line():
    # f(eta*v, v) equals the restriction series at v.
    rng = random.Random(121)
    coeffs = rand_poly2_coeffs(rng, 5)
    f = series_from_qc(coeffs)
    qeta, qv = rand_qc(rng), rand_qc(rng)
    r = restrict_to_line(f, qc_to_ap(qeta))
    lhs = analytic_series(r.coeffs)(qc_to_ap(qv))
    rhs = eval2(f, qc_to_ap(qeta * qv), qc_to_ap(qv))
    assert ap_gap(lhs, rhs) <= mpmath.ldexp(1, -200)


def test_restriction_linearity():
    rng = random.Random(131)
    ca = rand_poly2_coeffs(rng, 4)
    cb = rand_poly2_coeffs(rng, 4)
    fa, fb = series_from_qc(ca), series_from_qc(cb)
    summed = dict(ca)
    for kl, v in cb.items():
        summed[kl] = summed.get(kl, QC.of(0)) + v
    fs = series_from_qc(summed, max_order=4)
    eta = qc_to_ap(rand_qc(rng))
    ra, rb, rs = (
        restrict_to_line(fa, eta),
        restrict_to_line(fb, eta),
        restrict_to_line(fs, eta),
    )
    for m in range(5):
        va, vb, vs = (r.coefficient(m).to_mpc() for r in (ra, rb, rs))
        with workprec(256):
            gap = abs(va + vb - vs)
        assert gap <= mpmath.ldexp(1, -200)


def test_project_examples():
    w, point = project_to_line(make_complex("1"), make_complex("1"), make_complex("0"))
    assert w == make_complex("0.5")
    assert point == (make_complex("0.5"), make_complex("0.5"))

    w, point = project_to_line(
        make_complex("0", "1"), make_complex("0"), make_complex("1")
    )
    assert w == make_complex("0.5")
    assert point == (make_complex("0", "0.5"), make_complex("0.5"))


def test_projection_point_lies_on_line():
    rng = random.Random(141)
    for _ in range(30):
        eta = qc_to_ap(rand_qc(rng))
        z1, z2 = qc_to_ap(rand_qc(rng)), qc_to_ap(rand_qc(rng))
        _, (p1, p2) = project_to_line(eta, z1, z2)
        with workprec(256):
            gap = abs(p1.to_mpc() - eta.to_mpc() * p2.to_mpc())
        assert gap <= mpmath.ldexp(1, -240)


def test_projection_is_idempotent():
    rng = random.Random(151)
    for _ in range(30):
        eta = qc_to_ap(rand_qc(rng))
        z1, z2 = qc_to_ap(rand_qc(rng)), qc_to_ap(rand_qc(rng))
        w, (p1, p2) = project_to_line(eta, z1, z2)
        w2, _ = project_to_line(eta, p1, p2)
        assert float(ulps_apart(w, w2)) <= 8.0 or ap_gap(w, w2) <= mpmath.ldexp(1, -240)


def test_projection_residual_is_orthogonal():
    # <z - P(z), (eta, 1)> = 0 in the Hermitian inner product.
    rng = random.Random(161)
    for _ in range(30):
        eta = qc_to_ap(rand_qc(rng))
        z1, z2 = qc_to_ap(rand_qc(rng)), qc_to_ap(rand_qc(rng))
        _, (p1, p2) = project_to_line(eta, z1, z2)
        with workprec(256):
            w1, w2 = z1.to_mpc(), z2.to_mpc()
            inner = (w1 - p1.to_mpc()) * eta.to_mpc().conjugate() + (w2 - p2.to_mpc())
            assert abs(inner) <= mpmath.ldexp(1, -240)


def test_projection_parameter_bounded_by_norm():
    # |w| <= ||z|| by Cauchy-Schwarz, exercised over exact rationals.
    rng = random.Random(171)
    for _ in range(60):
        qeta, q1, q2 = rand_qc(rng), rand_qc(rng), rand_qc(rng)
        denom = qeta.abs2() + 1
        w = (q2 + qeta.conj() * q1) / QC(Fraction(denom), Fraction(0))
        assert w.abs2() <= q1.abs2() + q2.abs2()


def test_function_json_round_trip():
    rng = random.Random(181)
    coeffs = rand_poly2_coeffs(rng, 5)
    f = series_from_qc(coeffs)
    blob = json.dumps(f.to_json_obj())
    back = TaylorSeries2.from_json_obj(json.loads(blob), 256)
    assert back.max_order == f.max_order
    for (k, l), v in f.items():
        assert back.coefficient(k, l) == ApComplex.from_mpc(v, 256)


@pytest.mark.parametrize(
    "payload",
    [
        {"coeffs": []},
        {"max_order": "4", "coeffs": []},
        {"max_order": 4},
        {"max_order": 4, "coeffs": [{"k": 0, "l": 0, "re": "1"}]},
        {"max_order": 4, "coeffs": [{"k": 0.5, "l": 0, "re": "1", "im": "0"}]},
        {
            "max_order": 4,
            "coeffs": [
                {"k": 0, "l": 0, "re": "1", "im": "0"},
                {"k": 0, "l": 0, "re": "2", "im": "0"},
            ],
        },
        {"max_order": 4, "coeffs": [{"k": True, "l": False, "re": "1", "im": "0"}]},
        {"max_order": 4, "coeffs": [{"k": 0, "l": True, "re": "1", "im": "0"}]},
    ],
)
def test_function_json_rejects_malformed(payload):
    with pytest.raises(ParseError):
        TaylorSeries2.from_json_obj(payload, 256)


def test_poly_spec_parses_inline_list():
    f = series_from_spec("poly:1,0,1,0;0,1,1,0", 256)
    assert f.max_order == 1
    assert f.coefficient(1, 0) == make_complex("1")
    assert f.coefficient(0, 1) == make_complex("1")
    got = eval2(f, make_complex("2"), make_complex("3"))
    assert got == make_complex("5")


def test_exp_sum_symmetry_and_values():
    f = exp_sum_series(6, 256)
    for k in range(4):
        for l in range(4):
            assert f.coefficient(k, l) == f.coefficient(l, k)
    with workprec(256):
        assert f.coefficient(2, 3).to_mpc() == mpmath.mpf(1) / 12


def test_expcos_kills_odd_second_index():
    f = expcos_series(7, 256)
    for k in range(4):
        for l in range(1, 8 - k, 2):
            assert f.coefficient(k, l).is_zero()
    # cos term signs alternate: l = 2 negative, l = 4 positive.
    assert f.coefficient(0, 2) == make_complex("-0.5")
    with workprec(256):
        assert f.coefficient(0, 4).to_mpc() == mpmath.mpf(1) / 24


@pytest.mark.parametrize(
    "spec",
    ["poly:", "poly:1,2,3", "exp_sum:x", "exp_sum:-1", "mystery:4", "exp_sum"],
)
def test_bad_specs_rejected(spec):
    with pytest.raises(ParseError):
        series_from_spec(spec, 256)


def test_truncation_drops_high_degrees():
    f = series_from_spec("poly:0,0,1,0;2,1,1,0;0,4,2,0", 256)
    g = f.truncated(2)
    assert g.max_order == 2
    assert g.coefficient(0, 0) == make_complex("1")
    assert g.coefficient(2, 1).is_zero()
    assert g.total_degree() == 0
