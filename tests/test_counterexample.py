"""Tests for the adversarial axis-node construction and its verifier.

The frozen stage-1 values for the bounded conjugation kernel are checked
against an exact rational recomputation of the divided difference, and the
anti-holomorphic derivative is checked against the exact product formula
over random dyadic prefixes. Structural invariants (axis membership,
modulus ordering, convergence bound) are asserted exactly.
"""

import json
import random
from fractions import Fraction

import mpmath
import pytest
from click.testing import CliRunner
from mpmath import mpc, mpf, workprec

from lineinterp import (
    AdversarialSequence,
    ApComplex,
    ConfigError,
    ConstructionFailureError,
    DomainError,
    EscalationPolicy,
    NodeDistinctnessError,
    NodeSequence,
    ScalarFunction,
    StageRecord,
    UnsuitableKernelError,
    analytic_series,
    build_sequence,
    criterion_profile,
    default_kernel,
    delta,
    delta_table,
    parse_decimal,
    verify_growth,
)
from lineinterp import counterexample
from lineinterp.cli import main
from lineinterp.divdiff import NodeConditioning
from lineinterp.precision import _raw
from support import (
    QC,
    QC_ONE,
    log2_gap_sum_exceeds,
    mpf_to_fraction,
    qc_dd_table,
    qc_to_ap,
    rand_distinct_nodes,
)


def ap(re, im=0, bits=256):
    return ApComplex(re, im, bits)


def qc_conj_kernel(z):
    """Exact rational value of conj(zeta) / (1 + |zeta|^2)."""
    denom = QC(1 + z.abs2(), Fraction(0))
    return z.conj() / denom


def assert_qc_close(got, want_qc, log2_tol):
    diff = QC(mpf_to_fraction(got.real), mpf_to_fraction(got.imag)) - want_qc
    assert diff.abs2() <= Fraction(1, 2 ** (-2 * log2_tol))


def curved_kernel(lam_re, lam_im, nu_re="0"):
    """conj(z)/(1+|z|^2) + lam z^2 + nu z^2 conj(z)^2, closed-form d_zbar."""
    with workprec(256):
        lam = mpc(mpf(lam_re), mpf(lam_im))
        nu = mpc(mpf(nu_re), 0)

    def fn(w):
        mod2 = 1 + w.real**2 + w.imag**2
        return w.conjugate() / mod2 + lam * w * w + nu * (w * w) * w.conjugate() ** 2

    def conj_derivative(w):
        mod2 = 1 + w.real**2 + w.imag**2
        return 1 / mod2**2 + 2 * nu * w * w * w.conjugate()

    return ScalarFunction(fn=fn, kind="composite", conj_derivative=conj_derivative)


@pytest.fixture(scope="module")
def seq3():
    return build_sequence(default_kernel(), 3)


@pytest.fixture(scope="module")
def seq5():
    return build_sequence(default_kernel(), 5)


# -- kernel and Wirtinger derivatives ---------------------------------------


def test_default_kernel_frozen_values():
    f = default_kernel()
    assert f.kind == "conjugate-kernel"
    with workprec(256):
        at0 = f.raw(mpc(0))
        assert at0.real == 0 and at0.imag == 0
        at1 = f.raw(mpc(1))
        assert at1.real == mpf("0.5") and at1.imag == 0
        assert f.conj_derivative(mpc(0)) == 1
        assert f.conj_derivative(mpc(1)) == mpf("0.25")


def wirtinger(*prefix):
    """(d_z, d_zbar) of the default kernel over a raw prefix at 256 bits, as stages run it."""
    f = default_kernel()
    with workprec(256):
        zs = [mpc(z) for z in prefix]
        conditioning, diag = counterexample._extended(f, NodeConditioning((), 256), [], zs)
        cd_zero = mpc(f.conj_derivative(mpc(0)))
        return counterexample._wirtinger(f, cd_zero, conditioning, diag, 256)


def test_wirtinger_product_formula_frozen():
    assert wirtinger(1)[1] == -1
    assert wirtinger(1, -1)[1] == -1
    assert wirtinger(0.5)[1] == -2


def test_wirtinger_dz_finite_differences():
    tol = mpmath.ldexp(1, -140)
    # no prefix: d/dz of the kernel itself vanishes at 0
    d_z, d_zbar = wirtinger()
    assert d_zbar == 1
    with workprec(256):
        assert abs(d_z) <= tol
    # one node a: hand derivative is f(a)/a^2
    d_z, _ = wirtinger(1)
    with workprec(256):
        assert abs(d_z - mpf("0.5")) <= tol
    d_z, _ = wirtinger(0.5)
    with workprec(256):
        assert abs(d_z - mpf(8) / 5) <= tol


def test_wirtinger_dzbar_matches_exact_product_over_random_prefixes():
    rng = random.Random(1207)
    for _ in range(12):
        count = rng.randint(1, 6)
        qnodes = rand_distinct_nodes(rng, count)
        # keep the prefix away from the expansion point at 0
        if any(q.abs2() < Fraction(1, 1024) for q in qnodes):
            continue
        _, d_zbar = wirtinger(*(qc_to_ap(q).to_mpc() for q in qnodes))
        want = QC_ONE
        for q in qnodes:
            want = want / (QC(Fraction(0), Fraction(0)) - q)
        assert_qc_close(d_zbar, want, -200)


def random_axis_nodes(rng, count, bits, cluster_exp=None):
    """Distinct dyadic nodes on the real or imaginary axis, away from 0.

    With cluster_exp, the nodes sit on one half-axis within a few multiples
    of 2^-cluster_exp of one random center.
    """
    with workprec(bits):
        center = mpf(rng.randint(32, 96)) / 64
        sign, imaginary = rng.choice([-1, 1]), rng.random() < 0.5
        out = []
        while len(out) < count:
            if cluster_exp is None:
                value = mpf(rng.randint(4, 255)) / 128
                sign, imaginary = rng.choice([-1, 1]), rng.random() < 0.5
            else:
                value = center + mpmath.ldexp(rng.randint(1, 255), -cluster_exp)
            value = sign * value
            node = ap(0, value, bits) if imaginary else ap(value, 0, bits)
            if node not in out:
                out.append(node)
    return out


# -- cancellation gate -----------------------------------------------------


def count_modulus_formations(monkeypatch):
    """A list that grows by one entry per modulus NodeConditioning.gaps forms."""
    formed = []
    gaps = NodeConditioning.gaps.fget

    def counting(record):
        out = gaps(record)
        formed.extend(out)
        return out

    monkeypatch.setattr(NodeConditioning, "gaps", property(counting))
    return formed


@pytest.mark.parametrize("bits", [64, 256, 8192])
def test_cancellation_gate_boundary_uses_full_precision_fallback(bits, monkeypatch):
    # only the fallback takes logarithms at working precision
    exact_log = mpmath.log
    logged = []

    def counting(x, base):
        logged.append((x, mpmath.mp.prec))
        return exact_log(x, base)

    monkeypatch.setattr(mpmath, "log", counting)
    formed = count_modulus_formations(monkeypatch)
    fallbacks = []
    for shift, escalates in ((bits // 2, False), (bits // 2 + 1, True)):
        with workprec(bits):
            gap = mpmath.ldexp(1, -shift)
            pairs = ([mpc(gap, 0), mpc(2 * gap, 0)], [mpc(0, 1), mpc(0, 1 + gap)])
        for pair in pairs:
            record = NodeConditioning(pair, bits)
            del logged[:]
            del formed[:]
            assert record.cancellation_exceeds(bits / 2) is escalates
            if logged:
                # the fallback takes the log of every modulus of the record's gaps
                assert len(logged) == len(formed) == 1
                assert [x for x, _ in logged] == [g for _, _, g in record.gaps]
                fallbacks.append(logged[0][1])
            else:
                # the float path reads the sums of squares and forms no modulus
                assert formed == []
    # a sum equal to bits/2 sits inside the guard band; one bit more does not
    assert fallbacks == [bits] * 2


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_cancellation_gate_matches_full_precision_sum(bits, monkeypatch):
    formed = count_modulus_formations(monkeypatch)
    rng = random.Random(bits)
    decisions = set()
    float_decided = 0
    for trial in range(60):
        count = rng.randint(2, 9)
        pairs = count * (count - 1) // 2
        if trial % 2:
            # clustered, so the sum lands near bits/2
            spread = max(1, bits // (2 * pairs) + rng.randint(-4, 12))
            nodes = random_axis_nodes(rng, count, bits, cluster_exp=spread)
        else:
            nodes = random_axis_nodes(rng, count, bits)
        zs = [n.to_mpc() for n in nodes]
        want = log2_gap_sum_exceeds(zs, bits)
        record = NodeConditioning(zs, bits)
        del formed[:]
        assert record.cancellation_exceeds(bits / 2) is want
        decisions.add(want)
        float_decided += not formed
    assert decisions == {False, True}
    # outside the guard band no modulus is formed
    assert float_decided >= 50


# -- appended diagonal -----------------------------------------------------


@pytest.mark.parametrize("bits", [256, 4096])
def test_appended_diagonal_matches_full_table_bit_for_bit(bits):
    rng = random.Random(bits + 17)
    kernels = [default_kernel(), curved_kernel("0", "1")]
    for trial in range(12):
        f = kernels[trial % 2]
        prefix = random_axis_nodes(rng, rng.randint(0, 9), bits)
        with workprec(bits):
            step = mpmath.ldexp(rng.choice([-1, 1]) * rng.randint(1, 15), -40)
        probe = ap(step, 0, bits) if trial % 3 else ap(0, step, bits)
        want = delta(f, prefix + [probe], len(prefix), bits).to_mpc()
        with workprec(bits):
            zs = [node.to_mpc() for node in prefix]
            # the prefix appended node by node, then the probe
            empty = NodeConditioning((), bits)
            conditioning, diag = counterexample._extended(f, empty, [], zs)
            _, diag = counterexample._extended(f, conditioning, diag, [probe.to_mpc()])
            got = _raw(diag[-1])
        assert got.real == want.real and got.imag == want.imag


# -- construction ------------------------------------------------------------


def test_single_stage_frozen_nodes_and_certificate():
    seq = build_sequence(default_kernel(), 1)
    assert len(seq.nodes) == 3 and seq.stages == 1
    half = mpf("0.5")
    quarter = mpf("0.25")
    assert seq.nodes[0].re == half and seq.nodes[0].im == 0
    assert seq.nodes[1].re == 0 and seq.nodes[1].im == quarter
    assert seq.nodes[2].re == 0 and seq.nodes[2].im == -quarter
    rec = seq.stage_log[0]
    assert rec.stage == 1 and rec.target == 1
    assert rec.phase_case == "imaginary-pair"
    assert rec.shrink_steps == 0
    assert rec.achieved >= 1


def test_single_stage_certificate_matches_exact_rational_table():
    seq = build_sequence(default_kernel(), 1)
    qnodes = [
        QC(Fraction(1, 2), Fraction(0)),
        QC(Fraction(0), Fraction(1, 4)),
        QC(Fraction(0), Fraction(-1, 4)),
    ]
    values = [qc_conj_kernel(q) for q in qnodes]
    want_sq = qc_dd_table(values, qnodes)[2][0].abs2()
    with workprec(320):
        want = mpmath.sqrt(mpf(want_sq.numerator) / mpf(want_sq.denominator))
        assert abs(seq.stage_log[0].achieved - want) <= mpmath.ldexp(1, -240)


def test_three_stage_structural_invariants(seq3):
    assert len(seq3.nodes) == 9 and seq3.stages == 3
    for entry in seq3.to_json_obj()["nodes"]:
        assert entry["axis"] in ("real", "imaginary")
    for node in seq3.nodes:
        assert node.re * node.im == 0
    with workprec(seq3.precision_bits):
        moduli = [n.magnitude() for n in seq3.nodes]
    for s in (1, 2, 3):
        lead, pair_a, pair_b = moduli[3 * s - 3 : 3 * s]
        assert 0 < pair_a < lead and 0 < pair_b < lead
        if s > 1:
            assert lead < min(moduli[: 3 * s - 3])
        # convergence bound, compared exactly in the rationals
        assert mpf_to_fraction(lead) < Fraction(1, 3 * s - 2)


def test_three_stage_certificates_and_direct_recomputation(seq3):
    f = default_kernel()
    assert [rec.target for rec in seq3.stage_log] == [1, 4, 27]
    assert [rec.stage for rec in seq3.stage_log] == [1, 2, 3]
    for rec in seq3.stage_log:
        assert rec.achieved >= rec.target
        assert rec.phase_case in ("real-pair", "imaginary-pair", "split-pair")
        s = rec.stage
        assert seq3.nodes.zs[3 * s - 3] == rec.eta_first
        assert seq3.nodes.zs[3 * s - 2] == rec.eta_second
        assert seq3.nodes.zs[3 * s - 1] == rec.eta_third
    direct = delta(f, seq3.nodes, 8, seq3.precision_bits).magnitude()
    assert direct >= 27


def test_build_validation_and_unsuitable_kernels():
    f = default_kernel()
    with pytest.raises(DomainError):
        build_sequence(f, 0)
    with pytest.raises(DomainError):
        build_sequence(f, "3")
    with pytest.raises(ConfigError):
        build_sequence(f, 2, policy="fast")
    with pytest.raises(ConfigError):
        build_sequence("not a kernel", 2)
    # holomorphic kernels carry a closed-form zero conjugate derivative
    with pytest.raises(UnsuitableKernelError):
        build_sequence(analytic_series([ap(0), ap(1)]), 1)
    with pytest.raises(ConfigError):
        build_sequence(ScalarFunction(fn=lambda w: w.conjugate()), 1)


def test_escalation_policy_validation():
    with pytest.raises(ConfigError):
        EscalationPolicy(start_bits=256, max_bits=128)
    with pytest.raises(ConfigError):
        EscalationPolicy(start_bits=32)


def test_construction_failure_carries_stage_log():
    with pytest.raises(ConstructionFailureError) as info:
        build_sequence(default_kernel(), 3, EscalationPolicy(start_bits=64, max_bits=64))
    exc = info.value
    assert "stage 3" in str(exc)
    assert len(exc.stage_log) == 2
    for rec in exc.stage_log:
        assert isinstance(rec, StageRecord)


def test_escalation_raises_precision_and_still_verifies():
    f = default_kernel()
    seq = build_sequence(f, 3, EscalationPolicy(start_bits=64, max_bits=4096))
    assert [rec.precision_bits for rec in seq.stage_log] == [64, 64, 256]
    assert seq.precision_bits == 256
    assert verify_growth(seq, f).all_passed


def test_real_pair_phase_case():
    # lam = -18/5 makes d_z / d_zbar land on +1 at the stage-1 opening 1/2
    f = curved_kernel("-3.6", "0")
    seq = build_sequence(f, 1)
    rec = seq.stage_log[0]
    assert rec.phase_case == "real-pair"
    assert rec.eta_second.imag == 0 and rec.eta_third.imag == 0
    assert rec.eta_third.real == -rec.eta_second.real
    assert verify_growth(seq, f).all_passed


def test_split_pair_phase_case():
    f = curved_kernel("0", "1")
    seq = build_sequence(f, 2)
    assert [rec.phase_case for rec in seq.stage_log] == ["split-pair", "split-pair"]
    for rec in seq.stage_log:
        assert rec.eta_second.imag == 0 and rec.eta_second.real != 0
        assert rec.eta_third.real == 0 and rec.eta_third.imag != 0
    assert verify_growth(seq, f).all_passed


def test_shrink_loop_engages_on_flat_start():
    # tuned so the first pair radius misses the target and one halving lands
    f = curved_kernel("-5.2", "0", "16")
    seq = build_sequence(f, 1)
    rec = seq.stage_log[0]
    assert rec.phase_case == "imaginary-pair"
    assert rec.shrink_steps == 1
    eighth = mpf("0.125")
    assert rec.eta_second.imag == eighth and rec.eta_third.imag == -eighth
    assert rec.achieved >= 1
    assert verify_growth(seq, f).all_passed


def test_build_is_deterministic(seq3):
    again = build_sequence(default_kernel(), 3)
    assert json.dumps(again.to_json_obj()) == json.dumps(seq3.to_json_obj())


# -- verification ------------------------------------------------------------


def test_verify_growth_passes_and_uses_guard_bits(seq3):
    report = verify_growth(seq3, default_kernel())
    assert report.all_passed
    assert [row.stage for row in report.rows] == [1, 2, 3]
    for row, rec in zip(report.rows, seq3.stage_log):
        assert row.passed and row.note == ""
        assert row.target == rec.target
        assert row.precision_bits == rec.precision_bits + 64
        assert row.achieved >= row.target


def test_verify_growth_flags_truncated_sequence(seq3):
    trimmed = AdversarialSequence(
        nodes=seq3.nodes.first(8),
        stage_log=seq3.stage_log,
        kernel_kind=seq3.kernel_kind,
        precision_bits=seq3.precision_bits,
    )
    report = verify_growth(trimmed, default_kernel())
    assert not report.all_passed
    assert [row.passed for row in report.rows] == [True, True, False]
    assert report.rows[2].note == "missing stage nodes"


def test_verify_growth_flags_off_axis_node(seq3):
    nodes = list(seq3.nodes)
    last = nodes[-1]
    with workprec(seq3.precision_bits):
        if last.im == 0:
            nodes[-1] = ApComplex(last.re, mpf("0.001"), seq3.precision_bits)
        else:
            nodes[-1] = ApComplex(mpf("0.001"), last.im, seq3.precision_bits)
    tampered = AdversarialSequence(
        nodes=NodeSequence(nodes, seq3.precision_bits),
        stage_log=seq3.stage_log,
        kernel_kind=seq3.kernel_kind,
        precision_bits=seq3.precision_bits,
    )
    report = verify_growth(tampered, default_kernel())
    assert [row.passed for row in report.rows] == [True, True, False]
    assert "node 9 off-axis" in report.rows[2].note


@pytest.mark.parametrize("short", [False, True], ids=["at-target", "just-below"])
def test_verify_growth_fails_a_stage_whose_magnitude_misses_its_target(seq3, monkeypatch, short):
    # the stage-3 entry of the one leading column, patched to s^s = 27 or just below it
    assert {rec.precision_bits for rec in seq3.stage_log} == {seq3.precision_bits}
    leading_column = counterexample._leading_column

    def patched(values, conditioning):
        column = leading_column(values, conditioning)
        with workprec(conditioning.precision_bits):
            column[8] = mpc(27) * (1 - mpmath.ldexp(1, -100)) if short else mpc(27)
        return column

    monkeypatch.setattr(counterexample, "_leading_column", patched)
    report = verify_growth(seq3, default_kernel())
    assert [row.passed for row in report.rows] == [True, True, not short]
    assert [row.note for row in report.rows] == ["", "", ""]


@pytest.mark.parametrize("lead, opens", [("1", False), ("0.99999999", True)])
def test_verify_growth_fails_a_stage_opening_at_one_over_3s_minus_2(lead, opens):
    # a stage-1 artifact whose leading node sits on 1/(3s - 2) = 1 or just
    # inside it; the magnitude clears s^s = 1 either way
    doc = build_sequence(default_kernel(), 1).to_json_obj()
    doc["nodes"][0]["re"] = lead
    (row,) = verify_growth(AdversarialSequence.from_json_obj(doc), default_kernel()).rows
    assert row.achieved >= row.target
    assert row.passed is opens
    assert row.note == ("" if opens else "stage opening at or above 1/(3s-2)")


@pytest.mark.parametrize("second, inside", [("0.5", False), ("0.49999999", True)])
def test_verify_growth_fails_a_pair_modulus_at_the_stage_opening(second, inside):
    # a stage-1 artifact (nodes 0.5, 0.25i, -0.25i) whose second node sits on
    # the opening |0.5| or just inside it; the magnitude clears s^s = 1 either way
    doc = build_sequence(default_kernel(), 1).to_json_obj()
    assert [(n["re"], n["im"]) for n in doc["nodes"]] == [("0.5", "0"), ("0", "0.25"), ("0", "-0.25")]
    doc["nodes"][1]["im"] = second
    (row,) = verify_growth(AdversarialSequence.from_json_obj(doc), default_kernel()).rows
    assert row.achieved >= row.target
    assert row.passed is inside
    assert row.note == ("" if inside else "pair moduli not inside the stage opening")


@pytest.mark.parametrize("third, below", [("-0.125", False), ("-0.13", True)])
def test_verify_growth_fails_a_stage_opening_not_below_earlier_moduli(third, below):
    # a stage-2 artifact whose stage-1 node 2 moves from -0.25i to the stage-2
    # opening 0.125 in modulus, or just outside it; stage 1 stays well formed,
    # and both magnitudes clear their targets either way
    doc = build_sequence(default_kernel(), 2).to_json_obj()
    assert [n["re"] for n in doc["nodes"][3:]] == ["0.125", "0", "0"]
    doc["nodes"][2]["im"] = third
    rows = verify_growth(AdversarialSequence.from_json_obj(doc), default_kernel()).rows
    assert all(row.achieved >= row.target for row in rows)
    assert [row.passed for row in rows] == [True, below]
    assert [row.note for row in rows] == ["", "" if below else "stage opening not below earlier moduli"]


def test_verify_growth_rejects_nodes_that_coincide_at_the_verification_bits(seq3):
    # Nodes 7 and 8 differ only past the 256 + 64 verification bits of every
    # stage, so they coincide once rounded for stage 3.
    wide = 1024
    nodes = list(seq3.nodes.zs)
    with workprec(wide):
        nodes[8] = mpc(0, nodes[7].imag * (1 + mpf(2) ** -500))
    tampered = AdversarialSequence(
        nodes=NodeSequence(nodes, wide),
        stage_log=seq3.stage_log,
        kernel_kind=seq3.kernel_kind,
        precision_bits=seq3.precision_bits,
    )
    with pytest.raises(NodeDistinctnessError, match="nodes 7 and 8 coincide exactly"):
        verify_growth(tampered, default_kernel())


def test_prebuilt_sequences_are_not_unboxed_again(seq3, monkeypatch):
    # Computations read NodeSequence.zs. Only building a sequence unboxes its
    # nodes: verify_growth builds one per verification precision, of the
    # longest stage prefix at those bits, and slices it for each stage.
    unboxing = {"all": 0, "outside construction": 0}
    building = []
    to_mpc, init = ApComplex.to_mpc, NodeSequence.__init__

    def counted_to_mpc(self):
        unboxing["all"] += 1
        if not building:
            unboxing["outside construction"] += 1
        return to_mpc(self)

    def marked_init(self, *args, **kwargs):
        building.append(self)
        try:
            init(self, *args, **kwargs)
        finally:
            building.pop()

    nodes = seq3.nodes
    monkeypatch.setattr(ApComplex, "to_mpc", counted_to_mpc)
    monkeypatch.setattr(NodeSequence, "__init__", marked_init)
    criterion_profile(nodes, len(nodes) - 1, 3)
    delta_table(default_kernel(), nodes)
    assert unboxing == {"all": 0, "outside construction": 0}
    verify_growth(seq3, default_kernel())
    assert {rec.precision_bits for rec in seq3.stage_log} == {seq3.precision_bits}
    assert unboxing == {"all": 0, "outside construction": 0}


def test_verify_growth_validation(seq3):
    with pytest.raises(ConfigError):
        verify_growth(list(seq3.nodes), default_kernel())


# -- serialization -----------------------------------------------------------


def test_sequence_json_roundtrip(seq3):
    payload = json.loads(json.dumps(seq3.to_json_obj()))
    back = AdversarialSequence.from_json_obj(payload)
    assert back.precision_bits == seq3.precision_bits
    assert back.kernel_kind == seq3.kernel_kind
    assert len(back.nodes) == len(seq3.nodes)
    for mine, theirs in zip(seq3.nodes, back.nodes):
        assert mine.re == theirs.re and mine.im == theirs.im
    for mine, theirs in zip(seq3.stage_log, back.stage_log):
        assert mine.stage == theirs.stage
        assert mine.achieved == theirs.achieved
        assert mine.target == theirs.target
        assert mine.phase_case == theirs.phase_case
        assert mine.precision_bits == theirs.precision_bits
    # the payload stays loadable as a plain node file
    plain = NodeSequence.from_json_obj(payload, seq3.precision_bits)
    assert len(plain) == len(seq3.nodes)
    for entry in payload["nodes"]:
        assert entry["axis"] in ("real", "imaginary")


def test_growth_report_serialization(seq3):
    # The growth report is serialized by the counterexample command, as CSV
    # and as JSON; both must carry every stage row exactly.
    report = verify_growth(seq3, default_kernel())
    runner = CliRunner()
    csv_result = runner.invoke(main, ["counterexample", "--stages", "3"])
    assert csv_result.exit_code == 0
    lines = csv_result.output.strip().split("\n")
    assert lines[0] == "p,achieved,target,precision_bits"
    assert len(lines) == 4
    for row, line in zip(report.rows, lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == row.stage
        assert parse_decimal(fields[1], row.precision_bits) == row.achieved
        assert int(fields[2]) == row.target
        assert int(fields[3]) == row.precision_bits
    json_result = runner.invoke(
        main, ["counterexample", "--stages", "3", "--format", "json"]
    )
    assert json_result.exit_code == 0
    obj = json.loads(json_result.output)["growth"]
    assert obj["all_passed"] is True
    assert [r["stage"] for r in obj["rows"]] == [1, 2, 3]
    for row, fields in zip(report.rows, obj["rows"]):
        assert parse_decimal(fields["achieved"], row.precision_bits) == row.achieved


# -- criterion refutation ----------------------------------------------------


def test_sequence_refutes_uniform_growth_bound(seq5):
    profile = criterion_profile(
        seq5.nodes, p_max=len(seq5.nodes) - 1, q_max=1, precision_bits=seq5.precision_bits
    )
    with workprec(seq5.precision_bits):
        slack = 1 - mpmath.ldexp(1, -100)
        for rec in seq5.stage_log:
            raw = profile.raw[3 * rec.stage - 1][1]
            assert raw >= rec.target * slack
    top = max(profile.normalized[p][1] for p in range(len(seq5.nodes)))
    assert top > 10
