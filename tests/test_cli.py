"""Subcommand behavior: tables, artifacts, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import time

import pytest
from click.testing import CliRunner
from mpmath import mpf, workprec

from lineinterp import (
    AdversarialSequence,
    ApComplex,
    NodeSequence,
    build_sequence,
    circle_family,
    conjugation,
    default_kernel,
    delta,
    exp_sum_series,
    generate_nodes,
    identity_report,
    parse_decimal,
    verify_growth,
)
from lineinterp.cli import _emit, main
from lineinterp.divdiff import NodeConditioning

BITS = 256


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def node_file(tmp_path):
    payload = {
        "nodes": [
            {"re": "0.5", "im": "0"},
            {"re": "0", "im": "0.25"},
            {"re": "-0.25", "im": "0"},
            {"re": "0", "im": "-0.125"},
            {"re": "0.125", "im": "0"},
        ]
    }
    path = tmp_path / "nodes.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def integer_node_file(tmp_path):
    payload = {"nodes": [{"re": str(j), "im": "0"} for j in range(1, 13)]}
    path = tmp_path / "integers.json"
    path.write_text(json.dumps(payload))
    return str(path)


def write_nodes(tmp_path, *nodes):
    """A node file of (re, im) decimal string pairs."""
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"nodes": [{"re": re, "im": im} for re, im in nodes]}))
    return str(path)


def dec(text):
    with workprec(BITS):
        return parse_decimal(text, BITS)


def csv_rows(text):
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


POLY = "builtin:poly:0,0,1,0;1,1,2,0;3,0,0,-1"
SMALL_GRID = "3x3@0.25+2"


# -- dd ------------------------------------------------------------------------------


def test_dd_csv_matches_direct_delta(runner, node_file):
    result = runner.invoke(main, ["dd", "--nodes", node_file])
    assert result.exit_code == 0
    header, rows = csv_rows(result.output)
    assert header == ["p", "k", "re", "im"]
    # 5 nodes: triangle with 5+4+3+2+1 entries
    assert len(rows) == 15
    nodes = NodeSequence(
        [
            ApComplex("0.5", 0, BITS),
            ApComplex(0, "0.25", BITS),
            ApComplex("-0.25", 0, BITS),
        ],
        BITS,
    )
    want = delta(conjugation(), nodes, 2, BITS)
    got = next(r for r in rows if r[0] == "2" and r[1] == "0")
    with workprec(BITS):
        assert dec(got[2]) == want.re
        assert dec(got[3]) == want.im


def test_dd_conjugation_table_over_three_nodes(runner, tmp_path):
    nodes = write_nodes(tmp_path, ("1", "0"), ("0", "1"), ("-1", "0"))
    result = runner.invoke(main, ["dd", "--nodes", nodes, "--kernel", "conjugation"])
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0] == "p,k,re,im"
    assert len(lines) == 1 + 3 + 2 + 1
    # Top entry is the frozen order-2 value i.
    assert lines[-1] == "2,0,0,1"


def test_dd_json_triangle_shape(runner, node_file):
    result = runner.invoke(
        main, ["dd", "--nodes", node_file, "--format", "json", "--max-order", "2"]
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert [len(row) for row in obj["rows"]] == [3, 2, 1]
    assert obj["rows"][0][0] == {"re": "0.5", "im": "0"}
    assert obj["precision_bits"] == BITS


def test_dd_and_criterion_json_carry_the_csv_cells(runner, node_file):
    # both layouts are built in the CLI from the same raw results
    dd = ["dd", "--nodes", node_file, "--kernel", "conj-kernel:2"]
    _, rows = csv_rows(runner.invoke(main, dd).output)
    obj = json.loads(runner.invoke(main, dd + ["--format", "json"]).output)
    cells = [(str(p), str(k), v["re"], v["im"])
             for p, row in enumerate(obj["rows"]) for k, v in enumerate(row)]
    assert cells == [tuple(r) for r in rows]
    crit = ["criterion", "--nodes", node_file, "--p-max", "4", "--q-max", "2"]
    _, rows = csv_rows(runner.invoke(main, crit).output)
    obj = json.loads(runner.invoke(main, crit + ["--format", "json"]).output)
    cells = [(str(p), str(q), raw, norm)
             for p, (raw_row, norm_row) in enumerate(zip(obj["raw"], obj["normalized"]))
             for q, (raw, norm) in enumerate(zip(raw_row, norm_row))]
    assert cells == [tuple(r) for r in rows]


def test_dd_kernel_spec_errors(runner, node_file):
    assert runner.invoke(main, ["dd", "--nodes", node_file, "--kernel", "bogus"]).exit_code == 2
    assert (
        runner.invoke(
            main, ["dd", "--nodes", node_file, "--kernel", "conj-kernel:1:2"]
        ).exit_code
        == 2
    )
    assert (
        runner.invoke(main, ["dd", "--nodes", node_file, "--max-order", "9"]).exit_code
        == 2
    )


# -- converge ------------------------------------------------------------------------


def test_converge_reproduces_low_degree_polynomial(runner):
    result = runner.invoke(
        main,
        [
            "converge",
            "--nodes",
            "family:circle:0,0,1:8",
            "--function",
            POLY,
            "--n-min",
            "4",
            "--n-max",
            "6",
            "--grid",
            SMALL_GRID,
        ],
    )
    assert result.exit_code == 0
    header, rows = csv_rows(result.output)
    assert header == ["n", "sup_error", "ratio"]
    assert [r[0] for r in rows] == ["4", "5", "6"]
    with workprec(BITS):
        bound = dec("1e-60")
        for row in rows:
            assert dec(row[1]) <= bound
    # first row has no predecessor, so no ratio
    assert rows[0][2] == ""


def test_converge_error_decreases_for_entire_function(runner):
    result = runner.invoke(
        main,
        [
            "converge",
            "--nodes",
            "family:circle:0,0,1:10",
            "--function",
            "builtin:exp_sum:12",
            "--n-min",
            "2",
            "--n-max",
            "8",
            "--grid",
            SMALL_GRID,
        ],
    )
    assert result.exit_code == 0
    _, rows = csv_rows(result.output)
    with workprec(BITS):
        errors = [dec(r[1]) for r in rows]
        assert all(a > b for a, b in zip(errors, errors[1:]))


def test_converge_is_byte_deterministic(runner):
    args = [
        "converge",
        "--nodes",
        "family:circle:0,0,1:6",
        "--function",
        "builtin:exp_sum:8",
        "--n-min",
        "2",
        "--n-max",
        "4",
        "--grid",
        SMALL_GRID,
        "--seed",
        "11",
    ]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output


def test_converge_config_errors(runner, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text('{"nodes": []}')
    cases = [
        ["converge", "--function", POLY],  # no node source
        ["converge", "--nodes", str(empty), "--function", POLY],
        ["converge", "--nodes", str(tmp_path / "missing.json"), "--function", POLY],
        ["converge", "--nodes", "family:circle:0,0,1:4", "--function", POLY, "--n-max", "9"],
        [
            "converge",
            "--nodes",
            "family:circle:0,0,1:8",
            "--function",
            POLY,
            "--n-min",
            "5",
            "--n-max",
            "3",
        ],
        ["converge", "--nodes", "family:square:0,0,1:8", "--function", POLY],
        ["converge", "--nodes", "family:line:0,1,0", "--function", POLY],  # no count
        ["converge", "--nodes", "family:circle:0,0,1:8", "--function", "builtin:nope:3"],
        ["converge", "--nodes", "family:circle:0,0,1:8", "--function", POLY, "--grid", "5x4@0.5"],
        ["converge", "--nodes", "family:circle:0,0,1:8", "--function", POLY, "--grid", "3x3@0"],
        ["converge", "--nodes", "family:circle:0,0,1:8", "--function", POLY, "--grid", "2x2@-1"],
        ["converge", "--nodes", "family:circle:0,0,1:8", "--function", POLY, "--precision", "32"],
    ]
    for args in cases:
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        if args[2] == "family:line:0,1,0":
            assert "family:line:A,B,C:COUNT" in result.stderr


# -- criterion -----------------------------------------------------------------------


def test_criterion_real_line_q0_rows_vanish(runner):
    result = runner.invoke(
        main,
        ["criterion", "--nodes", "family:line:0,1,0:6", "--p-max", "4", "--q-max", "2"],
    )
    assert result.exit_code == 0
    header, rows = csv_rows(result.output)
    assert header == ["p", "q", "raw", "normalized"]
    for row in rows:
        if row[1] == "0" and int(row[0]) >= 1:
            assert row[2] == "0"


def test_criterion_csv_and_json_layout(runner, tmp_path):
    nodes = write_nodes(tmp_path, ("1", "0"), ("0", "1"), ("-2", "0"))
    argv = ["criterion", "--nodes", nodes, "--p-max", "2", "--q-max", "2"]
    result = runner.invoke(main, argv)
    assert result.exit_code == 0
    lines = result.output.strip().split("\n")
    assert lines[0] == "p,q,raw,normalized"
    assert len(lines) == 1 + 3 * 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert dec(first[2]) == 1
    result = runner.invoke(main, argv + ["--format", "json"])
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["estimate_kind"] == "observed-finite-window"
    dec(obj["r_hat_observed"])  # renders as a valid decimal


def test_criterion_reads_counterexample_artifact(runner, tmp_path):
    artifact = tmp_path / "seq.json"
    build = runner.invoke(
        main, ["counterexample", "--stages", "2", "--out", str(artifact)]
    )
    assert build.exit_code == 0
    result = runner.invoke(
        main,
        ["criterion", "--nodes", str(artifact), "--p-max", "5", "--q-max", "1"],
    )
    assert result.exit_code == 0
    _, rows = csv_rows(result.output)
    growth = next(r for r in rows if r[0] == "5" and r[1] == "1")
    with workprec(BITS):
        # second-stage certificate: the order-5 difference reaches 2^2
        assert dec(growth[2]) >= mpf(4) * (1 - mpf(2) ** -100)


def test_criterion_missing_file_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["criterion", "--nodes", str(tmp_path / "nope.json")])
    assert result.exit_code == 2
    assert "config error" in result.stderr


# -- counterexample ------------------------------------------------------------------


def test_counterexample_artifact_and_growth_table(runner, tmp_path):
    artifact = tmp_path / "seq.json"
    result = runner.invoke(
        main, ["counterexample", "--stages", "2", "--out", str(artifact)]
    )
    assert result.exit_code == 0
    header, rows = csv_rows(result.output)
    assert header == ["p", "achieved", "target", "precision_bits"]
    assert [r[0] for r in rows] == ["1", "2"]
    assert [r[2] for r in rows] == ["1", "4"]
    # each row parses back exactly to the recomputed stage certificates
    report = verify_growth(build_sequence(default_kernel(), 2), default_kernel())
    assert len(rows) == len(report.rows)
    for row, fields in zip(report.rows, rows):
        assert int(fields[0]) == row.stage
        assert parse_decimal(fields[1], row.precision_bits) == row.achieved
        assert int(fields[2]) == row.target
        assert int(fields[3]) == row.precision_bits
    obj = json.loads(artifact.read_text())
    seq = AdversarialSequence.from_json_obj(obj)
    assert len(seq.nodes) == 6
    # the artifact doubles as a node file
    assert len(NodeSequence.from_json_obj(obj, BITS)) == 6


def test_counterexample_json_format(runner):
    result = runner.invoke(
        main, ["counterexample", "--stages", "1", "--format", "json"]
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["growth"]["all_passed"] is True
    assert len(obj["sequence"]["nodes"]) == 3
    report = verify_growth(build_sequence(default_kernel(), 1), default_kernel())
    assert len(obj["growth"]["rows"]) == len(report.rows)
    for row, fields in zip(report.rows, obj["growth"]["rows"]):
        assert parse_decimal(fields.pop("achieved"), row.precision_bits) == row.achieved
        assert fields == {
            "stage": row.stage,
            "target": row.target,
            "passed": row.passed,
            "note": row.note,
            "precision_bits": row.precision_bits,
        }


def test_counterexample_stage_zero_exits_2(runner):
    result = runner.invoke(main, ["counterexample", "--stages", "0"])
    assert result.exit_code == 2


def test_counterexample_holomorphic_kernel_exits_3(runner):
    result = runner.invoke(
        main, ["counterexample", "--stages", "1", "--kernel", "identity"]
    )
    assert result.exit_code == 3
    assert "numeric failure" in result.stderr


# -- identity ------------------------------------------------------------------------


def test_identity_polynomial_passes(runner, node_file):
    result = runner.invoke(
        main,
        [
            "identity",
            "--nodes",
            node_file,
            "--function",
            POLY,
            "--n-min",
            "1",
            "--n-max",
            "3",
            "--grid",
            SMALL_GRID,
        ],
    )
    assert result.exit_code == 0
    header, rows = csv_rows(result.output)
    assert header == ["n", "point", "residual", "cross_form_gap"]
    assert len(rows) == 3 * 11  # three orders, 3x3 grid plus 2 extra points
    with workprec(BITS):
        bound = dec("1e-55")
        assert all(dec(r[2]) <= bound for r in rows)


def test_identity_accepts_function_file(runner, node_file, tmp_path):
    from lineinterp import series_from_spec

    series = series_from_spec(POLY[len("builtin:") :], BITS)
    path = tmp_path / "func.json"
    path.write_text(json.dumps(series.to_json_obj()))
    result = runner.invoke(
        main,
        [
            "identity",
            "--nodes",
            node_file,
            "--function",
            str(path),
            "--n-min",
            "2",
            "--n-max",
            "2",
            "--grid",
            SMALL_GRID,
        ],
    )
    assert result.exit_code == 0


def test_identity_truncated_tail_fails(runner, node_file):
    result = runner.invoke(
        main,
        [
            "identity",
            "--nodes",
            node_file,
            "--function",
            POLY,
            "--n-min",
            "2",
            "--n-max",
            "2",
            "--max-order",
            "1",
            "--grid",
            SMALL_GRID,
            "--format",
            "json",
        ],
    )
    assert result.exit_code == 1
    obj = json.loads(result.output)
    assert obj["passed"] is False
    with workprec(BITS):
        assert dec(obj["max_residual"]) > dec(obj["tolerance"])


@pytest.mark.parametrize(
    "argv,message",
    [
        (["identity", "--function", POLY, "--grid", "3x3@-0.5"], "radius must be positive"),
        (["identity", "--function", POLY, "--tolerance", "-1"], "--tolerance must be nonnegative"),
        (["mobius", "--eta-inf", "0,1", "--tolerance", "-1"], "--tolerance must be nonnegative"),
        (["mobius", "--eta-inf", "0,1", "--coherence-tolerance", "-1"],
         "--coherence-tolerance must be nonnegative"),
        (["mobius", "--eta-inf", "inf", "--tolerance", "-1e-60"],
         "--tolerance must be nonnegative"),
    ],
)
def test_unmeetable_bound_or_grid_exits_2_before_loading_nodes(runner, tmp_path, argv, message):
    # The node file is missing, so an error that names the flag shows the
    # flag was checked before any node was read.
    missing = str(tmp_path / "missing.json")
    result = runner.invoke(main, [*argv, "--nodes", missing])
    assert result.exit_code == 2
    assert message in result.stderr
    assert result.stdout == ""


def test_identity_duplicate_node_exits_3(runner, tmp_path):
    dup = tmp_path / "dup.json"
    dup.write_text('{"nodes": [{"re": "1", "im": "0"}, {"re": "1", "im": "0"}]}')
    result = runner.invoke(
        main, ["identity", "--nodes", str(dup), "--function", POLY]
    )
    assert result.exit_code == 3
    assert "coincide" in result.stderr


# -- mobius --------------------------------------------------------------------------


def test_mobius_report_all_residuals_pass(runner, integer_node_file):
    result = runner.invoke(
        main, ["mobius", "--nodes", integer_node_file, "--eta-inf", "0,1"]
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["passed"] is True
    assert len(obj["theta"]) == 12
    with workprec(BITS):
        assert dec(obj["max_theta_modulus"]) <= dec(obj["theta_bound"])
        tol = dec("1e-60")
        assert dec(obj["unitarity_defect"]) <= tol
        assert dec(obj["max_line_factor_residual"]) <= tol
        assert dec(obj["max_round_trip_residual"]) <= tol
        assert dec(obj["reduction_coherence_residual"]) <= dec("1e-50")


def test_mobius_is_byte_deterministic(runner, integer_node_file):
    args = ["mobius", "--nodes", integer_node_file, "--eta-inf", "0,1", "--seed", "5"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output


def test_mobius_eta_on_node_exits_2(runner, integer_node_file):
    result = runner.invoke(
        main, ["mobius", "--nodes", integer_node_file, "--eta-inf", "3,0"]
    )
    assert result.exit_code == 2
    assert "config error" in result.stderr


def test_mobius_rotation_at_infinity(runner, integer_node_file):
    result = runner.invoke(
        main, ["mobius", "--nodes", integer_node_file, "--eta-inf", "inf", "--phi", "0"]
    )
    assert result.exit_code == 0
    obj = json.loads(result.output)
    assert obj["mode"] == "rotation-at-infinity"
    assert obj["theta"][0] == {"re": "-1", "im": "0"}


# -- output plumbing -----------------------------------------------------------------


def test_out_flag_writes_file_and_keeps_stdout_quiet(runner, node_file, tmp_path):
    target = tmp_path / "table.csv"
    result = runner.invoke(
        main, ["dd", "--nodes", node_file, "--out", str(target)]
    )
    assert result.exit_code == 0
    assert result.output == ""
    header, rows = csv_rows(target.read_text())
    assert header == ["p", "k", "re", "im"]
    assert len(rows) == 15


def test_emit_writes_pieces_in_order_ending_in_one_newline(tmp_path, capsys):
    target = tmp_path / "out.txt"
    for text, expected in (
        ("a,b", "a,b\n"),
        ("a,b\n", "a,b\n"),
        ("", "\n"),
        (["h\n", "r0\n", "r1"], "h\nr0\nr1\n"),
        (["h\n", "r0", "", ""], "h\nr0\n"),
        (["h\n", "", "r0\n", ""], "h\nr0\n"),
        (["", ""], "\n"),
        ([], "\n"),
    ):
        _emit(text, str(target))
        assert target.read_text(encoding="utf-8") == expected, text
        _emit(text, None)
        assert capsys.readouterr().out == expected, text


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--nodes", "family:circle:0,0,1:4", "--function", POLY, "--n-max", "3"],
        ["counterexample", "--stages", "1"],
        ["dd", "--nodes", "family:circle:0,0,1:4"],
    ],
    ids=["converge", "counterexample", "dd"],
)
def test_unwritable_out_exits_2(runner, tmp_path, argv):
    target = tmp_path / "missing" / "out.txt"
    result = runner.invoke(main, argv + ["--out", str(target)])
    assert result.exit_code == 2
    assert "cannot write" in result.stderr


def test_binary_input_file_exits_2(runner, tmp_path):
    blob = tmp_path / "blob.json"
    blob.write_bytes(b"\xff\xfe\x00\x81binary")
    for args in (
        ["--nodes", str(blob), "--function", POLY],
        ["--nodes", "family:circle:0,0,1:4", "--function", str(blob), "--n-max", "3"],
    ):
        result = runner.invoke(main, ["converge", *args])
        assert result.exit_code == 2, args
        assert "not UTF-8" in result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--nodes", "family:circle:0,0,1:4", "--n-max", "3",
         "--function", "builtin:poly:0,0,1e999999999,0"],
        ["identity", "--nodes", "family:circle:0,0,1:4", "--n-max", "3",
         "--function", POLY, "--tolerance", "1e-999999999"],
    ],
    ids=["converge-coefficient", "identity-tolerance"],
)
def test_out_of_range_decimal_exponent_exits_2_quickly(runner, argv):
    start = time.perf_counter()
    result = runner.invoke(main, argv)
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert "outside 1e-500000..1e500000" in result.stderr


def test_decimal_expansion_past_the_digit_cap_exits_3(runner, tmp_path):
    # Every input lies inside the accepted decimal range. The converge sup
    # error, of order 1e500000 with a binary exponent above zero, has too many
    # digits; so has the dd entry 1e499999 * 100. A table is rendered in full
    # before its first byte is written, so stdout stays empty.
    dd = ["dd", "--nodes", write_nodes(tmp_path, ("100", "0"), ("0.5", "0")),
          "--kernel", "analytic:0,1e499999"]
    for argv in (
        ["converge", "--nodes", "family:circle:0,0,1:4",
         "--function", "builtin:poly:0,2,1e400000,0",
         "--n-min", "1", "--n-max", "2", "--grid", "1x1@1e100000+1"],
        dd,
        dd + ["--format", "json"],
    ):
        result = runner.invoke(main, argv)
        assert result.exit_code == 3, argv
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "numeric failure: decimal expansion exceeds the limit of 500000 digits"
        ]


def test_digit_cap_in_a_row_a_forked_worker_renders_exits_3(runner, tmp_path, monkeypatch):
    # dd of 7e499999 z^2 over 0.9 and 0.91: row p = 0 renders (about 5.7e499999),
    # row p = 1 (about 1.27e500000) passes the digit cap. With two CPUs the
    # caller renders row 0 and one forked worker row 1.
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counted_fork)
    dd = ["dd", "--nodes", write_nodes(tmp_path, ("0.9", "0"), ("0.91", "0")),
          "--kernel", "analytic:0,0,7e499999"]
    for argv in (dd, dd + ["--format", "json"]):
        forks.clear()
        result = runner.invoke(main, argv)
        assert forks == [1], argv
        assert result.exit_code == 3, argv
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "numeric failure: decimal expansion exceeds the limit of 500000 digits"
        ]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_help_names_the_family_count_and_the_artifact(runner):
    for command in ("converge", "identity", "criterion", "mobius", "dd"):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0
        assert "family:KIND:ARGS:COUNT" in result.output, command
    # wide enough that click does not wrap the option's help line
    result = runner.invoke(main, ["counterexample", "--help"], terminal_width=200)
    assert result.exit_code == 0
    assert (
        "--out TEXT           Write the node-sequence artifact (JSON) here; "
        "the growth table still goes to stdout." in result.output
    )


# -- node conditioning ---------------------------------------------------------------


def test_node_gaps_formed_once_per_prefix(runner, node_file, monkeypatch):
    built, gated = [], []
    construct, gate = NodeConditioning.__init__, NodeConditioning.cancellation_exceeds

    def counting_init(self, zs, precision_bits):
        built.append(self)
        construct(self, zs, precision_bits)

    def counting_gate(self, half):
        gated.append(self)
        return gate(self, half)

    monkeypatch.setattr(NodeConditioning, "__init__", counting_init)
    monkeypatch.setattr(NodeConditioning, "cancellation_exceeds", counting_gate)
    build_sequence(default_kernel(), 3)
    # one record per gate call, each read by that call only
    assert gated and built == gated
    del built[:]
    nodes = generate_nodes(circle_family(0, 1), 5, precision_bits=BITS)
    f = exp_sum_series(6, BITS)
    z1, z2 = ApComplex("0.25", 0, BITS), ApComplex(0, "0.125", BITS)
    for n in (2, 4):
        identity_report(f, nodes, n, z1, z2)
        assert len(built) == 1
        del built[:]
    small = ["--nodes", "family:circle:0,0,1:6", "--function", POLY, "--grid", SMALL_GRID,
             "--n-min", "1", "--n-max", "4"]
    for argv in (
        ["converge", *small],
        ["identity", *small],
        ["dd", "--nodes", node_file],
        ["criterion", "--nodes", node_file, "--p-max", "4", "--q-max", "2"],
        ["mobius", "--nodes", "family:line:0,1,0:8", "--eta-inf", "0,1"],
    ):
        assert runner.invoke(main, argv).exit_code == 0
    assert built == []


# -- pinned outputs ------------------------------------------------------------------

# SHA-256 of stdout for small runs of every subcommand: outputs must stay
# byte-identical, so any change to the arithmetic or its order shows here.
# The poly case has max_order 3 < n_max 6, so the Horner table is read above
# the series order.
# ARTIFACT stands for the --out file of `counterexample --stages 5`, whose
# nodes read at 8192 bits give decimals with binary exponents far below zero.
ARTIFACT = "{artifact}"
_PINNED_BASE = ["--nodes", "family:circle:0,0,1:8", "--grid", "3x3@0.5+2"]
_PINNED_EXP = _PINNED_BASE + ["--function", "builtin:exp_sum:12"]
_PINNED_EXPCOS = _PINNED_BASE + ["--function", "builtin:expcos:10"]
_PINNED_POLY = _PINNED_BASE + [
    "--function",
    "builtin:poly:0,0,1,0;1,0,0.5,-0.25;2,1,0.3,0.1;0,3,-0.2,0",
    "--n-min",
    "1",
    "--n-max",
    "6",
    "--seed",
    "3",
]
_PINNED = [
    (
        ["converge", *_PINNED_EXP, "--n-min", "2", "--n-max", "8"],
        0,
        "155bdd915136c2a3cf21af294519a5b2c62f7163bf6f376c8d27e1baa8c451bc",
    ),
    (
        ["converge", *_PINNED_EXP, "--n-min", "2", "--n-max", "8", "--format", "json"],
        0,
        "0f4e0c2d39947c5398e473a31ca530a446b580783eb074ab885747bc22af76c0",
    ),
    (
        ["identity", *_PINNED_EXP, "--n-min", "1", "--n-max", "8"],
        0,
        "75da3adf7085a79a3fe86e4bcd1fde0ebd1c3f8a0752563e1fd44fcaf3208585",
    ),
    (
        ["identity", *_PINNED_EXP, "--n-min", "1", "--n-max", "8", "--format", "json"],
        0,
        "4e1de87020c6344ec72324c46353f02bb26099bcafb82f5110faf6fd22c4e1b0",
    ),
    (
        ["identity", *_PINNED_EXP, "--n-min", "1", "--n-max", "8", "--max-order", "3",
         "--format", "json"],
        1,
        "57f7830425c5a83b959f94b0a1a18dee025245675c1535f648c4384021d637a6",
    ),
    (
        ["converge", *_PINNED_POLY],
        0,
        "414e3033a9d997e8d382ab65107148dd94561aa5c1ca4e9a0489bb561825db6d",
    ),
    (
        ["identity", *_PINNED_POLY, "--format", "json"],
        0,
        "fa066b05cdbda5217ac77485ff78315bf497b0d3e7eac9f085a9333d53b9f3ee",
    ),
    (
        ["dd", "--nodes", "family:circle:0,0,1:6", "--kernel", "conj-kernel:2", "--seed", "5"],
        0,
        "c485f071e16cfcd64650fc24423f1e68e44cd46097c6b2fb33284b62f21d65ef",
    ),
    (
        ["dd", "--nodes", "family:circle:0,0,1:6", "--kernel", "conj-kernel:2", "--seed", "5",
         "--format", "json"],
        0,
        "bc188adc28b94c11b2193669e050a51333fbf5c305eba199134880c09854f124",
    ),
    (
        ["criterion", "--nodes", "family:circle:0,0,1:9", "--p-max", "8", "--q-max", "3",
         "--seed", "2"],
        0,
        "05aab6afb7425d4162f98253f0be20bf7684c55aa5fd15e117f2fa2ec3fdaead",
    ),
    (
        ["criterion", "--nodes", "family:circle:0,0,1:9", "--p-max", "8", "--q-max", "3",
         "--seed", "2", "--format", "json"],
        0,
        "3d29a1d1df51d3fe7acc2bf0e674d85bd1d31de667b45fec94a48cb1fdb72803",
    ),
    (
        ["counterexample", "--stages", "2"],
        0,
        "9f529f8062fb441e572bb98b4cfd4349370c9333774abe9bb6b70945fe21c0a8",
    ),
    (
        ["counterexample", "--stages", "2", "--format", "json"],
        0,
        "ae5d82e8d17dea944d8440e2e6b79d1281a8caf5eacb6710278889e1179796d5",
    ),
    (
        # escalates four times, from 256 to 4096 bits
        ["counterexample", "--stages", "7"],
        0,
        "b2fa63d88539ea4d32b44409fe7b995ac650e431ba6cc746e714bf6457783a6a",
    ),
    (
        ["mobius", "--nodes", "family:line:0,1,0:8", "--eta-inf", "0,1", "--seed", "4"],
        0,
        "1c4c0058204540896d1b3bdb20f1e36acbe76c0d60e0f123e2ec8f8058b748b6",
    ),
    (
        # off-axis complex center
        ["mobius", "--nodes", "family:circle:0,0,2:12", "--eta-inf", "0.5,0.25", "--seed", "7"],
        0,
        "20b3c39ece5d7f51a9e32f8ddf1096249cfdd6b70c721441be1952a219d6b3f9",
    ),
    (
        ["mobius", "--nodes", "family:line:0,1,0:8", "--eta-inf", "inf", "--phi", "0.5"],
        0,
        "e038d07116816c4737c1fcfe7b47b7406c64c6aa3a49a620632ba38161dec24c",
    ),
    (
        ["dd", "--nodes", ARTIFACT, "--kernel", "conj-kernel:3", "--precision", "8192"],
        0,
        "83ec9a648bbc99b7f5b0f9bd1c543da2d5865f06a450c2759c3ddddef949fa66",
    ),
    (
        ["criterion", "--nodes", ARTIFACT, "--p-max", "4", "--q-max", "3", "--precision", "8192"],
        0,
        "cd7ece98ebe1b86b7e944d4c87ea0525bc991ad0337ecebed1c1b7a1a282c08f",
    ),
    (
        # a real-coefficient series with odd powers of z2 absent, at the 64-bit floor
        ["converge", *_PINNED_EXPCOS, "--n-min", "2", "--n-max", "8", "--precision", "64"],
        0,
        "2e3282bce50435c50282b26f486d475234b3dbab5d6729822552acf682db667e",
    ),
    (
        ["identity", *_PINNED_EXPCOS, "--n-min", "1", "--n-max", "6", "--precision", "1024"],
        0,
        "c7e8ea31893f8d877a57636376ee22689b873b0a748067cf1d3bded05eb8b68f",
    ),
]


@pytest.mark.parametrize(
    "argv,code,digest",
    _PINNED,
    ids=["converge-csv", "converge-json", "identity-csv", "identity-json",
         "identity-max-order", "converge-poly", "identity-poly", "dd-csv", "dd-json",
         "criterion-csv", "criterion-json", "counterexample-csv", "counterexample-json",
         "counterexample-escalating", "mobius", "mobius-complex-center",
         "mobius-rotation", "dd-8192", "criterion-8192", "converge-expcos-64",
         "identity-expcos-1024"],
)
def test_pinned_output_digests(runner, tmp_path, argv, code, digest):
    if ARTIFACT in argv:
        artifact = str(tmp_path / "seq.json")
        build = runner.invoke(main, ["counterexample", "--stages", "5", "--out", artifact])
        assert build.exit_code == 0
        argv = [artifact if a == ARTIFACT else a for a in argv]
    result = runner.invoke(main, argv)
    assert result.exit_code == code
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest
