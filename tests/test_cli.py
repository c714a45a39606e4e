"""Subcommand behavior: tables, artifacts, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import time

import mpmath
import pytest
from click.testing import CliRunner
from mpmath import mpf, workprec

import lineinterp.cli
import lineinterp.divdiff
import lineinterp.funcmodel
import lineinterp.mobius
import lineinterp.precision
from lineinterp import (
    AdversarialSequence,
    ApComplex,
    NodeSequence,
    TaylorSeries2,
    build_sequence,
    circle_family,
    conjugation,
    default_kernel,
    delta,
    exp_sum_series,
    generate_nodes,
    identity_report,
    parse_decimal,
    render_decimal,
    verify_growth,
)
from lineinterp.cli import _emit, main

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


def test_csv_renders_only_the_table_cells(runner, node_file, monkeypatch):
    # the JSON document's other values (nodes, r_hat_observed) are rendered
    # for --format json alone; one CPU, so every render is in this process
    rendered = []
    render = lineinterp.precision.render_decimal

    def counting(x):
        rendered.append(x)
        return render(x)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(lineinterp.precision, "render_decimal", counting)
    monkeypatch.setattr(lineinterp.cli, "render_decimal", counting)
    dd = ["dd", "--nodes", node_file, "--kernel", "conj-kernel:2"]
    crit = ["criterion", "--nodes", node_file, "--p-max", "4", "--q-max", "2"]
    # dd: re and im of 15 entries, then of the 5 nodes; criterion: raw and
    # normalized of 5 x 3 entries, then r_hat_observed
    for argv, cells, extra in ((dd, 30, 10), (crit, 30, 1)):
        for fmt, want in (("csv", cells), ("json", cells + extra)):
            del rendered[:]
            assert runner.invoke(main, argv + ["--format", fmt]).exit_code == 0
            assert len(rendered) == want, (argv[0], fmt)


def assert_config_error(result, args):
    """Exit 2, nothing on stdout and one `config error:` line on stderr."""
    assert result.exit_code == 2, args
    assert result.stdout == "", args
    [line] = result.stderr.splitlines()
    assert line.startswith("config error: "), (args, line)


def test_dd_kernel_spec_errors(runner, node_file):
    for extra in (
        ["--kernel", "bogus"],
        ["--kernel", "conj-kernel:1:2"],
        ["--kernel", "conj-kernel:a"],
        ["--max-order", "9"],
        ["--max-order", "-1"],
    ):
        args = ["dd", "--nodes", node_file, *extra]
        assert_config_error(runner.invoke(main, args), args)


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
    not_json = tmp_path / "nodes.txt"
    not_json.write_text("nodes: 0.5, 0.25")
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
        ["converge", "--nodes", "family:circle:0,0,1:8", "--function", POLY, "--n-min", "0"],
        ["converge", "--nodes", "family:circle:0,0,1:8", "--function", POLY, "--grid", "5x5"],
        ["converge", "--nodes", "family:circle:0,0,1:8", "--function", POLY, "--grid", "0x0@0.5"],
        ["converge", "--nodes", str(not_json), "--function", POLY],
        ["converge", "--nodes", "family:line:0,1:8", "--function", POLY],
        ["converge", "--nodes", "family:line:0,1,0:x", "--function", POLY],
        ["converge", "--nodes", "family:circle:0,0,1:8"],  # no function source
    ]
    for args in cases:
        result = runner.invoke(main, args)
        assert_config_error(result, args)
        if args[2] == "family:line:0,1,0":
            assert "family:line:A,B,C:COUNT" in result.stderr


class Reached(Exception):
    """Raised by a patched allocating call: an oversized value got past its check."""


def unreachable(*args, **kwargs):
    raise Reached


def test_family_count_over_the_limit_exits_2_before_any_node_is_made(runner, monkeypatch):
    # an oversized count is never run: reaching generate_nodes fails the test
    monkeypatch.setattr(lineinterp.cli, "generate_nodes", unreachable)
    for count in ("4097", "100000000000"):
        for kind in ("line:0,1,0", "circle:0,0,1"):
            result = runner.invoke(main, ["criterion", "--nodes", "family:%s:%s" % (kind, count)])
            assert result.exit_code == 2, (kind, count)
            assert result.stdout == ""
            assert result.stderr == (
                "config error: family count %s exceeds the limit of 4096 nodes\n" % count
            )
    # the limit itself is accepted and reaches the generator
    result = runner.invoke(main, ["criterion", "--nodes", "family:line:0,1,0:4096"])
    assert isinstance(result.exception, Reached)


def test_grid_over_the_limit_exits_2_before_any_point_is_made(runner, monkeypatch):
    # an oversized grid is never built: reaching default_zgrid fails the test
    monkeypatch.setattr(lineinterp.cli, "default_zgrid", unreachable)
    base = ["--nodes", "family:circle:0,0,1:8", "--function", "builtin:poly:0,0,1,0"]
    for grid, points in (("64x64@0.5+1", 4097), ("65x65@0.5", 4225),
                         ("100000x100000@0.5", 10**10), ("1x1@0.5+99999999999", 10**11)):
        for command in ("converge", "identity"):
            result = runner.invoke(main, [command, *base, "--grid", grid])
            assert result.exit_code == 2, (command, grid)
            assert result.stdout == ""
            assert result.stderr == (
                "config error: grid of %d points exceeds the limit of 4096 points\n" % points
            )
    # the limit itself is accepted and reaches the grid builder
    for grid in ("64x64@0.5", "1x1@0.5+4095"):
        result = runner.invoke(main, ["converge", *base, "--grid", grid])
        assert isinstance(result.exception, Reached), grid


def test_kernel_power_over_the_limit_exits_2_before_any_node_is_made(runner, monkeypatch):
    # an oversized --q-max is never run: reaching the node generator or the
    # profile fails the test
    monkeypatch.setattr(lineinterp.cli, "criterion_profile", unreachable)
    with monkeypatch.context() as patched:
        patched.setattr(lineinterp.cli, "generate_nodes", unreachable)
        for q_max in ("257", "100000000000"):
            argv = ["criterion", "--nodes", "family:circle:0,0,1:8", "--q-max", q_max]
            result = runner.invoke(main, argv)
            assert result.exit_code == 2, q_max
            assert result.stdout == ""
            assert result.stderr == "config error: --q-max %s exceeds the limit of 256\n" % q_max
    # the limit itself is accepted and reaches the profile
    argv = ["criterion", "--nodes", "family:circle:0,0,1:8", "--q-max", "256"]
    assert isinstance(runner.invoke(main, argv).exception, Reached)


def test_series_order_over_the_limit_exits_2_before_the_series_is_built(
    runner, monkeypatch, tmp_path
):
    # an oversized order is never built: reaching a builder fails the test
    monkeypatch.setattr(lineinterp.funcmodel, "exp_sum_series", unreachable)
    monkeypatch.setattr(lineinterp.funcmodel, "expcos_series", unreachable)
    monkeypatch.setattr(TaylorSeries2, "__init__", unreachable)

    def function_file(max_order):
        path = tmp_path / ("f%d.json" % max_order)
        path.write_text(json.dumps({"max_order": max_order, "coeffs": []}))
        return str(path)

    def run(source):
        args = ["--nodes", "family:circle:0,0,1:8", "--function", source]
        return runner.invoke(main, ["converge", *args])

    for source, order in (
        ("builtin:exp_sum:513", 513),
        ("builtin:expcos:100000000000", 10**11),
        ("builtin:poly:0,0,1,0;513,0,1,0", 513),
        ("builtin:poly:0,100000000000,1,0", 10**11),
        (function_file(513), 513),
        (function_file(10**11), 10**11),
    ):
        result = run(source)
        assert result.exit_code == 2, source
        assert result.stdout == ""
        assert result.stderr == "config error: series order %d exceeds the limit of 512\n" % order
    # the limit itself is accepted and reaches the builder
    for source in ("builtin:exp_sum:512", "builtin:expcos:512", "builtin:poly:256,256,1,0",
                   function_file(512)):
        assert isinstance(run(source).exception, Reached), source


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
    # the series of POLY, written out as a series file
    coeffs = [(0, 0, "1", "0"), (1, 1, "2", "0"), (3, 0, "0", "-1")]
    entries = [{"k": k, "l": l, "re": re, "im": im} for k, l, re, im in coeffs]
    payload = {"max_order": 3, "coeffs": entries}
    path = tmp_path / "func.json"
    path.write_text(json.dumps(payload))
    argv = ["identity", "--nodes", node_file, "--n-min", "2", "--n-max", "2", "--grid", SMALL_GRID]
    result = runner.invoke(main, argv + ["--function", str(path)])
    assert result.exit_code == 0
    assert result.output == runner.invoke(main, argv + ["--function", POLY]).output


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


def test_identity_n_max_past_the_node_count_exits_2(runner):
    result = runner.invoke(
        main, ["identity", "--nodes", "family:circle:0,0,1:4", "--function", POLY, "--n-max", "9"]
    )
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["config error: 9 nodes needed, have 4"]


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


# report keys of the four values MobiusContext.residuals returns, in its order;
# unitarity_defect gives the fifth value that `passed` checks
MOBIUS_RESIDUALS = [
    "max_theta_modulus",
    "max_round_trip_residual",
    "max_line_factor_residual",
    "reduction_coherence_residual",
]


@pytest.mark.parametrize("past", [False, True], ids=["at-budget", "past-budget"])
@pytest.mark.parametrize("key", MOBIUS_RESIDUALS + ["unitarity_defect"])
def test_each_mobius_check_decides_passed(runner, monkeypatch, key, past):
    # one residual set to its budget passes; one part in 2^100 past it fails
    residuals = lineinterp.mobius.MobiusContext.residuals
    unitarity_defect = lineinterp.mobius.MobiusContext.unitarity_defect
    made = []

    def doctored(ctx):
        with workprec(BITS):
            if key == "max_theta_modulus":
                budget = lineinterp.mobius.theta_bound(ctx)
            else:
                budget = dec("1e-50" if key == "reduction_coherence_residual" else "1e-60")
            made.append(budget * (1 + mpmath.ldexp(1, -100)) if past else budget)
        return made[-1]

    def patched_residuals(ctx, thetas, seed):
        out = list(residuals(ctx, thetas, seed))
        if key in MOBIUS_RESIDUALS:
            out[MOBIUS_RESIDUALS.index(key)] = doctored(ctx)
        return tuple(out)

    def patched_unitarity(ctx):
        return doctored(ctx) if key == "unitarity_defect" else unitarity_defect(ctx)

    monkeypatch.setattr(lineinterp.mobius.MobiusContext, "residuals", patched_residuals)
    monkeypatch.setattr(lineinterp.mobius.MobiusContext, "unitarity_defect", patched_unitarity)
    result = runner.invoke(main, ["mobius", "--nodes", "family:line:0,1,0:8", "--eta-inf", "0,1"])
    obj = json.loads(result.output)
    assert obj[key] == render_decimal(made[0])
    assert obj["passed"] is not past
    assert result.exit_code == (1 if past else 0)


def test_mobius_is_byte_deterministic(runner, integer_node_file):
    args = ["mobius", "--nodes", integer_node_file, "--eta-inf", "0,1", "--seed", "5"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    # the one-part form RE is the center RE,0
    real = runner.invoke(main, ["mobius", "--nodes", integer_node_file, "--eta-inf", "0.5"])
    pair = runner.invoke(main, ["mobius", "--nodes", integer_node_file, "--eta-inf", "0.5,0"])
    assert real.exit_code == pair.exit_code == 0
    assert real.stdout_bytes == pair.stdout_bytes


def test_mobius_eta_on_node_exits_2(runner, integer_node_file):
    # a center on a node, and one that is not RE or RE,IM
    for eta in ("3,0", "1,2,3"):
        args = ["mobius", "--nodes", integer_node_file, "--eta-inf", eta]
        assert_config_error(runner.invoke(main, args), args)


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

    # each piece is written before the next is drawn
    def pieces():
        yield "h\n"
        assert capsys.readouterr().out == "h\n"
        yield ""
        yield "r0"

    _emit(pieces(), None)
    assert capsys.readouterr().out == "r0\n"


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


def test_analytic_kernel_coefficients_keep_the_run_precision(runner):
    result = runner.invoke(
        main,
        ["dd", "--nodes", "family:line:0,1,0:2", "--kernel", "analytic:0.1", "--precision", "256"],
    )
    assert result.exit_code == 0
    assert result.stdout.splitlines()[1] == "0,0,%s,0" % render_decimal(parse_decimal("0.1", 256))


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


# Runs and their (to_mpc, from_mpc) call counts. Tables leave as exact
# decimals and files are read and written raw, so a run on generated nodes, a
# node file or an artifact boxes nothing. converge and identity unbox each of
# the 5 points of a 2x2+1 grid once in LinePlan.at, and box and unbox each of
# their 4 line slopes once at the restrict_to_line edge.
_BOXING_RUNS = [
    ("criterion", ["criterion", "--nodes", "family:circle:0,0,1:6", "--p-max", "4", "--q-max", "2"],
     (0, 0)),
    ("dd", ["dd", "--nodes", "family:line:0,1,0:5", "--kernel", "conj-kernel:2"], (0, 0)),
    ("counterexample", ["counterexample", "--stages", "2"], (0, 0)),
    ("criterion-file", ["criterion", "--nodes", "{nodes}", "--p-max", "4"], (0, 0)),
    ("dd-file", ["dd", "--nodes", "{nodes}"], (0, 0)),
    ("counterexample-out", ["counterexample", "--stages", "2", "--out", "{artifact}"], (0, 0)),
    ("dd-artifact", ["dd", "--nodes", "{artifact}"], (0, 0)),
    ("converge", ["converge", "--nodes", "family:circle:0,0,1:6", "--function", "builtin:exp_sum:6",
                  "--grid", "2x2@0.5+1", "--n-max", "4"], (2 * 5 + 4, 4)),
    ("identity", ["identity", "--nodes", "family:circle:0,0,1:6", "--function", "builtin:exp_sum:6",
                  "--grid", "2x2@0.5+1", "--n-max", "4"], (2 * 5 + 4, 4)),
]


@pytest.mark.parametrize(
    "argv, counts",
    [
        pytest.param(argv + ["--format", fmt], counts, id="%s-%s" % (fmt, name))
        for fmt in ("csv", "json")
        for name, argv, counts in _BOXING_RUNS
    ]
    # make_context unboxes --eta-inf once; the rest is the restrict_to_line
    # edge of the 2 coherence plans of each of 3 rounds, over 4 nodes and 4
    # thetas: 1 + 24 to_mpc and 24 from_mpc
    + [pytest.param(["mobius", "--nodes", "family:line:0,1,0:8", "--eta-inf", "0,1"], (25, 24),
                    id="mobius")],
)
def test_family_runs_never_unbox_a_value(runner, monkeypatch, node_file, tmp_path, argv, counts):
    # Inside the library every value is a raw mpc: a run boxes or unboxes a
    # value only at the edges its counts name. One CPU keeps all the work in
    # this process, where the count sees it.
    artifact = str(tmp_path / "artifact.json")
    argv = [arg.format(nodes=node_file, artifact=artifact) for arg in argv]
    if "dd" in argv and artifact in argv:
        made = runner.invoke(main, ["counterexample", "--stages", "2", "--out", artifact])
        assert made.exit_code == 0
    calls = {"to_mpc": 0, "from_mpc": 0}
    to_mpc, from_mpc = ApComplex.to_mpc, ApComplex.from_mpc.__func__

    def counted_to_mpc(self):
        calls["to_mpc"] += 1
        return to_mpc(self)

    def counted_from_mpc(cls, value, precision_bits=lineinterp.precision.DEFAULT_PRECISION):
        calls["from_mpc"] += 1
        return from_mpc(cls, value, precision_bits)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(ApComplex, "to_mpc", counted_to_mpc)
    monkeypatch.setattr(ApComplex, "from_mpc", classmethod(counted_from_mpc))
    result = runner.invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert (calls["to_mpc"], calls["from_mpc"]) == counts


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
    # every pair's gap is formed once per node set and precision: build_sequence
    # extends its prefix's gaps, and a plan or a profile forms its own once
    formed = []
    form = lineinterp.divdiff._gap_row

    def counting_row(z, zs):
        # the row of z against the nodes before it: one gap per earlier node
        formed.extend((z._mpc_, y._mpc_, mpmath.mp.prec) for y in zs)
        return form(z, zs)

    def taken():
        keys = list(formed)
        del formed[:]
        assert len(set(keys)) == len(keys)
        return len(keys)

    monkeypatch.setattr(lineinterp.divdiff, "_gap_row", counting_row)
    build_sequence(default_kernel(), 3)
    assert taken()
    nodes = generate_nodes(circle_family(0, 1), 5, precision_bits=BITS)
    f = exp_sum_series(6, BITS)
    z1, z2 = ApComplex("0.25", 0, BITS), ApComplex(0, "0.125", BITS)
    for n in (2, 4):
        # the plan's gaps serve the Newton remainder and the conditioning report
        identity_report(f, nodes, n, z1, z2)
        assert taken() == n * (n - 1) // 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    small = ["--nodes", "family:circle:0,0,1:6", "--function", POLY, "--grid", SMALL_GRID,
             "--n-min", "1", "--n-max", "4"]
    for argv, pairs in (
        (["converge", *small], 0),
        (["identity", *small], 6),
        (["dd", "--nodes", node_file], 10),
        (["criterion", "--nodes", node_file, "--p-max", "4", "--q-max", "2"], 10),
        (["mobius", "--nodes", "family:line:0,1,0:8", "--eta-inf", "0,1"], 0),
    ):
        assert runner.invoke(main, argv).exit_code == 0
        assert taken() == pairs, argv


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
