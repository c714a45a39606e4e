"""Work dealt to forked workers through `precision.fork_map`.

`LinePlan.sup_errors` and `LinePlan.identity_residuals` deal their points,
`criterion_profile` its kernel-power columns, and every table command the
rendering of its table rows round-robin to one forked child per usable CPU.
These tests pin that the result does not depend on the CPU count, that a
failure reaches the caller as the plain loop would raise it, that every
child is reaped, that a child never flushes the caller's buffered stdout,
and that a worker that dies, or cannot send its reply back, ends the run
with exit code 3 rather than a traceback. The rows of every table, CSV or
JSON, pass through an unlinked temporary file, the spool: its descriptor is
closed and its file gone on every exit path, and no table is ever held
whole.
"""

from __future__ import annotations

import errno
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import pytest
from click.testing import CliRunner

import lineinterp.cli
import lineinterp.criterion
from lineinterp import (
    ApComplex,
    ConfigError,
    LinePlan,
    NumericError,
    circle_family,
    criterion_profile,
    default_zgrid,
    exp_sum_series,
    generate_nodes,
)
from lineinterp.cli import main
from lineinterp.precision import fork_map

ROOT = Path(__file__).resolve().parents[1]
BITS = 256


def _use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _plan(n_max):
    nodes = generate_nodes(circle_family(ApComplex(0, 0, BITS), "1", 6), precision_bits=BITS)
    return LinePlan(exp_sum_series(8, BITS), nodes, n_max, BITS)


def _raw_sweeps(points, orders):
    # a fresh plan, so no cache the caller filled earlier is shared
    plan = _plan(max(orders))
    sups = plan.sup_errors(points, orders)
    out = [[(n, sup._mpf_) for n, sup in sups.items()]]
    for cap in (None, 4):
        rows = plan.identity_residuals(points, orders, cap)
        out.append([(n, idx, mag._mpf_, gap._mpf_) for n, idx, mag, gap in rows])
    return out


def test_sweeps_do_not_depend_on_the_cpu_count(monkeypatch):
    points = default_zgrid(BITS, "0.5", 2, 3, seed=5)
    orders = range(2, 6)
    _use_cpus(monkeypatch, 1)
    serial = _raw_sweeps(points, orders)
    for cpus in (2, 3, len(points) + 2):
        _use_cpus(monkeypatch, cpus)
        assert _raw_sweeps(points, orders) == serial
        _assert_no_children()
    # the points really went to other processes
    _use_cpus(monkeypatch, 3)
    pids = fork_map(lambda _: os.getpid(), range(6))
    assert pids[0::3] == [os.getpid()] * 2
    assert len(set(pids)) == 3


def test_fork_map_stays_in_the_caller_without_fork_or_beside_threads(monkeypatch):
    _use_cpus(monkeypatch, 4)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        # a forked child would hold only this thread
        assert fork_map(lambda _: os.getpid(), range(8)) == [os.getpid()] * 8
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    monkeypatch.delattr(os, "fork")
    assert fork_map(lambda _: os.getpid(), range(8)) == [os.getpid()] * 8


def test_failing_point_reaches_the_caller_lowest_index_first(monkeypatch):
    _use_cpus(monkeypatch, 2)
    plan = _plan(3)
    points = default_zgrid(BITS, "0.5", 2, 2, seed=1)
    wide = ApComplex(1, 0, 2 * BITS)  # finer than the plan: PointTables refuses it
    # chunk 0 (even indices) runs in the caller, chunk 1 in a forked child
    bad = list(points)
    bad[3] = (wide, wide)
    with pytest.raises(ConfigError, match="point precision exceeds the plan's 256 bits"):
        plan.sup_errors(bad, [2, 3])
    _assert_no_children()
    bad[1], bad[2] = (wide, wide), (None, None)
    with pytest.raises(ConfigError):
        plan.identity_residuals(bad, [2, 3])
    _assert_no_children()
    bad[1], bad[2] = (None, None), (wide, wide)
    with pytest.raises(AttributeError):
        plan.identity_residuals(bad, [2, 3])
    _assert_no_children()
    assert len(plan.identity_residuals(points, [2, 3])) == 2 * len(points)
    _assert_no_children()


def test_fork_map_raises_the_failure_the_plain_loop_would(monkeypatch):
    # three chunks over range(9): {0, 3, 6} in the caller, {1, 4, 7}, {2, 5, 8}
    _use_cpus(monkeypatch, 3)

    def square_unless(failing):
        def fn(i):
            if i in failing:
                raise ValueError("item %d" % i)
            return i * i

        return fn

    assert fork_map(square_unless(set()), range(9)) == [i * i for i in range(9)]
    for failing, first in (({4, 2}, 2), ({7, 3}, 3), ({6, 1}, 1), ({5, 8}, 5)):
        with pytest.raises(ValueError, match="item %d$" % first):
            fork_map(square_unless(failing), range(9))
        _assert_no_children()


def test_fork_map_replies_of_megabyte_strings_arrive_whole_and_in_order(monkeypatch):
    # each reply spans many pipe buffers and pickle frames
    _use_cpus(monkeypatch, 3)

    def text(i):
        return [chr(ord("a") + i) * (1 << 20), str(i) * (1 << 20)]

    assert fork_map(text, range(7)) == [text(i) for i in range(7)]
    _assert_no_children()


class _NeedsTwoArguments:
    # pickles as cls(*args) with one argument, so unpickling it raises TypeError
    def __init__(self, a, b):
        self.args = (a + b,)

    def __reduce__(self):
        return type(self), self.args


def test_fork_map_raises_numeric_error_when_a_worker_dies(monkeypatch):
    # three chunks over range(9): {0, 3, 6} in the caller, {1, 4, 7}, {2, 5, 8}
    _use_cpus(monkeypatch, 3)
    caller = os.getpid()

    def dies(how, failing=()):
        def fn(i):
            if i in failing:
                raise ValueError("item %d" % i)
            if os.getpid() != caller and i == 5:
                if how == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                if how == "exit":
                    os._exit(7)
                # megabytes of reply after the value that does not decode: the
                # caller reads them all, so the child's write ends and it exits 0
                return [_NeedsTwoArguments("x", "y"), "z" * (1 << 22)]
            return i

        return fn

    for how, message in (
        ("kill", "the forked worker of items 2, 5, 8 was killed by SIGKILL"),
        ("exit", "the forked worker of items 2, 5, 8 exited with status 7"),
        ("decode", "the forked worker of items 2, 5, 8 sent a reply that does not decode "
                   r"\(TypeError: .*\)"),
    ):
        with pytest.raises(NumericError, match="^%s$" % message):
            fork_map(dies(how), range(9))
        _assert_no_children()
        # the dead worker fails at its first item, 2: a lower failing item wins
        with pytest.raises(ValueError, match="^item 1$"):
            fork_map(dies(how, {1}), range(9))
        _assert_no_children()
        with pytest.raises(NumericError):
            fork_map(dies(how, {3}), range(9))
        _assert_no_children()
    # a long chunk is named by its first two items and its last
    _use_cpus(monkeypatch, 2)
    with pytest.raises(NumericError, match="^the forked worker of items 1, 3, ..., 11 "):
        fork_map(dies("kill"), range(12))
    _assert_no_children()


def test_fork_map_raises_numeric_error_on_a_truncated_reply(monkeypatch):
    _use_cpus(monkeypatch, 2)
    dumps = pickle.dumps
    # only the children pickle; the caller unpickles
    monkeypatch.setattr(
        pickle, "dump", lambda obj, pipe, protocol: pipe.write(dumps(obj, protocol)[:-1])
    )
    with pytest.raises(
        NumericError,
        match="^the forked worker of items 1, 3 sent a reply that does not decode ",
    ):
        fork_map(str, range(4))
    _assert_no_children()


def test_fork_map_sends_an_error_that_does_not_pickle_by_its_type_and_message(monkeypatch):
    # three chunks over range(9): {0, 3, 6} in the caller, {1, 4, 7}, {2, 5, 8}
    _use_cpus(monkeypatch, 3)

    class LocalError(Exception):
        pass  # a local class cannot be pickled

    def fails_at(failing):
        def fn(i):
            if i in failing:
                raise LocalError("item %d" % i)
            return i

        return fn

    message = r"^LocalError: item 4 \(in a forked worker; the error does not pickle\)$"
    with pytest.raises(NumericError, match=message):
        fork_map(fails_at({4, 7}), range(9))
    _assert_no_children()
    # it keeps its item: a lower failing item still wins, a higher one does not
    with pytest.raises(LocalError, match="^item 3$"):
        fork_map(fails_at({3, 4}), range(9))
    _assert_no_children()
    with pytest.raises(NumericError, match=message):
        fork_map(fails_at({4, 6}), range(9))
    _assert_no_children()
    # an error that pickles still arrives as itself
    with pytest.raises(ValueError, match="'item 5'$"):
        fork_map(lambda i: int("item %d" % i) if i == 5 else i, range(9))
    _assert_no_children()


def _column_worker_that(fails):
    """_profile_column that ends its forked worker as `fails` says, and runs in the caller."""
    caller = os.getpid()
    column = lineinterp.criterion._profile_column

    class LocalError(Exception):
        pass  # a local class cannot be pickled

    def failing_column(conditioning, q):
        if os.getpid() != caller:
            if fails == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise LocalError("column %d" % q)
        return column(conditioning, q)

    return failing_column


@pytest.mark.parametrize(
    "fails, message",
    [
        ("sigkill", "the forked worker of items 1, 3 was killed by SIGKILL"),
        ("unpicklable", "LocalError: column 1 (in a forked worker; the error does not pickle)"),
    ],
    ids=["sigkill-was killed by SIGKILL", "unpicklable"],
)
def test_criterion_exits_3_when_a_column_worker_dies(monkeypatch, fails, message):
    _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(lineinterp.criterion, "_profile_column", _column_worker_that(fails))
    result = CliRunner().invoke(main, ["criterion", *_CIRCLE6, "--p-max", "3", "--q-max", "3"])
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["numeric failure: " + message]
    _assert_no_children()


# -- forked tables -------------------------------------------------------------


def _count_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def _forks_for(cpus, *lengths):
    # one child per chunk after the caller's, for each mapped list
    return sum(min(cpus, n) - 1 for n in lengths)


@pytest.mark.parametrize("p_max, q_max", [(7, 4), (1, 1)], ids=["more-columns", "fewer-columns"])
def test_criterion_profile_does_not_depend_on_the_cpu_count(monkeypatch, p_max, q_max):
    nodes = generate_nodes(circle_family(ApComplex(0, 0, BITS), "1", 8), precision_bits=BITS)
    forks = _count_forks(monkeypatch)

    def raw_profile():
        prof = criterion_profile(nodes, p_max, q_max, BITS)
        return (
            [[v._mpf_ for v in row] for row in prof.raw],
            [[v._mpf_ for v in row] for row in prof.normalized],
            prof.r_hat_observed._mpf_,
        )

    _use_cpus(monkeypatch, 1)
    serial = raw_profile()
    assert forks == []
    for cpus in (2, 3):
        _use_cpus(monkeypatch, cpus)
        forks.clear()
        assert raw_profile() == serial
        assert len(forks) == _forks_for(cpus, q_max + 1)
        _assert_no_children()


_CIRCLE6 = ["--nodes", "family:circle:0,0,1:6"]
_EXP6 = [*_CIRCLE6, "--function", "builtin:exp_sum:6"]
# (argv, lengths of the lists mapped in forked workers, the table rows last):
# six table rows are more than the CPUs, two are fewer than three CPUs
_TABLES = {
    "converge-3-rows": (
        ["converge", *_EXP6, "--n-min", "2", "--n-max", "4", "--grid", "2x2@0.25+1"], (5, 3)
    ),
    "identity-4-rows": (
        ["identity", *_EXP6, "--n-min", "1", "--n-max", "2", "--grid", "1x1@0.25+1"], (2, 4)
    ),
    "counterexample-2-rows": (["counterexample", "--stages", "2"], (2,)),
    "criterion-6-rows": (["criterion", *_CIRCLE6, "--p-max", "5", "--q-max", "2"], (3, 6)),
    "criterion-2-rows": (["criterion", *_CIRCLE6, "--p-max", "1", "--q-max", "3"], (4, 2)),
    "dd-6-rows": (["dd", *_CIRCLE6, "--kernel", "conj-kernel:2"], (6,)),
    "dd-2-rows": (["dd", *_CIRCLE6, "--kernel", "conj-kernel:2", "--max-order", "1"], (2,)),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("table", sorted(_TABLES))
def test_tables_do_not_depend_on_the_cpu_count(monkeypatch, table, fmt):
    argv, lengths = _TABLES[table]
    runner = CliRunner()
    forks = _count_forks(monkeypatch)

    def stdout():
        forks.clear()
        result = runner.invoke(main, argv + ["--format", fmt])
        assert result.exit_code == 0, result.output
        _assert_no_children()
        return result.stdout_bytes

    _use_cpus(monkeypatch, 1)
    serial = stdout()
    assert forks == []
    for cpus in (2, 3):
        _use_cpus(monkeypatch, cpus)
        assert stdout() == serial
        assert len(forks) == _forks_for(cpus, *lengths)
    monkeypatch.delattr(os, "fork")
    assert stdout() == serial
    if fmt == "json":
        # the streamed document is what the encoder writes for it
        text = serial.decode("utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


@pytest.fixture(scope="module")
def stage5_artifact(tmp_path_factory):
    art = str(tmp_path_factory.mktemp("art") / "art.json")
    assert CliRunner().invoke(main, ["counterexample", "--stages", "5", "--out", art]).exit_code == 0
    return art


_WIDE_TABLES = {
    "dd": ["dd", "--kernel", "conj-kernel:3"],
    "criterion": ["criterion", "--p-max", "14", "--q-max", "6"],
}


@pytest.mark.parametrize("command, fmt", [("dd", "csv"), ("dd", "json"), ("criterion", "json")])
def test_a_written_table_is_never_held_whole(monkeypatch, tmp_path, stage5_artifact, command, fmt):
    # the rows go through the spool and then to the file one at a time, so the
    # traced peak is what the computation holds plus a row, not the table
    runner = CliRunner()
    table = tmp_path / "table"
    argv = _WIDE_TABLES[command] + ["--nodes", stage5_artifact, "--precision", "4096",
                                    "--format", fmt]
    written = []
    for cpus in (1, 2):
        _use_cpus(monkeypatch, cpus)
        tracemalloc.start()
        try:
            result = runner.invoke(main, argv + ["--out", str(table)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert result.stdout == ""
        _assert_no_children()
        written.append(table.read_bytes())
        assert peak < 0.75 * len(written[-1]), (cpus, peak, len(written[-1]))
    assert written[0] == written[1] == runner.invoke(main, argv).stdout_bytes
    assert len(written[0]) > 500_000


# -- the spool -----------------------------------------------------------------


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def _node_file(tmp_path, *reals):
    path = tmp_path / "nodes.json"
    path.write_text(json.dumps({"nodes": [{"re": re, "im": "0"} for re in reals]}))
    return str(path)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_the_spool_is_closed_on_every_exit_path(monkeypatch, tmp_path):
    _use_cpus(monkeypatch, 2)
    runner = CliRunner()
    dd = ["dd", "--nodes", "family:line:0,1,0:8"]
    # dd of 7e499999 z^2 over 0.9 and 0.91: the forked worker's row p = 1
    # passes the digit cap
    capped = ["dd", "--nodes", _node_file(tmp_path, "0.9", "0.91"),
              "--kernel", "analytic:0,0,7e499999"]
    unwritable = dd + ["--out", str(tmp_path / "missing" / "t.csv")]
    for argv, code in ((dd, 0), (capped, 3), (unwritable, 2)):
        before = _open_fds()
        assert runner.invoke(main, argv).exit_code == code, argv
        assert _open_fds() == before, argv
        _assert_no_children()


class _NeedsTwoArgumentsError(Exception):
    # pickles as cls(*args) with one argument, so unpickling it raises TypeError
    def __init__(self, a, b):
        super().__init__(a + b)


def _row_worker_that(fails):
    """cli.render_decimal that ends its forked worker as `fails` says, and runs in the caller."""
    caller = os.getpid()
    render = lineinterp.cli.render_decimal

    class LocalError(Exception):
        pass  # a local class cannot be pickled

    def failing_render(value):
        if os.getpid() != caller:
            if fails == "sigkill":
                os.kill(os.getpid(), signal.SIGKILL)
            if fails == "unpicklable":
                raise LocalError("row")
            raise _NeedsTwoArgumentsError("r", "ow")
        return render(value)

    return failing_render


@pytest.mark.parametrize(
    "fails, message",
    [
        ("sigkill", "the forked worker of items 1, 3, 5 was killed by SIGKILL"),
        ("unpicklable", "LocalError: row (in a forked worker; the error does not pickle)"),
        ("undecodable", "the forked worker of items 1, 3, 5 sent a reply that does not "
                        "decode (TypeError: "),
    ],
    ids=["sigkill", "unpicklable", "undecodable"],
)
def test_dd_exits_3_when_a_row_worker_dies(monkeypatch, tmp_path, fails, message):
    # six rows over two CPUs: the caller renders rows 0, 2, 4 and a worker 1, 3, 5
    _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(lineinterp.cli, "render_decimal", _row_worker_that(fails))
    table = tmp_path / "dd.out"
    for out in ([], ["--out", str(table)], ["--out", str(table), "--format", "json"]):
        result = CliRunner().invoke(main, ["dd", *_CIRCLE6, "--kernel", "conj-kernel:2", *out])
        assert result.exit_code == 3, result.output
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith("numeric failure: " + message), line
        assert not table.exists()
        _assert_no_children()


_SPOOLED = {
    "criterion": ["criterion", *_CIRCLE6, "--p-max", "3", "--q-max", "2"],
    "dd": ["dd", *_CIRCLE6, "--kernel", "conj-kernel:2"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(_SPOOLED))
def test_a_spool_that_cannot_be_made_exits_2(monkeypatch, tmp_path, command, fmt):
    # tempfile reads TMPDIR once per process; its tempdir is read on each call
    _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    result = CliRunner().invoke(main, _SPOOLED[command] + ["--format", fmt])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith("config error: cannot make a spool file: "), line


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(_SPOOLED))
def test_the_spool_leaves_no_file_behind(monkeypatch, tmp_path, command, fmt):
    _use_cpus(monkeypatch, 2)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runner = CliRunner()
    argv = _SPOOLED[command] + ["--format", fmt]
    assert runner.invoke(main, argv).exit_code == 0
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr(lineinterp.cli, "render_decimal", _row_worker_that("sigkill"))
    assert runner.invoke(main, argv).exit_code == 3
    assert list(tmp_path.iterdir()) == []
    _assert_no_children()


def test_a_spool_that_cannot_be_written_exits_2(monkeypatch):
    _use_cpus(monkeypatch, 2)
    runner = CliRunner()
    argv = _SPOOLED["dd"]

    def full(fd, buffers):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    for writev, reason in (
        (full, r"\[Errno %d\] " % errno.ENOSPC),
        (lambda fd, buffers: 10, r"10 of \d+ bytes written"),
    ):
        monkeypatch.setattr(os, "writev", writev)
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert re.match("config error: cannot write the spool file: " + reason, line), line
        _assert_no_children()


_UNFLUSHED_SCRIPT = """
import os, sys
os.sched_getaffinity = lambda pid: set(range(4))
from lineinterp.cli import main
sys.stdout.write("unflushed-marker\\n")
main.main(
    args=["converge", "--nodes", "family:circle:0,0,1:6", "--function",
          "builtin:exp_sum:6", "--n-max", "4", "--grid", "2x2@0.25+4"],
    prog_name="lineinterp",
    standalone_mode=False,
)
"""


def test_children_never_flush_the_callers_stdout():
    # stdout is a buffered pipe, so the marker waits in the buffer while the sweep forks
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, "-c", _UNFLUSHED_SCRIPT],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("unflushed-marker") == 1
    assert proc.stdout.count("n,sup_error,ratio") == 1
