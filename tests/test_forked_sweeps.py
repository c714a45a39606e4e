"""Work dealt to forked workers through `precision.fork_map`.

`LinePlan.sup_errors` and `LinePlan.identity_residuals` deal their points,
`criterion_profile` its kernel-power columns, and the `criterion` and `dd`
commands the rendering of their table rows round-robin to one forked child
per usable CPU. These tests pin that the result does not depend on the CPU
count, that a failure reaches the caller as the plain loop would raise it,
that every child is reaped, and that a child never flushes the caller's
buffered stdout.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from click.testing import CliRunner

from lineinterp import (
    ApComplex,
    ConfigError,
    LinePlan,
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
# (argv, lengths of the lists mapped in forked workers): six table rows are
# more than the CPUs, two are fewer than three CPUs
_TABLES = {
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
