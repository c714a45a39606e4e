"""Run one workload once, in this process, and print one JSON record.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

The worker imports ``lineinterp.cli`` from the checkout's ``src`` directory
and calls the click group in-process for each step, with stdout streamed into
a SHA-256 digest. Its record holds the wall time of the steps (import
excluded), the process's peak resident memory, each step's exit code and
output digest, and with ``--trace 1`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import click

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import SUBCOMMANDS, WORKLOADS, input_seed  # noqa: E402


class _DigestSink(io.RawIOBase):
    """Binary sink that keeps only a running SHA-256 of what it is given."""

    def __init__(self, hasher):
        self.hasher = hasher

    def writable(self):
        return True

    def write(self, data):
        self.hasher.update(data)
        return len(data)


def load_cli(root=ROOT):
    """Import lineinterp.cli from root/src; exit 2 when it is not there."""
    src = root / "src"
    if not (src / "lineinterp" / "cli.py").is_file():
        sys.exit("perfbench: no lineinterp sources under %s" % src)
    sys.path.insert(0, str(src))
    import lineinterp.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "lineinterp").resolve():
        sys.exit("perfbench: imported lineinterp from %s, not %s" % (cli.__file__, src))
    return cli


def run_step(cli, argv, artifact=None):
    """Invoke one subcommand; returns (exit code, output digest, stderr)."""
    hasher = hashlib.sha256()
    stdout = io.TextIOWrapper(io.BufferedWriter(_DigestSink(hasher)), encoding="utf-8")
    stderr = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            cli.main.main(args=argv, prog_name="lineinterp", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except Exception:  # a crash is a failed step, reported with its traceback
            traceback.print_exc(file=stderr)
            code = -1
        stdout.flush()
    if artifact is not None and os.path.exists(artifact):
        with open(artifact, "rb") as fh:
            hasher.update(fh.read())
    return code, hasher.hexdigest(), stderr.getvalue()


def peak_rss_mib():
    """Peak resident memory of this process image.

    getrusage's ru_maxrss also counts the parent's memory at the time of the
    fork/exec that started us, so the per-image high-water mark is preferred.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(cli, name, seed, trace=False, run_id="run"):
    """Run every step of a workload once; returns the worker record."""
    seed = input_seed(seed)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=HERE / ".out"))
    art = str(work / "artifact.json")
    tracer = tracing.Tracer(run_id) if trace else None
    steps = []
    try:
        if tracer is not None:
            tracer.install()
            root_span = tracer.begin("cli.workload")
        start = time.perf_counter()
        for step in WORKLOADS[name]:
            if tracer is not None:
                span = tracer.begin("cli." + step.subcommand)
            code, digest, err = run_step(
                cli, step.resolve(seed, art), art if step.writes_artifact else None
            )
            if tracer is not None:
                tracer.end(span)
            steps.append({"subcommand": step.subcommand, "exit": code, "sha256": digest, "stderr": err[-2000:]})
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.end(root_span)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": name,
        "input_seed": seed,
        "wall_s": wall,
        "peak_rss_mib": peak_rss_mib(),
        "steps": steps,
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer)
        record["spans"] = tracing.span_table(tracer)
    return record


def layer_metrics(tracer):
    """The per-layer metrics of one traced workload run, by name."""
    table = tracing.span_table(tracer)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def own(name):
        return table.get(name, {}).get("self_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("funcmodel.eval2", "funcmodel.restrict_to_line"):
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = own(name)
        m[name + ".distinct_ratio"] = ratio(tracer.distinct(name), calls(name))
    for name in ("interpolate.eval_EN", "interpolate.identity_report", "divdiff.delta_table",
                 "mobius.line_factor_check", "precision.render_decimal"):
        m[name + ".calls"] = calls(name)
    for name in (
        "interpolate.eval_EN", "interpolate.eval_RN_newton", "interpolate.eval_RN_lagrange",
        "interpolate.eval_tail", "interpolate.identity_report", "interpolate.condition_estimate",
        "divdiff.delta_table", "counterexample.build_sequence", "counterexample.verify_growth",
        "counterexample.wirtinger_at_zero", "criterion.criterion_profile",
        "criterion.generate_nodes", "mobius.pushforward", "precision.render_decimal",
    ):
        m[name + ".self_s"] = own(name)
    m["divdiff.delta_table.entries"] = tracer.counts["divdiff.delta_table.entries"]
    m["divdiff.kernel_evals"] = calls("divdiff.ScalarFunction.raw")
    m["divdiff.kernel_eval_s"] = own("divdiff.ScalarFunction.raw")
    attempts = tracer.counts["counterexample.stage_attempts"]
    m["counterexample.stage_attempts"] = attempts
    m["counterexample.stage_yield"] = ratio(tracer.counts["counterexample.stages"], attempts)
    m["counterexample.final_bits"] = tracer.final_bits
    m["precision.to_mpc.calls"] = calls("precision.ApComplex.to_mpc")
    m["precision.from_mpc.calls"] = calls("precision.ApComplex.from_mpc")
    for layer, seconds in tracing.layer_self_times(table).items():
        m[layer + ".self_s"] = seconds
    for sub in SUBCOMMANDS:
        m["cli.%s.wall_s" % sub] = table.get("cli." + sub, {}).get("total_s", 0.0)
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args(argv)
    cli = load_cli()
    (HERE / ".out").mkdir(exist_ok=True)
    record = run_workload(cli, args.workload, args.seed, bool(args.trace), args.run_id)
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
