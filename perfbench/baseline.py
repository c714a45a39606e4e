"""Measure the per-function baseline cases and append them to the trajectory.

    python3 perfbench/baseline.py --label NAME

The cases are fixed library calls at 256 bits (median of repeated calls)
plus two full CLI runs, followed by every benchmark workload run untraced
for the run length that BENCHMARK.json sets (run_seconds). The entry, with
the environment and that run length, is appended to
perfbench/trajectory.json; earlier entries are never changed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import time

import run
import worker

MIN_REPEATS = 3
CASE_SECONDS = 2.0


def _median_time(fn, min_repeats=MIN_REPEATS, seconds=CASE_SECONDS):
    samples = []
    start = time.perf_counter()
    while len(samples) < min_repeats or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), len(samples)


def library_cases():
    """ROADMAP baseline cases, named as there; each maps to a zero-argument call."""
    from mpmath import mpc, mpf, workprec

    from lineinterp import (
        build_sequence,
        circle_family,
        conjugation,
        criterion_profile,
        default_kernel,
        default_zgrid,
        delta_table,
        eval2,
        eval_EN,
        eval_RN_lagrange,
        eval_RN_newton,
        generate_nodes,
        identity_report,
        line_family,
        restrict_to_line,
        series_from_spec,
    )

    bits = 256
    f = series_from_spec("exp_sum:40", bits)
    circle = generate_nodes(circle_family(("0", "0"), "1", 24), seed=0, precision_bits=bits)
    line = generate_nodes(line_family("0", "1", "0", 16), seed=0, precision_bits=bits)
    z1, z2 = default_zgrid(bits)[-1]
    restrictions = [restrict_to_line(f, circle[q], bits) for q in range(16)]
    with workprec(bits):
        a, b, c = mpc(mpf(1) / 3, mpf(2) / 7), mpc(mpf(5) / 11, -mpf(1) / 13), mpc(0)

    def mul_add_batch():
        with workprec(bits):
            acc = c
            for _ in range(10000):
                acc = acc * a + b

    return {
        "mpc multiply-add (256 bits, per op)": (mul_add_batch, 1e-4),
        "eval_EN (N=16, exp_sum:40)": (lambda: eval_EN(f, circle, 16, z1, z2, restrictions), 1),
        "eval2 (exp_sum:40)": (lambda: eval2(f, z1, z2), 1),
        "restrict_to_line (exp_sum:40)": (lambda: restrict_to_line(f, circle[0], bits), 1),
        "eval_RN_lagrange (N=16)": (
            lambda: eval_RN_lagrange(f, circle, 16, z1, z2, restrictions), 1),
        "eval_RN_newton (N=16)": (lambda: eval_RN_newton(f, circle, 16, z1, z2), 1),
        "identity_report (N=16)": (lambda: identity_report(f, circle, 16, z1, z2), 1),
        "delta_table, 24 nodes": (lambda: delta_table(conjugation(), circle, bits), 1),
        "criterion_profile (15, 15)": (lambda: criterion_profile(line, 15, 15, bits), 1),
        "build_sequence, 5 stages": (lambda: build_sequence(default_kernel(), 5), 1),
        "build_sequence, 7 stages": (lambda: build_sequence(default_kernel(), 7), 1),
    }


CLI_CASES = {
    "CLI converge (README example)": [
        "converge", "--nodes", "family:circle:0,0,1:24", "--function", "builtin:exp_sum:40",
        "--n-min", "2", "--n-max", "16",
    ],
    "CLI identity (16 circle nodes, exp_sum:30, N=1..12)": [
        "identity", "--nodes", "family:circle:0,0,1:16", "--function", "builtin:exp_sum:30",
        "--n-min", "1", "--n-max", "12",
    ],
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    run_seconds = run.load_json(run.ROOT / "BENCHMARK.json")["run_seconds"]
    cli = worker.load_cli()
    cases = {}
    for name, (fn, scale) in library_cases().items():
        seconds, repeats = _median_time(fn)
        cases[name] = {"median_s": seconds * scale, "repeats": repeats}
        print("%-52s %.6g s (n=%d)" % (name, seconds * scale, repeats), flush=True)
    for name, argv_ in CLI_CASES.items():
        t0 = time.perf_counter()
        code, _, err = worker.run_step(cli, argv_)
        if code != 0:
            run.fail("%s exited %d: %s" % (name, code, err))
        cases[name] = {"median_s": time.perf_counter() - t0, "repeats": 1}
        print("%-52s %.6g s (n=1)" % (name, cases[name]["median_s"]), flush=True)
    workloads = {}
    for name in sorted(worker.WORKLOADS):
        result = run.run(name, 0, run_seconds, False)
        metrics = run.end_to_end(result)
        metrics["fail_frac"] = result["failed"] / result["attempted"]
        metrics["runs"] = len(result["runs"])
        workloads[name] = metrics
        print(name, json.dumps(metrics), flush=True)
    path = run.HERE / "trajectory.json"
    with open(path, encoding="utf-8") as fh:
        trajectory = json.load(fh)
    trajectory.append(
        {
            "label": args.label,
            "date": datetime.date.today().isoformat(),
            "env": run.environment(),
            "run_seconds": run_seconds,
            "cases": cases,
            "workloads": workloads,
        }
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
