"""lineinterp benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Each workload run happens in a fresh worker process (perfbench/worker.py)
that drives the real CLI subcommands in-process, one after another, on one
thread. Runs repeat until the next one would overrun --seconds (at least
one; with --trace 1 at least one untraced and one traced run, alternating).
Every subcommand's output digest is checked against golden.json.

With --trace 0 the metrics are the end-to-end ones from BENCHMARK.json:
wall_s (median run time after set-up), setup_s (median of several fresh
`import lineinterp.cli` processes) and peak_rss_mib (median peak resident
memory of a worker). With --trace 1 they are the per-layer metrics of the
traced runs plus trace.overhead_ratio. The last stdout line is one JSON
object with keys correct, attempted, failed and metrics; the lines before it
give the environment and each metric by name and unit, including fail_frac.
A full record is written to perfbench/.out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, input_seed  # noqa: E402

SETUP_REPEATS = 11
OUT = HERE / ".out"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        fail("cannot read %s: %s" % (path, exc))


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    """Interpreter, mpmath backend and CPU; the backend decides comparability."""
    backend = mpmath.libmp.BACKEND
    trajectory = load_json(HERE / "trajectory.json")
    baseline = trajectory[0]["env"]["mpmath_backend"] if trajectory else backend
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": backend,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "baseline_backend": baseline,
        "backend_matches_baseline": backend == baseline,
    }


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def measure_setup(repeats=SETUP_REPEATS):
    """Median wall time of a fresh interpreter importing lineinterp.cli."""
    cmd = [sys.executable, "-c", "import lineinterp.cli"]
    env = worker_env()
    subprocess.run(cmd, cwd=ROOT, env=env, check=True)  # writes bytecode caches
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True)
        samples.append(time.perf_counter() - start)
    return samples


def run_worker(workload, seed, trace, run_id):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(int(trace)), "--run-id", run_id],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("worker for %s exited with %d" % (workload, proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1])


def check_steps(record, golden):
    """Count the steps whose exit code is not 0 or whose digest is not golden."""
    expected = golden.get(record["workload"], {}).get(str(record["input_seed"]), [])
    failed = 0
    for i, step in enumerate(record["steps"]):
        ok = step["exit"] == 0 and i < len(expected) and step["sha256"] == expected[i]
        if not ok:
            failed += 1
            print("FAILED %s step %d (%s): exit %d, sha256 %s" % (
                record["workload"], i, step["subcommand"], step["exit"], step["sha256"]),
                file=sys.stderr)
            sys.stderr.write(step["stderr"])
    return failed


def run(workload, seed, seconds, trace):
    """Repeat worker runs of one workload until --seconds would be overrun."""
    start = time.perf_counter()
    golden = load_json(HERE / "golden.json")
    setup = measure_setup()
    plain, traced = [], []
    attempted = failed = 0
    while True:
        use_trace = trace and len(traced) < len(plain)
        t0 = time.perf_counter()
        run_id = "%s-%d-%d" % (workload, seed, len(plain) + len(traced))
        record = run_worker(workload, seed, use_trace, run_id)
        (traced if use_trace else plain).append(record)
        attempted += len(record["steps"])
        failed += check_steps(record, golden)
        last = time.perf_counter() - t0
        done = not trace or traced
        if done and time.perf_counter() - start + last > seconds:
            break
    return {
        "workload": workload,
        "seed": seed,
        "input_seed": input_seed(seed),
        "attempted": attempted,
        "failed": failed,
        "setup_samples": setup,
        "runs": plain,
        "traced_runs": traced,
    }


def end_to_end(result):
    walls = [r["wall_s"] for r in result["runs"]]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(result["setup_samples"]),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in result["runs"]),
    }


def per_layer(result):
    layers = [r["layers"] for r in result["traced_runs"]]
    out = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
    out["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in result["traced_runs"])
        / statistics.median(r["wall_s"] for r in result["runs"])
    )
    return out


def report(result, specs, env):
    """Print the human lines; return the result JSON object."""
    values = per_layer(result) if result["traced_runs"] else end_to_end(result)
    walls = [r["wall_s"] for r in result["runs"]]
    print("workload %s seed=%d input_seed=%d runs=%d traced_runs=%d" % (
        result["workload"], result["seed"], result["input_seed"],
        len(result["runs"]), len(result["traced_runs"])))
    metrics = {}
    for spec in specs:
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        print("  %-44s %.6g %s" % (spec["name"], values[spec["name"]], spec["unit"]))
    print("  wall_s samples: n=%d median=%.6g s max=%.6g s" % (
        len(walls), statistics.median(walls), max(walls)))
    print("  fail_frac %.6g ratio (%d of %d invocations failed)" % (
        result["failed"] / result["attempted"], result["failed"], result["attempted"]))
    OUT.mkdir(exist_ok=True)
    path = OUT / ("result-%s-%d-trace%d.json" % (
        result["workload"], result["seed"], int(bool(result["traced_runs"]))))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dict(result, env=env, metrics=metrics), fh, indent=1)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lineinterp" / "cli.py").is_file():
        fail("no lineinterp sources under %s" % (ROOT / "src"))
    bench = load_json(ROOT / "BENCHMARK.json")
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    env = environment()
    print("env " + json.dumps(env))
    if not env["backend_matches_baseline"]:
        print("WARNING: mpmath backend %r differs from the baseline's %r; do not compare"
              % (env["mpmath_backend"], env["baseline_backend"]), file=sys.stderr)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run(name, args.seed, args.seconds, bool(args.trace))
        results[name] = report(result, specs, env)
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))


if __name__ == "__main__":
    main()
