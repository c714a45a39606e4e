"""The benchmark's workloads: fixed lineinterp CLI invocations per seed.

A workload is a list of subcommand invocations run in order in one process.
The benchmark seed selects one of INPUT_SETS recorded input sets
(``seed % INPUT_SETS``); that value goes to every subcommand whose inputs
depend on it (family node walks, grid sample points, probe points), so each
run's outputs can be checked against a golden SHA-256 digest.
"""

from __future__ import annotations

INPUT_SETS = 16

# Placeholders replaced per run: the input seed and the artifact path.
SEED = "{seed}"
ART = "{art}"


class Step:
    """One subcommand invocation; every step is expected to exit 0."""

    def __init__(self, *argv):
        self.argv = argv
        self.subcommand = argv[0]
        self.writes_artifact = "--out" in argv

    def resolve(self, seed, art):
        return [a.replace(SEED, str(seed)).replace(ART, art) for a in self.argv]


WORKLOADS = {
    "converge-sweep": (
        Step(
            "converge", "--nodes", "family:circle:0,0,1:24", "--function", "builtin:exp_sum:40",
            "--n-min", "2", "--n-max", "16", "--seed", SEED,
        ),
    ),
    "identity-sweep": (
        Step(
            "identity", "--nodes", "family:circle:0,0,1:16", "--function", "builtin:exp_sum:30",
            "--n-min", "1", "--n-max", "6", "--seed", SEED,
        ),
    ),
    "kernel-growth": (
        Step("counterexample", "--stages", "9", "--out", ART),
        Step("criterion", "--nodes", ART, "--p-max", "26", "--q-max", "12", "--precision", "8192"),
        Step("dd", "--nodes", ART, "--kernel", "conj-kernel:3", "--precision", "8192"),
        Step(
            "criterion", "--nodes", "family:line:0,1,0:41", "--p-max", "40", "--q-max", "20",
            "--seed", SEED,
        ),
        Step("mobius", "--nodes", "family:line:0,1,0:64", "--eta-inf", "0,1", "--seed", SEED),
    ),
}

SUBCOMMANDS = tuple(dict.fromkeys(step.subcommand for steps in WORKLOADS.values() for step in steps))


def input_seed(seed):
    return seed % INPUT_SETS
