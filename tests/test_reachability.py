"""Reachability: every function of the package is entered by a CLI run, or has a stated reason.

A committed corpus of CLI invocations runs in this process under
sys.setprofile, with the CPU affinity patched to one CPU so that fork_spool
forks no worker and all the work is seen. The corpus covers every
subcommand, both formats, every kernel kind, the three node sources (a
family, a JSON node file, a counterexample artifact), the function sources
(the three builtin specs and a JSON series file), `dd --max-order`, an
8192-bit table whose rows take the chunked renderer, and the failure exits;
each invocation asserts its exit code, so a case that fails early cannot
quietly shrink the coverage.

The function definitions of src/ that no invocation enters, keyed by module
and qualified name, must equal NEVER_ENTERED, whose groups each say why their
members stay. A member that no run needs and no group names is deleted, and
a member that a run starts to enter, or that goes, leaves the list. Lambdas
and comprehensions are not counted, and two definitions that share a
qualified name, as the two inner `fn` of germ_for_family do, count as one.

The name rule of test_imports.py, test_every_public_member_is_read_or_allowed,
stays beside this one: it runs without the corpus and sees the public
members no code names. Its allowlist UNREAD_PUBLIC_ALLOWED is kept inside
this one, group by group, except for the click commands, which no code names
but every run enters.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import types
from pathlib import Path

import pytest
from click.testing import CliRunner

from lineinterp import precision
from lineinterp.cli import main
from test_imports import UNREAD_PUBLIC_ALLOWED

ROOT = Path(__file__).resolve().parents[1]
MODULES = [path.stem for path in sorted((ROOT / "src" / "lineinterp").glob("*.py"))]

NODES, SERIES, ARTIFACT = "{nodes}", "{series}", "{artifact}"

# (argv, exit code), run in order: the first case writes the artifact later ones read
CORPUS = [
    (["counterexample", "--stages", "2", "--out", ARTIFACT], 0),
    (["counterexample", "--stages", "1", "--kernel", "conj-kernel:2:1", "--format", "json"], 0),
    # stage 3 stalls at the 64-bit ceiling: a ConstructionFailureError
    (["counterexample", "--stages", "3", "--precision", "64", "--max-bits", "64"], 3),
    (["counterexample", "--kernel", "identity"], 3),
    (["counterexample", "--kernel", "conjugation"], 2),
    # 8192-bit rows of the artifact, which the chunked renderer writes
    (["dd", "--nodes", ARTIFACT, "--kernel", "conj-kernel:3", "--precision", "8192"], 0),
    (["dd", "--nodes", NODES, "--kernel", "analytic:1,0.5,0.25", "--max-order", "2",
      "--format", "json"], 0),
    (["dd", "--nodes", "family:circle:0,0,1:4", "--kernel", "identity"], 0),
    (["dd", "--nodes", "family:line:0,1,0:3"], 0),
    (["dd", "--nodes", NODES, "--kernel", "conj-kernel:x"], 2),
    (["criterion", "--nodes", ARTIFACT, "--p-max", "5", "--q-max", "2", "--format", "json"], 0),
    (["criterion", "--nodes", "family:line:0,1,0:5", "--p-max", "4", "--q-max", "1"], 0),
    (["criterion", "--nodes", NODES, "--precision", "32"], 2),
    (["converge", "--nodes", "family:circle:0,0,1:4", "--function", "builtin:exp_sum:4",
      "--grid", "2x2@0.5+1", "--n-max", "3"], 0),
    (["converge", "--nodes", NODES, "--function", SERIES, "--grid", "2x2@0.5", "--n-max", "3",
      "--format", "json"], 0),
    (["converge", "--nodes", NODES, "--function", "builtin:exp_sum:4", "--grid", "2x3@0.5"], 2),
    (["identity", "--nodes", "family:circle:0,0,1:4", "--function",
      "builtin:poly:0,0,1,0;1,1,2,0;3,0,0,-1", "--grid", "2x2@0.5+1", "--n-max", "3",
      "--format", "json"], 0),
    (["identity", "--nodes", NODES, "--function", "builtin:expcos:4", "--grid", "2x2@0.25",
      "--n-max", "2"], 0),
    # a tail capped below the series order breaks the identity
    (["identity", "--nodes", NODES, "--function", "builtin:exp_sum:4", "--grid", "2x2@0.25",
      "--n-max", "2", "--max-order", "1"], 1),
    (["identity", "--nodes", NODES, "--function", "missing.json"], 2),
    (["mobius", "--nodes", "family:line:0,1,0:4", "--eta-inf", "0,1"], 0),
    (["mobius", "--nodes", NODES, "--eta-inf", "inf", "--phi", "0.5"], 0),
    # the center is a node
    (["mobius", "--nodes", NODES, "--eta-inf", "0.5"], 2),
]

# the functions no corpus run enters, each group kept for the reason beside it
NEVER_ENTERED = {
    # the identity oracles the paper relies on, the primitives their tests
    # build on, and the helpers only they call
    "oracles": {
        "divdiff": {
            "product", "delta", "newton_sum", "lagrange_sum", "leibniz_delta",
            "delta_analytic", "monotone_tuple_count", "_order_prefix", "DividedDiffTable.entry",
        },
    },
    # the one-point edges and default_kernel, which the benchmark harness
    # imports, and what only they reach: the near pairs and the inverse gap
    # product of identity_report, whose gaps the cancellation gate also reads
    # when its float sum is too close to call
    "edges": {
        "funcmodel": {"eval2"},
        "interpolate": {
            "eval_EN", "eval_RN_lagrange", "eval_RN_newton", "identity_report",
            "_point_tables", "_edge_value",
        },
        "divdiff": {
            "NodeConditioning.gaps", "NodeConditioning.near_pairs",
            "NodeConditioning.inverse_gap_product",
        },
        "counterexample": {"default_kernel"},
    },
    # kept for their planned callers: the proved criterion bound and scaled tolerances
    "planned": {
        "criterion": {"germ_for_family", "germ_for_family.<locals>.fn"},
        "precision": {"ulp", "ApComplex.magnitude"},
    },
    # read by the benchmark's tracer
    "benchmark reads": {"counterexample": {"AdversarialSequence.stages"}},
    # the readers of formats the package writes, which
    # test_package_writes_only_formats_it_reads_back requires beside their writers
    "format symmetry": {
        "counterexample": {"StageRecord.from_json_obj", "AdversarialSequence.from_json_obj"},
    },
    # equality, hashing and repr of the public value type
    "value type": {"precision": {"ApComplex.__eq__", "ApComplex.__hash__", "ApComplex.__repr__"}},
    # copy and pickle rebuild these through their constructors
    "pickling": {
        "precision": {"ApComplex.__reduce__"},
        "divdiff": {"NodeSequence.__reduce__"},
        "funcmodel": {"TaylorSeries2.__reduce__"},
    },
    # the guards that keep these values immutable
    "immutability": {
        "precision": {"ApComplex.__setattr__"},
        "divdiff": {"NodeSequence.__setattr__"},
        "funcmodel": {"TaylorSeries2.__setattr__"},
    },
    # run only when fork_spool forks a worker, which one CPU never does;
    # tests/test_forked_sweeps.py covers them
    "fork-only": {"precision": {"_fork_chunk", "_lost", "_ended"}},
    # a decorator, entered once when cli.py is imported
    "import-time": {"cli": {"_guarded"}},
}


def defined_functions(code):
    """Qualified names of the functions defined in a code object, at any depth.

    Class bodies, which are not optimized, and lambdas and comprehensions,
    whose names start with "<", are left out.
    """
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                yield const.co_qualname
            yield from defined_functions(const)


def test_defined_functions_names_each_def_by_its_qualified_name():
    source = (
        "def top():\n"
        "    def inner():\n"
        "        return [x for x in ()]\n"
        "    return inner, lambda: 0\n"
        "class Box:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
    )
    # the checker itself
    assert set(defined_functions(compile(source, "sample", "exec"))) == {
        "top", "top.<locals>.inner", "Box.size",
    }


def _write_inputs(tmp):
    nodes = tmp / "nodes.json"
    nodes.write_text(json.dumps({"nodes": [
        {"re": "0.5", "im": "0"}, {"re": "0", "im": "0.25"}, {"re": "-0.25", "im": "0"},
        {"re": "0", "im": "-0.125"}, {"re": "0.125", "im": "0"},
    ]}))
    series = tmp / "series.json"
    series.write_text(json.dumps({"max_order": 2, "coeffs": [
        {"k": 0, "l": 0, "re": "1", "im": "0"}, {"k": 1, "l": 1, "re": "2", "im": "-0.5"},
    ]}))
    return {"nodes": str(nodes), "series": str(series), "artifact": str(tmp / "artifact.json")}


@pytest.fixture(scope="module")
def never_entered(tmp_path_factory):
    """(module, qualified name) of each function of src/ that no corpus run enters."""
    paths = _write_inputs(tmp_path_factory.mktemp("corpus"))
    stems = {}
    defined = set()
    for stem in MODULES:
        module = importlib.import_module("lineinterp" if stem == "__init__" else "lineinterp." + stem)
        stems[module.__file__] = stem
        code = compile(Path(module.__file__).read_text(encoding="utf-8"), module.__file__, "exec")
        defined.update((stem, name) for name in defined_functions(code))
    # the powers cache would hide _pow from a corpus run after another test
    precision._pow.cache_clear()
    runner = CliRunner()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        for argv, code in CORPUS:
            argv = [arg.format(**paths) for arg in argv]
            sys.setprofile(profile)
            try:
                result = runner.invoke(main, argv)
            finally:
                sys.setprofile(None)
            assert result.exit_code == code, (argv, result.output)
    seen = {(stems[c.co_filename], c.co_qualname) for c in entered if c.co_filename in stems}
    return defined - seen


def _keys(group):
    """(module, name) of each member of a group {module or its file name: names}."""
    return {(Path(module).stem, name) for module, names in group.items() for name in names}


def test_every_function_is_entered_or_has_a_reason(never_entered):
    allowed = set().union(*map(_keys, NEVER_ENTERED.values()))
    missed = sorted(never_entered - allowed)
    listed = sorted(allowed - never_entered)
    lines = ["never entered, on no list (give a reason or delete it):"]
    lines += ["  %s:%s" % key for key in missed]
    lines += ["on the list, but entered or gone (take it off the list):"]
    lines += ["  %s:%s" % key for key in listed]
    assert not missed and not listed, "\n".join(lines)


def test_the_name_rule_allowlist_sits_in_this_one(never_entered):
    for group, members in UNREAD_PUBLIC_ALLOWED.items():
        keys = _keys(members)
        if group == "commands":
            # click enters the subcommands, so the corpus reaches every one
            assert not keys & never_entered, sorted(keys & never_entered)
        else:
            outside = keys - _keys(NEVER_ENTERED.get(group, {}))
            assert not outside, (group, sorted(outside))
