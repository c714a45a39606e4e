"""Self-checks of the benchmark's tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracer as tracing  # noqa: E402
import worker  # noqa: E402

cli = worker.load_cli()


def _fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_of_nested_spans():
    # root [0,10] > a [1,5] > a.inner [2,4]; root > b [6,9]
    tr = tracing.Tracer("t", clock=_fake_clock([0, 1, 2, 4, 5, 6, 9, 10]))
    root = tr.begin("cli.workload")
    a = tr.begin("funcmodel.eval2")
    inner = tr.begin("precision.ApComplex.to_mpc")
    tr.end(inner)
    tr.end(a)
    b = tr.begin("interpolate.eval_EN")
    tr.end(b)
    tr.end(root)
    assert tracing.self_times(tr.spans) == [3, 2, 2, 3]
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]
    assert {s.run_id for s in tr.spans} == {"t"}
    table = tracing.span_table(tr)
    assert table["funcmodel.eval2"] == {"calls": 1, "total_s": 4, "self_s": 2}
    layers = tracing.layer_self_times(table)
    assert (layers["cli"], layers["funcmodel"], layers["precision"], layers["interpolate"]) == (3, 2, 2, 3)
    assert sum(layers.values()) == 10


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [
        tracing.Span("p", 0.0, 10.0, None, "t"),
        tracing.Span("c1", 1.0, 4.0, 0, "t"),
        tracing.Span("c2", 3.0, 6.0, 0, "t"),
        tracing.Span("c3", 9.0, 12.0, 0, "t"),
    ]
    assert tracing.self_times(spans) == [4.0, 3.0, 3.0, 3.0]


def test_spans_must_close_innermost_first():
    tr = tracing.Tracer("t", clock=_fake_clock(itertools.count()))
    outer = tr.begin("a")
    tr.begin("b")
    with pytest.raises(RuntimeError):
        tr.end(outer)


def _bindings():
    """Every object bound in a lineinterp module or on a class defined there."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("lineinterp"):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, raw in vars(value).items():
                    out[(name, attr, cattr)] = raw
    return out


def test_uninstall_restores_original_objects():
    import lineinterp.cli as lcli
    import lineinterp.funcmodel as funcmodel
    import lineinterp.precision as precision

    before = _bindings()
    tr = tracing.Tracer("t")
    tr.install()
    try:
        # one wrapper shared by every namespace that binds the name
        assert funcmodel.eval2 is not before[("lineinterp.funcmodel", "eval2")]
        assert lcli.eval2 is funcmodel.eval2
        assert funcmodel.eval2.__wrapped__ is before[("lineinterp.funcmodel", "eval2")]
        from_mpc = vars(precision.ApComplex)["from_mpc"]
        assert isinstance(from_mpc, classmethod)
        assert from_mpc is not before[("lineinterp.precision", "ApComplex", "from_mpc")]
        # private helpers and click commands stay unwrapped
        assert lcli._load_nodes is before[("lineinterp.cli", "_load_nodes")]
        assert lcli.cmd_converge is before[("lineinterp.cli", "cmd_converge")]
    finally:
        tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


SMALL_STEPS = [
    ["converge", "--nodes", "family:circle:0,0,1:6", "--function", "builtin:exp_sum:8",
     "--n-min", "2", "--n-max", "4", "--grid", "2x2@0.5+2", "--seed", "3"],
    ["identity", "--nodes", "family:circle:0,0,1:5", "--function", "builtin:exp_sum:8",
     "--n-min", "1", "--n-max", "3", "--grid", "2x2@0.5+2", "--seed", "3"],
    ["counterexample", "--stages", "3", "--out", "{art}"],
    ["criterion", "--nodes", "{art}", "--p-max", "6", "--q-max", "3"],
    ["dd", "--nodes", "{art}", "--kernel", "conj-kernel:2"],
    ["mobius", "--nodes", "family:line:0,1,0:6", "--eta-inf", "0,1", "--seed", "3"],
]


def _run_small(art, tracer=None):
    out = []
    if tracer is not None:
        tracer.install()
    try:
        for argv in SMALL_STEPS:
            argv = [a.replace("{art}", art) for a in argv]
            code, digest, err = worker.run_step(cli, argv, art if "--out" in argv else None)
            assert code == 0, err
            out.append(digest)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return out


def test_traced_outputs_are_byte_identical(tmp_path):
    plain = _run_small(str(tmp_path / "plain.json"))
    tr = tracing.Tracer("t")
    traced = _run_small(str(tmp_path / "traced.json"), tr)
    assert traced == plain
    names = {s.name for s in tr.spans}
    for layer in ("precision", "divdiff", "funcmodel", "interpolate", "criterion",
                  "mobius", "counterexample"):
        assert any(n.startswith(layer + ".") for n in names), layer


def test_converge_never_builds_a_divided_difference_table():
    tr = tracing.Tracer("t")
    tr.install()
    try:
        code, _, err = worker.run_step(cli, SMALL_STEPS[0])
    finally:
        tr.uninstall()
    assert code == 0, err
    metrics = worker.layer_metrics(tr)
    assert metrics["divdiff.delta_table.calls"] == 0
    assert metrics["funcmodel.eval2.calls"] == 3 * 6
    # f(z) is recomputed once per N: 6 grid points, N = 2..4
    assert metrics["funcmodel.eval2.distinct_ratio"] == pytest.approx(1 / 3)
