"""Self-test of the benchmark: python3 -m pytest perfbench

Checks the tracer's self-time arithmetic, runs every workload at a tiny
shape in both modes and compares the printed metric names with
BENCHMARK.json, and shows that a wrong program output makes the run
exit nonzero.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import spans  # noqa: E402
from ncelm import evaluation  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_is_parent_minus_children_and_never_negative():
    tree = [
        spans.Span("train", 0.0, 10.0),
        spans.Span("grad", 1.0, 4.0, parent=0),
        spans.Span("sample", 1.5, 2.0, parent=1),
        spans.Span("step", 5.0, 6.0, parent=0),
        # A child that reads one clock tick past its parent.
        spans.Span("leaf", 6.0, 7.0),
        spans.Span("late", 6.0, 7.0 + 1e-9, parent=4),
    ]
    own = spans.self_seconds(tree)
    assert own[:4] == pytest.approx([6.0, 2.5, 0.5, 1.0])
    assert own[4] == 0.0
    assert min(own) >= 0.0
    assert sum(own[:4]) == pytest.approx(tree[0].seconds)
    assert spans.within(tree, 2, "train") and not spans.within(tree, 0, "train")


def test_tracer_restores_what_it_wraps():
    class Owner:
        @staticmethod
        def f(x):
            return x + 1

    original = Owner.f
    tracer = spans.Tracer()
    tracer.patch(Owner, "f", "owner.f", lambda s, a, k, r: s.counts.update(out=r))
    with tracer.span("outer"):
        assert Owner.f(1) == 2
    tracer.restore()
    assert Owner.f is original
    assert [(s.name, s.parent, s.counts) for s in tracer.spans] == [
        ("outer", None, {}), ("owner.f", 0, {"out": 2})
    ]


def tiny(w):
    # A strong-context truth model, so that a two-epoch model is well
    # above chance on completion.
    return replace(
        w, vocab_size=60, dim=8, feature_scale=1.0, train_sentences=1000,
        valid_sentences=100, test_sentences=100, minibatch_size=100, epochs=2,
        learning_rate=0.01, n_problems=30,
        train_pairs=None if w.train_pairs is None else 5000,
    )


TINY = {name: tiny(w) for name, w in WORKLOADS.items()}


def run_main(capsys, name, trace):
    code = bench.main(
        ["--workload", name, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        ROOT, TINY,
    )
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric(capsys, name, trace):
    code, result = run_main(capsys, name, trace)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_each_kind_warms_up_once_before_its_timed_calls():
    run = bench.measure(TINY["nce-small-ctx"], 3, 0.1, False, ROOT)
    assert run.failure is None
    assert [(op.kind, op.warmup) for op in run.ops[:3]] == [
        ("train", True), ("ppl", True), ("complete", True)
    ]
    assert not any(op.warmup for op in run.ops[3:])
    assert len(run.setup_s) == bench.SETUP_REPEATS
    for kind, least in bench.MIN_CALLS.items():
        assert len(run.timed(kind)) >= least


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_wrong_perplexity_fails_the_run(capsys, monkeypatch):
    honest = evaluation.perplexity
    monkeypatch.setattr(
        evaluation, "perplexity", lambda *a, **k: honest(*a, **k) * (1 + 1e-6)
    )
    code, result = run_main(capsys, "nce-small-ctx", 0)
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1
