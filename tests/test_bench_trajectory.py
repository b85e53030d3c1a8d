import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_trajectory",
    Path(__file__).resolve().parent.parent / "tools" / "bench_trajectory.py",
)
bench_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trajectory)


def _result(tmp_path, seed, revision, rate, correct=True, setups=(0.1, 0.3, 0.2)):
    """A hand-made perfbench result file with two end-to-end metrics and
    the run's list of timed set-ups."""
    run = {
        "correct": correct,
        "attempted": 10,
        "failed": int(not correct),
        "metrics": {} if not correct else {
            "setup_s": {"value": 0.4 + seed / 100, "unit": "s"},
            "complete_problems_per_s": {"value": rate, "unit": "problems/s"},
        },
        "environment": {
            "workload": "ml-eval", "seed": seed, "git_revision": revision,
            "nproc": 2, "blas_threads": 2,
        },
        "setup_s": list(setups),
    }
    path = tmp_path / f"ml-eval-{seed}-trace0.json"
    path.write_text(json.dumps(run))
    return path


def test_entries_hold_median_quartiles_and_replace_their_revision(tmp_path):
    files = [_result(tmp_path, 1, "aaa", 90.0), _result(tmp_path, 2, "aaa", 100.0)]
    assert bench_trajectory.main(
        ["--label", "parent", "--out-dir", str(tmp_path), *map(str, files)]
    ) == 0
    bench = json.loads((tmp_path / "BENCH_ml-eval.json").read_text())
    (entry,) = bench["entries"]
    assert bench["workload"] == "ml-eval"
    fields = ("label", "revision", "nproc", "blas_threads")
    assert [entry[f] for f in fields] == ["parent", "aaa", 2, 2]
    assert (entry["seeds"], entry["runs"], entry["failed"]) == ([1, 2], 2, 0)
    assert entry["metrics"]["complete_problems_per_s"] == {
        "median": 95.0, "q1": 92.5, "q3": 97.5, "unit": "problems/s"}
    assert entry["metrics"]["setup_s"]["median"] == pytest.approx(0.415)

    again = [_result(tmp_path, 3, "bbb", 700.0), _result(tmp_path, 4, "bbb", 0, False)]
    bench_trajectory.main(["--label", "change", "--out-dir", str(tmp_path),
                           *map(str, again)])
    bench_trajectory.main(["--label", "parent again", "--out-dir", str(tmp_path),
                           str(files[0])])
    entries = json.loads((tmp_path / "BENCH_ml-eval.json").read_text())["entries"]
    assert [(e["label"], e["revision"], e["runs"]) for e in entries] == [
        ("change", "bbb", 2), ("parent again", "aaa", 1)]
    assert entries[0]["failed"] == 1
    assert entries[0]["metrics"]["complete_problems_per_s"]["q1"] == 700.0


def test_entries_list_each_passed_runs_setup_median_sorted(tmp_path):
    # Two runs in the fast set-up mode and one in the slow mode, given out
    # of order, and a failed run that is left out.
    files = [
        _result(tmp_path, 1, "aaa", 90.0, setups=(0.105, 0.11, 0.1)),
        _result(tmp_path, 2, "aaa", 90.0, setups=(0.07, 0.06, 0.065)),
        _result(tmp_path, 3, "aaa", 0, False, setups=(0.2,)),
        _result(tmp_path, 4, "aaa", 90.0, setups=(0.062, 0.064, 0.06, 0.07)),
    ]
    bench_trajectory.main(["--label", "x", "--out-dir", str(tmp_path),
                           *map(str, files)])
    (entry,) = json.loads((tmp_path / "BENCH_ml-eval.json").read_text())["entries"]
    assert entry["setup_s_per_run"] == pytest.approx([0.063, 0.065, 0.105])


def test_rejects_traced_results(tmp_path):
    traced = tmp_path / "ml-eval-1-trace1.json"
    traced.write_text("{}")
    with pytest.raises(SystemExit, match="trace0"):
        bench_trajectory.main(["--label", "x", "--out-dir", str(tmp_path), str(traced)])
