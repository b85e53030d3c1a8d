"""Summarize saved runs: python3 perfbench/report.py

Every run of run.py saves its result, sample counts and environment
record under .perfbench/results. This prints, per workload, the median
and interquartile spread of each metric over the saved seeds, and two
derived figures that no single run can give:

- tracing overhead: untraced against traced train_words_per_s;
- the paper's cost model: predicted_speedup(c, d, V, k) at the shape
  nce-paper and ml-eval share, next to the measured ratio of ml-eval's
  to nce-paper's estimators.grad_ms_p50.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(results: Path) -> dict:
    """(workload, trace) -> {"metrics": {name: [values]}, "vocab": [sizes]}."""
    runs = {}
    for path in sorted(results.glob("*.json")):
        saved = json.loads(path.read_text())
        if not saved["correct"]:
            continue
        key = (saved["environment"]["workload"], int("trace1" in path.stem))
        entry = runs.setdefault(key, {"metrics": {}, "vocab": []})
        entry["vocab"].append(saved["vocab_size"])
        for name, m in saved["metrics"].items():
            entry["metrics"].setdefault(name, []).append(m["value"])
    return runs


def spread(values) -> float:
    """Interquartile range as a share of the median; nan when undefined."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from ncelm.evaluation import predicted_speedup
    from workloads import WORKLOADS

    runs = load(ROOT / ".perfbench" / "results")
    if not runs:
        print("no saved results; run perfbench/run.py first")
        return 1
    for (workload, trace), entry in sorted(runs.items()):
        print(f"{workload} (trace {trace}), {len(entry['vocab'])} runs")
        for name, values in entry["metrics"].items():
            print(f"  {name:36s} median {statistics.median(values):14.6g}"
                  f"  iqr/median {spread(values):.4f}")

    print("derived: tracing overhead (untraced vs traced train_words_per_s, medians)")
    for workload in WORKLOADS:
        plain, traced = runs.get((workload, 0)), runs.get((workload, 1))
        if plain and traced:
            a = statistics.median(plain["metrics"]["train_words_per_s"])
            b = statistics.median(traced["metrics"]["trainer.traced_words_per_s"])
            print(f"  {workload:14s} {a:12.1f} vs {b:12.1f} words/s: {100 * (a - b) / a:+.1f}%")

    paper, dense = runs.get(("nce-paper", 1)), runs.get(("ml-eval", 1))
    if paper and dense:
        w = WORKLOADS["nce-paper"]
        v = round(statistics.median(paper["vocab"]))
        predicted = predicted_speedup(w.context_size, w.dim, v, w.k)
        measured = statistics.median(dense["metrics"]["estimators.grad_ms_p50"]) / (
            statistics.median(paper["metrics"]["estimators.grad_ms_p50"])
        )
        print(f"derived: cost model at c={w.context_size} d={w.dim} V={v} k={w.k}: "
              f"predicted ML/NCE update ratio {predicted:.2f}, "
              f"measured grad_ms_p50 ratio {measured:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
