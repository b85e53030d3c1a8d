"""Append benchmark results to the committed BENCH_<workload>.json files.

    python3 tools/bench_trajectory.py --label NAME [--out-dir DIR] RESULT...

Each RESULT is a ``<workload>-<seed>-trace0.json`` file that
``perfbench/run.py`` saves under ``.perfbench/results/``. The results are
grouped by (workload, git revision), and each group becomes one entry of
``BENCH_<workload>.json`` in DIR (default: the current directory). An
entry holds the label, the revision, ``nproc``, the BLAS thread count,
the seeds, the number of runs and of failed runs, and for each
end-to-end metric the median, first and third quartiles and unit over
the runs that passed their checks. It also holds those runs' own
``setup_s`` medians, sorted, one per run from its saved list of timed
set-ups: set-up time is bimodal from process to process on some hosts,
and a set split between the two modes shows there. An entry for a
revision already in the file is replaced; any other is appended.

Entries compare only within one interleaved set: runs of the revisions
being compared, alternated on the same host at the same time. The
host's speed is not recorded, and on a shared host it can move a lot
(nce-small-ctx training throughput once moved about 2.4x within an
hour on a shared 2-CPU host), so medians of entries measured at
different times say nothing about the revisions.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def _same(runs: list[dict], key: str):
    values = {run["environment"][key] for run in runs}
    if len(values) != 1:
        raise SystemExit(f"runs of one revision disagree on {key}: {sorted(values)}")
    return values.pop()


def entry(label: str, runs: list[dict]) -> dict:
    """One trajectory entry from the saved results of one revision."""
    passed = [run for run in runs if run["correct"]]
    metrics = {}
    for run in passed:
        for name, metric in run["metrics"].items():
            metrics.setdefault(name, ([], metric["unit"]))[0].append(metric["value"])
    return {
        "label": label,
        "revision": _same(runs, "git_revision"),
        "nproc": _same(runs, "nproc"),
        "blas_threads": _same(runs, "blas_threads"),
        "seeds": sorted(run["environment"]["seed"] for run in runs),
        "runs": len(runs),
        "failed": len(runs) - len(passed),
        "metrics": {
            name: dict(zip(("median", "q1", "q3"), _quartiles(values)), unit=unit)
            for name, (values, unit) in metrics.items()
        },
        "setup_s_per_run": sorted(statistics.median(run["setup_s"]) for run in passed),
    }


def append(out_dir: Path, label: str, paths: list[Path]) -> list[Path]:
    """Add one entry per (workload, revision) found in paths; return the
    files written."""
    groups: dict[tuple[str, str], list[dict]] = {}
    for path in paths:
        if not path.name.endswith("-trace0.json"):
            raise SystemExit(f"{path}: not an end-to-end (trace0) result file")
        run = json.loads(path.read_text())
        env = run["environment"]
        groups.setdefault((env["workload"], env["git_revision"]), []).append(run)
    written = []
    for (workload, revision), runs in groups.items():
        target = out_dir / f"BENCH_{workload}.json"
        bench = (
            json.loads(target.read_text()) if target.exists()
            else {"workload": workload, "entries": []}
        )
        kept = [e for e in bench["entries"] if e["revision"] != revision]
        bench["entries"] = kept + [entry(label, runs)]
        target.write_text(json.dumps(bench, indent=1) + "\n")
        written.append(target)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--label", required=True, help="name of the entries, e.g. 'parent'"
    )
    parser.add_argument("--out-dir", type=Path, default=Path("."))
    parser.add_argument("results", type=Path, nargs="+")
    args = parser.parse_args(argv)
    for path in append(args.out_dir, args.label, args.results):
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
