"""Train the configurations the benchmark leaves out and report how each
run ends: python3 perfbench/probe_excluded.py [seed ...]

Each probe starts from a benchmark workload, changes the settings named
in its label, and trains on that workload's inputs for the given seeds.
The outcomes back the "Excluded configurations" section of NOTES.md.
"""

import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (label, workload, changes to the workload, changes to TrainConfig)
PROBES = [
    ("nce-paper at lr 0.006", "nce-paper", {"learning_rate": 0.006, "epochs": 2}, {}),
    ("nce-paper, per-context normalizers", "nce-paper",
     {"normalizer_mode": "per-context", "epochs": 2}, {}),
    ("nce-small-ctx, shared draws, lr 0.006", "nce-small-ctx", {"epochs": 6},
     {"share_noise_samples": True}),
    ("nce-small-ctx, shared draws, lr 0.003", "nce-small-ctx",
     {"epochs": 6, "learning_rate": 0.003}, {"share_noise_samples": True}),
    ("nce-small-ctx, importance sampling", "nce-small-ctx",
     {"estimator": "is", "normalizer_mode": "fixed-one", "epochs": 4}, {}),
]


def main(seeds) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    from ncelm import trainer
    from ncelm.errors import NcelmError
    from workloads import WORKLOADS, load_pool, write_inputs

    cache = ROOT / ".perfbench"
    for label, name, workload_changes, config_changes in PROBES:
        w = replace(WORKLOADS[name], **workload_changes)
        pool = load_pool(w, cache / "pools")
        for seed in seeds:
            files = write_inputs(w, pool, seed, cache / "work" / f"probe-{os.getpid()}")
            inputs = bench.setup(files, w)
            config = replace(bench.train_config(w, seed), **config_changes)
            try:
                _, _, history = trainer.train(
                    config, inputs.train_set, inputs.valid_set, inputs.vocab
                )
                outcome = "finished, valid ppl by epoch " + " ".join(
                    f"{p:.1f}" for p in history.valid_ppls
                )
            except NcelmError as err:
                outcome = f"{type(err).__name__}: {err}"
            print(f"{label} | seed {seed} | {outcome}", flush=True)
            shutil.rmtree(files.train.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or [1, 2, 3]))
