"""Print SHA-256 digests of nine fixed-seed training runs.

    PYTHONPATH=src python3 tools/fixed_seed_digests.py [--epochs N]

Writes a synthetic corpus (truth model ``make_truth_params(300, 16, 2,
seed=3, feature_scale=0.5)``, 1,000 training and 100 validation
sentences) into a temporary directory and trains on it through
``ncelm.cli.main`` with ``--seed 7 --dim 16 --batch-size 100``: exact
ML, NCE with fixed-one normalizers, NCE with per-context normalizers,
NCE with shared noise draws, NCE with per-context normalizers and
shared noise draws, importance sampling with k=10, NCE at
``--precision 64``, NCE with the two-sided context layout
(``--bidirectional --context-size 2``), and NCE with per-context
normalizers over eight-word contexts, whose keys (300 ** 8 > 2 ** 63)
do not pack into int64. For each run it prints one line with the digest of
the checkpoint and of the history CSV without its ``seconds`` column,
the only field that depends on the host. A refactor that claims to keep
training behaviour prints the same lines before and after.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

from ncelm.cli import main as ncelm_main
from ncelm.synthetic import generate_sentences, make_truth_params, make_words

# (name, global arguments, train arguments); every run also gets the
# common arguments below.
RUNS = (
    ("ml", [], ["--estimator", "ml", "--lr", "0.02"]),
    ("nce-fixed-one", [], ["--estimator", "nce", "--lr", "0.01"]),
    ("nce-per-context", [], ["--estimator", "nce", "--lr", "0.01", "--normalizer", "per-context"]),
    ("nce-shared", [], ["--estimator", "nce", "--lr", "0.005", "--share-noise"]),
    ("nce-per-context-shared", [], ["--estimator", "nce", "--lr", "0.005",
                                    "--normalizer", "per-context", "--share-noise"]),
    ("is-k10", [], ["--estimator", "is", "--k", "10", "--lr", "0.01"]),
    ("nce-precision64", ["--precision", "64"], ["--estimator", "nce", "--lr", "0.01"]),
    ("nce-bidirectional", [], ["--estimator", "nce", "--lr", "0.01",
                               "--bidirectional", "--context-size", "2"]),
    ("nce-per-context-wide", [], ["--estimator", "nce", "--lr", "0.01",
                                  "--normalizer", "per-context", "--context-size", "8"]),
)


def write_corpus(root: Path) -> tuple[Path, Path]:
    truth = make_truth_params(300, 16, 2, seed=3, feature_scale=0.5)
    sentences = generate_sentences(truth, 1100, 4, 12, np.random.default_rng(11))
    words = make_words(300)
    paths = []
    for name, chunk in (("train.txt", sentences[:1000]), ("valid.txt", sentences[1000:])):
        path = root / name
        path.write_text(
            "".join(" ".join(words[i] for i in s) + "\n" for s in chunk),
            encoding="utf-8",
        )
        paths.append(path)
    return paths[0], paths[1]


def history_without_seconds(path: Path) -> bytes:
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    drop = rows[0].index("seconds")
    return "".join(",".join(r[:drop] + r[drop + 1 :]) + "\n" for r in rows).encode()


def digests(epochs: int) -> list[str]:
    """One line per run: name, checkpoint digest, history digest."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        train_txt, valid_txt = write_corpus(root)
        vocab = root / "vocab.txt"
        with contextlib.redirect_stdout(io.StringIO()):
            if ncelm_main(["build-vocab", str(train_txt), "--out", str(vocab)]) != 0:
                raise SystemExit("build-vocab failed")
        for name, global_args, train_args in RUNS:
            out = root / f"{name}.ckpt"
            argv = [
                "--seed", "7", *global_args, "train", str(train_txt),
                "--valid", str(valid_txt), "--vocab", str(vocab), "--out", str(out),
                "--dim", "16", "--batch-size", "100", "--epochs", str(epochs),
                *train_args,
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                status = ncelm_main(argv)
            if status != 0:
                lines.append(f"{name} exit={status}")
                continue
            ckpt = hashlib.sha256(out.read_bytes()).hexdigest()
            hist = hashlib.sha256(
                history_without_seconds(Path(str(out) + ".history.csv"))
            ).hexdigest()
            lines.append(f"{name} checkpoint={ckpt} history={hist}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--epochs", type=int, default=6)
    args = parser.parse_args(argv)
    for line in digests(args.epochs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
