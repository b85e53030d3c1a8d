"""The benchmark's workloads and the synthetic text they run on.

Every workload reads a corpus sampled from a known log-bilinear truth
model (``ncelm.synthetic``). Sampling at V=10,000 takes tens of seconds,
so each truth model's sentences and completion problems are drawn once
per checkout into a pool under ``.perfbench/pools``; a run's seed then
draws its training sentences from that pool, and the splits and problems
are written out as plain text. Neither step is timed: the benchmark's
set-up starts when the program reads the text files.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ncelm import synthetic
from ncelm.evaluation import CompletionProblem, write_completion_problems

TRUTH_SEED = 20260501
POOL_SEED = 20260502
PROBLEM_SEED = 20260503
POOL_SENTENCES = 14000
POOL_PROBLEMS = 1200
MIN_PROBLEM_WORD_COUNT = 8
SENTENCE_WORDS = (4, 14)


@dataclass(frozen=True)
class Workload:
    """One training and evaluation configuration.

    The truth model is V x d with two context positions; the trained
    model shares its d and c, and its vocabulary is whatever words the
    training split contains. ``train_pairs`` trains on only the first
    that many training pairs (all of them when None). Every run also
    scores the test split and ``n_problems`` completion problems.
    """

    name: str
    why: str
    vocab_size: int
    dim: int
    feature_scale: float
    estimator: str
    normalizer_mode: str
    minibatch_size: int
    epochs: int
    valid_sentences: int
    test_sentences: int
    n_problems: int
    k: int = 25
    learning_rate: float = 0.006
    context_size: int = 2
    train_sentences: int = 10800
    train_pairs: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="nce-paper",
            why="NCE k=25 at V=10,000, d=100, B=1000: the sampled gather, score "
            "and backward path on tables that overflow cache",
            vocab_size=10_000,
            dim=100,
            feature_scale=0.5,
            estimator="nce",
            normalizer_mode="fixed-one",
            minibatch_size=1000,
            epochs=1,
            learning_rate=0.002,
            valid_sentences=220,
            test_sentences=270,
            n_problems=64,
        ),
        Workload(
            name="nce-small-ctx",
            why="NCE k=25 at V=2,000, d=16 with per-context normalizers: "
            "NormalizerStore, normalizer checkpoints and per-call overhead",
            vocab_size=2000,
            dim=16,
            feature_scale=0.7,
            estimator="nce",
            normalizer_mode="per-context",
            minibatch_size=500,
            epochs=1,
            valid_sentences=600,
            test_sentences=1000,
            n_problems=240,
        ),
        Workload(
            name="ml-eval",
            why="exact ML at the nce-paper shape, then checkpoint reload, test "
            "perplexity and completion: the V-wide dense kernel",
            vocab_size=10_000,
            dim=100,
            feature_scale=0.5,
            estimator="ml",
            normalizer_mode="fixed-one",
            minibatch_size=1000,
            epochs=1,
            learning_rate=0.003,
            valid_sentences=220,
            test_sentences=270,
            train_pairs=30_000,
            n_problems=64,
        ),
    )
}


@dataclass(frozen=True)
class Pool:
    """Sentences and completion problems drawn from one truth model."""

    sentences: list[np.ndarray]
    problems: list[CompletionProblem]


def _pool_key(w: Workload) -> str:
    source = Path(synthetic.__file__).read_bytes()
    shape = (
        f"{w.vocab_size}-{w.dim}-{w.context_size}-{w.feature_scale}-"
        f"{TRUTH_SEED}-{POOL_SEED}-{PROBLEM_SEED}-{POOL_SENTENCES}-"
        f"{POOL_PROBLEMS}-{SENTENCE_WORDS}"
    ).encode()
    return hashlib.sha256(shape + source).hexdigest()[:16]


def _generate_pool(w: Workload, path: Path) -> None:
    truth = synthetic.make_truth_params(
        w.vocab_size, w.dim, w.context_size, seed=TRUTH_SEED,
        feature_scale=w.feature_scale,
    )
    sentences = synthetic.generate_sentences(
        truth, POOL_SENTENCES, *SENTENCE_WORDS, np.random.default_rng(POOL_SEED),
        batch_sentences=512,
    )
    problems = synthetic.generate_completion_problems(
        truth, POOL_PROBLEMS, np.random.default_rng(PROBLEM_SEED)
    )
    flat = [np.asarray(p.sentence + p.candidates + [p.blank_position, p.answer])
            for p in problems]
    tmp = path.with_suffix(f".{os.getpid()}.tmp.npz")
    np.savez(
        tmp,
        tokens=np.concatenate(sentences),
        lengths=np.asarray([len(s) for s in sentences]),
        problems=np.concatenate(flat),
        problem_lengths=np.asarray([len(f) for f in flat]),
    )
    os.replace(tmp, path)


def _split(flat: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
    return np.split(flat, np.cumsum(lengths)[:-1])


def load_pool(w: Workload, cache_dir: Path) -> Pool:
    """The workload's sentence and problem pool, sampled on first use."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"pool-{_pool_key(w)}.npz"
    if not path.exists():
        _generate_pool(w, path)
    with np.load(path) as data:
        sentences = _split(data["tokens"], data["lengths"])
        flat = _split(data["problems"], data["problem_lengths"])
    problems = [
        CompletionProblem(
            sentence=[int(i) for i in f[:-7]],
            blank_position=int(f[-2]),
            candidates=[int(i) for i in f[-7:-2]],
            answer=int(f[-1]),
        )
        for f in flat
    ]
    return Pool(sentences, problems)


@dataclass(frozen=True)
class TextFiles:
    train: Path
    valid: Path
    test: Path
    problems: Path


def write_inputs(w: Workload, pool: Pool, seed: int, out_dir: Path) -> TextFiles:
    """Write the seed's corpus splits and completion problems as text.

    Validation and test splits are the pool's last sentences for every
    seed, so quality numbers differ between seeds only through the
    model; the seed draws the training sentences from the rest. The
    completion problems are the first ``n_problems`` of the pool whose
    sentence and candidates use only words seen at least
    MIN_PROBLEM_WORD_COUNT times outside the held-out splits, which puts
    every one of them in any seed's training vocabulary.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    held_out = len(pool.sentences) - w.valid_sentences - w.test_sentences
    if held_out < w.train_sentences:
        raise ValueError(f"{w.name}: pool of {len(pool.sentences)} sentences is too small")
    rng = np.random.default_rng(seed)
    splits = {
        "train": rng.choice(held_out, size=w.train_sentences, replace=False),
        "valid": np.arange(held_out, held_out + w.valid_sentences),
        "test": np.arange(held_out + w.valid_sentences, len(pool.sentences)),
    }
    words = synthetic.make_words(w.vocab_size)
    files = {}
    for name, ids in splits.items():
        files[name] = out_dir / f"{name}.txt"
        with open(files[name], "w", encoding="utf-8") as handle:
            for i in ids:
                handle.write(" ".join(words[t] for t in pool.sentences[i]) + "\n")

    def counts(ids):
        tokens = np.concatenate([pool.sentences[i] for i in ids])
        return np.bincount(tokens, minlength=w.vocab_size)

    frequent = counts(range(held_out)) >= MIN_PROBLEM_WORD_COUNT
    frequent &= counts(splits["train"]) > 0
    usable = [p for p in pool.problems if frequent[p.sentence + p.candidates].all()]
    if len(usable) < w.n_problems:
        raise ValueError(f"{w.name}: only {len(usable)} usable completion problems")
    write_completion_problems(
        usable[: w.n_problems], synthetic.make_vocab(w.vocab_size), out_dir / "problems.txt"
    )
    return TextFiles(files["train"], files["valid"], files["test"], out_dir / "problems.txt")
