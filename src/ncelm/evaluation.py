"""Perplexity, sentence-completion scoring, and the update-cost model.

Every quantity here uses explicitly normalized probabilities computed in
float64, whatever normalizer mode the model was trained with. Learned
per-context constants are a training device only; at evaluation time the
partition function is always summed out exactly.

One kernel, _target_log_probs, computes ln P(target | context) row by
row; perplexity, context_log_prob, completion and the exact-likelihood
objective all go through it. It scores through model.scores_all, the
same float64 scorer that sampling and the gradient oracles use. It
rejects word ids outside the model's vocabulary, converts the target
table and biases to float64 once per call, and not at all when they
already are float64. It scores the rows a chunk at a time into one
reused buffer of at most _SCORE_BUFFER_ELEMS float64 values, and does
the max shift, exp, sum and log in place. Completion ranks every
problem of a call with one kernel call over only the rows whose
log-probability differs between candidates; corpus.context_windows
cuts the blank's window out of the problems' sentences, in the same
layout as the training pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .corpus import (
    UNK_ID,
    Dataset,
    Vocabulary,
    context_windows,
    encode,
    out_of_range_id,
    tokenize_line,
    two_sided_half,
    two_sided_offsets,
)
from .errors import ConfigError, IngestionError
from .model import LblParams, scores_all

BLANK_MARKER = "___"

# The kernel's score buffer, in float64 elements (8 MB). On 2 CPUs at
# V=7,870, d=100, buffers of 8 to 16 MB scored fastest, 32 MB took 14%
# longer and 2 MB 15% longer; at V=2,000, 0.5 to 16 MB timed the same.
_SCORE_BUFFER_ELEMS = 1 << 20


def _target_log_probs(
    params: LblParams, contexts: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """ln P(target | context) for each row, explicitly normalized in float64.

    Scores as many rows at a time as fit in _SCORE_BUFFER_ELEMS into one
    buffer that every chunk reuses. Raises ConfigError when a context or
    target id is outside the vocabulary.
    """
    n = targets.shape[0]
    v = params.vocab_size
    bad = out_of_range_id(v, contexts, targets)
    if bad is not None:
        raise ConfigError(
            f"word id {bad} is outside the model's vocabulary of size {v}; "
            "the vocabulary may come from another run"
        )
    if params.target_vectors.dtype != np.float64 or params.biases.dtype != np.float64:
        # Convert the two V-row tensors once here, not once per chunk.
        params = replace(
            params,
            target_vectors=params.target_vectors.astype(np.float64),
            biases=params.biases.astype(np.float64),
        )
    chunk_rows = max(1, min(_SCORE_BUFFER_ELEMS // v, n))
    buffer = np.empty((chunk_rows, v))
    out = np.empty(n)
    for lo in range(0, n, chunk_rows):
        hi = min(lo + chunk_rows, n)
        scores = scores_all(params, contexts[lo:hi], out=buffer[: hi - lo])
        scores -= scores.max(axis=1, keepdims=True)
        picked = scores[np.arange(hi - lo), targets[lo:hi]]
        np.exp(scores, out=scores)
        out[lo:hi] = picked - np.log(scores.sum(axis=1))
    return out


def perplexity(params: LblParams, dataset: Dataset) -> float:
    """exp of the mean negative log probability over the dataset.

    The (rows x vocabulary) score buffer stays near 8 MB whatever the
    corpus size.
    """
    n = len(dataset)
    if n == 0:
        raise ConfigError("perplexity needs a non-empty dataset")
    total = float(_target_log_probs(params, dataset.contexts, dataset.targets).sum())
    # A sufficiently bad model can push the mean past exp's float64
    # range; its perplexity is then reported as inf, not a warning.
    with np.errstate(over="ignore"):
        return float(np.exp(-total / n))


def context_log_prob(params: LblParams, context, word: int) -> float:
    """ln P(word | context) under explicit normalization, for one context.

    Float64 parameters are used as they are, without a copy.
    """
    ctx = np.asarray(context, dtype=np.int64)[None, :]
    tgt = np.asarray([word], dtype=np.int64)
    return float(_target_log_probs(params, ctx, tgt)[0])


@dataclass
class CompletionProblem:
    """A fill-in-the-blank question: one sentence, one blank, 5 choices."""

    sentence: list[int]
    blank_position: int
    candidates: list[int]
    answer: int | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.blank_position < len(self.sentence):
            raise ConfigError(
                f"blank position {self.blank_position} outside sentence "
                f"of length {len(self.sentence)}"
            )
        if len(self.candidates) != 5:
            raise ConfigError(
                f"expected exactly 5 candidates, got {len(self.candidates)}"
            )
        if len(set(self.candidates)) != len(self.candidates):
            raise ConfigError("candidates must be distinct")
        if self.answer is not None and not 0 <= self.answer < 5:
            raise ConfigError(f"answer index {self.answer} outside [0, 5)")


def _candidate_totals(
    params: LblParams, problems, mode: str, width: int
) -> np.ndarray:
    """(problems, candidates) sums of the log-probabilities that differ
    between a problem's candidates, from one kernel call.

    uni: filling the blank changes only the targets at positions blank ..
    blank + c (clipped at the sentence end): the candidate is the target
    of the first and in the context of the rest. Every other position of
    the sentence adds the same term to all candidates, so its row is left
    out. bi: one row per candidate, the [h before, h after] context
    around the blank with the candidate as target. width is c for uni and
    h for bi.
    """
    lengths = np.array([len(p.sentence) for p in problems], dtype=np.int64)
    blanks = np.array([p.blank_position for p in problems], dtype=np.int64)
    candidates = np.array([p.candidates for p in problems], dtype=np.int64)
    n_problems, n_candidates = candidates.shape
    words = np.fromiter(
        chain.from_iterable(p.sentence for p in problems), np.int64, lengths.sum()
    )
    offsets = two_sided_offsets(width) if mode == "bi" else np.arange(-width, width + 1)
    window = context_windows(words, lengths, np.arange(n_problems), blanks, offsets)
    if mode == "bi":
        contexts = np.repeat(window, n_candidates, axis=0)
        targets = candidates.ravel()
        groups = np.arange(targets.size)
    else:
        filled = np.repeat(window[:, None, :], n_candidates, axis=1)
        filled[:, :, width] = candidates
        # Row i is the context and target of sentence position blank + i.
        rows = np.lib.stride_tricks.sliding_window_view(filled, width + 1, axis=2)
        keep = np.arange(width + 1) < (lengths - blanks)[:, None]
        keep = np.broadcast_to(keep[:, None, :], rows.shape[:3])
        picked = rows[keep]
        contexts, targets = picked[:, :width], picked[:, width]
        groups = np.broadcast_to(
            np.arange(n_problems * n_candidates).reshape(n_problems, n_candidates, 1),
            keep.shape,
        )[keep]
    log_probs = _target_log_probs(params, contexts, targets)
    totals = np.bincount(groups, weights=log_probs, minlength=candidates.size)
    return totals.reshape(n_problems, n_candidates)


def completion_accuracy(
    params: LblParams, problems, mode: str = "uni"
) -> tuple[list[int], float | None]:
    """Answer every problem; accuracy is over problems with known answers.

    All problems are ranked together with one kernel call; each choice is
    the index of the highest-scoring candidate, ties to the lowest index.
    """
    if mode == "uni":
        width = params.context_size
    elif mode == "bi":
        width = two_sided_half(params.context_size)
    else:
        raise ConfigError(f"unknown completion mode {mode!r}")
    if not problems:
        return [], None
    totals = _candidate_totals(params, problems, mode, width)
    choices = np.argmax(totals, axis=1).tolist()
    graded = [
        (c, p.answer) for c, p in zip(choices, problems) if p.answer is not None
    ]
    if not graded:
        return choices, None
    hits = sum(1 for c, a in graded if c == a)
    return choices, hits / len(graded)


def read_completion_problems(
    path, vocab: Vocabulary, lowercase: bool = True
) -> list[CompletionProblem]:
    """Parse a problem file: sentence with the blank written as ___, a tab,
    5 |-separated candidate words, and optionally a tab and answer index."""
    problems = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) not in (2, 3):
                raise IngestionError(
                    f"line {lineno}: expected 2 or 3 tab-separated fields, "
                    f"got {len(parts)}"
                )
            tokens = tokenize_line(parts[0], lowercase=lowercase)
            blanks = [i for i, t in enumerate(tokens) if t == BLANK_MARKER]
            if len(blanks) != 1:
                raise IngestionError(
                    f"line {lineno}: expected exactly one {BLANK_MARKER}, "
                    f"found {len(blanks)}"
                )
            blank = blanks[0]
            tokens[blank] = vocab.words[UNK_ID]
            sentence = encode(vocab, tokens)
            cand_tokens = parts[1].split("|")
            if lowercase:
                cand_tokens = [t.lower() for t in cand_tokens]
            candidates = encode(vocab, cand_tokens)
            answer = None
            if len(parts) == 3:
                try:
                    answer = int(parts[2])
                except ValueError as err:
                    raise IngestionError(
                        f"line {lineno}: answer field is not an integer"
                    ) from err
            problems.append(
                CompletionProblem(sentence, blank, candidates, answer)
            )
    return problems


def write_completion_problems(problems, vocab: Vocabulary, path) -> None:
    """Inverse of read_completion_problems, rendering ids as words."""
    with open(path, "w", encoding="utf-8") as handle:
        for p in problems:
            words = [vocab.words[w] for w in p.sentence]
            words[p.blank_position] = BLANK_MARKER
            fields = [
                " ".join(words),
                "|".join(vocab.words[c] for c in p.candidates),
            ]
            if p.answer is not None:
                fields.append(str(p.answer))
            handle.write("\t".join(fields) + "\n")


def predicted_speedup(
    context_size: int, dim: int, vocab_size: int, k: int, matrix_mode: str = "full"
) -> float:
    """Predicted per-update cost ratio of exact ML over sampling with k.

    Full matrices: (c*d + V) / (c*d + k). Diagonal matrices lose the
    factor of d on the context side: (c + V) / (c + k).
    """
    for name, value in (
        ("context_size", context_size),
        ("dim", dim),
        ("vocab_size", vocab_size),
        ("k", k),
    ):
        if value <= 0:
            raise ConfigError(f"{name} must be positive, got {value}")
    if matrix_mode == "full":
        cd = context_size * dim
        return (cd + vocab_size) / (cd + k)
    if matrix_mode == "diagonal":
        return (context_size + vocab_size) / (context_size + k)
    raise ConfigError(f"unknown matrix mode {matrix_mode!r}")


def format_report(items: dict) -> str:
    """Render an evaluation report as key=value lines."""
    return "\n".join(f"{key}={value}" for key, value in items.items()) + "\n"
