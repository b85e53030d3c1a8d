"""Perplexity, sentence-completion scoring, and the update-cost model.

Every quantity here uses explicitly normalized probabilities computed in
float64, whatever normalizer mode the model was trained with. Learned
per-context constants are a training device only; at evaluation time the
partition function is always summed out exactly.

One kernel, _target_log_probs, computes ln P(target | context) row by
row; perplexity, context_log_prob, completion and the exact-likelihood
objective all go through it. It rejects word ids outside the model's
vocabulary and groups the rows by context (model.group_contexts, a
lexsort of the context columns), because the normalizer belongs to the
context: each distinct context is scored once, and every row that
shares it takes its target's score from that context's scores and
shares its log Z. It fills
model.score_table once per call and scores each chunk of distinct
contexts as [qhat, 1] @ table.T by one GEMM into a buffer of at most
_SCORE_BUFFER_ELEMS float64 values. Table, buffer and [qhat, 1] rows
sit in a scratch that each thread keeps from call to call. It then
takes the target scores, exponentiates the buffer in place and logs the
row sums, with no max shift: a model close to self-normalizing keeps
every raw sum far inside float64's range. Only a context whose sum
falls outside (_MIN_Z, _MAX_Z), where a term may have overflowed or the
sum underflowed, is scored again from its [qhat, 1] row and normalized
by model.exp_rows, the max shift of every full-vocabulary pass. Results
come back in the rows' own order. Completion
ranks every problem of a call with one kernel call over only the rows
whose log-probability differs between candidates;
corpus.context_windows cuts the blank's window out of the problems'
sentences, in the same layout as the training pairs.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
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
from .model import (
    LblParams,
    exp_rows,
    group_contexts,
    predicted_representation_batch,
    score_table,
)

BLANK_MARKER = "___"

# The kernel's score buffer, in float64 elements (8 MB). On 2 CPUs at
# V=7,870, d=100, buffers of 8 to 16 MB scored fastest, 32 MB took 14%
# longer and 2 MB 15% longer; at V=2,000, 0.5 to 16 MB timed the same.
# Without the max shift, 8 MB stayed fastest at V=7,866, d=100 (4 and
# 16 MB took 13-47% longer); at V=1,990, 4 to 16 MB timed alike.
_SCORE_BUFFER_ELEMS = 1 << 20

# The window of a row's raw sum of exp that needs no max shift. Below
# _MAX_Z no term overflowed; above _MIN_Z a term that underflowed (less
# than about 1e-308) is negligible next to the sum.
_MIN_Z = 1e-200
_MAX_Z = 1e200

# Each thread's float64 scratch for the kernel's table, score buffer and
# [qhat, 1] rows, kept from call to call. Allocated anew, those 15 MB (at
# V=7,866, d=100) were in some processes mapped and zeroed again on every
# call, which made a short completion call 20-25% slower there.
_scratch = threading.local()


def _scratch_views(*shapes: tuple[int, int]) -> list[np.ndarray]:
    """Disjoint float64 arrays of the given shapes, back to back in this
    thread's scratch, which grows when they do not fit."""
    starts, end = [], 0
    for rows, cols in shapes:
        starts.append(end)
        end += rows * cols
    block = getattr(_scratch, "block", None)
    if block is None or block.size < end:
        block = _scratch.block = np.empty(end)
    return [
        block[s : s + rows * cols].reshape(rows, cols)
        for s, (rows, cols) in zip(starts, shapes)
    ]


def _target_log_probs(
    params: LblParams, contexts: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """ln P(target | context) for each row, explicitly normalized in float64.

    Groups the rows by context and scores each distinct context once:
    as many contexts at a time as fit in _SCORE_BUFFER_ELEMS into one
    buffer that every chunk and call reuses, as [qhat, 1] @ score_table.T.
    Every row of a context takes its target's score from that context's
    buffer row, and all of them share its log Z, the log of the raw row
    sum of exp. A context whose sum leaves (_MIN_Z, _MAX_Z) is scored
    again from its [qhat, 1] and normalized by exp_rows. Raises
    ConfigError when a context or target id is outside the vocabulary.
    """
    n = targets.shape[0]
    v = params.vocab_size
    d = params.dim
    bad = out_of_range_id(v, contexts, targets)
    if bad is not None:
        raise ConfigError(
            f"word id {bad} is outside the model's vocabulary of size {v}; "
            "the vocabulary may come from another run"
        )
    order, group, starts = group_contexts(contexts)
    n_contexts = starts.size - 1
    chunk_rows = max(1, min(_SCORE_BUFFER_ELEMS // v, n_contexts))
    table, buffer, q1 = _scratch_views(
        (v, d + 1), (chunk_rows, v), (chunk_rows, d + 1)
    )
    score_table(params, table)
    q1[:, d] = 1.0
    out = np.empty(n)
    for lo in range(0, n_contexts, chunk_rows):
        hi = min(lo + chunk_rows, n_contexts)
        members = order[starts[lo] : starts[hi]]
        local = group[starts[lo] : starts[hi]] - lo
        q1[: hi - lo, :d] = predicted_representation_batch(
            params, contexts[order[starts[lo:hi]]], np.float64
        )
        scores = np.matmul(q1[: hi - lo], table.T, out=buffer[: hi - lo])
        picked = scores[local, targets[members]]
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            np.exp(scores, out=scores)
            z = scores.sum(axis=1)
            log_z = np.log(z)
        redo = np.flatnonzero(~((z > _MIN_Z) & (z < _MAX_Z)))
        if redo.size:
            # Score those contexts again from their [qhat, 1], with the max shift.
            rescored = np.matmul(q1[redo], table.T, out=buffer[: redo.size])
            log_z[redo] = exp_rows(rescored)[1][:, 0]
        out[members] = picked - log_z[local]
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

    Each call builds the kernel's (V, d+1) float64 table of the target
    vectors and biases; perplexity and completion_accuracy build it once
    for all of their rows.
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
    of the first and in the context of the rest. The first row's context
    is the same for all candidates, and the kernel scores it once. Every
    other position of the sentence adds the same term to all candidates,
    so its row is left out. bi: one row per candidate, the [h before,
    h after] context around the blank with the candidate as target.
    width is c for uni and h for bi.
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
            try:
                problems.append(
                    CompletionProblem(sentence, blank, candidates, answer)
                )
            except ConfigError as err:
                raise IngestionError(f"line {lineno}: {err}") from err
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
