"""Perplexity, sentence-completion scoring, and the update-cost model.

Every quantity here uses explicitly normalized probabilities computed in
float64, whatever normalizer mode the model was trained with. Learned
per-context constants are a training device only; at evaluation time the
partition function is always summed out exactly.

One kernel, _target_log_probs, computes ln P(target | context) row by
row; perplexity, context_log_prob and the exact-likelihood objective all
go through it. It converts the parameter tables to float64 once per
call, and not at all when they already are float64. It scores the rows
a chunk at a time into one reused buffer of at most _SCORE_BUFFER_ELEMS
float64 values, and does the max shift, exp, sum and log in place. The
completion scorers convert the parameters once on entry, so their
per-position calls copy no table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import (
    OOS_ID,
    Dataset,
    Vocabulary,
    encode,
    extract_pairs,
    tokenize_line,
)
from .errors import ConfigError, IngestionError
from .model import LblParams

BLANK_MARKER = "___"

# The kernel's score buffer, in float64 elements (8 MB). On 2 CPUs at
# V=7,870, d=100, buffers of 8 to 16 MB scored fastest, 32 MB took 14%
# longer and 2 MB 15% longer; at V=2,000, 0.5 to 16 MB timed the same.
_SCORE_BUFFER_ELEMS = 1 << 20


def _predicted64(params: LblParams, contexts: np.ndarray) -> np.ndarray:
    """Predicted target vectors for a batch of contexts, in float64."""
    rows = params.context_vectors[contexts].astype(np.float64, copy=False)
    transforms = params.context_transforms.astype(np.float64, copy=False)
    if params.matrix_mode == "full":
        acc = rows[:, 0] @ transforms[0].T
        for i in range(1, params.context_size):
            acc += rows[:, i] @ transforms[i].T
        return acc
    return (rows * transforms[None, :, :]).sum(axis=1)


def _float64_params(params: LblParams) -> LblParams:
    """The parameters themselves when every table is float64, else a
    float64 copy."""
    if all(t.dtype == np.float64 for t in params.tensors().values()):
        return params
    return params.astype(np.float64)


def _target_log_probs(
    params: LblParams,
    contexts: np.ndarray,
    targets: np.ndarray,
    chunk_rows: int | None = None,
) -> np.ndarray:
    """ln P(target | context) for each row, explicitly normalized in float64.

    Scores chunk_rows rows at a time (by default as many as fit in
    _SCORE_BUFFER_ELEMS) into one buffer that every chunk reuses.
    """
    table = params.target_vectors.astype(np.float64, copy=False).T
    biases = params.biases.astype(np.float64, copy=False)
    n = targets.shape[0]
    v = params.vocab_size
    if chunk_rows is None:
        chunk_rows = _SCORE_BUFFER_ELEMS // v
    chunk_rows = max(1, min(chunk_rows, n))
    buffer = np.empty((chunk_rows, v))
    out = np.empty(n)
    for lo in range(0, n, chunk_rows):
        hi = min(lo + chunk_rows, n)
        scores = buffer[: hi - lo]
        np.matmul(_predicted64(params, contexts[lo:hi]), table, out=scores)
        scores += biases
        scores -= scores.max(axis=1, keepdims=True)
        picked = scores[np.arange(hi - lo), targets[lo:hi]]
        np.exp(scores, out=scores)
        out[lo:hi] = picked - np.log(scores.sum(axis=1))
    return out


def perplexity(params: LblParams, dataset: Dataset, chunk_rows: int | None = None) -> float:
    """exp of the mean negative log probability over the dataset.

    chunk_rows sets how many rows the kernel scores at once; by default
    the (rows x vocabulary) score buffer stays near 8 MB whatever the
    corpus size.
    """
    n = len(dataset)
    if n == 0:
        raise ConfigError("perplexity needs a non-empty dataset")
    total = float(
        _target_log_probs(params, dataset.contexts, dataset.targets, chunk_rows).sum()
    )
    # A sufficiently bad model can push the mean past exp's float64
    # range; its perplexity is then reported as inf, not a warning.
    with np.errstate(over="ignore"):
        return float(np.exp(-total / n))


def context_log_prob(params: LblParams, context, word: int) -> float:
    """ln P(word | context) under explicit normalization.

    Single chokepoint for the sentence scorers; each scorer call that
    needs one more conditional distribution goes through here exactly
    once. Float64 parameters are used as they are, without a copy.
    """
    ctx = np.asarray(context, dtype=np.int64)[None, :]
    tgt = np.asarray([word], dtype=np.int64)
    return float(_target_log_probs(params, ctx, tgt)[0])


def score_sentence_unidirectional(
    params: LblParams,
    sentence,
    blank_position: int,
    candidate: int,
    oos_id: int = OOS_ID,
) -> float:
    """Log probability of the whole sentence with the candidate filled in.

    Sums ln P(w_t | preceding context) over every position of the
    completed sentence, with contexts padded past the sentence start, so
    words on both sides of the blank influence the score.
    """
    params = _float64_params(params)
    sent = [int(w) for w in sentence]
    if not 0 <= blank_position < len(sent):
        raise ConfigError(
            f"blank position {blank_position} outside sentence of length {len(sent)}"
        )
    sent[blank_position] = int(candidate)
    pairs = extract_pairs([sent], params.context_size, "oos-padding", oos_id)
    return sum(
        context_log_prob(params, ctx, int(tgt))
        for ctx, tgt in zip(pairs.contexts, pairs.targets)
    )


def score_sentence_bidirectional(
    params: LblParams,
    sentence,
    blank_position: int,
    candidate: int,
    oos_id: int = OOS_ID,
) -> float:
    """Log probability of the candidate given the words around the blank.

    The model's context layout must be [h preceding ids, h following
    ids] with context_size = 2h; both sides pad with oos_id past the
    sentence edge. One conditional distribution per candidate.
    """
    if params.context_size % 2 != 0:
        raise ConfigError(
            "bidirectional scoring needs an even context size, got "
            f"{params.context_size}"
        )
    params = _float64_params(params)
    sent = [int(w) for w in sentence]
    if not 0 <= blank_position < len(sent):
        raise ConfigError(
            f"blank position {blank_position} outside sentence of length {len(sent)}"
        )
    half = params.context_size // 2
    before = sent[max(0, blank_position - half) : blank_position]
    before = [oos_id] * (half - len(before)) + before
    after = sent[blank_position + 1 : blank_position + 1 + half]
    after = after + [oos_id] * (half - len(after))
    return context_log_prob(params, np.asarray(before + after), int(candidate))


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


def answer_completion(
    params: LblParams, problem: CompletionProblem, mode: str = "uni"
) -> int:
    """Index of the highest-scoring candidate; ties go to the lowest index."""
    if mode == "uni":
        scorer = score_sentence_unidirectional
    elif mode == "bi":
        scorer = score_sentence_bidirectional
    else:
        raise ConfigError(f"unknown completion mode {mode!r}")
    params = _float64_params(params)
    scores = [
        scorer(params, problem.sentence, problem.blank_position, cand)
        for cand in problem.candidates
    ]
    return int(np.argmax(scores))


def completion_accuracy(
    params: LblParams, problems, mode: str = "uni"
) -> tuple[list[int], float | None]:
    """Answer every problem; accuracy is over problems with known answers."""
    params = _float64_params(params)
    choices = [answer_completion(params, p, mode) for p in problems]
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
            tokens[blank] = vocab.words[vocab.unk_id]
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
