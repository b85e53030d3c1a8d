"""Ground-truth model construction and corpus sampling.

Builds a log-bilinear model with known parameters and draws corpora
and fill-in-the-blank problems from it. Everything here runs in
float64; a model we sample from is also the oracle we measure
estimators against, so its probabilities should carry no storage
noise.
"""

from __future__ import annotations

import numpy as np

from .corpus import OOS_ID, OOS_TOKEN, UNK_TOKEN, Vocabulary
from .errors import ConfigError
from .evaluation import CompletionProblem, _predicted64
from .model import LblParams

# Effectively removes a word from the sampler without leaving the
# finite parameter range.
SUPPRESSED_BIAS = -30.0


def make_truth_params(
    vocab_size: int,
    dim: int,
    context_size: int,
    seed: int = 0,
    feature_scale: float = 0.35,
    position_decay: float = 0.6,
    zipf_exponent: float = 1.05,
) -> LblParams:
    """A random but well-behaved generating model.

    Word feature vectors are Gaussian; position transforms are scaled
    identities that weight recent context words more; biases follow a
    Zipf-like curve so the marginal word distribution is realistically
    skewed. The sentence-boundary word is suppressed so it never appears
    mid-sentence.
    """
    if vocab_size <= max(OOS_ID, 1) + 1:
        raise ConfigError(f"vocab_size too small: {vocab_size}")
    rng = np.random.default_rng(seed)
    context_vectors = rng.normal(0.0, feature_scale, size=(vocab_size, dim))
    target_vectors = rng.normal(0.0, feature_scale, size=(vocab_size, dim))
    transforms = np.stack(
        [
            np.eye(dim) * position_decay ** (context_size - 1 - i)
            for i in range(context_size)
        ]
    )
    ranks = np.arange(vocab_size, dtype=np.float64)
    biases = -zipf_exponent * np.log(ranks + 2.0)
    biases[OOS_ID] = SUPPRESSED_BIAS
    return LblParams(
        context_vectors=context_vectors,
        target_vectors=target_vectors,
        context_transforms=transforms,
        biases=biases,
        matrix_mode="full",
        dim=dim,
        context_size=context_size,
    )


def make_words(vocab_size: int) -> list[str]:
    """Synthetic surface forms: reserved entries plus w0002, w0003, ..."""
    words = [f"w{i:04d}" for i in range(vocab_size)]
    words[0] = UNK_TOKEN
    words[OOS_ID] = OOS_TOKEN
    return words


def make_vocab(vocab_size: int, counts: np.ndarray | None = None) -> Vocabulary:
    if counts is None:
        counts = np.zeros(vocab_size, dtype=np.int64)
    return Vocabulary(words=make_words(vocab_size), counts=counts)


def _batch_distributions(params, contexts):
    qhat = _predicted64(params, contexts)
    scores = qhat @ params.target_vectors.astype(np.float64).T
    scores += params.biases.astype(np.float64)
    scores -= scores.max(axis=1, keepdims=True)
    probs = np.exp(scores)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def _sample_rows(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One categorical draw per row by inverting each row's CDF."""
    cdf = np.cumsum(probs, axis=1)
    u = rng.random(probs.shape[0])
    ids = (cdf < u[:, None]).sum(axis=1)
    return np.minimum(ids, probs.shape[1] - 1).astype(np.int64)


def generate_sentences(
    params: LblParams,
    n_sentences: int,
    min_words: int,
    max_words: int,
    rng: np.random.Generator,
    oos_id: int = OOS_ID,
    batch_sentences: int = 2048,
) -> list[np.ndarray]:
    """Sample sentences left to right from the model.

    Each sentence starts from an all-boundary context and runs for a
    uniformly drawn length. Sentences are generated in slabs so the
    (rows x vocabulary) probability matrix stays bounded.
    """
    if not 1 <= min_words <= max_words:
        raise ConfigError(
            f"bad length range [{min_words}, {max_words}]"
        )
    sentences: list[np.ndarray] = []
    c = params.context_size
    for lo in range(0, n_sentences, batch_sentences):
        m = min(batch_sentences, n_sentences - lo)
        lengths = rng.integers(min_words, max_words + 1, size=m)
        slab_max = int(lengths.max())
        out = np.zeros((m, slab_max), dtype=np.int64)
        ctx = np.full((m, c), oos_id, dtype=np.int64)
        for step in range(slab_max):
            active = np.flatnonzero(lengths > step)
            probs = _batch_distributions(params, ctx[active])
            drawn = _sample_rows(probs, rng)
            out[active, step] = drawn
            ctx[active] = np.concatenate(
                [ctx[active][:, 1:], drawn[:, None]], axis=1
            )
        sentences.extend(out[i, : lengths[i]].copy() for i in range(m))
    return sentences


def corpus_vocab(vocab_size: int, sentences) -> Vocabulary:
    """Vocabulary whose counts reflect the generated corpus."""
    counts = np.zeros(vocab_size, dtype=np.int64)
    for s in sentences:
        counts += np.bincount(np.asarray(s), minlength=vocab_size)
    return make_vocab(vocab_size, counts)


def generate_completion_problems(
    params: LblParams,
    n_problems: int,
    rng: np.random.Generator,
    min_words: int = 6,
    max_words: int = 12,
    oos_id: int = OOS_ID,
) -> list[CompletionProblem]:
    """Fill-in-the-blank problems whose answer is the generating word.

    The blank falls at an interior position; the four distractors are
    drawn from the model's base-rate (bias-only) distribution, so they
    are plausible words placed without regard to context.
    """
    if min_words < 3:
        raise ConfigError("completion sentences need at least 3 words")
    sentences = generate_sentences(
        params, n_problems, min_words, max_words, rng, oos_id
    )
    base = params.biases.astype(np.float64).copy()
    base -= base.max()
    base = np.exp(base)
    base[oos_id] = 0.0
    base /= base.sum()

    problems = []
    for sent in sentences:
        blank = int(rng.integers(1, len(sent) - 1))
        truth = int(sent[blank])
        distractors: list[int] = []
        while len(distractors) < 4:
            draw = rng.choice(params.vocab_size, size=8, p=base)
            for w in draw:
                w = int(w)
                if w != truth and w not in distractors:
                    distractors.append(w)
                if len(distractors) == 4:
                    break
        slot = int(rng.integers(0, 5))
        candidates = distractors[:slot] + [truth] + distractors[slot:]
        problems.append(
            CompletionProblem(
                sentence=[int(w) for w in sent],
                blank_position=blank,
                candidates=candidates,
                answer=slot,
            )
        )
    return problems
