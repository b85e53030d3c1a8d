"""Corpus ingestion: tokenization, vocabulary building, and example extraction.

Text is whitespace-tokenized. Vocabularies reserve two surface strings,
"<unk>" for unknown words (id 0) and "<s/>" for out-of-sentence context
positions (id 1). Training examples pair a fixed-length context of word
ids with a target word id.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, IngestionError

UNK_TOKEN = "<unk>"
OOS_TOKEN = "<s/>"
UNK_ID = 0
OOS_ID = 1

BOUNDARY_MODES = ("oos-padding", "stream")


@dataclass
class Vocabulary:
    """Dense word-id mapping with per-id corpus frequencies.

    words[i] is the surface string of id i; counts[i] its training-corpus
    frequency. unk_id and oos_id name the two reserved entries.
    """

    words: list[str]
    counts: np.ndarray
    unk_id: int = UNK_ID
    oos_id: int = OOS_ID
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if len(self.words) != self.counts.shape[0]:
            raise ConfigError("words and counts length mismatch")
        if self.unk_id == self.oos_id:
            raise ConfigError("unk_id and oos_id must be distinct")
        self._index = {w: i for i, w in enumerate(self.words)}
        if len(self._index) != len(self.words):
            raise ConfigError("duplicate surface strings in vocabulary")

    @property
    def size(self) -> int:
        return len(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def id_of(self, token: str) -> int:
        return self._index.get(token, self.unk_id)


class TrainingExample(NamedTuple):
    context: np.ndarray
    target: int


@dataclass
class Dataset:
    """Fixed-context training examples stored as parallel id arrays."""

    contexts: np.ndarray
    targets: np.ndarray
    context_size: int
    boundary_mode: str

    def __post_init__(self):
        self.contexts = np.ascontiguousarray(self.contexts, dtype=np.int64)
        self.targets = np.ascontiguousarray(self.targets, dtype=np.int64)
        if self.contexts.ndim != 2 or self.contexts.shape[1] != self.context_size:
            raise ConfigError("context array shape does not match context_size")
        if self.contexts.shape[0] != self.targets.shape[0]:
            raise ConfigError("contexts and targets length mismatch")

    def __len__(self) -> int:
        return self.targets.shape[0]

    def __getitem__(self, i: int) -> TrainingExample:
        return TrainingExample(self.contexts[i], int(self.targets[i]))


def tokenize_line(text: str, lowercase: bool = True) -> list[str]:
    """Split a line into maximal non-whitespace runs, optionally lowercased."""
    if lowercase:
        text = text.lower()
    return text.split()


def decode_text(data: bytes) -> str:
    """Decode UTF-8 bytes, raising IngestionError with the byte offset on failure."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise IngestionError(
            f"invalid UTF-8 at byte offset {e.start}", byte_offset=e.start
        ) from e


def read_sentences(path, lowercase: bool = True) -> list[list[str]]:
    """Read a one-sentence-per-line corpus file into token lists.

    Blank lines are skipped. Decoding errors surface the byte offset of
    the first bad byte within the file.
    """
    with open(path, "rb") as f:
        text = decode_text(f.read())
    sentences = []
    for line in text.splitlines():
        tokens = tokenize_line(line, lowercase=lowercase)
        if tokens:
            sentences.append(tokens)
    return sentences


def build_vocab(
    token_stream: Iterable[str],
    min_count: int = 1,
    max_size: int | None = None,
) -> Vocabulary:
    """Build a vocabulary from a token stream.

    Tokens occurring at least min_count times, and within the max_size
    most frequent (ties broken by first occurrence), get ids in
    descending frequency starting at 2; ids 0 and 1 are the reserved
    unknown and out-of-sentence entries. The frequency mass of dropped
    tokens is folded into the unknown entry's count. Occurrences of the
    reserved surface strings themselves (as in pre-tokenized corpora
    that already contain "<unk>") count toward the reserved entries.
    """
    if min_count < 1:
        raise ConfigError(f"min_count must be >= 1, got {min_count}")
    counts: Counter[str] = Counter()
    first_seen: dict[str, int] = {}
    n = 0
    for tok in token_stream:
        counts[tok] += 1
        if tok not in first_seen:
            first_seen[tok] = n
        n += 1
    if n == 0:
        raise ConfigError("token stream is empty")

    reserved_counts = {UNK_TOKEN: counts.pop(UNK_TOKEN, 0), OOS_TOKEN: counts.pop(OOS_TOKEN, 0)}
    eligible = [t for t in counts if counts[t] >= min_count]
    eligible.sort(key=lambda t: (-counts[t], first_seen[t]))
    if max_size is not None:
        kept, dropped = eligible[:max_size], eligible[max_size:]
    else:
        kept, dropped = eligible, []

    words = [UNK_TOKEN, OOS_TOKEN] + kept
    unk_mass = reserved_counts[UNK_TOKEN]
    unk_mass += sum(counts[t] for t in dropped)
    unk_mass += sum(c for t, c in counts.items() if c < min_count)
    cvec = np.zeros(len(words), dtype=np.int64)
    cvec[UNK_ID] = unk_mass
    cvec[OOS_ID] = reserved_counts[OOS_TOKEN]
    for i, t in enumerate(kept, start=2):
        cvec[i] = counts[t]
    return Vocabulary(words=words, counts=cvec)


def encode(vocab: Vocabulary, tokens: Iterable[str]) -> list[int]:
    """Map tokens to word ids; out-of-vocabulary tokens map to unk_id."""
    get = vocab._index.get
    unk = vocab.unk_id
    return [get(t, unk) for t in tokens]


def _windows(ids: np.ndarray, width: int) -> np.ndarray:
    return np.lib.stride_tricks.sliding_window_view(ids, width)


def extract_pairs(
    sentences: Sequence[Sequence[int]],
    context_size: int,
    boundary_mode: str = "oos-padding",
    oos_id: int = OOS_ID,
) -> Dataset:
    """Turn encoded sentences into (context, target) training examples.

    In oos-padding mode every token of every sentence becomes a target,
    with contexts left-padded by oos_id where the sentence starts. In
    stream mode sentences are concatenated and only positions with a
    full in-stream context yield examples.
    """
    if context_size < 1:
        raise ConfigError(f"context_size must be >= 1, got {context_size}")
    if boundary_mode not in BOUNDARY_MODES:
        raise ConfigError(f"unknown boundary_mode {boundary_mode!r}")

    ctx_blocks = []
    tgt_blocks = []
    if boundary_mode == "oos-padding":
        pad = np.full(context_size, oos_id, dtype=np.int64)
        for sent in sentences:
            s = np.asarray(sent, dtype=np.int64)
            if s.size == 0:
                continue
            ext = np.concatenate([pad, s])
            ctx_blocks.append(_windows(ext, context_size)[: s.size])
            tgt_blocks.append(s)
    else:
        stream = np.concatenate(
            [np.asarray(s, dtype=np.int64) for s in sentences]
        ) if sentences else np.empty(0, dtype=np.int64)
        if stream.size > context_size:
            ctx_blocks.append(_windows(stream, context_size)[:-1])
            tgt_blocks.append(stream[context_size:])

    if ctx_blocks:
        contexts = np.concatenate(ctx_blocks)
        targets = np.concatenate(tgt_blocks)
    else:
        contexts = np.empty((0, context_size), dtype=np.int64)
        targets = np.empty(0, dtype=np.int64)
    return Dataset(contexts, targets, context_size, boundary_mode)


def extract_bidirectional_pairs(
    sentences: Sequence[Sequence[int]],
    half_context: int,
    oos_id: int = OOS_ID,
) -> Dataset:
    """Extract examples whose context surrounds the target on both sides.

    The context layout is [half_context preceding ids, half_context
    following ids], each side padded with oos_id past the sentence edge,
    giving a total context size of 2 * half_context.
    """
    if half_context < 1:
        raise ConfigError(f"half_context must be >= 1, got {half_context}")
    h = half_context
    ctx_blocks = []
    tgt_blocks = []
    pad = np.full(h, oos_id, dtype=np.int64)
    for sent in sentences:
        s = np.asarray(sent, dtype=np.int64)
        if s.size == 0:
            continue
        ext = np.concatenate([pad, s, pad])
        sw = _windows(ext, h)
        before = sw[: s.size]
        after = sw[h + 1 : h + 1 + s.size]
        ctx_blocks.append(np.concatenate([before, after], axis=1))
        tgt_blocks.append(s)
    if ctx_blocks:
        contexts = np.concatenate(ctx_blocks)
        targets = np.concatenate(tgt_blocks)
    else:
        contexts = np.empty((0, 2 * h), dtype=np.int64)
        targets = np.empty(0, dtype=np.int64)
    return Dataset(contexts, targets, 2 * h, "oos-padding")


def unigram_counts(source, vocab: Vocabulary) -> np.ndarray:
    """Count target-word occurrences per id over a dataset or id stream."""
    if isinstance(source, Dataset):
        ids = source.targets
    else:
        ids = np.fromiter((int(i) for i in source), dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= vocab.size):
        raise ConfigError("id out of vocabulary range")
    return np.bincount(ids, minlength=vocab.size).astype(np.int64)


def save_vocab(vocab: Vocabulary, path) -> None:
    """Write one "word<TAB>count" line per id, in id order, UTF-8."""
    with open(path, "w", encoding="utf-8") as f:
        for word, count in zip(vocab.words, vocab.counts):
            f.write(f"{word}\t{int(count)}\n")


def load_vocab(path) -> Vocabulary:
    with open(path, "rb") as f:
        text = decode_text(f.read())
    words = []
    counts = []
    for lineno, line in enumerate(text.splitlines()):
        if not line:
            continue
        try:
            word, count = line.split("\t")
            counts.append(int(count))
        except ValueError as e:
            raise IngestionError(f"malformed vocabulary line {lineno}: {line!r}") from e
        words.append(word)
    if len(words) < 2 or words[UNK_ID] != UNK_TOKEN or words[OOS_ID] != OOS_TOKEN:
        raise IngestionError("vocabulary file lacks the reserved unk/oos entries")
    return Vocabulary(words=words, counts=np.asarray(counts, dtype=np.int64))
