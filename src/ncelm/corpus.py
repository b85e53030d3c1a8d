"""Corpus ingestion: tokenization, vocabulary building, and example extraction.

Text is whitespace-tokenized. Vocabularies reserve two surface strings,
"<unk>" for unknown words (id 0) and "<s/>" for out-of-sentence context
positions (id 1). Training examples pair a fixed-length context of word
ids with a target word id.

One gather, context_windows, cuts every window of ids out of the
sentences laid end to end, padding with the out-of-sentence id past a
sentence edge: the preceding-word contexts of extract_pairs (stream
mode treats the corpus as one sentence), the two-sided [h before,
h after] contexts of extract_bidirectional_pairs, and the blank's
window in sentence completion. two_sided_half holds the rule that the
two-sided layout needs an even context size.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Sequence

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
    frequency. Ids UNK_ID and OOS_ID are the two reserved entries.
    """

    words: list[str]
    counts: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if len(self.words) != self.counts.shape[0]:
            raise ConfigError("words and counts length mismatch")
        self._index = {w: i for i, w in enumerate(self.words)}
        if len(self._index) != len(self.words):
            raise ConfigError("duplicate surface strings in vocabulary")

    @property
    def size(self) -> int:
        return len(self.words)


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
    """Map tokens to word ids; out-of-vocabulary tokens map to UNK_ID."""
    get = vocab._index.get
    return [get(t, UNK_ID) for t in tokens]


def context_windows(words, lengths, sentence_of, centers, offsets):
    """Ids at centers + offsets within each row's sentence, OOS_ID past
    either edge of it.

    words holds the sentences end to end and lengths their sizes; row r
    reads sentence sentence_of[r] around its position centers[r]. Returns
    a C-contiguous int64 array of shape (rows, len(offsets)).
    """
    positions = centers[:, None] + offsets
    inside = (positions >= 0) & (positions < lengths[sentence_of][:, None])
    positions += (np.cumsum(lengths) - lengths)[sentence_of][:, None]
    window = words.take(positions, mode="clip")
    window[~inside] = OOS_ID
    return window


def two_sided_half(context_size: int) -> int:
    """h of the two-sided context layout [h before, h after], whose size
    is 2h; raises ConfigError for an odd context_size."""
    if context_size % 2 != 0:
        raise ConfigError(
            f"the two-sided context layout needs an even context size, got {context_size}"
        )
    return context_size // 2


def two_sided_offsets(half: int) -> np.ndarray:
    """Offsets from the target of the layout [h before, h after]."""
    return np.r_[-half:0, 1 : half + 1]


def _every_token(sentences, offsets) -> tuple[np.ndarray, np.ndarray]:
    """The window at offsets around every token of every sentence, and
    the tokens themselves."""
    lengths = np.fromiter(map(len, sentences), np.int64, len(sentences))
    words = np.fromiter(chain.from_iterable(sentences), np.int64, lengths.sum())
    sentence_of = np.repeat(np.arange(lengths.size), lengths)
    centers = np.arange(words.size) - (np.cumsum(lengths) - lengths)[sentence_of]
    return context_windows(words, lengths, sentence_of, centers, offsets), words


def extract_pairs(
    sentences: Sequence[Sequence[int]],
    context_size: int,
    boundary_mode: str = "oos-padding",
) -> Dataset:
    """Turn encoded sentences into (context, target) training examples.

    In oos-padding mode every token of every sentence becomes a target,
    with contexts left-padded by OOS_ID where the sentence starts. In
    stream mode sentences are concatenated and only positions with a
    full in-stream context yield examples.
    """
    if context_size < 1:
        raise ConfigError(f"context_size must be >= 1, got {context_size}")
    if boundary_mode not in BOUNDARY_MODES:
        raise ConfigError(f"unknown boundary_mode {boundary_mode!r}")
    offsets = np.arange(-context_size, 0)
    if boundary_mode == "oos-padding":
        contexts, targets = _every_token(sentences, offsets)
    else:
        # One sentence spanning the corpus, less the first context_size
        # tokens, whose contexts would reach past its start.
        stream = [np.fromiter(chain.from_iterable(sentences), np.int64)]
        contexts, targets = _every_token(stream, offsets)
        contexts, targets = contexts[context_size:], targets[context_size:]
    return Dataset(contexts, targets, context_size, boundary_mode)


def extract_bidirectional_pairs(
    sentences: Sequence[Sequence[int]],
    half_context: int,
) -> Dataset:
    """Extract examples whose context surrounds the target on both sides.

    The context layout is [half_context preceding ids, half_context
    following ids], each side padded with OOS_ID past the sentence edge,
    giving a total context size of 2 * half_context.
    """
    if half_context < 1:
        raise ConfigError(f"half_context must be >= 1, got {half_context}")
    contexts, targets = _every_token(sentences, two_sided_offsets(half_context))
    return Dataset(contexts, targets, 2 * half_context, "oos-padding")


def out_of_range_id(vocab_size: int, *id_arrays: np.ndarray) -> int | None:
    """An id of id_arrays outside [0, vocab_size): the smallest when one
    is negative, else the largest. None when every id is inside."""
    filled = [ids for ids in id_arrays if ids.size]
    if not filled:
        return None
    smallest = min(ids.min() for ids in filled)
    largest = max(ids.max() for ids in filled)
    if smallest < 0:
        return int(smallest)
    return int(largest) if largest >= vocab_size else None


def unigram_counts(source, vocab: Vocabulary) -> np.ndarray:
    """Count target-word occurrences per id over a dataset or id stream."""
    if isinstance(source, Dataset):
        ids = source.targets
    else:
        ids = np.fromiter((int(i) for i in source), dtype=np.int64)
    if out_of_range_id(vocab.size, ids) is not None:
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
