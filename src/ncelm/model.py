"""The log-bilinear language model.

A context of word ids is mapped to a predicted feature vector by
position-dependent linear transforms of per-word context vectors; a
word's score is the dot product of that prediction with the word's
target vector plus a per-word bias. Every full-vocabulary pass scores
with the bias as one more feature column, [qhat, 1] @ table.T, where
score_table is the one code that fills the float64 (V, d+1) table
[target_vectors, biases], and exp_rows is the one row max-shift:
full_distribution, the evaluation kernel's re-scored rows, the
exact-likelihood gradient and the large-k diagnostic all normalize
with it. group_contexts is the one grouping of rows by context, which
the evaluation kernel and the exact-likelihood gradient share to score
each distinct context once. Per-context log-normalizers, when trained
instead of computed, live in a NormalizerStore: dense float64 values
indexed by entry id, found by binary search over sorted context keys.

Parameters are stored in float32 by default for training speed;
probability arithmetic always accumulates in float64. Oracle tests use
float64 storage end to end.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from .errors import CheckpointFormatError, ConfigError

MATRIX_MODES = ("full", "diagonal")
NORMALIZER_MODES = ("fixed-one", "per-context")

CHECKPOINT_MAGIC = b"NCELM1\n"
CHECKPOINT_VERSION = 1


@dataclass
class LblParams:
    """Model parameter tensors.

    context_vectors and target_vectors are separate V x d tables (a word
    has different features as conditioning input and as prediction
    target). context_transforms holds one transform per context
    position: (context_size, d, d) in full mode, (context_size, d) of
    elementwise gains in diagonal mode. biases has one entry per word.
    """

    context_vectors: np.ndarray
    target_vectors: np.ndarray
    context_transforms: np.ndarray
    biases: np.ndarray
    matrix_mode: str
    dim: int
    context_size: int

    @property
    def vocab_size(self) -> int:
        return self.target_vectors.shape[0]

    @property
    def dtype(self):
        return self.target_vectors.dtype

    def tensors(self) -> dict[str, np.ndarray]:
        """The tensors by name, in the order every consumer uses."""
        return {
            "context_vectors": self.context_vectors,
            "target_vectors": self.target_vectors,
            "context_transforms": self.context_transforms,
            "biases": self.biases,
        }

    def copy(self) -> "LblParams":
        return replace(self, **{n: t.copy() for n, t in self.tensors().items()})

    def astype(self, dtype) -> "LblParams":
        return replace(self, **{n: t.astype(dtype) for n, t in self.tensors().items()})


# Largest word id a normalizer key can hold: checkpoints store ids as uint32.
_MAX_KEY_ID = 2**32 - 1


class NormalizerStore:
    """Per-context log-normalizers, or the constant 0 in fixed-one mode.

    Entries live in dense arrays indexed by entry id: the context rows
    (int64, one row per entry) and float64 values. Registering a context
    appends an entry with value 0, so entry ids never change; a
    registered entry is in table and in checkpoints whether or not it
    has been written. train() registers every training context at its
    start, and its first epoch writes each of them; any other caller
    that meets an unseen context registers it on the fly.

    Lookups binary-search one sorted key per entry. _key alone knows
    how a row is encoded: as one int64 code, position 0 most significant
    in radix (largest registered id + 1), while radix ** context_size
    fits int64, and otherwise as the row's big-endian int64 bytes viewed
    as one np.void scalar. Either key sorts like the id tuples.

    Unseen and unwritten contexts read as 0, so a freshly constructed
    per-context store behaves exactly like fixed-one.
    """

    def __init__(self, mode: str = "fixed-one"):
        if mode not in NORMALIZER_MODES:
            raise ConfigError(f"unknown normalizer mode {mode!r}")
        self.mode = mode
        self.context_size: int | None = None
        self._keys = np.empty((0, 0), dtype=np.int64)
        self._values = np.empty(0)
        # Entry ids in sorted key order, and their keys.
        self._order = np.empty(0, dtype=np.int64)
        self._sorted = np.empty(0, dtype=np.int64)
        self._radix = 1
        # radix ** (c - 1 - i) by position; None while keys are bytes.
        self._weights: np.ndarray | None = None

    @property
    def table(self) -> "Mapping[tuple[int, ...], float]":
        """Read-only view of the entries: context tuple -> value."""
        return _NormalizerTable(self)

    @property
    def values(self) -> np.ndarray:
        """Values by entry id, as a read-only view."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    def _rows(self, contexts) -> np.ndarray:
        rows = np.asarray(contexts, dtype=np.int64)
        if rows.size == 0:
            return rows.reshape(0, self.context_size or 0)
        if rows.ndim != 2:
            raise ConfigError(f"contexts must be rows of word ids, got shape {rows.shape}")
        if self.context_size is not None and rows.shape[1] != self.context_size:
            raise ConfigError(
                f"context of {rows.shape[1]} words for a normalizer store "
                f"keyed by {self.context_size}"
            )
        return rows

    def _key(self, rows: np.ndarray) -> np.ndarray:
        """One key per row, sorting like the id tuples: the int64 code,
        or -1 for a row holding an id outside [0, radix); or the row's
        bytes when codes would overflow. rows must be non-empty."""
        if self._weights is None:
            wide = np.ascontiguousarray(rows, dtype=">i8")
            return wide.view(np.dtype((np.void, wide.itemsize * wide.shape[1])))[:, 0]
        codes = rows @ self._weights
        unsigned = rows.view(np.uint64)  # a negative id reads as huge
        if unsigned.max() >= self._radix:
            codes[(unsigned >= self._radix).any(axis=1)] = -1
        return codes

    def _find(self, rows: np.ndarray) -> np.ndarray:
        """Entry ids of the rows, -1 where a row has no entry."""
        n = len(self._keys)
        if n == 0 or len(rows) == 0:
            return np.full(len(rows), -1, dtype=np.int64)
        keys = self._key(rows)
        pos = np.searchsorted(self._sorted, keys)
        np.minimum(pos, n - 1, out=pos)
        absent = self._sorted[pos] != keys
        # take buffers its output in the default mode, so the result can
        # reuse the position array.
        ids = np.take(self._order, pos, out=pos)
        ids[absent] = -1
        return ids

    def _add_keys(self, rows: np.ndarray) -> None:
        """Append one entry with value 0 per distinct row, in sorted
        order; no row may have an entry yet."""
        if rows.min() < 0 or rows.max() > _MAX_KEY_ID:
            raise ConfigError(
                f"normalizer contexts hold word ids in [0, {_MAX_KEY_ID}], "
                f"got {rows.min() if rows.min() < 0 else rows.max()}"
            )
        c = rows.shape[1]
        self.context_size = c
        self._radix = radix = max(self._radix, int(rows.max()) + 1)
        self._weights = (
            np.array([radix ** (c - 1 - i) for i in range(c)], dtype=np.int64)
            if radix**c <= 2**63
            else None
        )
        _, first = np.unique(self._key(rows), return_index=True)
        keys = np.concatenate([self._keys.reshape(-1, c), rows[first]])
        sort_keys = self._key(keys)
        self._order = np.argsort(sort_keys)
        self._sorted = sort_keys[self._order]
        self._keys = keys
        self._values = np.concatenate([self._values, np.zeros(len(first))])

    def register(self, contexts) -> np.ndarray:
        """Entry ids of the context rows, registering each context not
        yet in the store as an entry with value 0."""
        rows = self._rows(contexts)
        ids = self._find(rows)
        missing = ids < 0
        if missing.any():
            self._add_keys(rows[missing])
            ids = self._find(rows)
        return ids

    def lookup_batch(self, contexts: np.ndarray) -> np.ndarray:
        if self.mode == "fixed-one" or len(self._keys) == 0:
            return np.zeros(len(contexts))
        ids = self._find(self._rows(contexts))
        return np.where(ids >= 0, self._values[ids], 0.0)

    def set_values(self, contexts, values) -> None:
        """Write values for the context rows, registering unseen ones."""
        self.assign(self.register(contexts), values)

    def assign(self, ids: np.ndarray, values) -> None:
        """values[ids] = values by entry id."""
        self._values[ids] = values

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Context rows and values of every entry, in sorted context order."""
        return self._keys[self._order], self._values[self._order]

    def copy(self) -> "NormalizerStore":
        # Key, order and sorted-key arrays are replaced, never written
        # in place, so the copy shares them.
        new = object.__new__(NormalizerStore)
        new.__dict__.update(self.__dict__)
        new._values = self._values.copy()
        return new


class _NormalizerTable(Mapping):
    """Read-only mapping view of a store's entries, context id tuple ->
    value, iterated in sorted context order; len is O(1)."""

    def __init__(self, store: NormalizerStore):
        self._store = store

    def __len__(self) -> int:
        return len(self._store._keys)

    def __iter__(self):
        keys, _ = self._store.entries()
        return map(tuple, keys.tolist())

    def __getitem__(self, key) -> float:
        store = self._store
        if store.context_size is None or len(key) != store.context_size:
            raise KeyError(key)
        i = store._find(np.asarray([key], dtype=np.int64))[0]
        if i < 0:
            raise KeyError(key)
        return float(store._values[i])


def init_params(
    vocab_size: int,
    dim: int,
    context_size: int,
    matrix_mode: str = "full",
    init_scale: float = 0.1,
    seed: int = 0,
    counts=None,
    dtype=np.float32,
) -> LblParams:
    """Fresh parameters: Gaussian feature tables, identity transforms.

    Feature-table entries are i.i.d. zero-mean Gaussian with standard
    deviation init_scale. Transforms start at the identity (full mode)
    or all-ones gains (diagonal mode). Biases start at the add-one
    smoothed log-unigram probabilities when counts are given, else zero.
    Deterministic for a fixed seed.
    """
    if vocab_size < 1 or dim < 1 or context_size < 1:
        raise ConfigError("vocab_size, dim, and context_size must be >= 1")
    if init_scale < 0:
        raise ConfigError(f"init_scale must be >= 0, got {init_scale}")
    if matrix_mode not in MATRIX_MODES:
        raise ConfigError(f"unknown matrix_mode {matrix_mode!r}")
    rng = np.random.default_rng(seed)
    ctx = (init_scale * rng.standard_normal((vocab_size, dim))).astype(dtype)
    tgt = (init_scale * rng.standard_normal((vocab_size, dim))).astype(dtype)
    if matrix_mode == "full":
        transforms = np.broadcast_to(
            np.eye(dim), (context_size, dim, dim)
        ).copy().astype(dtype)
    else:
        transforms = np.ones((context_size, dim), dtype=dtype)
    if counts is not None:
        counts = np.asarray(counts, dtype=np.float64)
        smoothed = counts + 1.0
        biases = np.log(smoothed / smoothed.sum()).astype(dtype)
    else:
        biases = np.zeros(vocab_size, dtype=dtype)
    return LblParams(ctx, tgt, transforms, biases, matrix_mode, dim, context_size)


def predicted_representation_batch(
    params: LblParams, contexts: np.ndarray, dtype=None
) -> np.ndarray:
    """Predicted vectors for a batch of contexts, shape (B, d).

    Computed in the parameters' own dtype, or in dtype when given (no
    copy of a table already stored in it).
    """
    rows = params.context_vectors[contexts]
    transforms = params.context_transforms
    if dtype is not None:
        rows = rows.astype(dtype, copy=False)
        transforms = transforms.astype(dtype, copy=False)
    if params.matrix_mode == "full":
        # A short loop of GEMMs beats one big einsum for small context sizes.
        acc = rows[:, 0] @ transforms[0].T
        for i in range(1, params.context_size):
            acc += rows[:, i] @ transforms[i].T
        return acc
    return (transforms[None, :, :] * rows).sum(axis=1)


def group_contexts(contexts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group the rows of an (n, c) context array by context.

    Returns (order, group, starts). order sorts the rows so that equal
    contexts are adjacent (a lexsort of the context columns); each run
    of them is one distinct context, numbered by group[i] for row
    order[i] in that order. Group g is order[starts[g]:starts[g + 1]],
    and starts[-1] == n.
    """
    n = len(contexts)
    order = np.lexsort(contexts.T)
    ordered = contexts[order]
    first = np.ones(n, dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    group = np.cumsum(first) - 1
    starts = np.append(np.flatnonzero(first), n)
    return order, group, starts


def score_table(params: LblParams, out: np.ndarray) -> np.ndarray:
    """Fill the float64 (V, d+1) table [target_vectors, biases] into out
    and return it; [qhat, 1] @ table.T scores every word, the bias as one
    more feature column."""
    d = params.dim
    out[:, :d] = params.target_vectors
    out[:, d] = params.biases
    return out


def exp_rows(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shift each row of the float64 scores by its max and exponentiate
    it in place. Returns the row sums z of the shifted exponentials and
    the log-normalizers log(z) + max, both (B, 1)."""
    shift = scores.max(axis=1, keepdims=True)
    np.subtract(scores, shift, out=scores)
    np.exp(scores, out=scores)
    z = scores.sum(axis=1, keepdims=True)
    return z, np.log(z) + shift


def scores_all(params: LblParams, contexts: np.ndarray, out=None) -> np.ndarray:
    """Float64 scores of every word for each context, shape (B, V), as
    [qhat, 1] @ score_table(params).T; writes into out when given.

    Sampling, full_distribution and the enumeration oracles score
    through it; the evaluation kernel and the exact-likelihood gradient
    run the same GEMM against a table they keep.
    """
    q1 = np.ones((len(contexts), params.dim + 1))
    q1[:, :-1] = predicted_representation_batch(params, contexts, np.float64)
    table = score_table(params, np.empty((params.vocab_size, params.dim + 1)))
    return np.matmul(q1, table.T, out=out)


def full_distribution(params: LblParams, contexts: np.ndarray) -> np.ndarray:
    """Explicitly normalized next-word distributions, shape (B, V):
    scores_all, exponentiated by exp_rows and divided by z in place."""
    probs = scores_all(params, contexts)
    z, _ = exp_rows(probs)
    probs /= z
    return probs


def _mode_flags(params: LblParams, normalizers: NormalizerStore) -> tuple[int, int]:
    return MATRIX_MODES.index(params.matrix_mode), NORMALIZER_MODES.index(normalizers.mode)


def _record_dtype(context_size: int) -> np.dtype:
    """One per-context normalizer record: context ids, then the value."""
    return np.dtype([("key", "<u4", (context_size,)), ("value", "<f4")])


def save_checkpoint(path, params: LblParams, normalizers: NormalizerStore) -> None:
    """Write the binary checkpoint format.

    Layout: magic "NCELM1\\n"; six little-endian uint32 header fields
    (format version, V, d, context_size, matrix mode flag, normalizer
    mode flag); float32 little-endian arrays for the context table,
    target table, each context transform in position order, and biases;
    in per-context mode, a uint32 record count followed by (context ids
    as uint32, log-normalizer as float32) records in sorted context
    order. Writing then reading reproduces the file byte for byte.

    The bytes go to a temporary file in the same directory, which then
    replaces path in one step, so a write that fails partway leaves any
    previous file at path intact and no temporary file behind.
    """
    mflag, nflag = _mode_flags(params, normalizers)
    header = struct.pack(
        "<6I", CHECKPOINT_VERSION, params.vocab_size, params.dim,
        params.context_size, mflag, nflag,
    )
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(header)
            for tensor in params.tensors().values():
                f.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())
            if normalizers.mode == "per-context":
                keys, values = normalizers.entries()
                records = np.empty(len(values), dtype=_record_dtype(params.context_size))
                if len(values):
                    records["key"] = keys
                    records["value"] = values
                f.write(struct.pack("<I", len(records)))
                f.write(records.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> tuple[LblParams, NormalizerStore]:
    """Read a checkpoint written by save_checkpoint, as float32 parameters.

    Each tensor is read from the file straight into its own array. A
    file cut short anywhere raises CheckpointFormatError naming the
    field it ends in.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if f.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise CheckpointFormatError("bad magic bytes; not a model checkpoint")

        def read(shape, dtype, what: str) -> np.ndarray:
            """The next field, read from the file straight into a new array."""
            nbytes = math.prod(shape) * np.dtype(dtype).itemsize
            off = f.tell()
            if size - off >= nbytes:
                arr = np.empty(shape, dtype=dtype)
                if f.readinto(arr) == nbytes:
                    return arr
            raise CheckpointFormatError(
                f"checkpoint truncated in {what}: needs {nbytes} bytes at "
                f"offset {off}, file has {size - off}"
            )

        version, v, d, c, mflag, nflag = read((6,), "<u4", "header").tolist()
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(
                f"unsupported checkpoint format version {version} "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        if mflag >= len(MATRIX_MODES) or nflag >= len(NORMALIZER_MODES):
            raise CheckpointFormatError("unknown mode flag in checkpoint header")
        matrix_mode = MATRIX_MODES[mflag]

        def table(shape, what):
            return read(shape, "<f4", what).astype(np.float32, copy=False)

        ctx = table((v, d), "context_vectors")
        tgt = table((v, d), "target_vectors")
        tshape = (c, d, d) if matrix_mode == "full" else (c, d)
        transforms = table(tshape, "context_transforms")
        biases = table((v,), "biases")
        params = LblParams(ctx, tgt, transforms, biases, matrix_mode, d, c)

        normalizers = NormalizerStore(NORMALIZER_MODES[nflag])
        if normalizers.mode == "per-context":
            (count,) = read((1,), "<u4", "normalizer count").tolist()
            records = read((count,), _record_dtype(c), "normalizer records")
            normalizers.set_values(records["key"], records["value"])
        if f.tell() != size:
            raise CheckpointFormatError("trailing bytes after checkpoint payload")
    return params, normalizers
