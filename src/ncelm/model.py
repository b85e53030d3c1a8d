"""The log-bilinear language model.

A context of word ids is mapped to a predicted feature vector by
position-dependent linear transforms of per-word context vectors; a
word's score is the dot product of that prediction with the word's
target vector plus a per-word bias. scores_all scores every word in
float64, and full_distribution takes its softmax; every full-vocabulary
pass except the exact-likelihood training gradient goes through
scores_all. That gradient scores with the bias as one more feature
column of a single float64 GEMM and never normalizes its rows (see
estimators.ml_gradient_and_objective). Per-context log-normalizers,
when trained instead of computed, live in a NormalizerStore: dense
float64 values indexed by entry id, found by binary search over
contexts packed into sorted int64 codes.

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

    Lookups pack each context into one int64 code, position 0 most
    significant in radix (largest registered id + 1), so the sorted
    codes sort like the id tuples, and binary-search them. When
    radix ** context_size would overflow int64, rows are matched and
    ordered with np.unique(axis=0) instead.

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
        # Entry ids in sorted key order, and their packed codes (None
        # when the keys do not pack into int64).
        self._order = np.empty(0, dtype=np.int64)
        self._codes: np.ndarray | None = np.empty(0, dtype=np.int64)
        self._radix = 1
        self._weights = np.empty(0, dtype=np.int64)  # radix ** (c - 1 - i)

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

    def _pack(self, rows: np.ndarray) -> np.ndarray:
        """One int64 code per row, position 0 most significant, so codes
        sort like the id tuples; -1 for a row holding an id outside
        [0, radix). rows must be non-empty."""
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
        if self._codes is None:
            _, inverse = np.unique(
                np.concatenate([self._keys, rows]), axis=0, return_inverse=True
            )
            inverse = inverse.reshape(-1)
            entry = np.full(inverse.max() + 1, -1, dtype=np.int64)
            entry[inverse[:n]] = np.arange(n)
            return entry[inverse[n:]]
        codes = self._pack(rows)
        pos = np.searchsorted(self._codes, codes)
        np.minimum(pos, n - 1, out=pos)
        absent = self._codes[pos] != codes
        # take buffers its output in the default mode, so the result can
        # reuse the position array.
        ids = np.take(self._order, pos, out=pos)
        ids[absent] = -1
        return ids

    def _add_keys(self, rows: np.ndarray) -> None:
        """Append one entry with value 0 per distinct row; no row may
        have an entry yet."""
        if rows.min() < 0 or rows.max() > _MAX_KEY_ID:
            raise ConfigError(
                f"normalizer contexts hold word ids in [0, {_MAX_KEY_ID}], "
                f"got {rows.min() if rows.min() < 0 else rows.max()}"
            )
        c = rows.shape[1]
        old = self._keys.reshape(-1, c)
        self.context_size = c
        self._radix = radix = max(self._radix, int(rows.max()) + 1)
        if radix**c <= 2**63:
            self._weights = np.array([radix ** (c - 1 - i) for i in range(c)], dtype=np.int64)
            # Unpacking the distinct codes needs no index arrays, which
            # keeps train()'s one large registration small in memory.
            new = np.unique(self._pack(rows))
            keys = np.empty((len(new), c), dtype=np.int64)
            for i in range(c - 1, 0, -1):
                new, keys[:, i] = np.divmod(new, radix)
            keys[:, 0] = new
            keys = np.concatenate([old, keys])
            codes = self._pack(keys)
            self._order = np.argsort(codes)
            self._codes = codes[self._order]
        else:
            keys = np.concatenate([old, np.unique(rows, axis=0)])
            self._order = np.unique(keys, axis=0, return_index=True)[1]
            self._codes = None
        grow = len(keys) - len(old)
        self._keys = keys
        self._values = np.concatenate([self._values, np.zeros(grow)])

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

    def lookup(self, context) -> float:
        return float(self.lookup_batch(np.asarray(context, dtype=np.int64)[None, :])[0])

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
        # Key, order and code arrays are replaced, never written in
        # place, so the copy shares them.
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


def scores_all(params: LblParams, contexts: np.ndarray, out=None) -> np.ndarray:
    """Float64 scores of every word for each context, shape (B, V).

    The one full-vocabulary scorer: evaluation, sampling and the
    enumeration oracles all go through it. Writes into out when given.
    Tables already stored in float64 are used without a copy.
    """
    qhat = predicted_representation_batch(params, contexts, np.float64)
    scores = np.matmul(
        qhat, params.target_vectors.astype(np.float64, copy=False).T, out=out
    )
    scores += params.biases.astype(np.float64, copy=False)
    return scores


def full_distribution(params: LblParams, contexts: np.ndarray) -> np.ndarray:
    """Explicitly normalized next-word distributions, shape (B, V).

    Softmax of scores_all, with the max shift, exp and normalization
    done in place.
    """
    probs = scores_all(params, contexts)
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
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

    A file cut short anywhere raises CheckpointFormatError naming the
    field it ends in.
    """
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(CHECKPOINT_MAGIC):
        raise CheckpointFormatError("bad magic bytes; not a model checkpoint")
    off = len(CHECKPOINT_MAGIC)

    def take(nbytes: int, what: str) -> int:
        """Offset of the next nbytes, which must all be in the file."""
        nonlocal off
        if len(data) - off < nbytes:
            raise CheckpointFormatError(
                f"checkpoint truncated in {what}: needs {nbytes} bytes at "
                f"offset {off}, file has {len(data) - off}"
            )
        off += nbytes
        return off - nbytes

    version, v, d, c, mflag, nflag = struct.unpack_from(
        "<6I", data, take(struct.calcsize("<6I"), "header")
    )
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"unsupported checkpoint format version {version} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    if mflag >= len(MATRIX_MODES) or nflag >= len(NORMALIZER_MODES):
        raise CheckpointFormatError("unknown mode flag in checkpoint header")
    matrix_mode = MATRIX_MODES[mflag]

    def table(shape, what):
        count = math.prod(shape)
        start = take(4 * count, what)
        arr = np.frombuffer(data, dtype="<f4", count=count, offset=start)
        return arr.reshape(shape).astype(np.float32)

    ctx = table((v, d), "context_vectors")
    tgt = table((v, d), "target_vectors")
    tshape = (c, d, d) if matrix_mode == "full" else (c, d)
    transforms = table(tshape, "context_transforms")
    biases = table((v,), "biases")
    params = LblParams(ctx, tgt, transforms, biases, matrix_mode, d, c)

    normalizers = NormalizerStore(NORMALIZER_MODES[nflag])
    if normalizers.mode == "per-context":
        (count,) = struct.unpack_from("<I", data, take(4, "normalizer count"))
        record = _record_dtype(c)
        start = take(count * record.itemsize, "normalizer records")
        records = np.frombuffer(data, dtype=record, count=count, offset=start)
        normalizers.set_values(records["key"], records["value"])
    if off != len(data):
        raise CheckpointFormatError("trailing bytes after checkpoint payload")
    return params, normalizers
