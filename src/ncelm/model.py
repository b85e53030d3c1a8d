"""The log-bilinear language model.

A context of word ids is mapped to a predicted feature vector by
position-dependent linear transforms of per-word context vectors; a
word's score is the dot product of that prediction with the word's
target vector plus a per-word bias. scores_all scores every word in
float64, and full_distribution takes its softmax; every full-vocabulary
pass except the exact-likelihood training gradient goes through
scores_all. Per-context log-normalizers, when trained instead of
computed, live in a NormalizerStore keyed by the context id tuple.

Parameters are stored in float32 by default for training speed;
probability arithmetic always accumulates in float64. Oracle tests use
float64 storage end to end.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

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
        return {
            "context_vectors": self.context_vectors,
            "target_vectors": self.target_vectors,
            "context_transforms": self.context_transforms,
            "biases": self.biases,
        }

    def copy(self) -> "LblParams":
        return LblParams(
            self.context_vectors.copy(), self.target_vectors.copy(),
            self.context_transforms.copy(), self.biases.copy(),
            self.matrix_mode, self.dim, self.context_size,
        )

    def astype(self, dtype) -> "LblParams":
        return LblParams(
            self.context_vectors.astype(dtype), self.target_vectors.astype(dtype),
            self.context_transforms.astype(dtype), self.biases.astype(dtype),
            self.matrix_mode, self.dim, self.context_size,
        )


@dataclass
class NormalizerStore:
    """Per-context log-normalizers, or the constant 0 in fixed-one mode.

    Unseen contexts read as 0 until their first update, so a freshly
    constructed per-context store behaves exactly like fixed-one.
    """

    mode: str = "fixed-one"
    table: dict[tuple[int, ...], float] = field(default_factory=dict)

    def __post_init__(self):
        if self.mode not in NORMALIZER_MODES:
            raise ConfigError(f"unknown normalizer mode {self.mode!r}")

    def lookup(self, context) -> float:
        if self.mode == "fixed-one":
            return 0.0
        return self.table.get(tuple(int(i) for i in context), 0.0)

    def lookup_batch(self, contexts: np.ndarray) -> np.ndarray:
        out = np.zeros(contexts.shape[0], dtype=np.float64)
        if self.mode == "per-context" and self.table:
            get = self.table.get
            for j, row in enumerate(contexts):
                out[j] = get(tuple(int(i) for i in row), 0.0)
        return out

    def copy(self) -> "NormalizerStore":
        return NormalizerStore(self.mode, dict(self.table))


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
            f.write(np.ascontiguousarray(params.context_vectors, dtype="<f4").tobytes())
            f.write(np.ascontiguousarray(params.target_vectors, dtype="<f4").tobytes())
            f.write(np.ascontiguousarray(params.context_transforms, dtype="<f4").tobytes())
            f.write(np.ascontiguousarray(params.biases, dtype="<f4").tobytes())
            if normalizers.mode == "per-context":
                items = sorted(normalizers.table.items())
                records = np.array(items, dtype=_record_dtype(params.context_size))
                f.write(struct.pack("<I", len(items)))
                f.write(records.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path, dtype=np.float32) -> tuple[LblParams, NormalizerStore]:
    """Read a checkpoint written by save_checkpoint.

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
        return arr.reshape(shape).astype(dtype)

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
        normalizers.table = dict(zip(
            map(tuple, records["key"].tolist()), records["value"].tolist()
        ))
    if off != len(data):
        raise CheckpointFormatError("trailing bytes after checkpoint payload")
    return params, normalizers
