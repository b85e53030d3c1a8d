"""The log-bilinear language model.

A context of word ids is mapped to a predicted feature vector by
position-dependent linear transforms of per-word context vectors; a
word's score is the dot product of that prediction with the word's
target vector plus a per-word bias. Softmax over scores gives the
normalized next-word distribution. Per-context log-normalizers, when
trained instead of computed, live in a NormalizerStore keyed by the
context id tuple.

Parameters are stored in float32 by default for training speed;
probability arithmetic always accumulates in float64. Oracle tests use
float64 storage end to end.
"""

from __future__ import annotations

import math
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


def predicted_representation(params: LblParams, context) -> np.ndarray:
    """Combine context word vectors through their position transforms."""
    rows = params.context_vectors[np.asarray(context, dtype=np.int64)]
    if rows.shape[0] != params.context_size:
        raise ConfigError("context length does not match context_size")
    if params.matrix_mode == "full":
        return np.einsum("cij,cj->i", params.context_transforms, rows)
    return (params.context_transforms * rows).sum(axis=0)


def predicted_representation_batch(params: LblParams, contexts: np.ndarray) -> np.ndarray:
    """Predicted vectors for a batch of contexts, shape (B, d)."""
    rows = params.context_vectors[contexts]
    if params.matrix_mode == "full":
        # A short loop of GEMMs beats one big einsum for small context sizes.
        acc = rows[:, 0] @ params.context_transforms[0].T
        for i in range(1, params.context_size):
            acc += rows[:, i] @ params.context_transforms[i].T
        return acc
    return (params.context_transforms[None, :, :] * rows).sum(axis=1)


def score(params: LblParams, qhat: np.ndarray, w: int) -> float:
    """Compatibility score of word w with a predicted vector."""
    return float(qhat @ params.target_vectors[w] + params.biases[w])


def scores_all(params: LblParams, qhat: np.ndarray) -> np.ndarray:
    """Scores of every vocabulary word against one predicted vector."""
    return params.target_vectors @ qhat + params.biases


def full_distribution(params: LblParams, context) -> np.ndarray:
    """Explicitly normalized next-word distribution for one context.

    Softmax over all V scores, computed in float64 log space with
    max-subtraction.
    """
    s = scores_all(params, predicted_representation(params, context)).astype(np.float64)
    s -= s.max()
    e = np.exp(s)
    return e / e.sum()


def log_distribution_batch(
    params: LblParams, contexts: np.ndarray, chunk_size: int = 8192
) -> np.ndarray:
    """Log next-word distributions for a batch of contexts, (B, V) float64.

    Chunked so that the (chunk, V) score matrix stays within memory at
    large vocabulary sizes.
    """
    n = contexts.shape[0]
    tgt = params.target_vectors.astype(np.float64)
    b = params.biases.astype(np.float64)
    out = np.empty((n, params.vocab_size), dtype=np.float64)
    for lo in range(0, n, chunk_size):
        hi = min(lo + chunk_size, n)
        qh = predicted_representation_batch(params, contexts[lo:hi]).astype(np.float64)
        s = qh @ tgt.T
        s += b
        s -= s.max(axis=1, keepdims=True)
        np.exp(s, out=s)
        norm = s.sum(axis=1, keepdims=True)
        np.log(s, out=s)
        out[lo:hi] = s - np.log(norm)
    return out


def _mode_flags(params: LblParams, normalizers: NormalizerStore) -> tuple[int, int]:
    return MATRIX_MODES.index(params.matrix_mode), NORMALIZER_MODES.index(normalizers.mode)


def save_checkpoint(path, params: LblParams, normalizers: NormalizerStore) -> None:
    """Write the binary checkpoint format.

    Layout: magic "NCELM1\\n"; six little-endian uint32 header fields
    (format version, V, d, context_size, matrix mode flag, normalizer
    mode flag); float32 little-endian arrays for the context table,
    target table, each context transform in position order, and biases;
    in per-context mode, a uint32 record count followed by (context ids
    as uint32, log-normalizer as float32) records in sorted context
    order. Writing then reading reproduces the file byte for byte.
    """
    mflag, nflag = _mode_flags(params, normalizers)
    header = struct.pack(
        "<6I", CHECKPOINT_VERSION, params.vocab_size, params.dim,
        params.context_size, mflag, nflag,
    )
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(header)
        f.write(np.ascontiguousarray(params.context_vectors, dtype="<f4").tobytes())
        f.write(np.ascontiguousarray(params.target_vectors, dtype="<f4").tobytes())
        f.write(np.ascontiguousarray(params.context_transforms, dtype="<f4").tobytes())
        f.write(np.ascontiguousarray(params.biases, dtype="<f4").tobytes())
        if normalizers.mode == "per-context":
            items = sorted(normalizers.table.items())
            f.write(struct.pack("<I", len(items)))
            for key, value in items:
                f.write(np.asarray(key, dtype="<u4").tobytes())
                f.write(np.float32(value).tobytes())


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
        record = np.dtype([("key", "<u4", (c,)), ("value", "<f4")])
        start = take(count * record.itemsize, "normalizer records")
        records = np.frombuffer(data, dtype=record, count=count, offset=start)
        normalizers.table = dict(zip(
            map(tuple, records["key"].tolist()), records["value"].tolist()
        ))
    if off != len(data):
        raise CheckpointFormatError("trailing bytes after checkpoint payload")
    return params, normalizers
