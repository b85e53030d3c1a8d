import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp, softmax

from ncelm.errors import CheckpointFormatError, ConfigError
from ncelm.model import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    LblParams,
    NormalizerStore,
    exp_rows,
    full_distribution,
    init_params,
    load_checkpoint,
    predicted_representation_batch,
    save_checkpoint,
    score_table,
    scores_all,
)


def _per_context_store(table):
    """A per-context store holding the context-tuple -> value entries."""
    store = NormalizerStore("per-context")
    store.set_values(list(table), list(table.values()))
    return store


def test_init_params_shapes_and_determinism():
    p = init_params(vocab_size=11, dim=4, context_size=3)
    assert p.context_vectors.shape == (11, 4)
    assert p.target_vectors.shape == (11, 4)
    assert p.context_transforms.shape == (3, 4, 4)
    assert p.biases.shape == (11,)
    assert p.dtype == np.float32
    assert np.array_equal(p.context_transforms[1], np.eye(4, dtype=np.float32))

    q = init_params(vocab_size=11, dim=4, context_size=3)
    assert np.array_equal(p.context_vectors, q.context_vectors)
    r = init_params(vocab_size=11, dim=4, context_size=3, seed=1)
    assert not np.array_equal(p.context_vectors, r.context_vectors)


def test_init_params_diagonal_and_warm_bias():
    counts = np.array([0, 0, 8, 2])
    p = init_params(4, 2, 2, matrix_mode="diagonal", counts=counts, dtype=np.float64)
    assert p.context_transforms.shape == (2, 2)
    assert np.all(p.context_transforms == 1.0)
    smoothed = counts + 1.0
    assert np.allclose(p.biases, np.log(smoothed / smoothed.sum()))
    assert np.isclose(np.logaddexp.reduce(p.biases), 0.0)


def test_init_params_validation():
    with pytest.raises(ConfigError):
        init_params(0, 4, 2)
    with pytest.raises(ConfigError):
        init_params(4, 4, 2, init_scale=-1.0)
    with pytest.raises(ConfigError):
        init_params(4, 4, 2, matrix_mode="sparse")


def _tiny_params(dtype=np.float64):
    ctx = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 3.0]], dtype=dtype)
    tgt = np.array([[1.0, 1.0], [0.5, -0.5], [0.0, 2.0]], dtype=dtype)
    transforms = np.array([[2.0, 2.0], [1.0, -1.0]], dtype=dtype)
    biases = np.array([0.1, -0.2, 0.3], dtype=dtype)
    return LblParams(ctx, tgt, transforms, biases, "diagonal", 2, 2)


def test_predicted_representation_diagonal_by_hand():
    p = _tiny_params()
    # position 0 scales row of word 2 by (2, 2); position 1 scales word 0 by (1, -1)
    batch = predicted_representation_batch(p, np.array([[2, 0], [1, 1]]))
    assert np.allclose(batch[0], [2 * 2 + 1 * 1, 2 * 3 + (-1) * 0])
    assert np.allclose(batch[1], [0 * 2 + 0 * 1, 1 * 2 + 1 * (-1)])


def test_full_identity_matches_diagonal_ones():
    rng = np.random.default_rng(5)
    ctx = rng.standard_normal((6, 3))
    tgt = rng.standard_normal((6, 3))
    biases = rng.standard_normal(6)
    full = LblParams(ctx, tgt, np.broadcast_to(np.eye(3), (2, 3, 3)).copy(),
                     biases, "full", 3, 2)
    diag = LblParams(ctx, tgt, np.ones((2, 3)), biases, "diagonal", 3, 2)
    contexts = rng.integers(0, 6, size=(10, 2))
    assert np.allclose(
        predicted_representation_batch(full, contexts),
        predicted_representation_batch(diag, contexts),
    )


def test_scores_and_distribution_consistency():
    p = _tiny_params()
    # Predicted vector of context [2, 0] is (5, 6); see the test above.
    all_scores = scores_all(p, np.array([[2, 0]]))[0]
    assert np.allclose(all_scores, [5 + 6 + 0.1, 2.5 - 3 - 0.2, 12 + 0.3])

    dist = full_distribution(p, np.array([[2, 0]]))[0]
    assert np.isclose(dist.sum(), 1.0)
    manual = np.exp(all_scores - all_scores.max())
    assert np.allclose(dist, manual / manual.sum())


def _random_params(dtype, mode, v=9, d=4, c=3, seed=0):
    rng = np.random.default_rng(seed)
    shape = (c, d, d) if mode == "full" else (c, d)
    return LblParams(
        rng.normal(size=(v, d)).astype(dtype), rng.normal(size=(v, d)).astype(dtype),
        rng.normal(size=shape).astype(dtype), rng.normal(size=v).astype(dtype),
        mode, d, c,
    )


@pytest.mark.parametrize("mode", ["full", "diagonal"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scores_all_matches_per_row_float64(dtype, mode):
    p = _random_params(dtype, mode)
    contexts = np.random.default_rng(1).integers(0, 9, size=(6, 3))
    ctx64 = p.context_vectors.astype(np.float64)
    tgt64 = p.target_vectors.astype(np.float64)
    t64 = p.context_transforms.astype(np.float64)
    expected = np.empty((6, 9))
    for row, context in enumerate(contexts):
        if mode == "full":
            q = sum(t64[i] @ ctx64[w] for i, w in enumerate(context))
        else:
            q = sum(t64[i] * ctx64[w] for i, w in enumerate(context))
        expected[row] = tgt64 @ q + p.biases.astype(np.float64)

    got = scores_all(p, contexts)
    assert got.dtype == np.float64
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)

    table = np.full((9, 5), np.nan)
    assert score_table(p, table) is table
    assert np.array_equal(table, np.column_stack([tgt64, p.biases.astype(np.float64)]))


def test_full_distribution_rows_match_softmax():
    p = _random_params(np.float32, "full")
    contexts = np.random.default_rng(2).integers(0, 9, size=(5, 3))
    dist = full_distribution(p, contexts)
    expected = softmax(scores_all(p, contexts), axis=1)
    assert dist.shape == (5, 9)
    assert np.allclose(dist, expected, rtol=1e-12, atol=0.0)

    # Rows near +800 and -800 overflow or underflow a raw sum of exp.
    scores = scores_all(p, contexts)
    rows = np.concatenate([scores, scores + 800.0, scores - 800.0])
    want_log_z = logsumexp(rows, axis=1, keepdims=True)
    want_probs = softmax(rows, axis=1)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        z, log_z = exp_rows(rows)
    assert z.shape == log_z.shape == (15, 1)
    np.testing.assert_allclose(log_z, want_log_z, rtol=1e-12, atol=0)
    np.testing.assert_allclose(rows / z, want_probs, rtol=1e-12, atol=0)


def test_normalizer_store_modes():
    fixed = NormalizerStore("fixed-one")
    assert fixed.lookup_batch(np.array([[3, 4]])).tolist() == [0.0]

    store = NormalizerStore("per-context")
    assert store.lookup_batch(np.array([[3, 4]])).tolist() == [0.0]
    store.set_values([(3, 4)], [-1.5])
    assert store.lookup_batch(np.array([[3, 4]])).tolist() == [-1.5]
    batch = store.lookup_batch(np.array([[3, 4], [4, 3]]))
    assert batch.tolist() == [-1.5, 0.0]

    with pytest.raises(ConfigError):
        NormalizerStore("global")


def test_checkpoint_round_trip(tmp_path):
    p = init_params(7, 3, 2, seed=9)
    store = _per_context_store({(1, 2): -0.75, (0, 0): 1.25})
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, p, store)

    loaded, loaded_store = load_checkpoint(path)
    assert loaded.matrix_mode == "full"
    assert (loaded.vocab_size, loaded.dim, loaded.context_size) == (7, 3, 2)
    for name, tensor in p.tensors().items():
        assert np.array_equal(loaded.tensors()[name], tensor), name
    assert loaded_store.mode == "per-context"
    assert loaded_store.table == {(0, 0): 1.25, (1, 2): -0.75}

    # Writing what was read reproduces the file byte for byte.
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, loaded, loaded_store)
    assert again.read_bytes() == path.read_bytes()


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch):
    from ncelm import model

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(7, 3, 2, seed=1), NormalizerStore())
    before = path.read_bytes()

    class FullDisk:
        """A file that takes 100 bytes, then fails as a full disk does."""

        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def write(self, data):
            room = 100 - self.handle.tell()
            if len(data) > room:
                self.handle.write(data[:room])
                raise OSError(28, "No space left on device")
            return self.handle.write(data)

    monkeypatch.setattr(
        model, "open", lambda *a, **kw: FullDisk(open(*a, **kw)), raising=False
    )
    store = _per_context_store({(1, 2): -0.75})
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, init_params(7, 3, 2, seed=2), store)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_dtype_promotion(tmp_path):
    p = init_params(4, 2, 1, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, p, NormalizerStore())
    loaded, _ = load_checkpoint(path)
    assert loaded.dtype == np.float32
    promoted = loaded.astype(np.float64)
    assert promoted.dtype == np.float64
    assert np.array_equal(promoted.biases, p.biases.astype(np.float64))


def test_checkpoint_bytes_are_little_endian_by_construction(tmp_path):
    # Assemble a one-word, one-dimension model directly from raw bytes.
    blob = CHECKPOINT_MAGIC
    blob += struct.pack("<6I", CHECKPOINT_VERSION, 1, 1, 1, 1, 0)
    blob += np.array([2.0], dtype="<f4").tobytes()      # context vector
    blob += np.array([-0.5], dtype="<f4").tobytes()     # target vector
    blob += np.array([3.0], dtype="<f4").tobytes()      # diagonal transform
    blob += np.array([0.25], dtype="<f4").tobytes()     # bias
    path = tmp_path / "crafted.ckpt"
    path.write_bytes(blob)

    params, store = load_checkpoint(path)
    assert params.matrix_mode == "diagonal"
    assert params.context_vectors[0, 0] == 2.0
    assert params.target_vectors[0, 0] == -0.5
    assert params.context_transforms[0, 0] == 3.0
    assert params.biases[0] == 0.25
    assert store.mode == "fixed-one"

    # Per-context records: uint32 count, then (uint32 ids..., float32
    # value) per context in sorted order. Reading and writing back must
    # reproduce the hand-packed bytes, which pins the write-side layout.
    blob = CHECKPOINT_MAGIC
    blob += struct.pack("<6I", CHECKPOINT_VERSION, 2, 1, 2, 1, 1)
    blob += np.array([1.0, 2.0], dtype="<f4").tobytes()  # context vectors
    blob += np.array([3.0, 4.0], dtype="<f4").tobytes()  # target vectors
    blob += np.array([0.5, 1.5], dtype="<f4").tobytes()  # diagonal transforms
    blob += np.array([-1.0, 1.0], dtype="<f4").tobytes()  # biases
    blob += struct.pack("<I", 2)
    blob += struct.pack("<2If", 0, 1, -0.75)
    blob += struct.pack("<2If", 1, 0, 2.5)
    path.write_bytes(blob)

    params, store = load_checkpoint(path)
    assert store.mode == "per-context"
    assert store.table == {(0, 1): -0.75, (1, 0): 2.5}
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, params, store)
    assert again.read_bytes() == blob


def test_checkpoint_rejects_corruption(tmp_path):
    p = init_params(3, 2, 1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, p, NormalizerStore())
    data = path.read_bytes()

    bad_magic = tmp_path / "magic.ckpt"
    bad_magic.write_bytes(b"XXXXXX\n" + data[7:])
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(bad_magic)

    bad_version = tmp_path / "version.ckpt"
    bad_version.write_bytes(data[:7] + struct.pack("<I", 99) + data[11:])
    with pytest.raises(CheckpointFormatError, match="version 99"):
        load_checkpoint(bad_version)

    trailing = tmp_path / "trailing.ckpt"
    trailing.write_bytes(data + b"junk")
    with pytest.raises(CheckpointFormatError, match="trailing"):
        load_checkpoint(trailing)


@pytest.mark.parametrize("mode", ["fixed-one", "per-context"])
def test_checkpoint_truncated_at_every_offset_names_the_field(tmp_path, mode):
    p = init_params(5, 3, 2, seed=4)
    store = NormalizerStore(mode)
    if mode == "per-context":
        store.set_values([(1, 2), (3, 0), (4, 4)], [-0.5, 0.25, 1.5])
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, p, store)
    data = path.read_bytes()
    cut_path = tmp_path / "cut.ckpt"
    fields = set()
    for cut in range(len(data)):
        cut_path.write_bytes(data[:cut])
        with pytest.raises(CheckpointFormatError) as info:
            load_checkpoint(cut_path)
        message = str(info.value)
        if cut < len(CHECKPOINT_MAGIC):
            assert "magic" in message
        else:
            assert message.startswith("checkpoint truncated in "), message
            fields.add(message.split(" in ", 1)[1].split(":")[0])
    expected = {
        "header", "context_vectors", "target_vectors",
        "context_transforms", "biases",
    }
    if mode == "per-context":
        expected |= {"normalizer count", "normalizer records"}
    assert fields == expected


def test_normalizer_store_unpackable_keys_order_save_and_look_up_like_tuples(tmp_path):
    big = 2**21
    small = [(1, 2, 3), (0, 5, 1), (3, 0, 0)]
    large = [(big, 0, 1), (0, big + 7, 2), (big + 3, big + 3, big + 3), (1, 2, big)]
    values = dict(zip(small + large, np.random.default_rng(6).normal(size=7).tolist()))
    store = NormalizerStore("per-context")
    small_ids = store.register(small)
    assert store._sorted.dtype == np.int64  # ids below 2**21 pack three to an int64
    store.set_values(large + small, [values[key] for key in large + small])
    assert store._sorted.dtype.kind == "V"  # (2**21 + 8) ** 3 overflows: byte keys
    assert store.register(small).tolist() == small_ids.tolist()
    assert list(store.table) == sorted(values)
    assert dict(store.table) == values
    queries = small + large + [(1, 2, 4), (big, big, big), (2**40, 0, 0)]
    assert store.lookup_batch(np.array(queries)).tolist() == [
        values.get(key, 0.0) for key in queries
    ]

    path = tmp_path / "wide.ckpt"
    save_checkpoint(path, init_params(4, 2, 3, seed=0), store)
    records = struct.pack("<I", len(values)) + b"".join(
        struct.pack("<3If", *key, value) for key, value in sorted(values.items())
    )
    assert path.read_bytes().endswith(records)
    params, loaded = load_checkpoint(path)
    assert dict(loaded.table) == {k: float(np.float32(v)) for k, v in values.items()}
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, params, loaded)
    assert again.read_bytes() == path.read_bytes()


@st.composite
def _store_batches(draw):
    """A context size from 1 to 8 and batches of context rows, mostly of
    small ids, some reaching the largest id a checkpoint holds."""
    c = draw(st.integers(1, 8))
    word = st.one_of(st.integers(0, 6), st.integers(0, 2**32 - 1))
    row = st.tuples(*[word] * c)
    return c, draw(st.lists(st.lists(row, min_size=1, max_size=6), min_size=1, max_size=4))


@settings(deadline=None, max_examples=150)
@given(case=_store_batches())
# A larger id arrives after int64 codes were in use: keys turn to bytes.
@example(case=(2, [[(1, 2), (0, 5), (1, 2)], [(2**32 - 1, 0), (0, 5)], [(3, 3)]]))
@example(case=(8, [[(1,) * 8, (6, 0, 0, 0, 0, 0, 0, 5)], [(300,) + (0,) * 7, (1,) * 8]]))
def test_normalizer_store_matches_a_dict_of_tuples(case):
    c, batches = case
    store = NormalizerStore("per-context")
    ids, values = {}, {}  # context tuple -> entry id, and -> value
    for step, batch in enumerate(batches):
        # New contexts take the next entry ids in sorted order.
        new = sorted(set(batch) - set(ids))
        ids.update(zip(new, range(len(ids), len(ids) + len(new))))
        got = store.register(np.array(batch))
        assert got.tolist() == [ids[key] for key in batch]
        radix = max(max(key) for key in ids) + 1
        assert store._sorted.dtype.kind == ("i" if radix**c <= 2**63 else "V")

        values.update((key, step - ids[key] / 4) for key in batch)
        store.assign(got, [values[key] for key in batch])
        queries = list(ids) + [tuple(i + 1 for i in key) for key in batch] + [(-1,) * c]
        assert store.lookup_batch(np.array(queries)).tolist() == [
            values.get(key, 0.0) for key in queries
        ]

    keys, stored = store.entries()
    assert [tuple(key) for key in keys.tolist()] == sorted(ids)
    assert stored.tolist() == [values[key] for key in sorted(ids)]
    with tempfile.TemporaryDirectory() as tmp:
        path, again = os.path.join(tmp, "a.ckpt"), os.path.join(tmp, "b.ckpt")
        save_checkpoint(path, init_params(2, 1, c), store)
        with open(path, "rb") as f:
            data = f.read()
        assert data.endswith(struct.pack("<I", len(ids)) + b"".join(
            struct.pack(f"<{c}If", *key, values[key]) for key in sorted(ids)
        ))
        params, loaded = load_checkpoint(path)
        assert dict(loaded.table) == values
        save_checkpoint(again, params, loaded)
        with open(again, "rb") as f:
            assert f.read() == data


def test_normalizer_store_table_is_a_read_only_view_of_registered_entries():
    store = _per_context_store({(2, 1): 0.5})
    store.register(np.array([[0, 3], [2, 1], [4, 4]]))
    # A registered entry is in the table as soon as it exists, reading 0
    # until it is written.
    assert len(store.table) == 3
    assert store.table == {(0, 3): 0.0, (2, 1): 0.5, (4, 4): 0.0}
    assert store.table.get((3, 0)) is None
    assert store.lookup_batch(np.array([[0, 3]])).tolist() == [0.0]
    # Ids past the largest registered one must not alias a packed key:
    # (1, 6) packs in radix 5 to the code of (2, 1).
    assert store.lookup_batch(np.array([[1, 6]])).tolist() == [0.0]
    assert store.table.get((1, 6)) is None
    with pytest.raises(TypeError):
        store.table[(0, 3)] = 1.0
    with pytest.raises(ValueError):
        store.values[0] = 1.0
    with pytest.raises(ConfigError, match="3 words"):
        store.register([(1, 2, 3)])
    with pytest.raises(ConfigError, match="got -1"):
        store.register([(1, -1)])

    copy = store.copy()
    copy.set_values([(0, 3)], [-2.0])
    assert store.table == {(0, 3): 0.0, (2, 1): 0.5, (4, 4): 0.0}
    assert copy.table == {(0, 3): -2.0, (2, 1): 0.5, (4, 4): 0.0}
    assert list(copy.table) == [(0, 3), (2, 1), (4, 4)]


def test_checkpoint_saves_a_registered_unwritten_entry_as_zero(tmp_path):
    store = _per_context_store({(2, 1): 0.5})
    store.register([(0, 3)])
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(5, 2, 2, seed=1), store)
    records = struct.pack("<I2If2If", 2, 0, 3, 0.0, 2, 1, 0.5)
    assert path.read_bytes().endswith(records)

    params, loaded = load_checkpoint(path)
    assert loaded.table == {(0, 3): 0.0, (2, 1): 0.5}
    assert loaded.lookup_batch(np.array([[0, 3]])).tolist() == [0.0]
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, params, loaded)
    assert again.read_bytes() == path.read_bytes()
