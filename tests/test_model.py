import struct

import numpy as np
import pytest

from ncelm.errors import CheckpointFormatError, ConfigError
from ncelm.model import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    LblParams,
    NormalizerStore,
    full_distribution,
    init_params,
    load_checkpoint,
    log_distribution_batch,
    predicted_representation,
    predicted_representation_batch,
    save_checkpoint,
    score,
    scores_all,
)


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
    qhat = predicted_representation(p, [2, 0])
    assert np.allclose(qhat, [2 * 2 + 1 * 1, 2 * 3 + (-1) * 0])

    batch = predicted_representation_batch(p, np.array([[2, 0], [1, 1]]))
    assert np.allclose(batch[0], qhat)
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
    qhat = predicted_representation(p, [2, 0])
    all_scores = scores_all(p, qhat)
    assert np.isclose(score(p, qhat, 1), all_scores[1])

    dist = full_distribution(p, [2, 0])
    assert np.isclose(dist.sum(), 1.0)
    manual = np.exp(all_scores - all_scores.max())
    assert np.allclose(dist, manual / manual.sum())

    logs = log_distribution_batch(p, np.array([[2, 0], [0, 1]]))
    assert np.allclose(np.exp(logs[0]), dist)
    assert np.allclose(np.exp(logs).sum(axis=1), 1.0)


def test_normalizer_store_modes():
    fixed = NormalizerStore("fixed-one")
    assert fixed.lookup([3, 4]) == 0.0

    store = NormalizerStore("per-context")
    assert store.lookup([3, 4]) == 0.0
    store.table[(3, 4)] = -1.5
    assert store.lookup(np.array([3, 4])) == -1.5
    batch = store.lookup_batch(np.array([[3, 4], [4, 3]]))
    assert batch.tolist() == [-1.5, 0.0]

    with pytest.raises(ConfigError):
        NormalizerStore("global")


def test_checkpoint_round_trip(tmp_path):
    p = init_params(7, 3, 2, seed=9)
    store = NormalizerStore("per-context", {(1, 2): -0.75, (0, 0): 1.25})
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


def test_checkpoint_dtype_promotion(tmp_path):
    p = init_params(4, 2, 1, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, p, NormalizerStore())
    loaded, _ = load_checkpoint(path, dtype=np.float64)
    assert loaded.dtype == np.float64
    assert np.array_equal(loaded.biases, p.biases.astype(np.float64))


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
        store.table.update({(1, 2): -0.5, (3, 0): 0.25, (4, 4): 1.5})
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
