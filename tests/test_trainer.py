import numpy as np
import pytest

from ncelm import evaluation
from ncelm.corpus import Dataset, extract_pairs
from ncelm.diagnostics import benchmark_update
from ncelm.errors import ConfigError, DivergenceError
from ncelm.estimators import Gradient
from ncelm.model import NormalizerStore, init_params, load_checkpoint
from ncelm.synthetic import corpus_vocab, generate_sentences, make_truth_params, make_vocab
from ncelm.trainer import (
    TrainConfig,
    sgd_step,
    train,
    update_learning_rate,
)


def _per_context_store(table):
    """A per-context store holding the context-tuple -> value entries."""
    store = NormalizerStore("per-context")
    store.set_values(list(table), list(table.values()))
    return store


def test_update_learning_rate_halves_only_on_increase():
    assert update_learning_rate(0.1, 100.0, 101.0) == 0.05
    assert update_learning_rate(0.1, 100.0, 100.0) == 0.1
    assert update_learning_rate(0.1, 100.0, 99.0) == 0.1


@pytest.mark.parametrize(
    "overrides",
    [
        {"estimator": "softmax"},
        {"k": 0},
        {"noise_kind": "bigram"},
        {"minibatch_size": 0},
        {"initial_lr": 0.0},
        {"max_epochs": 0},
        {"weight_penalty": -0.1},
        {"normalizer_mode": "global"},
        {"ess_floor": 0.0},
        {"dim": 0},
        {"precision": 16},
        {"matrix_mode": "banded"},
    ],
)
def test_train_config_rejects_bad_values(overrides):
    with pytest.raises(ConfigError):
        TrainConfig(**overrides)


def test_train_config_dtype_follows_precision():
    assert TrainConfig(precision=32).dtype == np.float32
    assert TrainConfig(precision=64).dtype == np.float64


def _gradient(params, ids=(), target_grads=None, bias_grads=None):
    """A Gradient on the given target rows and their biases, with no
    context-vector rows and zero transform gradients."""
    ids = np.asarray(ids, dtype=np.int64)
    d = params.dim
    if target_grads is None:
        target_grads = np.zeros((ids.size, d))
    if bias_grads is None:
        bias_grads = np.zeros(ids.size)
    return Gradient(
        context_vector_ids=np.empty(0, dtype=np.int64),
        context_vector_grads=np.zeros((0, d)),
        target_vector_ids=ids,
        target_vector_grads=np.asarray(target_grads, dtype=np.float64),
        transform_grads=np.zeros_like(params.context_transforms),
        bias_grads=np.asarray(bias_grads, dtype=np.float64),
    )


def test_sgd_step_applies_rows_by_hand():
    params = init_params(3, 2, 1, matrix_mode="diagonal", init_scale=0.0,
                         dtype=np.float64)
    grad = _gradient(
        params, [1, 2], target_grads=[[0.0, 0.0], [1.0, -1.0]], bias_grads=[2.0, 0.0]
    )
    grad.transform_grads = np.ones_like(params.context_transforms)

    sgd_step(params, NormalizerStore(), grad, learning_rate=0.5)
    assert params.biases.tolist() == [0.0, 1.0, 0.0]
    assert params.target_vectors[1].tolist() == [0.0, 0.0]
    assert params.target_vectors[2].tolist() == [0.5, -0.5]
    assert np.allclose(params.context_transforms, 1.5)  # identity gains + 0.5


def test_sgd_step_weight_penalty_decays_touched_rows_only():
    params = init_params(3, 2, 1, matrix_mode="diagonal", init_scale=0.0,
                         dtype=np.float64)
    params.biases[:] = [4.0, 1.0, 4.0]
    grad = _gradient(params, [1], bias_grads=[2.0])

    sgd_step(params, NormalizerStore(), grad, learning_rate=0.5, weight_penalty=0.2)
    # Touched row: 1.0 * (1 - 0.5 * 0.2) + 0.5 * 2.0; untouched rows keep their value.
    assert np.allclose(params.biases, [4.0, 1.9, 4.0])
    # The dense transform decays even with a zero gradient.
    assert np.allclose(params.context_transforms, 0.9)


def test_sgd_step_empty_gradient_is_identity():
    params = init_params(5, 3, 2, seed=3)
    before = {k: v.copy() for k, v in params.tensors().items()}
    sgd_step(params, NormalizerStore(), _gradient(params), 0.7)
    for name, tensor in params.tensors().items():
        assert np.array_equal(tensor, before[name]), name


def test_sgd_step_updates_normalizer_store():
    params = init_params(3, 2, 2)
    store = NormalizerStore("per-context")
    grad = _gradient(params)
    grad.normalizer_grads = (store.register([(0, 1)]), np.array([4.0]))
    sgd_step(params, store, grad, 0.25)
    assert np.isclose(store.lookup([0, 1]), 1.0)


def test_sgd_step_raises_on_nonfinite_update():
    for tensor in (
        "context_vectors", "target_vectors", "context_transforms", "biases", "normalizers"
    ):
        params = init_params(3, 2, 1)
        store = _per_context_store({(0,): 0.5, (2,): -0.5})
        grad = _gradient(params, [0])
        grad.context_vector_ids = np.array([1])
        grad.context_vector_grads = np.zeros((1, 2))
        # (2,) holds a value; (1,) is registered but never written.
        grad.normalizer_grads = (store.register([(2,), (1,)]), np.zeros(2))
        bad = {
            "context_vectors": grad.context_vector_grads,
            "target_vectors": grad.target_vector_grads,
            "context_transforms": grad.transform_grads,
            "biases": grad.bias_grads,
            "normalizers": grad.normalizer_grads[1],
        }[tensor]
        bad[...] = np.inf
        before = {name: t.copy() for name, t in params.tensors().items()}
        values, table = store.values.copy(), dict(store.table)
        with pytest.raises(DivergenceError, match=f"'{tensor}'") as err:
            sgd_step(params, store, grad, 0.1)
        assert err.value.tensor == tensor
        # Every other gradient is zero, so nothing may change anywhere.
        for name, t in params.tensors().items():
            assert np.array_equal(t, before[name]), (tensor, name)
        assert np.array_equal(store.values, values), tensor
        assert dict(store.table) == table, tensor


@pytest.fixture(scope="module")
def tiny_corpus():
    truth = make_truth_params(30, 4, 2, seed=5, feature_scale=0.5)
    sents = generate_sentences(truth, 150, 4, 9, np.random.default_rng(8))
    vocab = corpus_vocab(30, sents)
    return extract_pairs(sents[:130], 2), extract_pairs(sents[130:], 2), vocab


def test_train_learns_and_is_deterministic(tiny_corpus):
    train_set, valid_set, vocab = tiny_corpus
    cfg = TrainConfig(estimator="nce", k=2, dim=4, minibatch_size=16,
                      initial_lr=0.1, max_epochs=4, seed=9)
    params_a, _, hist_a = train(cfg, train_set, valid_set, vocab)
    params_b, _, hist_b = train(cfg, train_set, valid_set, vocab)

    for name, tensor in params_a.tensors().items():
        assert tensor.tobytes() == params_b.tensors()[name].tobytes(), name
    assert hist_a.valid_ppls == hist_b.valid_ppls
    assert [r.objective for r in hist_a.records] == [
        r.objective for r in hist_b.records
    ]
    assert hist_a.k_by_epoch == [2, 2, 2, 2]
    assert len(hist_a.records) == 4
    assert all(rec.learning_rate > 0 for rec in hist_a.records)


def test_train_reduces_perplexity_from_start(tiny_corpus):
    train_set, valid_set, vocab = tiny_corpus
    cfg = TrainConfig(estimator="ml", dim=4, minibatch_size=16,
                      initial_lr=0.1, max_epochs=6, seed=2)
    _, _, hist = train(cfg, train_set, valid_set, vocab)
    assert hist.valid_ppls[-1] < hist.valid_ppls[0]


def test_train_writes_checkpoint_of_final_state(tiny_corpus, tmp_path):
    train_set, valid_set, vocab = tiny_corpus
    path = tmp_path / "run.ckpt"
    cfg = TrainConfig(estimator="nce", k=2, dim=4, minibatch_size=16,
                      initial_lr=0.1, max_epochs=3, seed=9)
    params, _, _ = train(cfg, train_set, valid_set, vocab, checkpoint_path=path)
    loaded, store = load_checkpoint(path)
    for name, tensor in params.tensors().items():
        assert np.array_equal(loaded.tensors()[name], tensor), name
    assert store.mode == "fixed-one"


def test_train_divergence_names_run_and_keeps_checkpoint(tiny_corpus, tmp_path):
    train_set, valid_set, vocab = tiny_corpus
    path = tmp_path / "diverging.ckpt"
    cfg = TrainConfig(estimator="nce", k=2, dim=4, minibatch_size=16,
                      initial_lr=0.4, max_epochs=8, seed=9)
    with pytest.raises(DivergenceError) as info:
        train(cfg, train_set, valid_set, vocab, checkpoint_path=path)
    err = info.value
    assert err.estimator == "nce"
    assert err.epoch == 2
    assert err.step == 6
    assert err.learning_rate == 0.4
    assert "(estimator=nce, epoch=2, step=6, lr=0.4)" in str(err)
    assert err.last_good_checkpoint == str(path)
    # The retained file is the epoch-1 improvement, still loadable.
    loaded, _ = load_checkpoint(path)
    assert np.all(np.isfinite(loaded.context_vectors))


def test_train_grows_k_when_ess_floor_is_unmet(tiny_corpus):
    train_set, valid_set, vocab = tiny_corpus
    cfg = TrainConfig(estimator="is", k=3, ess_floor=3.0, dim=4,
                      minibatch_size=16, initial_lr=0.02, max_epochs=3, seed=1)
    _, _, hist = train(cfg, train_set, valid_set, vocab)
    assert hist.k_by_epoch[0] == 3
    assert hist.k_by_epoch == sorted(hist.k_by_epoch)
    assert hist.k_by_epoch[-1] > 3
    assert all(rec.mean_ess is not None for rec in hist.records)
    assert len(hist.max_weight_fractions) == len(hist.records)


def test_train_validates_datasets(tiny_corpus):
    train_set, valid_set, vocab = tiny_corpus
    cfg = TrainConfig(estimator="ml", dim=4, max_epochs=1)
    empty = extract_pairs([], 2)
    with pytest.raises(ConfigError):
        train(cfg, empty, valid_set, vocab)
    three = extract_pairs([[3, 4, 5, 6]], 3)
    with pytest.raises(ConfigError, match="context sizes"):
        train(cfg, train_set, three, vocab)


def _ids_up_to(top):
    """200 context-size-2 pairs with ids in [0, top), top - 1 among them."""
    ids = np.random.default_rng(4).integers(0, top, size=(200, 3))
    ids[0, -1] = top - 1
    return Dataset(ids[:, :-1], ids[:, -1], 2, "oos-padding")


@pytest.mark.parametrize("estimator", ["ml", "nce"])
@pytest.mark.parametrize(
    "train_top, valid_top, params_shape, match",
    [
        (60, 50, None, "training set word id 59 is outside the vocabulary of size 50"),
        (50, 60, None, "validation set word id 59 is outside the vocabulary of size 50"),
        (50, 50, (40, 2), "initial parameters cover 40 words and 2 context"),
        (50, 50, (50, 3), "cover 50 words and 3 context positions, .* datasets 2"),
    ],
    ids=["train-ids", "valid-ids", "params-vocab-size", "params-context-size"],
)
def test_train_rejects_inputs_that_do_not_fit_the_vocabulary_or_params(
    estimator, train_top, valid_top, params_shape, match
):
    initial = None if params_shape is None else init_params(params_shape[0], 4, params_shape[1])
    cfg = TrainConfig(estimator=estimator, k=2, dim=4, minibatch_size=50, max_epochs=1)
    with pytest.raises(ConfigError, match=match):
        train(cfg, _ids_up_to(train_top), _ids_up_to(valid_top), make_vocab(50),
              initial_params=initial)


def test_train_validates_through_the_evaluation_module_attribute(tiny_corpus, monkeypatch):
    # perfbench times validation by wrapping evaluation.perplexity, so
    # train() must look it up there on every call.
    train_set, valid_set, vocab = tiny_corpus
    calls = []

    def counting_perplexity(params, dataset, _inner=evaluation.perplexity):
        calls.append(len(dataset))
        return _inner(params, dataset)

    monkeypatch.setattr(evaluation, "perplexity", counting_perplexity)
    cfg = TrainConfig(estimator="nce", k=2, dim=4, minibatch_size=16,
                      initial_lr=0.05, max_epochs=2, seed=3)
    _, _, history = train(cfg, train_set, valid_set, vocab)
    assert len(history.records) == 2
    assert calls == [len(valid_set)] * 2


def test_history_csv_layout(tiny_corpus):
    train_set, valid_set, vocab = tiny_corpus
    cfg = TrainConfig(estimator="is", k=2, dim=4, minibatch_size=16,
                      initial_lr=0.02, max_epochs=2, seed=3)
    _, _, hist = train(cfg, train_set, valid_set, vocab)
    lines = hist.to_csv().splitlines()
    assert lines[0] == "epoch,objective,valid_ppl,learning_rate,seconds,mean_ess"
    assert len(lines) == 3
    assert lines[1].startswith("1,")

    cfg_nce = TrainConfig(estimator="nce", k=2, dim=4, minibatch_size=16,
                          initial_lr=0.05, max_epochs=1, seed=3)
    _, _, hist_nce = train(cfg_nce, train_set, valid_set, vocab)
    assert hist_nce.to_csv().splitlines()[0] == "epoch,objective,valid_ppl,learning_rate,seconds"


def test_benchmark_update_measures_without_mutating(tiny_corpus):
    train_set, _, _ = tiny_corpus
    params = init_params(30, 4, 2, seed=0)
    before = params.context_vectors.copy()
    batch = (train_set.contexts[:64], train_set.targets[:64])
    seconds = benchmark_update(params, "nce", 2, batch)
    assert seconds > 0.0
    assert np.array_equal(params.context_vectors, before)
    with pytest.raises(ConfigError):
        benchmark_update(params, "sgd", 2, batch)


def test_sgd_step_nonfinite_normalizer_is_a_divergence():
    params = init_params(3, 2, 2)
    for bad in (np.inf, np.nan):
        store = _per_context_store({(0, 1): 0.5, (2, 2): -0.5})
        grad = _gradient(params)
        grad.normalizer_grads = (store.register([(2, 2)]), np.array([bad]))
        with pytest.raises(DivergenceError, match="normalizers"):
            sgd_step(params, store, grad, 0.25)


def test_initial_normalizers_outside_training_survive_train_and_checkpoint(
    tiny_corpus, tmp_path
):
    train_set, valid_set, vocab = tiny_corpus
    seen = {tuple(row) for row in train_set.contexts.tolist()}
    extra = [(29, 28), (28, 29)]
    assert not seen & set(extra)
    initial = _per_context_store({extra[0]: -1.25, extra[1]: 0.5})
    path = tmp_path / "ctx.ckpt"
    cfg = TrainConfig(estimator="nce", k=2, dim=4, minibatch_size=16,
                      initial_lr=0.1, max_epochs=1, seed=9,
                      normalizer_mode="per-context")
    _, store, _ = train(cfg, train_set, valid_set, vocab,
                        initial_normalizers=initial, checkpoint_path=path)
    assert store.table[extra[0]] == -1.25
    assert store.table[extra[1]] == 0.5
    assert len(store.table) == len(seen) + 2
    assert set(store.table) == seen | set(extra)
    # The caller's store is copied, not trained in place.
    assert dict(initial.table) == {extra[0]: -1.25, extra[1]: 0.5}

    _, loaded = load_checkpoint(path)
    assert dict(loaded.table) == {
        key: float(np.float32(value)) for key, value in store.table.items()
    }
