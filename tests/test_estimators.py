import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse
from scipy.special import log_expit

from ncelm import estimators
from ncelm.diagnostics import (
    finite_difference_gradient,
    flatten_gradient,
    gradient_check,
    max_relative_error,
    nce_limit_gaps,
    random_instance,
)
from ncelm.errors import ConfigError, DegenerateWeightsError, SupportError
from ncelm.estimators import (
    Gradient,
    exact_nce_gradient,
    is_gradient_and_objective,
    is_objective,
    ml_gradient_and_objective,
    ml_objective,
    nce_gradient_and_objective,
    nce_objective,
    update_normalizers,
)
from ncelm.model import LblParams, NormalizerStore, init_params, scores_all
from ncelm.noise import from_counts, uniform


def _zero_params(v=5, d=2, c=1):
    return init_params(v, d, c, init_scale=0.0, dtype=np.float64)


def test_ml_gradient_at_uniform_model_by_hand():
    params = _zero_params()
    batch = (np.array([[2]]), np.array([3]))
    grad, objective = ml_gradient_and_objective(params, NormalizerStore(), batch)

    # All scores are zero, so the model is uniform over the 5 words.
    assert np.isclose(objective, np.log(1 / 5))
    expected_bias = np.full(5, -0.2)
    expected_bias[3] += 1.0
    assert np.allclose(grad.bias_grads, expected_bias)
    # Zero feature vectors mean zero feature gradients.
    assert np.allclose(grad.target_vector_grads, 0.0)
    assert np.allclose(grad.context_vector_grads, 0.0)
    assert np.allclose(grad.transform_grads, 0.0)
    assert [a.size for a in grad.normalizer_grads] == [0, 0]


def test_ml_objective_matches_gradient_and_objective():
    params, normalizers, batch, _, _ = random_instance(3)
    _, objective = ml_gradient_and_objective(params, normalizers, batch)
    assert np.isclose(objective, ml_objective(params, normalizers, batch))


def test_ml_gradient_is_additive_over_examples():
    params, normalizers, batch, _, _ = random_instance(4)
    contexts, targets = batch
    first = (contexts[:2], targets[:2])
    rest = (contexts[2:], targets[2:])

    summed = flatten_gradient(
        ml_gradient_and_objective(params, normalizers, first)[0], params
    ) + flatten_gradient(ml_gradient_and_objective(params, normalizers, rest)[0], params)
    whole = ml_gradient_and_objective(params, normalizers, batch)[0]
    assert np.allclose(summed, flatten_gradient(whole, params))


def _dense_ml_reference(params, batch):
    """The exact-ML gradient as the normalized dense softmax formula
    (bias added after the score GEMM, rows divided by Z, a negated
    one-hot residual), kept as the reference for the unnormalized
    one-pass kernel. The context side is the estimators' own, so its
    fields compare the two kernels' g_qhat."""
    contexts, targets = batch
    b = targets.shape[0]
    qhat = estimators.predicted_representation_batch(params, contexts)
    qh64 = qhat.astype(np.float64)
    tgt64 = params.target_vectors.astype(np.float64)
    scores = qh64 @ tgt64.T
    scores += params.biases.astype(np.float64)
    target_scores = scores[np.arange(b), targets].copy()
    shift = scores.max(axis=1, keepdims=True)
    np.subtract(scores, shift, out=scores)
    probs = np.exp(scores, out=scores)
    norm = probs.sum(axis=1, keepdims=True)
    probs /= norm
    log_z = (np.log(norm) + shift)[:, 0]
    objective = float(target_scores.sum() - log_z.sum())
    g_qhat = (tgt64[targets] - probs @ tgt64).astype(params.dtype)
    resid = np.negative(probs, out=probs)
    resid[np.arange(b), targets] += 1.0
    bias_grads = resid.sum(axis=0)
    target_grads = resid.T @ qh64
    cids, cgrads, t_grads = estimators._context_side(params, contexts, g_qhat)
    return (
        Gradient(
            cids, cgrads, np.arange(params.vocab_size), target_grads.astype(params.dtype),
            t_grads, bias_grads.astype(params.dtype),
        ),
        objective,
    )


def _ml_kernel_case(matrix_mode, dtype, v=40, d=6, c=3, b=25):
    """A batch where word 3 is the target of several rows (some sharing
    a context) and word 0 is never a target."""
    params = init_params(v, d, c, matrix_mode, init_scale=0.7, seed=5, dtype=dtype)
    rng = np.random.default_rng(6)
    params.biases[:] = rng.standard_normal(v)
    params.context_transforms[:] += 0.3 * rng.standard_normal(params.context_transforms.shape)
    contexts = rng.integers(0, v, size=(b, c))
    contexts[4] = contexts[1]
    targets = rng.integers(1, v, size=b)
    targets[[1, 4, 9, 17]] = 3
    return params, (contexts, targets)


_GRADIENT_FIELDS = (
    "context_vector_ids", "context_vector_grads", "target_vector_ids",
    "target_vector_grads", "transform_grads", "bias_grads",
)


@pytest.mark.parametrize("matrix_mode", ["full", "diagonal"])
def test_one_pass_ml_kernel_matches_the_dense_formula_in_float64(matrix_mode):
    params, batch = _ml_kernel_case(matrix_mode, np.float64)
    assert 0 not in batch[1] and (batch[1] == 3).sum() >= 4
    grad, objective = ml_gradient_and_objective(params, NormalizerStore(), batch)
    ref, ref_objective = _dense_ml_reference(params, batch)
    assert objective == ref_objective
    for name in _GRADIENT_FIELDS:
        got, want = getattr(grad, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=name)
    # The never-observed word gets only the expectation term, which
    # points its bias down.
    assert grad.bias_grads[0] < 0 and grad.bias_grads[3] > 0


@pytest.mark.parametrize("matrix_mode", ["full", "diagonal"])
def test_one_pass_ml_kernel_matches_the_dense_formula_in_float32(matrix_mode):
    # Byte equality: the fixed-seed checkpoint digests depend on it.
    params, batch = _ml_kernel_case(matrix_mode, np.float32)
    grad, objective = ml_gradient_and_objective(params, NormalizerStore(), batch)
    ref, ref_objective = _dense_ml_reference(params, batch)
    assert objective == ref_objective
    for name in _GRADIENT_FIELDS:
        got, want = getattr(grad, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@pytest.mark.parametrize("seed", [0, 1])
def test_finite_difference_agreement_all_estimators(seed):
    errors = gradient_check(seed)
    assert set(errors) == {"ml", "nce", "nce_shared", "is"}
    for name, err in errors.items():
        assert err < 1e-5, name


def _exact_nce_objective(params, normalizers, data_dist, context, noise, k):
    """Expected NCE objective by enumeration, the quantity whose gradient
    exact_nce_gradient computes."""
    row = np.asarray(context, dtype=np.int64)[None, :]
    s = scores_all(params, row)[0]
    s += normalizers.lookup_batch(row)[0]
    z = (np.log(k) + noise.log_probs) - s
    return float(
        (data_dist * log_expit(-z)).sum() + k * (noise.probs * log_expit(z)).sum()
    )


def _exact_oracle_check(seed: int = 0, k: int = 7) -> float:
    """Finite-difference check of the enumeration oracle itself."""
    params, normalizers, batch, noise, norm_ids = random_instance(seed)
    rng = np.random.default_rng(seed + 1)
    data_dist = rng.dirichlet(np.ones(params.vocab_size))
    context = batch[0][0]
    ids = normalizers.register(context[None, :])
    grad = exact_nce_gradient(params, normalizers, data_dist, context, noise, k)
    fd = finite_difference_gradient(
        lambda p, nm: _exact_nce_objective(p, nm, data_dist, context, noise, k),
        params, normalizers, ids,
    )
    return max_relative_error(flatten_gradient(grad, params, ids), fd)


def test_enumeration_oracle_matches_finite_differences():
    assert _exact_oracle_check(0) < 1e-8
    assert _exact_oracle_check(1) < 1e-8


def test_finite_differences_of_a_linear_objective_return_its_coefficients():
    params, _, (contexts, _), _, _ = random_instance(3, normalizer_mode="fixed-one")
    store = NormalizerStore(mode="per-context")
    norm_ids = store.register(np.unique(contexts, axis=0))
    store.assign(norm_ids[:1], [0.3])  # the other entries stay at 0
    rng = np.random.default_rng(5)
    coefs = {name: rng.normal(size=t.shape) for name, t in params.tensors().items()}
    norm_coefs = rng.normal(size=len(norm_ids))

    def objective(p, nm):
        total = sum(float((coefs[name] * t).sum()) for name, t in p.tensors().items())
        return total + float(norm_coefs @ nm.values[norm_ids])

    expected = np.concatenate([c.ravel() for c in coefs.values()] + [norm_coefs])
    values, entries = store.values.copy(), len(store.table)
    for dtype in (np.float64, np.float32):
        p = params.astype(dtype)
        before = {name: t.copy() for name, t in p.tensors().items()}
        fd = finite_difference_gradient(objective, p, store, norm_ids)
        assert fd.shape == expected.shape
        assert np.abs(fd - expected).max() < 1e-9
        for name, t in p.tensors().items():
            assert t.dtype == dtype
            assert np.array_equal(t, before[name]), name
        assert np.array_equal(store.values, values)
        assert len(store.table) == entries


def test_nce_monte_carlo_mean_matches_enumeration():
    rng = np.random.default_rng(11)
    v, d, k = 12, 3, 3
    params = init_params(v, d, 2, init_scale=0.4, seed=2, dtype=np.float64)
    noise = from_counts(rng.integers(1, 9, size=v))
    normalizers = NormalizerStore()
    context = np.array([4, 7])
    target = 5
    batch = (context[None, :], np.array([target]))

    one_hot = np.zeros(v)
    one_hot[target] = 1.0
    exact = flatten_gradient(
        exact_nce_gradient(params, normalizers, one_hot, context, noise, k), params
    )

    draws = 3000
    flats = np.empty((draws, exact.size))
    for i in range(draws):
        grad = nce_gradient_and_objective(params, normalizers, batch, noise, k, rng)[0]
        flats[i] = flatten_gradient(grad, params)
    mean = flats.mean(axis=0)
    sem = flats.std(axis=0, ddof=1) / np.sqrt(draws)
    assert np.all(np.abs(mean - exact) <= 5.0 * sem + 1e-12)


def test_nce_limit_gaps_shrink_toward_ml():
    grid, gaps = nce_limit_gaps(0)
    assert grid[:3] == [1, 10, 100]
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] < 0.1


def test_nce_objective_replays_gradient_draws():
    params, normalizers, batch, noise, _ = random_instance(7)
    for shared in (False, True):
        _, obj = nce_gradient_and_objective(
            params, normalizers, batch, noise, 4,
            np.random.default_rng(123), share_samples=shared,
        )
        replayed = nce_objective(
            params, normalizers, batch, noise, 4,
            np.random.default_rng(123), share_samples=shared,
        )
        assert obj == replayed
        assert obj < 0.0  # sum of log probabilities of binary labels


def test_nce_shared_touches_at_most_k_sample_rows():
    params, normalizers, (contexts, targets), noise, _ = random_instance(9)
    k = 3
    grad, _ = nce_gradient_and_objective(
        params, normalizers, (contexts, targets), noise, k,
        np.random.default_rng(0), share_samples=True,
    )
    assert grad.target_vector_ids.size <= np.unique(targets).size + k


def test_nce_rejects_targets_outside_noise_support():
    params = _zero_params(v=4)
    noise = from_counts([5, 0, 5, 5], smoothing=0.0)
    batch = (np.array([[2]]), np.array([1]))
    with pytest.raises(SupportError, match="word 1"):
        nce_gradient_and_objective(
            params, NormalizerStore(), batch, noise, 2, np.random.default_rng(0)
        )


def test_is_stats_are_simplex_weights():
    params, normalizers, batch, noise, _ = random_instance(2)
    k = 6
    grad, _, stats = is_gradient_and_objective(
        params, normalizers, batch, noise, k, np.random.default_rng(5)
    )
    assert 0.0 < stats.max_weight_fraction <= 1.0
    assert 1.0 <= stats.ess <= k
    assert [a.size for a in grad.normalizer_grads] == [0, 0]


def test_is_gradient_ignores_stored_normalizers():
    params, _, batch, noise, _ = random_instance(6)
    contexts = batch[0]
    shifted = NormalizerStore("per-context")
    shifted.set_values(contexts, np.full(len(contexts), 2.5))

    a = is_gradient_and_objective(
        params, NormalizerStore(), batch, noise, 4, np.random.default_rng(9)
    )[0]
    b = is_gradient_and_objective(
        params, shifted, batch, noise, 4, np.random.default_rng(9)
    )[0]
    assert np.array_equal(flatten_gradient(a, params), flatten_gradient(b, params))


def test_is_raises_when_all_weights_vanish():
    params = _zero_params(v=4)
    params.biases -= np.inf
    batch = (np.array([[0]]), np.array([2]))
    with pytest.raises(DegenerateWeightsError):
        is_gradient_and_objective(
            params, NormalizerStore(), batch, uniform(4), 3, np.random.default_rng(0)
        )


def test_update_normalizers_accumulates_per_context():
    no_ids = np.empty(0, dtype=np.int64)
    store = NormalizerStore("per-context")
    grad = Gradient(
        no_ids, np.zeros((0, 2)), no_ids, np.zeros((0, 2)),
        np.zeros((2, 2, 2)), np.zeros(0), (store.register([(1, 2)]), np.array([2.0])),
    )
    update_normalizers(grad, store, 0.1)
    assert np.isclose(store.table[(1, 2)], 0.2)
    update_normalizers(grad, store, 0.1)
    assert np.isclose(store.table[(1, 2)], 0.4)

    fixed = NormalizerStore("fixed-one")
    update_normalizers(grad, fixed, 0.1)
    assert fixed.table == {}


def test_nce_uses_stored_normalizer_in_scores():
    # Raising the stored log-normalizer makes the model look more
    # confident, shifting every posterior weight the same direction.
    params, _, batch, noise, _ = random_instance(10, normalizer_mode="fixed-one")
    contexts = batch[0]
    raised = NormalizerStore("per-context")
    raised.set_values(contexts, np.full(len(contexts), 3.0))

    flat = NormalizerStore()
    obj_flat = nce_objective(params, flat, batch, noise, 2, np.random.default_rng(1))
    obj_raised = nce_objective(params, raised, batch, noise, 2, np.random.default_rng(1))
    assert obj_flat != obj_raised


def _dict_residuals(contexts, per_example):
    """The per-context sums as a dict loop adds them, in batch order."""
    sums = {}
    for row, g in zip(contexts, per_example):
        key = tuple(int(i) for i in row)
        sums[key] = sums.get(key, 0.0) + float(g)
    return sums


def test_normalizer_gradients_and_updates_match_a_dict_bit_for_bit():
    from ncelm.estimators import _normalizer_residuals

    rng = np.random.default_rng(4)
    # 300 rows over 12 distinct contexts, so every context repeats, with
    # terms of mixed magnitude so the summation order shows in the bits.
    pool = rng.integers(0, 40, size=(12, 2))
    contexts = pool[rng.integers(0, 12, size=300)]
    per_example = rng.standard_normal(300) * 10.0 ** rng.integers(-6, 6, size=300)
    store = NormalizerStore("per-context")
    start = {tuple(row): float(v) for row, v in zip(pool[:5].tolist(), rng.normal(size=5))}
    store.set_values(list(start), list(start.values()))

    grad = Gradient(
        np.empty(0, dtype=np.int64), np.zeros((0, 2)), np.empty(0, dtype=np.int64),
        np.zeros((0, 2)), np.zeros((2, 2, 2)), np.zeros(0),
        _normalizer_residuals(store.register(contexts), per_example),
    )
    ids, sums = grad.normalizer_grads
    expected = _dict_residuals(contexts, per_example)
    assert ids.size == len(expected)
    want = store.register(list(expected))
    assert dict(zip(ids.tolist(), sums.tolist())) == dict(zip(want.tolist(), expected.values()))

    update_normalizers(grad, store, 0.37)
    table = dict(start)
    for key, g in expected.items():
        table[key] = table.get(key, 0.0) + 0.37 * g
    assert dict(store.table) == table
    assert len(store.table) == len(table)


@pytest.mark.parametrize("normalizer_mode", ["fixed-one", "per-context"])
def test_shared_and_per_example_draws_agree_on_one_draw(monkeypatch, normalizer_mode):
    # When every example draws the same k noise words, per-example NCE
    # and shared-draw NCE compute the same estimator.
    k = 5
    for seed in range(7):
        params, normalizers, batch, noise, norm_ids = random_instance(
            seed, batch_size=6, normalizer_mode=normalizer_mode
        )
        drawn = np.random.default_rng(seed).integers(0, params.vocab_size, size=k)
        if seed == 6:
            # A batch target sampled twice: shared draws sum its target
            # row and both sample rows in one table, in another order.
            drawn[1:3] = batch[1][0]
        monkeypatch.setattr(
            estimators, "noise_sample", lambda dist, rng, size: np.broadcast_to(drawn, size)
        )
        (per_grad, per_obj), (shared_grad, shared_obj) = (
            nce_gradient_and_objective(
                params, normalizers, batch, noise, k, np.random.default_rng(0),
                share_samples=share,
            )
            for share in (False, True)
        )
        assert np.allclose(
            flatten_gradient(per_grad, params, norm_ids),
            flatten_gradient(shared_grad, params, norm_ids),
            rtol=1e-12, atol=0.0,
        ), seed
        assert np.isclose(per_obj, shared_obj, rtol=1e-12, atol=0.0), seed


def test_nce_normalizer_gradient_has_one_entry_per_distinct_context():
    params = init_params(6, 3, 2, seed=1, dtype=np.float64)
    contexts = np.array([[1, 2], [0, 0], [1, 2], [3, 1], [0, 0], [1, 2]])
    targets = np.array([1, 2, 3, 4, 5, 0])
    for share in (False, True):
        store = NormalizerStore("per-context")
        grad, _ = nce_gradient_and_objective(
            params, store, (contexts, targets), uniform(6), 3,
            np.random.default_rng(1), share_samples=share,
        )
        ids, sums = grad.normalizer_grads
        assert ids.tolist() == sorted(store.register([(0, 0), (1, 2), (3, 1)]).tolist())
        assert np.all(np.isfinite(sums))
        # Registered on the fly: each entry is in the table, reading 0
        # until an update writes it.
        assert store.table == {(0, 0): 0.0, (1, 2): 0.0, (3, 1): 0.0}


def test_per_context_nce_gradient_searches_the_store_once(monkeypatch):
    params, normalizers, batch, noise, _ = random_instance(8)
    assert len(normalizers.table) > 0  # every context registered and written
    find = NormalizerStore._find
    calls = []

    def counting_find(store, rows):
        calls.append(len(rows))
        return find(store, rows)

    monkeypatch.setattr(NormalizerStore, "_find", counting_find)
    for share in (False, True):
        calls.clear()
        nce_gradient_and_objective(
            params, normalizers, batch, noise, 3,
            np.random.default_rng(0), share_samples=share,
        )
        assert calls == [len(batch[1])], share


@pytest.mark.parametrize(
    "estimator",
    ["ml", "nce", "nce-shared", "is", "ml-objective", "nce-objective", "is-objective"],
)
def test_an_empty_batch_raises_config_error(estimator):
    params, normalizers, (contexts, targets), noise, _ = random_instance(1)
    empty = (contexts[:0], targets[:0])
    rng = np.random.default_rng(0)
    calls = {
        "ml": lambda: ml_gradient_and_objective(params, normalizers, empty),
        "ml-objective": lambda: ml_objective(params, normalizers, empty),
        "nce": lambda: nce_gradient_and_objective(params, normalizers, empty, noise, 3, rng),
        "nce-shared": lambda: nce_gradient_and_objective(
            params, normalizers, empty, noise, 3, rng, share_samples=True
        ),
        "is": lambda: is_gradient_and_objective(params, normalizers, empty, noise, 3, rng),
        "nce-objective": lambda: nce_objective(params, normalizers, empty, noise, 3, rng),
        "is-objective": lambda: is_objective(params, normalizers, empty, noise, 3, rng),
    }
    with pytest.raises(ConfigError, match="empty batch"):
        calls[estimator]()


def _unique_rowsum(words, coefs, vecs):
    """The row sum as np.unique grouped it before the bincount form."""
    b, n = words.shape
    uids, inv = np.unique(words.ravel(), return_inverse=True)
    cols = np.repeat(np.arange(b), n)
    w = sparse.csr_matrix(
        (coefs.ravel().astype(vecs.dtype), (inv, cols)), shape=(uids.size, b)
    )
    return uids, w @ vecs


@st.composite
def _rowsum_inputs(draw):
    """(words, coefs, vecs): gapped ids from 0 up to a large one, drawn
    from few values so that ids repeat within and across rows; n = 1
    with unit coefficients is the context side's call."""
    b, d = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    context_side = draw(st.booleans())
    n = 1 if context_side else draw(st.integers(1, 5))
    words = draw(arrays(np.int64, (b, n), elements=st.sampled_from([0, 1, 3, 4, 17, 250, 70_001])))
    coefs = np.ones((b, 1)) if context_side else draw(
        arrays(np.float64, (b, n), elements=st.floats(-1.0, 1.0))
    )
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    vecs = draw(arrays(dtype, (b, d), elements=st.floats(-100.0, 100.0, width=32)))
    return words, coefs, vecs


_TARGET_SAMPLED_TWICE = np.array([[3, 0, 3, 3], [70_001, 3, 17, 0]])


@settings(deadline=None)
@given(_rowsum_inputs())
@example((np.array([[5], [0], [5], [12_345]]), np.ones((4, 1)), np.arange(8.0).reshape(4, 2)))
@example((_TARGET_SAMPLED_TWICE, np.linspace(-1, 1, 8).reshape(2, 4), np.ones((2, 3), np.float32)))
def test_rank1_rowsum_matches_the_unique_formulation_byte_for_byte(inputs):
    ids, sums = estimators._rank1_rowsum(*inputs)
    want_ids, want_sums = _unique_rowsum(*inputs)
    assert ids.dtype == want_ids.dtype and np.array_equal(ids, want_ids)
    assert sums.dtype == want_sums.dtype and sums.shape == want_sums.shape
    assert sums.tobytes() == want_sums.tobytes()
