"""Gradient estimators: exact maximum likelihood, noise-contrastive
estimation, and self-normalized importance sampling.

All three produce a sparse Gradient over the same parameter tensors and
are pure functions of (parameter snapshot, batch, rng state), so batches
can be partitioned across workers and the partial gradients merged.

Sign convention: gradients point in the ascent direction of the
estimator's objective (log-likelihood for ML and IS, the binary
data-vs-noise classification objective for NCE), so an SGD step adds
learning_rate times the gradient.

NCE classifies each observed word against k noise samples. Its per-word
posterior weights are logistic functions of the difference between the
model's unnormalized log probability and the noise log probability
(scaled by k), so every weight lies in [0, 1] no matter how mismatched
the model is. Importance sampling has no such bound: its normalized
weights can concentrate on one sample, which is what IsStats tracks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.special import expit, log_expit, logsumexp

from .corpus import Dataset
from .errors import DegenerateWeightsError, SupportError
from .evaluation import _target_log_probs
from .model import LblParams, NormalizerStore, predicted_representation_batch
from .noise import NoiseDistribution, sample as noise_sample


@dataclass
class Gradient:
    """Sparse gradient over the model's tensors.

    Word-row components hold sorted unique ids with one accumulated
    vector (or scalar, for biases) per id. Transform gradients are dense
    because every example touches every position transform. Normalizer
    terms map context tuples to scalar gradients and are empty outside
    per-context mode.
    """

    context_vector_ids: np.ndarray
    context_vector_grads: np.ndarray
    target_vector_ids: np.ndarray
    target_vector_grads: np.ndarray
    transform_grads: np.ndarray
    bias_ids: np.ndarray
    bias_grads: np.ndarray
    normalizer_grads: dict[tuple[int, ...], float] = field(default_factory=dict)

    def add(self, other: "Gradient") -> "Gradient":
        """Merge two gradients; id sets union, shared ids sum once."""
        cid, cval = _merge_rows(
            self.context_vector_ids, self.context_vector_grads,
            other.context_vector_ids, other.context_vector_grads,
        )
        tid, tval = _merge_rows(
            self.target_vector_ids, self.target_vector_grads,
            other.target_vector_ids, other.target_vector_grads,
        )
        bid, bval = _merge_rows(
            self.bias_ids, self.bias_grads[:, None],
            other.bias_ids, other.bias_grads[:, None],
        )
        norm = dict(self.normalizer_grads)
        for key, g in other.normalizer_grads.items():
            norm[key] = norm.get(key, 0.0) + g
        return Gradient(
            cid, cval, tid, tval,
            self.transform_grads + other.transform_grads,
            bid, bval[:, 0], norm,
        )


def zero_gradient(params: LblParams) -> Gradient:
    """Gradient touching no word rows, with zero transform gradients."""
    d = params.dim
    no_ids = np.empty(0, dtype=np.int64)
    return Gradient(
        context_vector_ids=no_ids,
        context_vector_grads=np.zeros((0, d), dtype=params.dtype),
        target_vector_ids=no_ids,
        target_vector_grads=np.zeros((0, d), dtype=params.dtype),
        transform_grads=np.zeros_like(params.context_transforms),
        bias_ids=no_ids,
        bias_grads=np.zeros(0, dtype=params.dtype),
        normalizer_grads={},
    )


@dataclass
class IsStats:
    """Importance-weight health for one batch.

    sum_weights is the mean over examples of the weight total that
    normalizes the estimate; ess the mean effective sample size; and
    max_weight_fraction the worst (largest) normalized weight seen in
    the batch.
    """

    sum_weights: float
    ess: float
    max_weight_fraction: float


def _merge_rows(ids_a, vals_a, ids_b, vals_b):
    out_ids = np.union1d(ids_a, ids_b)
    out_vals = np.zeros((out_ids.size, vals_a.shape[1]), dtype=vals_a.dtype)
    out_vals[np.searchsorted(out_ids, ids_a)] += vals_a
    out_vals[np.searchsorted(out_ids, ids_b)] += vals_b
    return out_ids, out_vals


def _batch_arrays(batch) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(batch, Dataset):
        return batch.contexts, batch.targets
    if isinstance(batch, tuple) and len(batch) == 2 and isinstance(batch[0], np.ndarray):
        return batch
    contexts = np.stack([np.asarray(ex[0], dtype=np.int64) for ex in batch])
    targets = np.asarray([int(ex[1]) for ex in batch], dtype=np.int64)
    return contexts, targets


def _rowsum_by_id(ids_flat: np.ndarray, vals: np.ndarray):
    """Sum val rows that share an id; returns (sorted unique ids, sums)."""
    uids, inv = np.unique(ids_flat, return_inverse=True)
    w = sparse.csr_matrix(
        (np.ones(inv.size, dtype=vals.dtype), (inv, np.arange(inv.size))),
        shape=(uids.size, inv.size),
    )
    return uids, w @ vals


def _rank1_rowsum(words: np.ndarray, coefs: np.ndarray, vecs: np.ndarray):
    """Row sums of coef[b,n] * vecs[b] grouped by words[b,n].

    Exploits the rank-1 structure: builds a (unique-words x batch)
    sparse coefficient matrix and multiplies it by the (batch x d) vec
    matrix, never materializing the (batch * n, d) intermediate.
    """
    b, n = words.shape
    uids, inv = np.unique(words.ravel(), return_inverse=True)
    cols = np.repeat(np.arange(b), n)
    w = sparse.csr_matrix(
        (coefs.ravel().astype(vecs.dtype), (inv, cols)), shape=(uids.size, b)
    )
    return uids, w @ vecs


def _context_side(params, contexts, ctx_rows, g_qhat):
    """Context-vector and transform gradients from the predicted-vector
    gradient, shared by every estimator."""
    b = g_qhat.shape[0]
    c = params.context_size
    transforms = params.context_transforms
    if params.matrix_mode == "full":
        pos_grads = np.stack([g_qhat @ transforms[i] for i in range(c)], axis=1)
        t_grads = np.stack([g_qhat.T @ ctx_rows[:, i] for i in range(c)])
    else:
        pos_grads = transforms[None, :, :] * g_qhat[:, None, :]
        t_grads = np.einsum("bi,bci->ci", g_qhat, ctx_rows)
    ids, grads = _rowsum_by_id(contexts.ravel(), pos_grads.reshape(b * c, -1))
    return ids, grads, t_grads


def _gather_scores(params, qhat, words):
    """Scores of the given words against each example's predicted vector.

    Returns the gathered target rows (kept for the backward pass) and
    the float64 score matrix.
    """
    b, n = words.shape
    tw = params.target_vectors[words.ravel()].reshape(b, n, -1)
    s = np.matmul(tw, qhat[:, :, None])[:, :, 0].astype(np.float64)
    s += params.biases[words].astype(np.float64)
    return tw, s


def ml_gradient(params: LblParams, normalizers: NormalizerStore, batch) -> Gradient:
    """Exact log-likelihood gradient of one batch.

    Each example contributes its observed word's score gradient minus
    the expectation of the score gradient under the model's explicitly
    normalized distribution, so the per-context normalizer gradient is
    identically zero.
    """
    grad, _ = ml_gradient_and_objective(params, normalizers, batch)
    return grad


def ml_gradient_and_objective(params, normalizers, batch):
    contexts, targets = _batch_arrays(batch)
    b = targets.shape[0]
    ctx_rows = params.context_vectors[contexts]
    qhat = predicted_representation_batch(params, contexts)
    qh64 = qhat.astype(np.float64)
    tgt64 = params.target_vectors.astype(np.float64)

    scores = qh64 @ tgt64.T
    scores += params.biases.astype(np.float64)
    target_scores = scores[np.arange(b), targets].copy()
    shift = scores.max(axis=1, keepdims=True)
    # Transform the score matrix in place: scores -> probs -> residual.
    np.subtract(scores, shift, out=scores)
    probs = np.exp(scores, out=scores)
    norm = probs.sum(axis=1, keepdims=True)
    probs /= norm
    log_z = (np.log(norm) + shift)[:, 0]
    objective = float(target_scores.sum() - log_z.sum())

    g_qhat = tgt64[targets] - probs @ tgt64
    resid = np.negative(probs, out=probs)
    resid[np.arange(b), targets] += 1.0
    bias_grads = resid.sum(axis=0)
    target_grads = resid.T @ qh64

    dtype = params.dtype
    g_qhat = g_qhat.astype(dtype)
    cids, cgrads, tgrads = _context_side(params, contexts, ctx_rows, g_qhat)
    all_ids = np.arange(params.vocab_size, dtype=np.int64)
    return (
        Gradient(
            cids, cgrads, all_ids, target_grads.astype(dtype),
            tgrads, all_ids, bias_grads.astype(dtype), {},
        ),
        objective,
    )


def _check_target_support(targets, log_pn_targets):
    dead = np.isneginf(log_pn_targets)
    if dead.any():
        bad = targets[dead][0]
        raise SupportError(f"observed word {int(bad)} has zero noise probability")


def ml_objective(params: LblParams, normalizers: NormalizerStore, batch) -> float:
    """Exact batch log-likelihood under explicit normalization."""
    contexts, targets = _batch_arrays(batch)
    return float(_target_log_probs(params, contexts, targets).sum())


def _nce_parts(params, normalizers, batch, noise, k, rng):
    """Forward pass for NCE with fresh samples per example.

    Draws k noise samples per example, scores the observed and sampled
    words with the unnormalized model, and returns the logistic
    log-ratio matrix whose column 0 is the data term.
    """
    contexts, targets = _batch_arrays(batch)
    b = targets.shape[0]
    samples = noise_sample(noise, rng, size=(b, k))
    words = np.concatenate([targets[:, None], samples], axis=1)

    log_pn = noise.log_probs[words]
    _check_target_support(targets, log_pn[:, 0])

    ctx_rows = params.context_vectors[contexts]
    qhat = predicted_representation_batch(params, contexts)
    tw, s = _gather_scores(params, qhat, words)
    if normalizers.mode == "per-context":
        s += normalizers.lookup_batch(contexts)[:, None]
    # z > 0 favors the noise explanation, z < 0 the model's.
    z = (np.log(k) + log_pn) - s
    return contexts, ctx_rows, qhat, tw, words, z


def _nce_shared_parts(params, normalizers, batch, noise, k, rng):
    """Forward pass for NCE with one set of k samples for the whole batch.

    Sharing turns the per-example score/gradient work for the noise
    words into dense matrix products against the k sampled rows, so the
    update cost is nearly independent of k.
    """
    contexts, targets = _batch_arrays(batch)
    samples = noise_sample(noise, rng, size=k)
    log_pn_t = noise.log_probs[targets]
    _check_target_support(targets, log_pn_t)

    ctx_rows = params.context_vectors[contexts]
    qhat = predicted_representation_batch(params, contexts)
    tq = params.target_vectors[targets]
    sample_vecs = params.target_vectors[samples]
    s_t = np.einsum("bd,bd->b", tq, qhat).astype(np.float64)
    s_t += params.biases[targets].astype(np.float64)
    s_n = (qhat @ sample_vecs.T).astype(np.float64)
    s_n += params.biases[samples].astype(np.float64)
    if normalizers.mode == "per-context":
        shift = normalizers.lookup_batch(contexts)
        s_t += shift
        s_n += shift[:, None]
    z_t = (np.log(k) + log_pn_t) - s_t
    z_n = (np.log(k) + noise.log_probs[samples])[None, :] - s_n
    return contexts, ctx_rows, qhat, tq, sample_vecs, samples, z_t, z_n


def nce_gradient(
    params: LblParams,
    normalizers: NormalizerStore,
    batch,
    noise: NoiseDistribution,
    k: int,
    rng: np.random.Generator,
    share_samples: bool = False,
) -> Gradient:
    """Noise-contrastive gradient estimate for one batch.

    For each example the observed word contributes with weight
    k*Pn/(P + k*Pn) and each sampled word with weight -P/(P + k*Pn),
    where P is the unnormalized model probability. Weights are logistic
    transforms of log ratios, so each lies in [0, 1].
    """
    grad, _ = nce_gradient_and_objective(
        params, normalizers, batch, noise, k, rng, share_samples
    )
    return grad


def nce_gradient_and_objective(
    params, normalizers, batch, noise, k, rng, share_samples=False
):
    if share_samples:
        return _nce_shared_gradient_and_objective(
            params, normalizers, batch, noise, k, rng
        )
    contexts, ctx_rows, qhat, tw, words, z = _nce_parts(
        params, normalizers, batch, noise, k, rng
    )
    objective = float(log_expit(-z[:, 0]).sum() + log_expit(z[:, 1:]).sum())

    coefs = expit(z)
    coefs[:, 1:] -= 1.0  # noise columns carry weight -P/(P + k*Pn)
    # Bounded whenever the scores are; non-finite scores fall through to
    # the divergence check at update time.
    assert np.all(np.abs(coefs[np.isfinite(coefs)]) <= 1.0)

    dtype = params.dtype
    tids, tgrads = _rank1_rowsum(words, coefs, qhat)
    bias_dense = np.bincount(
        words.ravel(), weights=coefs.ravel(), minlength=params.vocab_size
    )
    bias_grads = bias_dense[tids].astype(dtype)
    g_qhat = np.matmul(coefs.astype(dtype)[:, None, :], tw)[:, 0, :]
    cids, cgrads, trgrads = _context_side(params, contexts, ctx_rows, g_qhat)

    norm_grads = _normalizer_residuals(normalizers, contexts, coefs.sum(axis=1))
    grad = Gradient(cids, cgrads, tids, tgrads, trgrads, tids, bias_grads, norm_grads)
    return grad, objective


def _normalizer_residuals(normalizers, contexts, per_example):
    norm_grads: dict[tuple[int, ...], float] = {}
    if normalizers.mode == "per-context":
        for row, g in zip(contexts, per_example):
            key = tuple(int(i) for i in row)
            norm_grads[key] = norm_grads.get(key, 0.0) + float(g)
    return norm_grads


def _nce_shared_gradient_and_objective(params, normalizers, batch, noise, k, rng):
    contexts, ctx_rows, qhat, tq, sample_vecs, samples, z_t, z_n = _nce_shared_parts(
        params, normalizers, batch, noise, k, rng
    )
    targets = _batch_arrays(batch)[1]
    objective = float(log_expit(-z_t).sum() + log_expit(z_n).sum())

    coef_t = expit(z_t)
    coef_n = expit(z_n)
    coef_n -= 1.0
    assert np.all(coef_t[np.isfinite(coef_t)] <= 1.0)
    assert np.all(np.abs(coef_n[np.isfinite(coef_n)]) <= 1.0)

    dtype = params.dtype
    # Noise-side gradients touch only the k sampled rows: one GEMM
    # against the batch's predicted vectors covers all of them.
    sample_mat = coef_n.T.astype(dtype) @ qhat
    sids, sgrads = _rowsum_by_id(samples, sample_mat)
    tids_t, tgrads_t = _rank1_rowsum(
        targets[:, None], coef_t[:, None], qhat
    )
    tids, tgrads = _merge_rows(tids_t, tgrads_t, sids, sgrads)

    bias_dense = np.bincount(
        targets, weights=coef_t, minlength=params.vocab_size
    )
    bias_dense += np.bincount(
        samples, weights=coef_n.sum(axis=0), minlength=params.vocab_size
    )
    bias_grads = bias_dense[tids].astype(dtype)

    g_qhat = coef_t.astype(dtype)[:, None] * tq
    g_qhat += coef_n.astype(dtype) @ sample_vecs
    cids, cgrads, trgrads = _context_side(params, contexts, ctx_rows, g_qhat)

    norm_grads = _normalizer_residuals(
        normalizers, contexts, coef_t + coef_n.sum(axis=1)
    )
    grad = Gradient(cids, cgrads, tids, tgrads, trgrads, tids, bias_grads, norm_grads)
    return grad, objective


def nce_objective(
    params: LblParams,
    normalizers: NormalizerStore,
    batch,
    noise: NoiseDistribution,
    k: int,
    rng: np.random.Generator,
    share_samples: bool = False,
) -> float:
    """Monte-Carlo classification objective summed over the batch.

    Log posterior probability of labeling the observed word as data
    plus the k sampled words as noise. Replaying the same rng state
    reproduces the draws of nce_gradient, which is what the
    finite-difference gradient checks rely on.
    """
    if share_samples:
        parts = _nce_shared_parts(params, normalizers, batch, noise, k, rng)
        z_t, z_n = parts[-2], parts[-1]
        return float(log_expit(-z_t).sum() + log_expit(z_n).sum())
    _, _, _, _, _, z = _nce_parts(params, normalizers, batch, noise, k, rng)
    return float(log_expit(-z[:, 0]).sum() + log_expit(z[:, 1:]).sum())


def exact_nce_gradient(
    params: LblParams,
    normalizers: NormalizerStore,
    data_dist: np.ndarray,
    context,
    noise: NoiseDistribution,
    k: int,
) -> Gradient:
    """Expected NCE gradient by enumeration over the whole vocabulary.

    Computes sum_w weight(w) * (data_prob(w) - model_prob(w)) * dlogP(w)
    with weight(w) = k*Pn(w)/(P(w) + k*Pn(w)) and P the unnormalized
    model. Test oracle; cost scales with V.
    """
    if not noise.has_full_support:
        raise SupportError("enumeration oracle requires full noise support")
    contexts = np.asarray(context, dtype=np.int64)[None, :]
    ctx_rows = params.context_vectors[contexts]
    qhat = predicted_representation_batch(params, contexts)
    qh64 = qhat[0].astype(np.float64)
    tgt64 = params.target_vectors.astype(np.float64)
    s = tgt64 @ qh64 + params.biases.astype(np.float64)
    s += normalizers.lookup(context)

    data_dist = np.asarray(data_dist, dtype=np.float64)
    p_model = np.exp(s)
    alpha = expit(np.log(k) + noise.log_probs - s)
    coefs = alpha * (data_dist - p_model)

    target_grads = coefs[:, None] * qh64[None, :]
    g_qhat = (coefs @ tgt64).astype(params.dtype)
    cids, cgrads, tgrads = _context_side(params, contexts, ctx_rows, g_qhat[None, :])
    all_ids = np.arange(params.vocab_size, dtype=np.int64)
    norm_grads = {}
    if normalizers.mode == "per-context":
        key = tuple(int(i) for i in context)
        norm_grads[key] = float(coefs.sum())
    return Gradient(
        cids, cgrads, all_ids, target_grads.astype(params.dtype),
        tgrads, all_ids, coefs.astype(params.dtype), norm_grads,
    )


def expected_ml_gradient(
    params: LblParams,
    normalizers: NormalizerStore,
    data_dist: np.ndarray,
    context,
) -> Gradient:
    """Expected ML gradient under a known conditional data distribution.

    Enumerates sum_w (data_prob(w) - model_prob(w)) * dscore(w) with the
    model explicitly normalized, which is the k -> infinity limit of
    exact_nce_gradient when the stored normalizer equals the true
    negative log partition function. The normalizer coordinate itself
    gets gradient zero: explicit normalization cancels any per-context
    constant. Test oracle; cost scales with V.
    """
    contexts = np.asarray(context, dtype=np.int64)[None, :]
    ctx_rows = params.context_vectors[contexts]
    qhat = predicted_representation_batch(params, contexts)
    qh64 = qhat[0].astype(np.float64)
    tgt64 = params.target_vectors.astype(np.float64)
    s = tgt64 @ qh64 + params.biases.astype(np.float64)
    shifted = s - s.max()
    p_model = np.exp(shifted)
    p_model /= p_model.sum()

    coefs = np.asarray(data_dist, dtype=np.float64) - p_model
    target_grads = coefs[:, None] * qh64[None, :]
    g_qhat = (coefs @ tgt64).astype(params.dtype)
    cids, cgrads, tgrads = _context_side(params, contexts, ctx_rows, g_qhat[None, :])
    all_ids = np.arange(params.vocab_size, dtype=np.int64)
    norm_grads = {}
    if normalizers.mode == "per-context":
        norm_grads[tuple(int(i) for i in context)] = 0.0
    return Gradient(
        cids, cgrads, all_ids, target_grads.astype(params.dtype),
        tgrads, all_ids, coefs.astype(params.dtype), norm_grads,
    )


def exact_nce_objective(
    params: LblParams,
    normalizers: NormalizerStore,
    data_dist: np.ndarray,
    context,
    noise: NoiseDistribution,
    k: int,
) -> float:
    """Expected NCE objective by enumeration (the quantity whose gradient
    exact_nce_gradient computes); test oracle."""
    if not noise.has_full_support:
        raise SupportError("enumeration oracle requires full noise support")
    contexts = np.asarray(context, dtype=np.int64)[None, :]
    qhat = predicted_representation_batch(params, contexts)[0].astype(np.float64)
    s = params.target_vectors.astype(np.float64) @ qhat
    s += params.biases.astype(np.float64)
    s += normalizers.lookup(context)
    z = (np.log(k) + noise.log_probs) - s
    data_dist = np.asarray(data_dist, dtype=np.float64)
    return float(
        (data_dist * log_expit(-z)).sum() + k * (noise.probs * log_expit(z)).sum()
    )


def is_gradient(
    params: LblParams,
    normalizers: NormalizerStore,
    batch,
    proposal: NoiseDistribution,
    k: int,
    rng: np.random.Generator,
) -> tuple[Gradient, IsStats]:
    """Self-normalized importance-sampling gradient estimate.

    The intractable expectation of the score gradient under the model is
    replaced by a weighted average over k proposal samples with weights
    exp(score)/proposal, normalized by their own sum. Weight arithmetic
    stays in log space. The stored normalizers play no role: the weight
    ratios are invariant to a per-context constant.
    """
    grad, stats, _ = is_gradient_and_objective(params, normalizers, batch, proposal, k, rng)
    return grad, stats


def is_gradient_and_objective(params, normalizers, batch, proposal, k, rng):
    contexts, targets = _batch_arrays(batch)
    b = targets.shape[0]
    samples = noise_sample(proposal, rng, size=(b, k))
    words = np.concatenate([targets[:, None], samples], axis=1)

    ctx_rows = params.context_vectors[contexts]
    qhat = predicted_representation_batch(params, contexts)
    tw, s = _gather_scores(params, qhat, words)

    log_v = s[:, 1:] - proposal.log_probs[samples]
    log_total = logsumexp(log_v, axis=1)
    if not np.all(np.isfinite(log_total)):
        raise DegenerateWeightsError(
            "importance weights vanished or overflowed for an example"
        )
    log_w = log_v - log_total[:, None]
    w_norm = np.exp(log_w)
    ess = 1.0 / np.sum(w_norm * w_norm, axis=1)
    with np.errstate(over="ignore"):
        # The raw weight total can overflow float64; the stat keeps inf.
        mean_sum = float(np.exp(log_total).mean())
    stats = IsStats(
        sum_weights=mean_sum,
        ess=float(ess.mean()),
        max_weight_fraction=float(w_norm.max()),
    )
    # Self-normalized estimate of log P(w): score minus estimated log Z.
    objective = float(s[:, 0].sum() - log_total.sum() + b * np.log(k))

    coefs = np.concatenate([np.ones((b, 1)), -w_norm], axis=1)
    dtype = params.dtype
    tids, tgrads = _rank1_rowsum(words, coefs, qhat)
    bias_dense = np.bincount(
        words.ravel(), weights=coefs.ravel(), minlength=params.vocab_size
    )
    bias_grads = bias_dense[tids].astype(dtype)
    g_qhat = np.matmul(coefs.astype(dtype)[:, None, :], tw)[:, 0, :]
    cids, cgrads, trgrads = _context_side(params, contexts, ctx_rows, g_qhat)
    grad = Gradient(cids, cgrads, tids, tgrads, trgrads, tids, bias_grads, {})
    return grad, stats, objective


def is_objective(
    params: LblParams,
    normalizers: NormalizerStore,
    batch,
    proposal: NoiseDistribution,
    k: int,
    rng: np.random.Generator,
) -> float:
    """Self-normalized log-likelihood estimate matching is_gradient's draws."""
    contexts, targets = _batch_arrays(batch)
    b = targets.shape[0]
    samples = noise_sample(proposal, rng, size=(b, k))
    qhat = predicted_representation_batch(params, contexts)
    words = np.concatenate([targets[:, None], samples], axis=1)
    _, s = _gather_scores(params, qhat, words)
    log_v = s[:, 1:] - proposal.log_probs[samples]
    log_total = logsumexp(log_v, axis=1)
    if not np.all(np.isfinite(log_total)):
        raise DegenerateWeightsError(
            "importance weights vanished or overflowed for an example"
        )
    return float(s[:, 0].sum() - log_total.sum() + b * np.log(k))


def update_normalizers(
    gradient: Gradient, normalizers: NormalizerStore, learning_rate: float
) -> NormalizerStore:
    """Apply SGD steps to per-context log-normalizers in place.

    Fixed-one stores ignore normalizer gradients entirely. Unseen
    contexts start from 0, so their first update lands at
    learning_rate * gradient.
    """
    if normalizers.mode != "per-context":
        return normalizers
    table = normalizers.table
    for key, g in gradient.normalizer_grads.items():
        table[key] = table.get(key, 0.0) + learning_rate * g
    return normalizers
