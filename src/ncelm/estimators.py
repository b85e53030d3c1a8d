"""Gradient estimators: exact maximum likelihood, noise-contrastive
estimation, and self-normalized importance sampling.

Each estimator has one entry point, ml_gradient_and_objective,
nce_gradient_and_objective or is_gradient_and_objective, which returns
a sparse Gradient over the same parameter tensors and the batch
objective (importance sampling adds its IsStats); ml_objective,
nce_objective and is_objective return the objective alone. A batch is
the (contexts, targets) pair of int64 arrays. All are pure functions of
(parameter snapshot, batch, rng state), apart from registering unseen
contexts in a per-context NormalizerStore. Each stochastic estimator is
a forward helper (draws, scores, objective) and a backward step. Its
objective function runs only the forward helper and its entry point
runs the same helper once before the backward step, so replaying one
rng state reproduces both.

NCE and importance sampling differ only in the weight each scored word
gets, so both run _sampled_forward (draws and scores of the [target,
samples] word matrix) and _sampled_backward (coefficients to Gradient).
Whether NCE draws its noise per example or once for the batch changes
only how those two gather and multiply the target rows; the NCE
objective and coefficients are written once for both.

Exact ML makes one unnormalized softmax pass over the (B, V) score
matrix; 1/Z scales only the small outputs of the GEMMs that read it.

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

from .errors import ConfigError, DegenerateWeightsError, DivergenceError, SupportError
from .evaluation import _target_log_probs
from .model import (
    LblParams,
    NormalizerStore,
    exp_rows,
    full_distribution,
    predicted_representation_batch,
    score_table,
    scores_all,
)
from .noise import NoiseDistribution, sample as noise_sample


def _no_normalizer_grads() -> tuple[np.ndarray, np.ndarray]:
    return np.empty(0, dtype=np.int64), np.empty(0)


@dataclass
class Gradient:
    """Sparse gradient over the model's tensors.

    Word-row components hold sorted unique ids with one accumulated
    vector per id. A word's score depends on its target vector and its
    bias together, so bias_grads holds one scalar per target_vector_ids
    entry. Transform gradients are dense because every example touches
    every position transform. normalizer_grads holds (distinct entry ids
    of the NormalizerStore the gradient was computed against, one
    float64 gradient per id); both arrays are empty outside per-context
    mode.
    """

    context_vector_ids: np.ndarray
    context_vector_grads: np.ndarray
    target_vector_ids: np.ndarray
    target_vector_grads: np.ndarray
    transform_grads: np.ndarray
    bias_grads: np.ndarray
    normalizer_grads: tuple[np.ndarray, np.ndarray] = field(
        default_factory=_no_normalizer_grads
    )

    def rows(self, params: LblParams) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """{tensor name: (row ids, row gradients)} in params.tensors() order."""
        rows = {
            "context_vectors": (self.context_vector_ids, self.context_vector_grads),
            "target_vectors": (self.target_vector_ids, self.target_vector_grads),
            "context_transforms": (np.arange(params.context_size), self.transform_grads),
            "biases": (self.target_vector_ids, self.bias_grads),
        }
        return {name: rows[name] for name in params.tensors()}


@dataclass
class IsStats:
    """Importance-weight health for one batch.

    ess is the mean effective sample size and max_weight_fraction the
    worst (largest) normalized weight seen in the batch.
    """

    ess: float
    max_weight_fraction: float


def _nonempty(batch):
    """The (contexts, targets) arrays of a batch; ConfigError when it has
    no rows, so no estimator fails inside numpy on an empty batch."""
    contexts, targets = batch
    if len(targets) == 0:
        raise ConfigError("empty batch: an estimator needs at least one (context, target) row")
    return contexts, targets


def _rank1_rowsum(words: np.ndarray, coefs: np.ndarray, vecs: np.ndarray):
    """Row sums of coef[b,n] * vecs[b] grouped by words[b,n]; returns
    (sorted unique words, sums).

    Exploits the rank-1 structure: builds a (unique-words x batch)
    sparse coefficient matrix and multiplies it by the (batch x d) vec
    matrix, never materializing the (batch * n, d) intermediate. With
    n = 1 and unit coefficients it sums the rows that share an id.

    The ids are grouped without a sort: a bincount marks the ids that
    occur, and a scratch row_of array of size largest id + 1 maps each
    to its row. That is the sorted ids and inverse np.unique would
    give, so the sparse product sums in the same order.
    """
    b, n = words.shape
    flat = words.ravel()
    present = np.bincount(flat)
    uids = np.flatnonzero(present)
    row_of = np.empty(present.size, dtype=np.intp)
    row_of[uids] = np.arange(uids.size)
    inv = row_of[flat]
    cols = np.repeat(np.arange(b), n)
    w = sparse.csr_matrix(
        (coefs.ravel().astype(vecs.dtype), (inv, cols)), shape=(uids.size, b)
    )
    return uids, w @ vecs


def _context_side(params, contexts, g_qhat):
    """Context-vector and transform gradients from the predicted-vector
    gradient, shared by every estimator."""
    ctx_rows = params.context_vectors[contexts]
    b = g_qhat.shape[0]
    c = params.context_size
    transforms = params.context_transforms
    if params.matrix_mode == "full":
        pos_grads = np.stack([g_qhat @ transforms[i] for i in range(c)], axis=1)
        t_grads = np.stack([g_qhat.T @ ctx_rows[:, i] for i in range(c)])
    else:
        pos_grads = transforms[None, :, :] * g_qhat[:, None, :]
        t_grads = np.einsum("bi,bci->ci", g_qhat, ctx_rows)
    ids, grads = _rank1_rowsum(
        contexts.reshape(-1, 1), np.ones((b * c, 1)), pos_grads.reshape(b * c, -1)
    )
    return ids, grads, t_grads


def _sampled_forward(params, batch, dist, k, rng, share_samples=False):
    """Draws and scores shared by NCE and importance sampling.

    Draws k words from dist per example, or with share_samples one set
    of k for the whole batch, and scores the (b, 1 + k) word matrix
    [target, samples] in float64. Returns (contexts, words, qhat, rows,
    scores); rows are the target rows _sampled_backward reads. Per
    example they are the gathered (b, 1 + k, d) rows of words. Shared,
    they are the pair (b target rows, k sample rows): one einsum scores
    the targets and one GEMM against the k sample rows the noise words,
    so no (b, k, d) gather is made.
    """
    contexts, targets = _nonempty(batch)
    b = targets.shape[0]
    samples = noise_sample(dist, rng, size=k if share_samples else (b, k))
    words = np.concatenate([targets[:, None], np.broadcast_to(samples, (b, k))], axis=1)
    qhat = predicted_representation_batch(params, contexts)
    if share_samples:
        rows = params.target_vectors[targets], params.target_vectors[samples]
        s = np.empty((b, 1 + k))
        s[:, 0] = np.einsum("bd,bd->b", rows[0], qhat)
        s[:, 1:] = qhat @ rows[1].T
    else:
        rows = params.target_vectors[words.ravel()].reshape(b, 1 + k, -1)
        s = np.matmul(rows, qhat[:, :, None])[:, :, 0].astype(np.float64)
    s += params.biases[words]
    return contexts, words, qhat, rows, s


def _sampled_backward(params, contexts, words, qhat, rows, coefs):
    """Gradient of sum_{b,n} coefs[b,n] * score(words[b,n] | contexts[b])
    from the state _sampled_forward returns.

    Per example, one rank-1 row sum over the word matrix gives the
    target-row gradients and a batched matmul the predicted-vector
    gradient. Shared draws touch only the k sample rows, so two GEMMs
    against them, coef_n.T @ qhat and coef_n @ sample_rows, replace the
    per-example work on the noise columns and keep the cost flat in k;
    the target and sample rows then go into one row sum.
    """
    dtype = params.dtype
    if isinstance(rows, tuple):
        target_rows, sample_rows = rows
        coef_n = coefs[:, 1:].astype(dtype)
        tids, tgrads = _rank1_rowsum(
            np.concatenate([words[:, :1], words[:1, 1:].T]),
            np.concatenate([coefs[:, :1], np.ones((sample_rows.shape[0], 1))]),
            np.concatenate([qhat, coef_n.T @ qhat]),
        )
        g_qhat = coefs[:, 0].astype(dtype)[:, None] * target_rows
        g_qhat += coef_n @ sample_rows
    else:
        tids, tgrads = _rank1_rowsum(words, coefs, qhat)
        g_qhat = np.matmul(coefs.astype(dtype)[:, None, :], rows)[:, 0, :]
    bias_dense = np.bincount(
        words.ravel(), weights=coefs.ravel(), minlength=params.vocab_size
    )
    bias_grads = bias_dense[tids].astype(dtype)
    cids, cgrads, trgrads = _context_side(params, contexts, g_qhat)
    return Gradient(cids, cgrads, tids, tgrads, trgrads, bias_grads)


def ml_gradient_and_objective(
    params: LblParams, normalizers: NormalizerStore, batch
) -> tuple[Gradient, float]:
    """Exact log-likelihood gradient and objective of one batch.

    Each example contributes its observed word's score gradient minus
    the expectation of the score gradient under the model's explicitly
    normalized distribution, so the per-context normalizer gradient is
    identically zero. The objective is the batch log-likelihood.

    One unnormalized softmax pass: the bias is a feature, so
    [qhat, 1] @ score_table.T scores every word in one float64 GEMM;
    exp_rows shifts each row by its max and exponentiates it in place,
    but the rows are never divided by their total Z. Two GEMMs read them,
    and 1/Z scales their small outputs: the (B, d+1) expected rows of
    [target_vectors, biases] and the (d+1, V) expected per-word sums of
    [qhat, 1].
    """
    contexts, targets = _nonempty(batch)
    b = targets.shape[0]
    d = params.dim
    q1 = np.ones((b, d + 1))
    q1[:, :d] = predicted_representation_batch(params, contexts)
    t1 = score_table(params, np.empty((params.vocab_size, d + 1)))

    p = q1 @ t1.T
    target_scores = p[np.arange(b), targets]
    z, log_z = exp_rows(p)
    objective = float(target_scores.sum() - log_z.sum())

    # (X.T @ p).T keeps p as the GEMM's right operand; p.T @ X took
    # about twice as long at B=1000, V=7,866, d=100.
    expected_t = (t1.T @ p.T).T[:, :d] / z
    g_qhat = t1[targets, :d] - expected_t
    # Row v: -sum_b p[b, v] / Z_b * [qhat_b, 1] plus the observed rows:
    # target gradients in the first d columns, biases in the last.
    word_grads = ((q1 / -z).T @ p).T
    ids, observed = _rank1_rowsum(targets[:, None], np.ones((b, 1)), q1)
    word_grads[ids] += observed

    dtype = params.dtype
    cids, cgrads, tgrads = _context_side(params, contexts, g_qhat.astype(dtype))
    all_ids = np.arange(params.vocab_size, dtype=np.int64)
    return (
        Gradient(
            cids, cgrads, all_ids, word_grads[:, :d].astype(dtype, order="C"),
            tgrads, word_grads[:, d].astype(dtype),
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
    contexts, targets = _nonempty(batch)
    return float(_target_log_probs(params, contexts, targets).sum())


def nce_gradient_and_objective(
    params: LblParams,
    normalizers: NormalizerStore,
    batch,
    noise: NoiseDistribution,
    k: int,
    rng: np.random.Generator,
    share_samples: bool = False,
) -> tuple[Gradient, float]:
    """Noise-contrastive gradient estimate and objective of one batch,
    from one forward pass.

    For each example the observed word contributes with weight
    k*Pn/(P + k*Pn) and each sampled word with weight -P/(P + k*Pn),
    where P is the unnormalized model probability. Weights are logistic
    transforms of log ratios, so each lies in [0, 1]. Without sharing,
    draws k noise samples per example; with share_samples, one set of k
    for the whole batch. In per-context mode the store is searched once:
    the entry ids that give the stored normalizers also group the
    normalizer gradient.
    """
    objective, state = _nce_forward(
        params, normalizers, batch, noise, k, rng, share_samples
    )
    return _nce_backward(params, *state), objective


def _nce_forward(params, normalizers, batch, noise, k, rng, share_samples):
    """Draws, scores and log-ratios of NCE in either draw layout.

    Returns the objective and the state _nce_backward takes; column 0
    of the logistic log-ratio matrix z is the data term.
    """
    contexts, words, qhat, rows, s = _sampled_forward(
        params, batch, noise, k, rng, share_samples
    )
    log_pn = noise.log_probs[words]
    _check_target_support(words[:, 0], log_pn[:, 0])
    norm_ids = None
    if normalizers.mode == "per-context":
        norm_ids = normalizers.register(contexts)
        s += normalizers.values[norm_ids][:, None]
    # z > 0 favors the noise explanation, z < 0 the model's.
    z = (np.log(k) + log_pn) - s
    objective = float(log_expit(-z[:, 0]).sum() + log_expit(z[:, 1:]).sum())
    coefs = expit(z)
    return objective, (contexts, words, qhat, rows, coefs, norm_ids)


def _nce_backward(params, contexts, words, qhat, rows, coefs, norm_ids):
    """coefs is expit of the forward's log-ratio matrix; updated in place."""
    coefs[:, 1:] -= 1.0  # noise columns carry weight -P/(P + k*Pn)
    # Bounded whenever the scores are; non-finite scores fall through to
    # the divergence check at update time.
    assert np.all(np.abs(coefs[np.isfinite(coefs)]) <= 1.0)

    grad = _sampled_backward(params, contexts, words, qhat, rows, coefs)
    grad.normalizer_grads = _normalizer_residuals(norm_ids, coefs.sum(1))
    return grad


def _normalizer_residuals(norm_ids, per_example):
    """Gradient.normalizer_grads of per-example terms given each
    example's entry id (None outside per-context mode): one sum per
    distinct entry, which np.bincount adds in batch order."""
    if norm_ids is None:
        return _no_normalizer_grads()
    ids, inverse = np.unique(norm_ids, return_inverse=True)
    return ids, np.bincount(inverse, weights=per_example)


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
    plus the k sampled words as noise, from the forward pass that
    nce_gradient_and_objective runs. Replaying the same rng state
    reproduces the draws of nce_gradient_and_objective, which is what
    the finite-difference gradient checks rely on.
    """
    return _nce_forward(params, normalizers, batch, noise, k, rng, share_samples)[0]


def _enumerated_gradient(params, normalizers, context, coefs, norm_grad):
    """Gradient of sum_w coefs[w] * score(w) for one context over every
    word w, with norm_grad on the context's normalizer; the shared tail
    of the enumeration oracles."""
    contexts = np.asarray(context, dtype=np.int64)[None, :]
    qh64 = predicted_representation_batch(params, contexts)[0].astype(np.float64)
    tgt64 = params.target_vectors.astype(np.float64)
    target_grads = coefs[:, None] * qh64[None, :]
    g_qhat = (coefs @ tgt64).astype(params.dtype)
    cids, cgrads, tgrads = _context_side(params, contexts, g_qhat[None, :])
    all_ids = np.arange(params.vocab_size, dtype=np.int64)
    norm_grads = _no_normalizer_grads()
    if normalizers.mode == "per-context":
        norm_grads = (normalizers.register(contexts), np.array([norm_grad]))
    return Gradient(
        cids, cgrads, all_ids, target_grads.astype(params.dtype),
        tgrads, coefs.astype(params.dtype), norm_grads,
    )


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
    row = np.asarray(context, dtype=np.int64)[None, :]
    s = scores_all(params, row)[0]
    s += normalizers.lookup_batch(row)[0]
    data_dist = np.asarray(data_dist, dtype=np.float64)
    alpha = expit(np.log(k) + noise.log_probs - s)
    coefs = alpha * (data_dist - np.exp(s))
    return _enumerated_gradient(params, normalizers, context, coefs, float(coefs.sum()))


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
    p_model = full_distribution(params, np.asarray(context, dtype=np.int64)[None, :])[0]
    coefs = np.asarray(data_dist, dtype=np.float64) - p_model
    return _enumerated_gradient(params, normalizers, context, coefs, 0.0)


def is_gradient_and_objective(
    params: LblParams,
    normalizers: NormalizerStore,
    batch,
    proposal: NoiseDistribution,
    k: int,
    rng: np.random.Generator,
) -> tuple[Gradient, float, IsStats]:
    """Self-normalized importance-sampling gradient estimate, objective
    and weight statistics of one batch, from one forward pass.

    The intractable expectation of the score gradient under the model is
    replaced by a weighted average over k proposal samples with weights
    exp(score)/proposal, normalized by their own sum. Weight arithmetic
    stays in log space. The stored normalizers play no role: the weight
    ratios are invariant to a per-context constant.
    """
    objective, state = _is_forward(params, batch, proposal, k, rng)
    grad, stats = _is_backward(params, *state)
    return grad, objective, stats


def _is_forward(params, batch, proposal, k, rng):
    """Draws, scores and log-weights of self-normalized importance
    sampling. Returns the objective and the state _is_backward takes."""
    contexts, words, qhat, tw, s = _sampled_forward(params, batch, proposal, k, rng)
    log_v = s[:, 1:] - proposal.log_probs[words[:, 1:]]
    log_total = logsumexp(log_v, axis=1)
    if not np.all(np.isfinite(log_total)):
        raise DegenerateWeightsError(
            "importance weights vanished or overflowed for an example"
        )
    # Self-normalized estimate of log P(w): score minus estimated log Z.
    objective = float(s[:, 0].sum() - log_total.sum() + len(words) * np.log(k))
    return objective, (contexts, words, qhat, tw, log_v, log_total)


def _is_backward(params, contexts, words, qhat, tw, log_v, log_total):
    b = words.shape[0]
    log_w = log_v - log_total[:, None]
    w_norm = np.exp(log_w)
    ess = 1.0 / np.sum(w_norm * w_norm, axis=1)
    stats = IsStats(ess=float(ess.mean()), max_weight_fraction=float(w_norm.max()))

    coefs = np.concatenate([np.ones((b, 1)), -w_norm], axis=1)
    return _sampled_backward(params, contexts, words, qhat, tw, coefs), stats


def is_objective(
    params: LblParams,
    normalizers: NormalizerStore,
    batch,
    proposal: NoiseDistribution,
    k: int,
    rng: np.random.Generator,
) -> float:
    """Self-normalized log-likelihood estimate from the forward pass
    that is_gradient_and_objective runs, so one rng state gives both the
    same draws."""
    return _is_forward(params, batch, proposal, k, rng)[0]


def update_normalizers(
    gradient: Gradient, normalizers: NormalizerStore, learning_rate: float
) -> NormalizerStore:
    """Apply SGD steps to per-context log-normalizers in place.

    Fixed-one stores ignore normalizer gradients entirely. The
    gradient's entry ids must come from this store (or a copy of it).
    An entry not updated before holds 0, so its first update lands at
    learning_rate * gradient. The new values are checked before they
    are written: a step that leaves the finite range raises
    DivergenceError('normalizers') and leaves the store as it was.
    """
    if normalizers.mode != "per-context":
        return normalizers
    ids, sums = gradient.normalizer_grads
    with np.errstate(over="ignore", invalid="ignore"):
        values = normalizers.values[ids] + learning_rate * sums
    if not np.all(np.isfinite(values)):
        raise DivergenceError("normalizers")
    normalizers.assign(ids, values)
    return normalizers
