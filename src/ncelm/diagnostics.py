"""Numerical health checks: finite-difference gradient verification,
the large-k agreement between contrastive and ML gradients, the IS
instability probe, and the update cost, predicted and timed.

These run at desk scale (tiny vocabularies, float64) in seconds and are
shared by the test suite and the diagnose command. Finite differences
probe one float64 working copy of the parameters in place and return
flatten_gradient's layout; gradient_check runs one table of estimators.
"""

from __future__ import annotations

import time

import numpy as np

from . import estimators
from .errors import ConfigError, DegenerateWeightsError, DivergenceError
from .estimators import (
    Gradient,
    exact_nce_gradient,
    expected_ml_gradient,
)
from .model import LblParams, NormalizerStore, exp_rows, init_params, scores_all
from .noise import NoiseDistribution, from_counts, uniform
from .trainer import TrainConfig, _batch_gradient, sgd_step, train
from .corpus import extract_pairs
from .synthetic import make_vocab
from .evaluation import predicted_speedup

FD_STEP = 1e-5
NCE_LIMIT_K_GRID = (1, 10, 100, 1000, 10_000)


def flatten_gradient(
    gradient: Gradient, params: LblParams, norm_ids=()
) -> np.ndarray:
    """Densify a sparse Gradient into one float64 vector: each tensor of
    params.tensors() raveled in order, then the normalizer gradients of
    the given entry ids. finite_difference_gradient returns the same
    layout."""
    tensors = params.tensors()
    parts = []
    for name, (ids, grads) in gradient.rows(params).items():
        dense = np.zeros(tensors[name].shape)
        dense[ids] = grads
        parts.append(dense.ravel())
    if len(norm_ids):
        ids, sums = gradient.normalizer_grads
        by_id = dict(zip(ids.tolist(), sums.tolist()))
        parts.append(np.array([by_id.get(i, 0.0) for i in np.asarray(norm_ids).tolist()]))
    return np.concatenate(parts)


def finite_difference_gradient(
    objective_fn,
    params: LblParams,
    normalizers: NormalizerStore,
    norm_ids,
) -> np.ndarray:
    """Central differences of objective_fn over every parameter and the
    normalizer entries with the given entry ids, in flatten_gradient's
    layout.

    objective_fn takes (params, normalizers) and must be deterministic;
    stochastic objectives need their sample draws frozen (replay the
    same rng seed on every call). It sees one float64 working copy of
    params and normalizers, probed one coordinate at a time and restored
    after each probe, so the caller's params and store keep their values.
    """
    work = params.astype(np.float64)
    store = normalizers.copy()

    def central(write, base):
        write(base + FD_STEP)
        plus = objective_fn(work, store)
        write(base - FD_STEP)
        minus = objective_fn(work, store)
        write(base)
        return (plus - minus) / (2.0 * FD_STEP)

    grad = []
    for tensor in work.tensors().values():
        flat = tensor.reshape(-1)
        for i in range(flat.size):
            grad.append(central(lambda v: flat.__setitem__(i, v), flat[i]))
    for entry in np.asarray(norm_ids, dtype=np.int64).reshape(-1, 1):
        grad.append(central(lambda v: store.assign(entry, v), store.values[entry[0]]))
    return np.array(grad, dtype=np.float64)


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst coordinate-wise relative disagreement, floored at unit scale.

    |a - n| / max(|a|, |n|, 1) per coordinate, so tiny absolute noise on
    near-zero coordinates does not register as huge relative error.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    return float((np.abs(analytic - numeric) / denom).max())


def random_instance(
    seed: int,
    batch_size: int = 4,
    normalizer_mode: str = "per-context",
):
    """A small random model, batch, and noise distribution for checks,
    plus the normalizer entry ids of the batch's distinct contexts in
    sorted order (empty outside per-context mode).

    Shapes are random draws within desk-scale bounds (V <= 50, d <= 8,
    c <= 3); matrix mode alternates with the seed.
    """
    rng = np.random.default_rng(seed)
    v = int(rng.integers(8, 51))
    d = int(rng.integers(2, 9))
    c = int(rng.integers(1, 4))
    mode = ("full", "diagonal")[seed % 2]
    if mode == "full":
        transforms = rng.normal(0.0, 0.5, size=(c, d, d))
    else:
        transforms = rng.normal(1.0, 0.3, size=(c, d))
    params = LblParams(
        context_vectors=rng.normal(0.0, 0.6, size=(v, d)),
        target_vectors=rng.normal(0.0, 0.6, size=(v, d)),
        context_transforms=transforms,
        biases=rng.normal(0.0, 0.5, size=v),
        matrix_mode=mode,
        dim=d,
        context_size=c,
    )
    contexts = rng.integers(0, v, size=(batch_size, c)).astype(np.int64)
    targets = rng.integers(0, v, size=batch_size).astype(np.int64)
    noise = from_counts(rng.integers(1, 20, size=v).astype(np.int64))
    normalizers = NormalizerStore(mode=normalizer_mode)
    norm_ids = np.empty(0, dtype=np.int64)
    if normalizer_mode == "per-context":
        norm_ids = normalizers.register(np.unique(contexts, axis=0))
        normalizers.assign(norm_ids, rng.normal(0.0, 0.3, size=len(norm_ids)))
    return params, normalizers, (contexts, targets), noise, norm_ids


def gradient_check(seed: int) -> dict[str, float]:
    """Max relative error of each estimator's gradient against central
    finite differences of its own objective, on random_instance(seed)
    with k=3 noise samples, frozen by replaying one rng seed. Includes
    the per-context normalizer coordinates."""
    params, normalizers, batch, noise, norm_ids = random_instance(seed)
    k = 3
    draw_seed = np.random.SeedSequence([seed, 77]).generate_state(1)[0]

    def draws():
        return np.random.default_rng(draw_seed)

    checks = (
        ("ml",
         lambda p, nm: estimators.ml_gradient_and_objective(p, nm, batch)[0],
         lambda p, nm: estimators.ml_objective(p, nm, batch)),
        ("nce",
         lambda p, nm: estimators.nce_gradient_and_objective(
             p, nm, batch, noise, k, draws())[0],
         lambda p, nm: estimators.nce_objective(p, nm, batch, noise, k, draws())),
        ("nce_shared",
         lambda p, nm: estimators.nce_gradient_and_objective(
             p, nm, batch, noise, k, draws(), share_samples=True)[0],
         lambda p, nm: estimators.nce_objective(
             p, nm, batch, noise, k, draws(), share_samples=True)),
        ("is",
         lambda p, nm: estimators.is_gradient_and_objective(
             p, nm, batch, noise, k, draws())[0],
         lambda p, nm: estimators.is_objective(p, nm, batch, noise, k, draws())),
    )
    return {
        label: max_relative_error(
            flatten_gradient(gradient_fn(params, normalizers), params, norm_ids),
            finite_difference_gradient(objective_fn, params, normalizers, norm_ids),
        )
        for label, gradient_fn, objective_fn in checks
    }


def nce_limit_gaps(seed: int):
    """Relative gap between the contrastive expected gradient and the ML
    expected gradient as the noise multiple k grows over NCE_LIMIT_K_GRID.

    The instance stores the exact negative log partition function as its
    per-context normalizer, so the unnormalized model is in fact
    normalized and the large-k limit is the ML expected gradient.
    """
    params, normalizers, batch, noise, _ = random_instance(seed)
    rng = np.random.default_rng(seed + 1000)
    context = batch[0][0]
    _, log_z = exp_rows(scores_all(params, context[None, :]))
    normalizers.set_values(context[None, :], -log_z[0])

    data_dist = rng.dirichlet(np.ones(params.vocab_size))
    ids = normalizers.register(context[None, :])
    ml_vec = flatten_gradient(
        expected_ml_gradient(params, normalizers, data_dist, context),
        params, ids,
    )
    ml_norm = float(np.linalg.norm(ml_vec))
    gaps = []
    for k in NCE_LIMIT_K_GRID:
        vec = flatten_gradient(
            exact_nce_gradient(params, normalizers, data_dist, context, noise, k),
            params, ids,
        )
        gaps.append(float(np.linalg.norm(vec - ml_vec)) / ml_norm)
    return list(NCE_LIMIT_K_GRID), gaps


def importance_stability_probe(seed: int = 0) -> dict:
    """Train the same mismatched instance with IS and with NCE, at V=60,
    d=8, c=2, k=5, for at most 20 epochs.

    The instance is adversarial for importance sampling: the initial
    model piles probability onto one word while the proposal is uniform,
    so a sampled high-score word grabs nearly the whole weight sum. The
    data itself is well-behaved (drawn from a coherent generating
    model); only the starting point and proposal are hostile. The probe
    reports how the IS run ended (degenerate weights, divergence, or
    neither) and whether the NCE run completed; NCE's per-word weights
    are bounded in [0, 1] by construction and asserted in the estimator.
    """
    from .synthetic import generate_sentences, make_truth_params

    vocab_size, dim, context_size, k, max_epochs = 60, 8, 2, 5, 20
    rng = np.random.default_rng(seed)
    truth = make_truth_params(
        vocab_size, dim, context_size, seed=seed + 5, feature_scale=0.3
    )
    sentences = generate_sentences(truth, 400, 5, 10, rng)
    train_set = extract_pairs(sentences[:360], context_size)
    valid_set = extract_pairs(sentences[360:], context_size)
    vocab = make_vocab(vocab_size)

    def peaked_params():
        p = init_params(
            vocab_size, dim, context_size, init_scale=0.2, seed=seed
        )
        p.biases[2] = 12.0
        return p

    result = {"k": k, "max_epochs": max_epochs}
    base = dict(
        k=k,
        noise_kind="uniform",
        minibatch_size=50,
        initial_lr=0.02,
        max_epochs=max_epochs,
        weight_penalty=1e-4,
        seed=seed,
        dim=dim,
    )
    try:
        # The hostile run is expected to overflow float32 on its way
        # down; keep its warnings out of caller logs.
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, history = train(
                TrainConfig(estimator="is", **base),
                train_set, valid_set, vocab,
                initial_params=peaked_params(),
            )
    except DivergenceError as err:
        result["is_outcome"] = "divergence"
        result["is_epoch"] = err.epoch
        result["is_max_weight"] = None
    except DegenerateWeightsError:
        result["is_outcome"] = "degenerate-weights"
        result["is_max_weight"] = None
    else:
        peak = max(history.max_weight_fractions)
        result["is_outcome"] = "completed"
        result["is_max_weight"] = peak

    try:
        with np.errstate(over="ignore", invalid="ignore"):
            _, _, nce_history = train(
                TrainConfig(estimator="nce", **base),
                train_set, valid_set, vocab,
                initial_params=peaked_params(),
            )
    except (DivergenceError, DegenerateWeightsError) as err:
        result["nce_completed"] = False
        result["nce_failure"] = type(err).__name__
    else:
        result["nce_completed"] = True
        result["nce_epochs"] = len(nce_history.records)

    triggered = result["is_outcome"] in ("divergence", "degenerate-weights") or (
        result["is_max_weight"] is not None and result["is_max_weight"] > 0.95
    )
    result["is_unstable"] = triggered
    return result


def benchmark_update(
    params: LblParams,
    estimator: str,
    k: int,
    batch,
    noise: NoiseDistribution | None = None,
    share_noise_samples: bool = False,
) -> float:
    """Median wall-clock seconds of 25 full gradient-plus-step updates of
    the training loop, after 3 untimed ones.

    Runs on a scratch copy of the parameters with a vanishing learning
    rate so repeated updates measure steady-state cost, not drift.
    """
    scratch = params.copy()
    normalizers = NormalizerStore(mode="fixed-one")
    if noise is None and estimator != "ml":
        noise = uniform(params.vocab_size)
    config = TrainConfig(
        estimator=estimator,
        k=max(k, 1),
        dim=params.dim,
        share_noise_samples=share_noise_samples,
    )
    rng = np.random.default_rng(0)
    lr = 1e-12

    def one_update():
        grad, _, _ = _batch_gradient(config, scratch, normalizers, batch, noise, k, rng)
        sgd_step(scratch, normalizers, grad, lr, 0.0)

    for _ in range(3):
        one_update()
    timings = []
    for _ in range(25):
        t0 = time.perf_counter()
        one_update()
        timings.append(time.perf_counter() - t0)
    return float(np.median(timings))


def run_diagnostic(name: str, seed: int) -> tuple[dict, bool]:
    """Execute one named diagnostic; returns (report, passed)."""
    if name == "gradcheck":
        report = {}
        worst = 0.0
        for s in range(seed, seed + 5):
            errors = gradient_check(s)
            for label, err in errors.items():
                worst = max(worst, err)
                report[f"seed{s}_{label}"] = f"{err:.3e}"
        report["max_rel_err"] = f"{worst:.3e}"
        report["threshold"] = "1e-05"
        return report, worst < 1e-5
    if name == "nce-limit":
        report = {}
        ok = True
        for s in range(seed, seed + 5):
            grid, gaps = nce_limit_gaps(s)
            non_increasing = all(b <= a * (1 + 1e-12) for a, b in zip(gaps, gaps[1:]))
            ok = ok and non_increasing and gaps[-1] < 1e-2
            report[f"seed{s}_gaps"] = "->".join(f"{g:.2e}" for g in gaps)
        report["k_grid"] = "->".join(str(k) for k in grid)
        report["threshold_final_gap"] = "1e-02"
        return report, ok
    if name == "is-stability":
        result = importance_stability_probe(seed)
        report = {key: value for key, value in result.items()}
        return report, bool(result["is_unstable"] and result["nce_completed"])
    if name == "speedup":
        full = predicted_speedup(2, 100, 10_000, 25, "full")
        diagonal = predicted_speedup(2, 100, 10_000, 25, "diagonal")
        report = {
            "full": f"{full:.4f}",
            "diagonal": f"{diagonal:.4f}",
            "expected_full": "45.3",
            "expected_diagonal": "370.4",
        }
        ok = abs(full - 45.3) <= 0.1 and abs(diagonal - 370.4) <= 0.1
        return report, ok
    raise ConfigError(f"unknown diagnostic {name!r}")
