"""Minibatch SGD training loop with perplexity-driven learning-rate decay.

The loop is deterministic for a fixed seed: the master seed spawns
independent streams for parameter initialization, epoch shuffling, and
noise sampling, so reruns produce bit-identical parameters and history.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import estimators
from .corpus import Dataset, Vocabulary, out_of_range_id, unigram_counts
from .errors import ConfigError, DivergenceError
from .estimators import Gradient, update_normalizers
from .model import (
    MATRIX_MODES,
    NORMALIZER_MODES,
    LblParams,
    NormalizerStore,
    init_params,
    save_checkpoint,
)
from .noise import from_counts, uniform

ESTIMATORS = ("ml", "nce", "is")
NOISE_KINDS = ("unigram", "uniform")

# Stop once the halving rule has cut the learning rate by three orders
# of magnitude, or after this many epochs without a validation improvement.
LR_FLOOR_DIVISOR = 1024.0
PATIENCE_EPOCHS = 5

# When epoch-mean ESS sinks below the configured floor, enlarge the
# sample count by half (rounding up so k always actually grows).
ESS_GROWTH_FACTOR = 1.5


@dataclass
class TrainConfig:
    """Everything needed to reproduce a training run.

    The first group mirrors the optimization protocol; the second fixes
    the model shape the trainer instantiates when no initial parameters
    are supplied.
    """

    estimator: str = "nce"
    k: int = 25
    noise_kind: str = "unigram"
    minibatch_size: int = 1000
    initial_lr: float = 0.1
    max_epochs: int = 20
    weight_penalty: float = 0.0
    seed: int = 0
    normalizer_mode: str = "fixed-one"
    ess_floor: float | None = None

    dim: int = 100
    matrix_mode: str = "full"
    init_scale: float = 0.1
    precision: int = 32
    noise_smoothing: float = 1.0
    warm_start_bias: bool = True
    # Draw one set of k noise samples per minibatch instead of per
    # example. Off by default; exists for update-speed experiments.
    share_noise_samples: bool = False

    def __post_init__(self) -> None:
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}")
        if self.noise_kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise kind {self.noise_kind!r}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.minibatch_size < 1:
            raise ConfigError(f"minibatch_size must be >= 1, got {self.minibatch_size}")
        if not self.initial_lr > 0:
            raise ConfigError(f"initial_lr must be > 0, got {self.initial_lr}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.weight_penalty < 0:
            raise ConfigError(f"weight_penalty must be >= 0, got {self.weight_penalty}")
        if self.normalizer_mode not in NORMALIZER_MODES:
            raise ConfigError(f"unknown normalizer mode {self.normalizer_mode!r}")
        if self.matrix_mode not in MATRIX_MODES:
            raise ConfigError(f"unknown matrix_mode {self.matrix_mode!r}")
        if self.ess_floor is not None and not self.ess_floor > 0:
            raise ConfigError(f"ess_floor must be > 0, got {self.ess_floor}")
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.precision not in (32, 64):
            raise ConfigError(f"precision must be 32 or 64, got {self.precision}")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float32 if self.precision == 32 else np.float64)


@dataclass
class EpochRecord:
    epoch: int
    objective: float
    valid_ppl: float
    learning_rate: float
    seconds: float
    mean_ess: float | None = None


@dataclass
class TrainHistory:
    """Per-epoch training log, one record per completed epoch in order."""

    estimator: str
    records: list[EpochRecord] = field(default_factory=list)
    # Side channels for diagnostics; not part of the CSV log.
    max_weight_fractions: list[float] = field(default_factory=list)
    k_by_epoch: list[int] = field(default_factory=list)

    def to_csv(self) -> str:
        columns = ["epoch", "objective", "valid_ppl", "learning_rate", "seconds"]
        if self.estimator == "is":
            columns.append("mean_ess")
        lines = [",".join(columns)]
        for rec in self.records:
            row = [
                str(rec.epoch),
                repr(rec.objective),
                repr(rec.valid_ppl),
                repr(rec.learning_rate),
                repr(rec.seconds),
            ]
            if self.estimator == "is":
                row.append(repr(rec.mean_ess))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_csv())

    @property
    def valid_ppls(self) -> list[float]:
        return [rec.valid_ppl for rec in self.records]


def update_learning_rate(lr: float, prev_valid_ppl: float, curr_valid_ppl: float) -> float:
    """Halve the rate when validation perplexity increased, else keep it.

    Equal perplexity counts as not increased.
    """
    if curr_valid_ppl > prev_valid_ppl:
        return lr / 2.0
    return lr


def _apply_rows(table, ids, grads, lr, penalty, name):
    if ids.size == 0:
        return
    # Overflow here is exactly what the finite check below exists to
    # catch, so the numpy warning would be redundant.
    with np.errstate(over="ignore", invalid="ignore"):
        rows = table[ids]
        if penalty:
            rows *= 1.0 - lr * penalty
        rows += (lr * grads).astype(table.dtype)
    if not np.all(np.isfinite(rows)):
        raise DivergenceError(name)
    table[ids] = rows


def sgd_step(
    params: LblParams,
    normalizers: NormalizerStore,
    gradient: Gradient,
    learning_rate: float,
    weight_penalty: float = 0.0,
) -> LblParams:
    """Ascend: theta += lr * (gradient - weight_penalty * theta), in place.

    Applies gradient.rows(params) in params.tensors() order, then the
    normalizers. The L2 penalty touches only rows the gradient touches
    (plus the always-dense transform matrices); per-context normalizer
    entries take plain unpenalized steps through update_normalizers.
    Raises a divergence error naming the first tensor that leaves the
    finite range; that tensor (or the normalizer store) is left as it
    was, and the ones applied before it keep their step.
    """
    tensors = params.tensors()
    for name, (ids, grads) in gradient.rows(params).items():
        _apply_rows(tensors[name], ids, grads, learning_rate, weight_penalty, name)
    update_normalizers(gradient, normalizers, learning_rate)
    return params


def _make_noise(config: TrainConfig, train_set: Dataset, vocab: Vocabulary):
    if config.estimator == "ml":
        return None
    if config.noise_kind == "uniform":
        return uniform(vocab.size)
    counts = unigram_counts(train_set, vocab)
    return from_counts(counts, smoothing=config.noise_smoothing)


def _batch_gradient(config, params, normalizers, batch, noise, k, rng):
    """The gradient of one minibatch.

    Returns (gradient, objective, stats-or-None). Overflow warnings are
    silenced here: a run that blows up produces non-finite values that
    the update step detects and reports as a divergence error, so the
    warnings would only repeat that message.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if config.estimator == "ml":
            grad, obj = estimators.ml_gradient_and_objective(
                params, normalizers, batch
            )
            return grad, obj, None
        if config.estimator == "nce":
            grad, obj = estimators.nce_gradient_and_objective(
                params, normalizers, batch, noise, k, rng,
                share_samples=config.share_noise_samples,
            )
            return grad, obj, None
        return estimators.is_gradient_and_objective(
            params, normalizers, batch, noise, k, rng
        )


def train(
    config: TrainConfig,
    train_set: Dataset,
    valid_set: Dataset,
    vocab: Vocabulary,
    initial_params: LblParams | None = None,
    initial_normalizers: NormalizerStore | None = None,
    checkpoint_path=None,
) -> tuple[LblParams, NormalizerStore, TrainHistory]:
    """Run the full training protocol and return the final state.

    Each epoch visits every example once in a freshly shuffled order,
    applies one SGD step per minibatch, then scores the validation set
    with explicitly normalized probabilities. The learning rate halves
    whenever validation perplexity rises; training stops early when the
    rate decays below initial_lr / 1024 or when perplexity has not
    improved for five consecutive epochs.

    When checkpoint_path is given the current state is written there at
    every validation improvement and again after the last epoch, so the
    file tracks the best-so-far model during the run and the final model
    after it. A divergence error aborts the run and carries the most
    recent checkpoint as the recovery point.
    """
    # Imported per call: perfbench times validation by replacing
    # evaluation.perplexity with a wrapper, which a name bound when this
    # module loads would bypass, so that time would read 0.
    from .evaluation import perplexity

    if len(train_set) == 0 or len(valid_set) == 0:
        raise ConfigError("training and validation sets must be non-empty")
    if train_set.context_size != valid_set.context_size:
        raise ConfigError(
            "training and validation context sizes differ: "
            f"{train_set.context_size} vs {valid_set.context_size}"
        )
    for name, dataset in (("training", train_set), ("validation", valid_set)):
        bad = out_of_range_id(vocab.size, dataset.contexts, dataset.targets)
        if bad is not None:
            raise ConfigError(
                f"{name} set word id {bad} is outside the vocabulary of size {vocab.size}"
            )
    if initial_params is not None and (
        (initial_params.vocab_size, initial_params.context_size)
        != (vocab.size, train_set.context_size)
    ):
        raise ConfigError(
            f"initial parameters cover {initial_params.vocab_size} words and "
            f"{initial_params.context_size} context positions, but the vocabulary "
            f"has {vocab.size} words and the datasets {train_set.context_size} positions"
        )
    if initial_normalizers is not None and initial_normalizers.mode != config.normalizer_mode:
        raise ConfigError(
            f"initial normalizers are {initial_normalizers.mode}, but the config "
            f"trains {config.normalizer_mode} normalizers"
        )

    master = np.random.SeedSequence(config.seed)
    init_seed, shuffle_seed, noise_seed = master.spawn(3)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    noise_rng = np.random.default_rng(noise_seed)

    if initial_params is not None:
        params = initial_params.copy()
    else:
        counts = vocab.counts if config.warm_start_bias else None
        params = init_params(
            vocab.size,
            config.dim,
            train_set.context_size,
            matrix_mode=config.matrix_mode,
            init_scale=config.init_scale,
            seed=init_seed,
            counts=counts,
            dtype=config.dtype,
        )
    if initial_normalizers is not None:
        normalizers = initial_normalizers.copy()
    else:
        normalizers = NormalizerStore(mode=config.normalizer_mode)
    if normalizers.mode == "per-context":
        # Every context that can take a normalizer step is a training
        # context, so one registration keeps the loop free of it.
        normalizers.register(train_set.contexts)

    noise = _make_noise(config, train_set, vocab)
    k = config.k
    lr = config.initial_lr
    lr_floor = config.initial_lr / LR_FLOOR_DIVISOR
    history = TrainHistory(estimator=config.estimator)
    best_ppl = np.inf
    epochs_since_improvement = 0
    prev_ppl = None
    last_checkpoint = None
    n = len(train_set)

    def write_checkpoint():
        nonlocal last_checkpoint
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, params, normalizers)
            last_checkpoint = str(checkpoint_path)

    for epoch in range(1, config.max_epochs + 1):
        started = time.perf_counter()
        order = shuffle_rng.permutation(n)
        objective_sum = 0.0
        ess_values = []
        max_weight = 0.0
        for step, lo in enumerate(range(0, n, config.minibatch_size), start=1):
            rows = order[lo : lo + config.minibatch_size]
            batch = (train_set.contexts[rows], train_set.targets[rows])
            grad, obj, stats = _batch_gradient(
                config, params, normalizers, batch, noise, k, noise_rng
            )
            objective_sum += obj
            if stats is not None:
                ess_values.append(stats.ess)
                max_weight = max(max_weight, stats.max_weight_fraction)
            try:
                sgd_step(params, normalizers, grad, lr, config.weight_penalty)
            except DivergenceError as err:
                raise DivergenceError(
                    err.tensor,
                    estimator=config.estimator,
                    epoch=epoch,
                    step=step,
                    learning_rate=lr,
                    last_good_checkpoint=last_checkpoint,
                ) from err

        valid_ppl = perplexity(params, valid_set)
        mean_ess = float(np.mean(ess_values)) if ess_values else None
        history.records.append(
            EpochRecord(
                epoch=epoch,
                objective=objective_sum / n,
                valid_ppl=valid_ppl,
                learning_rate=lr,
                seconds=time.perf_counter() - started,
                mean_ess=mean_ess,
            )
        )
        history.k_by_epoch.append(k)
        if config.estimator == "is":
            history.max_weight_fractions.append(max_weight)

        if valid_ppl < best_ppl:
            best_ppl = valid_ppl
            epochs_since_improvement = 0
            write_checkpoint()
        else:
            epochs_since_improvement += 1

        if prev_ppl is not None:
            lr = update_learning_rate(lr, prev_ppl, valid_ppl)
        prev_ppl = valid_ppl

        if (
            config.estimator == "is"
            and config.ess_floor is not None
            and mean_ess is not None
            and mean_ess < config.ess_floor
        ):
            k = max(k + 1, int(round(ESS_GROWTH_FACTOR * k)))

        if lr < lr_floor or epochs_since_improvement >= PATIENCE_EPOCHS:
            break

    write_checkpoint()
    return params, normalizers, history

