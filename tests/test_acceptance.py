"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints a single
ACCEPTANCE verdict line before asserting its clauses, so a failing
criterion still reports every measured value. The heavy training runs
are shared through module fixtures; every fixture records how long its
work took so the runtime clauses account for it.

One deliberate caveat: run logs include wall-clock seconds per epoch,
which no two runs can reproduce bit for bit. The determinism check
therefore compares every logged field except the seconds column, and
the checkpoints byte for byte.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from ncelm.corpus import extract_bidirectional_pairs, extract_pairs
from ncelm.diagnostics import (
    gradient_check,
    importance_stability_probe,
    nce_limit_gaps,
)
from ncelm.evaluation import completion_accuracy, perplexity, predicted_speedup
from ncelm.model import init_params
from ncelm.noise import uniform
from ncelm.synthetic import (
    corpus_vocab,
    generate_completion_problems,
    generate_sentences,
    make_truth_params,
)
from ncelm.trainer import TrainConfig, benchmark_update, train

# Lets `pytest -m "not acceptance"` run the unit suite alone; the
# default run still collects and runs every test here.
pytestmark = pytest.mark.acceptance

# Shared corpus scale: ~100K training tokens from a known generating model.
VOCAB_SIZE = 2000
DIM = 16
CONTEXT_SIZE = 2
TRUTH_SEED = 20260501
CORPUS_SEED = 20260502
FEATURE_SCALE = 0.7
N_SENTENCES = 12000

# Shared optimization protocol. The quality comparisons use the largest
# learning rate at which exact ML is stable on this corpus; the noise
# grid uses a smaller one because unigram noise at k=100 concentrates
# updates on the most frequent rows and needs more headroom.
BATCH_SIZE = 500
QUALITY_LR = 0.006
GRID_LR = 0.003
EPOCHS = 20
RUN_SEED = 1

N_INSTANCES = 20  # small random instances for the gradient checks


def _verdict(number: int, title: str, clauses, detail: str) -> None:
    status = "PASS" if all(ok for _, ok in clauses) else "FAIL"
    print(f"ACCEPTANCE {number} {title}: {status} ({detail})")
    for name, ok in clauses:
        assert ok, f"criterion {number}: {name}"


def _final_ppl(history) -> float:
    return history.valid_ppls[-1]


@pytest.fixture(scope="module")
def corpus():
    t0 = time.perf_counter()
    truth = make_truth_params(
        VOCAB_SIZE, DIM, CONTEXT_SIZE, seed=TRUTH_SEED, feature_scale=FEATURE_SCALE
    )
    sentences = generate_sentences(
        truth, N_SENTENCES, 4, 14, np.random.default_rng(CORPUS_SEED)
    )
    train_sents = sentences[:10800]
    valid_sents = sentences[10800:11400]
    test_sents = sentences[11400:]
    # Word counts come from the training split only, exactly what a
    # pipeline that never sees held-out text would have.
    vocab = corpus_vocab(VOCAB_SIZE, train_sents)
    return SimpleNamespace(
        truth=truth,
        vocab=vocab,
        train_sents=train_sents,
        valid_sents=valid_sents,
        test_sents=test_sents,
        train_set=extract_pairs(train_sents, CONTEXT_SIZE),
        valid_set=extract_pairs(valid_sents, CONTEXT_SIZE),
        test_set=extract_pairs(test_sents, CONTEXT_SIZE),
        seconds=time.perf_counter() - t0,
    )


def _config(estimator: str, **overrides) -> TrainConfig:
    base = dict(
        estimator=estimator,
        k=25,
        noise_kind="unigram",
        minibatch_size=BATCH_SIZE,
        initial_lr=QUALITY_LR,
        max_epochs=EPOCHS,
        seed=RUN_SEED,
        dim=DIM,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def quality_runs(corpus, tmp_path_factory):
    """ML, NCE-25, and NCE-1 under one protocol, for criteria 3, 8, 9."""
    ckpt = tmp_path_factory.mktemp("quality") / "nce25.ckpt"
    t0 = time.perf_counter()
    ml_params, _, ml_hist = train(
        _config("ml"), corpus.train_set, corpus.valid_set, corpus.vocab
    )
    nce25_params, _, nce25_hist = train(
        _config("nce"), corpus.train_set, corpus.valid_set, corpus.vocab,
        checkpoint_path=ckpt,
    )
    _, _, nce1_hist = train(
        _config("nce", k=1), corpus.train_set, corpus.valid_set, corpus.vocab
    )
    return SimpleNamespace(
        ml_params=ml_params,
        ml_hist=ml_hist,
        nce25_params=nce25_params,
        nce25_hist=nce25_hist,
        nce25_ckpt=ckpt,
        nce1_hist=nce1_hist,
        seconds=time.perf_counter() - t0,
    )


@pytest.fixture(scope="module")
def per_context_run(corpus):
    t0 = time.perf_counter()
    _, _, hist = train(
        _config("nce", normalizer_mode="per-context"),
        corpus.train_set, corpus.valid_set, corpus.vocab,
    )
    return SimpleNamespace(hist=hist, seconds=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def noise_grid(corpus):
    """Final validation perplexity for k x noise-kind, one protocol."""
    t0 = time.perf_counter()
    ppls = {}
    for kind in ("unigram", "uniform"):
        for k in (1, 5, 25, 100):
            _, _, hist = train(
                _config("nce", k=k, noise_kind=kind, initial_lr=GRID_LR),
                corpus.train_set, corpus.valid_set, corpus.vocab,
            )
            ppls[kind, k] = _final_ppl(hist)
    return SimpleNamespace(ppls=ppls, seconds=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def bidirectional_run(corpus):
    """Same size and protocol as the NCE-25 run, context split around
    the target: one word before, one after."""
    t0 = time.perf_counter()
    params, _, hist = train(
        _config("nce"),
        extract_bidirectional_pairs(corpus.train_sents, CONTEXT_SIZE // 2),
        extract_bidirectional_pairs(corpus.valid_sents, CONTEXT_SIZE // 2),
        corpus.vocab,
    )
    return SimpleNamespace(params=params, hist=hist, seconds=time.perf_counter() - t0)


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    worst = {}
    for seed in range(N_INSTANCES):
        for name, err in gradient_check(seed).items():
            worst[name] = max(worst.get(name, 0.0), err)
    elapsed = time.perf_counter() - t0
    peak = max(worst.values())
    _verdict(
        1,
        "gradient correctness",
        [
            ("max relative error < 1e-5", peak < 1e-5),
            ("runtime < 1 minute", elapsed < 60.0),
        ],
        f"{N_INSTANCES} instances, both matrix modes; worst by estimator "
        + " ".join(f"{k}={v:.1e}" for k, v in sorted(worst.items()))
        + f"; {elapsed:.1f}s",
    )


def test_criterion_2_contrastive_limit():
    t0 = time.perf_counter()
    worst_final = 0.0
    monotone = True
    for seed in range(N_INSTANCES):
        grid, gaps = nce_limit_gaps(seed)
        assert grid == [1, 10, 100, 1000, 10_000]
        monotone &= all(b <= a for a, b in zip(gaps, gaps[1:]))
        worst_final = max(worst_final, gaps[-1])
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        "contrastive gradient approaches the likelihood gradient",
        [
            ("gap non-increasing in k", monotone),
            ("relative gap < 1e-2 at k=10000", worst_final < 1e-2),
            ("runtime < 1 minute", elapsed < 60.0),
        ],
        f"{N_INSTANCES} instances, worst final gap {worst_final:.1e}; {elapsed:.1f}s",
    )


def test_criterion_3_nce_matches_ml_quality(corpus, quality_runs):
    ml = _final_ppl(quality_runs.ml_hist)
    nce25 = _final_ppl(quality_runs.nce25_hist)
    nce1 = _final_ppl(quality_runs.nce1_hist)
    gap = abs(nce25 - ml) / ml
    elapsed = corpus.seconds + quality_runs.seconds
    _verdict(
        3,
        "25-sample contrastive training matches likelihood training",
        [
            ("NCE-25 perplexity within 5% of ML", gap < 0.05),
            ("NCE-1 strictly worse than NCE-25", nce1 > nce25),
            ("runtime < 30 minutes", elapsed < 1800.0),
        ],
        f"valid ppl ml={ml:.1f} nce25={nce25:.1f} ({100 * gap:.1f}% off) "
        f"nce1={nce1:.1f}; {elapsed:.0f}s",
    )


def test_criterion_4_noise_distribution_ordering(corpus, noise_grid):
    p = noise_grid.ppls
    gap = {k: p["uniform", k] - p["unigram", k] for k in (1, 5, 25, 100)}
    elapsed = corpus.seconds + noise_grid.seconds
    _verdict(
        4,
        "unigram noise beats uniform noise, most at small k",
        [
            ("unigram better at k=1", p["unigram", 1] < p["uniform", 1]),
            ("unigram better at k=5", p["unigram", 5] < p["uniform", 5]),
            ("gap shrinks from k=1 to k=100", gap[100] < gap[1]),
            ("runtime < 1 hour for all eight runs", elapsed < 3600.0),
        ],
        "uniform-minus-unigram ppl gap "
        + " ".join(f"k{k}={gap[k]:.1f}" for k in (1, 5, 25, 100))
        + f"; {elapsed:.0f}s",
    )


def test_criterion_5_update_cost():
    t0 = time.perf_counter()
    pred_full = predicted_speedup(2, 100, 10_000, 25, "full")
    pred_diag = predicted_speedup(2, 100, 10_000, 25, "diagonal")

    params = init_params(10_000, 100, 2, seed=0)
    rng = np.random.default_rng(0)
    batch = (
        rng.integers(0, 10_000, size=(1000, 2)),
        rng.integers(0, 10_000, size=1000),
    )
    noise = uniform(10_000)
    t_ml = benchmark_update(params, "ml", 25, batch)
    t_nce = {
        (k, shared): benchmark_update(
            params, "nce", k, batch, noise, share_noise_samples=shared
        )
        for k in (1, 25, 100)
        for shared in (False, True)
    }
    ratio = {shared: t_ml / t_nce[25, shared] for shared in (False, True)}
    change = {
        shared: t_nce[100, shared] / t_nce[1, shared] - 1.0
        for shared in (False, True)
    }
    elapsed = time.perf_counter() - t0
    # The cost model counts k noise-score computations per update, which
    # is the shared-draws regime; per-example draws do minibatch * k of
    # them, so their ratio is reported for context but not gated.
    _verdict(
        5,
        "predicted and measured update-cost ratios",
        [
            ("predicted full-matrix ratio = 45.3 +- 0.1", abs(pred_full - 45.3) <= 0.1),
            ("predicted diagonal ratio = 370.4 +- 0.1", abs(pred_diag - 370.4) <= 0.1),
            (
                "measured ML/NCE-25 ratio within 2x of 45.3 (shared draws)",
                45.3 / 2 <= ratio[True] <= 45.3 * 2,
            ),
            (
                "NCE update time changes < 30% from k=1 to k=100 (per-example draws)",
                abs(change[False]) < 0.30,
            ),
            (
                "NCE update time changes < 30% from k=1 to k=100 (shared draws)",
                abs(change[True]) < 0.30,
            ),
            ("runtime < 10 minutes", elapsed < 600.0),
        ],
        f"predicted full={pred_full:.4f} diag={pred_diag:.4f}; "
        f"ML {1e3 * t_ml:.1f}ms; measured ratio shared={ratio[True]:.1f} "
        f"(per-example={ratio[False]:.1f}, ungated); k1->k100 time change "
        f"per-example={100 * change[False]:.0f}% shared={100 * change[True]:.0f}%; "
        f"{elapsed:.0f}s",
    )


def test_criterion_6_stability_contrast():
    t0 = time.perf_counter()
    probe = importance_stability_probe()
    elapsed = time.perf_counter() - t0
    peak = probe["is_max_weight"]
    _verdict(
        6,
        "importance sampling destabilizes where contrastive training holds",
        [
            ("importance run degenerates or diverges", probe["is_unstable"]),
            ("contrastive run completes with bounded weights", probe["nce_completed"]),
            ("runtime < 5 minutes", elapsed < 300.0),
        ],
        f"is_outcome={probe['is_outcome']}"
        + (f" max_weight={peak:.3f}" if peak is not None else "")
        + f" nce_epochs={probe.get('nce_epochs')}; {elapsed:.1f}s",
    )


def test_criterion_7_normalizer_modes_agree(corpus, quality_runs, per_context_run):
    fixed = _final_ppl(quality_runs.nce25_hist)
    learned = _final_ppl(per_context_run.hist)
    gap = abs(learned - fixed) / fixed
    elapsed = corpus.seconds + quality_runs.seconds + per_context_run.seconds
    _verdict(
        7,
        "fixed-one and learned normalizers land together",
        [
            ("final perplexities differ < 2%", gap < 0.02),
            ("runtime folded into the 30-minute quality budget", elapsed < 1800.0),
        ],
        f"valid ppl fixed-one={fixed:.1f} per-context={learned:.1f} "
        f"({100 * gap:.2f}% apart); {elapsed:.0f}s",
    )


def test_criterion_8_completion_scoring(corpus, quality_runs, bidirectional_run):
    t0 = time.perf_counter()
    problems = generate_completion_problems(
        corpus.truth, 100, np.random.default_rng(77)
    )
    _, uni_acc = completion_accuracy(quality_runs.nce25_params, problems, "uni")
    _, bi_acc = completion_accuracy(bidirectional_run.params, problems, "bi")
    uni_ppl = perplexity(quality_runs.nce25_params, corpus.test_set)
    bi_ppl = perplexity(
        bidirectional_run.params,
        extract_bidirectional_pairs(corpus.test_sents, CONTEXT_SIZE // 2),
    )
    elapsed = (
        corpus.seconds
        + bidirectional_run.seconds
        + (time.perf_counter() - t0)
    )
    _verdict(
        8,
        "completion scoring and the bidirectional variant",
        [
            ("unidirectional accuracy > 60% (chance 20%)", uni_acc > 0.60),
            ("bidirectional test perplexity lower", bi_ppl < uni_ppl),
            ("runtime < 30 minutes", elapsed < 1800.0),
        ],
        f"accuracy uni={uni_acc:.2f} bi={bi_acc:.2f} (bi accuracy reported, "
        f"not gated); test ppl uni={uni_ppl:.1f} bi={bi_ppl:.1f}; {elapsed:.0f}s",
    )


def test_criterion_9_determinism(corpus, quality_runs, tmp_path):
    rerun_ckpt = tmp_path / "nce25-again.ckpt"
    _, _, rerun_hist = train(
        _config("nce"), corpus.train_set, corpus.valid_set, corpus.vocab,
        checkpoint_path=rerun_ckpt,
    )
    first = quality_runs.nce25_hist
    same_bytes = (
        quality_runs.nce25_ckpt.read_bytes() == rerun_ckpt.read_bytes()
    )

    def logged_fields(history):
        # Everything the log records except wall-clock seconds, which no
        # two runs can reproduce exactly.
        return [
            (r.epoch, r.objective, r.valid_ppl, r.learning_rate, r.mean_ess)
            for r in history.records
        ], history.k_by_epoch, history.max_weight_fractions

    same_logs = logged_fields(first) == logged_fields(rerun_hist)
    _verdict(
        9,
        "same seed reproduces the run",
        [
            ("checkpoints byte-identical", same_bytes),
            ("logged fields identical (seconds excluded)", same_logs),
        ],
        f"{len(first.records)} epochs compared across 2 runs",
    )
