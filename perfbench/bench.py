"""Run one workload: set up, train and evaluate in a closed loop, check
the outputs, and report end-to-end or per-layer metrics.

After set-up, one call at a time, three kinds of call share the
measuring time: ``train()`` from fresh parameters; reload of the trained
checkpoint, then test-set ``perplexity``; and reload, then
unidirectional ``completion_accuracy``. Every call of a kind repeats the
same seeded work, so its quality numbers must repeat exactly; the
timings of the calls give the medians. The first call of each kind and
the first set-up warm the process up: their outputs are checked but
their timings are left out.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np
import scipy

from ncelm import corpus, estimators, evaluation, model, noise, trainer
from ncelm.corpus import Dataset
from ncelm.errors import DegenerateWeightsError, DivergenceError
from ncelm.evaluation import predicted_speedup

import spans
from workloads import WORKLOADS, Workload, load_pool, write_inputs

SETUP_REPEATS = 7
# Untimed set-ups before the timed ones.
SETUP_WARMUP = 1
# Shares of the measuring time for train, perplexity and completion calls.
SHARES = {"train": 0.5, "ppl": 0.2, "complete": 0.3}
# Each completion call scores one of this many interleaved slices of the
# problems, so a run times many short calls and scores every problem.
COMPLETION_SLICES = 4
# Timed calls of each kind a run makes at least, after its warm-up call.
MIN_CALLS = {"train": 2, "ppl": 2, "complete": COMPLETION_SLICES}
# p90 is reported from at least this many steps, so that at least ten
# samples lie beyond it; a traced run trains until it has them.
P90_MIN_SAMPLES = 100
PPL_CHECK_ROWS = 512
PPL_CHECK_RTOL = 1e-9
CHANCE_ACCURACY = 0.2

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_words_per_s": "words/s",
    "valid_ppl": "ppl",
    "ppl_words_per_s": "words/s",
    "complete_problems_per_s": "problems/s",
    "complete_accuracy": "fraction",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    """A program output failed one of the benchmark's checks."""


@dataclass
class Inputs:
    vocab: corpus.Vocabulary
    train_set: Dataset
    valid_set: Dataset
    test_set: Dataset
    unigram: noise.NoiseDistribution


@dataclass
class Op:
    """One call of a loop: the work it did in the seconds timed, what it
    returned, the range of trace spans it produced, and whether it was
    the untimed warm-up call of its kind."""

    kind: str
    seconds: float
    work: int
    result: object
    spans: tuple[int, int] = (0, 0)
    warmup: bool = False


@dataclass
class Run:
    workload: Workload
    seed: int
    inputs: Inputs
    work_dir: Path
    problems_path: Path
    tracer: spans.Tracer | None
    setup_s: list[float] = field(default_factory=list)
    setup_spans: list[tuple[int, int]] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    failure: str | None = None

    @property
    def checkpoint(self) -> Path:
        return self.work_dir / "model.ckpt"

    def of(self, kind: str) -> list[Op]:
        return [op for op in self.ops if op.kind == kind]

    def timed(self, kind: str) -> list[Op]:
        return [op for op in self.of(kind) if not op.warmup]


def _phase(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def setup(files, w: Workload, tracer=None) -> Inputs:
    """Text to training arrays: the work a user pays before train()."""
    with _phase(tracer, "corpus.read_sentences"):
        text = [corpus.read_sentences(p) for p in (files.train, files.valid, files.test)]
    with _phase(tracer, "corpus.build_vocab"):
        vocab = corpus.build_vocab(chain.from_iterable(text[0]))
    with _phase(tracer, "corpus.encode"):
        ids = [[corpus.encode(vocab, s) for s in split] for split in text]
    with _phase(tracer, "corpus.extract_pairs"):
        train_set, valid_set, test_set = (
            corpus.extract_pairs(split, w.context_size) for split in ids
        )
    if w.train_pairs is not None:
        train_set = Dataset(
            train_set.contexts[: w.train_pairs], train_set.targets[: w.train_pairs],
            train_set.context_size, train_set.boundary_mode,
        )
    with _phase(tracer, "noise.from_counts"):
        unigram = noise.from_counts(corpus.unigram_counts(train_set, vocab))
    return Inputs(vocab, train_set, valid_set, test_set, unigram)


def train_config(w: Workload, seed: int) -> trainer.TrainConfig:
    return trainer.TrainConfig(
        estimator=w.estimator,
        k=w.k,
        noise_kind="unigram",
        minibatch_size=w.minibatch_size,
        initial_lr=w.learning_rate,
        max_epochs=w.epochs,
        seed=seed,
        normalizer_mode=w.normalizer_mode,
        dim=w.dim,
    )


def train_call(run: Run):
    """train() from fresh parameters; work is the training pairs visited."""
    inputs = run.inputs
    with _phase(run.tracer, "trainer.train"):
        _, normalizers, history = trainer.train(
            train_config(run.workload, run.seed), inputs.train_set, inputs.valid_set,
            inputs.vocab, checkpoint_path=run.checkpoint,
        )
    visited = len(inputs.train_set) * len(history.records)
    return visited, (history.valid_ppls, len(normalizers.table)), None


def ppl_call(run: Run):
    """Reload the checkpoint, then time perplexity over the test split."""
    with _phase(run.tracer, "model.load_checkpoint"):
        params, _ = model.load_checkpoint(run.checkpoint)
    t0 = time.perf_counter()
    value = evaluation.perplexity(params, run.inputs.test_set)
    return len(run.inputs.test_set), value, time.perf_counter() - t0


def complete_call(run: Run):
    """Reload the checkpoint and read the problems, then time
    unidirectional completion of the next slice of them; the result is
    (slice, problems answered correctly)."""
    params, _ = model.load_checkpoint(run.checkpoint)
    with _phase(run.tracer, "evaluation.read_completion_problems"):
        problems = evaluation.read_completion_problems(run.problems_path, run.inputs.vocab)
    part = len(run.of("complete")) % COMPLETION_SLICES
    problems = problems[part::COMPLETION_SLICES]
    t0 = time.perf_counter()
    with _phase(run.tracer, "evaluation.completion_accuracy"):
        _, accuracy = evaluation.completion_accuracy(params, problems, mode="uni")
    return len(problems), (part, round(accuracy * len(problems))), time.perf_counter() - t0


def interleave(run: Run, seconds: float, enough=lambda: True) -> None:
    """Make calls one at a time, interleaving the kinds.

    One warm-up call of each kind comes first; the first trains, and the
    others read its checkpoint. Each next call is of the kind furthest
    below its share of the time spent (SHARES), so a slow spell of the
    machine falls on every kind alike. The run ends when every kind has
    its MIN_CALLS timed calls, enough() holds, and the next call would
    end past seconds; while enough() fails it trains. A call that raises
    one of the program's training errors is a failed operation and ends
    the run.
    """
    calls = {"train": train_call, "ppl": ppl_call, "complete": complete_call}
    busy = dict.fromkeys(SHARES, 0.0)
    last = dict.fromkeys(SHARES, 0.0)
    started = time.perf_counter()
    warmups = list(SHARES)
    while True:
        kind = min(SHARES, key=lambda k: busy[k] / SHARES[k])
        late = time.perf_counter() - started + last[kind] > seconds
        if late and all(len(run.timed(k)) >= MIN_CALLS[k] for k in SHARES):
            if enough():
                return
            kind = "train"
        warmup = bool(warmups)
        if warmup:
            kind = warmups.pop(0)
        first = len(run.tracer.spans) if run.tracer else 0
        t0 = time.perf_counter()
        try:
            work, result, timed = calls[kind](run)
        except (DivergenceError, DegenerateWeightsError) as err:
            run.ops.append(Op(kind, time.perf_counter() - t0, 0, None))
            run.failure = f"{kind}: {type(err).__name__}: {err}"
            return
        last[kind] = time.perf_counter() - t0
        busy[kind] += 0.0 if warmup else last[kind]
        spans_made = (first, len(run.tracer.spans) if run.tracer else 0)
        run.ops.append(Op(
            kind, last[kind] if timed is None else timed, work, result, spans_made, warmup
        ))


def unigram_ppl(dist: noise.NoiseDistribution, dataset: Dataset) -> float:
    return float(np.exp(-dist.log_probs[dataset.targets].mean()))


def reference_ppl(params: model.LblParams, dataset: Dataset) -> float:
    """Perplexity of a full-matrix model (as every workload trains) by a
    float64 log-sum-exp written independently of the program's
    evaluation code."""
    ctx = params.context_vectors.astype(np.float64)[dataset.contexts]
    transforms = params.context_transforms.astype(np.float64)
    qhat = np.einsum("bcj,cij->bi", ctx, transforms)
    scores = qhat @ params.target_vectors.astype(np.float64).T
    scores += params.biases.astype(np.float64)
    top = scores.max(axis=1)
    log_z = top + np.log(np.exp(scores - top[:, None]).sum(axis=1))
    log_p = scores[np.arange(len(dataset)), dataset.targets] - log_z
    return float(np.exp(-log_p.mean()))


def _same(values, what: str):
    if any(v != values[0] for v in values):
        raise CheckFailed(f"{what} differs between identical calls: {values}")
    return values[0]


def check(run: Run) -> None:
    """Raise CheckFailed unless every call's outputs are right."""
    inputs = run.inputs
    valid_ppls = _same([op.result[0] for op in run.of("train")], "validation perplexity")
    floor = unigram_ppl(inputs.unigram, inputs.valid_set)
    for ppl in valid_ppls:
        if not (np.isfinite(ppl) and ppl < floor):
            raise CheckFailed(f"validation perplexity {ppl} not below unigram {floor:.2f}")

    again = run.work_dir / "resaved.ckpt"
    params, normalizers = model.load_checkpoint(run.checkpoint)
    model.save_checkpoint(again, params, normalizers)
    if again.read_bytes() != run.checkpoint.read_bytes():
        raise CheckFailed("checkpoint does not re-save to identical bytes")

    _same([op.result for op in run.of("ppl")], "test perplexity")
    rows = np.random.default_rng(run.seed).choice(
        len(inputs.test_set), size=min(PPL_CHECK_ROWS, len(inputs.test_set)), replace=False
    )
    sample = Dataset(
        inputs.test_set.contexts[rows], inputs.test_set.targets[rows],
        inputs.test_set.context_size, inputs.test_set.boundary_mode,
    )
    got, want = evaluation.perplexity(params, sample), reference_ppl(params, sample)
    if not abs(got - want) <= PPL_CHECK_RTOL * want:
        raise CheckFailed(f"perplexity {got!r} disagrees with float64 reference {want!r}")

    accuracy = completion_accuracy(run)
    if not accuracy > CHANCE_ACCURACY:
        raise CheckFailed(f"completion accuracy {accuracy} not above chance")


def completion_accuracy(run: Run) -> float:
    """Fraction of all problems answered correctly, over the slices."""
    hits = [
        _same([op.result[1] for op in run.of("complete") if op.result[0] == part],
              f"completion hits on slice {part}")
        for part in range(COMPLETION_SLICES)
    ]
    return sum(hits) / sum(op.work for op in run.of("complete")[:COMPLETION_SLICES])


def _median(values) -> float:
    return float(statistics.median(values))


def _rate(ops: list[Op]) -> tuple[float, int]:
    return _median(op.work / op.seconds for op in ops), len(ops)


def end_to_end(run: Run) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count)."""
    trains, completes = run.timed("train"), run.timed("complete")
    return {
        "setup_s": (_median(run.setup_s), len(run.setup_s)),
        "train_words_per_s": _rate(trains),
        "valid_ppl": (trains[0].result[0][-1], len(trains)),
        "ppl_words_per_s": _rate(run.timed("ppl")),
        "complete_problems_per_s": _rate(completes),
        "complete_accuracy": (completion_accuracy(run), len(completes)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


SETUP_METRICS = {
    "corpus.read_sentences": "corpus.read_s",
    "corpus.build_vocab": "corpus.vocab_s",
    "corpus.encode": "corpus.encode_s",
    "corpus.extract_pairs": "corpus.pairs_s",
    "noise.from_counts": "noise.build_s",
}
# Span name -> metric for its self time per train() call.
TRAIN_SELF_TIME = {
    "noise.sample": "noise.sample_s",
    "estimators.gradient": "estimators.grad_s",
    "model.predict": "model.predict_s",
    "model.normalizer_lookup": "model.normalizer_lookup_s",
    "estimators.update_normalizers": "estimators.update_normalizers_s",
    "model.save_checkpoint": "model.ckpt_write_s",
    "trainer.sgd_step": "trainer.step_s",
    "trainer.train": "trainer.loop_self_s",
}
PER_LAYER_UNITS = {
    **{m: "s" for m in SETUP_METRICS.values()},
    **{m: "s" for m in TRAIN_SELF_TIME.values()},
    "noise.draws": "count",
    "estimators.calls": "count",
    "estimators.scores_per_step": "count",
    "estimators.gather_mb_per_step": "MB",
    "estimators.unique_row_ratio": "ratio",
    "model.normalizer_entries": "count",
    "model.ckpt_writes": "count",
    "model.ckpt_bytes": "bytes",
    "trainer.steps": "count",
    "trainer.train_s": "s",
    "trainer.traced_words_per_s": "words/s",
    "evaluation.validate_s": "s",
    "model.ckpt_load_s": "s",
    "evaluation.ppl_s": "s",
    "evaluation.ppl_rows": "count",
    "evaluation.context_log_prob_s": "s",
    "evaluation.context_log_prob_calls": "count",
    "evaluation.read_problems_s": "s",
    "estimators.grad_ms_p50": "ms",
    "estimators.grad_ms_p90": "ms",
    "trainer.update_ms_p50": "ms",
    "trainer.update_ms_p90": "ms",
}


def install_tracing(tracer: spans.Tracer, w: Workload) -> None:
    """Wrap the program's calls where its own callers look them up."""
    itemsize = train_config(w, 0).dtype.itemsize

    def gradient_counts(span, args, kwargs, result):
        params, _, batch = args[:3]
        b = batch[1].shape[0]
        if w.estimator == "ml":
            scored, gathered = b * params.vocab_size, params.vocab_size
        else:
            scored = gathered = b * (w.k + 1)
        span.counts = {
            "scores": scored,
            "gather_mb": (gathered + b * params.context_size) * params.dim * itemsize / 1e6,
            "unique_rows": result[0].target_vector_ids.size,
        }

    def draws(span, args, kwargs, result):
        span.counts = {"draws": np.size(result)}

    def written(span, args, kwargs, result):
        span.counts = {"bytes": os.path.getsize(args[0])}

    def rows(span, args, kwargs, result):
        span.counts = {"rows": len(args[1])}

    tracer.patch(estimators, "noise_sample", "noise.sample", draws)
    tracer.patch(estimators, "predicted_representation_batch", "model.predict")
    tracer.patch(model.NormalizerStore, "lookup_batch", "model.normalizer_lookup")
    tracer.patch(estimators, "nce_gradient_and_objective", "estimators.gradient", gradient_counts)
    tracer.patch(estimators, "ml_gradient_and_objective", "estimators.gradient", gradient_counts)
    tracer.patch(trainer, "sgd_step", "trainer.sgd_step")
    tracer.patch(trainer, "update_normalizers", "estimators.update_normalizers")
    tracer.patch(trainer, "save_checkpoint", "model.save_checkpoint", written)
    tracer.patch(evaluation, "perplexity", "evaluation.perplexity", rows)
    tracer.patch(evaluation, "context_log_prob", "evaluation.context_log_prob")


def _train_call_metrics(run: Run, op: Op, own: list[float], latencies: dict) -> dict:
    """One train() call's per-layer figures from its spans."""
    all_spans = run.tracer.spans
    lo, hi = op.spans
    train_span = all_spans[lo]
    accounted = sum(own[lo:hi])
    if abs(accounted - train_span.seconds) > 1e-9 * max(train_span.seconds, 1.0):
        raise CheckFailed(
            f"span self times sum to {accounted:.6f}s, train() took {train_span.seconds:.6f}s"
        )
    out = dict.fromkeys(TRAIN_SELF_TIME.values(), 0.0)
    out.update(dict.fromkeys(
        ["noise.draws", "model.ckpt_writes", "model.ckpt_bytes", "trainer.steps",
         "evaluation.validate_s"], 0
    ))
    shapes = {"scores": [], "gather_mb": [], "unique": []}
    grad_start = None
    for i in range(lo, hi):
        s = all_spans[i]
        if s.name in TRAIN_SELF_TIME:
            out[TRAIN_SELF_TIME[s.name]] += own[i]
        if s.name == "noise.sample":
            out["noise.draws"] += s.counts["draws"]
        elif s.name == "estimators.gradient":
            shapes["scores"].append(s.counts["scores"])
            shapes["gather_mb"].append(s.counts["gather_mb"])
            shapes["unique"].append(s.counts["unique_rows"] / s.counts["scores"])
            latencies["estimators.grad_ms"].append(1e3 * s.seconds)
            grad_start = s.start
        elif s.name == "trainer.sgd_step":
            out["trainer.steps"] += 1
            latencies["trainer.update_ms"].append(1e3 * (s.end - grad_start))
        elif s.name == "model.save_checkpoint":
            out["model.ckpt_writes"] += 1
            out["model.ckpt_bytes"] = s.counts["bytes"]
        elif s.name == "evaluation.perplexity":
            out["evaluation.validate_s"] += s.seconds
    out["estimators.calls"] = len(shapes["scores"])
    # Full minibatches set the per-step shape; an epoch's last may be short.
    out["estimators.scores_per_step"] = max(shapes["scores"], default=0)
    out["estimators.gather_mb_per_step"] = max(shapes["gather_mb"], default=0.0)
    out["estimators.unique_row_ratio"] = _median(shapes["unique"]) if shapes["unique"] else 0.0
    out["model.normalizer_entries"] = op.result[1]
    out["trainer.train_s"] = train_span.seconds
    out["trainer.traced_words_per_s"] = op.work / op.seconds
    return out


def per_layer(run: Run) -> dict[str, tuple[float, int]]:
    """Per-layer metrics from the trace, as (value, sample count).

    Times and counts are per call of the loop they belong to, or per
    set-up, as medians; step and gradient latencies pool every step of
    the run. Raises CheckFailed if a train() call's span self times do
    not add up to its wall time.
    """
    all_spans = run.tracer.spans
    own = spans.self_seconds(all_spans)
    out: dict[str, tuple[float, int]] = {}

    def per_op(ranges, name, value):
        values = [
            sum(value(i) for i in range(lo, hi) if all_spans[i].name == name)
            for lo, hi in ranges
        ]
        return _median(values), len(values)

    def self_time(i):
        return own[i]

    for name, metric in SETUP_METRICS.items():
        out[metric] = per_op(run.setup_spans, name, self_time)

    latencies = {"estimators.grad_ms": [], "trainer.update_ms": []}
    per_call = [_train_call_metrics(run, op, own, latencies) for op in run.timed("train")]
    for metric in per_call[0]:
        out[metric] = (_median(c[metric] for c in per_call), len(per_call))

    ppl_ops = [op.spans for op in run.timed("ppl")]
    complete_ops = [op.spans for op in run.timed("complete")]
    out["model.ckpt_load_s"] = per_op(ppl_ops, "model.load_checkpoint", self_time)
    out["evaluation.ppl_s"] = per_op(ppl_ops, "evaluation.perplexity", self_time)
    out["evaluation.ppl_rows"] = per_op(
        ppl_ops, "evaluation.perplexity", lambda i: all_spans[i].counts["rows"]
    )
    out["evaluation.context_log_prob_s"] = per_op(
        complete_ops, "evaluation.context_log_prob", self_time
    )
    out["evaluation.context_log_prob_calls"] = per_op(
        complete_ops, "evaluation.context_log_prob", lambda i: 1
    )
    out["evaluation.read_problems_s"] = per_op(
        complete_ops, "evaluation.read_completion_problems", self_time
    )
    for metric, samples in latencies.items():
        out[f"{metric}_p50"] = (float(np.percentile(samples, 50)), len(samples))
        out[f"{metric}_p90"] = (float(np.percentile(samples, 90)), len(samples))
    return out


def environment(root: Path, w: Workload, seed: int, load: tuple, blas: dict) -> dict:
    head = root / ".git" / "HEAD"
    revision = "unavailable (not a git checkout)"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.exists() else ref
        revision = ref
    return {
        "workload": w.name,
        "seed": seed,
        "git_revision": revision,
        "nproc": len(os.sched_getaffinity(0)),
        "load_average_at_start": load,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        **blas,
    }


def blas_record() -> dict:
    """The BLAS library numpy was built against and the thread count it
    reports at run time (OpenBLAS builds that export their getter)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": None,
    }
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                record["blas_threads"] = getter()
                return record
    return record


def measure(w: Workload, seed: int, seconds: float, trace: bool, root: Path) -> Run:
    """Set up SETUP_WARMUP + SETUP_REPEATS times, interleave the calls,
    check the outputs.

    Each set-up starts from a collected heap with the previous set-up's
    objects released, so every timed one starts alike.
    """
    cache = root / ".perfbench"
    work_dir = cache / "work" / f"{w.name}-{seed}-{os.getpid()}"
    files = write_inputs(w, load_pool(w, cache / "pools"), seed, work_dir)
    tracer = spans.Tracer() if trace else None
    setup_s, setup_spans = [], []
    for i in range(SETUP_WARMUP + SETUP_REPEATS):
        inputs = None
        gc.collect()
        timed = i >= SETUP_WARMUP
        first = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        inputs = setup(files, w, tracer if timed else None)
        if timed:
            setup_s.append(time.perf_counter() - t0)
            setup_spans.append((first, len(tracer.spans) if tracer else 0))
    gc.collect()
    run = Run(w, seed, inputs, work_dir, files.problems, tracer, setup_s, setup_spans)

    def enough_steps():
        steps = sum(
            1 for op in run.timed("train")
            for s in tracer.spans[slice(*op.spans)] if s.name == "trainer.sgd_step"
        )
        return steps >= P90_MIN_SAMPLES

    try:
        if tracer:
            install_tracing(tracer, w)
        try:
            interleave(run, seconds, enough_steps if tracer else lambda: True)
        finally:
            if tracer:
                tracer.restore()
        if not run.failure:
            check(run)
    except CheckFailed as err:
        run.failure = f"check failed: {err}"
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return run


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv, root: Path, workloads=WORKLOADS) -> int:
    """Run one workload and print its report; 0 only if every check held."""
    args = _parse(argv)
    w = workloads[args.workload]
    src = (root / "src").resolve()
    if src not in Path(corpus.__file__).resolve().parents:
        raise SystemExit(f"ncelm was imported from {corpus.__file__}, not from {src}")
    env = environment(root, w, args.seed, os.getloadavg(), blas_record())
    run = measure(w, args.seed, args.seconds, bool(args.trace), root)

    metrics = {}
    if not run.failure:
        try:
            metrics = per_layer(run) if args.trace else end_to_end(run)
        except CheckFailed as err:
            run.failure = f"check failed: {err}"
            metrics = {}
    failed = int(run.failure is not None)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"workload {w.name} seed {args.seed} trace {args.trace}: {len(run.ops)} calls "
          f"({', '.join(f'{k} {len(run.timed(k))}' for k in SHARES)} timed, "
          f"{sum(op.warmup for op in run.ops)} warm-up), {failed} failed")
    for name, (value, n) in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {units[name]:10s} n={n}")
    if run.failure:
        print(f"  FAILED: {run.failure}")
    if args.trace and metrics:
        v = run.inputs.vocab.size
        print(f"  derived: predicted_speedup(c={w.context_size}, d={w.dim}, V={v}, k={w.k}) "
              f"= {predicted_speedup(w.context_size, w.dim, v, w.k):.2f}")
    result = {
        "correct": not failed,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, (v, _) in metrics.items()},
    }
    saved = dict(
        result, environment=env, samples={n: c for n, (_, c) in metrics.items()},
        vocab_size=run.inputs.vocab.size, failure=run.failure, setup_s=run.setup_s,
        calls={k: [[op.work, op.seconds] for op in run.timed(k)] for k in SHARES},
    )
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{w.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(saved, indent=1)
    )
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0 if not failed else 1
