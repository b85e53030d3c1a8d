"""Command-line front end.

Subcommands wire the library into reproducible batch runs: build-vocab,
train, ppl, complete, diagnose, and speedup. Every run's randomness
flows from the single --seed flag, and train records its full resolved
configuration in a plain-text manifest so any reported number can be
reproduced from the command line alone.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields as dataclass_fields

from . import __version__
from .corpus import (
    BOUNDARY_MODES,
    build_vocab,
    encode,
    extract_bidirectional_pairs,
    extract_pairs,
    load_vocab,
    read_sentences,
    save_vocab,
    two_sided_half,
)
from .diagnostics import run_diagnostic
from .errors import NcelmError
from .evaluation import (
    completion_accuracy,
    format_report,
    perplexity,
    predicted_speedup,
    read_completion_problems,
)
from .model import CHECKPOINT_VERSION, MATRIX_MODES, NORMALIZER_MODES, load_checkpoint
from .trainer import ESTIMATORS, NOISE_KINDS, TrainConfig, train

DIAGNOSTICS = ("gradcheck", "nce-limit", "is-stability", "speedup")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncelm",
        description=(
            "Train and evaluate log-bilinear language models with exact "
            "maximum likelihood, noise-contrastive estimation, or "
            "importance sampling."
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument(
        "--precision",
        type=int,
        choices=(32, 64),
        default=32,
        help="parameter storage bits while training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", help="count words and write a vocabulary")
    p.add_argument("corpus", nargs="+", help="input text files")
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--keep-case", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("corpus", nargs="+", help="training text files")
    p.add_argument("--valid", nargs="+", required=True, help="validation text files")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--history", default=None, help="default: <out>.history.csv")
    p.add_argument("--manifest", default=None, help="default: <out>.manifest")
    p.add_argument("--estimator", choices=ESTIMATORS, default="nce")
    p.add_argument("--k", type=int, default=25)
    p.add_argument("--noise", choices=NOISE_KINDS, default="unigram")
    p.add_argument("--batch-size", type=int, default=1000)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--weight-penalty", type=float, default=0.0)
    p.add_argument("--normalizer", choices=NORMALIZER_MODES, default="fixed-one")
    p.add_argument("--ess-floor", type=float, default=None)
    p.add_argument("--context-size", type=int, default=2)
    p.add_argument("--dim", type=int, default=100)
    p.add_argument("--matrix", choices=MATRIX_MODES, default="full")
    p.add_argument("--init-scale", type=float, default=0.1)
    p.add_argument("--boundary", choices=BOUNDARY_MODES, default="oos-padding")
    p.add_argument(
        "--bidirectional",
        action="store_true",
        help="context surrounds the target (context-size must be even)",
    )
    p.add_argument("--smoothing", type=float, default=1.0)
    p.add_argument("--share-noise", action="store_true")
    p.add_argument("--cold-bias", action="store_true",
                   help="start biases at zero instead of log unigram")
    p.add_argument("--keep-case", action="store_true")

    p = sub.add_parser("ppl", help="perplexity of a checkpoint on a corpus")
    p.add_argument("checkpoint")
    p.add_argument("corpus", nargs="+")
    p.add_argument("--vocab", required=True)
    p.add_argument("--boundary", choices=BOUNDARY_MODES, default="oos-padding")
    p.add_argument("--bidirectional", action="store_true")
    p.add_argument("--keep-case", action="store_true")

    p = sub.add_parser("complete", help="answer fill-in-the-blank problems")
    p.add_argument("checkpoint")
    p.add_argument("problems")
    p.add_argument("--vocab", required=True)
    p.add_argument("--mode", choices=("uni", "bi"), default="uni")
    p.add_argument("--choices-out", default=None)
    p.add_argument("--keep-case", action="store_true")

    p = sub.add_parser("diagnose", help="run a numerical health check")
    p.add_argument("name", choices=DIAGNOSTICS)

    p = sub.add_parser("speedup", help="predicted ML/sampling update-cost ratio")
    p.add_argument("context_size", type=int)
    p.add_argument("dim", type=int)
    p.add_argument("vocab_size", type=int)
    p.add_argument("k", type=int)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--full", action="store_true", default=False)
    mode.add_argument("--diagonal", action="store_true", default=False)

    return parser


def _read_corpus(paths, lowercase: bool):
    sentences = []
    for path in paths:
        sentences.extend(read_sentences(path, lowercase=lowercase))
    return sentences


def _load_dataset(paths, vocab, context_size, boundary, bidirectional, lowercase):
    sentences = [encode(vocab, s) for s in _read_corpus(paths, lowercase)]
    if bidirectional:
        return extract_bidirectional_pairs(sentences, two_sided_half(context_size))
    return extract_pairs(sentences, context_size, boundary)


def _cmd_build_vocab(args) -> int:
    def tokens():
        for sent in _read_corpus(args.corpus, not args.keep_case):
            yield from sent

    vocab = build_vocab(tokens(), min_count=args.min_count, max_size=args.max_size)
    save_vocab(vocab, args.out)
    print(f"V={vocab.size}")
    return 0


def _write_manifest(path, config: TrainConfig, args) -> None:
    entries = {
        f.name: getattr(config, f.name) for f in dataclass_fields(TrainConfig)
    }
    entries.update(
        corpus_paths=";".join(args.corpus),
        valid_paths=";".join(args.valid),
        vocab_path=args.vocab,
        checkpoint_path=args.out,
        history_path=args.history,
        manifest_path=args.manifest,
        boundary_mode=args.boundary,
        bidirectional=args.bidirectional,
        lowercase=not args.keep_case,
        context_size=args.context_size,
        format_version=CHECKPOINT_VERSION,
        tool_version=__version__,
    )
    lines = [f"{key}={entries[key]}" for key in sorted(entries)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _cmd_train(args) -> int:
    if args.history is None:
        args.history = args.out + ".history.csv"
    if args.manifest is None:
        args.manifest = args.out + ".manifest"
    config = TrainConfig(
        estimator=args.estimator,
        k=args.k,
        noise_kind=args.noise,
        minibatch_size=args.batch_size,
        initial_lr=args.lr,
        max_epochs=args.epochs,
        weight_penalty=args.weight_penalty,
        seed=args.seed,
        normalizer_mode=args.normalizer,
        ess_floor=args.ess_floor,
        dim=args.dim,
        matrix_mode=args.matrix,
        init_scale=args.init_scale,
        precision=args.precision,
        noise_smoothing=args.smoothing,
        warm_start_bias=not args.cold_bias,
        share_noise_samples=args.share_noise,
    )
    vocab = load_vocab(args.vocab)
    lowercase = not args.keep_case
    train_set = _load_dataset(
        args.corpus, vocab, args.context_size, args.boundary,
        args.bidirectional, lowercase,
    )
    valid_set = _load_dataset(
        args.valid, vocab, args.context_size, args.boundary,
        args.bidirectional, lowercase,
    )
    _write_manifest(args.manifest, config, args)
    params, _, history = train(
        config, train_set, valid_set, vocab, checkpoint_path=args.out
    )
    history.save_csv(args.history)
    report = {
        "epochs": len(history.records),
        "final_valid_ppl": f"{history.records[-1].valid_ppl:.6g}",
        "best_valid_ppl": f"{min(history.valid_ppls):.6g}",
        "checkpoint": args.out,
    }
    sys.stdout.write(format_report(report))
    return 0


def _cmd_ppl(args) -> int:
    params, _ = load_checkpoint(args.checkpoint)
    vocab = load_vocab(args.vocab)
    dataset = _load_dataset(
        args.corpus, vocab, params.context_size, args.boundary,
        args.bidirectional, not args.keep_case,
    )
    value = perplexity(params, dataset)
    sys.stdout.write(format_report({"ppl": f"{value:.6g}", "n": len(dataset)}))
    return 0


def _cmd_complete(args) -> int:
    params, _ = load_checkpoint(args.checkpoint)
    vocab = load_vocab(args.vocab)
    problems = read_completion_problems(
        args.problems, vocab, lowercase=not args.keep_case
    )
    choices, accuracy = completion_accuracy(params, problems, args.mode)
    for choice in choices:
        print(choice)
    if args.choices_out:
        with open(args.choices_out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(str(c) for c in choices) + "\n")
    report = {"n": len(problems)}
    if accuracy is not None:
        report["accuracy"] = f"{accuracy:.4f}"
    sys.stdout.write(format_report(report))
    return 0


def _cmd_diagnose(args) -> int:
    report, ok = run_diagnostic(args.name, seed=args.seed)
    report["status"] = "PASS" if ok else "FAIL"
    sys.stdout.write(format_report(report))
    return 0 if ok else 1


def _cmd_speedup(args) -> int:
    mode = "diagonal" if args.diagonal else "full"
    value = predicted_speedup(
        args.context_size, args.dim, args.vocab_size, args.k, mode
    )
    sys.stdout.write(format_report({"speedup": f"{value:.4f}", "mode": mode}))
    return 0


_COMMANDS = {
    "build-vocab": _cmd_build_vocab,
    "train": _cmd_train,
    "ppl": _cmd_ppl,
    "complete": _cmd_complete,
    "diagnose": _cmd_diagnose,
    "speedup": _cmd_speedup,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NcelmError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
