import subprocess
import sys
from dataclasses import asdict, fields

import numpy as np
import pytest

from ncelm.cli import build_parser, main
from ncelm.model import load_checkpoint
from ncelm.synthetic import generate_sentences, make_truth_params, make_words
from ncelm.trainer import TrainConfig


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    truth = make_truth_params(40, 6, 2, seed=3)
    sents = generate_sentences(truth, 220, 4, 9, np.random.default_rng(11))
    words = make_words(40)

    def render(name, chunk):
        path = root / name
        path.write_text(
            "\n".join(" ".join(words[i] for i in s) for s in chunk) + "\n",
            encoding="utf-8",
        )
        return path

    train_txt = render("train.txt", sents[:200])
    valid_txt = render("valid.txt", sents[200:])
    vocab_path = root / "vocab.txt"
    assert main(["build-vocab", str(train_txt), "--out", str(vocab_path)]) == 0
    return root, train_txt, valid_txt, vocab_path


def _train(workdir, out_name, *extra):
    root, train_txt, valid_txt, vocab_path = workdir
    out = root / out_name
    argv = [
        "--seed", "7", "train", str(train_txt),
        "--valid", str(valid_txt), "--vocab", str(vocab_path),
        "--out", str(out), "--estimator", "ml", "--dim", "6",
        "--batch-size", "64", "--lr", "0.05", "--epochs", "2",
        *extra,
    ]
    return out, main(argv)


def test_build_vocab_reports_size_and_is_deterministic(workdir, capsys, tmp_path):
    root, train_txt, _, vocab_path = workdir
    again = tmp_path / "vocab-again.txt"
    assert main(["build-vocab", str(train_txt), "--out", str(again)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "V=40"
    assert again.read_bytes() == vocab_path.read_bytes()


def test_train_writes_checkpoint_history_and_manifest(workdir, capsys):
    out, rc = _train(workdir, "model.ckpt")
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "final_valid_ppl=" in stdout and "epochs=2" in stdout

    history = out.with_name(out.name + ".history.csv").read_text()
    assert history.splitlines()[0] == "epoch,objective,valid_ppl,learning_rate,seconds"
    assert len(history.splitlines()) == 3

    manifest = out.with_name(out.name + ".manifest").read_text()
    entries = dict(line.split("=", 1) for line in manifest.splitlines())
    assert entries["estimator"] == "ml"
    assert entries["seed"] == "7"
    assert entries["format_version"] == "1"
    assert "tool_version" in entries and "corpus_paths" in entries
    assert list(entries) == sorted(entries)

    params, _ = load_checkpoint(out)
    assert params.vocab_size == 40 and params.dim == 6


def _parsed_config(global_flags=(), train_flags=()):
    args = build_parser().parse_args([
        *global_flags, "train", "c.txt", "--valid", "v.txt", "--vocab", "w.txt",
        "--out", "m", *train_flags,
    ])
    return {f.name: getattr(args, f.name) for f in fields(TrainConfig)}


def test_train_options_default_to_train_config_and_set_its_fields():
    assert _parsed_config() == asdict(TrainConfig())
    parsed = _parsed_config(
        ["--seed", "3", "--precision", "64"],
        ["--estimator", "is", "--k", "5", "--noise", "uniform", "--batch-size", "7",
         "--lr", "0.5", "--epochs", "4", "--weight-penalty", "0.01",
         "--normalizer", "per-context", "--ess-floor", "2.5", "--dim", "8",
         "--matrix", "diagonal", "--init-scale", "0.2", "--smoothing", "0.75",
         "--share-noise", "--cold-bias"],
    )
    assert parsed == asdict(TrainConfig(
        estimator="is", k=5, noise_kind="uniform", minibatch_size=7, initial_lr=0.5,
        max_epochs=4, weight_penalty=0.01, seed=3, normalizer_mode="per-context",
        ess_floor=2.5, dim=8, matrix_mode="diagonal", init_scale=0.2, precision=64,
        noise_smoothing=0.75, warm_start_bias=False, share_noise_samples=True,
    ))


def test_train_same_seed_same_bytes(workdir):
    out_a, rc_a = _train(workdir, "det-a.ckpt")
    out_b, rc_b = _train(workdir, "det-b.ckpt")
    assert rc_a == rc_b == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_train_divergence_exits_nonzero_with_context(workdir, capsys):
    _, rc = _train(workdir, "boom.ckpt", "--lr", "9.0", "--epochs", "4")
    assert rc == 1
    err = capsys.readouterr().err
    assert "estimator=ml" in err and "epoch=" in err
    assert "step=" in err and "lr=9.0" in err


def test_ppl_reports_value(workdir, capsys):
    root, _, valid_txt, vocab_path = workdir
    out, rc = _train(workdir, "ppl-model.ckpt")
    assert rc == 0
    capsys.readouterr()
    rc = main(["ppl", str(out), str(valid_txt), "--vocab", str(vocab_path)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    report = dict(line.split("=", 1) for line in lines)
    assert float(report["ppl"]) > 1.0
    assert int(report["n"]) > 0


def test_ppl_rejects_non_checkpoint_files(workdir, capsys):
    root, train_txt, valid_txt, vocab_path = workdir
    rc = main(["ppl", str(train_txt), str(valid_txt), "--vocab", str(vocab_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_ppl_rejects_truncated_checkpoint(workdir, capsys, tmp_path):
    root, _, valid_txt, vocab_path = workdir
    out, rc = _train(workdir, "truncated-model.ckpt")
    assert rc == 0
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(out.read_bytes()[:-3])
    capsys.readouterr()
    rc = main(["ppl", str(cut), str(valid_txt), "--vocab", str(vocab_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: checkpoint truncated in biases" in err
    assert "Traceback" not in err


def test_complete_prints_choices_and_accuracy(workdir, capsys):
    root, _, _, vocab_path = workdir
    out, rc = _train(workdir, "complete-model.ckpt")
    assert rc == 0
    problems = root / "problems.tsv"
    problems.write_text(
        "w0005 w0007 ___ w0011\tw0002|w0019|w0025|w0031|w0038\t1\n"
        "w0003 ___ w0009\tw0006|w0008|w0010|w0012|w0016\n",
        encoding="utf-8",
    )
    choices_out = root / "choices.txt"
    capsys.readouterr()
    rc = main([
        "complete", str(out), str(problems), "--vocab", str(vocab_path),
        "--choices-out", str(choices_out),
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4  # two choices, n=, accuracy=
    picked = [int(x) for x in lines[:2]]
    assert all(0 <= c < 5 for c in picked)
    assert lines[2] == "n=2"
    assert lines[3].startswith("accuracy=")
    assert choices_out.read_text().split() == [str(c) for c in picked]


def test_complete_names_the_line_of_a_bad_problem(workdir, capsys):
    root, _, _, vocab_path = workdir
    out, rc = _train(workdir, "bad-problem-model.ckpt")
    assert rc == 0
    problems = root / "bad-problems.tsv"
    problems.write_text(
        "w0005 w0007 ___ w0011\tw0002|w0019|w0025|w0031|w0038\t1\n"
        "w0003 ___ w0009\tw0006|w0008|w0010|w0012\n",
        encoding="utf-8",
    )
    capsys.readouterr()
    assert main(["complete", str(out), str(problems), "--vocab", str(vocab_path)]) == 1
    err = capsys.readouterr().err
    assert "error: line 2: expected exactly 5 candidates, got 4" in err
    assert "Traceback" not in err


def test_bidirectional_round_trip(workdir, capsys):
    root, _, valid_txt, vocab_path = workdir
    out, rc = _train(workdir, "bi.ckpt", "--bidirectional", "--context-size", "2")
    assert rc == 0
    capsys.readouterr()
    rc = main([
        "ppl", str(out), str(valid_txt), "--vocab", str(vocab_path), "--bidirectional",
    ])
    assert rc == 0
    assert "ppl=" in capsys.readouterr().out


def test_diagnose_speedup_passes(capsys):
    rc = main(["diagnose", "speedup"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "status=PASS" in out
    assert "full=45.3333" in out


def test_speedup_prints_predicted_ratio(capsys):
    assert main(["speedup", "2", "100", "10000", "25", "--full"]) == 0
    assert "speedup=45.3333" in capsys.readouterr().out
    assert main(["speedup", "2", "100", "10000", "25", "--diagonal"]) == 0
    assert "speedup=370.4444" in capsys.readouterr().out


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["polish"])
    assert info.value.code == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ncelm.cli", "speedup", "2", "100", "10000", "25"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "speedup=45.3333" in proc.stdout


def test_vocabulary_larger_than_the_model_is_a_named_error(workdir, capsys, tmp_path):
    root, _, _, vocab_path = workdir
    out, rc = _train(workdir, "range-model.ckpt")
    assert rc == 0
    bigger = tmp_path / "bigger-vocab.txt"
    bigger.write_text(vocab_path.read_text(encoding="utf-8") + "zzextra\t1\n",
                      encoding="utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("w0005 zzextra w0007\n", encoding="utf-8")
    problems = tmp_path / "problems.tsv"
    problems.write_text("w0005 ___ w0007\tw0002|zzextra|w0025|w0031|w0038\n",
                        encoding="utf-8")
    for argv in (
        ["ppl", str(out), str(corpus), "--vocab", str(bigger)],
        ["complete", str(out), str(problems), "--vocab", str(bigger)],
    ):
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error: word id 40 is outside the model's vocabulary of size 40" in err
        assert "Traceback" not in err


# The nce, nce_shared and is lines are the report of the dict-keyed
# normalizer store, which the dense store reproduces digit for digit,
# per-context normalizer coordinates included. The ml lines are the
# finite-difference noise of ml_objective, which scores through the
# evaluation kernel: they move with the last bits of that kernel's sums.
GRADCHECK_SEED0_REPORT = (
    "seed0_ml=3.471e-10\n"
    "seed0_nce=6.174e-10\n"
    "seed0_nce_shared=5.959e-10\n"
    "seed0_is=4.325e-10\n"
    "seed1_ml=2.661e-10\n"
    "seed1_nce=5.890e-10\n"
    "seed1_nce_shared=6.648e-10\n"
    "seed1_is=3.725e-10\n"
    "seed2_ml=3.304e-10\n"
    "seed2_nce=5.699e-10\n"
    "seed2_nce_shared=4.237e-10\n"
    "seed2_is=3.296e-10\n"
    "seed3_ml=2.820e-10\n"
    "seed3_nce=3.265e-10\n"
    "seed3_nce_shared=2.345e-10\n"
    "seed3_is=2.392e-10\n"
    "seed4_ml=4.299e-10\n"
    "seed4_nce=7.855e-10\n"
    "seed4_nce_shared=5.713e-10\n"
    "seed4_is=4.769e-10\n"
    "max_rel_err=7.855e-10\n"
    "threshold=1e-05\n"
    "status=PASS\n"
)


def test_diagnose_gradcheck_report_is_unchanged(capsys):
    assert main(["diagnose", "gradcheck"]) == 0
    assert capsys.readouterr().out == GRADCHECK_SEED0_REPORT


# The gaps read random_instance's draws and the enumeration oracles
# exact_nce_gradient and expected_ml_gradient, digit for digit.
NCE_LIMIT_SEED0_REPORT = (
    "seed0_gaps=6.14e-01->2.39e-01->3.83e-02->4.13e-03->4.17e-04\n"
    "seed1_gaps=6.81e-01->2.16e-01->2.78e-02->2.87e-03->2.87e-04\n"
    "seed2_gaps=5.82e-01->2.16e-01->3.56e-02->3.87e-03->3.91e-04\n"
    "seed3_gaps=6.47e-01->1.90e-01->2.46e-02->2.55e-03->2.56e-04\n"
    "seed4_gaps=7.93e-01->5.08e-01->1.13e-01->1.30e-02->1.32e-03\n"
    "k_grid=1->10->100->1000->10000\n"
    "threshold_final_gap=1e-02\n"
    "status=PASS\n"
)


def test_diagnose_nce_limit_report_is_unchanged(capsys):
    assert main(["diagnose", "nce-limit"]) == 0
    assert capsys.readouterr().out == NCE_LIMIT_SEED0_REPORT
