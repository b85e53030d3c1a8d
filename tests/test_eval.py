import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

import ncelm.evaluation as evaluation
from ncelm.corpus import OOS_ID, Vocabulary, extract_pairs
from ncelm.errors import ConfigError, IngestionError
from ncelm.evaluation import (
    CompletionProblem,
    answer_completion,
    completion_accuracy,
    context_log_prob,
    format_report,
    perplexity,
    predicted_speedup,
    read_completion_problems,
    score_sentence_bidirectional,
    score_sentence_unidirectional,
    write_completion_problems,
)
from ncelm.model import LblParams, full_distribution, init_params
from ncelm.synthetic import (
    corpus_vocab,
    generate_completion_problems,
    generate_sentences,
    make_truth_params,
)
from ncelm.trainer import TrainConfig, train


def _bias_only_params(log_weights, context_size=2):
    """Zero features make the conditional a softmax of the biases alone."""
    v = len(log_weights)
    params = init_params(v, 2, context_size, init_scale=0.0, dtype=np.float64)
    params.biases[:] = log_weights
    return params


def test_uniform_model_perplexity_equals_vocab_size():
    params = init_params(32, 3, 2, init_scale=0.0, dtype=np.float64)
    dataset = extract_pairs([[5, 9, 2, 30], [1, 7]], 2)
    assert np.isclose(perplexity(params, dataset), 32.0)


def test_perplexity_matches_hand_computation():
    probs = np.array([0.4, 0.3, 0.2, 0.1])
    params = _bias_only_params(np.log(probs))
    dataset = extract_pairs([[0, 2]], 2)
    expected = float(np.exp(-(np.log(0.4) + np.log(0.2)) / 2))
    assert np.isclose(perplexity(params, dataset), expected, rtol=1e-12)


def test_perplexity_chunking_is_invisible():
    params = init_params(20, 4, 2, seed=3, dtype=np.float64)
    rng = np.random.default_rng(0)
    dataset = extract_pairs([rng.integers(0, 20, size=50).tolist()], 2)
    assert np.isclose(
        perplexity(params, dataset),
        perplexity(params, dataset, chunk_rows=7),
        rtol=1e-12,
    )


def test_perplexity_rejects_empty_dataset():
    params = init_params(4, 2, 2)
    with pytest.raises(ConfigError):
        perplexity(params, extract_pairs([], 2))


def test_context_log_prob_matches_full_distribution():
    params = init_params(12, 3, 2, seed=1, dtype=np.float64)
    context = [4, 7]
    dist = full_distribution(params, context)
    assert np.isclose(context_log_prob(params, context, 9), np.log(dist[9]), rtol=1e-12)


def test_sentence_score_agrees_with_perplexity():
    params = init_params(15, 3, 2, seed=2, dtype=np.float64)
    sentence = [3, 8, 11, 2, 14]
    dataset = extract_pairs([sentence], 2)
    total_log_prob = -len(sentence) * np.log(perplexity(params, dataset))
    scored = score_sentence_unidirectional(params, sentence, 2, sentence[2])
    assert abs(scored - total_log_prob) < 1e-9


def test_unidirectional_scorer_calls_once_per_position(monkeypatch):
    params = init_params(10, 2, 2, dtype=np.float64)
    calls = []
    real = context_log_prob

    def counting(params, context, word):
        calls.append(int(word))
        return real(params, context, word)

    monkeypatch.setattr(evaluation, "context_log_prob", counting)
    sentence = [3, 4, 5, 6]
    evaluation.score_sentence_unidirectional(params, sentence, 1, 7)
    assert len(calls) == len(sentence)

    calls.clear()
    evaluation.score_sentence_bidirectional(params, sentence, 1, 7)
    assert len(calls) == 1


def test_bidirectional_context_layout():
    params = init_params(10, 2, 4, seed=5, dtype=np.float64)
    sentence = [3, 4, 5, 6]
    # Blank at position 1: two before (padded), two after.
    expected_context = [OOS_ID, 3, 5, 6]
    by_layout = context_log_prob(params, expected_context, 8)
    scored = score_sentence_bidirectional(params, sentence, 1, 8)
    assert np.isclose(scored, by_layout, rtol=1e-12)

    odd = init_params(10, 2, 3, dtype=np.float64)
    with pytest.raises(ConfigError, match="even"):
        score_sentence_bidirectional(odd, sentence, 1, 8)


def test_scorers_validate_blank_position():
    params = init_params(10, 2, 2, dtype=np.float64)
    with pytest.raises(ConfigError):
        score_sentence_unidirectional(params, [1, 2], 2, 3)
    with pytest.raises(ConfigError):
        score_sentence_bidirectional(params, [1, 2], -1, 3)


def test_answer_completion_prefers_likely_candidate_and_breaks_ties_low():
    probs = np.array([0.05, 0.05, 0.6, 0.15, 0.15])
    params = _bias_only_params(np.log(probs))
    problem = CompletionProblem([0, 1, 3], 1, [4, 2, 0, 1, 3])
    assert answer_completion(params, problem, "uni") == 1  # candidate word 2

    flat = _bias_only_params(np.zeros(5))
    assert answer_completion(flat, problem, "uni") == 0

    with pytest.raises(ConfigError):
        answer_completion(params, problem, "both")


def test_completion_accuracy_counts_only_answered_problems():
    probs = np.array([0.05, 0.05, 0.6, 0.15, 0.15])
    params = _bias_only_params(np.log(probs))
    answered = CompletionProblem([0, 1, 3], 1, [2, 4, 0, 1, 3], answer=0)
    wrong = CompletionProblem([0, 1, 3], 1, [4, 0, 1, 3, 2], answer=1)
    open_ended = CompletionProblem([0, 1, 3], 1, [4, 2, 0, 1, 3])

    choices, accuracy = completion_accuracy(params, [answered, wrong, open_ended])
    assert choices == [0, 4, 1]
    assert accuracy == 0.5

    choices, accuracy = completion_accuracy(params, [open_ended])
    assert accuracy is None


def test_completion_problem_validation():
    with pytest.raises(ConfigError):
        CompletionProblem([1, 2], 5, [0, 1, 2, 3, 4])
    with pytest.raises(ConfigError):
        CompletionProblem([1, 2], 0, [0, 1, 2, 3])
    with pytest.raises(ConfigError):
        CompletionProblem([1, 2], 0, [0, 1, 2, 3, 3])
    with pytest.raises(ConfigError):
        CompletionProblem([1, 2], 0, [0, 1, 2, 3, 4], answer=5)


@pytest.fixture()
def toy_vocab():
    words = ["<unk>", "<s/>", "cat", "dog", "sat", "ran", "here", "there"]
    return Vocabulary(words=words, counts=np.ones(len(words), dtype=np.int64))


def test_completion_file_round_trip(tmp_path, toy_vocab):
    # The blanked word renders as ___ on write, so it reads back as unk;
    # problems whose blank slot already holds unk round-trip exactly.
    problems = [
        CompletionProblem([2, 0, 6], 1, [4, 5, 2, 3, 6], answer=0),
        CompletionProblem([0, 5, 7], 0, [2, 3, 4, 5, 6]),
    ]
    path = tmp_path / "problems.tsv"
    write_completion_problems(problems, toy_vocab, path)
    loaded = read_completion_problems(path, toy_vocab)
    assert loaded == problems


def test_read_completion_problems_reports_line_numbers(tmp_path, toy_vocab):
    path = tmp_path / "problems.tsv"

    path.write_text("cat ___ here\tsat|ran|cat|dog|there\t0\nno blank\ta|b|c|d|e\n")
    with pytest.raises(IngestionError, match="line 2"):
        read_completion_problems(path, toy_vocab)

    path.write_text("cat ___ ___ here\tsat|ran|cat|dog|there\n")
    with pytest.raises(IngestionError, match="found 2"):
        read_completion_problems(path, toy_vocab)

    path.write_text("cat ___ here\tsat|ran\n")
    with pytest.raises(ConfigError, match="5 candidates"):
        read_completion_problems(path, toy_vocab)

    path.write_text("cat ___ here\tsat|ran|cat|dog|there\tfirst\n")
    with pytest.raises(IngestionError, match="not an integer"):
        read_completion_problems(path, toy_vocab)


def test_read_completion_problems_maps_oov_to_unk(tmp_path, toy_vocab):
    path = tmp_path / "problems.tsv"
    path.write_text("CAT ___ zebra\tSAT|ran|cat|dog|there\t1\n")
    (problem,) = read_completion_problems(path, toy_vocab)
    assert problem.sentence == [2, 0, 0]  # cat, blank placeholder, oov
    assert problem.candidates[0] == 4  # "SAT" lowercased
    assert problem.answer == 1


def test_predicted_speedup_formulas():
    assert np.isclose(predicted_speedup(2, 100, 10_000, 25), (200 + 10_000) / 225)
    assert np.isclose(
        predicted_speedup(2, 100, 10_000, 25, "diagonal"), (2 + 10_000) / 27
    )
    # More noise samples shrink the advantage.
    assert predicted_speedup(2, 100, 10_000, 100) < predicted_speedup(2, 100, 10_000, 25)
    with pytest.raises(ConfigError):
        predicted_speedup(0, 100, 10_000, 25)
    with pytest.raises(ConfigError):
        predicted_speedup(2, 100, 10_000, 25, "sparse")


def test_format_report_layout():
    assert format_report({"ppl": 12.5, "n": 3}) == "ppl=12.5\nn=3\n"


KERNEL_VOCAB = 2000
BUFFER_ROWS = evaluation._SCORE_BUFFER_ELEMS // KERNEL_VOCAB


def _kernel_params(matrix_mode, dtype, bias_offset=0.0, seed=0):
    """Random parameters with non-trivial transforms and biases."""
    rng = np.random.default_rng(seed)
    params = init_params(
        KERNEL_VOCAB, 5, 2, matrix_mode=matrix_mode, init_scale=0.8,
        seed=seed, dtype=np.float64,
    )
    params.context_transforms += rng.normal(0.0, 0.3, params.context_transforms.shape)
    params.biases[:] = bias_offset + rng.normal(0.0, 2.0, KERNEL_VOCAB)
    return params.astype(dtype)


def _reference_log_probs(params, contexts, targets):
    """Independent float64 log-softmax over the full score matrix."""
    p = params.astype(np.float64)
    rows = p.context_vectors[contexts]
    if p.matrix_mode == "full":
        qhat = np.einsum("ncj,cij->ni", rows, p.context_transforms)
    else:
        qhat = np.einsum("ncj,cj->nj", rows, p.context_transforms)
    scores = qhat @ p.target_vectors.T + p.biases
    return scores[np.arange(targets.size), targets] - logsumexp(scores, axis=1)


def _random_rows(n, seed=1):
    rng = np.random.default_rng(seed)
    return (
        rng.integers(0, KERNEL_VOCAB, size=(n, 2)),
        rng.integers(0, KERNEL_VOCAB, size=n),
    )


@pytest.mark.parametrize("matrix_mode", ["full", "diagonal"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "n_rows", [1, BUFFER_ROWS - 1, BUFFER_ROWS, BUFFER_ROWS + 1]
)
def test_kernel_matches_full_matrix_logsumexp(matrix_mode, dtype, n_rows):
    params = _kernel_params(matrix_mode, dtype)
    before = params.copy()
    contexts, targets = _random_rows(n_rows)
    got = evaluation._target_log_probs(params, contexts, targets)
    want = _reference_log_probs(params, contexts, targets)
    assert got.shape == (n_rows,)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    for name, tensor in before.tensors().items():
        after = params.tensors()[name]
        assert after.dtype == tensor.dtype, name
        assert np.array_equal(after, tensor), name


@pytest.mark.parametrize("offset", [1e3, -1e3])
def test_kernel_handles_scores_near_1e3_without_overflow(offset):
    params = _kernel_params("full", np.float64, bias_offset=offset)
    contexts, targets = _random_rows(BUFFER_ROWS + 1, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = evaluation._target_log_probs(params, contexts, targets)
    want = _reference_log_probs(params, contexts, targets)
    assert np.all(np.isfinite(got))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_completion_converts_once_and_matches_per_call_scores():
    truth = make_truth_params(30, 4, 2, seed=5, feature_scale=0.5)
    rng = np.random.default_rng(8)
    sents = generate_sentences(truth, 150, 4, 9, rng)
    vocab = corpus_vocab(30, sents)
    cfg = TrainConfig(estimator="nce", k=2, dim=4, minibatch_size=16,
                      initial_lr=0.1, max_epochs=3, seed=9)
    params, _, _ = train(
        cfg, extract_pairs(sents[:130], 2), extract_pairs(sents[130:], 2), vocab
    )
    assert params.dtype == np.float32
    problems = generate_completion_problems(truth, 25, rng)

    def per_call_score(problem, candidate):
        sent = list(problem.sentence)
        sent[problem.blank_position] = candidate
        pairs = extract_pairs([sent], 2, "oos-padding")
        return sum(
            context_log_prob(params, ctx, int(tgt))
            for ctx, tgt in zip(pairs.contexts, pairs.targets)
        )

    expected = [
        int(np.argmax([per_call_score(p, c) for c in p.candidates]))
        for p in problems
    ]
    conversions = []
    real_astype = LblParams.astype

    def counting_astype(self, dtype):
        conversions.append(dtype)
        return real_astype(self, dtype)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LblParams, "astype", counting_astype)
        choices, _ = completion_accuracy(params, problems, mode="uni")
    assert conversions == [np.float64]
    assert choices == expected
    for p in problems:
        for c in p.candidates:
            assert score_sentence_unidirectional(
                params, p.sentence, p.blank_position, c
            ) == per_call_score(p, c)
