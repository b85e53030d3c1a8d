import threading
import warnings

import numpy as np
import pytest
from scipy.special import logsumexp

import ncelm.evaluation as evaluation
from ncelm.corpus import OOS_ID, Vocabulary, extract_pairs
from ncelm.errors import ConfigError, IngestionError
from ncelm.evaluation import (
    CompletionProblem,
    completion_accuracy,
    context_log_prob,
    format_report,
    perplexity,
    predicted_speedup,
    read_completion_problems,
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


def _float64_params(params):
    """The parameters themselves when every table is float64, else a
    float64 copy."""
    if all(t.dtype == np.float64 for t in params.tensors().values()):
        return params
    return params.astype(np.float64)


def _preceding_contexts(sentence, context_size, oos_id):
    """The oos-padded preceding context of every position, built by hand."""
    padded = [oos_id] * context_size + sentence
    return [padded[i : i + context_size] for i in range(len(sentence))]


def score_sentence_unidirectional(params, sentence, blank_position, candidate,
                                  oos_id=OOS_ID):
    """Log probability of the whole sentence with the candidate filled in:
    one context_log_prob call per position. The reference for the
    batched ranker's uni mode."""
    params = _float64_params(params)
    sent = [int(w) for w in sentence]
    if not 0 <= blank_position < len(sent):
        raise ConfigError(
            f"blank position {blank_position} outside sentence of length {len(sent)}"
        )
    sent[blank_position] = int(candidate)
    return sum(
        evaluation.context_log_prob(params, ctx, tgt)
        for ctx, tgt in zip(_preceding_contexts(sent, params.context_size, oos_id), sent)
    )


def score_sentence_bidirectional(params, sentence, blank_position, candidate,
                                 oos_id=OOS_ID):
    """Log probability of the candidate given the [h before, h after]
    words around the blank: one context_log_prob call. The reference for
    the batched ranker's bi mode."""
    half = params.context_size // 2
    params = _float64_params(params)
    sent = [int(w) for w in sentence]
    if not 0 <= blank_position < len(sent):
        raise ConfigError(
            f"blank position {blank_position} outside sentence of length {len(sent)}"
        )
    before = sent[max(0, blank_position - half) : blank_position]
    before = [oos_id] * (half - len(before)) + before
    after = sent[blank_position + 1 : blank_position + 1 + half]
    after = after + [oos_id] * (half - len(after))
    return evaluation.context_log_prob(params, np.asarray(before + after), int(candidate))


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


def test_perplexity_chunking_is_invisible(monkeypatch):
    params = init_params(20, 4, 2, seed=3, dtype=np.float64)
    rng = np.random.default_rng(0)
    dataset = extract_pairs([rng.integers(0, 20, size=50).tolist()], 2)
    whole = perplexity(params, dataset)
    monkeypatch.setattr(evaluation, "_SCORE_BUFFER_ELEMS", 7 * params.vocab_size)
    assert np.isclose(whole, perplexity(params, dataset), rtol=1e-12)


def test_perplexity_rejects_empty_dataset():
    params = init_params(4, 2, 2)
    with pytest.raises(ConfigError):
        perplexity(params, extract_pairs([], 2))


def test_context_log_prob_matches_full_distribution():
    params = init_params(12, 3, 2, seed=1, dtype=np.float64)
    context = [4, 7]
    dist = full_distribution(params, np.array([context]))[0]
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
    score_sentence_unidirectional(params, sentence, 1, 7)
    assert len(calls) == len(sentence)

    calls.clear()
    score_sentence_bidirectional(params, sentence, 1, 7)
    assert len(calls) == 1


def test_bidirectional_context_layout():
    params = init_params(10, 2, 4, seed=5, dtype=np.float64)
    sentence = [3, 4, 5, 6]
    # Blank at position 1: two before (padded), two after.
    expected_context = [OOS_ID, 3, 5, 6]
    by_layout = context_log_prob(params, expected_context, 8)
    problem = CompletionProblem(sentence, 1, [8, 2, 7, 9, 0])
    scored = evaluation._candidate_totals(params, [problem], "bi", 2)[0, 0]
    assert np.isclose(scored, by_layout, rtol=1e-12)

    odd = init_params(10, 2, 3, dtype=np.float64)
    with pytest.raises(ConfigError, match="even"):
        completion_accuracy(odd, [problem], "bi")


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
    assert completion_accuracy(params, [problem], "uni")[0][0] == 1  # candidate word 2

    flat = _bias_only_params(np.zeros(5))
    assert completion_accuracy(flat, [problem], "uni")[0][0] == 0

    with pytest.raises(ConfigError):
        completion_accuracy(params, [problem], "both")


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


def test_completion_accuracy_of_no_problems_still_checks_the_mode():
    params = init_params(10, 2, 2, dtype=np.float64)
    assert completion_accuracy(params, []) == ([], None)
    assert completion_accuracy(params, [], "bi") == ([], None)
    with pytest.raises(ConfigError, match="unknown completion mode"):
        completion_accuracy(params, [], "both")


def test_out_of_range_word_ids_raise_config_error():
    params = init_params(10, 2, 2, seed=1, dtype=np.float64)
    with pytest.raises(ConfigError, match="word id 12 .* vocabulary of size 10"):
        completion_accuracy(params, [CompletionProblem([3, 4, 5], 1, [2, 12, 6, 7, 8])])
    with pytest.raises(ConfigError, match="word id 14 .* vocabulary of size 10"):
        perplexity(params, extract_pairs([[3, 14, 5]], 2))
    with pytest.raises(ConfigError, match="word id -1 "):
        evaluation._target_log_probs(params, np.array([[3, -1]]), np.array([4]))


def _random_problems(vocab_size, count, rng):
    """Problems of 1 to 7 words, blanks anywhere (first, second-to-last
    and last included), distinct candidates."""
    problems = []
    for i in range(count):
        length = 1 + i % 7
        sentence = rng.integers(2, vocab_size, size=length).tolist()
        blank = [0, length - 1, max(0, length - 2), length // 2][i % 4]
        candidates = rng.choice(np.arange(2, vocab_size), 5, replace=False).tolist()
        problems.append(CompletionProblem(sentence, blank, candidates))
    return problems


@pytest.mark.parametrize(
    "mode,context_size", [("uni", 1), ("uni", 2), ("uni", 3), ("bi", 2), ("bi", 4)]
)
def test_batched_ranker_matches_public_sentence_scorers(mode, context_size):
    params = init_params(40, 4, context_size, init_scale=0.8, seed=context_size,
                         dtype=np.float64)
    params.biases[:] = np.random.default_rng(0).normal(0.0, 1.0, 40)
    params = params.astype(np.float32)
    problems = _random_problems(40, 56, np.random.default_rng(context_size))
    scorer = {"uni": score_sentence_unidirectional,
              "bi": score_sentence_bidirectional}[mode]
    full = np.array([
        [scorer(params, p.sentence, p.blank_position, c) for c in p.candidates]
        for p in problems
    ])
    choices, _ = completion_accuracy(params, problems, mode)
    assert choices == np.argmax(full, axis=1).tolist()
    assert [completion_accuracy(params, [p], mode)[0][0] for p in problems] == choices
    # The dropped rows add the same term to every candidate of a problem.
    width = context_size if mode == "uni" else context_size // 2
    totals = evaluation._candidate_totals(
        params.astype(np.float64), problems, mode, width
    )
    np.testing.assert_allclose(
        totals - totals[:, :1], full - full[:, :1], rtol=0, atol=1e-9
    )


@pytest.mark.parametrize("count", [1, 7, 40])
def test_completion_makes_one_kernel_call(monkeypatch, count):
    params = init_params(30, 3, 2, seed=4, dtype=np.float32)
    problems = _random_problems(30, count, np.random.default_rng(count))
    calls = []
    real = evaluation._target_log_probs

    def counting(*args, **kwargs):
        calls.append(args[2].size)
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluation, "_target_log_probs", counting)
    for mode in ("uni", "bi"):
        calls.clear()
        completion_accuracy(params, problems, mode)
        assert len(calls) == 1
    assert calls == [5 * count]


def test_kernel_scores_each_distinct_context_once(monkeypatch):
    # The GEMM scores one row per predicted representation, so counting
    # the rows of predicted_representation_batch counts the rows scored.
    params = init_params(30, 3, 2, seed=4, dtype=np.float64)
    scored = []
    real = evaluation.predicted_representation_batch

    def counting(params, contexts, dtype=None):
        scored.append(len(contexts))
        return real(params, contexts, dtype)

    monkeypatch.setattr(evaluation, "predicted_representation_batch", counting)
    # Uni at c=2: the blank's row has the same context for all five
    # candidates, and each of the two rows after it has five contexts.
    problem = CompletionProblem([3, 4, 5, 6, 7, 8], 2, [10, 11, 12, 13, 14])
    completion_accuracy(params, [problem], "uni")
    assert sum(scored) == 1 + 5 + 5

    scored.clear()
    dataset = extract_pairs([[5, 9, 2, 7], [5, 9, 2, 7], [5, 9, 3]], 2)
    distinct = len(np.unique(dataset.contexts, axis=0))
    assert distinct < len(dataset)
    perplexity(params, dataset)
    assert sum(scored) == distinct


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
    with pytest.raises(IngestionError, match="line 1: .*5 candidates"):
        read_completion_problems(path, toy_vocab)

    path.write_text("cat ___ here\tsat|ran|cat|dog|there\tfirst\n")
    with pytest.raises(IngestionError, match="not an integer"):
        read_completion_problems(path, toy_vocab)


@pytest.mark.parametrize(
    "fields,message",
    [
        ("sat|ran|cat|dog", "expected exactly 5 candidates, got 4"),
        ("sat|ran|cat|dog|sat", "candidates must be distinct"),
        ("sat|ran|cat|dog|there\t5", r"answer index 5 outside \[0, 5\)"),
    ],
)
def test_read_completion_problems_names_the_line_of_a_bad_problem(
    tmp_path, toy_vocab, fields, message
):
    path = tmp_path / "problems.tsv"
    path.write_text(f"cat ___ here\tsat|ran|cat|dog|there\t0\n\ndog ___\t{fields}\n")
    with pytest.raises(IngestionError, match=f"^line 3: {message}"):
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


def _kernel_params(matrix_mode, dtype, bias_offset=0.0, seed=0,
                   vocab_size=KERNEL_VOCAB, context_size=2):
    """Random parameters with non-trivial transforms and biases."""
    rng = np.random.default_rng(seed)
    params = init_params(
        vocab_size, 5, context_size, matrix_mode=matrix_mode, init_scale=0.8,
        seed=seed, dtype=np.float64,
    )
    params.context_transforms += rng.normal(0.0, 0.3, params.context_transforms.shape)
    params.biases[:] = bias_offset + rng.normal(0.0, 2.0, vocab_size)
    return params.astype(dtype)


def _extreme_params(dtype):
    """Parameters in which words 1 and 2 lift or sink every score of a
    context made of them by about 800, through a coordinate that every
    target vector shares, so the raw sum of exp of [1, 1] overflows and
    that of [2, 2] underflows."""
    params = _kernel_params("full", np.float64)
    params.context_vectors[:, 0] = 0.0
    params.context_vectors[1, 0] = 400.0
    params.context_vectors[2, 0] = -400.0
    params.context_transforms[:, 0, :] = 0.0
    params.context_transforms[:, :, 0] = 0.0
    params.context_transforms[:, 0, 0] = 1.0
    params.target_vectors[:, 0] = 1.0
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
    "n_rows", [0, 1, BUFFER_ROWS - 1, BUFFER_ROWS, BUFFER_ROWS + 1]
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


@pytest.mark.parametrize("chunk_rows", [None, 4])
def test_kernel_rescores_overflowing_and_underflowing_rows_in_place(
    monkeypatch, chunk_rows
):
    params = _extreme_params(np.float64)
    contexts, targets = _random_rows(12, seed=3)
    contexts[contexts <= 2] = 3
    contexts[:3] = [[0, 0], [0, 1], [1, 0]]
    contexts[[3, 9]] = 1
    contexts[[4, 10]] = 2
    if chunk_rows is not None:
        # Chunks of 4 distinct contexts, in lexicographic order by either
        # column first: [0, 0], [0, 1] and [1, 0] sort before the
        # overflowing [1, 1] and the underflowing [2, 2], and the other
        # contexts, all of words above 2, after them. So [1, 1] ends the
        # first chunk and [2, 2] opens the second, each beside ordinary
        # contexts, and rows 9 and 10 repeat them.
        monkeypatch.setattr(evaluation, "_SCORE_BUFFER_ELEMS", chunk_rows * KERNEL_VOCAB)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = evaluation._target_log_probs(params, contexts, targets)
    want = _reference_log_probs(params, contexts, targets)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("vocab_size, context_size", [(KERNEL_VOCAB, 2), (600, 7)])
def test_kernel_scores_contexts_repeated_across_chunks(
    monkeypatch, dtype, vocab_size, context_size
):
    # 10 distinct contexts scattered over 40 rows, scored 3 contexts to a
    # chunk. At c=7, V=600, V**c is past int64, so no packed integer key
    # of a context would fit.
    params = _kernel_params("full", dtype, vocab_size=vocab_size,
                            context_size=context_size)
    rng = np.random.default_rng(12)
    distinct = rng.integers(0, vocab_size, size=(10, context_size))
    contexts = distinct[rng.permutation(np.arange(40) % 10)]
    targets = rng.integers(0, vocab_size, size=40)
    monkeypatch.setattr(evaluation, "_SCORE_BUFFER_ELEMS", 3 * vocab_size)
    got = evaluation._target_log_probs(params, contexts, targets)
    want = _reference_log_probs(params, contexts, targets)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_kernel_shares_a_rescored_normalizer_across_one_context(dtype):
    # Five rows of the overflowing context [1, 1], each with its own
    # target, among ordinary rows.
    params = _extreme_params(dtype)
    contexts, targets = _random_rows(9, seed=13)
    contexts[contexts <= 2] = 3
    contexts[[0, 2, 4, 6, 8]] = 1
    targets[[0, 2, 4, 6, 8]] = [5, 17, 400, 1999, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = evaluation._target_log_probs(params, contexts, targets)
    want = _reference_log_probs(params, contexts, targets)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_kernel_results_do_not_depend_on_earlier_calls_or_threads():
    # Every call carves its table, score buffer and [qhat, 1] rows out of
    # its thread's scratch, which the call before left dirty: a wider
    # model, then more rows, then a narrower model, in two threads at once.
    narrow = _kernel_params("full", np.float64)
    wide = init_params(KERNEL_VOCAB, 9, 2, init_scale=0.8, seed=4, dtype=np.float64)
    calls = [
        (wide, _random_rows(BUFFER_ROWS + 1, seed=4)),
        (narrow, _random_rows(3, seed=5)),
        (wide, _random_rows(7, seed=6)),
        (narrow, _random_rows(BUFFER_ROWS, seed=7)),
    ]

    def run(results):
        for params, (contexts, targets) in calls:
            results.append(evaluation._target_log_probs(params, contexts, targets))

    here, there = [], []
    worker = threading.Thread(target=run, args=(there,))
    worker.start()
    run(here)
    worker.join()
    assert len(there) == len(calls)
    for got, got_elsewhere, (params, (contexts, targets)) in zip(here, there, calls):
        want = _reference_log_probs(params, contexts, targets)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(got_elsewhere, got)


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
    assert conversions == []
    assert choices == expected
    for p in problems:
        for c in p.candidates:
            assert score_sentence_unidirectional(
                params, p.sentence, p.blank_position, c
            ) == per_call_score(p, c)
