import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncelm.corpus import (
    OOS_ID,
    OOS_TOKEN,
    UNK_ID,
    UNK_TOKEN,
    Dataset,
    Vocabulary,
    build_vocab,
    context_windows,
    encode,
    extract_bidirectional_pairs,
    extract_pairs,
    load_vocab,
    read_sentences,
    save_vocab,
    tokenize_line,
    two_sided_half,
    unigram_counts,
)
from ncelm.errors import ConfigError, IngestionError


def test_tokenize_lowercases_and_splits_on_whitespace():
    assert tokenize_line("The  Cat\tsat\n") == ["the", "cat", "sat"]
    assert tokenize_line("The Cat", lowercase=False) == ["The", "Cat"]
    assert tokenize_line("   ") == []


def test_read_sentences_skips_blank_lines(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a b c\n\n  \nD e\n", encoding="utf-8")
    assert read_sentences(path) == [["a", "b", "c"], ["d", "e"]]
    assert read_sentences(path, lowercase=False)[1] == ["D", "e"]


def test_read_sentences_reports_bad_byte_offset(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"ok so far \xff\xfe more")
    with pytest.raises(IngestionError, match="byte offset 10"):
        read_sentences(path)


def test_build_vocab_orders_by_frequency_then_first_seen():
    vocab = build_vocab("a b b c c c x y".split())
    assert vocab.words == [UNK_TOKEN, OOS_TOKEN, "c", "b", "a", "x", "y"]
    assert vocab.counts.tolist() == [0, 0, 3, 2, 1, 1, 1]
    assert encode(vocab, ["c", "never-seen"]) == [2, UNK_ID]


def test_build_vocab_folds_dropped_mass_into_unk():
    tokens = "a a a b b c".split()
    vocab = build_vocab(tokens, min_count=2)
    assert vocab.words == [UNK_TOKEN, OOS_TOKEN, "a", "b"]
    assert vocab.counts.tolist() == [1, 0, 3, 2]

    capped = build_vocab(tokens, max_size=1)
    assert capped.words == [UNK_TOKEN, OOS_TOKEN, "a"]
    assert capped.counts.tolist() == [3, 0, 3]


def test_build_vocab_counts_reserved_surface_strings():
    vocab = build_vocab(["<unk>", "a", "<s/>", "<s/>"])
    assert vocab.counts[UNK_ID] == 1
    assert vocab.counts[OOS_ID] == 2
    assert vocab.words[2] == "a"


def test_build_vocab_rejects_empty_stream():
    with pytest.raises(ConfigError):
        build_vocab([])


def test_encode_maps_oov_to_unk():
    vocab = build_vocab("a b".split())
    ids = encode(vocab, ["b", "z", "a"])
    assert ids == [vocab.words.index("b"), UNK_ID, vocab.words.index("a")]


def test_extract_pairs_oos_padding_by_hand():
    ds = extract_pairs([[5, 6, 7]], context_size=2)
    assert ds.contexts.tolist() == [[OOS_ID, OOS_ID], [OOS_ID, 5], [5, 6]]
    assert ds.targets.tolist() == [5, 6, 7]
    assert len(ds) == 3
    assert ds.contexts[1].tolist() == [OOS_ID, 5] and ds.targets[1] == 6


def test_extract_pairs_stream_mode_concatenates_sentences():
    ds = extract_pairs([[5, 6], [7, 8, 9]], context_size=2, boundary_mode="stream")
    assert ds.contexts.tolist() == [[5, 6], [6, 7], [7, 8]]
    assert ds.targets.tolist() == [7, 8, 9]


def test_extract_pairs_edge_cases():
    assert len(extract_pairs([], 2)) == 0
    assert len(extract_pairs([[1, 2]], 3, boundary_mode="stream")) == 0
    assert len(extract_pairs([[], [4]], 2)) == 1
    with pytest.raises(ConfigError):
        extract_pairs([[1]], 0)
    with pytest.raises(ConfigError):
        extract_pairs([[1]], 2, boundary_mode="circular")


def test_extract_bidirectional_pairs_by_hand():
    ds = extract_bidirectional_pairs([[5, 6, 7]], half_context=1)
    assert ds.context_size == 2
    assert ds.contexts.tolist() == [[OOS_ID, 6], [5, 7], [6, OOS_ID]]
    assert ds.targets.tolist() == [5, 6, 7]


def test_context_windows_pad_past_each_sentence_edge():
    words = np.array([5, 6, 7, 8, 9])
    window = context_windows(
        words, np.array([2, 3]), np.array([0, 1, 1]), np.array([1, 0, 2]),
        np.array([-2, -1, 0, 1]),
    )
    assert window.tolist() == [
        [OOS_ID, 5, 6, OOS_ID],
        [OOS_ID, OOS_ID, 7, 8],
        [7, 8, 9, OOS_ID],
    ]


def test_two_sided_layout_needs_an_even_context_size():
    assert two_sided_half(4) == 2
    with pytest.raises(ConfigError, match="even"):
        two_sided_half(3)


def _windows(ids, width):
    return np.lib.stride_tricks.sliding_window_view(ids, width)


def _reference_pairs(sentences, context_size, boundary_mode="oos-padding"):
    """extract_pairs as a per-sentence loop of sliding windows."""
    ctx_blocks = []
    tgt_blocks = []
    if boundary_mode == "oos-padding":
        pad = np.full(context_size, OOS_ID, dtype=np.int64)
        for sent in sentences:
            s = np.asarray(sent, dtype=np.int64)
            if s.size == 0:
                continue
            ext = np.concatenate([pad, s])
            ctx_blocks.append(_windows(ext, context_size)[: s.size])
            tgt_blocks.append(s)
    else:
        stream = np.concatenate(
            [np.asarray(s, dtype=np.int64) for s in sentences]
        ) if sentences else np.empty(0, dtype=np.int64)
        if stream.size > context_size:
            ctx_blocks.append(_windows(stream, context_size)[:-1])
            tgt_blocks.append(stream[context_size:])
    if ctx_blocks:
        return np.concatenate(ctx_blocks), np.concatenate(tgt_blocks)
    return np.empty((0, context_size), dtype=np.int64), np.empty(0, dtype=np.int64)


def _reference_bidirectional_pairs(sentences, h):
    """extract_bidirectional_pairs as a per-sentence loop of sliding windows."""
    ctx_blocks = []
    tgt_blocks = []
    pad = np.full(h, OOS_ID, dtype=np.int64)
    for sent in sentences:
        s = np.asarray(sent, dtype=np.int64)
        if s.size == 0:
            continue
        ext = np.concatenate([pad, s, pad])
        sw = _windows(ext, h)
        before = sw[: s.size]
        after = sw[h + 1 : h + 1 + s.size]
        ctx_blocks.append(np.concatenate([before, after], axis=1))
        tgt_blocks.append(s)
    if ctx_blocks:
        return np.concatenate(ctx_blocks), np.concatenate(tgt_blocks)
    return np.empty((0, 2 * h), dtype=np.int64), np.empty(0, dtype=np.int64)


# Empty sentences, sentences shorter than the context, and empty corpora
# all come up; each sentence is a list or an int64 array.
_sentences = st.lists(
    st.lists(st.integers(0, 40), max_size=9), max_size=8
).flatmap(
    lambda sents: st.lists(st.booleans(), min_size=len(sents), max_size=len(sents)).map(
        lambda as_array: [
            np.array(s, dtype=np.int64) if a else s for s, a in zip(sents, as_array)
        ]
    )
)


def _assert_dataset_equals(ds, contexts, targets):
    for got, want in ((ds.contexts, contexts), (ds.targets, targets)):
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@settings(deadline=None)
@given(
    sentences=_sentences,
    context_size=st.integers(1, 5),
    boundary_mode=st.sampled_from(["oos-padding", "stream"]),
)
def test_extract_pairs_matches_a_per_sentence_loop(sentences, context_size, boundary_mode):
    ds = extract_pairs(sentences, context_size, boundary_mode)
    assert (ds.context_size, ds.boundary_mode) == (context_size, boundary_mode)
    _assert_dataset_equals(ds, *_reference_pairs(sentences, context_size, boundary_mode))


@settings(deadline=None)
@given(sentences=_sentences, half=st.integers(1, 3))
def test_extract_bidirectional_pairs_matches_a_per_sentence_loop(sentences, half):
    ds = extract_bidirectional_pairs(sentences, half)
    assert (ds.context_size, ds.boundary_mode) == (2 * half, "oos-padding")
    _assert_dataset_equals(ds, *_reference_bidirectional_pairs(sentences, half))


def test_unigram_counts_from_dataset_and_stream():
    vocab = Vocabulary(words=[UNK_TOKEN, OOS_TOKEN, "a", "b"], counts=[0, 0, 2, 1])
    ds = extract_pairs([[2, 3, 2]], 1)
    assert unigram_counts(ds, vocab).tolist() == [0, 0, 2, 1]
    assert unigram_counts([3, 3, 0], vocab).tolist() == [1, 0, 0, 2]
    with pytest.raises(ConfigError):
        unigram_counts([4], vocab)


def test_vocab_round_trip(tmp_path):
    vocab = build_vocab("a b b c c c".split())
    path = tmp_path / "vocab.txt"
    save_vocab(vocab, path)
    loaded = load_vocab(path)
    assert loaded.words == vocab.words
    assert np.array_equal(loaded.counts, vocab.counts)


def test_load_vocab_rejects_malformed_files(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("<unk>\t0\n<s/>\t0\nword-without-count\n", encoding="utf-8")
    with pytest.raises(IngestionError, match="line 2"):
        load_vocab(path)
    path.write_text("a\t1\nb\t2\n", encoding="utf-8")
    with pytest.raises(IngestionError, match="reserved"):
        load_vocab(path)


def test_dataset_validates_shapes():
    with pytest.raises(ConfigError):
        Dataset(np.zeros((3, 2), dtype=np.int64), np.zeros(4, dtype=np.int64), 2, "stream")
    with pytest.raises(ConfigError):
        Dataset(np.zeros((3, 2), dtype=np.int64), np.zeros(3, dtype=np.int64), 3, "stream")
