import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pairsieve.corpus import tokenize
from pairsieve.errors import (
    EmptySentenceError,
    IncompatibleModelError,
    ModelFormatError,
    TrainingError,
)
from pairsieve.ngram_lm import (
    BOS,
    EOS,
    UNK,
    NgramLanguageModel,
    cross_entropy,
    load_lm,
    save_lm,
    train_ngram,
)


def sentences(*lines):
    return [tokenize(line) for line in lines]


def test_add_one_unigram_hand_arithmetic():
    # "a a b" has 4 unigram events including </s>; vocab is {a, b, </s>, <unk>}
    # so add-1 gives p(a) = (2+1)/(4+4).
    lm = train_ngram(sentences("a a b"), order=1, k=1.0, vocab_min_count=1)
    assert lm.vocab == {"a", "b", EOS, UNK}
    assert lm.prob("a", ()) == pytest.approx(0.375, abs=1e-12)
    assert lm.prob("b", ()) == pytest.approx(0.25, abs=1e-12)
    assert lm.prob(EOS, ()) == pytest.approx(0.25, abs=1e-12)
    assert lm.prob(UNK, ()) == pytest.approx(0.125, abs=1e-12)


def test_add_one_bigram_start_history():
    lm = train_ngram(sentences("a"), order=2, k=1.0, vocab_min_count=1)
    v = lm.vocab_size
    assert lm.prob("a", ("<s>",)) == pytest.approx((1 + 1) / (1 + v), abs=1e-12)


def test_training_is_deterministic():
    corpus = sentences("a b c", "b c a", "c c c")
    first = train_ngram(corpus, order=2, k=0.5, vocab_min_count=1)
    second = train_ngram(corpus, order=2, k=0.5, vocab_min_count=1)
    assert first.vocab == second.vocab
    assert first.ngram_counts == second.ngram_counts


def test_min_count_maps_rare_words_to_unk():
    lm = train_ngram(sentences("a a b"), order=1, k=1.0, vocab_min_count=2)
    assert "b" not in lm.vocab
    # b's event lands on <unk>: count 1
    assert lm.ngram_counts[(UNK,)] == 1


def test_cross_entropy_matches_per_token_hand_sum():
    lm = train_ngram(sentences("a a b"), order=1, k=1.0, vocab_min_count=1)
    # independent hand computation: events a, b, </s> with add-1 probs
    expected = -(math.log(3 / 8) + math.log(2 / 8) + math.log(2 / 8)) / 3
    assert cross_entropy(lm, tokenize("a b")) == pytest.approx(expected, abs=1e-12)


def uniform_over_four():
    # Every vocab event (a, b, <unk>, </s>) occurs exactly twice, so add-k
    # cancels: p = (2+k)/(8+4k) = 1/4 for any k.
    return train_ngram(sentences("a b x", "a b y"), order=1, k=0.1, vocab_min_count=2)


def test_uniform_model_is_uniform():
    lm = uniform_over_four()
    for word in (lm.vocab):
        assert lm.prob(word, ()) == pytest.approx(0.25, abs=1e-12)


def test_uniform_model_cross_entropy_is_ln4():
    lm = uniform_over_four()
    assert cross_entropy(lm, tokenize("a b y")) == pytest.approx(
        math.log(4), abs=1e-9
    )


def test_near_certain_model_scores_word_events_near_zero():
    # A huge count with tiny k drives p(a) to 1; cross-entropy reduces to the
    # end-token term.
    lm = NgramLanguageModel(
        order=1, k=1e-12, vocab={"a", EOS, UNK}, ngram_counts={("a",): 10**12}
    )
    assert lm.prob("a", ()) == pytest.approx(1.0, abs=1e-9)
    end_term = -math.log(lm.prob(EOS, ()))
    ce = cross_entropy(lm, tokenize("a a"))
    assert ce == pytest.approx(end_term / 3, rel=1e-6)


def test_empty_sentence_raises():
    lm = uniform_over_four()
    with pytest.raises(EmptySentenceError):
        cross_entropy(lm, tokenize(""))


def test_oov_scores_as_unk():
    lm = train_ngram(sentences("a a b"), order=1, k=1.0, vocab_min_count=1)
    assert cross_entropy(lm, tokenize("zzz")) == pytest.approx(
        -(math.log(1 / 8) + math.log(2 / 8)) / 2, abs=1e-12
    )


def perplexity(lm, sentence):
    return math.exp(cross_entropy(lm, sentence))


def test_perplexity_is_exp_of_cross_entropy():
    lm = uniform_over_four()
    s = tokenize("a b")
    assert perplexity(lm, s) == math.exp(cross_entropy(lm, s))
    assert perplexity(lm, tokenize("a b y")) == pytest.approx(4.0, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    order=st.integers(min_value=1, max_value=3),
    k=st.floats(min_value=1e-3, max_value=5.0),
    seed=st.integers(min_value=0, max_value=999),
)
def test_conditionals_sum_to_one(order, k, seed):
    rng = random.Random(seed)
    words = ["w%d" % i for i in range(6)]
    corpus = [
        tokenize(" ".join(rng.choice(words) for _ in range(rng.randint(1, 8))))
        for _ in range(30)
    ]
    lm = train_ngram(corpus, order=order, k=k, vocab_min_count=1)
    histories = list(lm.context_counts) + [("unseen-history",) * (order - 1)]
    for history in histories[:100]:
        total = math.fsum(lm.prob(w, history) for w in lm.vocab)
        assert abs(total - 1.0) <= 1e-6


def test_cross_entropy_nonnegative_on_random_sentences():
    lm = train_ngram(sentences("a b c d", "b c d a"), order=2, k=0.1, vocab_min_count=1)
    rng = random.Random(5)
    for _ in range(50):
        s = tokenize(" ".join(rng.choice("abcdxyz") for _ in range(rng.randint(1, 9))))
        assert cross_entropy(lm, s) >= 0.0


def test_in_domain_text_scores_lower_than_disjoint_vocab_text():
    rng = random.Random(11)
    held_in = [
        tokenize(" ".join(rng.choice("abcde") for _ in range(6))) for _ in range(200)
    ]
    lm = train_ngram(held_in, order=2, k=0.1, vocab_min_count=1)
    inside = [
        tokenize(" ".join(rng.choice("abcde") for _ in range(6))) for _ in range(50)
    ]
    outside = [
        tokenize(" ".join(rng.choice(["q1", "q2", "q3"]) for _ in range(6)))
        for _ in range(50)
    ]
    mean_in = sum(cross_entropy(lm, s) for s in inside) / 50
    mean_out = sum(cross_entropy(lm, s) for s in outside) / 50
    assert mean_in <= mean_out


def test_empty_stream_raises():
    with pytest.raises(TrainingError):
        train_ngram([], order=1, k=1.0, vocab_min_count=1)


@pytest.mark.parametrize("k", [0.0, -1.0, math.nan, math.inf])
def test_train_rejects_an_add_k_that_is_not_finite_and_positive(k):
    with pytest.raises(TrainingError, match=r"^add-k constant must be finite and > 0, got "):
        train_ngram(sentences("a b"), order=1, k=k, vocab_min_count=1)


def test_save_load_round_trip_is_exact(tmp_path):
    rng = random.Random(3)
    corpus = [
        tokenize(" ".join(rng.choice("abcdef") for _ in range(rng.randint(1, 10))))
        for _ in range(80)
    ]
    lm = train_ngram(corpus, order=3, k=0.25, vocab_min_count=2)
    save_lm(lm, tmp_path / "m.lm")
    loaded = load_lm(tmp_path / "m.lm")
    assert loaded.vocab == lm.vocab
    assert loaded.ngram_counts == lm.ngram_counts
    assert loaded.k == lm.k
    for _ in range(100):
        s = tokenize(" ".join(rng.choice("abcdefgh") for _ in range(rng.randint(1, 9))))
        assert cross_entropy(loaded, s) == cross_entropy(lm, s)


def test_a_loaded_model_holds_one_string_per_word(tmp_path):
    """The n-gram keys of a loaded model share the vocabulary's string
    objects: no more distinct word objects than vocabulary words."""
    rng = random.Random(5)
    corpus = [
        tokenize(" ".join(rng.choice("abcdef") for _ in range(rng.randint(1, 10))))
        for _ in range(80)
    ]
    save_lm(train_ngram(corpus, order=3, k=0.25, vocab_min_count=2), tmp_path / "m.lm")
    loaded = load_lm(tmp_path / "m.lm")
    vocab_ids = {id(word) for word in loaded.vocab}
    key_ids = {id(word) for ngram in loaded.ngram_counts for word in ngram}
    assert len(key_ids) <= len(loaded.vocab)
    assert key_ids <= vocab_ids


def test_load_truncated_file_is_a_parse_error(tmp_path):
    lm = uniform_over_four()
    save_lm(lm, tmp_path / "m.lm")
    text = (tmp_path / "m.lm").read_text(encoding="utf-8")
    (tmp_path / "cut.lm").write_text(text[: len(text) // 2], encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_lm(tmp_path / "cut.lm")


def test_load_version_mismatch_is_explicit(tmp_path):
    lm = uniform_over_four()
    save_lm(lm, tmp_path / "m.lm")
    text = (tmp_path / "m.lm").read_text(encoding="utf-8")
    (tmp_path / "v9.lm").write_text(
        text.replace("ngram-lm\t1", "ngram-lm\t9", 1), encoding="utf-8"
    )
    with pytest.raises(IncompatibleModelError):
        load_lm(tmp_path / "v9.lm")


def reference_event_log_probs(lm, tokens):
    """The per-event loop that the precomputed log-probability tables replaced."""
    mapped = [t if t in lm.vocab else UNK for t in tokens]
    padded = [BOS] * (lm.order - 1) + mapped + [EOS]
    n_hist = lm.order - 1
    kv = lm.k * lm.vocab_size
    out = []
    for i in range(n_hist, len(padded)):
        history = tuple(padded[i - n_hist:i])
        numer = lm.ngram_counts.get(history + (padded[i],), 0) + lm.k
        denom = lm.context_counts.get(history, 0) + kv
        out.append(math.log(numer / denom))
    return out


@settings(max_examples=120, deadline=None)
@given(
    order=st.integers(min_value=1, max_value=4),
    k=st.floats(min_value=1e-3, max_value=5.0),
    min_count=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
    queries=st.lists(
        st.lists(st.sampled_from(["w0", "w1", "w2", "w3", "w4", "oov1", "oov2"]),
                 min_size=1, max_size=10),
        min_size=1, max_size=5,
    ),
)
def test_log_prob_tables_equal_reference_loop(order, k, min_count, seed, queries):
    rng = random.Random(seed)
    words = ["w%d" % i for i in range(5)]
    corpus = [
        tokenize(" ".join(rng.choice(words) for _ in range(rng.randint(1, 6))))
        for _ in range(rng.randint(1, 12))
    ]
    lm = train_ngram(corpus, order=order, k=k, vocab_min_count=min_count)
    for tokens in queries:
        expected = reference_event_log_probs(lm, tokens)
        assert lm._event_log_probs(tokens) == expected  # exact, not approx
        sentence = tokenize(" ".join(tokens))
        assert cross_entropy(lm, sentence) == -math.fsum(expected) / len(expected)


def _edit_saved_model(tmp_path, edit):
    lm = train_ngram(sentences("a b a", "b a"), order=2, k=0.5, vocab_min_count=1)
    save_lm(lm, tmp_path / "m.lm")
    lines = (tmp_path / "m.lm").read_text(encoding="utf-8").splitlines()
    edit(lines)
    (tmp_path / "bad.lm").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return tmp_path / "bad.lm"


@pytest.mark.parametrize("k", ["0", "-1", "0.0", "nan", "inf"])
def test_load_rejects_a_bad_add_k_with_file_and_line(tmp_path, k):
    def edit(lines):
        lines[2] = f"k\t{k}"

    with pytest.raises(ModelFormatError, match=r"bad\.lm: line 3: add-k"):
        load_lm(_edit_saved_model(tmp_path, edit))


@pytest.mark.parametrize("order", ["0", "-2"])
def test_load_rejects_order_below_one_with_file_and_line(tmp_path, order):
    def edit(lines):
        lines[1] = f"order\t{order}"

    with pytest.raises(ModelFormatError, match=r"bad\.lm: line 2: order must be >= 1"):
        load_lm(_edit_saved_model(tmp_path, edit))


def test_load_rejects_a_negative_count_with_file_and_line(tmp_path):
    def edit(lines):
        ngram, _ = lines[-1].split("\t")
        lines[-1] = f"{ngram}\t-3"

    path = _edit_saved_model(tmp_path, edit)
    n_lines = len(path.read_text(encoding="utf-8").splitlines())
    with pytest.raises(ModelFormatError, match=rf"bad\.lm: line {n_lines}: negative count"):
        load_lm(path)


def test_load_rejects_an_empty_vocab(tmp_path):
    def edit(lines):
        lines[3:] = ["vocab\t0", "ngrams\t0"]

    with pytest.raises(ModelFormatError, match=r"bad\.lm: line 4: vocab must not be empty"):
        load_lm(_edit_saved_model(tmp_path, edit))


def test_load_rejects_counts_beyond_float_range(tmp_path):
    def edit(lines):
        ngram, _ = lines[-1].split("\t")
        lines[-1] = f"{ngram}\t{10 ** 400}"

    with pytest.raises(ModelFormatError, match=r"bad\.lm: cannot build log-probabilities"):
        load_lm(_edit_saved_model(tmp_path, edit))
