import math
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pairsieve.corpus import Sentence, SentencePair, tokenize
from pairsieve.errors import (
    EmptySentenceError,
    EmptySourceError,
    ExternalScoreError,
    IncompatibleModelError,
    ModelFormatError,
    TrainingError,
)
from pairsieve import lexical_tm
from pairsieve.lexical_tm import (
    NULL,
    PROB_FLOOR,
    Direction,
    ExternalScoreTable,
    LexicalTranslationModel,
    cond_cross_entropy,
    load_external_scores,
    load_tm,
    save_tm,
    train_model1,
)


def pair(i, src, tgt):
    return SentencePair(id=i, src=tokenize(src), tgt=tokenize(tgt))


def toy_corpus():
    return [pair(0, "das haus", "the house"), pair(1, "das buch", "the book")]


def test_one_em_iteration_from_uniform_init():
    # Hand EM: das co-occurs with {the, house, book} -> inits 1/3; haus and
    # buch with two targets each -> inits 1/2. One E/M round gives counts
    # 4/5, 2/5, 2/5 for das, normalizing to 1/2, 1/4, 1/4.
    model, _ = train_model1(toy_corpus(), iterations=1, use_null=False)
    assert model.prob("the", "das") == pytest.approx(0.5, abs=1e-9)
    assert model.prob("house", "das") == pytest.approx(0.25, abs=1e-9)
    assert model.prob("book", "das") == pytest.approx(0.25, abs=1e-9)


def test_single_cooccurrence_is_certain():
    model, _ = train_model1([pair(0, "a", "b")], iterations=1, use_null=False)
    assert model.prob("b", "a") == pytest.approx(1.0, abs=1e-12)


def test_em_trace_is_nondecreasing_over_ten_iterations():
    _, trace = train_model1(toy_corpus(), iterations=10, use_null=False, min_gain=None)
    assert len(trace) == 10
    for earlier, later in zip(trace, trace[1:]):
        assert later >= earlier - 1e-9


def test_rows_normalize_after_every_training_run():
    rng = random.Random(17)
    words = ["w%d" % i for i in range(8)]
    corpus = [
        pair(
            i,
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 5))),
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 5))),
        )
        for i in range(20)
    ]
    model, _ = train_model1(corpus, iterations=3, use_null=True)
    rows: dict[str, dict[str, float]] = {}
    for gen, column in model.table.items():
        for cond, p in column.items():
            rows.setdefault(cond, {})[gen] = p
    for cond, row in rows.items():
        assert abs(math.fsum(row.values()) - 1.0) <= 1e-6
        assert all(0.0 <= p <= 1.0 + 1e-12 for p in row.values())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_em_monotone_on_fuzzed_corpora(seed):
    rng = random.Random(seed)
    words = ["w%d" % i for i in range(6)]
    corpus = [
        pair(
            i,
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 4))),
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 4))),
        )
        for i in range(rng.randint(1, 8))
    ]
    _, trace = train_model1(
        corpus, iterations=8, use_null=rng.random() < 0.5, min_gain=None
    )
    for earlier, later in zip(trace, trace[1:]):
        assert later >= earlier - 1e-9


def certain_table(use_null):
    table = {"haus": {"house": 1.0}}
    if use_null:
        table["haus"][NULL] = 0.0
    return LexicalTranslationModel(
        table=table, use_null=use_null, direction=Direction.FORWARD
    )


def test_certain_translation_scores_zero():
    tm = certain_table(use_null=False)
    assert cond_cross_entropy(tm, tokenize("house"), tokenize("haus")) == 0.0


def test_null_word_halves_the_token_probability():
    tm = certain_table(use_null=True)
    h = cond_cross_entropy(tm, tokenize("house"), tokenize("haus"))
    assert h == pytest.approx(math.log(2), abs=1e-9)


def test_unseen_target_word_is_floored():
    tm = certain_table(use_null=False)
    h = cond_cross_entropy(tm, tokenize("house"), tokenize("xyz"))
    assert h == pytest.approx(-math.log(PROB_FLOOR), abs=1e-9)


def test_score_never_exceeds_floor_bound():
    tm = certain_table(use_null=False)
    rng = random.Random(23)
    bound = -math.log(PROB_FLOOR) + 1e-9
    for _ in range(100):
        x = tokenize(" ".join(rng.choice(["house", "qq"]) for _ in range(3)))
        y = tokenize(" ".join(rng.choice(["haus", "zz"]) for _ in range(4)))
        assert 0.0 <= cond_cross_entropy(tm, x, y) <= bound


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    perm_seed=st.integers(min_value=0, max_value=10_000),
)
def test_bag_of_words_permutation_invariance(seed, perm_seed):
    rng = random.Random(seed)
    words = ["w%d" % i for i in range(5)]
    corpus = [
        pair(
            i,
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 4))),
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 4))),
        )
        for i in range(6)
    ]
    model, _ = train_model1(corpus, iterations=2, use_null=True)
    x = tokenize(" ".join(rng.choice(words) for _ in range(4)))
    y = tokenize(" ".join(rng.choice(words) for _ in range(4)))
    base = cond_cross_entropy(model, x, y)
    perm = random.Random(perm_seed)
    x2 = Sentence(tokens=perm.sample(x.tokens, len(x.tokens)), raw=x.raw)
    y2 = Sentence(tokens=perm.sample(y.tokens, len(y.tokens)), raw=y.raw)
    assert cond_cross_entropy(model, x2, y2) == base  # exact, not approx


def test_empty_generated_sentence_raises():
    tm = certain_table(use_null=False)
    with pytest.raises(EmptySentenceError):
        cond_cross_entropy(tm, tokenize("house"), tokenize(""))


def test_empty_source_without_null_raises():
    tm = certain_table(use_null=False)
    with pytest.raises(EmptySourceError):
        cond_cross_entropy(tm, tokenize(""), tokenize("haus"))


def test_empty_source_with_null_is_allowed():
    table = {"haus": {NULL: 0.5}, "x": {NULL: 0.5}}
    tm = LexicalTranslationModel(table=table, use_null=True, direction=Direction.FORWARD)
    h = cond_cross_entropy(tm, tokenize(""), tokenize("haus"))
    assert h == pytest.approx(-math.log(0.5), abs=1e-12)


def test_all_blank_corpus_raises():
    blanks = [pair(i, "", "") for i in range(3)]
    with pytest.raises(TrainingError):
        train_model1(blanks, iterations=1)


def test_blank_pairs_are_skipped_not_fatal():
    corpus = [pair(0, "", ""), pair(1, "a", "b")]
    model, _ = train_model1(corpus, iterations=1, use_null=False)
    assert model.prob("b", "a") == 1.0


def test_reverse_direction_swaps_roles():
    model, _ = train_model1(toy_corpus(), iterations=2, use_null=False,
                            direction=Direction.REVERSE)
    # conditioning side is now the target language
    assert "das" in model.table
    assert "the" in model.table["das"]


def test_save_load_round_trip(tmp_path):
    model, _ = train_model1(toy_corpus(), iterations=3, use_null=True)
    save_tm(model, tmp_path / "m.tm")
    loaded = load_tm(tmp_path / "m.tm")
    assert loaded.use_null == model.use_null
    assert loaded.direction == model.direction
    assert loaded.table == model.table  # repr round-trip is exact


def test_load_version_mismatch(tmp_path):
    model, _ = train_model1(toy_corpus(), iterations=1)
    save_tm(model, tmp_path / "m.tm")
    text = (tmp_path / "m.tm").read_text(encoding="utf-8")
    (tmp_path / "bad.tm").write_text(
        text.replace("lexical-tm\t1", "lexical-tm\t2", 1), encoding="utf-8"
    )
    with pytest.raises(IncompatibleModelError):
        load_tm(tmp_path / "bad.tm")


def test_external_scores_lookup(tmp_path):
    (tmp_path / "s.tsv").write_text("0\t1.5\n", encoding="utf-8")
    table = load_external_scores(tmp_path / "s.tsv")
    assert table.lookup(0) == 1.5


def test_external_scores_missing_id_on_query(tmp_path):
    (tmp_path / "s.tsv").write_text("0\t1.5\n", encoding="utf-8")
    table = load_external_scores(tmp_path / "s.tsv")
    with pytest.raises(ExternalScoreError):
        table.lookup(1)


def test_external_scores_duplicate_id(tmp_path):
    (tmp_path / "s.tsv").write_text("0\t1.5\n0\t2.0\n", encoding="utf-8")
    with pytest.raises(ExternalScoreError, match="duplicate"):
        load_external_scores(tmp_path / "s.tsv")


def test_external_scores_non_numeric(tmp_path):
    (tmp_path / "s.tsv").write_text("0\tabc\n", encoding="utf-8")
    with pytest.raises(ExternalScoreError, match="non-numeric"):
        load_external_scores(tmp_path / "s.tsv")


@pytest.mark.parametrize("bad", ["-0.5", "-1e-300", "-inf", "inf", "nan"])
def test_external_scores_reject_a_negative_or_non_finite_value_with_file_and_line(tmp_path, bad):
    (tmp_path / "s.tsv").write_text(f"0\t1.5\n1\t{bad}\n", encoding="utf-8")
    with pytest.raises(ExternalScoreError) as info:
        load_external_scores(tmp_path / "s.tsv")
    assert str(info.value) == f"{tmp_path / 's.tsv'}: line 2: score {bad!r} is not finite and >= 0"


def test_external_scores_must_be_dense(tmp_path):
    (tmp_path / "s.tsv").write_text("0\t1.0\n2\t1.0\n", encoding="utf-8")
    with pytest.raises(ExternalScoreError, match="dense"):
        load_external_scores(tmp_path / "s.tsv")


def test_external_scores_reject_a_negative_id_with_file_line_and_id(tmp_path):
    (tmp_path / "s.tsv").write_text("0\t1.0\n-1\t2.0\n", encoding="utf-8")
    with pytest.raises(ExternalScoreError) as info:
        load_external_scores(tmp_path / "s.tsv")
    assert str(info.value) == f"{tmp_path / 's.tsv'}: line 2: negative id '-1'"


@pytest.mark.parametrize(
    "bad_id", ["+2", " 3 ", "1_0", "\u0661"], ids=["plus", "spaces", "underscore", "arabic-indic"]
)
def test_external_scores_accept_only_ascii_digit_ids(tmp_path, bad_id):
    """int() takes each of these ids; a table id is ASCII digits only, so
    the table fails at the line that holds it."""
    (tmp_path / "s.tsv").write_text(f"0\t1.0\n{bad_id}\t2.0\n", encoding="utf-8")
    with pytest.raises(ExternalScoreError) as info:
        load_external_scores(tmp_path / "s.tsv")
    assert str(info.value) == f"{tmp_path / 's.tsv'}: line 2: non-integer id {bad_id!r}"


# The bulk path: a table whose line i is "i<TAB>value" loads a block at a
# time. Small blocks make a short table span many of them, with block ends
# inside lines and on line ends.
BLOCK_SIZES = [1, 7, 16, 64]
TABLE_VALUES = [round(0.37 * i % 9.5, 6) for i in range(50)]


def in_order_table(values=TABLE_VALUES):
    return "".join(f"{i}\t{v}\n" for i, v in enumerate(values))


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_in_order_table_loads_in_blocks_without_the_line_loop(tmp_path, monkeypatch, block):
    (tmp_path / "s.tsv").write_text(in_order_table(), encoding="utf-8")
    monkeypatch.setattr(lexical_tm, "TABLE_BLOCK_CHARS", block)

    def no_line_loop(path):
        raise AssertionError("an in-order table reached the line loop")

    monkeypatch.setattr(lexical_tm, "_read_any_order", no_line_loop)
    table = load_external_scores(tmp_path / "s.tsv")
    assert [table.lookup(i) for i in range(len(table))] == TABLE_VALUES
    assert table._scores.typecode == "d"  # 8 bytes per score


def test_a_table_built_from_a_list_holds_an_array():
    table = ExternalScoreTable([1, 2.5])
    assert table._scores.typecode == "d"
    assert [table.lookup(0), table.lookup(1)] == [1.0, 2.5]


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize(
    "bad, message",
    [
        ("abc", "non-numeric score 'abc'"),
        ("nan", "score 'nan' is not finite and >= 0"),
        ("-0.5", "score '-0.5' is not finite and >= 0"),
    ],
)
def test_a_bad_value_after_the_first_block_fails_with_the_line_loops_message(
    tmp_path, monkeypatch, block, bad, message
):
    values = [str(v) for v in TABLE_VALUES]
    values[40] = bad
    (tmp_path / "s.tsv").write_text(in_order_table(values), encoding="utf-8")
    monkeypatch.setattr(lexical_tm, "TABLE_BLOCK_CHARS", block)
    with pytest.raises(ExternalScoreError) as info:
        load_external_scores(tmp_path / "s.tsv")
    assert str(info.value) == f"{tmp_path / 's.tsv'}: line 41: {message}"


@pytest.mark.parametrize("block", BLOCK_SIZES)
def test_a_misaligned_table_fails_at_line_1(tmp_path, monkeypatch, block):
    # Two tabs and two lines, but one line holds both tabs.
    (tmp_path / "s.tsv").write_text("0\t0.5\t1\n0.25\n", encoding="utf-8")
    monkeypatch.setattr(lexical_tm, "TABLE_BLOCK_CHARS", block)
    with pytest.raises(ExternalScoreError) as info:
        load_external_scores(tmp_path / "s.tsv")
    assert str(info.value) == (
        f"{tmp_path / 's.tsv'}: line 1: expected 'id\\tscore', got '0\\t0.5\\t1'"
    )


@pytest.mark.parametrize("block", BLOCK_SIZES)
@pytest.mark.parametrize(
    "text",
    [
        "2\t0.75\n0\t1.5\n1\t0.25\n",  # ids out of order
        "0\t1.5\n\n1\t0.25\n2\t0.75\n",  # a blank line
        "0\t1.5\r\n1\t0.25\r\n2\t0.75\r\n",  # CRLF line ends
        "0\t1.5\n01\t0.25\n2\t0.75\n",  # an id written 01
        "0\t1.5\n1\t0.25\n2\t0.75",  # no final newline
    ],
    ids=["out-of-order", "blank-line", "crlf", "id-01", "no-final-newline"],
)
def test_other_layouts_load_the_same_values(tmp_path, monkeypatch, block, text):
    (tmp_path / "s.tsv").write_bytes(text.encode("utf-8"))
    monkeypatch.setattr(lexical_tm, "TABLE_BLOCK_CHARS", block)
    table = load_external_scores(tmp_path / "s.tsv")
    assert [table.lookup(i) for i in range(len(table))] == [1.5, 0.25, 0.75]


# ---------------------------------------------------------------------------
# Reference implementations: the string-keyed, cond-major loops the gen-major
# table replaced. The kernels must agree with them exactly, not approximately.
# ---------------------------------------------------------------------------


def reference_cond_cross_entropy(cond_major, use_null, x, y):
    cond_tokens = [NULL] + x.tokens if use_null else x.tokens
    norm = len(cond_tokens)
    log_probs = []
    for g in y.tokens:
        mass = math.fsum(cond_major.get(c, {}).get(g, 0.0) for c in cond_tokens)
        log_probs.append(math.log(max(mass / norm, PROB_FLOOR)))
    return -math.fsum(log_probs) / len(y.tokens)


def reference_train_model1(oriented, iterations):
    """Cond-major EM from uniform initialization over (cond tokens, gen tokens)."""
    cooc = {}
    for cond_tokens, gen_tokens in oriented:
        for c in cond_tokens:
            cooc.setdefault(c, set()).update(gen_tokens)
    table = {}
    for cond_tokens, gen_tokens in oriented:
        for c in cond_tokens:
            row = table.setdefault(c, {})
            for g in gen_tokens:
                if g not in row:
                    row[g] = 1.0 / len(cooc[c])
    for _ in range(iterations):
        counts = {c: {} for c in table}
        totals = {c: 0.0 for c in table}
        for cond_tokens, gen_tokens in oriented:
            for g in gen_tokens:
                z = 0.0
                for c in cond_tokens:
                    z += table[c][g]
                for c in cond_tokens:
                    share = table[c][g] / z
                    counts[c][g] = counts[c].get(g, 0.0) + share
                    totals[c] += share
        for c, row in counts.items():
            table[c] = {g: v / totals[c] for g, v in row.items()}
    return table


def gen_major(cond_major):
    table = {}
    for cond, row in cond_major.items():
        for gen, p in row.items():
            table.setdefault(gen, {})[cond] = p
    return table


TABLE_WORDS = ["a", "b", "c", "d"]
# "oov" is in no table; words repeat freely on both sides.
SENTENCE_WORDS = st.sampled_from(TABLE_WORDS + ["oov"])


@st.composite
def random_tm_case(draw):
    use_null = draw(st.booleans())
    conds = TABLE_WORDS + ([NULL] if use_null else [])
    probs = st.floats(min_value=0.0, max_value=1.0)
    cond_major = {
        c: {g: draw(probs) for g in draw(st.sets(st.sampled_from(TABLE_WORDS)))}
        for c in draw(st.sets(st.sampled_from(conds)))
    }
    # An empty source is valid only with the NULL word.
    x = draw(st.lists(SENTENCE_WORDS, min_size=0 if use_null else 1, max_size=8))
    y = draw(st.lists(SENTENCE_WORDS, min_size=1, max_size=8))
    return cond_major, use_null, Sentence(x, " ".join(x)), Sentence(y, " ".join(y))


@settings(max_examples=300, deadline=None)
@given(case=random_tm_case())
@example(  # an empty source scored against the NULL word alone
    case=(
        {NULL: {"a": 0.25, "b": 0.75}, "a": {"a": 1.0}},
        True,
        tokenize(""),
        tokenize("a b b oov"),
    )
)
def test_gen_major_kernel_equals_cond_major_reference(case):
    cond_major, use_null, x, y = case
    tm = LexicalTranslationModel(
        table=gen_major(cond_major), use_null=use_null, direction=Direction.FORWARD
    )
    assert cond_cross_entropy(tm, x, y) == reference_cond_cross_entropy(
        cond_major, use_null, x, y
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    use_null=st.booleans(),
    direction=st.sampled_from(list(Direction)),
)
def test_em_table_equals_cond_major_reference(seed, use_null, direction):
    rng = random.Random(seed)
    words = ["w%d" % i for i in range(6)]
    corpus = [
        pair(
            i,
            " ".join(rng.choice(words) for _ in range(rng.randint(0, 5))),
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 5))),
        )
        for i in range(rng.randint(1, 8))
    ]
    oriented = []
    for p in corpus:
        cond, gen = (p.src, p.tgt) if direction is Direction.FORWARD else (p.tgt, p.src)
        if cond.tokens and gen.tokens:
            oriented.append(([NULL] + cond.tokens if use_null else cond.tokens, gen.tokens))
    assume(oriented)  # otherwise training rightly fails: no usable pair
    model, trace = train_model1(
        corpus, iterations=4, use_null=use_null, direction=direction, min_gain=None
    )
    assert len(trace) == 4
    assert model.table == gen_major(reference_train_model1(oriented, 4))  # exact


def test_cond_sorted_file_loads_to_the_saved_table(tmp_path):
    model, _ = train_model1(toy_corpus(), iterations=3, use_null=True)
    save_tm(model, tmp_path / "gen.tm")
    lines = (tmp_path / "gen.tm").read_text(encoding="utf-8").splitlines(keepends=True)
    header, rows = lines[:4], lines[4:]
    cond_sorted = sorted(rows, key=lambda row: row.split("\t")[:2])
    assert cond_sorted != rows  # the older (cond, gen) row order really differs
    (tmp_path / "cond.tm").write_text("".join(header + cond_sorted), encoding="utf-8")
    assert load_tm(tmp_path / "cond.tm").table == load_tm(tmp_path / "gen.tm").table


def test_save_writes_rows_in_gen_cond_order(tmp_path):
    model, _ = train_model1(toy_corpus(), iterations=2, use_null=True)
    save_tm(model, tmp_path / "m.tm")
    rows = (tmp_path / "m.tm").read_text(encoding="utf-8").splitlines()[4:]
    keys = [tuple(reversed(row.split("\t")[:2])) for row in rows]
    assert keys == sorted(keys)
    assert len(rows) == sum(len(column) for column in model.table.values())


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-0.5", "1.5", "abc"])
def test_load_rejects_a_bad_probability_with_file_and_line(tmp_path, bad):
    model, _ = train_model1(toy_corpus(), iterations=1)
    save_tm(model, tmp_path / "m.tm")
    lines = (tmp_path / "m.tm").read_text(encoding="utf-8").splitlines()
    cond, gen, _ = lines[6].split("\t")
    lines[6] = f"{cond}\t{gen}\t{bad}"
    (tmp_path / "bad.tm").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ModelFormatError, match=rf"bad\.tm: line 7: .*{bad}"):
        load_tm(tmp_path / "bad.tm")


def test_load_rejects_a_row_of_wrong_arity_with_file_and_line(tmp_path):
    model, _ = train_model1(toy_corpus(), iterations=1)
    save_tm(model, tmp_path / "m.tm")
    lines = (tmp_path / "m.tm").read_text(encoding="utf-8").splitlines()
    lines[5] = "only\ttwo"
    (tmp_path / "bad.tm").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ModelFormatError, match=r"bad\.tm: line 6: expected"):
        load_tm(tmp_path / "bad.tm")


def test_load_rejects_a_repeated_row_naming_both_lines(tmp_path):
    (tmp_path / "dup.tm").write_text(
        "lexical-tm\t1\ndirection\tfwd\nnull\t0\nrows\t3\n"
        "a\tx\t0.25\na\ty\t0.75\na\tx\t0.5\n",
        encoding="utf-8",
    )
    with pytest.raises(ModelFormatError, match=r"dup\.tm: line 7: .*line 5"):
        load_tm(tmp_path / "dup.tm")


# ---------------------------------------------------------------------------
# One string object per word: every table holds each conditioning word once,
# and scoring gives the same floats whether or not a query shares its strings.
# ---------------------------------------------------------------------------


def random_corpus(seed, n_pairs=30):
    rng = random.Random(seed)
    src_words = ["src%d" % i for i in range(12)]
    tgt_words = ["tgt%d" % i for i in range(12)]
    return [
        pair(
            i,
            " ".join(rng.choice(src_words) for _ in range(rng.randint(1, 6))),
            " ".join(rng.choice(tgt_words) for _ in range(rng.randint(1, 6))),
        )
        for i in range(n_pairs)
    ]


def assert_one_object_per_cond_word(table):
    conds = [c for column in table.values() for c in column]
    assert len({id(c) for c in conds}) == len(set(conds))


@pytest.mark.parametrize("use_null", [True, False])
@pytest.mark.parametrize("direction", list(Direction))
def test_trained_and_loaded_tables_hold_one_string_per_word(tmp_path, use_null, direction):
    model, _ = train_model1(random_corpus(3), iterations=2, use_null=use_null, direction=direction)
    assert_one_object_per_cond_word(model.table)
    save_tm(model, tmp_path / "m.tm")
    loaded = load_tm(tmp_path / "m.tm")
    assert_one_object_per_cond_word(loaded.table)
    assert loaded.table == model.table


def test_scores_do_not_depend_on_query_string_identity(tmp_path):
    model, _ = train_model1(random_corpus(4), iterations=3, use_null=True)
    save_tm(model, tmp_path / "m.tm")
    tm = load_tm(tmp_path / "m.tm")
    same = {w: w for w in tm.table}
    same.update((c, c) for column in tm.table.values() for c in column)
    for p in random_corpus(5, n_pairs=20) + [pair(99, "src1 unseen", "tgt2 other")]:
        fresh_x = Sentence(["".join(list(w)) for w in p.src.tokens], p.src.raw)
        fresh_y = Sentence(["".join(list(w)) for w in p.tgt.tokens], p.tgt.raw)
        shared_x = Sentence([same.get(w, w) for w in p.src.tokens], p.src.raw)
        shared_y = Sentence([same.get(w, w) for w in p.tgt.tokens], p.tgt.raw)
        assert all(a is not b for a, b in zip(fresh_x.tokens, shared_x.tokens))
        assert cond_cross_entropy(tm, fresh_x, fresh_y) == cond_cross_entropy(
            tm, shared_x, shared_y
        )


# ---------------------------------------------------------------------------
# EM's working set: the uniform start is counted from the table itself, so
# training holds little beyond the table, its counts and the oriented lists.
# ---------------------------------------------------------------------------


def zipf_corpus(n_pairs, seed, vocab=1000):
    """Word-for-word pairs over Zipf-weighted words with log-normal lengths."""
    rng = random.Random(seed)
    weights = [1 / (rank + 1) for rank in range(vocab)]
    corpus = []
    for i in range(n_pairs):
        length = max(2, min(80, round(rng.lognormvariate(2.2, 0.55))))
        ranks = rng.choices(range(vocab), weights, k=length)
        corpus.append(
            pair(i, " ".join(f"s{r}" for r in ranks), " ".join(f"t{r}" for r in ranks))
        )
    return corpus


def test_em_peak_stays_within_a_small_multiple_of_its_table():
    corpus = zipf_corpus(500, seed=11)
    # Interns the corpus's words first, so no growth of the interpreter's
    # intern table is counted as part of the model.
    train_model1(corpus, iterations=1)
    tracemalloc.start()  # traces only what training allocates
    try:
        model, _ = train_model1(corpus, iterations=2, min_gain=None)
        table_bytes, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, model.table.values())) > 10_000
    # Per-word co-occurrence sets kept beside the table push this past 3.3x.
    assert peak <= 2.75 * table_bytes
