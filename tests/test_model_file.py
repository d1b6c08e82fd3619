"""Load errors of the two model-file loaders, and how they and the score-file
reader behave on damaged files."""

import pytest
from hypothesis import given, settings, strategies as st

from pairsieve.corpus import SentencePair, tokenize
from pairsieve.errors import IncompatibleModelError, ModelFormatError
from pairsieve.lexical_tm import load_tm, save_tm, train_model1
from pairsieve.ngram_lm import load_lm, save_lm, train_ngram
from pairsieve.scoring import ScoreRecord, read_score_file, write_score_file

TM_LINES = [
    "lexical-tm\t1",
    "direction\tfwd",
    "null\t0",
    "rows\t3",
    "a\tx\t0.25",
    "a\ty\t0.75",
    "b\tx\t1.0",
]

LM_LINES = [
    "ngram-lm\t1",
    "order\t2",
    "k\t0.5",
    "vocab\t3",
    "</s>",
    "<s>",
    "a",
    "ngrams\t2",
    "<s> a\t1",
    "a </s>\t1",
]


def replace(index, *new):
    """An edit that puts ``new`` (zero or more lines) in place of line ``index``."""
    return lambda lines: lines[:index] + list(new) + lines[index + 1:]


def keep(n):
    return lambda lines: lines[:n]


# (id, loader, edit of the valid file, error type, 1-based line or None for
# an error that names the file alone)
LOAD_ERRORS = [
    ("tm-empty", "tm", keep(0), ModelFormatError, 1),
    ("tm-version", "tm", replace(0, "lexical-tm\t2"), IncompatibleModelError, 1),
    ("tm-magic", "tm", replace(0, "ngram-lm\t1"), IncompatibleModelError, 1),
    ("tm-magic-fields", "tm", replace(0, "lexical-tm"), IncompatibleModelError, 1),
    ("tm-no-direction", "tm", keep(1), ModelFormatError, 2),
    ("tm-direction-value", "tm", replace(1, "direction\tsideways"), ModelFormatError, 2),
    ("tm-direction-fields", "tm", replace(1, "direction"), ModelFormatError, 2),
    ("tm-no-null", "tm", keep(2), ModelFormatError, 3),
    ("tm-null-value", "tm", replace(2, "null\t2"), ModelFormatError, 3),
    ("tm-null-key", "tm", replace(2, "nul\t0"), ModelFormatError, 3),
    ("tm-no-rows", "tm", keep(3), ModelFormatError, 4),
    ("tm-rows-key", "tm", replace(3, "row\t3"), ModelFormatError, 4),
    ("tm-rows-value", "tm", replace(3, "rows\tthree"), ModelFormatError, 4),
    ("tm-rows-truncated", "tm", keep(6), ModelFormatError, 7),
    ("tm-rows-trailing", "tm", replace(6, "b\tx\t1.0", "c\tx\t1.0"), ModelFormatError, 8),
    ("tm-row-repeated", "tm", replace(6, "a\tx\t0.5"), ModelFormatError, 7),
    ("tm-row-two-fields", "tm", replace(5, "a\ty"), ModelFormatError, 6),
    ("tm-row-four-fields", "tm", replace(5, "a\ty\t0.75\t1"), ModelFormatError, 6),
    ("tm-row-text-prob", "tm", replace(5, "a\ty\tabc"), ModelFormatError, 6),
    ("tm-row-nan-prob", "tm", replace(5, "a\ty\tnan"), ModelFormatError, 6),
    ("tm-row-big-prob", "tm", replace(5, "a\ty\t1.5"), ModelFormatError, 6),
    ("tm-row-negative-prob", "tm", replace(5, "a\ty\t-0.5"), ModelFormatError, 6),
    ("lm-empty", "lm", keep(0), ModelFormatError, 1),
    ("lm-version", "lm", replace(0, "ngram-lm\t9"), IncompatibleModelError, 1),
    ("lm-magic", "lm", replace(0, "lexical-tm\t1"), IncompatibleModelError, 1),
    ("lm-no-order", "lm", keep(1), ModelFormatError, 2),
    ("lm-order-key", "lm", replace(1, "ord\t2"), ModelFormatError, 2),
    ("lm-order-value", "lm", replace(1, "order\ttwo"), ModelFormatError, 2),
    ("lm-order-zero", "lm", replace(1, "order\t0"), ModelFormatError, 2),
    ("lm-no-k", "lm", keep(2), ModelFormatError, 3),
    ("lm-k-key", "lm", replace(2, "kk\t0.5"), ModelFormatError, 3),
    ("lm-k-value", "lm", replace(2, "k\thalf"), ModelFormatError, 3),
    ("lm-k-zero", "lm", replace(2, "k\t0"), ModelFormatError, 3),
    ("lm-k-inf", "lm", replace(2, "k\tinf"), ModelFormatError, 3),
    ("lm-no-vocab", "lm", keep(3), ModelFormatError, 4),
    ("lm-vocab-key", "lm", replace(3, "vocabulary\t3"), ModelFormatError, 4),
    ("lm-vocab-value", "lm", replace(3, "vocab\tthree"), ModelFormatError, 4),
    ("lm-vocab-zero", "lm", replace(3, "vocab\t0"), ModelFormatError, 4),
    ("lm-vocab-truncated", "lm", keep(6), ModelFormatError, 7),
    ("lm-vocab-repeated", "lm", replace(6, "<s>"), ModelFormatError, 7),
    ("lm-no-ngrams", "lm", keep(7), ModelFormatError, 8),
    ("lm-ngrams-key", "lm", replace(7, "ngram\t2"), ModelFormatError, 8),
    ("lm-ngrams-value", "lm", replace(7, "ngrams\ttwo"), ModelFormatError, 8),
    ("lm-ngrams-truncated", "lm", keep(9), ModelFormatError, 10),
    ("lm-ngrams-trailing", "lm", replace(9, "a </s>\t1", "<s> </s>\t1"), ModelFormatError, 11),
    ("lm-ngram-repeated", "lm", replace(9, "<s> a\t2"), ModelFormatError, 10),
    ("lm-row-one-field", "lm", replace(8, "<s> a"), ModelFormatError, 9),
    ("lm-row-three-fields", "lm", replace(8, "<s> a\t1\t1"), ModelFormatError, 9),
    ("lm-row-text-count", "lm", replace(8, "<s> a\tone"), ModelFormatError, 9),
    ("lm-row-float-count", "lm", replace(8, "<s> a\t1.0"), ModelFormatError, 9),
    ("lm-row-negative-count", "lm", replace(8, "<s> a\t-1"), ModelFormatError, 9),
    ("lm-row-arity", "lm", replace(8, "a\t1"), ModelFormatError, 9),
    ("lm-count-beyond-float", "lm", replace(8, f"<s> a\t{10 ** 400}"), ModelFormatError, None),
]

LOADERS = {"tm": (load_tm, TM_LINES), "lm": (load_lm, LM_LINES)}


def write_model(tmp_path, kind, lines):
    path = tmp_path / f"bad.{kind}"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


@pytest.mark.parametrize("kind", ["tm", "lm"])
def test_the_unedited_files_load(tmp_path, kind):
    load, lines = LOADERS[kind]
    load(write_model(tmp_path, kind, lines))


@pytest.mark.parametrize(
    "kind, edit, error, line_no",
    [case[1:] for case in LOAD_ERRORS],
    ids=[case[0] for case in LOAD_ERRORS],
)
def test_each_load_error_names_its_file_and_line(tmp_path, kind, edit, error, line_no):
    load, lines = LOADERS[kind]
    path = write_model(tmp_path, kind, edit(list(lines)))
    with pytest.raises(error) as info:
        load(path)
    assert type(info.value) is error
    message = str(info.value)
    if line_no is None:
        assert message.startswith(f"{path}: ") and "line" not in message
    else:
        assert message.startswith(f"{path}: line {line_no}: ")


@pytest.mark.parametrize(
    "kind, edit, line_no, key",
    [
        ("tm", replace(3, "rows\t-1"), 4, "rows"),
        ("lm", replace(3, "vocab\t-1"), 4, "vocab"),
        ("lm", replace(7, "ngrams\t-1"), 8, "ngrams"),
    ],
    ids=["tm-rows", "lm-vocab", "lm-ngrams"],
)
def test_a_negative_count_header_names_its_file_and_line(tmp_path, kind, edit, line_no, key):
    load, lines = LOADERS[kind]
    path = write_model(tmp_path, kind, edit(list(lines)))
    with pytest.raises(ModelFormatError, match=rf"^{path}: line {line_no}: .*{key}.*-1"):
        load(path)


def test_every_header_must_carry_its_key(tmp_path):
    """A header is found by its key, not by its position alone."""
    path = write_model(tmp_path, "tm", replace(1, "dir\tfwd")(list(TM_LINES)))
    with pytest.raises(ModelFormatError, match=rf"^{path}: line 2: .*'direction'"):
        load_tm(path)


def large_model_lines(kind):
    """A valid model file of well over 8 KiB, the size of one decode buffer."""
    if kind == "tm":
        rows = [f"w{i}\tx\t0.0005" for i in range(2000)]
        return TM_LINES[:3] + [f"rows\t{len(rows)}"] + rows
    words = [f"w{i}" for i in range(2000)]
    vocab = sorted(["</s>", "<s>", *words])
    rows = [f"<s> {w}\t1" for w in sorted(words)]
    return LM_LINES[:3] + [f"vocab\t{len(vocab)}", *vocab, f"ngrams\t{len(rows)}", *rows]


@pytest.mark.parametrize("kind", ["tm", "lm"])
@pytest.mark.parametrize("where", ["first-data-line", "last-line"])
def test_invalid_utf8_in_a_model_names_its_file_and_line(tmp_path, kind, where):
    load, _ = LOADERS[kind]
    lines = large_model_lines(kind)
    path = write_model(tmp_path, kind, lines)
    load(path)
    assert path.stat().st_size > 8192
    index = 4 if where == "first-data-line" else len(lines) - 1
    encoded = [line.encode("utf-8") for line in lines]
    encoded[index] = b"\xff" + encoded[index]
    path.write_bytes(b"".join(line + b"\n" for line in encoded))
    with pytest.raises(ModelFormatError, match=rf"^{path}: line {index + 1}: invalid UTF-8"):
        load(path)


def toy_pairs():
    texts = [
        ("das haus ist klein", "the house is small"),
        ("das buch ist gut", "the book is good"),
        ("ein haus", "a house"),
        ("ein kleines buch", "a small book"),
    ]
    return [SentencePair(i, tokenize(s), tokenize(t)) for i, (s, t) in enumerate(texts)]


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    root = tmp_path_factory.mktemp("saved")
    tm, _ = train_model1(toy_pairs(), iterations=2)
    save_tm(tm, root / "m.tm")
    lm = train_ngram([p.tgt for p in toy_pairs()], order=2, k=0.5, vocab_min_count=1)
    save_lm(lm, root / "m.lm")
    return root


PIECES = [b"\t", b"\n", b"-", *(str(d).encode() for d in range(10)),
          b"nan", b"1e400", b"\xff", b"\xc3"]
POSITION = st.integers(min_value=0, max_value=10 ** 6)
MUTATION = st.one_of(
    st.tuples(st.just("delete"), POSITION, st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("insert"), POSITION, st.sampled_from(PIECES)),
    st.tuples(st.just("line"), POSITION,
              st.lists(st.sampled_from([*PIECES, b"a", b" ", b"<s>"]), max_size=6)),
    st.tuples(st.just("copy-line"), POSITION, POSITION),
)


def mutate(data, mutations):
    """Apply byte deletions and insertions and line replacements, in order."""
    for op, pos, arg in mutations:
        if op == "delete":
            pos %= len(data) + 1
            data = data[:pos] + data[pos + arg:]
        elif op == "insert":
            pos %= len(data) + 1
            data = data[:pos] + arg + data[pos:]
        else:
            lines = data.split(b"\n")
            new = b"".join(arg) if op == "line" else lines[arg % len(lines)]
            lines[pos % len(lines)] = new
            data = b"\n".join(lines)
    return data


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["tm", "lm"]), mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_a_damaged_model_file_loads_or_raises_model_format_error(saved_models, kind, mutations):
    path = saved_models / f"mutated.{kind}"
    path.write_bytes(mutate((saved_models / f"m.{kind}").read_bytes(), mutations))
    try:
        LOADERS[kind][0](path)
    except ModelFormatError:
        pass


@pytest.fixture(scope="module")
def saved_scores(tmp_path_factory):
    root = tmp_path_factory.mktemp("scores")
    nan = float("nan")
    write_score_file(
        [
            ScoreRecord(0, 1.5, 2.25, 4.0, 3.5, 0.0907180, 0.606531, 0.0550232),
            ScoreRecord(1, 0.5, 0.75, 3.0, 3.25, 1.0, 1.0, 1.0, trusted=True),
            ScoreRecord(2, nan, nan, nan, nan, 0.0, 0.0, 0.0, flags=("blank_src", "overlength_tgt")),
            ScoreRecord(3, 12.0, 0.125, 9.5, 2.0, 1.23e-9, 0.000553084, 6.8e-13),
        ],
        root / "m.scores.tsv",
    )
    return root


@settings(max_examples=300, deadline=None)
@given(mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_a_damaged_score_file_parses_or_raises_model_format_error(saved_scores, mutations):
    path = saved_scores / "mutated.scores.tsv"
    path.write_bytes(mutate((saved_scores / "m.scores.tsv").read_bytes(), mutations))
    try:
        list(read_score_file(path))
    except ModelFormatError:
        pass
