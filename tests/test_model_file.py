"""Load errors of the two model-file loaders, how they and the readers of the
id-keyed files (score files, external score tables, labels files) behave on
damaged files, and the id rule those three readers share."""

import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pairsieve.corpus import SentencePair, tokenize
from pairsieve import model_file
from pairsieve.errors import (
    ExternalScoreError,
    IncompatibleModelError,
    ModelFormatError,
    StructuralError,
)
from pairsieve.lexical_tm import load_external_scores, load_tm, save_tm, train_model1
from pairsieve.ngram_lm import load_lm, save_lm, train_ngram
from pairsieve.noise import read_labels
from pairsieve.scoring import SCORE_HEADER, ScoreRecord, format_record, read_score_file

from score_records import write_score_file


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


@pytest.mark.parametrize(
    "kind, edit, line_no, name",
    [
        ("tm", replace(3, "rows\t" + "9" * 30), 8, "row"),
        ("lm", replace(3, "vocab\t" + "9" * 30), 11, "vocab"),
        ("lm", replace(7, "ngrams\t" + "9" * 30), 11, "n-gram"),
    ],
    ids=["tm-rows", "lm-vocab", "lm-ngrams"],
)
def test_a_count_beyond_sys_maxsize_is_a_truncated_section(tmp_path, kind, edit, line_no, name):
    """A count no file can meet fails as a short section at the end of the
    file, like any other count the file does not meet."""
    load, lines = LOADERS[kind]
    path = write_model(tmp_path, kind, edit(list(lines)))
    message = rf"^{path}: line {line_no}: truncated {name} section$"
    with pytest.raises(ModelFormatError, match=message):
        load(path)


def test_every_header_must_carry_its_key(tmp_path):
    """A header is found by its key, not by its position alone."""
    path = write_model(tmp_path, "tm", replace(1, "dir\tfwd")(list(TM_LINES)))
    with pytest.raises(ModelFormatError, match=rf"^{path}: line 2: .*'direction'"):
        load_tm(path)


def large_model_lines(kind):
    """A valid model file of well over 8 KiB, the size of one decode buffer."""
    if kind == "tm":
        rows = [f"x\tw{i}\t0.0005" for i in range(2000)]  # t(. | x) sums to 1
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
            ScoreRecord(1, 0.5, 0.75, 3.0, 3.25, 1.0, 1.0, 1.0, flags="trusted"),
            ScoreRecord(2, nan, nan, nan, nan, 0.0, 0.0, 0.0, flags="blank_src,overlength_tgt"),
            ScoreRecord(3, 12.0, 0.125, 9.5, 2.0, 1.23e-9, 0.000553084, 6.80293e-13),
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


@pytest.fixture(scope="module")
def saved_id_keyed(tmp_path_factory):
    root = tmp_path_factory.mktemp("id-keyed")
    values = ["1.5", "0.25", "12", "3e-05", "0", "7.125"]
    (root / "m.tab").write_text(
        "".join(f"{i}\t{v}\n" for i, v in enumerate(values)), encoding="utf-8"
    )
    (root / "m.labels").write_text(
        "0\tclean\t-\n1\tcorrupted\tshuffle\n2\tclean\t-\n"
        "3\tcorrupted\tmisalign\n4\tcorrupted\twrong_language\n5\tclean\t-\n",
        encoding="utf-8",
    )
    return root


@settings(max_examples=300, deadline=None)
@given(block=st.sampled_from([7, model_file.BLOCK_CHARS]),
       mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_a_damaged_table_loads_or_raises_external_score_error(saved_id_keyed, block, mutations):
    """A table loads one score per line, each finite and >= 0, or fails."""
    path = saved_id_keyed / "mutated.tab"
    data = mutate((saved_id_keyed / "m.tab").read_bytes(), mutations)
    path.write_bytes(data)
    try:
        with mock.patch.object(model_file, "BLOCK_CHARS", block):
            table = load_external_scores(path)
    except ExternalScoreError:
        return
    scores = [table.lookup(i) for i in range(len(table))]
    assert len(scores) == len(data.decode("utf-8").splitlines())
    assert all(0.0 <= score < float("inf") for score in scores)


@settings(max_examples=300, deadline=None)
@given(mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_a_damaged_labels_file_reads_or_raises_structural_error(saved_id_keyed, mutations):
    """A labels file reads to one label per line, or fails."""
    path = saved_id_keyed / "mutated.labels"
    data = mutate((saved_id_keyed / "m.labels").read_bytes(), mutations)
    path.write_bytes(data)
    try:
        labels = read_labels(path)
    except StructuralError:
        return
    assert len(labels) == len(data.decode("utf-8").splitlines())


# Each id-keyed format: its text for a list of ids, its reader, its error type
# and the line its first record is on.
ID_KEYED = {
    "score-file": (
        lambda ids: "\t".join(SCORE_HEADER) + "\n"
        + "".join(f"{i}\t1\t1\t1\t1\t0.5\t0.5\t0.25\t-\n" for i in ids),
        lambda path: list(read_score_file(path)),
        ModelFormatError,
        2,
    ),
    "table": (
        lambda ids: "".join(f"{i}\t1.5\n" for i in ids),
        load_external_scores,
        ExternalScoreError,
        1,
    ),
    "labels": (
        lambda ids: "".join(f"{i}\tclean\t-\n" for i in ids),
        read_labels,
        StructuralError,
        1,
    ),
}
# (name, ids, position of the first bad id)
ID_CASES = [
    ("repeated", ["0", "1", "1"], 2),
    ("skipped", ["0", "2", "1"], 1),
    ("from-1", ["1", "2", "3"], 0),
    ("negative", ["0", "-1"], 1),
]
# Ids that int() reads as 1 or 10, but that are not written str(1) or str(10).
TEXT_ID_CASES = [
    ("plus", ["0", "+1"], 1),
    ("zero-padded", ["0", "01"], 1),
    ("arabic-indic", ["0", "\u0661"], 1),
    ("underscore", ["0", "1_0"], 1),
    ("spaces", ["0", " 1 "], 1),
]
ID_READERS = [("score-file", None), ("labels", None), *(("table", b) for b in (1, 7, 16, 64))]
ID_RULE_PARAMS = [
    pytest.param(fmt, block, ids, bad, id=f"{fmt}{f'-{block}' if block else ''}-{name}")
    for fmt, block in ID_READERS
    for name, ids, bad in ID_CASES + TEXT_ID_CASES
]


@pytest.mark.parametrize("fmt, block, ids, bad", ID_RULE_PARAMS)
def test_every_id_keyed_reader_fails_at_the_first_id_off_the_rule(
    tmp_path, monkeypatch, fmt, block, ids, bad
):
    """Ids count 0, 1, 2, ... in line order in every id-keyed file, and each
    reader words a break of that rule alike, at every table block size."""
    text_of, read, error, first_line = ID_KEYED[fmt]
    path = tmp_path / "f.tsv"
    path.write_text(text_of(ids), encoding="utf-8")
    if block:
        monkeypatch.setattr(model_file, "BLOCK_CHARS", block)
    with pytest.raises(error) as info:
        read(path)
    assert str(info.value) == (
        f"{path}: line {first_line + bad}: id {ids[bad]}, expected {bad}; "
        "ids count 0, 1, 2, ... in line order"
    )


# Each id-keyed format for the block tests: its header, record i's valid
# line, a line for record i that the format's converter rejects and the
# reader's words for it, what a read returns (as plain values), the reader's
# error type and the line record 0 is on.
BLOCK_FORMATS = {
    "score-file": (
        "\t".join(SCORE_HEADER) + "\n",
        lambda i: f"{i}\t{i / 8:g}\t1\t1\t1\t0.5\t0.5\t0.25\t-",
        lambda i: f"{i}\t1\t1\t1\t1\t0.5\t0.5\t0.9\t-",
        "combined '0.9' is not adq * dom (0.5 * 0.5) to 6 significant digits",
        lambda path: [format_record(record) for record in read_score_file(path)],
        ModelFormatError,
        2,
    ),
    "table": (
        "",
        lambda i: f"{i}\t{i / 4}",
        lambda i: f"{i}\t-0.5",
        "score '-0.5' is not finite and >= 0",
        lambda path: list(load_external_scores(path)._scores),
        ExternalScoreError,
        1,
    ),
    "labels": (
        "",
        lambda i: f"{i}\tcorrupted\tshuffle" if i % 3 == 1 else f"{i}\tclean\t-",
        lambda i: f"{i}\tcorrupted\t-",
        "corrupted pair with kind '-'; a clean pair has kind '-' and a corrupted one names"
        " its kind",
        read_labels,
        StructuralError,
        1,
    ),
}
BLOCK_PARAMS = [
    pytest.param(fmt, block, id=f"{fmt}-{block}")
    for fmt in BLOCK_FORMATS
    for block in (1, 7, 64, model_file.BLOCK_CHARS)
]
N_RECORDS = 50


def block_file(tmp_path, fmt, edits=(), newline="\n", final_newline=True):
    """A file of N_RECORDS records in ``fmt``, record i's line replaced by
    ``edits[i]`` where given."""
    header, good = BLOCK_FORMATS[fmt][:2]
    edits = dict(edits)
    lines = [edits.get(i, good(i)) for i in range(N_RECORDS)]
    text = header + "\n".join(lines) + ("\n" if final_newline else "")
    path = tmp_path / f"f.{fmt}"
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))
    return path


@pytest.mark.parametrize("fmt, block", BLOCK_PARAMS)
def test_a_bad_line_after_the_first_block_is_named_by_its_line(tmp_path, monkeypatch, fmt, block):
    _, _, bad, message, read, error, first = BLOCK_FORMATS[fmt]
    path = block_file(tmp_path, fmt, {40: bad(40)})
    monkeypatch.setattr(model_file, "BLOCK_CHARS", block)
    with pytest.raises(error) as info:
        read(path)
    assert str(info.value) == f"{path}: line {first + 40}: {message}"


@pytest.mark.parametrize("fmt, block", BLOCK_PARAMS)
def test_of_two_faults_the_earlier_is_named(tmp_path, monkeypatch, fmt, block):
    """The later fault, an extra column, is the one a block check meets
    first; the error still names the earlier line."""
    _, good, bad, message, read, error, first = BLOCK_FORMATS[fmt]
    path = block_file(tmp_path, fmt, {30: bad(30), 45: good(45) + "\textra"})
    monkeypatch.setattr(model_file, "BLOCK_CHARS", block)
    with pytest.raises(error) as info:
        read(path)
    assert str(info.value) == f"{path}: line {first + 30}: {message}"


@pytest.mark.parametrize("fmt, block", BLOCK_PARAMS)
def test_a_blank_last_line_fails_at_its_line(tmp_path, monkeypatch, fmt, block):
    """At block size 1 the blank line is a block of its own, which holds no
    record and must still fail."""
    _, _, _, _, read, error, first = BLOCK_FORMATS[fmt]
    path = block_file(tmp_path, fmt)
    path.write_bytes(path.read_bytes() + b"\n")
    monkeypatch.setattr(model_file, "BLOCK_CHARS", block)
    with pytest.raises(error) as info:
        read(path)
    columns = BLOCK_FORMATS[fmt][1](0).count("\t") + 1
    assert str(info.value) == f"{path}: line {first + N_RECORDS}: expected {columns} columns, found 1"


@pytest.mark.parametrize("fmt, block", BLOCK_PARAMS)
@pytest.mark.parametrize("layout", ["crlf", "no-final-newline"])
def test_crlf_and_a_missing_final_newline_read_the_same_values(
    tmp_path, monkeypatch, fmt, block, layout
):
    read = BLOCK_FORMATS[fmt][4]
    expected = read(block_file(tmp_path, fmt))
    assert len(expected) == N_RECORDS
    if layout == "crlf":
        path = block_file(tmp_path, fmt, newline="\r\n")
    else:
        path = block_file(tmp_path, fmt, final_newline=False)
    monkeypatch.setattr(model_file, "BLOCK_CHARS", block)
    assert read(path) == expected


def test_loading_a_table_holds_little_more_than_the_table(tmp_path):
    """A load reads the file forward and keeps no list of its lines, so its
    traced peak stays within half again of the memory the loaded table keeps."""
    gens, conds = 250, 200
    rows = [
        f"c{c}\tg{g}\t{(g + 1) / (gens * (gens + 1) / 2)!r}\n"
        for g in range(gens)
        for c in range(conds)
    ]
    path = tmp_path / "big.tm"
    path.write_text(f"lexical-tm\t1\ndirection\tfwd\nnull\t0\nrows\t{len(rows)}\n" + "".join(rows))
    del rows
    tracemalloc.start()
    try:
        tm = load_tm(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, tm.table.values())) == gens * conds >= 50_000
    assert peak < 1.5 * kept
