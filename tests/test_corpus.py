import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from pairsieve.corpus import (
    corpus_offsets,
    open_corpus,
    read_rows,
    sample,
    tokenize,
    write_parallel,
)
from pairsieve.errors import CorpusFormatError


def test_tokenize_lowercases_and_splits():
    s = tokenize("Das  Haus", lowercase=True)
    assert s.tokens == ["das", "haus"]
    assert s.raw == "Das  Haus"


def test_tokenize_empty_line():
    assert tokenize("", lowercase=True).tokens == []
    assert tokenize("", lowercase=False).is_blank


def test_tokenize_tab_is_whitespace():
    assert tokenize("a\tb c", lowercase=False).tokens == ["a", "b", "c"]


@given(st.text())
def test_tokenize_retokenization_is_idempotent(line):
    tokens = tokenize(line, lowercase=False).tokens
    rejoined = " ".join(tokens)
    assert tokenize(rejoined, lowercase=False).tokens == tokens


@given(st.text(), st.booleans())
def test_tokens_never_contain_whitespace(line, lowercase):
    for token in tokenize(line, lowercase).tokens:
        assert token == "".join(token.split())
        assert token


def _write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_read_parallel_yields_sequential_ids(tmp_path):
    _write(tmp_path / "c.src", ["ein", "zwei", "drei"])
    _write(tmp_path / "c.tgt", ["one", "two", "three"])
    pairs = list(open_corpus(src_path=tmp_path / "c.src", tgt_path=tmp_path / "c.tgt"))
    assert [p.id for p in pairs] == [0, 1, 2]
    assert [p.src.raw for p in pairs] == ["ein", "zwei", "drei"]


def test_read_parallel_line_count_mismatch_names_first_unmatched(tmp_path):
    _write(tmp_path / "c.src", ["a", "b", "c"])
    _write(tmp_path / "c.tgt", ["1", "2", "3", "4"])
    expected = f"first unmatched line is 4 of {tmp_path / 'c.tgt'}"
    with pytest.raises(CorpusFormatError, match=re.escape(expected)):
        list(open_corpus(src_path=tmp_path / "c.src", tgt_path=tmp_path / "c.tgt"))


def test_read_parallel_exhaustion_check_without_eager(tmp_path):
    _write(tmp_path / "c.src", ["a", "b", "c", "d"])
    _write(tmp_path / "c.tgt", ["1", "2", "3"])
    stream = open_corpus(src_path=tmp_path / "c.src", tgt_path=tmp_path / "c.tgt")
    # No pre-pass counts the lines: the pairs before the mismatch stream out,
    # and the error comes when the shorter file ends.
    assert [pair.src.raw for pair in itertools.islice(stream, 3)] == ["a", "b", "c"]
    expected = f"first unmatched line is 4 of {tmp_path / 'c.src'}"
    with pytest.raises(CorpusFormatError, match=re.escape(expected)):
        next(stream)


def _raw_lines(reader, **paths):
    if reader is open_corpus:
        return [(p.src.raw, p.tgt.raw) for p in open_corpus(**paths)]
    return list(reader(**paths))


@pytest.mark.parametrize("reader", [open_corpus, read_rows], ids=["open_corpus", "read_rows"])
@pytest.mark.parametrize("short", ["src", "tgt"])
def test_a_twin_file_one_line_short_names_the_first_unmatched_line(tmp_path, reader, short):
    paths = {"src_path": tmp_path / "c.src", "tgt_path": tmp_path / "c.tgt"}
    for side, path in paths.items():
        _write(path, [f"{side} {i}" for i in range(3 if side.startswith(short) else 4)])
    longer = paths["tgt_path" if short == "src" else "src_path"]
    shorter = paths[f"{short}_path"]
    expected = (
        f"line-count mismatch: {longer} continues past the last line of {shorter}; "
        f"first unmatched line is 4 of {longer}"
    )
    with pytest.raises(CorpusFormatError) as info:
        _raw_lines(reader, **paths)
    assert str(info.value) == expected


@pytest.mark.parametrize("reader", [open_corpus, read_rows], ids=["open_corpus", "read_rows"])
@pytest.mark.parametrize("bad_side", ["src", "tgt"])
def test_invalid_utf8_at_a_shards_first_line_names_that_line(tmp_path, reader, bad_side):
    """A shard starts at a recorded byte offset; a bad byte on its first line
    names the file, the line's number in the whole file and the byte offset."""
    paths = {"src_path": tmp_path / "c.src", "tgt_path": tmp_path / "c.tgt"}
    for side, path in paths.items():
        lines = [f"{side} line {i}".encode() for i in range(6)]
        if side == f"{bad_side}_path":
            lines[4] = b"ok \xff" + lines[4]
        path.write_bytes(b"".join(line + b"\n" for line in lines))
    n, offsets = corpus_offsets(**paths, every=2)
    assert n == 6
    # Pairs 0-3 read cleanly; the shard of pairs 4-5 fails on its first line.
    assert len(_raw_lines(reader, **paths, count=4)) == 4
    shard = {"start": 4, "count": 2, "offsets": offsets[2]}
    with pytest.raises(CorpusFormatError) as info:
        _raw_lines(reader, **paths, **shard)
    bad = paths[f"{bad_side}_path"]
    assert str(info.value) == f"{bad}: line 5: invalid UTF-8 at byte offset 3"


def test_read_tsv_pair(tmp_path):
    (tmp_path / "c.tsv").write_text("hallo\thello\n", encoding="utf-8")
    (pair,) = list(open_corpus(path=tmp_path / "c.tsv"))
    assert pair.src.raw == "hallo"
    assert pair.tgt.raw == "hello"


def test_read_tsv_wrong_arity(tmp_path):
    (tmp_path / "c.tsv").write_text("a\tb\n1\t2\t3\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="line 2"):
        list(open_corpus(path=tmp_path / "c.tsv"))


def test_invalid_utf8_names_byte_offset(tmp_path):
    (tmp_path / "c.tsv").write_bytes(b"ok\tok\nbad \xff\tx\n")
    with pytest.raises(CorpusFormatError, match="byte offset 4"):
        list(open_corpus(path=tmp_path / "c.tsv"))


def test_round_trip_preserves_raw_lines(tmp_path):
    src_lines = ["Ein  Haus", "", "Drei äpfel"]
    tgt_lines = ["A  house", "blank above", "Three apples"]
    _write(tmp_path / "a.src", src_lines)
    _write(tmp_path / "a.tgt", tgt_lines)
    pairs = list(open_corpus(src_path=tmp_path / "a.src", tgt_path=tmp_path / "a.tgt"))
    rows = [(p.id, p.src.raw, p.tgt.raw) for p in pairs]
    write_parallel(rows, tmp_path / "b.src", tmp_path / "b.tgt")
    assert (tmp_path / "b.src").read_bytes() == (tmp_path / "a.src").read_bytes()
    assert (tmp_path / "b.tgt").read_bytes() == (tmp_path / "a.tgt").read_bytes()


def _toy_corpus(n):
    from pairsieve.corpus import Sentence, SentencePair

    return [
        SentencePair(
            id=i,
            src=Sentence(tokens=[f"s{i}"], raw=f"s{i}"),
            tgt=Sentence(tokens=[f"t{i}"], raw=f"t{i}"),
        )
        for i in range(n)
    ]


def test_write_tsv_rejects_raw_tabs(tmp_path):
    from pairsieve.corpus import write_tsv

    _write(tmp_path / "c.src", ["has\ttab"])
    _write(tmp_path / "c.tgt", ["fine"])
    pairs = list(open_corpus(src_path=tmp_path / "c.src", tgt_path=tmp_path / "c.tgt"))
    rows = [(p.id, p.src.raw, p.tgt.raw) for p in pairs]
    with pytest.raises(CorpusFormatError, match="pair 0: raw text contains a tab"):
        write_tsv(rows, tmp_path / "c.tsv")


def test_open_corpus_rejects_ambiguous_input(tmp_path):
    _write(tmp_path / "c.tsv", ["a\tb"])
    _write(tmp_path / "c.src", ["a"])
    _write(tmp_path / "c.tgt", ["b"])
    with pytest.raises(CorpusFormatError):
        open_corpus(path=tmp_path / "c.tsv", src_path=tmp_path / "c.src")
    with pytest.raises(CorpusFormatError):
        open_corpus(src_path=tmp_path / "c.src")


def test_sample_returns_all_when_n_exceeds_size():
    pairs = _toy_corpus(5)
    assert sample(iter(pairs), 10, seed=1) == pairs


def test_sample_is_deterministic_per_seed():
    first = sample(iter(_toy_corpus(1000)), 100, seed=7)
    second = sample(iter(_toy_corpus(1000)), 100, seed=7)
    assert [p.id for p in first] == [p.id for p in second]


def test_sample_differs_across_seeds():
    a = sample(iter(_toy_corpus(1000)), 100, seed=7)
    b = sample(iter(_toy_corpus(1000)), 100, seed=8)
    assert [p.id for p in a] != [p.id for p in b]


@settings(max_examples=50)
@given(
    size=st.integers(min_value=0, max_value=200),
    n=st.integers(min_value=0, max_value=250),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sample_is_an_ascending_subset(size, n, seed):
    pairs = _toy_corpus(size)
    picked = sample(iter(pairs), n, seed)
    ids = [p.id for p in picked]
    assert len(picked) == min(n, size)
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)
    assert set(ids) <= {p.id for p in pairs}


@pytest.mark.parametrize("n", [7, 40, 100])
def test_sample_holds_one_string_per_word(tmp_path, n):
    """Across the sampled pairs, and between their two sides, equal tokens
    are one object, whether a pair filled the reservoir or replaced one."""
    words = ["alpha", "beta", "gamma", "delta"]
    _write(tmp_path / "c.src", [" ".join(words[(i + j) % 4] for j in range(5)) for i in range(60)])
    _write(tmp_path / "c.tgt", [" ".join(words[(i * j) % 4] for j in range(4)) for i in range(60)])
    picked = sample(open_corpus(src_path=tmp_path / "c.src", tgt_path=tmp_path / "c.tgt"), n, seed=3)
    tokens = [t for p in picked for t in p.src.tokens + p.tgt.tokens]
    assert len(picked) == min(n, 60)
    assert len({id(t) for t in tokens}) == len(set(tokens)) == 4


@pytest.mark.parametrize("n", [7, 100])
def test_sampled_pairs_keep_no_raw_lines(tmp_path, n):
    _write(tmp_path / "c.src", [f"Quelle {i}" for i in range(40)])
    _write(tmp_path / "c.tgt", [f"Ziel  {i}" for i in range(40)])
    picked = sample(open_corpus(src_path=tmp_path / "c.src", tgt_path=tmp_path / "c.tgt"), n, seed=3)
    assert len(picked) == min(n, 40)
    assert all(p.src.raw == p.tgt.raw == "" for p in picked)
    assert picked[0].tgt.tokens == ["Ziel", str(picked[0].id)]


def test_sentences_and_pairs_carry_no_instance_dict(tmp_path):
    _write(tmp_path / "c.tsv", ["ein haus\ta house"])
    pair = next(open_corpus(path=tmp_path / "c.tsv"))
    for obj in (pair, pair.src, pair.tgt):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            obj.note = "no room for another attribute"
