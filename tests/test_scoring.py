import itertools
import math
import os
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from pairsieve.corpus import Sentence, SentencePair, tokenize
from pairsieve.errors import ModelFormatError, ScoreDomainError, ScoringError
from pairsieve import scoring
from pairsieve.lexical_tm import Direction, ExternalScoreTable, LexicalTranslationModel
from pairsieve.scoring import (
    MAX_SHARD_LINES,
    OFFSET_GRANULE,
    SCORE_HEADER,
    ScoreRecord,
    format_record,
    make_record,
    read_score_file,
    score_corpus_to_file,
    shard_plan,
)

from score_records import write_score_file

finite_h = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)


def oracle_scores(h_fwd, h_rev, h_in, h_out, trusted):
    """Straight-line re-implementation of the score algebra, kept independent
    of the module under test."""
    dual = abs(h_fwd - h_rev) + (h_fwd + h_rev) / 2
    adq = 1.0 if trusted else math.exp(-dual)
    dom_prime = math.exp(-(h_in - h_out))
    dom = dom_prime if dom_prime < 1.0 else 1.0
    return adq, dom, adq * dom


def adequacy(h_fwd, h_rev):
    """A record's adq, which depends on h_fwd and h_rev alone."""
    return make_record(0, h_fwd, h_rev, 0.0, 0.0).adq


def domain_score(h_in, h_out):
    """A record's dom, which depends on h_in and h_out alone."""
    return make_record(0, 0.0, 0.0, h_in, h_out).dom


def dual_score(h_fwd, h_rev):
    """The dual score |h_fwd - h_rev| + (h_fwd + h_rev)/2, which adq is exp of
    minus."""
    return -math.log(adequacy(h_fwd, h_rev))


def test_dual_score_hand_values():
    assert dual_score(0.0, 0.0) == 0.0
    assert dual_score(1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert dual_score(1.0, 3.0) == pytest.approx(4.0, abs=1e-12)


def test_adequacy_hand_values():
    assert adequacy(0.0, 0.0) == 1.0
    assert adequacy(1.0, 1.0) == pytest.approx(math.exp(-1), abs=1e-9)
    assert adequacy(1.0, 3.0) == pytest.approx(math.exp(-4), abs=1e-9)


def test_domain_score_hand_values():
    assert domain_score(1.0, 1.0) == 1.0
    assert domain_score(2.0, 1.0) == pytest.approx(math.exp(-1), abs=1e-9)
    assert domain_score(0.5, 2.0) == 1.0  # clip branch
    assert domain_score(0.5, 1000.0) == 1.0  # exp(999.5) would overflow a float


def combined_score(adq, dom, trusted=False):
    """adq * dom, with adq replaced by 1 for trusted pairs: the rule the
    combined column follows, with its (0, 1] domain checked."""
    for v in (adq, dom):
        if not (0.0 < v <= 1.0):
            raise ScoreDomainError(f"partial scores must be in (0, 1], got {v!r}")
    if trusted:
        adq = 1.0
    return adq * dom


def test_combined_score_hand_values():
    assert combined_score(0.4, 0.75, trusted=True) == 0.75
    assert combined_score(0.5, 0.5) == 0.25
    assert combined_score(1.0, 1.0) == 1.0


@pytest.mark.parametrize("bad", [-0.1, float("inf"), float("nan")])
def test_entropy_inputs_are_validated(bad):
    with pytest.raises(ScoreDomainError):
        dual_score(bad, 1.0)
    with pytest.raises(ScoreDomainError):
        domain_score(1.0, bad)


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
def test_partial_score_inputs_are_validated(bad):
    with pytest.raises(ScoreDomainError):
        combined_score(bad, 0.5)


@settings(max_examples=200)
@given(a=finite_h, b=finite_h)
def test_adequacy_is_symmetric(a, b):
    assert adequacy(a, b) == adequacy(b, a)


@settings(max_examples=200)
@given(a=finite_h, b=finite_h)
def test_adequacy_range_and_extremum(a, b):
    adq = adequacy(a, b)
    assert 0.0 < adq <= 1.0
    if a == 0.0 and b == 0.0:
        assert adq == 1.0
    elif a + b > 1e-12:  # beyond exp() rounding noise
        assert adq < 1.0


@settings(max_examples=100)
@given(total=st.floats(min_value=0.1, max_value=20.0), split=st.floats(min_value=0.0, max_value=0.5))
def test_balanced_pairs_maximize_adequacy_at_fixed_sum(total, split):
    balanced = adequacy(total / 2, total / 2)
    skewed = adequacy(total * split, total * (1 - split))
    assert skewed <= balanced + 1e-15
    assert balanced == pytest.approx(math.exp(-total / 2), rel=1e-12)


@settings(max_examples=100)
@given(h_in=finite_h, h_out=finite_h)
def test_domain_clips_exactly_when_in_domain_wins(h_in, h_out):
    dom = domain_score(h_in, h_out)
    assert 0.0 < dom <= 1.0
    if h_in <= h_out:
        assert dom == 1.0
    elif h_in - h_out > 1e-12:  # beyond exp() rounding noise
        assert dom < 1.0


def make_pair(i):
    return SentencePair(id=i, src=tokenize(f"src {i}"), tgt=tokenize(f"tgt {i}"))


def test_score_corpus_matches_oracle_on_random_inputs():
    rng = random.Random(99)
    n = 1000
    h = [[rng.uniform(0, 30) for _ in range(n)] for _ in range(4)]
    trusted = [rng.random() < 0.2 for _ in range(n)]
    scorers = [ExternalScoreTable(h[j]) for j in range(4)]
    records = [scoring.score_pair(make_pair(i), *scorers, trusted=trusted[i]) for i in range(n)]
    assert [r.pair_id for r in records] == list(range(n))
    for i, record in enumerate(records):
        adq, dom, combined = oracle_scores(h[0][i], h[1][i], h[2][i], h[3][i], trusted[i])
        assert record.adq == pytest.approx(adq, abs=1e-12)
        assert record.dom == pytest.approx(dom, abs=1e-12)
        assert record.combined == pytest.approx(combined, abs=1e-12)
        assert record.flags == ("trusted" if trusted[i] else "-")


def test_record_composition_example():
    record = make_record(0, 1.0, 1.0, 1.0, 1.0)
    assert record.adq == pytest.approx(math.exp(-1), abs=1e-12)
    assert record.dom == 1.0
    assert record.combined == pytest.approx(math.exp(-1), abs=1e-12)


def test_trusted_pair_keeps_only_its_domain_multiplier():
    record = make_record(7, 9.9, 0.3, 2.0, 1.0, trusted=True)
    assert record.adq == 1.0
    assert record.combined == pytest.approx(math.exp(-1), abs=1e-9)


def test_blank_target_scores_zero_with_flag():
    pairs = [
        SentencePair(id=0, src=tokenize("a"), tgt=tokenize("b")),
        SentencePair(id=1, src=tokenize("a"), tgt=tokenize("")),
    ]
    table = ExternalScoreTable([1.0, 1.0])
    records = [scoring.score_pair(pair, *(table,) * 4) for pair in pairs]
    assert records[1].combined == 0.0
    assert records[1].flags == "blank_tgt"
    assert records[0].flags == "-"


def test_trusted_blank_pair_keeps_both_flags():
    pair = SentencePair(id=0, src=tokenize(" "), tgt=tokenize("b"))
    table = ExternalScoreTable([1.0])
    record = scoring.score_pair(pair, *(table,) * 4, trusted=True)
    assert record.combined == 0.0
    assert format_record(record).split("\t")[-1] == "trusted,blank_src"


def test_overlength_side_scores_zero_with_flag():
    long_side = Sentence(tokens=["w"] * 9, raw="w " * 9)
    pairs = [
        SentencePair(id=0, src=long_side, tgt=tokenize("ok")),
        SentencePair(id=1, src=tokenize(""), tgt=long_side),
    ]
    table = ExternalScoreTable([1.0, 1.0])
    records = [scoring.score_pair(pair, *(table,) * 4, max_tokens=8) for pair in pairs]
    assert [r.combined for r in records] == [0.0, 0.0]
    assert [r.flags for r in records] == ["overlength_src", "blank_src,overlength_tgt"]


def test_scorer_failure_names_the_pair():
    pairs = [make_pair(0), make_pair(1)]
    table = ExternalScoreTable([1.0])  # too short: pair 1 is off the table
    with pytest.raises(ScoringError, match="pair 1"):
        [scoring.score_pair(pair, *(table,) * 4) for pair in pairs]


@settings(max_examples=50)
@given(
    scores=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=30),
    scale=st.floats(min_value=0.1, max_value=5.0),
)
def test_sort_order_survives_increasing_transforms(scores, scale):
    def transform(x):
        return math.expm1(scale * x)  # increasing; strictly so only up to rounding

    # The property holds for transforms strictly increasing on the drawn
    # scores. In floating point expm1(scale * x) can round two distinct
    # scores to one value (0.5 * 5e-324 underflows to 0.0), so state that.
    values = sorted(set(scores))
    assume(all(transform(a) < transform(b) for a, b in zip(values, values[1:])))
    base = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    mapped = sorted(range(len(scores)), key=lambda i: (-transform(scores[i]), i))
    assert base == mapped


def test_score_file_round_trip(tmp_path):
    records = [
        make_record(0, 1.0, 2.0, 0.5, 0.25),
        make_record(1, 0.0, 0.0, 1.0, 1.0, trusted=True),
    ]
    path = tmp_path / "scores.tsv"
    assert write_score_file(records, path) == 2
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "\t".join(SCORE_HEADER)
    loaded = list(read_score_file(path))
    assert [r.pair_id for r in loaded] == [0, 1]
    assert loaded[1].flags == "trusted"
    assert loaded[0].combined == pytest.approx(records[0].combined, rel=1e-5)


def per_field_format(record):
    """The record line as a join of per-field f"{x:.6g}" strings."""
    floats = (record.h_fwd, record.h_rev, record.h_in, record.h_out,
              record.adq, record.dom, record.combined)
    return "\t".join([str(record.pair_id), *(f"{x:.6g}" for x in floats), record.flags])


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, 0.0, 1.0, 1e-300, -0.0, 0.123456789, 12345678.9]
)
def test_format_record_equals_the_per_field_join(value):
    records = [
        ScoreRecord(7, value, value, value, value, value, value, value),
        ScoreRecord(8, value, 2.5, value, 0.25, 1.0, value, value,
                    flags="trusted,blank_src,overlength_tgt"),
        make_record(9, 1.5, 2.25, 4.0, 3.5, trusted=True),
    ]
    for record in records:
        assert format_record(record) == per_field_format(record)


def _score_file(body):
    return ("\t".join(SCORE_HEADER) + "\n" + body + "\n").encode()


GOOD_FIELDS = "0\t1\t1\t1\t1\t0.5\t0.5\t0.25"
BAD_ID = "x\t1\t1\t1\t1\t0.5\t0.5\t0.25\t-"
BAD_SCORE = "0\t1\t1\t1\t1\t0.5\t0.5\thigh\t-"
ID_RULE = "; ids count 0, 1, 2, ... in line order"


def _score_file_of_ids(*ids):
    return _score_file("\n".join(f"{i}\t1\t1\t1\t1\t0.5\t0.5\t0.25\t-" for i in ids))


@pytest.mark.parametrize(
    "data, message",
    [
        (b"garbage header\n", "line 1: bad or missing score header"),
        (_score_file(GOOD_FIELDS), "line 2: expected 9 columns, found 8"),
        (_score_file(GOOD_FIELDS + "\t-\t-"), "line 2: expected 9 columns, found 10"),
        (_score_file(""), "line 2: expected 9 columns, found 1"),
        (_score_file(BAD_ID), "line 2: id x, expected 0" + ID_RULE),
        (_score_file(BAD_SCORE), "line 2: non-numeric combined 'high'"),
        (_score_file(GOOD_FIELDS + "\tbogus"), "line 2: unknown flags ['bogus']"),
        (_score_file(GOOD_FIELDS + "\ttrusted,blank_src,x"), "line 2: unknown flags ['x']"),
        (_score_file(GOOD_FIELDS + "\t"), "line 2: unknown flags ['']"),
        (_score_file(GOOD_FIELDS + "\t-") + b"0\t1\xff\n", "line 3: invalid UTF-8"),
        (_score_file_of_ids(0, 1, 1), "line 4: id 1, expected 2" + ID_RULE),
        (_score_file_of_ids(0, 1, 5), "line 4: id 5, expected 2" + ID_RULE),
        (_score_file_of_ids(0, 2, 1), "line 3: id 2, expected 1" + ID_RULE),
        (_score_file_of_ids(1, 2, 3), "line 2: id 1, expected 0" + ID_RULE),
        (_score_file_of_ids(0, -1, 2), "line 3: id -1, expected 1" + ID_RULE),
    ],
)
def test_malformed_score_file_names_file_line_and_fault(tmp_path, data, message):
    path = tmp_path / "s.tsv"
    path.write_bytes(data)
    with pytest.raises(ModelFormatError) as exc:
        list(read_score_file(path))
    assert str(exc.value) == f"{path}: {message}"


def _one_record_file(tmp_path, line):
    """A score file whose one record is ``line``."""
    path = tmp_path / "one.scores.tsv"
    path.write_text("\t".join(SCORE_HEADER) + "\n" + line + "\n", encoding="utf-8")
    return path


def _read_fault(tmp_path, line):
    """What is wrong with ``line`` as record 0, as the reader words it after
    ``<file>: line 2: ``."""
    path = _one_record_file(tmp_path, line)
    with pytest.raises(ModelFormatError) as info:
        list(read_score_file(path))
    message = str(info.value)
    assert message.startswith(f"{path}: line 2: ")
    return message.removeprefix(f"{path}: line 2: ")


@pytest.mark.parametrize("field", ["adq", "dom", "combined"])
@pytest.mark.parametrize("bad", ["nan", "7.5", "-0.2", "inf"])
def test_score_reader_rejects_a_partial_score_outside_the_unit_interval(tmp_path, field, bad):
    values = {"adq": "0.5", "dom": "0.5", "combined": "0.25", field: bad}
    fields = ["0", "1", "1", "1", "1", values["adq"], values["dom"], values["combined"], "-"]
    assert _read_fault(tmp_path, "\t".join(fields)) == f"{field} {bad!r} is outside [0, 1]"


def test_score_reader_accepts_both_ends_of_the_unit_interval(tmp_path):
    line = "\t".join(["0", "1", "1", "1", "1", "1", "0", "0", "-"])
    (record,) = read_score_file(_one_record_file(tmp_path, line))
    assert (record.adq, record.dom, record.combined) == (1.0, 0.0, 0.0)

def test_the_built_in_tm_scores_the_generated_side_over_its_own_tokens():
    """README's scoring conventions: a TM normalizes by the generated side's
    token count, which for h_rev is the source, and scores no end event; so a
    one-token generated side is scored over one event."""
    pair = SentencePair(0, tokenize("a b c"), tokenize("x"))
    t = {"a": {"x": 0.5}, "b": {"x": 0.25}, "c": {"x": 0.25}}
    rev = scoring.Model1Scorer(LexicalTranslationModel(t, False, Direction.REVERSE))
    assert rev(pair) == -math.fsum(map(math.log, (0.5, 0.25, 0.25))) / 3
    fwd = scoring.Model1Scorer(LexicalTranslationModel({"x": {"a": 0.5}}, False, Direction.FORWARD))
    assert fwd(SentencePair(1, tokenize("a"), tokenize("x"))) == math.log(2)


def test_score_domain_error_names_the_pair():
    pair = SentencePair(7, tokenize("a b"), tokenize("c d"))

    def ok(_):
        return 1.0

    def negative(_):
        return -0.5

    with pytest.raises(ScoreDomainError) as info:
        scoring.score_pair(pair, ok, ok, negative, ok)
    assert str(info.value) == "pair 7: cross-entropy inputs must be finite and >= 0, got -0.5"


def test_score_reader_rejects_bad_flags(tmp_path):
    line = "0\t1\t1\t1\t1\t0.5\t0.5\t0.25\tbogus"
    assert "unknown flags" in _read_fault(tmp_path, line)


@pytest.mark.parametrize(
    "flags",
    ["blank_src,blank_src", "overlength_tgt,trusted,trusted", "trusted,trusted",
     "blank_tgt,blank_src", "blank_src,trusted"],
)
def test_score_reader_rejects_repeated_or_misordered_flags(tmp_path, flags):
    line = "0\t1\t1\t1\t1\t0.5\t0.5\t0.25\t" + flags
    assert _read_fault(tmp_path, line) == (
        f"flags {flags!r} repeat a flag or are out of order"
        " (order: trusted,blank_src,blank_tgt,overlength_src,overlength_tgt)"
    )


def test_score_reader_accepts_every_flags_text_the_writer_can_produce(tmp_path):
    names = ("trusted", "blank_src", "blank_tgt", "overlength_src", "overlength_tgt")
    texts = ["-"] + [
        ",".join(subset)
        for size in range(1, len(names) + 1)
        for subset in itertools.combinations(names, size)
    ]
    # A flagged record holds what the writer gives it: nan and 0.
    lines = [
        f"{i}\t1\t1\t1\t1\t1\t0.5\t0.5\t{text}" if text in ("-", "trusted")
        else f"{i}\tnan\tnan\tnan\tnan\t0\t0\t0\t{text}"
        for i, text in enumerate(texts)
    ]
    path = tmp_path / "flags.scores.tsv"
    path.write_text("\n".join(["\t".join(SCORE_HEADER), *lines, ""]), encoding="utf-8")
    assert [format_record(record) for record in read_score_file(path)] == lines


# Records that break the score algebra's rules on one field, each with what
# the reader says of it after "<file>: line 2: ".
ALGEBRA_FAULTS = [
    pytest.param("0\t-3\t1\t1\t1\t0.5\t0.5\t0.25\t-",
                 "h_fwd '-3' is not finite and >= 0", id="negative-h"),
    pytest.param("0\t1\tinf\t1\t1\t1\t0.5\t0.5\ttrusted",
                 "h_rev 'inf' is not finite and >= 0", id="infinite-h-trusted"),
    pytest.param("0\t1\t1\tnan\t1\t0.5\t0.5\t0.25\t-",
                 "h_in 'nan' is not finite and >= 0", id="nan-h"),
    pytest.param("0\tnan\tnan\tnan\t2.5\t0\t0\t0\tblank_src",
                 "flags 'blank_src' with h_out '2.5'; a flagged record has nan"
                 " cross-entropies and adq, dom and combined 0", id="flagged-with-h"),
    pytest.param("0\tnan\tnan\tnan\tnan\t0.5\t0.5\t0.25\tblank_tgt",
                 "flags 'blank_tgt' with adq '0.5'; a flagged record has nan"
                 " cross-entropies and adq, dom and combined 0", id="flagged-with-scores"),
    pytest.param("0\tnan\tnan\tnan\tnan\t0\t0\t0.25\ttrusted,overlength_src",
                 "flags 'trusted,overlength_src' with combined '0.25'; a flagged record has"
                 " nan cross-entropies and adq, dom and combined 0", id="flagged-with-combined"),
    pytest.param("0\t1\t1\t1\t1\t0.5\t0.5\t0.25\ttrusted",
                 "trusted record with adq '0.5'; a trusted record has adq 1", id="trusted-adq"),
    pytest.param("0\t1\t1\t1\t1\t0.2\t0.5\t0.9\t-",
                 "combined '0.9' is not adq * dom (0.2 * 0.5) to 6 significant digits",
                 id="combined-not-product"),
    pytest.param("0\t1\t1\t1\t1\t0.5\t0.5\t0.250025\t-",
                 "combined '0.250025' is not adq * dom (0.5 * 0.5) to 6 significant digits",
                 id="combined-off-by-1e-4"),
    pytest.param("0\t1\t1\t1\t1\t1e-310\t1\t2e-310\t-",
                 "combined '2e-310' is not adq * dom (1e-310 * 1) to 6 significant digits",
                 id="subnormal-combined-not-product"),
    pytest.param("0\t1\t1\t1\t1\t0\t0.5\t1e-300\t-",
                 "combined '1e-300' is not adq * dom (0 * 0.5) to 6 significant digits",
                 id="combined-of-a-zero-product"),
]


@pytest.mark.parametrize("line, message", ALGEBRA_FAULTS)
def test_score_reader_rejects_a_record_that_breaks_the_algebra(tmp_path, line, message):
    assert _read_fault(tmp_path, line) == message


def _printed(value):
    return float(f"{value:.6g}")


@pytest.mark.parametrize(
    "adq, dom",
    [(0.0, 0.5), (0.5, 0.0), (1e-300, 1e-20), (5e-324, 1.0), (1e-310, 0.123457),
     (2.5e-308, 0.999999), (1.0, 1.0), (0.1000005, 0.1000005)],
    ids=["zero-adq", "zero-dom", "subnormal-product", "least-subnormal", "subnormal-adq",
         "near-least-normal", "one", "both-rounded-down"],
)
def test_score_reader_accepts_a_printed_product_at_zero_and_subnormal_sizes(tmp_path, adq, dom):
    line = "0\t1\t1\t1\t1\t%.6g\t%.6g\t%.6g\t-" % (adq, dom, adq * dom)
    (record,) = read_score_file(_one_record_file(tmp_path, line))
    assert (record.adq, record.dom, record.combined) == tuple(
        map(_printed, (adq, dom, adq * dom))
    )


unit = st.floats(min_value=0.0, max_value=1.0, allow_subnormal=True)


@settings(max_examples=500, deadline=None)
@given(adq=unit, dom=unit)
def test_every_product_the_writer_prints_reads_back(tmp_path_factory, adq, dom):
    """Whatever adq and dom are, the line the writer prints for them, with
    combined = adq * dom, passes the reader's product check."""
    record = ScoreRecord(0, 1.0, 1.0, 1.0, 1.0, adq, dom, adq * dom)
    path = _one_record_file(tmp_path_factory.mktemp("product"), format_record(record))
    (read,) = read_score_file(path)
    assert format_record(read) == format_record(record)


def _write_corpus(tmp_path, n):
    src = tmp_path / "c.src"
    tgt = tmp_path / "c.tgt"
    rng = random.Random(1)
    with open(src, "w") as fs, open(tgt, "w") as ft:
        for i in range(n):
            words = [f"w{rng.randrange(20)}" for _ in range(rng.randint(1, 6))]
            fs.write(" ".join(words) + "\n")
            ft.write(" ".join(reversed(words)) + "\n")
    return src, tgt


def test_file_scoring_identical_across_worker_counts(tmp_path):
    # Above one offset granule, so 2 workers get 2 non-empty shards and 4
    # workers 3 (the plan's fourth shard is empty).
    n = 2 * OFFSET_GRANULE + 345
    src, tgt = _write_corpus(tmp_path, n)
    tsv = tmp_path / "c.tsv"
    with open(src) as fs, open(tgt) as ft, open(tsv, "w") as fh:
        for s, t in zip(fs, ft):
            fh.write(s.rstrip("\n") + "\t" + t)
    rng = random.Random(2)
    scorers = [
        ExternalScoreTable([rng.uniform(0, 5) for _ in range(n)]) for _ in range(4)
    ]
    for name, corpus in (("twin", {"src_path": src, "tgt_path": tgt}), ("tsv", {"path": tsv})):
        outputs = []
        for workers in (1, 2, 4):
            out = tmp_path / f"scores.{name}.w{workers}.tsv"
            written = score_corpus_to_file(out, *scorers, workers=workers, **corpus)
            assert written == n
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


def test_shard_plan_covers_the_corpus_in_bounded_shards():
    for n in (0, 1, 999, 1000, 1001, 2345, 4000, 25_000, 50_000, 50_001, 1_000_000):
        for workers in (1, 2, 3, 4):
            plan = shard_plan(n, workers)
            starts = [start for start, _ in plan]
            lengths = [count for _, count in plan]
            assert len(plan) % workers == 0
            assert starts == [sum(lengths[:i]) for i in range(len(plan))]
            assert sum(lengths) == n
            assert all(start % OFFSET_GRANULE == 0 for start in starts)
            assert all(count <= MAX_SHARD_LINES for count in lengths)
            assert not lengths or max(lengths) - min(lengths) <= OFFSET_GRANULE
            # One multiple of workers fewer would overfill a shard.
            assert (len(plan) - workers) * MAX_SHARD_LINES < n or not plan
    assert shard_plan(0, 2) == []
    assert shard_plan(1, 2) == [(0, 0), (0, 1)]
    # The sievebench crawls at 2 workers: score-crawl, table-select, pipeline-train.
    assert shard_plan(50_000, 2) == [(i * 5_000, 5_000) for i in range(10)]
    assert shard_plan(100_000, 2) == [(i * 5_000, 5_000) for i in range(20)]
    assert shard_plan(4_000, 2) == [(0, 2_000), (2_000, 2_000)]


def test_a_failed_shard_starts_no_further_shard(tmp_path, monkeypatch):
    """A ScoringError in the first of 8 shards at 2 workers ends the run and
    kills the shard running beside it: no shard behind them starts. Forked
    workers append every pair id they score to one O_APPEND file."""
    monkeypatch.setattr(scoring, "MAX_SHARD_LINES", OFFSET_GRANULE)
    n = 8 * OFFSET_GRANULE
    assert len(shard_plan(n, 2)) == 8
    src, tgt = _write_corpus(tmp_path, n)
    log_fd = os.open(tmp_path / "scored.log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def scorer(pair):
        os.write(log_fd, f"{pair.id}\n".encode())
        if pair.id == 0:
            raise ScoringError("pair 0: refused")
        return 1.0

    try:
        with pytest.raises(ScoringError, match="^pair 0: refused$"):
            score_corpus_to_file(
                tmp_path / "s.tsv", scorer, scorer, scorer, scorer,
                src_path=src, tgt_path=tgt, workers=2,
            )
    finally:
        os.close(log_fd)
    scored = {int(line) for line in (tmp_path / "scored.log").read_text().split()}
    assert 0 in scored
    assert max(scored) < 2 * OFFSET_GRANULE
    with pytest.raises(ChildProcessError):  # no child left running or unreaped
        os.waitpid(-1, os.WNOHANG)


def test_a_scorer_error_kills_the_running_shards(tmp_path):
    """A ScoringError in shard 0 raises at once, though shard 1 would take
    60 s: the error does not wait for the shard running beside it."""
    src, tgt = _write_corpus(tmp_path, 2 * OFFSET_GRANULE)
    assert len(shard_plan(2 * OFFSET_GRANULE, 2)) == 2

    def scorer(pair):
        if pair.id == 0:
            raise ScoringError("pair 0: refused")
        if pair.id == OFFSET_GRANULE:
            time.sleep(60)
        return 1.0

    started = time.monotonic()
    with pytest.raises(ScoringError, match="^pair 0: refused$"):
        score_corpus_to_file(
            tmp_path / "s.tsv", scorer, scorer, scorer, scorer,
            src_path=src, tgt_path=tgt, workers=2,
        )
    assert time.monotonic() - started < 10
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
