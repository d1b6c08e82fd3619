"""Score algebra and corpus-wide scoring.

Four cross-entropies feed two partial scores in (0, 1], multiplied into one:

* ``adq``: agreement and confidence of two inverse-direction translation
  models, ``exp(-(|h_fwd - h_rev| + (h_fwd + h_rev)/2))``; 1 is best. Trusted
  pairs get adq = 1 by fiat.
* ``dom``: the perplexity quotient of the target sentence under an
  out-of-domain versus an in-domain language model, clipped from above at 1
  so monolingual fit can only penalize a pair, never boost it.

Each scorer is any callable mapping a SentencePair to nats per token, so
built-in models and externally computed score tables are interchangeable.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import NamedTuple

from .corpus import (
    DEFAULT_MAX_TOKENS,
    SentencePair,
    corpus_offsets,
    open_corpus,
)
from .errors import (
    ExternalScoreError,
    ModelFormatError,
    ScoreDomainError,
    ScoringError,
)
from .forked import forked_map
from .lexical_tm import ExternalScoreTable, LexicalTranslationModel, _oriented, cond_cross_entropy
from .model_file import IdKeyedFormat, check_finite_nonnegative, float_column, read_id_keyed
from .ngram_lm import NgramLanguageModel, cross_entropy

Scorer = Callable[[SentencePair], float]

_FLAG_NAMES = ("trusted", "blank_src", "blank_tgt", "overlength_src", "overlength_tgt")

# Every flags text the writer can produce, keyed by which of _FLAG_NAMES a
# pair raises: "-" for none, else the raised names in that order, comma-joined.
_FLAG_TEXT = {
    raised: ",".join(itertools.compress(_FLAG_NAMES, raised)) or "-"
    for raised in itertools.product((False, True), repeat=len(_FLAG_NAMES))
}
_FLAG_TEXTS = frozenset(_FLAG_TEXT.values())


class ScoreRecord(NamedTuple):
    """One score line's nine fields in column order (``pair_id`` is the
    ``id`` column): four cross-entropies, the derived scores, and the line's
    own flags text."""

    pair_id: int
    h_fwd: float
    h_rev: float
    h_in: float
    h_out: float
    adq: float
    dom: float
    combined: float
    flags: str = "-"


SCORE_HEADER = ("id", *ScoreRecord._fields[1:])


def _check_entropies(*values: float, where: str = "") -> None:
    for v in values:
        if not 0.0 <= v < math.inf:  # false for nan too
            raise ScoreDomainError(
                f"{where}cross-entropy inputs must be finite and >= 0, got {v!r}"
            )


def _partial_scores(
    h_fwd: float, h_rev: float, h_in: float, h_out: float, trusted: bool
) -> tuple[float, float]:
    """adq and dom of four checked cross-entropies, the one place either is
    computed. A trusted pair's adq is 1 by fiat."""
    adq = 1.0 if trusted else math.exp(-(abs(h_fwd - h_rev) + (h_fwd + h_rev) / 2))
    return adq, math.exp(min(h_out - h_in, 0.0))


def make_record(
    pair_id: int,
    h_fwd: float,
    h_rev: float,
    h_in: float,
    h_out: float,
    trusted: bool = False,
) -> ScoreRecord:
    """Assemble one ScoreRecord from the four cross-entropies.

    Trusted pairs keep their measured h_fwd/h_rev but carry adq = 1 exactly,
    so their combined score is just the domain multiplier.
    """
    _check_entropies(h_fwd, h_rev, h_in, h_out)
    adq, dom = _partial_scores(h_fwd, h_rev, h_in, h_out, trusted)
    flags = _FLAG_TEXT[trusted, False, False, False, False]
    return ScoreRecord(pair_id, h_fwd, h_rev, h_in, h_out, adq, dom, adq * dom, flags)


def _score_fields(
    pairs: Iterable[SentencePair],
    fwd_scorer: Scorer,
    rev_scorer: Scorer,
    in_scorer: Scorer,
    out_scorer: Scorer,
    max_tokens: int,
    trusted: bool,
) -> Iterator[tuple]:
    """The one per-pair scoring loop: each pair's score-line fields, in
    :data:`SCORE_HEADER` order, flags as the line writes them.

    Dirty pairs are scored 0 with nan cross-entropies and flagged rather than
    aborting the run: a filtering pass has to survive the noise it exists to
    remove.
    """
    nan = math.nan
    inf = math.inf
    clean = _FLAG_TEXT[trusted, False, False, False, False]
    for pair in pairs:
        src = pair.src.tokens
        tgt = pair.tgt.tokens
        if not src or not tgt or len(src) > max_tokens or len(tgt) > max_tokens:
            raised = (trusted, not src, not tgt, len(src) > max_tokens, len(tgt) > max_tokens)
            yield pair.id, nan, nan, nan, nan, 0.0, 0.0, 0.0, _FLAG_TEXT[raised]
            continue
        try:
            h_fwd = fwd_scorer(pair)
            h_rev = rev_scorer(pair)
            h_in = in_scorer(pair)
            h_out = out_scorer(pair)
        except ScoringError:
            raise
        except Exception as exc:
            raise ScoringError(f"scorer failed on pair {pair.id}: {exc}") from exc
        # The test of _check_entropies, inlined: it raises only on a fault.
        if not (
            0.0 <= h_fwd < inf and 0.0 <= h_rev < inf and 0.0 <= h_in < inf and 0.0 <= h_out < inf
        ):
            _check_entropies(h_fwd, h_rev, h_in, h_out, where=f"pair {pair.id}: ")
        adq, dom = _partial_scores(h_fwd, h_rev, h_in, h_out, trusted)
        yield pair.id, h_fwd, h_rev, h_in, h_out, adq, dom, adq * dom, clean


def score_pair(
    pair: SentencePair,
    fwd_scorer: Scorer,
    rev_scorer: Scorer,
    in_scorer: Scorer,
    out_scorer: Scorer,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    trusted: bool = False,
) -> ScoreRecord:
    """One pair's ScoreRecord, as :func:`score_corpus_to_file` writes it."""
    (fields,) = _score_fields(
        (pair,), fwd_scorer, rev_scorer, in_scorer, out_scorer, max_tokens, trusted
    )
    return ScoreRecord._make(fields)


class Model1Scorer:
    """Conditional cross-entropy under a lexical translation model.

    Uses the model's own direction to orient each pair, so a reverse-trained
    model scores H(src|tgt).
    """

    def __init__(self, tm: LexicalTranslationModel):
        self.tm = tm

    def __call__(self, pair: SentencePair) -> float:
        x, y = _oriented(pair, self.tm.direction)
        return cond_cross_entropy(self.tm, x, y)


class LmScorer:
    """Monolingual cross-entropy of the target sentence (source is ignored)."""

    def __init__(self, lm: NgramLanguageModel):
        self.lm = lm

    def __call__(self, pair: SentencePair) -> float:
        return cross_entropy(self.lm, pair.tgt)


# One score line, without its newline.
_RECORD_FORMAT = "%d\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%s"
_LINE_FORMAT = _RECORD_FORMAT + "\n"


def format_record(record: ScoreRecord) -> str:
    return _RECORD_FORMAT % record


_UNFLAGGED = frozenset(("-", "trusted"))  # any other flags text marks a flagged record
# Printed to 6 significant digits, adq, dom and combined are each off by at
# most 5e-6 of their value, so combined and adq * dom differ by at most 1.5e-5
# of it, and a little more for the products' own rounding; the absolute term
# allows for the steps of subnormal floats.
_PRODUCT_REL, _PRODUCT_ABS = 1.6e-5, 2e-323
_new_record = tuple.__new__  # ScoreRecord._make without its Python frame


def _score_records(ids: range, *columns: list[str]) -> list[ScoreRecord]:
    """The checked records of a run of score lines, from their columns' text.
    Each check runs once over the run; only flagged records, rare in a crawl,
    are looked at one by one."""
    *texts, flags = columns
    values = [float_column(name, column) for name, column in zip(SCORE_HEADER[1:], texts)]
    h, adq = values[:4], values[4]
    if not _FLAG_TEXTS.issuperset(flags):
        text = next(f for f in flags if f not in _FLAG_TEXTS)
        unknown = [f for f in text.split(",") if f not in _FLAG_NAMES]
        if unknown:
            raise ValueError(f"unknown flags {unknown}")
        order = ",".join(_FLAG_NAMES)
        raise ValueError(f"flags {text!r} repeat a flag or are out of order (order: {order})")
    # combined first, the weight every reader takes. A nan can pass min and
    # max of a run, but not the product check below, and then the run is
    # read again a record at a time, where min and max catch it.
    for i in (6, 4, 5):
        if not (0.0 <= min(values[i]) and max(values[i]) <= 1.0):
            bad = next(t for t, v in zip(texts[i], values[i]) if not 0.0 <= v <= 1.0)
            raise ValueError(f"{SCORE_HEADER[i + 1]} {bad!r} is outside [0, 1]")
    h_texts = texts[:4]
    if flags.count("-") != len(flags):  # some record is trusted or flagged
        if min(itertools.compress(adq, map("trusted".__eq__, flags)), default=1.0) != 1.0:
            bad = next(t for t, f in zip(texts[4], flags) if f == "trusted" and float(t) != 1.0)
            raise ValueError(f"trusted record with adq {bad!r}; a trusted record has adq 1")
        unflagged = list(map(_UNFLAGGED.__contains__, flags))
        for i in itertools.compress(range(len(flags)), map(operator.not_, unflagged)):
            for name, column, column_texts in zip(SCORE_HEADER[1:], values, texts):
                if not (math.isnan(column[i]) if name.startswith("h_") else column[i] == 0.0):
                    raise ValueError(
                        f"flags {flags[i]!r} with {name} {column_texts[i]!r}; a flagged record"
                        " has nan cross-entropies and adq, dom and combined 0"
                    )
        h_texts = [list(itertools.compress(column, unflagged)) for column in h_texts]
        h = [list(itertools.compress(column, unflagged)) for column in h]
    for name, column_texts, column in zip(SCORE_HEADER[1:], h_texts, h):
        check_finite_nonnegative(name, column_texts, column)
    agree = [abs(c - a * d) <= _PRODUCT_REL * a * d + _PRODUCT_ABS for a, d, c in zip(*values[4:])]
    if not all(agree):
        a, d, c = (column[agree.index(False)] for column in texts[4:])
        raise ValueError(f"combined {c!r} is not adq * dom ({a} * {d}) to 6 significant digits")
    return list(map(_new_record, itertools.repeat(ScoreRecord), zip(ids, *values, flags)))


SCORE_FILE = IdKeyedFormat(
    "score", len(SCORE_HEADER), _score_records, ModelFormatError, "\t".join(SCORE_HEADER)
)


def read_score_file(path: str | Path) -> Iterator[ScoreRecord]:
    """Stream records back from a score file written by score_corpus_to_file,
    each checked as README's score-file section lists. Ids must count 0, 1,
    2, ... in line order, so record i is pair i."""
    return itertools.chain.from_iterable(read_id_keyed(path, SCORE_FILE))


# ---------------------------------------------------------------------------
# Parallel scoring: shard the corpus into contiguous id ranges, score shards
# in worker processes, and write shard outputs back in shard order. Each
# record is a pure function of its pair, so output bytes are identical for
# any worker count. Workers seek straight to byte offsets found by one scan
# rather than re-reading the file from the start.
# ---------------------------------------------------------------------------

MAX_SHARD_LINES = 5_000
# Lines between recorded byte offsets, so shards start on multiples of it;
# it divides MAX_SHARD_LINES.
OFFSET_GRANULE = 1_000


def shard_plan(n_pairs: int, workers: int) -> list[tuple[int, int]]:
    """(start, count) of each shard: contiguous ranges covering [0, n_pairs).

    The shard count is the least multiple of ``workers`` whose shards each
    hold at most MAX_SHARD_LINES lines. Shards start on OFFSET_GRANULE
    boundaries, and their lengths differ by at most one granule.
    """
    if n_pairs == 0:
        return []
    granules = -(-n_pairs // OFFSET_GRANULE)
    per_shard = MAX_SHARD_LINES // OFFSET_GRANULE
    k = workers * -(-granules // (workers * per_shard))
    bounds = [min(i * granules // k * OFFSET_GRANULE, n_pairs) for i in range(k + 1)]
    return [(bounds[i], bounds[i + 1] - bounds[i]) for i in range(k)]


def score_corpus_to_file(
    out_path: str | Path,
    fwd_scorer: Scorer,
    rev_scorer: Scorer,
    in_scorer: Scorer,
    out_scorer: Scorer,
    path: str | Path | None = None,
    src_path: str | Path | None = None,
    tgt_path: str | Path | None = None,
    lowercase: bool = False,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    trusted: bool = False,
    workers: int = 1,
) -> int:
    """Score a corpus from disk into a score file, optionally in parallel.

    Returns the number of records written. Output is byte-identical for any
    worker count: shards are contiguous id ranges re-emitted in order (see
    :func:`shard_plan`). Twin files of different lengths, and an external
    score table whose length is not the pair count, fail before the first
    pair is scored.
    """
    n_pairs, granule_offsets = corpus_offsets(path, src_path, tgt_path, every=OFFSET_GRANULE)
    shards = [
        (start, count, granule_offsets[start // OFFSET_GRANULE])
        for start, count in shard_plan(n_pairs, workers)
        if count
    ]
    scorers = (fwd_scorer, rev_scorer, in_scorer, out_scorer)
    for scorer in scorers:
        if isinstance(scorer, ExternalScoreTable) and len(scorer) != n_pairs:
            raise ExternalScoreError(
                f"{scorer.source}: {len(scorer)} scores for a corpus of {n_pairs} pairs"
            )

    def score_shard(shard: tuple[int, int, tuple[int, ...]]) -> str:
        start, count, offsets = shard
        pairs = open_corpus(path, src_path, tgt_path, lowercase, start, count, offsets)
        fields = _score_fields(pairs, *scorers, max_tokens, trusted)
        return "".join(map(_LINE_FORMAT.__mod__, fields))

    n_written = 0
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(SCORE_HEADER) + "\n")
        with forked_map(
            score_shard,
            shards,
            workers,
            lambda shard: f"scoring pairs {shard[0]}-{shard[0] + shard[1] - 1}",
        ) as blobs:
            for blob in blobs:
                fh.write(blob)
                n_written += blob.count("\n")
                del blob  # hold one shard's string, not two, while the next is read
    return n_written
