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

import math
import multiprocessing
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from .corpus import (
    DEFAULT_MAX_TOKENS,
    Provenance,
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
from .lexical_tm import ExternalScoreTable, LexicalTranslationModel, _oriented, cond_cross_entropy
from .model_file import invalid_utf8
from .ngram_lm import NgramLanguageModel, cross_entropy

Scorer = Callable[[SentencePair], float]

SCORE_HEADER = ("id", "h_fwd", "h_rev", "h_in", "h_out", "adq", "dom", "combined", "flags")

_DIAG_FLAGS = ("blank_src", "blank_tgt", "overlength_src", "overlength_tgt")


@dataclass
class ScoreRecord:
    """Per-pair score bundle: four cross-entropies plus the derived scores."""

    pair_id: int
    h_fwd: float
    h_rev: float
    h_in: float
    h_out: float
    adq: float
    dom: float
    combined: float
    trusted: bool = False
    flags: tuple[str, ...] = ()


def _check_entropies(*values: float) -> None:
    for v in values:
        if not math.isfinite(v) or v < 0:
            raise ScoreDomainError(
                f"cross-entropy inputs must be finite and >= 0, got {v!r}"
            )


def dual_score(h_fwd: float, h_rev: float) -> float:
    """|h_fwd - h_rev| + (h_fwd + h_rev)/2; 0 is best.

    The absolute difference penalizes disagreement between the two
    directions, the average penalizes pairs both directions find improbable.
    """
    _check_entropies(h_fwd, h_rev)
    return abs(h_fwd - h_rev) + (h_fwd + h_rev) / 2


def adequacy(h_fwd: float, h_rev: float) -> float:
    """exp of the negated dual score; in (0, 1], and 1 iff both inputs are 0."""
    return math.exp(-dual_score(h_fwd, h_rev))


def domain_score(h_in: float, h_out: float) -> float:
    """min(exp(h_out - h_in), 1): how many times less perplexing the target
    sentence is to the in-domain model, clipped from above at 1."""
    _check_entropies(h_in, h_out)
    return min(math.exp(h_out - h_in), 1.0)


def combined_score(adq: float, dom: float, trusted: bool = False) -> float:
    """adq * dom, with adq replaced by 1 for trusted pairs."""
    for v in (adq, dom):
        if not (0.0 < v <= 1.0):
            raise ScoreDomainError(f"partial scores must be in (0, 1], got {v!r}")
    if trusted:
        adq = 1.0
    return adq * dom


def make_record(
    pair_id: int,
    h_fwd: float,
    h_rev: float,
    h_in: float,
    h_out: float,
    trusted: bool = False,
    flags: tuple[str, ...] = (),
) -> ScoreRecord:
    """Assemble one ScoreRecord from the four cross-entropies.

    Trusted pairs keep their measured h_fwd/h_rev but carry adq = 1 exactly,
    so their combined score is just the domain multiplier.
    """
    _check_entropies(h_fwd, h_rev)
    adq = 1.0 if trusted else adequacy(h_fwd, h_rev)
    dom = domain_score(h_in, h_out)
    return ScoreRecord(
        pair_id=pair_id,
        h_fwd=h_fwd,
        h_rev=h_rev,
        h_in=h_in,
        h_out=h_out,
        adq=adq,
        dom=dom,
        combined=adq * dom,
        trusted=trusted,
        flags=flags,
    )


def _degenerate_record(
    pair_id: int, trusted: bool, flags: tuple[str, ...]
) -> ScoreRecord:
    # Dirty pairs are scored 0 and flagged rather than aborting the run:
    # a filtering pass has to survive the noise it exists to remove.
    nan = float("nan")
    return ScoreRecord(
        pair_id=pair_id,
        h_fwd=nan,
        h_rev=nan,
        h_in=nan,
        h_out=nan,
        adq=0.0,
        dom=0.0,
        combined=0.0,
        trusted=trusted,
        flags=flags,
    )


def diagnostic_flags(pair: SentencePair, max_tokens: int = DEFAULT_MAX_TOKENS) -> tuple[str, ...]:
    flags = []
    if pair.src.is_blank:
        flags.append("blank_src")
    if pair.tgt.is_blank:
        flags.append("blank_tgt")
    if len(pair.src.tokens) > max_tokens:
        flags.append("overlength_src")
    if len(pair.tgt.tokens) > max_tokens:
        flags.append("overlength_tgt")
    return tuple(flags)


def score_pair(
    pair: SentencePair,
    fwd_scorer: Scorer,
    rev_scorer: Scorer,
    in_scorer: Scorer,
    out_scorer: Scorer,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> ScoreRecord:
    trusted = pair.provenance is Provenance.TRUSTED
    flags = diagnostic_flags(pair, max_tokens)
    if flags:
        return _degenerate_record(pair.id, trusted, flags)
    try:
        h_fwd = fwd_scorer(pair)
        h_rev = rev_scorer(pair)
        h_in = in_scorer(pair)
        h_out = out_scorer(pair)
    except ScoringError:
        raise
    except Exception as exc:
        raise ScoringError(f"scorer failed on pair {pair.id}: {exc}") from exc
    return make_record(pair.id, h_fwd, h_rev, h_in, h_out, trusted=trusted)


def score_corpus(
    corpus: Iterable[SentencePair],
    fwd_scorer: Scorer,
    rev_scorer: Scorer,
    in_scorer: Scorer,
    out_scorer: Scorer,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> Iterator[ScoreRecord]:
    """One ScoreRecord per pair, in id order, single streaming pass."""
    for pair in corpus:
        yield score_pair(pair, fwd_scorer, rev_scorer, in_scorer, out_scorer, max_tokens)


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


class TableScorer:
    """Cross-entropy lookup from an external score table, keyed by pair id."""

    def __init__(self, table: ExternalScoreTable):
        self.table = table

    def __call__(self, pair: SentencePair) -> float:
        return self.table.lookup(pair.id)


def _format_float(x: float) -> str:
    return f"{x:.6g}"


def format_record(record: ScoreRecord) -> str:
    flags = (("trusted",) if record.trusted else ()) + record.flags
    return "\t".join(
        (
            str(record.pair_id),
            _format_float(record.h_fwd),
            _format_float(record.h_rev),
            _format_float(record.h_in),
            _format_float(record.h_out),
            _format_float(record.adq),
            _format_float(record.dom),
            _format_float(record.combined),
            ",".join(flags) if flags else "-",
        )
    )


def write_score_file(records: Iterable[ScoreRecord], path: str | Path) -> int:
    """Write records as headered TSV with 6-significant-digit floats."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(SCORE_HEADER) + "\n")
        for record in records:
            fh.write(format_record(record) + "\n")
            n += 1
    return n


def parse_record(line: str, path: str, line_no: int) -> ScoreRecord:
    parts = line.split("\t")
    if len(parts) != len(SCORE_HEADER):
        raise ModelFormatError(
            f"{path}: line {line_no}: expected {len(SCORE_HEADER)} columns, "
            f"found {len(parts)}"
        )
    try:
        pair_id = int(parts[0])
        floats = [float(p) for p in parts[1:8]]
    except ValueError:
        raise ModelFormatError(
            f"{path}: line {line_no}: non-numeric field in {line!r}"
        ) from None
    raw_flags = tuple(parts[8].split(",")) if parts[8] != "-" else ()
    trusted = "trusted" in raw_flags
    flags = tuple(f for f in raw_flags if f != "trusted")
    bad = [f for f in flags if f not in _DIAG_FLAGS]
    if bad:
        raise ModelFormatError(f"{path}: line {line_no}: unknown flags {bad}")
    return ScoreRecord(
        pair_id,
        floats[0],
        floats[1],
        floats[2],
        floats[3],
        adq=floats[4],
        dom=floats[5],
        combined=floats[6],
        trusted=trusted,
        flags=flags,
    )


def read_score_file(path: str | Path) -> Iterator[ScoreRecord]:
    """Stream records back from a score file written by write_score_file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != "\t".join(SCORE_HEADER):
                raise ModelFormatError(f"{path}: line 1: bad or missing score header")
            for line_no, line in enumerate(fh, start=2):
                yield parse_record(line.rstrip("\n"), str(path), line_no)
    except UnicodeDecodeError:
        raise invalid_utf8(path, ModelFormatError) from None


# ---------------------------------------------------------------------------
# Parallel scoring: shard the corpus into contiguous id ranges, score shards
# in worker processes, and write shard outputs back in shard order. Each
# record is a pure function of its pair, so output bytes are identical for
# any worker count. Workers seek straight to byte offsets found by one scan
# rather than re-reading the file from the start.
# ---------------------------------------------------------------------------

MAX_SHARD_LINES = 25_000
# Lines between recorded byte offsets, so shards start on multiples of it;
# it divides MAX_SHARD_LINES.
OFFSET_GRANULE = 1_000

_WORKER_STATE: dict | None = None


def _init_worker(state: dict) -> None:
    global _WORKER_STATE
    _WORKER_STATE = state


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


def _score_shard(shard: tuple[int, int, tuple[int, ...]]) -> str:
    state = _WORKER_STATE
    assert state is not None
    start, count, offsets = shard
    pairs = open_corpus(**state["corpus"], start=start, count=count, offsets=offsets)
    records = score_corpus(pairs, *state["scorers"], state["max_tokens"])
    return "".join(format_record(record) + "\n" for record in records)


def _score_shards(shards: list, state: dict, workers: int) -> Iterator[str]:
    """Each shard's formatted records, in shard order."""
    if workers <= 1 or len(shards) <= 1:
        _init_worker(state)
        yield from map(_score_shard, shards)
        return
    # Fork hands the models to the workers without pickling them.
    with multiprocessing.get_context("fork").Pool(
        workers, initializer=_init_worker, initargs=(state,)
    ) as pool:
        yield from pool.imap(_score_shard, shards)


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
    provenance: Provenance = Provenance.CANDIDATE,
    max_tokens: int = DEFAULT_MAX_TOKENS,
    workers: int = 1,
) -> int:
    """Score a corpus from disk into a score file, optionally in parallel.

    Returns the number of records written. Output is byte-identical for any
    worker count: shards are contiguous id ranges re-emitted in order (see
    :func:`shard_plan`). Twin files of different lengths, and an external
    score table whose length is not the pair count, fail before the first
    pair is scored.
    """
    n_pairs, offsets = corpus_offsets(path, src_path, tgt_path, every=OFFSET_GRANULE)
    shards = [
        (start, count, offsets[start // OFFSET_GRANULE])
        for start, count in shard_plan(n_pairs, workers)
        if count
    ]
    scorers = (fwd_scorer, rev_scorer, in_scorer, out_scorer)
    for scorer in scorers:
        if isinstance(scorer, TableScorer) and len(scorer.table) != n_pairs:
            raise ExternalScoreError(
                f"{scorer.table.source}: {len(scorer.table)} scores for a corpus "
                f"of {n_pairs} pairs"
            )

    state = {
        "corpus": {
            "path": path,
            "src_path": src_path,
            "tgt_path": tgt_path,
            "lowercase": lowercase,
            "provenance": provenance,
        },
        "scorers": scorers,
        "max_tokens": max_tokens,
    }

    n_written = 0
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(SCORE_HEADER) + "\n")
        for blob in _score_shards(shards, state, workers):
            fh.write(blob)
            n_written += blob.count("\n")
    return n_written
