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
    _decode_line,
    tokenize,
)
from .errors import (
    CorpusFormatError,
    ExternalScoreError,
    ModelFormatError,
    ScoreDomainError,
    ScoringError,
)
from .lexical_tm import ExternalScoreTable, LexicalTranslationModel, _oriented, cond_cross_entropy
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
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != "\t".join(SCORE_HEADER):
            raise ModelFormatError(f"{path}: line 1: bad or missing score header")
        for line_no, line in enumerate(fh, start=2):
            yield parse_record(line.rstrip("\n"), str(path), line_no)


# ---------------------------------------------------------------------------
# Parallel scoring: shard the corpus into contiguous id ranges, score shards
# in worker processes, and write shard outputs back in shard order. Each
# record is a pure function of its pair, so output bytes are identical for
# any worker count. Workers seek straight to precomputed byte offsets rather
# than re-scanning the file.
# ---------------------------------------------------------------------------

_WORKER_STATE: dict | None = None


def _init_worker(state: dict) -> None:
    global _WORKER_STATE
    _WORKER_STATE = state


def _line_offsets(path: str | Path, every: int) -> tuple[list[int], int]:
    """Byte offset of line i*every for each i, plus the total line count."""
    offsets = [0]
    pos = 0
    n = 0
    with open(path, "rb") as fh:
        for line in fh:
            pos += len(line)
            n += 1
            if n % every == 0:
                offsets.append(pos)
    return offsets, n


def _read_lines_at(
    path: str | Path, offset: int, first_line: int, count: int
) -> Iterator[str]:
    with open(path, "rb") as fh:
        fh.seek(offset)
        for i in range(count):
            data = fh.readline()
            if not data:
                return
            yield _decode_line(data.rstrip(b"\n"), str(path), first_line + i + 1)


def _shard_pairs(state: dict, shard: dict) -> Iterator[SentencePair]:
    start, count = shard["start"], shard["count"]
    lowercase = state["lowercase"]
    provenance = state["provenance"]
    if state["path"] is not None:
        for i, line in enumerate(
            _read_lines_at(state["path"], shard["offset"], start, count)
        ):
            columns = line.split("\t")
            if len(columns) != 2:
                raise CorpusFormatError(
                    f"{state['path']}: line {start + i + 1}: expected 2 "
                    f"tab-separated columns, found {len(columns)}"
                )
            yield SentencePair(
                id=start + i,
                src=tokenize(columns[0], lowercase),
                tgt=tokenize(columns[1], lowercase),
                provenance=provenance,
            )
    else:
        src_lines = _read_lines_at(state["src_path"], shard["src_offset"], start, count)
        tgt_lines = _read_lines_at(state["tgt_path"], shard["tgt_offset"], start, count)
        for i, (src_line, tgt_line) in enumerate(zip(src_lines, tgt_lines)):
            yield SentencePair(
                id=start + i,
                src=tokenize(src_line, lowercase),
                tgt=tokenize(tgt_line, lowercase),
                provenance=provenance,
            )


def _score_shard(shard: dict) -> list[str]:
    state = _WORKER_STATE
    assert state is not None
    return [
        format_record(
            score_pair(
                pair,
                state["fwd"],
                state["rev"],
                state["lm_in"],
                state["lm_out"],
                state["max_tokens"],
            )
        )
        for pair in _shard_pairs(state, shard)
    ]


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
    shard_lines: int = 25000,
) -> int:
    """Score a corpus from disk into a score file, optionally in parallel.

    Returns the number of records written. Output is byte-identical for any
    worker count: shards are contiguous id ranges re-emitted in order. An
    external score table must hold one score per pair; a table of any other
    length fails before the first pair is scored.
    """
    if path is not None:
        offsets, n_pairs = _line_offsets(path, shard_lines)
        shards = [
            {
                "start": start,
                "count": min(shard_lines, n_pairs - start),
                "offset": offsets[start // shard_lines],
            }
            for start in range(0, n_pairs, shard_lines)
        ]
    else:
        src_offsets, n_src = _line_offsets(src_path, shard_lines)
        tgt_offsets, n_tgt = _line_offsets(tgt_path, shard_lines)
        if n_src != n_tgt:
            longer = src_path if n_src > n_tgt else tgt_path
            raise CorpusFormatError(
                f"line-count mismatch: {src_path} has {n_src} lines, "
                f"{tgt_path} has {n_tgt}; first unmatched line is "
                f"{min(n_src, n_tgt) + 1} of {longer}"
            )
        n_pairs = n_src
        shards = [
            {
                "start": start,
                "count": min(shard_lines, n_pairs - start),
                "src_offset": src_offsets[start // shard_lines],
                "tgt_offset": tgt_offsets[start // shard_lines],
            }
            for start in range(0, n_pairs, shard_lines)
        ]

    for scorer in (fwd_scorer, rev_scorer, in_scorer, out_scorer):
        if isinstance(scorer, TableScorer) and len(scorer.table) != n_pairs:
            raise ExternalScoreError(
                f"{scorer.table.source}: {len(scorer.table)} scores for a corpus "
                f"of {n_pairs} pairs"
            )

    state = {
        "path": path,
        "src_path": src_path,
        "tgt_path": tgt_path,
        "lowercase": lowercase,
        "provenance": provenance,
        "fwd": fwd_scorer,
        "rev": rev_scorer,
        "lm_in": in_scorer,
        "lm_out": out_scorer,
        "max_tokens": max_tokens,
    }

    n_written = 0
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(SCORE_HEADER) + "\n")
        if workers <= 1 or len(shards) <= 1:
            _init_worker(state)
            for shard in shards:
                for line in _score_shard(shard):
                    fh.write(line + "\n")
                    n_written += 1
        else:
            with multiprocessing.get_context().Pool(
                workers, initializer=_init_worker, initargs=(state,)
            ) as pool:
                for lines in pool.imap(_score_shard, shards):
                    for line in lines:
                        fh.write(line + "\n")
                        n_written += 1
    return n_written
