"""Top-n and threshold selection, extraction of the selected pairs, and
per-sentence weight emission.

Selection ranks records by combined score descending with ties broken by
ascending pair id, so results are reproducible and independent of how the
records were produced or sharded. Every record of the score file is read and
checked, whatever n is. Top-n keeps a buffer of at most 2n keys: it sorts the
buffer each time it fills and keeps the best n. When 2n keys exceed the
in-memory budget, it sorts chunks of the budget's size, spills them to disk
and merges them with the same key order, so output does not depend on chunk
boundaries. Extraction streams the corpus's raw lines, never tokenized, to its
end, so a score file made for another corpus fails.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import struct
import tempfile
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from .corpus import Row, write_parallel, write_tsv
from .errors import ScoreDomainError, StructuralError
from .scoring import ScoreRecord

# A resident (combined, id) tuple costs ~110 bytes with CPython overhead, so
# 32M keys stay inside a 4 GiB sort budget; top-n spills and merges when its
# 2n-key buffer would not fit.
DEFAULT_MAX_IN_MEMORY = 32_000_000

_KEY_STRUCT = struct.Struct("<dq")


@dataclass
class SelectionResult:
    """Ids selected (ascending), the score at the cut, and the counts."""

    selected_ids: list[int]
    cutoff_score: float | None
    n_requested: int | None
    n_returned: int
    n_scored: int


def _sort_keys(records: Iterable[ScoreRecord]) -> Iterator[tuple[float, int]]:
    # Ascending sort of (-combined, id) = combined descending, id ascending.
    for record in records:
        if math.isnan(record.combined):
            raise ScoreDomainError(f"pair {record.pair_id}: combined score is NaN")
        yield (-record.combined, record.pair_id)


def _chunks(keys: Iterator[tuple[float, int]], size: int) -> Iterator[list[tuple[float, int]]]:
    while chunk := list(itertools.islice(keys, size)):
        yield chunk


def _spill(keys: list[tuple[float, int]], tmp_dir: str) -> str:
    keys.sort()
    fd, path = tempfile.mkstemp(dir=tmp_dir, suffix=".keys")
    with os.fdopen(fd, "wb") as fh:
        for key in keys:
            fh.write(_KEY_STRUCT.pack(*key))
    return path


def _read_spill(path: str) -> Iterator[tuple[float, int]]:
    with open(path, "rb") as fh:
        while chunk := fh.read(_KEY_STRUCT.size):
            yield _KEY_STRUCT.unpack(chunk)


def select_top_n(
    records: Iterable[ScoreRecord],
    n: int,
    max_in_memory: int = DEFAULT_MAX_IN_MEMORY,
) -> SelectionResult:
    """Take the n best records by combined score (ties: lower id wins).

    Reads every record once. While 2n keys fit the memory budget, each chunk
    of n keys joins the best n so far, and a sort keeps the best n of the
    2n. Otherwise chunks of ``max_in_memory`` keys are sorted, spilled to
    disk and merged. Either way the ids come back in ascending order for
    streaming re-extraction.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if max_in_memory < 1:
        raise ValueError("max_in_memory must be >= 1")
    keys = _sort_keys(records)
    n_scored = 0
    if 2 * n <= max_in_memory:
        best: list[tuple[float, int]] = []
        # Chunks of one key at n = 0, so that every record is still read.
        for chunk in _chunks(keys, max(n, 1)):
            n_scored += len(chunk)
            best += chunk
            best.sort()
            del best[n:]
    else:
        with tempfile.TemporaryDirectory(prefix="pairsieve-sort-") as tmp_dir:
            spills = []
            for chunk in _chunks(keys, max_in_memory):
                n_scored += len(chunk)
                spills.append(_spill(chunk, tmp_dir))
            readers = [_read_spill(p) for p in spills]
            try:
                best = list(itertools.islice(heapq.merge(*readers), n))
            finally:
                for reader in readers:
                    reader.close()
    cutoff = -best[-1][0] if best else None
    selected_ids = sorted(pair_id for _, pair_id in best)
    return SelectionResult(
        selected_ids=selected_ids,
        cutoff_score=cutoff,
        n_requested=n,
        n_returned=len(best),
        n_scored=n_scored,
    )


def select_by_threshold(
    records: Iterable[ScoreRecord], threshold: float
) -> SelectionResult:
    """All records with combined score >= threshold, in ascending id order."""
    if not 0.0 <= threshold <= 1.0:
        raise ScoreDomainError(f"threshold must be in [0, 1], got {threshold!r}")
    selected = []
    n_scored = 0
    for n_scored, record in enumerate(records, 1):
        if record.combined >= threshold:
            selected.append((record.combined, record.pair_id))
    cutoff = min((c for c, _ in selected), default=None)
    selected_ids = sorted(pair_id for _, pair_id in selected)
    return SelectionResult(
        selected_ids=selected_ids,
        cutoff_score=cutoff,
        n_requested=None,
        n_returned=len(selected),
        n_scored=n_scored,
    )


def format_weight(value: float) -> str:
    return f"{value:.6g}"


def emit_weights(records: Iterable[ScoreRecord], path: str | Path) -> int:
    """Write one combined-score weight per line, line i belonging to pair i.

    Records must arrive in id order and cover 0..n-1 densely; any gap,
    duplicate, or out-of-order id is a structural error.
    """
    expected = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            if record.pair_id != expected:
                if record.pair_id > expected:
                    raise StructuralError(
                        f"weight emission: missing id {expected} "
                        f"(next record was {record.pair_id})"
                    )
                raise StructuralError(
                    f"weight emission: duplicate or out-of-order id {record.pair_id}"
                )
            if not (0.0 <= record.combined <= 1.0) or not math.isfinite(record.combined):
                raise ScoreDomainError(
                    f"weight for pair {record.pair_id} outside [0, 1]: "
                    f"{record.combined!r}"
                )
            fh.write(format_weight(record.combined) + "\n")
            expected += 1
    return expected


def extract_selected(
    rows: Iterable[tuple[str, str]],
    selection: SelectionResult,
    src_path: str | Path | None = None,
    tgt_path: str | Path | None = None,
    tsv_path: str | Path | None = None,
    scores_name: str = "the score file",
    corpus_name: str = "the corpus",
) -> int:
    """Stream exactly the selected pairs to twin files or TSV, in id order.

    ``rows`` are the corpus's raw (source, target) lines, pair 0 first, as
    :func:`~pairsieve.corpus.read_rows` gives them. They are read to the end:
    a corpus whose pair count is not the number of scored records fails,
    naming both inputs by ``scores_name`` and ``corpus_name``.
    """
    ids = selection.selected_ids
    for i in range(1, len(ids)):
        if ids[i] <= ids[i - 1]:
            raise StructuralError("selection ids must be strictly ascending")

    def selected_rows() -> Iterator[Row]:
        wanted = iter(ids)
        next_id = next(wanted, None)
        pair_id = -1
        for pair_id, (src, tgt) in enumerate(rows):
            if pair_id == next_id:
                yield pair_id, src, tgt
                next_id = next(wanted, None)
        n_rows = pair_id + 1
        if n_rows != selection.n_scored:
            raise StructuralError(
                f"{scores_name} holds {selection.n_scored} scored pairs but "
                f"{corpus_name} holds {n_rows} pairs; the scores are for another corpus"
            )
        if next_id is not None:
            raise StructuralError(f"selected id {next_id} is beyond the end of the corpus")

    if tsv_path is not None:
        return write_tsv(selected_rows(), tsv_path)
    if src_path is None or tgt_path is None:
        raise StructuralError("extraction needs twin output paths or a TSV path")
    return write_parallel(selected_rows(), src_path, tgt_path)
