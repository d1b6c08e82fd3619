"""Sort-by-score selection and per-sentence weight emission.

Selection ranks records by combined score descending with ties broken by
ascending pair id, so results are reproducible and independent of how the
records were produced or sharded. Sorting spills to disk when the record
count exceeds the in-memory budget, merging with a fixed key comparison so
output does not depend on chunk boundaries.
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

from .corpus import SentencePair, write_parallel, write_tsv
from .errors import ScoreDomainError, StructuralError
from .scoring import ScoreRecord

# A resident (combined, id) tuple costs ~110 bytes with CPython overhead, so
# 32M keys stay inside a 4 GiB sort budget; beyond that, spill and merge.
DEFAULT_MAX_IN_MEMORY = 32_000_000

_KEY_STRUCT = struct.Struct("<dq")


@dataclass
class SelectionResult:
    """Ids selected (ascending), the score at the cut, and the counts."""

    selected_ids: list[int]
    cutoff_score: float | None
    n_requested: int | None
    n_returned: int


def _sort_key(record: ScoreRecord) -> tuple[float, int]:
    # Ascending sort of (-combined, id) = combined descending, id ascending.
    if math.isnan(record.combined):
        raise ScoreDomainError(f"pair {record.pair_id}: combined score is NaN")
    return (-record.combined, record.pair_id)


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

    Streams the input once. When n fits the memory budget a bounded heap is
    used; otherwise all keys are external-merge-sorted on disk. Either path
    returns ids in ascending order for streaming re-extraction.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    keys = (_sort_key(r) for r in records)
    if n <= max_in_memory:
        best = heapq.nsmallest(n, keys)
    else:
        with tempfile.TemporaryDirectory(prefix="pairsieve-sort-") as tmp_dir:
            spills = []
            buf: list[tuple[float, int]] = []
            for key in keys:
                buf.append(key)
                if len(buf) >= max_in_memory:
                    spills.append(_spill(buf, tmp_dir))
                    buf = []
            buf.sort()
            readers = [_read_spill(p) for p in spills]
            try:
                merged = heapq.merge(buf, *readers)
                best = list(itertools.islice(merged, n))
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
    )


def select_by_threshold(
    records: Iterable[ScoreRecord], threshold: float
) -> SelectionResult:
    """All records with combined score >= threshold, in ascending id order."""
    if not 0.0 <= threshold <= 1.0:
        raise ScoreDomainError(f"threshold must be in [0, 1], got {threshold!r}")
    selected = [(r.combined, r.pair_id) for r in records if r.combined >= threshold]
    cutoff = min((c for c, _ in selected), default=None)
    selected_ids = sorted(pair_id for _, pair_id in selected)
    return SelectionResult(
        selected_ids=selected_ids,
        cutoff_score=cutoff,
        n_requested=None,
        n_returned=len(selected),
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
    corpus: Iterable[SentencePair],
    selection: SelectionResult,
    src_path: str | Path | None = None,
    tgt_path: str | Path | None = None,
    tsv_path: str | Path | None = None,
) -> int:
    """Stream exactly the selected pairs to twin files or TSV, in id order."""
    ids = selection.selected_ids
    for i in range(1, len(ids)):
        if ids[i] <= ids[i - 1]:
            raise StructuralError("selection ids must be strictly ascending")

    def pairs() -> Iterator[SentencePair]:
        idx = 0
        for pair in corpus:
            if idx >= len(ids):
                return
            if pair.id == ids[idx]:
                idx += 1
                yield pair
        if idx < len(ids):
            raise StructuralError(
                f"selected id {ids[idx]} is beyond the end of the corpus"
            )

    if tsv_path is not None:
        return write_tsv(pairs(), tsv_path)
    if src_path is None or tgt_path is None:
        raise StructuralError("extraction needs twin output paths or a TSV path")
    return write_parallel(pairs(), src_path, tgt_path)
