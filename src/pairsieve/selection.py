"""Top-n and threshold selection, extraction of the selected pairs, and
per-sentence weight emission.

Selection ranks records by combined score descending with ties broken by
ascending pair id, so results are reproducible and independent of how the
records were produced or sharded. Every record of the score file is read and
checked, whatever n is. Top-n keeps the best n keys in one buffer: it adds the
next keys straight from the score stream, sorts, and drops all but the best n.
It adds n keys at a time while 2n keys fit the in-memory budget, and otherwise
as many as fit beside the best n, but never fewer than n/4, so the buffer never
holds more than max(budget, 1.25n) keys and no file is written. Extraction
streams the corpus's raw lines, never tokenized, to its end, so a score file
made for another corpus fails.

Every function here takes records as :func:`~pairsieve.scoring.read_score_file`
yields them, which checks that record i is pair i; none checks ids again.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from .corpus import Row, write_parallel, write_tsv
from .errors import ScoreDomainError, StructuralError
from .scoring import ScoreRecord

# A resident (-combined, id) key costs about 110-120 bytes with CPython
# overhead (tracemalloc), so a budget of 32M keys stays under 4 GiB; top-n
# buffers max(budget, 1.25n) keys.
DEFAULT_MAX_IN_MEMORY = 32_000_000


@dataclass
class SelectionResult:
    """Ids selected (ascending), the score at the cut, and the records read."""

    selected_ids: list[int]
    cutoff_score: float | None
    n_scored: int


def select_top_n(
    records: Iterable[ScoreRecord],
    n: int,
    max_in_memory: int = DEFAULT_MAX_IN_MEMORY,
) -> SelectionResult:
    """Take the n best records by combined score (ties: lower id wins).

    Reads every record once. Each step adds ``step`` keys to the best n so
    far, sorts, and keeps the best n: ``step`` is n while 2n keys fit
    ``max_in_memory``, else what fits beside the best n, but at least n/4
    (and at least one, so that n = 0 still reads every record). The ids come
    back in ascending order for streaming re-extraction.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if max_in_memory < 1:
        raise ValueError("max_in_memory must be >= 1")
    # Ascending sort of (-combined, id) = combined descending, id ascending.
    keys = ((-record.combined, record.pair_id) for record in records)
    step = max(min(n, max_in_memory - n), n // 4, 1)
    best: list[tuple[float, int]] = []
    n_scored = 0
    while True:
        size = len(best)
        best += itertools.islice(keys, step)
        if len(best) == size:
            break
        n_scored += len(best) - size
        best.sort()
        del best[n:]
    cutoff = -best[-1][0] if best else None
    selected_ids = sorted(pair_id for _, pair_id in best)
    return SelectionResult(
        selected_ids=selected_ids,
        cutoff_score=cutoff,
        n_scored=n_scored,
    )


def select_by_threshold(
    records: Iterable[ScoreRecord], threshold: float
) -> SelectionResult:
    """All records with combined score >= threshold; records come in id
    order, so the ids come back ascending."""
    if not 0.0 <= threshold <= 1.0:
        raise ScoreDomainError(f"threshold must be in [0, 1], got {threshold!r}")
    selected_ids = []
    cutoff = None
    n_scored = 0
    for n_scored, record in enumerate(records, 1):
        if record.combined >= threshold:
            selected_ids.append(record.pair_id)
            if cutoff is None or record.combined < cutoff:
                cutoff = record.combined
    return SelectionResult(
        selected_ids=selected_ids,
        cutoff_score=cutoff,
        n_scored=n_scored,
    )


def emit_weights(records: Iterable[ScoreRecord], path: str | Path) -> int:
    """Write one combined-score weight per line and return the line count.
    Records come as read_score_file yields them, so line i is pair i's."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for n, record in enumerate(records, 1):
            fh.write(f"{record.combined:.6g}\n")
    return n


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
    naming both inputs by ``scores_name`` and ``corpus_name``. The selected
    ids ascend strictly and lie below ``n_scored``, as both selectors return
    them from the records that :func:`~pairsieve.scoring.read_score_file`
    yields, so once the counts agree each selected pair is written.
    """

    def selected_rows() -> Iterator[Row]:
        wanted = iter(selection.selected_ids)
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

    if tsv_path is not None:
        return write_tsv(selected_rows(), tsv_path)
    if src_path is None or tgt_path is None:
        raise StructuralError("extraction needs twin output paths or a TSV path")
    return write_parallel(selected_rows(), src_path, tgt_path)
