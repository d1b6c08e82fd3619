"""Streaming ingestion, tokenization, sampling, and emission of text corpora.

Corpora are UTF-8, LF-terminated, one sentence per line, either as twin files
(``corpus.src`` + ``corpus.tgt``) or as 2-column TSV. One reader decodes the
lines of every file; each layout has one reader of raw rows over it, behind
:func:`read_rows`; :func:`open_corpus` is the one place that tokenizes a
pair. Streams make a single forward pass; memory use is independent of
corpus length.
"""

from __future__ import annotations

import itertools
import random
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

from .errors import CorpusFormatError

DEFAULT_MAX_TOKENS = 250


@dataclass(slots=True)
class Sentence:
    """One line of text: whitespace tokens plus the verbatim raw line.

    ``raw`` is ``""`` for a sentence that :func:`sample` kept: training
    reads only the tokens.
    """

    tokens: list[str]
    raw: str

    @property
    def is_blank(self) -> bool:
        return not self.tokens


@dataclass(slots=True)
class SentencePair:
    """An aligned (source, target) sentence with stable line-index identity."""

    id: int
    src: Sentence
    tgt: Sentence


def tokenize(line: str, lowercase: bool = False) -> Sentence:
    """Split a line into maximal non-whitespace runs.

    Tokens are lowercased when asked; ``raw`` always keeps the original line.
    """
    text = line.lower() if lowercase else line
    return Sentence(tokens=text.split(), raw=line)


def count_lines(path: str | Path, every: int) -> tuple[int, list[int]]:
    """The line count of a file, and the byte offset where line i*every
    starts for i = 0, 1, ... (the file size for the line after the last)."""
    offsets = [0]
    pos = 0
    n = 0
    with open(path, "rb") as fh:
        for line in fh:
            pos += len(line)
            n += 1
            if n % every == 0:
                offsets.append(pos)
    return n, offsets


def _check_twin_lengths(
    src_path: str | Path, n_src: int, tgt_path: str | Path, n_tgt: int
) -> None:
    if n_src != n_tgt:
        longer, shorter = (src_path, tgt_path) if n_src > n_tgt else (tgt_path, src_path)
        raise CorpusFormatError(
            f"line-count mismatch: {longer} continues past the last line of "
            f"{shorter}; first unmatched line is {min(n_src, n_tgt) + 1} of {longer}"
        )


def corpus_offsets(
    path: str | Path | None = None,
    src_path: str | Path | None = None,
    tgt_path: str | Path | None = None,
    *,
    every: int,
) -> tuple[int, list[tuple[int, ...]]]:
    """Pair count of a TSV or twin-file corpus, and for pair i*every the
    byte offset where it starts in each file, as :func:`open_corpus` takes it.

    Twin files of different lengths fail here, before any pair is read.
    """
    if path is not None:
        n, offsets = count_lines(path, every)
        return n, [(offset,) for offset in offsets]
    n_src, src_offsets = count_lines(src_path, every)
    n_tgt, tgt_offsets = count_lines(tgt_path, every)
    _check_twin_lengths(src_path, n_src, tgt_path, n_tgt)
    return n_src, list(zip(src_offsets, tgt_offsets))


def _lines(path: str | Path, offset: int, start: int) -> Iterator[str]:
    # The decoded lines of a file from byte offset ``offset``, where line
    # ``start + 1`` begins. A binary read, so a decode error can name a byte
    # offset within its line.
    with open(path, "rb") as fh:
        fh.seek(offset)
        try:
            for line_no, data in enumerate(fh, start + 1):
                yield data.rstrip(b"\n").decode()
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(
                f"{path}: line {line_no}: invalid UTF-8 at byte offset {exc.start}"
            ) from exc


def _tsv_rows(path: str | Path, offset: int, start: int) -> Iterator[tuple[str, str]]:
    # Faults are found by the exceptions they raise, not by a test per line.
    try:
        for pair_id, line in enumerate(_lines(path, offset, start), start):
            src, tgt = line.split("\t")
            yield src, tgt
    except ValueError:  # not two columns
        found = line.count("\t") + 1
        raise CorpusFormatError(
            f"{path}: line {pair_id + 1}: expected 2 tab-separated columns, found {found}"
        ) from None


def _twin_rows(
    src_path: str | Path, tgt_path: str | Path, offsets: tuple[int, ...], start: int
) -> Iterator[tuple[str, str]]:
    try:
        yield from zip(
            _lines(src_path, offsets[0], start), _lines(tgt_path, offsets[1], start),
            strict=True,
        )
    except ValueError:  # strict zip: one file ended before the other
        n_src, _ = count_lines(src_path, sys.maxsize)
        n_tgt, _ = count_lines(tgt_path, sys.maxsize)
        _check_twin_lengths(src_path, n_src, tgt_path, n_tgt)
        raise


def read_rows(
    path: str | Path | None = None,
    src_path: str | Path | None = None,
    tgt_path: str | Path | None = None,
    start: int = 0,
    count: int | None = None,
    offsets: tuple[int, ...] = (0, 0),
) -> Iterator[tuple[str, str]]:
    """The raw (source, target) lines of pairs [start, start+count) of a TSV
    corpus (``path``) or of twin files; ``count=None`` reads to the end.

    Every corpus is read here, by one raw reader per layout;
    :func:`open_corpus` tokenizes what this yields. ``offsets`` holds the
    byte offset of pair ``start`` in each file, from :func:`corpus_offsets`.
    Ambiguous paths fail at the call, bad lines when they are read, and twin
    files of different lengths when the shorter one ends.
    """
    if path is not None:
        if src_path is not None or tgt_path is not None:
            raise CorpusFormatError("give either a TSV path or twin paths, not both")
        rows = _tsv_rows(path, offsets[0], start)
    elif src_path is None or tgt_path is None:
        raise CorpusFormatError("twin-file corpus needs both source and target paths")
    else:
        rows = _twin_rows(src_path, tgt_path, offsets, start)
    return rows if count is None else itertools.islice(rows, count)


def open_corpus(
    path: str | Path | None = None,
    src_path: str | Path | None = None,
    tgt_path: str | Path | None = None,
    lowercase: bool = False,
    start: int = 0,
    count: int | None = None,
    offsets: tuple[int, ...] = (0, 0),
) -> Iterator[SentencePair]:
    """Stream the pairs of :func:`read_rows` with their ids, each side
    tokenized as :func:`tokenize` does.

    A plain function, so ambiguous paths fail at the call, as in
    :func:`read_rows`. The split is written out here rather than calling
    :func:`tokenize`, which would cost a call per side.
    """
    rows = read_rows(path, src_path, tgt_path, start, count, offsets)
    return (
        SentencePair(
            pair_id,
            Sentence((src.lower() if lowercase else src).split(), src),
            Sentence((tgt.lower() if lowercase else tgt).split(), tgt),
        )
        for pair_id, (src, tgt) in enumerate(rows, start)
    )


def read_mono(path: str | Path, lowercase: bool = False) -> list[Sentence]:
    """Read a monolingual file into memory, one Sentence per line."""
    return [tokenize(line, lowercase) for line in _lines(path, 0, 0)]


# A pair to write: its id and its raw source and target lines.
Row = tuple[int, str, str]


def write_parallel(rows: Iterable[Row], src_path: str | Path, tgt_path: str | Path) -> int:
    """Write raw lines to twin files; returns the number of pairs written."""
    n = 0
    with open(src_path, "w", encoding="utf-8") as src_fh, open(
        tgt_path, "w", encoding="utf-8"
    ) as tgt_fh:
        for _, src, tgt in rows:
            src_fh.write(src + "\n")
            tgt_fh.write(tgt + "\n")
            n += 1
    return n


def write_tsv(rows: Iterable[Row], path: str | Path) -> int:
    """Write pairs as 2-column TSV; raw lines containing tabs cannot survive."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for pair_id, src, tgt in rows:
            if "\t" in src or "\t" in tgt:
                raise CorpusFormatError(
                    f"pair {pair_id}: raw text contains a tab; "
                    "write twin files instead of TSV"
                )
            fh.write(f"{src}\t{tgt}\n")
            n += 1
    return n


def sample(
    stream: Iterable[SentencePair], n: int, seed: int
) -> list[SentencePair]:
    """Uniform reservoir sample of min(n, corpus size) pairs, id-ascending.

    Single pass, deterministic for a fixed seed. Each pair that enters the
    reservoir has its tokens interned, so the sample holds one string object
    per word, and both raw lines set to ``""``, which training never reads;
    pairs passed over are left as they are.
    """
    if n < 0:
        raise ValueError("sample size must be >= 0")
    rng = random.Random(seed)
    reservoir: list[SentencePair] = []
    for seen, pair in enumerate(stream):
        if seen < n:
            reservoir.append(_interned(pair))
            continue
        slot = rng.randrange(seen + 1)
        if slot < n:
            reservoir[slot] = _interned(pair)
    reservoir.sort(key=lambda p: p.id)
    return reservoir


def _interned(pair: SentencePair) -> SentencePair:
    intern = sys.intern
    for sentence in (pair.src, pair.tgt):
        sentence.tokens = list(map(intern, sentence.tokens))
        sentence.raw = ""
    return pair
