"""Streaming ingestion, tokenization, sampling, and emission of text corpora.

Corpora are UTF-8, LF-terminated, one sentence per line, either as twin files
(``corpus.src`` + ``corpus.tgt``) or as 2-column TSV. Streams make a single
forward pass; memory use is independent of corpus length.
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


def _iter_lines(path: str | Path) -> Iterator[str]:
    # Binary read so decode errors can name a byte offset within the line.
    with open(path, "rb") as fh:
        for line_no, data in enumerate(fh, 1):
            try:
                line = data.rstrip(b"\n").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorpusFormatError(
                    f"{path}: line {line_no}: invalid UTF-8 at byte offset {exc.start}"
                ) from exc
            yield line


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


def _tsv_pairs(
    path: str | Path, offset: int, start: int, tokenized: bool, lowercase: bool
) -> Iterator:
    # Binary read, so a decode error can name a byte offset within its line.
    # Faults are found by the exceptions they raise, not by a test per line.
    with open(path, "rb") as fh:
        fh.seek(offset)
        try:
            for pair_id, data in enumerate(fh, start):
                src, tgt = data.rstrip(b"\n").decode().split("\t")
                if tokenized:
                    yield SentencePair(
                        pair_id,
                        Sentence((src.lower() if lowercase else src).split(), src),
                        Sentence((tgt.lower() if lowercase else tgt).split(), tgt),
                    )
                else:
                    yield src, tgt
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(
                f"{path}: line {pair_id + 1}: invalid UTF-8 at byte offset {exc.start}"
            ) from exc
        except ValueError:  # not two columns
            found = data.count(b"\t") + 1
            raise CorpusFormatError(
                f"{path}: line {pair_id + 1}: expected 2 tab-separated columns, found {found}"
            ) from None


def _twin_pairs(
    src_path: str | Path,
    tgt_path: str | Path,
    offsets: tuple[int, ...],
    start: int,
    tokenized: bool,
    lowercase: bool,
) -> Iterator:
    with open(src_path, "rb") as fs, open(tgt_path, "rb") as ft:
        fs.seek(offsets[0])
        ft.seek(offsets[1])
        try:
            for pair_id, (s, t) in enumerate(zip(fs, ft, strict=True), start):
                src = s.rstrip(b"\n").decode()
                tgt = t.rstrip(b"\n").decode()
                if tokenized:
                    yield SentencePair(
                        pair_id,
                        Sentence((src.lower() if lowercase else src).split(), src),
                        Sentence((tgt.lower() if lowercase else tgt).split(), tgt),
                    )
                else:
                    yield src, tgt
        except UnicodeDecodeError as exc:
            # The source line is decoded first, so bytes equal to it are its own.
            path = src_path if exc.object == s.rstrip(b"\n") else tgt_path
            raise CorpusFormatError(
                f"{path}: line {pair_id + 1}: invalid UTF-8 at byte offset {exc.start}"
            ) from exc
        except ValueError:  # strict zip: one file ended before the other
            n_src, _ = count_lines(src_path, sys.maxsize)
            n_tgt, _ = count_lines(tgt_path, sys.maxsize)
            _check_twin_lengths(src_path, n_src, tgt_path, n_tgt)
            raise


def _pairs(
    path: str | Path | None,
    src_path: str | Path | None,
    tgt_path: str | Path | None,
    start: int,
    count: int | None,
    offsets: tuple[int, ...],
    tokenized: bool,
    lowercase: bool = False,
) -> Iterator:
    if path is not None:
        if src_path is not None or tgt_path is not None:
            raise CorpusFormatError("give either a TSV path or twin paths, not both")
        pairs = _tsv_pairs(path, offsets[0], start, tokenized, lowercase)
    elif src_path is None or tgt_path is None:
        raise CorpusFormatError("twin-file corpus needs both source and target paths")
    else:
        pairs = _twin_pairs(src_path, tgt_path, offsets, start, tokenized, lowercase)
    return pairs if count is None else itertools.islice(pairs, count)


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

    ``offsets`` holds the byte offset of pair ``start`` in each file, from
    :func:`corpus_offsets`. Twin files of different lengths fail when the
    shorter one ends.
    """
    return _pairs(path, src_path, tgt_path, start, count, offsets, tokenized=False)


def open_corpus(
    path: str | Path | None = None,
    src_path: str | Path | None = None,
    tgt_path: str | Path | None = None,
    lowercase: bool = False,
    start: int = 0,
    count: int | None = None,
    offsets: tuple[int, ...] = (0, 0),
) -> Iterator[SentencePair]:
    """Stream the pairs of :func:`read_rows`, tokenized as :func:`tokenize`
    does, with their ids."""
    return _pairs(path, src_path, tgt_path, start, count, offsets, True, lowercase)


def read_mono(path: str | Path, lowercase: bool = False) -> list[Sentence]:
    """Read a monolingual file into memory, one Sentence per line."""
    return [tokenize(line, lowercase) for line in _iter_lines(path)]


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
