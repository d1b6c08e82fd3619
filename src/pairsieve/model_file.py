"""The plain-text layouts of the files pairsieve reads besides corpora: model
files (a ``magic<TAB>version`` line, ``key<TAB>value`` headers and row sections
whose length a count header gives) and id-keyed files (one tab-separated
record per line, pair i's with id ``str(i)``). Every error names the file and,
where there is one, the line.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Hashable, Iterator, Sequence
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Any, NamedTuple, TypeVar

from .errors import IncompatibleModelError, ModelFormatError, PairsieveError

T = TypeVar("T")

NumberedLines = Iterator[tuple[int, str]]

# An id-keyed file is read 32 KiB of text at a time. A block's fields, columns
# and records take about 20 bytes per character of it while it is checked, so
# a larger block only raises the peak (by 5 MiB at 256 KiB) and reads no faster.
BLOCK_CHARS = 1 << 15


def first_line(magic: str, version: int) -> str:
    """The line that opens a file of this format, without its newline."""
    return f"{magic}\t{version}"


def read_magic(path: str | Path) -> str:
    """The magic word of the file at ``path``: its first line up to the first
    tab. Only that much is read, as bytes, so any file can be asked."""
    with open(path, "rb") as fh:
        head = fh.readline(64)
    return head.split(b"\t", 1)[0].decode("utf-8", "replace")


@contextmanager
def numbered_lines(path: str | Path, error: type[PairsieveError]) -> Iterator[NumberedLines]:
    """``enumerate(fh, 1)`` over the UTF-8 text file at ``path``, each line
    with its newline. Text that is not UTF-8 raises ``error`` naming its first
    bad line, found by reading the file again as bytes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield enumerate(fh, 1)
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = data.count(b"\n", 0, exc.start) + 1
            raise error(f"{path}: line {line_no}: invalid UTF-8") from None
        raise error(f"{path}: invalid UTF-8") from None  # the file changed since it failed


class IdKeyedFormat(NamedTuple):
    """A score file, an external score table or a labels file: ``columns``
    fields a line, the id first, after the ``header`` line if there is one.
    ``convert(ids, *columns)`` takes a run of records, their ids as a range
    and each further column as a list of texts, and returns what they hold;
    on a fault it raises ValueError saying what is wrong with the first bad
    field. A fault raises ``error``, which names the format by ``name``."""

    name: str
    columns: int
    convert: Callable[..., Any]
    error: type[PairsieveError]
    header: str | None = None


def read_id_keyed(path: str | Path, fmt: IdKeyedFormat) -> Iterator[Any]:
    """``fmt.convert``'s value for each block of the file at ``path``: its
    next BLOCK_CHARS of text, carried on to a line's end. Rebuilt from its
    columns and ids counting on from the last block's, a block must come out
    the same, which checks every line's column count and id text at once.
    Only on a fault is the file read again, line by line, to raise
    ``fmt.error`` for its first bad line."""
    n = fmt.columns
    try:
        with open(path, "r", encoding="utf-8") as fh:
            if fmt.header is not None and fh.readline().rstrip("\n") != fmt.header:
                raise ValueError("bad or missing header")
            start = 0
            while block := fh.read(BLOCK_CHARS):
                if block[-1] != "\n":
                    block += fh.readline()
                    if block[-1] != "\n":  # the last line has no newline
                        block += "\n"
                fields = block.replace("\n", "\t").split("\t")
                columns = [fields[j::n] for j in range(1, n)]
                ids = range(start, start + len(columns[0]))
                # The empty last item ends the last line; no lines rebuild as "".
                if "\n".join([*map("\t".join, zip(map(str, ids), *columns)), ""]) != block:
                    raise ValueError("a line has another column count or id")
                yield fmt.convert(ids, *columns)
                start = ids.stop
    except ValueError:  # also text that is not UTF-8
        raise _first_fault(path, fmt) from None


def _first_fault(path: str | Path, fmt: IdKeyedFormat) -> PairsieveError:
    """The error for the first line of the file at ``path`` that breaks
    ``fmt``, each record converted on its own; invalid UTF-8 raises from the
    read."""
    first = 1 if fmt.header is None else 2  # the line of record 0
    with numbered_lines(path, fmt.error) as lines:
        if fmt.header is not None and next(lines, (1, ""))[1].rstrip("\n") != fmt.header:
            return fmt.error(f"{path}: line 1: bad or missing {fmt.name} header")
        for line_no, line in lines:
            fields, i = line.rstrip("\n").split("\t"), line_no - first
            try:
                if len(fields) != fmt.columns:
                    raise ValueError(f"expected {fmt.columns} columns, found {len(fields)}")
                if fields[0] != str(i):
                    raise ValueError(
                        f"id {fields[0]}, expected {i}; ids count 0, 1, 2, ... in line order"
                    )
                fmt.convert(range(i, i + 1), *([field] for field in fields[1:]))
            except ValueError as exc:
                return fmt.error(f"{path}: line {line_no}: {exc}")
    return fmt.error(f"{path}: changed while it was read")


def float_column(name: str, texts: Sequence[str]) -> list[float]:
    """The column ``name``'s texts as floats, or a ValueError naming the first
    that is not a number."""
    try:
        return list(map(float, texts))
    except ValueError:
        for text in texts:
            try:
                float(text)
            except ValueError:
                raise ValueError(f"non-numeric {name} {text!r}") from None
        raise


def check_finite_nonnegative(name: str, texts: Sequence[str], values: Sequence[float]) -> None:
    """Raise a ValueError naming the first of the column ``name``'s values
    (read from ``texts``) that is not finite and >= 0."""
    # A nan or inf fails the sum, but so do finite values whose sum overflows:
    # only then is each value tested on its own.
    if not (min(values, default=0.0) >= 0.0 and sum(values) < math.inf):
        for text, value in zip(texts, values):
            if not 0.0 <= value < math.inf:  # false for nan too
                raise ValueError(f"{name} {text!r} is not finite and >= 0")


class ModelFile:
    """A forward reader over the numbered lines of one model file, whose
    first line names the expected format; no line is kept once it is read.
    A loader checks each row as it comes, and names the row's own line."""

    def __init__(self, path: str | Path, lines: NumberedLines, magic: str, version: int):
        self.path = path
        self._lines = lines
        # The number of the last line read, or of the last section's last line.
        self.line_no, line = next(lines, (1, None))
        if line is None:
            raise self.error(1, "empty model file")
        expected = first_line(magic, version)
        line = line.rstrip("\n")
        if line != expected:
            raise IncompatibleModelError(
                f"{path}: line 1: expected header {expected!r}, got {line!r}"
            )

    def error(self, line_no: int, why: str) -> ModelFormatError:
        return ModelFormatError(f"{self.path}: line {line_no}: {why}")

    def header(self, key: str, parse: Callable[[str], T]) -> T:
        """The value of the next line, which must be ``key<TAB>value``,
        converted by ``parse``; a ValueError from ``parse`` fails the load."""
        self.line_no, line = next(self._lines, (self.line_no + 1, None))
        if line is None:
            raise self.error(self.line_no, f"missing '{key}' header")
        line = line.rstrip("\n")
        parts = line.split("\t")
        if len(parts) != 2 or parts[0] != key:
            raise self.error(self.line_no, f"expected '{key}' header, got {line!r}")
        try:
            return parse(parts[1])
        except ValueError:
            raise self.error(self.line_no, f"bad '{key}' header: {line!r}") from None

    def count(self, key: str) -> int:
        """A header that gives a count, an integer >= 0."""
        n = self.header(key, int)
        if n < 0:
            raise self.error(self.line_no, f"'{key}' must be >= 0, got {n}")
        return n

    def rows(self, n: int) -> NumberedLines:
        """The next ``n`` numbered lines, each with its newline (which float()
        and int() ignore), or fewer if the file ends first. A count beyond
        ``sys.maxsize`` reads to the end. A loader that finds fewer distinct
        keys than ``n`` in them raises :meth:`section_error`."""
        self._section = (self.line_no + 1, n)
        self.line_no += n
        return islice(self._lines, min(n, sys.maxsize))

    def check_end(self, name: str) -> None:
        """Fail if any line follows the last section."""
        line_no, line = next(self._lines, (None, None))
        if line is not None:
            raise self.error(line_no, f"trailing content after {name} section")

    def section_error(self, key_of: Callable, what: str, name: str) -> ModelFormatError:
        """The error for the section last read, whose rows hold fewer distinct
        keys, each found by ``key_of`` from a row without its newline, than
        its count header gives: the first row that repeats an earlier key, or
        else the end of a file too short for the section. Only this failure
        reads the file again."""
        start, n = self._section
        seen: dict[Hashable, int] = {}
        with numbered_lines(self.path, ModelFormatError) as lines:
            for line_no, line in islice(lines, start - 1, min(start - 1 + n, sys.maxsize)):
                key = key_of(line.rstrip("\n"))
                if key in seen:
                    return self.error(line_no, f"repeats the {what} of line {seen[key]}")
                seen[key] = line_no
        return self.error(start + len(seen), f"truncated {name} section")
