"""The plain-text layout every model file shares: a ``magic<TAB>version``
line, then ``key<TAB>value`` headers and row sections whose length a count
header gives. Every error names the file and, where there is one, the line.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Hashable, Iterator
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import TypeVar

from .errors import IncompatibleModelError, ModelFormatError, PairsieveError

T = TypeVar("T")

NumberedLines = Iterator[tuple[int, str]]


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


def id_rule_message(path: str | Path, line_no: int, id_text: object, expected: int) -> str:
    """Why the id on line ``line_no`` of an id-keyed file (a score file, an
    external score table or a labels file) is not ``expected``: in each, ids
    count 0, 1, 2, ... in line order, so record i is pair i."""
    return (
        f"{path}: line {line_no}: id {id_text}, expected {expected};"
        " ids count 0, 1, 2, ... in line order"
    )


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
