"""The plain-text layout every model file shares: a ``magic<TAB>version``
line, then ``key<TAB>value`` headers and row sections whose length a count
header gives. Every error names the file and, where there is one, the line.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable
from pathlib import Path
from typing import TypeVar

from .errors import IncompatibleModelError, ModelFormatError, PairsieveError

T = TypeVar("T")


def first_line(magic: str, version: int) -> str:
    """The line that opens a file of this format, without its newline."""
    return f"{magic}\t{version}"


def read_magic(path: str | Path) -> str:
    """The magic word of the file at ``path``: its first line up to the first
    tab. Only that much is read, as bytes, so any file can be asked."""
    with open(path, "rb") as fh:
        head = fh.readline(64)
    return head.split(b"\t", 1)[0].decode("utf-8", "replace")


def invalid_utf8(path: str | Path, error: type[PairsieveError]) -> PairsieveError:
    """The error for a text file at ``path`` that failed to decode, naming its
    first line that is not UTF-8; the file is read again only on failure."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        return error(f"{path}: line {line_no}: invalid UTF-8")
    return error(f"{path}: invalid UTF-8")  # the file changed since it failed


class ModelFile:
    """The lines of one model file whose first line names the expected format.

    Line indices are 0-based; every message gives the 1-based line number.
    """

    def __init__(self, path: str | Path, magic: str, version: int):
        self.path = path
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().split("\n")
        except UnicodeDecodeError:
            raise invalid_utf8(path, ModelFormatError) from None
        if lines[-1] == "":
            lines.pop()
        self.lines = lines
        if not lines:
            raise self.error(0, "empty model file")
        expected = first_line(magic, version)
        if lines[0] != expected:
            raise IncompatibleModelError(
                f"{path}: line 1: expected header {expected!r}, got {lines[0]!r}"
            )

    def error(self, index: int, why: str) -> ModelFormatError:
        return ModelFormatError(f"{self.path}: line {index + 1}: {why}")

    def header(self, index: int, key: str, parse: Callable[[str], T]) -> T:
        """The value of the ``key<TAB>value`` line at ``index``, converted by
        ``parse``; a ValueError from ``parse`` fails the load."""
        if index >= len(self.lines):
            raise self.error(index, f"missing '{key}' header")
        line = self.lines[index]
        parts = line.split("\t")
        if len(parts) != 2 or parts[0] != key:
            raise self.error(index, f"expected '{key}' header, got {line!r}")
        try:
            return parse(parts[1])
        except ValueError:
            raise self.error(index, f"bad '{key}' header: {line!r}") from None

    def count(self, index: int, key: str) -> int:
        """A header that gives a count, an integer >= 0."""
        n = self.header(index, key, int)
        if n < 0:
            raise self.error(index, f"'{key}' must be >= 0, got {n}")
        return n

    def section(self, start: int, n: int, name: str) -> list[str]:
        """The ``n`` rows from ``start`` on, which the file must hold."""
        if start + n > len(self.lines):
            raise self.error(len(self.lines), f"truncated {name} section")
        return self.lines[start:start + n]

    def check_end(self, end: int, name: str) -> None:
        """Fail if anything follows the last section, which ends before ``end``."""
        if end < len(self.lines):
            raise self.error(end, f"trailing content after {name} section")

    def row_error(self, start: int, row: str, why: str) -> ModelFormatError:
        """The error for a rejected row. Row loops keep no line counter: the
        first line from ``start`` on with its text is the bad one, because an
        identical earlier row would have failed first."""
        return self.error(self.lines.index(row, start), why)

    def repeat_error(self, start: int, keys: Iterable[Hashable], what: str) -> ModelFormatError:
        """The error for the first of ``keys``, one per row from ``start`` on,
        that repeats an earlier one. Call it only once a loader has counted
        fewer distinct keys than rows, so that a repeat exists."""
        seen: dict[Hashable, int] = {}
        for index, key in enumerate(keys, start=start):
            if key in seen:
                break
            seen[key] = index
        return self.error(index, f"repeats the {what} of line {seen[key] + 1}")
