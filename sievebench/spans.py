"""Spans and read counters around pairsieve's public functions.

The program itself is not instrumented: the tracer replaces module
attributes from outside, in the process that runs the command. Spans
(name, start, end, parent, attributes) stay in memory until ``dump``.
"""

from __future__ import annotations

import builtins
import functools
import io
import json
import os
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# Public functions of each layer that do a bounded piece of work per call.
# Per-pair functions (tokenize, cond_cross_entropy, cross_entropy,
# score_pair, make_record, format_record) and generators (read_score_file)
# are timed in bulk by the layer probe instead: a span per call would cost
# more than the call.
TRACED = {
    "corpus": ("open_corpus", "read_mono", "sample", "write_parallel", "write_tsv", "count_lines"),
    "lexical_tm": ("train_model1", "save_tm", "load_tm", "load_external_scores"),
    "ngram_lm": ("train_ngram", "save_lm", "load_lm"),
    "scoring": ("score_corpus_to_file",),
    "selection": ("select_top_n", "select_by_threshold", "emit_weights", "extract_selected"),
    "cli": ("main", "run_pipeline"),
}


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            **attrs,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        cpu_self, cpu_children = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["cpu_self"] = _cpu(resource.RUSAGE_SELF) - cpu_self
            record["cpu_children"] = _cpu(resource.RUSAGE_CHILDREN) - cpu_children
            self._stack.pop()

    def wrap_package(self) -> None:
        """Wrap every TRACED function wherever a pairsieve module binds it."""
        import pairsieve.cli  # noqa: F401  (imports every layer)

        modules = [m for name, m in sys.modules.items() if name.startswith("pairsieve.")]
        for layer, names in TRACED.items():
            module = sys.modules[f"pairsieve.{layer}"]
            for name in names:
                original = getattr(module, name)
                wrapped = self._wrapper(f"{layer}.{name}", original)
                for m in modules:
                    if getattr(m, name, None) is original:
                        setattr(m, name, wrapped)

    def _wrapper(self, name: str, func):
        @functools.wraps(func)
        def wrapped(*args, **kwargs):
            with self.span(name) as record:
                result = func(*args, **kwargs)
                if name == "lexical_tm.train_model1":
                    record["iterations"] = len(result[1])
                return result

        return wrapped

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


class _CountingFileIO(io.FileIO):
    """A read-only FileIO that appends 'path<TAB>bytes read' to a log on close.

    Buffered readers fill through readinto, so counting costs one call per
    buffer, not per line. The log is opened O_APPEND, so forked scoring
    workers append their own reads to the same file.
    """

    def __init__(self, path: str, log_fd: int):
        super().__init__(path, "r")
        self._counted_path = path
        self._log_fd = log_fd
        self._bytes = 0

    def readinto(self, buffer):
        n = super().readinto(buffer)
        self._bytes += n or 0
        return n

    def readall(self):
        data = super().readall()
        self._bytes += len(data)
        return data

    def close(self):
        if not self.closed:
            os.write(self._log_fd, f"{self._counted_path}\t{self._bytes}\n".encode())
        super().close()


def count_reads(paths: list[str], log_path: Path) -> None:
    """Route reads of ``paths`` through counting files for this process and its forks."""
    watched = {os.path.abspath(p) for p in paths}
    log_fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    real_open = builtins.open

    def counting_open(file, mode="r", buffering=-1, encoding=None, errors=None, newline=None, *rest, **kw):
        if isinstance(file, (str, Path)) and mode in ("r", "rb", "rt"):
            path = os.path.abspath(file)
            if path in watched:
                buffered = io.BufferedReader(_CountingFileIO(path, log_fd))
                if mode == "rb":
                    return buffered
                return io.TextIOWrapper(buffered, encoding=encoding, errors=errors, newline=newline)
        return real_open(file, mode, buffering, encoding, errors, newline, *rest, **kw)

    builtins.open = counting_open


def read_passes(log_path: Path, paths: list[str]) -> float:
    """Bytes read from ``paths`` (all processes) divided by their total size."""
    wanted = {os.path.abspath(p) for p in paths}
    total = 0
    if log_path.exists():
        for line in log_path.read_text(encoding="utf-8").splitlines():
            path, n = line.rsplit("\t", 1)
            if path in wanted:
                total += int(n)
    return total / sum(os.path.getsize(p) for p in wanted)
