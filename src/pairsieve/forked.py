"""Run calls in forked child processes, the only module that forks. A child
inherits its call through fork and sends back only the pickled outcome."""

from __future__ import annotations

import collections
import itertools
import os
import pickle
import signal
import traceback
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager

from .errors import PairsieveError


class ChildTraceback(Exception):
    """The traceback text of an exception raised in a child: the cause of the
    exception the parent raises in its place, as in concurrent.futures."""


def _start(fn: Callable, arg):
    """Fork a child that writes the pickled ``(ok, value)`` of ``fn(arg)`` to a
    pipe, exiting 0 once all is written; return its pid and the read end. On
    an exception the value is the exception and its formatted traceback."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            try:
                outcome = (True, fn(arg))
            except Exception as exc:
                outcome = (False, (exc, traceback.format_exc()))
            with os.fdopen(w, "wb") as pipe:
                pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    return pid, os.fdopen(r, "rb")


@contextmanager
def forked_map(
    fn: Callable, args: Sequence, workers: int, what: Callable[..., str]
) -> Iterator[Iterator]:
    """Run ``fn(arg)`` for each of ``args``; the block reads the results in
    order from the iterator it is given.

    With ``workers`` >= 2, each call runs in a forked child, at most
    ``workers`` at once, the first from the block's entry so the caller can
    work alongside them. A call starts once the oldest child's result is
    read, so none starts after an error. A dead child raises PairsieveError
    named by ``what(arg)`` of its own call. The block's end kills and reaps
    every child left. With one worker each call runs here when read.
    """
    if workers < 2 or not args:
        yield map(fn, args)
        return
    pending = iter(args)
    running = collections.deque()  # (arg, pid, pipe) of unread calls, in order

    def results() -> Iterator:
        while running:
            arg, pid, pipe = running[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            running.popleft()
            if status or not data:
                raise PairsieveError(f"{what(arg)}: a worker process died")
            ok, value = pickle.loads(data)
            if not ok:
                exc, text = value
                raise exc from ChildTraceback(f'\n"""\n{text}"""')
            running.extend((arg, *_start(fn, arg)) for arg in itertools.islice(pending, 1))
            yield value

    try:
        running.extend((arg, *_start(fn, arg)) for arg in itertools.islice(pending, workers))
        yield results()
    finally:
        for _, pid, pipe in running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
