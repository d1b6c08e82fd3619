"""Run calls in forked child processes: the only module that knows how work
reaches a child. A child inherits the function and its arguments through
fork, so only the index of each call goes out and only its result comes back.
"""

from __future__ import annotations

import collections
import multiprocessing
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager

from .errors import PairsieveError

# The function and arguments of the running pool, inherited by its children.
_CALLS: tuple[Callable, Sequence] | None = None


def _call(index: int):
    fn, args = _CALLS
    return fn(args[index])


@contextmanager
def forked_map(
    fn: Callable, args: Sequence, workers: int, what: Callable[..., str]
) -> Iterator[Iterator]:
    """Run ``fn(arg)`` for each of ``args``; the block reads the results in
    order from the iterator it is given.

    With ``workers`` >= 2, min(workers, len(args)) forked children run the
    calls. The first ones start as the block is entered, so the caller can
    work alongside them. A call starts only while fewer than ``workers`` run
    and none has failed, so after an error only the running calls finish. A
    dead child raises PairsieveError, named by ``what(arg)`` of the first call
    it lost. The block's end stops every child, on every path. With one
    worker each call runs in this process when its result is read.
    """
    if workers < 2 or not args:
        yield map(fn, args)
        return
    # Imported here: these modules add 1.4 MiB to every command's resident
    # set, and only the forking path uses them.
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    global _CALLS
    _CALLS = (fn, args)
    context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(min(workers, len(args)), mp_context=context)
    started = collections.deque()  # (index, future) of unread calls, in order
    n_started = 0

    def start_calls() -> None:
        nonlocal n_started
        while n_started < len(args):
            futures = [future for _, future in started]
            if sum(not f.done() for f in futures) >= workers or any(
                f.done() and f.exception() for f in futures
            ):
                return
            started.append((n_started, pool.submit(_call, n_started)))
            n_started += 1

    def results() -> Iterator:
        while started:
            index, future = started[0]
            if not future.done():
                wait([f for _, f in started if not f.done()], return_when=FIRST_COMPLETED)
                start_calls()
                continue
            started.popleft()
            try:
                result = future.result()
            except BrokenProcessPool:
                raise PairsieveError(f"{what(args[index])}: a worker process died") from None
            start_calls()
            yield result

    try:
        start_calls()
        yield results()
    finally:
        pool.shutdown()
        _CALLS = None
