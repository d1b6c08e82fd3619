"""Run calls in forked child processes, the only module that forks. A child
inherits its calls through fork and sends back only the pickled outcomes."""

from __future__ import annotations

import os
import pickle
import signal
import traceback
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager, suppress

from .errors import PairsieveError


class ChildTraceback(Exception):
    """The traceback text of an exception raised in a child: the cause of the
    exception the parent raises in its place, as in concurrent.futures."""


def _start(fn: Callable, args: Sequence, first: int, step: int):
    """Fork a child that runs ``fn`` on ``args[first::step]`` in turn and
    writes the pickled ``(ok, value)`` of each call to a pipe, exiting 0 once
    all is written; on an exception the value is the exception and its
    formatted traceback. Before each call after its first the child waits for
    one byte from the parent. Return its pid, the read end and the go end."""
    r, w = os.pipe()
    go_r, go_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            os.close(go_w)
            with os.fdopen(w, "wb") as pipe:
                for i in range(first, len(args), step):
                    if i != first and not os.read(go_r, 1):
                        break  # the parent is done with this child
                    try:
                        outcome = (True, fn(args[i]))
                    except Exception as exc:
                        outcome = (False, (exc, traceback.format_exc()))
                    pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
                    pipe.flush()
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    os.close(go_r)
    return pid, os.fdopen(r, "rb"), go_w


@contextmanager
def forked_map(
    fn: Callable, args: Sequence, workers: int, what: Callable[..., str]
) -> Iterator[Iterator]:
    """Run ``fn(arg)`` for each of ``args``; the block reads the results in
    order from the iterator it is given.

    With ``workers`` >= 2, ``w = min(workers, len(args))`` children are forked
    at the block's entry, so the caller can work alongside them, and child k
    runs calls k, k + w, k + 2w, .... Each child starts its next call only
    once the parent has read its previous result, so a call starts once the
    oldest result is read and none starts after an error. Each outcome is
    unpickled straight from the child's pipe. No reference to an argument is
    kept once its child is forked; a dead child raises PairsieveError named
    by ``what(arg)`` of the call being read. The block's end kills and reaps
    every child. With one worker each call runs here when read.
    """
    if workers < 2 or not args:
        yield map(fn, args)
        return
    names = [what(arg) for arg in args]
    step = min(workers, len(args))
    children = []  # (pid, result pipe, go end) of child k, in k order
    try:
        for k in range(step):
            children.append(_start(fn, args, k, step))
        del args

        def results() -> Iterator:
            for i, name in enumerate(names):
                _, pipe, go = children[i % step]
                try:
                    ok, value = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    raise PairsieveError(f"{name}: a worker process died") from None
                if not ok:
                    exc, text = value
                    raise exc from ChildTraceback(f'\n"""\n{text}"""')
                if i + step < len(names):
                    with suppress(BrokenPipeError):  # a dead child is named on the next read
                        os.write(go, b"\0")
                yield value
                del value  # hold no result while the next one is unpickled

        yield results()
    finally:
        for pid, pipe, go in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
            os.close(go)
