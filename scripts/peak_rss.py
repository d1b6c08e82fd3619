#!/usr/bin/env python3
"""Run a command and print one line of JSON with the usage of the command and
of the children it waited for: wall and CPU seconds, peak RSS and minor page
faults.

The command is forked from this small process and started with exec, and its
usage is read with os.wait4, so the peak RSS counts this launcher's own RSS
at the fork (about 13 MiB; ``-- python3 -c pass`` shows the floor) and not
that of whatever runs this script. The JSON goes to standard output after
the command's own output, and the script exits with the command's status.

Example, from the repository root:
    PYTHONPATH=src python3 scripts/peak_rss.py -- python3 -m pairsieve pipeline --config run.cfg
"""

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if not argv:
        print("usage: peak_rss.py -- CMD [ARG ...]", file=sys.stderr)
        return 2
    started = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(argv[0], argv)
        except OSError as exc:
            print(f"peak_rss.py: cannot run {argv[0]}: {exc}", file=sys.stderr)
        os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "cmd": argv,
        "exit": code,
        "wall_s": round(time.perf_counter() - started, 3),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "maxrss_mib": round(usage.ru_maxrss / 1024, 2),
        "minflt": usage.ru_minflt,
    }), flush=True)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
