#!/usr/bin/env python3
"""Self-test of the reference checker: it accepts the program's real outputs
and rejects the same outputs with one record perturbed or one selected pair
missing.

    python3 sievebench/selftest.py

Runs small score-crawl and table-select instances through the pairsieve CLI
(about 15 s on 2 CPUs) and exits 0 only if every expectation holds.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def rejects(workload: run.Workload, work: Path) -> bool:
    try:
        workload.check(work)
    except check.CheckError as exc:
        print(f"  rejected: {exc}")
        return True
    return False


def edit_line(path: Path, line_no: int, edit) -> str:
    """Replace line ``line_no`` (1-based, None to drop it); return the old text."""
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    old = lines[line_no - 1]
    if edit is None:
        del lines[line_no - 1]
    else:
        lines[line_no - 1] = edit(old)
    path.write_text("\n".join(lines), encoding="utf-8")
    return text


def bump_last_digit(field: str) -> str:
    return field[:-1] + str((int(field[-1]) + 3) % 10)


def perturb_field(column: int):
    def edit(line: str) -> str:
        parts = line.split("\t")
        parts[column] = bump_last_digit(parts[column])
        return "\t".join(parts)

    return edit


def first_unflagged(scores: Path) -> int:
    with open(scores, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line_no > 1 and line.rstrip("\n").endswith("\t-"):
                return line_no
    raise AssertionError("no unflagged record")


def main() -> int:
    failures = []
    sizes = {
        "score-crawl": gen.Sizes(train=1500, raw=1500, crawl=3000),
        "table-select": gen.Sizes(crawl=3000),
    }
    run.WORK.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        for name, size in sizes.items():
            workload = dataclasses.replace(run.WORKLOADS[name], sizes=size)
            work = root / name
            workload.prepare(work, seed=7, workers=run.nproc())
            for argv in workload.commands(run.nproc()):
                if not run.run(run.program(argv), work).ok:
                    raise SystemExit(f"{name}: {argv[0]} failed; see {work / 'stderr.log'}")
            print(f"{name}: real outputs")
            if rejects(workload, work):
                failures.append(f"{name}: checker rejected correct outputs")

            scores = work / "scores.tsv"
            line_no = first_unflagged(scores)
            for column, field in ((1, "h_fwd"), (7, "combined")):
                print(f"{name}: {field} of line {line_no} perturbed")
                original = edit_line(scores, line_no, perturb_field(column))
                if not rejects(workload, work):
                    failures.append(f"{name}: perturbed {field} accepted")
                scores.write_text(original, encoding="utf-8")

            if name == "table-select":
                print(f"{name}: selection lacks its third pair")
                originals = [edit_line(work / f"sel.{side}", 3, None) for side in ("src", "tgt")]
                if not rejects(workload, work):
                    failures.append(f"{name}: selection without one pair accepted")
                for side, text in zip(("src", "tgt"), originals):
                    (work / f"sel.{side}").write_text(text, encoding="utf-8")
                print(f"{name}: one weight perturbed")
                original = edit_line(work / "weights.txt", line_no - 1, bump_last_digit)
                if not rejects(workload, work):
                    failures.append(f"{name}: perturbed weight accepted")
                (work / "weights.txt").write_text(original, encoding="utf-8")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
