#!/usr/bin/env python3
"""Sha256 of every artifact the pairsieve CLI writes, on one seeded draw.

Writes seed-N inputs with the benchmark's input generator (`sievebench/gen.py`:
a clean training draw, a fully corrupted draw, a noisy crawl with its four
external score tables, and a trusted corpus) into a temporary directory. It
then runs this checkout's CLI on them: `train-tm` in both directions,
`train-lm`, `score` at 1, 2 and 4 workers on the models and on the tables,
`select` (top-n as twin files and as TSV, and by threshold), `weights`,
`stats`, `score --trusted` on the models at 2 workers and its `stats`,
`corrupt` of the training draw, `score` and `evaluate` of the
corrupted draw, the same with `score --trusted` (whose scores tie at the
clean count's cut, so precision@clean rests on the lower-id rule), and
`pipeline` at 1 and 2 workers. It prints one JSON object
that maps each artifact to its sha256, so two checkouts that print the same
object write the same bytes. `resolved.cfg` is hashed without its
`out_prefix` line, which names each run's own prefix.

Example, from the repository root:
    python3 scripts/artifact_digests.py --seed 1 --pairs 3000
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "sievebench"))

import gen  # noqa: E402

ROLES = ("fwd", "rev", "in", "out")
WORKERS = (1, 2, 4)
PIPELINE_FILES = (
    "fwd.tm", "rev.tm", "in.lm", "out.lm", "scores.tsv",
    "selected.src", "selected.tgt", "weights.txt",
)


def _run(work: Path, *args: str) -> bytes:
    """Run one pairsieve command in ``work``; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pairsieve", "--log-level", "warning", *args],
        cwd=work, env=env, stdout=subprocess.PIPE,
    )
    if proc.returncode != 0:
        raise SystemExit(f"pairsieve {' '.join(args)} exited {proc.returncode}")
    return proc.stdout


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(work: Path, seed: int, pairs: int) -> dict[str, str]:
    """Draw the inputs under ``work``, run every command, hash what it wrote."""
    gen.generate(
        seed, work, gen.Sizes(train=pairs, raw=pairs, crawl=pairs, trusted=pairs), tables=True
    )
    out: dict[str, str] = {}

    def file(name: str) -> None:
        out[name] = _sha((work / name).read_bytes())

    train = ("--in-src", "train.src", "--in-tgt", "train.tgt")
    crawl = ("--in-src", "crawl.src", "--in-tgt", "crawl.tgt")
    for direction in ("fwd", "rev"):
        _run(work, "train-tm", *train, "--direction", direction, "--iters", "3",
             "--out", f"{direction}.tm")
    _run(work, "train-lm", "--in", "train.mono", "--order", "2", "--out", "in.lm")
    _run(work, "train-lm", "--in", "raw.mono", "--order", "2", "--out", "out.lm")
    for name in ("fwd.tm", "rev.tm", "in.lm", "out.lm"):
        file(name)

    models = ("--fwd-model", "fwd.tm", "--rev-model", "rev.tm",
              "--in-lm", "in.lm", "--out-lm", "out.lm")
    tables = tuple(
        arg for flag, role in zip(models[::2], ROLES) for arg in (flag, f"crawl.{role}.tab")
    )
    for kind, scorers in (("models", models), ("tables", tables)):
        for workers in WORKERS:
            name = f"scores.{kind}.w{workers}.tsv"
            _run(work, "score", *crawl, *scorers, "--workers", str(workers), "--out", name)
            file(name)

    scores = ("--scores", "scores.models.w1.tsv")
    top_n = str(pairs // 2)
    _run(work, "select", *crawl, *scores, "--top-n", top_n, "--out-prefix", "top")
    _run(work, "select", *crawl, *scores, "--top-n", top_n, "--format", "tsv",
         "--out-prefix", "top")
    _run(work, "select", *crawl, *scores, "--threshold", "0.05", "--out-prefix", "above")
    _run(work, "weights", *scores, "--out", "weights.txt")
    for name in ("top.src", "top.tgt", "top.tsv", "above.src", "above.tgt", "weights.txt"):
        file(name)
    out["stats.stdout"] = _sha(_run(work, "stats", *scores))
    _run(work, "score", *crawl, *models, "--trusted", "--workers", "2",
         "--out", "scores.trusted.tsv")
    file("scores.trusted.tsv")
    out["stats.trusted.stdout"] = _sha(_run(work, "stats", "--scores", "scores.trusted.tsv"))

    _run(work, "corrupt", *train, "--seed", str(seed), "--third-lang", "raw.mono",
         "--out-prefix", "noisy", "--labels", "noisy.labels")
    _run(work, "score", "--in-src", "noisy.src", "--in-tgt", "noisy.tgt", *models,
         "--workers", "2", "--out", "noisy.scores.tsv")
    _run(work, "evaluate", "--scores", "noisy.scores.tsv", "--labels", "noisy.labels",
         "--report", "noisy.report.tsv")
    _run(work, "score", "--in-src", "noisy.src", "--in-tgt", "noisy.tgt", *models,
         "--trusted", "--workers", "2", "--out", "noisy.trusted.scores.tsv")
    _run(work, "evaluate", "--scores", "noisy.trusted.scores.tsv", "--labels", "noisy.labels",
         "--report", "noisy.trusted.report.tsv")
    for name in ("noisy.src", "noisy.tgt", "noisy.labels", "noisy.scores.tsv",
                 "noisy.report.tsv", "noisy.trusted.scores.tsv", "noisy.trusted.report.tsv"):
        file(name)

    for workers in (1, 2):
        prefix = f"pipeline.w{workers}"
        (work / f"{prefix}.cfg").write_text(
            "candidate_src = crawl.src\ncandidate_tgt = crawl.tgt\n"
            "trusted_src = trusted.src\ntrusted_tgt = trusted.tgt\n"
            f"out_prefix = {prefix}\nthreshold = 0.05\nseed = {seed}\n"
            f"sample_size = {pairs // 2}\nlm_order = 2\ntm_iterations = 3\n"
            f"workers = {workers}\n",
            encoding="utf-8",
        )
        _run(work, "pipeline", "--config", f"{prefix}.cfg")
        for name in PIPELINE_FILES:
            file(f"{prefix}.{name}")
        cfg = (work / f"{prefix}.resolved.cfg").read_text(encoding="utf-8").splitlines(True)
        kept = "".join(line for line in cfg if not line.startswith("out_prefix "))
        out[f"{prefix}.resolved.cfg"] = _sha(kept.encode("utf-8"))
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="seed of the draws")
    parser.add_argument("--pairs", type=int, default=3000, help="pairs in each draw")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="artifact_digests.") as tmp:
        print(json.dumps(digests(Path(tmp), args.seed, args.pairs), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
