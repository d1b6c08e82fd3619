#!/usr/bin/env python3
"""Peak memory of `pairsieve pipeline` at given trusted sample sizes.

Writes a seeded trusted draw and a candidate crawl with the benchmark's input
generator (`sievebench/gen.py`, the 1,000-word language pair) into a
temporary directory, then runs the pipeline once per `--sample-size` through
`scripts/peak_rss.py`. Each run prints peak_rss.py's JSON line, extended with
the sample size and the sha256 of the four trained model files, so two
checkouts can be compared for memory and for model bytes.

Example, from the repository root (the README's scale figures):
    python3 scripts/sample_memory.py --sample-size 25000 --sample-size 50000
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

MODELS = ("fwd.tm", "rev.tm", "in.lm", "out.lm")
SEED = 7  # of the draws and of the pipeline's sample


def run_pipeline(work: Path, sample_size: int, workers: int) -> dict:
    config = work / f"sample{sample_size}.cfg"
    prefix = f"sample{sample_size}"
    config.write_text(
        "candidate_src = crawl.src\ncandidate_tgt = crawl.tgt\n"
        "trusted_src = trusted.src\ntrusted_tgt = trusted.tgt\n"
        f"out_prefix = {prefix}\nthreshold = 0.03\nseed = {SEED}\n"
        f"sample_size = {sample_size}\nlm_order = 2\n"
        f"workers = {workers}\nlog_level = warning\n",
        encoding="utf-8",
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "peak_rss.py"), "--",
            sys.executable, "-m", "pairsieve", "pipeline", "--config", config.name,
        ],
        cwd=work, env=env, stdout=subprocess.PIPE, text=True,
    )
    usage = json.loads(proc.stdout.splitlines()[-1])
    usage["sample_size"] = sample_size
    if usage["exit"] == 0:
        usage["model_sha256"] = {
            name: hashlib.sha256((work / f"{prefix}.{name}").read_bytes()).hexdigest()
            for name in MODELS
        }
    return usage


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sample-size", type=int, action="append", required=True,
                        help="trusted sample size of one pipeline run (repeatable)")
    parser.add_argument("--trusted", type=int, default=100_000, help="trusted pairs drawn")
    parser.add_argument("--crawl", type=int, default=4_000, help="candidate pairs drawn")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    status = 0
    with tempfile.TemporaryDirectory(prefix="sample_memory.") as tmp:
        work = Path(tmp)
        gen.generate(SEED, work, gen.Sizes(trusted=args.trusted, crawl=args.crawl))
        for sample_size in args.sample_size:
            usage = run_pipeline(work, sample_size, args.workers)
            print(json.dumps(usage), flush=True)
            status = status or usage["exit"]
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
