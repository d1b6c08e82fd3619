"""A pipeline run checked by the benchmark's reference checker.

sievebench/gen.py makes a small seeded input and sievebench/check.py
recomputes the pipeline's outputs from the written model files, sharing no
code with pairsieve: every score, the selection and the weights.
"""

import importlib.util
import sys
from pathlib import Path

from pairsieve.cli import main

SIEVEBENCH = Path(__file__).resolve().parents[1] / "sievebench"
THRESHOLD = 0.03


def _load(name):
    """Import sievebench/<name>.py under a name of its own, so that the
    checker's pool can find its functions by that name."""
    module_name = f"sievebench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(module_name, SIEVEBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        spec.loader.exec_module(module)
    return sys.modules[module_name]


def test_pipeline_outputs_pass_the_reference_checker(tmp_path):
    gen, check = _load("gen"), _load("check")
    gen.generate(5, tmp_path, gen.Sizes(trusted=1500, crawl=300))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"candidate_src = {tmp_path / 'crawl.src'}\n"
        f"candidate_tgt = {tmp_path / 'crawl.tgt'}\n"
        f"trusted_src = {tmp_path / 'trusted.src'}\n"
        f"trusted_tgt = {tmp_path / 'trusted.tgt'}\n"
        f"out_prefix = {tmp_path / 'pipe'}\n"
        f"threshold = {THRESHOLD}\nseed = 5\nsample_size = 500\nlm_order = 2\n"
        "workers = 2\nlog_level = error\n",
        encoding="utf-8",
    )
    assert main(["--log-level", "error", "pipeline", "--config", str(cfg)]) == 0

    models = tuple(tmp_path / f"pipe.{name}" for name in ("fwd.tm", "rev.tm", "in.lm", "out.lm"))
    for tm in models[:2]:
        check.check_tm_rows(tm)
    src = (tmp_path / "crawl.src").read_text(encoding="utf-8").splitlines()
    tgt = (tmp_path / "crawl.tgt").read_text(encoding="utf-8").splitlines()
    kinds = gen.read_labels(tmp_path / "crawl.labels")
    scores = tmp_path / "pipe.scores.tsv"
    records = check.read_scores(scores)
    check.check_scores_from_models(scores, records, kinds, src, tgt, models, 2)
    ids = check.threshold_ids([r.combined for r in records], THRESHOLD)
    assert 0 < len(ids) < len(records)
    check.check_selection(str(tmp_path / "pipe.selected"), ids, src, tgt)
    check.check_weights(tmp_path / "pipe.weights.txt", records)
