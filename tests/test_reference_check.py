"""A pipeline run checked by the benchmark's reference checker.

sievebench/gen.py makes a small seeded input and sievebench/check.py
recomputes the pipeline's outputs from the written model files, sharing no
code with pairsieve: every score, the selection and the weights.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from pairsieve.cli import main

SIEVEBENCH = Path(__file__).resolve().parents[1] / "sievebench"
THRESHOLD = 0.03

# The model files this seeded run writes. Their probabilities and counts come
# from +, / and integer counts (log enters training only in its early-stop
# test), so the bytes do not depend on the platform's libm, and a change that
# keeps the arithmetic keeps them. Score files use log and exp; not pinned.
MODEL_SHA256 = {
    "fwd.tm": "5e1a9fb8c271910ad49f28159acf16f6888466ec3827d97be22c7c25396068be",
    "rev.tm": "8e5166755a112d31c054f50997afd0da0b87df83494cd42f796602f97d9d0708",
    "in.lm": "c400fa4ae0bb29f456a357e5242804a0e95ae635c8403207ff6af3c7fbf8db9d",
    "out.lm": "5552aa129e0629d1574180a036a7840ae7110c859973dc5660b00df0359a3590",
}


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


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """A seeded pipeline run at 2 workers; returns its directory."""
    tmp_path = tmp_path_factory.mktemp("reference")
    gen = _load("gen")
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
    return tmp_path


def test_pipeline_outputs_pass_the_reference_checker(pipeline_run):
    tmp_path = pipeline_run
    gen, check = _load("gen"), _load("check")
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


@pytest.mark.parametrize("name", sorted(MODEL_SHA256))
def test_pipeline_model_bytes_are_pinned(pipeline_run, name):
    data = (pipeline_run / f"pipe.{name}").read_bytes()
    assert hashlib.sha256(data).hexdigest() == MODEL_SHA256[name]
