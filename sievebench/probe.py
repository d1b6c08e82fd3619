"""In-process probes of pairsieve, run by run.py in fresh processes.

    probe.py load OUT.json (tm|lm|table) PATH ...   time loading scorer files
    probe.py cli SPANS.json READS.log WATCHED -- pairsieve-argv ...
                                                   run one traced command
    probe.py layers OUT.json SCORE_DIR TABLE_DIR   time per-pair functions

Each writes its spans or figures as JSON to the first path it is given.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, count_reads  # noqa: E402


def _rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return 0


def load(out: Path, specs: list[str]) -> None:
    """Load each (kind, path) with the program's loader; time and size it."""
    from pairsieve.lexical_tm import load_external_scores, load_tm
    from pairsieve.ngram_lm import load_lm

    loaders = {"tm": load_tm, "lm": load_lm, "table": load_external_scores}
    keep = []
    seconds: dict[str, float] = {}
    rss_before = _rss_kib()
    start = time.perf_counter()
    for kind, path in zip(specs[::2], specs[1::2]):
        t0 = time.perf_counter()
        keep.append(loaders[kind](path))
        seconds[kind] = seconds.get(kind, 0.0) + time.perf_counter() - t0
        if kind == "tm":
            tm_rss = _rss_kib()
    total = time.perf_counter() - start
    result = {"seconds": total, "by_kind": seconds}
    if "tm" in seconds:
        result["tm_rss_mib"] = (tm_rss - rss_before) / 1024
    out.write_text(json.dumps(result), encoding="utf-8")


def cli(spans_out: Path, reads_log: Path, watched: list[str], argv: list[str]) -> int:
    """Run one pairsieve command in this process with every layer traced."""
    tracer = Tracer()
    count_reads(watched, reads_log)
    tracer.wrap_package()
    import pairsieve.cli

    try:
        return pairsieve.cli.main(argv)
    finally:
        tracer.dump(spans_out)


def _pairs(src_path: Path, tgt_path: Path, limit: int):
    from pairsieve.corpus import open_corpus

    out = []
    for pair in open_corpus(src_path=src_path, tgt_path=tgt_path):
        if pair.src.tokens and pair.tgt.tokens and max(len(pair.src.tokens), len(pair.tgt.tokens)) <= 250:
            out.append(pair)
            if len(out) == limit:
                break
    return out


def layers(out: Path, score_dir: Path, table_dir: Path) -> None:
    """Time the per-pair functions of each layer in bulk, one span per loop."""
    from pairsieve.corpus import open_corpus, tokenize
    from pairsieve.lexical_tm import cond_cross_entropy, load_external_scores, load_tm
    from pairsieve.ngram_lm import cross_entropy, load_lm
    from pairsieve.scoring import (
        LmScorer,
        Model1Scorer,
        format_record,
        make_record,
        read_score_file,
        score_pair,
    )
    from pairsieve.selection import select_top_n

    tracer = Tracer()
    crawl_src, crawl_tgt = table_dir / "crawl.src", table_dir / "crawl.tgt"
    lines = crawl_src.read_text(encoding="utf-8").splitlines()
    lines += crawl_tgt.read_text(encoding="utf-8").splitlines()
    with tracer.span("corpus.tokenize", items=len(lines)):
        for line in lines:
            tokenize(line)
    with tracer.span("corpus.open_corpus.stream", items=len(lines) // 2):
        for _ in open_corpus(src_path=crawl_src, tgt_path=crawl_tgt):
            pass

    fwd, rev = load_tm(score_dir / "fwd.tm"), load_tm(score_dir / "rev.tm")
    lm_in, lm_out = load_lm(score_dir / "in.lm"), load_lm(score_dir / "out.lm")
    pairs = _pairs(score_dir / "crawl.src", score_dir / "crawl.tgt", 3000)
    lookups = sum((len(p.src.tokens) + 1) * len(p.tgt.tokens) + (len(p.tgt.tokens) + 1) * len(p.src.tokens) for p in pairs)
    with tracer.span("lexical_tm.cond_cross_entropy.fwd", items=len(pairs), lookups=lookups / 2):
        for p in pairs:
            cond_cross_entropy(fwd, p.src, p.tgt)
    with tracer.span("lexical_tm.cond_cross_entropy.rev", items=len(pairs)):
        for p in pairs:
            cond_cross_entropy(rev, p.tgt, p.src)
    with tracer.span("ngram_lm.cross_entropy", items=len(pairs)):
        for p in pairs:
            cross_entropy(lm_in, p.tgt)
            cross_entropy(lm_out, p.tgt)
    scorers = (Model1Scorer(fwd), Model1Scorer(rev), LmScorer(lm_in), LmScorer(lm_out))
    with tracer.span("scoring.score_pair", items=len(pairs)):
        for p in pairs:
            score_pair(p, *scorers)

    tables = [load_external_scores(table_dir / f"crawl.{role}.tab") for role in ("fwd", "rev", "in", "out")]
    n = min(20000, len(tables[0]))
    values = [[t.lookup(i) for t in tables] for i in range(n)]
    with tracer.span("scoring.make_record", items=n):
        records = [make_record(i, *v) for i, v in enumerate(values)]
    with tracer.span("scoring.format_record", items=n):
        for r in records:
            format_record(r)
    scores = table_dir / "scores.tsv"
    n_records = 0
    with tracer.span("scoring.read_score_file.stream") as record:
        for _ in read_score_file(scores):
            n_records += 1
        record["items"] = n_records
    top_n = n_records // 2
    heap = select_top_n(read_score_file(scores), top_n)
    with tracer.span("selection.select_top_n.spill", items=n_records, max_in_memory=top_n // 4):
        spill = select_top_n(read_score_file(scores), top_n, max_in_memory=top_n // 4)
    tracer.spans.append({"name": "selection.spill_matches_heap", "value": spill.selected_ids == heap.selected_ids})
    tracer.dump(out)


def main(argv: list[str]) -> int:
    command, out = argv[0], Path(argv[1])
    if command == "load":
        load(out, argv[2:])
        return 0
    if command == "cli":
        split = argv.index("--")
        return cli(out, Path(argv[2]), argv[3:split], argv[split + 1:])
    if command == "layers":
        layers(out, Path(argv[2]), Path(argv[3]))
        return 0
    raise SystemExit(f"unknown probe {command!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
