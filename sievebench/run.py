#!/usr/bin/env python3
"""The pairsieve benchmark: seeded inputs, timed CLI workloads, checked outputs.

    python3 sievebench/run.py --workload score-crawl --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` it runs one workload's pairsieve commands in rounds for
``--seconds`` seconds, checks every output against the reference checker and
prints the end-to-end metrics. With ``--trace 1`` it runs every workload's
commands once with each layer's public functions wrapped in spans, times the
per-pair functions in bulk, and prints the per-layer metrics; ``--workload``
then only names the span file, and ``--seconds`` is not used. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See sievebench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gen  # noqa: E402
from spans import Tracer, read_passes  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".sievebench"
SETUP_LOADS = 15  # fresh-process loads per run, spread over the rounds; setup_s is their median
PIPELINE_THRESHOLD = 0.03
TOP_N_SHARE = 0.5


class BenchError(Exception):
    """The benchmark cannot go on: a program command or a probe failed."""


@dataclass
class Usage:
    wall: float
    cpu: float
    maxrss_kib: int
    ok: bool


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv: list[str], cwd: Path, log: Path) -> subprocess.Popen:
    with open(log, "ab") as err:
        return subprocess.Popen(argv, cwd=cwd, env=_env(), stdout=err, stderr=err)


def reap(proc: subprocess.Popen, started: float) -> Usage:
    """Wait for one process; its rusage includes the workers it waited for."""
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Usage(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode == 0)


def program(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "pairsieve", "--log-level", "warning", *args]


def run(argv: list[str], cwd: Path) -> Usage:
    started = time.perf_counter()
    return reap(spawn(argv, cwd, cwd / "stderr.log"), started)


def setup_commands(argvs: list[list[str]], cwd: Path) -> None:
    """Run set-up commands concurrently; any failure stops the benchmark."""
    started = time.perf_counter()
    procs = [spawn(program(a), cwd, cwd / "stderr.log") for a in argvs]
    usages = [reap(p, started) for p in procs]
    if not all(u.ok for u in usages):
        raise BenchError(f"set-up command failed; see {cwd / 'stderr.log'}")


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").split("\n")[:-1]


def header_count(path: Path, key: str) -> int:
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith(key + "\t"):
                return int(line.split("\t")[1])
    raise BenchError(f"{path}: no {key} header")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    """One workload: its inputs, its timed commands, its checks."""

    name: str
    sizes: gen.Sizes
    tables: bool = False
    scorer_files: list[tuple[str, str]] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)

    @property
    def n_pairs(self) -> int:
        return self.sizes.crawl

    def prepare(self, work: Path, seed: int, workers: int) -> None:
        gen.generate(seed, work, self.sizes, tables=self.tables)

    def commands(self, workers: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, work: Path) -> float:
        """Check the outputs of the last round; return auc_combined."""
        raise NotImplementedError


TWIN = ["--in-src", "crawl.src", "--in-tgt", "crawl.tgt"]


class ScoreCrawl(Workload):
    def prepare(self, work: Path, seed: int, workers: int) -> None:
        super().prepare(work, seed, workers)
        setup_commands(
            [
                ["train-tm", "--in-src", "train.src", "--in-tgt", "train.tgt", "--out", "fwd.tm", "--direction", "fwd"],
                ["train-tm", "--in-src", "train.src", "--in-tgt", "train.tgt", "--out", "rev.tm", "--direction", "rev"],
            ],
            work,
        )
        setup_commands(
            [
                ["train-lm", "--in", "train.mono", "--out", "in.lm", "--order", "2"],
                ["train-lm", "--in", "raw.mono", "--out", "out.lm", "--order", "2"],
            ],
            work,
        )

    def commands(self, workers: int) -> list[list[str]]:
        return [
            ["score", *TWIN, "--fwd-model", "fwd.tm", "--rev-model", "rev.tm",
             "--in-lm", "in.lm", "--out-lm", "out.lm", "--out", "scores.tsv", "--workers", str(workers)]
        ]

    def check(self, work: Path) -> float:
        kinds = gen.read_labels(work / "crawl.labels")
        records = check.read_scores(work / "scores.tsv")
        check.check_scores_from_models(
            work / "scores.tsv", records, kinds, lines(work / "crawl.src"), lines(work / "crawl.tgt"),
            tuple(work / f for _, f in self.scorer_files), nproc(),
        )
        clean = [k == "clean" for k in kinds]
        aucs = {name: check.auc([getattr(r, name) for r in records], clean) for name in ("combined", "adq", "dom")}
        if not aucs["combined"] > max(aucs["adq"], aucs["dom"]):
            raise check.CheckError(f"combined AUC does not beat its parts: {aucs}")
        return aucs["combined"]


class PipelineTrain(Workload):
    def prepare(self, work: Path, seed: int, workers: int) -> None:
        super().prepare(work, seed, workers)
        (work / "run.cfg").write_text(
            "candidate_src = crawl.src\ncandidate_tgt = crawl.tgt\n"
            "trusted_src = trusted.src\ntrusted_tgt = trusted.tgt\n"
            f"out_prefix = pipe\nthreshold = {PIPELINE_THRESHOLD}\nseed = {seed}\n"
            f"sample_size = {self.sizes.trusted // 5}\nlm_order = 2\n"
            f"workers = {workers}\nlog_level = warning\n",
            encoding="utf-8",
        )

    def commands(self, workers: int) -> list[list[str]]:
        return [["pipeline", "--config", "run.cfg"]]

    def check(self, work: Path) -> float:
        for model in ("pipe.fwd.tm", "pipe.rev.tm"):
            check.check_tm_rows(work / model)
        kinds = gen.read_labels(work / "crawl.labels")
        records = check.read_scores(work / "pipe.scores.tsv")
        src, tgt = lines(work / "crawl.src"), lines(work / "crawl.tgt")
        check.check_scores_from_models(
            work / "pipe.scores.tsv", records, kinds, src, tgt,
            tuple(work / f for _, f in self.scorer_files), nproc(),
        )
        combined = [r.combined for r in records]
        check.check_selection(str(work / "pipe.selected"), check.threshold_ids(combined, PIPELINE_THRESHOLD), src, tgt)
        check.check_weights(work / "pipe.weights.txt", records)
        return check.auc(combined, [k == "clean" for k in kinds])


class TableSelect(Workload):
    @property
    def top_n(self) -> int:
        return int(self.n_pairs * TOP_N_SHARE)

    def commands(self, workers: int) -> list[list[str]]:
        return [
            ["score", *TWIN, "--fwd-model", "crawl.fwd.tab", "--rev-model", "crawl.rev.tab",
             "--in-lm", "crawl.in.tab", "--out-lm", "crawl.out.tab", "--out", "scores.tsv", "--workers", str(workers)],
            ["select", "--scores", "scores.tsv", "--top-n", str(self.top_n), *TWIN, "--out-prefix", "sel"],
            ["weights", "--scores", "scores.tsv", "--out", "weights.txt"],
        ]

    def check(self, work: Path) -> float:
        kinds = gen.read_labels(work / "crawl.labels")
        records = check.read_scores(work / "scores.tsv")
        tables = [check.read_table(work / f"crawl.{role}.tab") for role in ("fwd", "rev", "in", "out")]
        combined = check.check_scores_from_tables(work / "scores.tsv", records, kinds, tables)
        check.check_selection(str(work / "sel"), check.top_n_ids(combined, self.top_n), lines(work / "crawl.src"), lines(work / "crawl.tgt"))
        check.check_weights(work / "weights.txt", records)
        return check.auc(combined, [k == "clean" for k in kinds])


WORKLOADS = {
    w.name: w
    for w in (
        ScoreCrawl(
            "score-crawl", gen.Sizes(train=6000, raw=6000, crawl=50000),
            scorer_files=[("tm", "fwd.tm"), ("tm", "rev.tm"), ("lm", "in.lm"), ("lm", "out.lm")],
            outputs=["scores.tsv"],
        ),
        PipelineTrain(
            "pipeline-train", gen.Sizes(trusted=15000, crawl=4000),
            scorer_files=[("tm", "pipe.fwd.tm"), ("tm", "pipe.rev.tm"), ("lm", "pipe.in.lm"), ("lm", "pipe.out.lm")],
            outputs=[f"pipe.{a}" for a in ("fwd.tm", "rev.tm", "in.lm", "out.lm", "scores.tsv", "selected.src", "selected.tgt", "weights.txt")],
        ),
        TableSelect(
            "table-select", gen.Sizes(crawl=100000), tables=True,
            scorer_files=[("table", f"crawl.{r}.tab") for r in ("fwd", "rev", "in", "out")],
            outputs=["scores.tsv", "sel.src", "sel.tgt", "weights.txt"],
        ),
    )
}


def load_probe(work: Path, files: list[tuple[str, str]], tag: str) -> dict:
    """Load scorer files through the program's loaders in a fresh process."""
    out = work / f"load-{tag}.json"
    specs = [x for kind, path in files for x in (kind, str(work / path))]
    if not run([sys.executable, str(BENCH / "probe.py"), "load", str(out), *specs], work).ok:
        raise BenchError(f"load probe failed; see {work / 'stderr.log'}")
    return json.loads(out.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def measure(workload: Workload, seed: int, seconds: float, work: Path) -> dict:
    workers = nproc()
    workload.prepare(work, seed, workers)
    commands = [program(c) for c in workload.commands(workers)]
    rounds: list[tuple[float, float, int]] = []
    loads: list[float] = []
    first_digest = None
    identical = True
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        usages = [run(argv, work) for argv in commands]
        if not all(u.ok for u in usages):
            raise BenchError(f"a {workload.name} command failed; see {work / 'stderr.log'}")
        rounds.append((sum(u.wall for u in usages), sum(u.cpu for u in usages), max(u.maxrss_kib for u in usages)))
        d = digest([work / o for o in workload.outputs])
        first_digest = first_digest or d
        identical = identical and d == first_digest
        # Spread the set-up loads over the rounds, so that setup_s sees the
        # same stretch of machine time as the commands do.
        due = min(SETUP_LOADS, SETUP_LOADS * (time.perf_counter() - started) / seconds)
        while len(loads) < due:
            loads.append(load_probe(work, workload.scorer_files, str(len(loads)))["seconds"])
    while len(loads) < SETUP_LOADS:
        loads.append(load_probe(work, workload.scorer_files, str(len(loads)))["seconds"])
    if not identical:
        print("outputs differ between rounds", file=sys.stderr)

    correct = identical
    auc_combined = 0.0
    try:
        auc_combined = workload.check(work)
    except check.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False
    kpairs = workload.n_pairs / 1000
    metrics = {
        "pairs_per_s": (statistics.median(workload.n_pairs / wall for wall, _, _ in rounds), "1/s"),
        "cpu_s_per_kpair": (statistics.median(cpu / kpairs for _, cpu, _ in rounds), "s"),
        "peak_rss_mib": (statistics.median(rss / 1024 for _, _, rss in rounds), "MiB"),
        "setup_s": (statistics.median(loads), "s"),
        "auc_combined": (auc_combined, "ratio"),
    }
    print(
        f"{workload.name}: {workload.n_pairs} pairs, {len(rounds)} rounds of {len(commands)} commands, "
        f"round walls {[round(wall, 3) for wall, _, _ in rounds]}",
        file=sys.stderr,
    )
    return {
        "correct": correct,
        "attempted": len(rounds) * len(commands),
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


class TracedRun:
    """Runs every workload's commands once under spans, then the layer probe."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.attempted = 0
        self.commands: dict[str, list[dict]] = {}

    def command(self, key: str, cwd: Path, args: list[str], watched: list[str]) -> float:
        """Run one pairsieve command under the tracer; return its wall seconds."""
        spans_file, reads = cwd / f"spans-{key}.json", cwd / f"reads-{key}.log"
        argv = [sys.executable, str(BENCH / "probe.py"), "cli", str(spans_file), str(reads),
                *[str(cwd / w) for w in watched], "--", "--log-level", "warning", *args]
        self.attempted += 1
        with self.tracer.span(f"command.{key}"):
            usage = run(argv, cwd)
        if not usage.ok:
            raise BenchError(f"traced command {key} failed; see {cwd / 'stderr.log'}")
        base = len(self.tracer.spans)
        own = json.loads(spans_file.read_text(encoding="utf-8"))
        self.tracer.spans.extend(
            {**s, "parent": base - 1 if s["parent"] is None else s["parent"] + base} for s in own
        )
        self.commands[key] = own
        return usage.wall

    def untraced(self, cwd: Path, args: list[str]) -> float:
        self.attempted += 1
        usage = run(program(args), cwd)
        if not usage.ok:
            raise BenchError(f"command {args[0]} failed; see {cwd / 'stderr.log'}")
        return usage.wall

    def total(self, key: str, name: str, attr: str | None = None) -> float:
        spans = [s for s in self.commands[key] if s["name"] == name]
        if not spans:
            raise BenchError(f"no {name} span in {key}")
        if attr:
            return sum(s[attr] for s in spans)
        return sum(s["end"] - s["start"] for s in spans)

    def self_seconds(self, key: str) -> float:
        """cli.main wall minus the layer spans directly under a cli span."""
        spans = self.commands[key]
        main = next(s for s in spans if s["name"] == "cli.main")
        inner = sum(
            s["end"] - s["start"]
            for s in spans
            if not s["name"].startswith("cli.") and s["parent"] is not None
            and spans[s["parent"]]["name"].startswith("cli.")
        )
        return main["end"] - main["start"] - inner


def traced(seed: int, root: Path) -> dict:
    workers = nproc()
    t = TracedRun()
    dirs = {name: root / name for name in WORKLOADS}
    for name, workload in WORKLOADS.items():
        workload.prepare(dirs[name], seed, workers)
    sc, pt, ts = (WORKLOADS[n] for n in ("score-crawl", "pipeline-train", "table-select"))
    sc_dir, pt_dir, ts_dir = dirs[sc.name], dirs[pt.name], dirs[ts.name]
    crawl = ["crawl.src", "crawl.tgt"]

    t.command("score-crawl", sc_dir, sc.commands(workers)[0], crawl)
    t.command("pipeline", pt_dir, pt.commands(workers)[0], crawl)
    score_nw, select, weights = ts.commands(workers)
    # Untraced first, then the same commands traced: the tracing overhead.
    untraced_wall = sum(t.untraced(ts_dir, c) for c in (score_nw, select, weights))
    traced_wall = t.command("score-nw", ts_dir, score_nw, crawl)
    traced_wall += t.command("select", ts_dir, select, ["scores.tsv"])
    traced_wall += t.command("weights", ts_dir, weights, ["scores.tsv"])
    score_1w = [a.replace("scores.tsv", "scores-1w.tsv") for a in score_nw[:-1]] + ["1"]
    t.command("score-1w", ts_dir, score_1w, crawl)

    loads_sc = [load_probe(sc_dir, sc.scorer_files, f"t{i}") for i in range(3)]
    loads_ts = [load_probe(ts_dir, ts.scorer_files, f"t{i}") for i in range(3)]
    layer_file = root / "layers.json"
    with t.tracer.span("probe.layers"):
        if not run([sys.executable, str(BENCH / "probe.py"), "layers", str(layer_file), str(sc_dir), str(ts_dir)], root).ok:
            raise BenchError(f"layer probe failed; see {root / 'stderr.log'}")
    layer = {s["name"]: s for s in json.loads(layer_file.read_text(encoding="utf-8"))}

    correct = True
    try:
        for name, workload in WORKLOADS.items():
            workload.check(dirs[name])
        if (ts_dir / "scores-1w.tsv").read_bytes() != (ts_dir / "scores.tsv").read_bytes():
            raise check.CheckError("score files from 1 and %d workers differ" % workers)
        if not layer["selection.spill_matches_heap"]["value"]:
            raise check.CheckError("select_top_n: spill path and heap path disagree")
    except check.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    def seconds(span: str) -> float:
        return layer[span]["end"] - layer[span]["start"]

    def us_each(span: str) -> float:
        return seconds(span) * 1e6 / layer[span]["items"]

    def med(loads: list[dict], kind: str) -> float:
        return statistics.median(x["by_kind"][kind] for x in loads)

    fwd_span = layer["lexical_tm.cond_cross_entropy.fwd"]
    em_seconds = t.total("pipeline", "lexical_tm.train_model1")
    em_iters = t.total("pipeline", "lexical_tm.train_model1", "iterations")
    one_w = t.total("score-1w", "scoring.score_corpus_to_file")
    n_w = t.total("score-nw", "scoring.score_corpus_to_file")
    metrics = {
        "corpus.tokenize_us": (us_each("corpus.tokenize"), "us/line"),
        "corpus.read_us_per_pair": (us_each("corpus.open_corpus.stream"), "us"),
        "corpus.sample_s": (t.total("pipeline", "corpus.sample"), "s"),
        "corpus.write_s": (t.total("select", "corpus.write_parallel"), "s"),
        "lexical_tm.cond_xent_fwd_us": (us_each("lexical_tm.cond_cross_entropy.fwd"), "us/pair"),
        "lexical_tm.cond_xent_rev_us": (us_each("lexical_tm.cond_cross_entropy.rev"), "us/pair"),
        "lexical_tm.lookups_per_pair": (fwd_span["lookups"] / fwd_span["items"], "count"),
        "lexical_tm.em_s_per_iter": (em_seconds / em_iters, "s"),
        "lexical_tm.em_iters": (em_iters, "count"),
        "lexical_tm.rows": ((header_count(sc_dir / "fwd.tm", "rows") + header_count(sc_dir / "rev.tm", "rows")) / 2, "count"),
        "lexical_tm.load_s": (med(loads_sc, "tm"), "s"),
        "lexical_tm.model_rss_mib": (statistics.median(x["tm_rss_mib"] for x in loads_sc), "MiB"),
        "lexical_tm.save_s": (t.total("pipeline", "lexical_tm.save_tm"), "s"),
        "lexical_tm.load_table_s": (med(loads_ts, "table"), "s"),
        "ngram_lm.xent_us": (us_each("ngram_lm.cross_entropy"), "us/pair"),
        "ngram_lm.train_s": (t.total("pipeline", "ngram_lm.train_ngram"), "s"),
        "ngram_lm.load_s": (med(loads_sc, "lm"), "s"),
        "ngram_lm.save_s": (t.total("pipeline", "ngram_lm.save_lm"), "s"),
        "ngram_lm.ngrams": ((header_count(pt_dir / "pipe.in.lm", "ngrams") + header_count(pt_dir / "pipe.out.lm", "ngrams")) / 2, "count"),
        "scoring.score_pair_us": (us_each("scoring.score_pair"), "us/pair"),
        "scoring.make_record_us": (us_each("scoring.make_record"), "us/record"),
        "scoring.format_record_us": (us_each("scoring.format_record"), "us/record"),
        "scoring.parse_record_us": (us_each("scoring.read_score_file.stream"), "us/record"),
        "scoring.score_file_1w_s": (one_w, "s"),
        "scoring.score_file_nw_s": (n_w, "s"),
        "scoring.worker_speedup": (one_w / n_w, "ratio"),
        "scoring.parent_cpu_s": (t.total("score-nw", "scoring.score_corpus_to_file", "cpu_self"), "s"),
        "scoring.worker_cpu_s": (t.total("score-nw", "scoring.score_corpus_to_file", "cpu_children"), "s"),
        "scoring.score_file_mib": ((ts_dir / "scores.tsv").stat().st_size / 2**20, "MiB"),
        "selection.top_n_heap_s": (t.total("select", "selection.select_top_n"), "s"),
        "selection.top_n_spill_s": (seconds("selection.select_top_n.spill"), "s"),
        "selection.threshold_s": (t.total("pipeline", "selection.select_by_threshold"), "s"),
        "selection.weights_s": (t.total("weights", "selection.emit_weights"), "s"),
        "selection.extract_s": (t.total("select", "selection.extract_selected"), "s"),
        "cli.self_s": (t.self_seconds("pipeline"), "s"),
        "cli.candidate_passes": (read_passes(pt_dir / "reads-pipeline.log", [str(pt_dir / c) for c in crawl]), "count"),
        "cli.score_file_passes": (
            read_passes(ts_dir / "reads-select.log", [str(ts_dir / "scores.tsv")])
            + read_passes(ts_dir / "reads-weights.log", [str(ts_dir / "scores.tsv")]), "count"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
    t.tracer.dump(root / "spans.json")
    return {
        "correct": correct,
        "attempted": t.attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: one traced run of every workload, once (per-layer metrics); ignores --seconds",
    )
    args = parser.parse_args()

    if not (SRC / "pairsieve" / "__init__.py").is_file():
        print(f"error: no pairsieve package under {SRC}; run from a pairsieve checkout", file=sys.stderr)
        return 2
    mode = "traced" if args.trace else args.workload
    work = WORK / f"{mode}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)  # select_top_n's spill files stay in the checkout
    try:
        if args.trace:
            result = traced(args.seed, work)
            keep = WORK / "spans" / f"{args.workload}-seed{args.seed}.json"
            keep.parent.mkdir(exist_ok=True)
            shutil.copyfile(work / "spans.json", keep)
        else:
            result = measure(WORKLOADS[args.workload], args.seed, args.seconds, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        log = work / "stderr.log"
        if log.exists():
            sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-2000:])
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
