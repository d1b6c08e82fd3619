import faulthandler
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pairsieve import cli
from pairsieve.cli import PipelineConfig, build_parser, main, parse_config_file
from pairsieve.corpus import write_parallel
from pairsieve.errors import ConfigError, TrainingError
from pairsieve.lexical_tm import Direction, train_model1
from pairsieve.ngram_lm import train_ngram
from pairsieve.noise import read_labels
from pairsieve.scoring import ScoreRecord, read_score_file, write_score_file
from pairsieve.synthetic import make_cipher_corpus, make_third_language

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Small corpora plus pre-trained models shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    trusted = make_cipher_corpus(400, seed=1)
    candidate = make_cipher_corpus(120, seed=2)
    write_parallel(trusted, root / "trusted.src", root / "trusted.tgt")
    write_parallel(candidate, root / "cand.src", root / "cand.tgt")
    with open(root / "third.txt", "w", encoding="utf-8") as fh:
        for s in make_third_language(60, seed=3):
            fh.write(s.raw + "\n")

    args = ["--log-level", "error"]
    assert main(args + [
        "train-tm", "--in-src", str(root / "trusted.src"),
        "--in-tgt", str(root / "trusted.tgt"),
        "--out", str(root / "fwd.tm"), "--direction", "fwd", "--iters", "3",
    ]) == 0
    assert main(args + [
        "train-tm", "--in-src", str(root / "trusted.src"),
        "--in-tgt", str(root / "trusted.tgt"),
        "--out", str(root / "rev.tm"), "--direction", "rev", "--iters", "3",
    ]) == 0
    assert main(args + [
        "train-lm", "--in", str(root / "trusted.tgt"),
        "--out", str(root / "in.lm"), "--order", "2",
    ]) == 0
    assert main(args + [
        "train-lm", "--in", str(root / "cand.tgt"),
        "--out", str(root / "out.lm"), "--order", "2",
    ]) == 0
    return root


def run_cli(*argv):
    return main(["--log-level", "error", *map(str, argv)])


def test_training_leaves_no_partial_files(workdir):
    assert (workdir / "fwd.tm").exists()
    assert not list(workdir.glob("*.partial"))


def model_args(workdir):
    return [
        "--fwd-model", workdir / "fwd.tm",
        "--rev-model", workdir / "rev.tm",
        "--in-lm", workdir / "in.lm",
        "--out-lm", workdir / "out.lm",
    ]


def test_score_writes_one_record_per_pair(workdir):
    out = workdir / "scores.tsv"
    code = run_cli(
        "score", "--in-src", workdir / "cand.src", "--in-tgt", workdir / "cand.tgt",
        *model_args(workdir), "--out", out, "--workers", "2",
    )
    assert code == 0
    records = list(read_score_file(out))
    assert len(records) == 120
    assert [r.pair_id for r in records] == list(range(120))
    assert all(0.0 <= r.combined <= 1.0 for r in records)


def test_score_accepts_external_tables_for_all_roles(workdir, tmp_path):
    n = 120
    for name, value in (("f.tsv", 1.0), ("r.tsv", 3.0), ("i.tsv", 2.0), ("o.tsv", 1.0)):
        with open(tmp_path / name, "w", encoding="utf-8") as fh:
            for i in range(n):
                fh.write(f"{i}\t{value}\n")
    out = tmp_path / "ext.scores.tsv"
    code = run_cli(
        "score", "--in-src", workdir / "cand.src", "--in-tgt", workdir / "cand.tgt",
        "--fwd-model", tmp_path / "f.tsv", "--rev-model", tmp_path / "r.tsv",
        "--in-lm", tmp_path / "i.tsv", "--out-lm", tmp_path / "o.tsv",
        "--out", out,
    )
    assert code == 0
    records = list(read_score_file(out))
    # |1-3| + (1+3)/2 = 4; dom = exp(1-2) = e^-1
    assert records[0].adq == pytest.approx(math.exp(-4), rel=1e-5)
    assert records[0].dom == pytest.approx(math.exp(-1), rel=1e-5)


@pytest.mark.parametrize("n_fwd", [125, 119])
def test_score_rejects_a_table_of_the_wrong_length(workdir, tmp_path, caplog, n_fwd):
    for name, n in (("f.tsv", n_fwd), ("r.tsv", 120), ("i.tsv", 120), ("o.tsv", 120)):
        with open(tmp_path / name, "w", encoding="utf-8") as fh:
            for i in range(n):
                fh.write(f"{i}\t1.0\n")
    out = tmp_path / "x.tsv"
    code = run_cli(
        "score", "--in-src", workdir / "cand.src", "--in-tgt", workdir / "cand.tgt",
        "--fwd-model", tmp_path / "f.tsv", "--rev-model", tmp_path / "r.tsv",
        "--in-lm", tmp_path / "i.tsv", "--out-lm", tmp_path / "o.tsv",
        "--out", out,
    )
    assert code == 1
    assert not out.exists() and not list(tmp_path.glob("*.partial"))
    (record,) = caplog.records
    assert record.levelname == "ERROR"
    assert str(tmp_path / "f.tsv") in record.message
    assert f"{n_fwd} scores" in record.message and "120 pairs" in record.message


def _score_with_edited_model(workdir, tmp_path, name, edit):
    """Run score with the model ``name`` replaced by an edited copy."""
    lines = (workdir / name).read_text(encoding="utf-8").splitlines()
    edit(lines)
    bad = tmp_path / name
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    models = [bad if arg == workdir / name else arg for arg in model_args(workdir)]
    code = run_cli(
        "score", "--in-src", workdir / "cand.src", "--in-tgt", workdir / "cand.tgt",
        *models, "--out", tmp_path / "x.tsv",
    )
    return code, bad


def test_score_rejects_a_nan_tm_probability_at_load(workdir, tmp_path, caplog):
    def edit(lines):
        cond, gen, _ = lines[4].split("\t")
        lines[4] = f"{cond}\t{gen}\tnan"

    code, bad = _score_with_edited_model(workdir, tmp_path, "fwd.tm", edit)
    assert code == 1
    assert not (tmp_path / "x.tsv").exists()
    (record,) = caplog.records
    assert record.message.startswith(f"{bad}: line 5: ")


def test_score_rejects_an_lm_with_k_zero_at_load(workdir, tmp_path, caplog):
    def edit(lines):
        lines[2] = "k\t0"

    code, bad = _score_with_edited_model(workdir, tmp_path, "in.lm", edit)
    assert code == 1
    assert not (tmp_path / "x.tsv").exists()
    (record,) = caplog.records
    assert record.message.startswith(f"{bad}: line 3: ")


@pytest.mark.parametrize(
    "name, line_no",
    [("fwd.tm", 5), ("fwd.tm", None), ("fwd.tsv", 1), ("fwd.tsv", 2001)],
)
def test_score_rejects_invalid_utf8_naming_file_and_line(workdir, tmp_path, caplog, name, line_no):
    """A bad byte in a TM or table, inside or past the first 8 KiB, fails the
    load with one log line naming the file and line (None: the last)."""
    if name.endswith(".tsv"):
        lines = [f"{i}\t1.0".encode() for i in range(2001)]
    else:
        lines = (workdir / name).read_bytes().split(b"\n")[:-1]
    index = len(lines) - 1 if line_no is None else line_no - 1
    lines[index] = b"\xff" + lines[index]
    bad = tmp_path / name
    bad.write_bytes(b"".join(line + b"\n" for line in lines))
    assert bad.stat().st_size > 8192
    code = run_cli(
        "score", "--in-src", workdir / "cand.src", "--in-tgt", workdir / "cand.tgt",
        *model_args(workdir)[2:], "--fwd-model", bad, "--out", tmp_path / "x.tsv",
    )
    assert code == 1
    assert not (tmp_path / "x.tsv").exists()
    (record,) = caplog.records
    assert record.message.startswith(f"{bad}: line {index + 1}: invalid UTF-8")


def test_trusted_flag_forces_adequacy_to_one(workdir, tmp_path):
    out = tmp_path / "trusted.scores.tsv"
    code = run_cli(
        "score", "--in-src", workdir / "cand.src", "--in-tgt", workdir / "cand.tgt",
        *model_args(workdir), "--out", out, "--trusted",
    )
    assert code == 0
    for record in read_score_file(out):
        assert record.trusted
        assert record.adq == 1.0
        assert record.combined == record.dom


def test_direction_mismatch_is_a_config_error(workdir, tmp_path, capsys):
    code = run_cli(
        "score", "--in-src", workdir / "cand.src", "--in-tgt", workdir / "cand.tgt",
        "--fwd-model", workdir / "rev.tm", "--rev-model", workdir / "rev.tm",
        "--in-lm", workdir / "in.lm", "--out-lm", workdir / "out.lm",
        "--out", tmp_path / "x.tsv",
    )
    assert code == 1
    assert not (tmp_path / "x.tsv").exists()


def _handmade_scores(tmp_path, combined_values):
    records = [
        ScoreRecord(
            pair_id=i, h_fwd=1.0, h_rev=1.0, h_in=1.0, h_out=1.0,
            adq=1.0, dom=1.0, combined=c,
        )
        for i, c in enumerate(combined_values)
    ]
    path = tmp_path / "hand.scores.tsv"
    write_score_file(records, path)
    return path


def test_select_top_n_extracts_the_best_pairs(workdir, tmp_path):
    scores = _handmade_scores(tmp_path, [0.9, 0.1, 0.5] + [0.0] * 117)
    code = run_cli(
        "select", "--scores", scores, "--top-n", "2",
        "--in-src", workdir / "cand.src", "--in-tgt", workdir / "cand.tgt",
        "--out-prefix", tmp_path / "sel",
    )
    assert code == 0
    src_lines = (tmp_path / "sel.src").read_text(encoding="utf-8").splitlines()
    cand_lines = (workdir / "cand.src").read_text(encoding="utf-8").splitlines()
    assert src_lines == [cand_lines[0], cand_lines[2]]


def test_select_requires_exactly_one_mode(workdir, tmp_path):
    scores = _handmade_scores(tmp_path, [0.9, 0.1])
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "select", "--scores", scores, "--top-n", "2", "--threshold", "0.5",
            "--in-src", workdir / "cand.src", "--in-tgt", workdir / "cand.tgt",
            "--out-prefix", tmp_path / "sel2",
        )
    assert exc.value.code == 2
    assert not list(tmp_path.glob("sel2*"))


def test_weights_match_the_worked_example(tmp_path):
    scores = _handmade_scores(tmp_path, [1.0, 0.25])
    code = run_cli("weights", "--scores", scores, "--out", tmp_path / "w.txt")
    assert code == 0
    assert (tmp_path / "w.txt").read_text(encoding="utf-8") == "1\n0.25\n"


def test_weights_gap_leaves_only_partial(tmp_path):
    records = [
        ScoreRecord(pair_id=0, h_fwd=1, h_rev=1, h_in=1, h_out=1,
                    adq=1.0, dom=1.0, combined=0.5),
        ScoreRecord(pair_id=2, h_fwd=1, h_rev=1, h_in=1, h_out=1,
                    adq=1.0, dom=1.0, combined=0.5),
    ]
    scores = tmp_path / "gap.scores.tsv"
    write_score_file(records, scores)
    code = run_cli("weights", "--scores", scores, "--out", tmp_path / "w.txt")
    assert code == 1
    assert not (tmp_path / "w.txt").exists()
    assert (tmp_path / "w.txt.partial").exists()


def test_corrupt_then_evaluate_round_trip(workdir, tmp_path):
    code = run_cli(
        "corrupt", "--in-src", workdir / "cand.src", "--in-tgt", workdir / "cand.tgt",
        "--rate", "0.25", "--seed", "9", "--third-lang", workdir / "third.txt",
        "--out-prefix", tmp_path / "noisy", "--labels", tmp_path / "labels.tsv",
    )
    assert code == 0
    labels = read_labels(tmp_path / "labels.tsv")
    assert sum(1 for l in labels if not l.clean) == 30

    out = tmp_path / "noisy.scores.tsv"
    assert run_cli(
        "score", "--in-src", tmp_path / "noisy.src", "--in-tgt", tmp_path / "noisy.tgt",
        *model_args(workdir), "--out", out,
    ) == 0
    assert run_cli(
        "evaluate", "--scores", out, "--labels", tmp_path / "labels.tsv",
        "--report", tmp_path / "report.tsv",
    ) == 0
    report = dict(
        line.split("\t")
        for line in (tmp_path / "report.tsv").read_text(encoding="utf-8").splitlines()
    )
    assert float(report["auc"]) > 0.8
    assert int(report["n_corrupted"]) == 30


def test_corrupt_mix_without_third_language_fails(workdir, tmp_path):
    code = run_cli(
        "corrupt", "--in-src", workdir / "cand.src", "--in-tgt", workdir / "cand.tgt",
        "--rate", "0.2", "--seed", "1", "--mix", "wrong_language=1.0",
        "--out-prefix", tmp_path / "n2", "--labels", tmp_path / "l2.tsv",
    )
    assert code == 1


def test_stats_median_and_deciles(tmp_path, capsys):
    scores = _handmade_scores(tmp_path, [1.0, 0.5, 0.0])
    assert run_cli("stats", "--scores", scores) == 0
    stats = dict(
        line.split("\t", 1) for line in capsys.readouterr().out.splitlines()
    )
    assert stats["p50"] == "0.5"
    assert stats["min"] == "0"
    assert stats["max"] == "1"


def test_stats_constant_scores_have_flat_deciles(tmp_path, capsys):
    scores = _handmade_scores(tmp_path, [0.25] * 7)
    assert run_cli("stats", "--scores", scores) == 0
    lines = capsys.readouterr().out.splitlines()
    for decile in range(1, 10):
        assert f"p{decile * 10}\t0.25" in lines


def test_stats_empty_file_is_an_error(tmp_path):
    path = tmp_path / "empty.scores.tsv"
    write_score_file([], path)
    assert run_cli("stats", "--scores", path) == 1


@pytest.mark.parametrize("command", ["stats", "select", "weights"])
def test_score_file_with_invalid_utf8_names_file_and_line(workdir, tmp_path, caplog, command):
    scores = _handmade_scores(tmp_path, [0.5] * 120)
    lines = scores.read_bytes().split(b"\n")
    lines[30] = b"\xff" + lines[30]
    scores.write_bytes(b"\n".join(lines))
    extra = {
        "stats": [],
        "select": ["--top-n", "5", "--in-src", workdir / "cand.src",
                   "--in-tgt", workdir / "cand.tgt", "--out-prefix", tmp_path / "sel"],
        "weights": ["--out", tmp_path / "w.txt"],
    }[command]
    assert run_cli(command, "--scores", scores, *extra) == 1
    (record,) = caplog.records
    assert record.message == f"{scores}: line 31: invalid UTF-8"
    assert not {"sel.src", "sel.tgt", "w.txt"} & {p.name for p in tmp_path.iterdir()}


def test_missing_required_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("score", "--out", tmp_path / "x.tsv")
    assert exc.value.code == 2
    assert not (tmp_path / "x.tsv").exists()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


def test_mismatched_corpus_exits_1_without_output(workdir, tmp_path):
    short = tmp_path / "short.tgt"
    short.write_text("one line\n", encoding="utf-8")
    code = run_cli(
        "score", "--in-src", workdir / "cand.src", "--in-tgt", short,
        *model_args(workdir), "--out", tmp_path / "x.tsv",
    )
    assert code == 1
    assert not (tmp_path / "x.tsv").exists()


def test_workers_default_to_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1})
    args = build_parser().parse_args([
        "score", "--in", "c.tsv", "--fwd-model", "f", "--rev-model", "r",
        "--in-lm", "i", "--out-lm", "o", "--out", "s.tsv",
    ])
    assert args.workers == 1
    config = PipelineConfig.from_mapping(
        {"candidate_tsv": "c", "trusted_tsv": "t", "out_prefix": "o", "top_n": "5"}
    )
    assert config.workers == 1


@pytest.mark.parametrize("workers", ["0", "-1", "two"])
def test_score_rejects_workers_below_one_as_a_usage_error(tmp_path, capsys, workers):
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "score", "--in", "c.tsv", "--fwd-model", "f", "--rev-model", "r",
            "--in-lm", "i", "--out-lm", "o", "--out", tmp_path / "s.tsv",
            "--workers", workers,
        )
    assert exc.value.code == 2
    assert f"expected an integer >= 1, got {workers!r}" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_pipeline_config_rejects_workers_below_one(workers):
    with pytest.raises(ConfigError, match=rf"^workers must be >= 1, got {workers}$"):
        PipelineConfig.from_mapping(
            {"candidate_tsv": "c", "trusted_tsv": "t", "out_prefix": "o",
             "top_n": "5", "workers": workers}
        )


def test_pipeline_config_with_invalid_utf8_names_file_and_line(tmp_path, caplog):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"candidate_tsv = c.tsv\n\xfftrusted_tsv = t.tsv\n")
    with pytest.raises(ConfigError, match=rf"^{cfg}: line 2: invalid UTF-8$"):
        parse_config_file(cfg)
    assert run_cli("pipeline", "--config", cfg) == 1
    (record,) = caplog.records
    assert record.message == f"{cfg}: line 2: invalid UTF-8"


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pairsieve", "--help"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 0
    assert "pipeline" in proc.stdout


def test_pipeline_config_parsing_and_validation(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment\ncandidate_tsv = c.tsv\ntrusted_tsv = t.tsv\n"
        "out_prefix = out/run\ntop_n = 5\nworkers = 3\n",
        encoding="utf-8",
    )
    config = PipelineConfig.from_mapping(parse_config_file(cfg))
    assert config.top_n == 5
    assert config.workers == 3
    assert config.threshold is None
    assert config.lm_order == 3  # default

    with pytest.raises(ConfigError, match="exactly one"):
        PipelineConfig.from_mapping(
            {"candidate_tsv": "c", "trusted_tsv": "t", "out_prefix": "o"}
        )
    with pytest.raises(ConfigError, match="unknown config keys"):
        PipelineConfig.from_mapping(
            {"candidate_tsv": "c", "trusted_tsv": "t", "out_prefix": "o",
             "top_n": "1", "bogus": "x"}
        )


def test_pipeline_end_to_end_and_reruns_identically(workdir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"candidate_src = {workdir / 'cand.src'}\n"
        f"candidate_tgt = {workdir / 'cand.tgt'}\n"
        f"trusted_src = {workdir / 'trusted.src'}\n"
        f"trusted_tgt = {workdir / 'trusted.tgt'}\n"
        f"out_prefix = {tmp_path / 'pipe'}\n"
        "top_n = 30\nseed = 4\nsample_size = 400\nlm_order = 2\nworkers = 2\n"
        "log_level = error\n",
        encoding="utf-8",
    )
    assert run_cli("pipeline", "--config", cfg) == 0
    artifacts = sorted(p.name for p in tmp_path.glob("pipe.*"))
    assert artifacts == [
        "pipe.fwd.tm", "pipe.in.lm", "pipe.out.lm", "pipe.resolved.cfg",
        "pipe.rev.tm", "pipe.scores.tsv", "pipe.selected.src",
        "pipe.selected.tgt", "pipe.weights.txt",
    ]
    assert len((tmp_path / "pipe.selected.src").read_text().splitlines()) == 30
    assert len((tmp_path / "pipe.weights.txt").read_text().splitlines()) == 120

    first = {p.name: p.read_bytes() for p in tmp_path.glob("pipe.*")}
    assert run_cli("pipeline", "--config", cfg) == 0
    second = {p.name: p.read_bytes() for p in tmp_path.glob("pipe.*")}
    assert first == second


def _pipeline_config(workdir, tmp_path, workers):
    cfg = tmp_path / f"run{workers}.cfg"
    cfg.write_text(
        f"candidate_src = {workdir / 'cand.src'}\n"
        f"candidate_tgt = {workdir / 'cand.tgt'}\n"
        f"trusted_src = {workdir / 'trusted.src'}\n"
        f"trusted_tgt = {workdir / 'trusted.tgt'}\n"
        f"out_prefix = {tmp_path / 'pipe'}\n"
        "threshold = 0.05\nseed = 4\nsample_size = 300\nlm_order = 2\n"
        f"workers = {workers}\nlog_level = error\n",
        encoding="utf-8",
    )
    return cfg


def test_pipeline_artifacts_do_not_depend_on_workers(workdir, tmp_path):
    """Training the reverse model in a forked child writes the same bytes as
    training both directions in-process."""
    runs = {}
    for workers in (1, 2):
        assert run_cli("pipeline", "--config", _pipeline_config(workdir, tmp_path, workers)) == 0
        runs[workers] = {p.name: p.read_bytes() for p in tmp_path.glob("pipe.*")}
    one, two = runs[1], runs[2]
    assert len(one) == 9 and one.keys() == two.keys()
    for name in one:
        if name != "pipe.resolved.cfg":
            assert one[name] == two[name], name
    changed = set(one["pipe.resolved.cfg"].splitlines()) ^ set(two["pipe.resolved.cfg"].splitlines())
    assert changed == {b"workers = 1", b"workers = 2"}


@pytest.mark.parametrize("failure", ["raises", "dies"])
def test_pipeline_fails_cleanly_when_reverse_training_fails(
    workdir, tmp_path, caplog, monkeypatch, failure
):
    """A TrainingError in the forked reverse trainer, or the trainer's death,
    ends the run with exit 1 and one log line, no finished artifact and no
    child left running. The child inherits the patch through fork."""
    real_train, parent = cli.train_model1, os.getpid()

    def train(parallel, *, direction, **kwargs):
        if direction is Direction.REVERSE and os.getpid() != parent:
            if failure == "dies":
                os._exit(1)
            raise TrainingError("reverse training failed in the child")
        return real_train(parallel, direction=direction, **kwargs)

    monkeypatch.setattr(cli, "train_model1", train)
    faulthandler.dump_traceback_later(120, exit=True)  # a hang fails the run
    try:
        code = run_cli("pipeline", "--config", _pipeline_config(workdir, tmp_path, 2))
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert code == 1
    (record,) = caplog.records
    if failure == "dies":
        assert record.message.startswith("reverse translation-model training: ")
    else:
        assert record.message == "reverse training failed in the child"
    assert all(p.name.endswith(".partial") for p in tmp_path.glob("pipe.*"))
    assert multiprocessing.active_children() == []
