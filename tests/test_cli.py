import ast
import faulthandler
import json
import logging
import math
import os
import pickle
import random
import re
import signal
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from pairsieve import cli, corpus, scoring
from pairsieve.cli import PipelineConfig, build_parser, main, parse_config_file
from pairsieve.corpus import write_parallel
from pairsieve.errors import ConfigError, PairsieveError, TrainingError
from pairsieve.forked import ChildTraceback, forked_map
from pairsieve.lexical_tm import Direction, train_model1
from pairsieve.ngram_lm import train_ngram
from pairsieve.noise import read_labels, write_labels
from pairsieve.scoring import SCORE_HEADER, ScoreRecord, format_record, read_score_file
from pairsieve.synthetic import make_cipher_corpus, make_third_language

from score_records import write_score_file

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Small corpora plus pre-trained models shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    trusted = make_cipher_corpus(400, seed=1)
    candidate = make_cipher_corpus(120, seed=2)
    for pairs, name in ((trusted, "trusted"), (candidate, "cand")):
        rows = ((p.id, p.src.raw, p.tgt.raw) for p in pairs)
        write_parallel(rows, root / f"{name}.src", root / f"{name}.tgt")
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


def test_score_clips_an_out_lm_value_far_above_the_in_lm_value(tmp_path):
    # exp(1000) overflows a float; the algebra still gives dom = 1.
    write_parallel([(0, "a", "b"), (1, "c", "d")], tmp_path / "c.src", tmp_path / "c.tgt")
    tables = {"f.tsv": (1.0, 1.0), "r.tsv": (1.0, 1.0), "i.tsv": (0.5, 2.0), "o.tsv": (1000.5, 1.0)}
    for name, values in tables.items():
        (tmp_path / name).write_text(
            "".join(f"{i}\t{v}\n" for i, v in enumerate(values)), encoding="utf-8"
        )
    out = tmp_path / "x.tsv"
    code = run_cli(
        "score", "--in-src", tmp_path / "c.src", "--in-tgt", tmp_path / "c.tgt",
        "--fwd-model", tmp_path / "f.tsv", "--rev-model", tmp_path / "r.tsv",
        "--in-lm", tmp_path / "i.tsv", "--out-lm", tmp_path / "o.tsv",
        "--out", out,
    )
    assert code == 0
    assert [r.dom for r in read_score_file(out)] == [1.0, pytest.approx(math.exp(-1), rel=1e-5)]


def test_score_rejects_a_negative_table_value_with_file_and_line(workdir, tmp_path, caplog):
    for name in ("f.tsv", "r.tsv", "i.tsv", "o.tsv"):
        with open(tmp_path / name, "w", encoding="utf-8") as fh:
            for i in range(120):
                fh.write(f"{i}\t{-0.5 if (name, i) == ('i.tsv', 7) else 1.0}\n")
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
    assert record.message == f"{tmp_path / 'i.tsv'}: line 8: score '-0.5' is not finite and >= 0"

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


def test_train_lm_rejects_a_nan_add_k(workdir, tmp_path, caplog):
    """A non-finite add-k fails before training, so no model nothing can
    load is written."""
    out = tmp_path / "bad.lm"
    assert run_cli("train-lm", "--in", workdir / "trusted.tgt", "--out", out, "--add-k", "nan") == 1
    (record,) = caplog.records
    assert record.message == "add-k constant must be finite and > 0, got nan"
    assert not list(tmp_path.iterdir())


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
    """At 2 workers the shard is scored in a forked child, which must see
    the flag too."""
    outs = [tmp_path / f"trusted.w{workers}.scores.tsv" for workers in (1, 2)]
    for workers, out in zip((1, 2), outs):
        code = run_cli(
            "score", "--in-src", workdir / "cand.src", "--in-tgt", workdir / "cand.tgt",
            *model_args(workdir), "--out", out, "--trusted", "--workers", workers,
        )
        assert code == 0
    for record in read_score_file(outs[0]):
        assert record.flags == "trusted"
        assert record.adq == 1.0
        assert record.combined == record.dom
    assert outs[0].read_bytes() == outs[1].read_bytes()


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
            adq=c, dom=1.0, combined=c,
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


@pytest.mark.parametrize("fmt", ["twin", "tsv"])
def test_select_tokenizes_nothing(workdir, tmp_path, monkeypatch, fmt):
    scores = _handmade_scores(tmp_path, [0.9, 0.1, 0.5] + [0.0] * 117)
    expected = tmp_path / "expected"
    argv = ["select", "--scores", scores, "--top-n", "60", "--format", fmt,
            "--in-src", workdir / "cand.src", "--in-tgt", workdir / "cand.tgt"]
    assert run_cli(*argv, "--out-prefix", expected) == 0

    def tokenize(*_):
        raise AssertionError("select tokenized a line")

    monkeypatch.setattr(corpus, "tokenize", tokenize)
    assert run_cli(*argv, "--out-prefix", tmp_path / "sel") == 0
    for suffix in ((".tsv",) if fmt == "tsv" else (".src", ".tgt")):
        written = (tmp_path / f"sel{suffix}").read_bytes()
        assert written == (tmp_path / f"expected{suffix}").read_bytes()


def test_select_top_n_zero_still_reads_the_score_file(workdir, tmp_path, caplog):
    scores = tmp_path / "garbage.tsv"
    scores.write_text("garbage header\n", encoding="utf-8")
    code = run_cli(
        "select", "--scores", scores, "--top-n", "0",
        "--in-src", workdir / "cand.src", "--in-tgt", workdir / "cand.tgt",
        "--out-prefix", tmp_path / "zz",
    )
    assert code == 1
    (record,) = caplog.records
    assert record.message == f"{scores}: line 1: bad or missing score header"
    assert not list(tmp_path.glob("zz.src")) and not list(tmp_path.glob("zz.tgt"))


@pytest.mark.parametrize("n_scores", [100, 130])
def test_select_rejects_scores_of_another_corpus(workdir, tmp_path, caplog, n_scores):
    scores = _handmade_scores(tmp_path, [0.5] * n_scores)
    src, tgt = workdir / "cand.src", workdir / "cand.tgt"
    code = run_cli(
        "select", "--scores", scores, "--top-n", "10",
        "--in-src", src, "--in-tgt", tgt, "--out-prefix", tmp_path / "sel",
    )
    assert code == 1
    (record,) = caplog.records
    assert record.message == (
        f"{scores} holds {n_scores} scored pairs but {src} + {tgt} holds 120 pairs; "
        "the scores are for another corpus"
    )
    assert not list(tmp_path.glob("sel.src")) and not list(tmp_path.glob("sel.tgt"))


@pytest.mark.parametrize(
    "ids, line, found, expected",
    [((0, 1, 1), 4, 1, 2), ((0, 1, 5), 4, 5, 2), ((0, 2, 1), 3, 2, 1), ((1, 2, 3), 2, 1, 0)],
    ids=["repeated", "skipped", "out-of-order", "first-not-0"],
)
@pytest.mark.parametrize(
    "command",
    [
        ["select", "--top-n", "1"],
        ["select", "--top-n", "3"],
        ["select", "--threshold", "0.55"],
        ["weights"],
        ["stats"],
        ["evaluate"],
    ],
    ids=["top-1", "top-3", "threshold", "weights", "stats", "evaluate"],
)
def test_every_reader_of_a_score_file_stops_at_its_first_bad_id(
    tmp_path, caplog, capsys, ids, line, found, expected, command
):
    """Whatever a command would take from the file, an id out of line order
    fails at the score file's line: exit 1, nothing written, nothing printed."""
    records = [
        ScoreRecord(pair_id=i, h_fwd=1.0, h_rev=1.0, h_in=1.0, h_out=1.0,
                    adq=c, dom=1.0, combined=c)
        for i, c in zip(ids, (0.9, 0.8, 0.6))
    ]
    scores, src, tgt = tmp_path / "s.tsv", tmp_path / "c.src", tmp_path / "c.tgt"
    labels = tmp_path / "labels.tsv"
    write_score_file(records, scores)
    src.write_text("a\nb\nc\n", encoding="utf-8")
    tgt.write_text("x\ny\nz\n", encoding="utf-8")
    labels.write_text("0\tclean\t-\n1\tcorrupted\tshuffle\n2\tclean\t-\n", encoding="utf-8")
    inputs = set(tmp_path.iterdir())
    outputs = {
        "select": ["--in-src", src, "--in-tgt", tgt, "--out-prefix", tmp_path / "sel"],
        "weights": ["--out", tmp_path / "w.txt"],
        "stats": [],
        "evaluate": ["--labels", labels, "--report", tmp_path / "report.tsv"],
    }[command[0]]
    assert run_cli(*command, "--scores", scores, *outputs) == 1
    (record,) = caplog.records
    assert record.message == (
        f"{scores}: line {line}: id {found}, expected {expected}; "
        "ids count 0, 1, 2, ... in line order"
    )
    assert capsys.readouterr().out == ""
    written = set(tmp_path.iterdir()) - inputs
    assert all(path.name.endswith(".partial") for path in written)


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
                    adq=0.5, dom=1.0, combined=0.5),
        ScoreRecord(pair_id=2, h_fwd=1, h_rev=1, h_in=1, h_out=1,
                    adq=0.5, dom=1.0, combined=0.5),
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
    assert len(labels) - labels.count(None) == 30
    write_labels(labels, tmp_path / "labels.again.tsv")
    assert (tmp_path / "labels.again.tsv").read_bytes() == (tmp_path / "labels.tsv").read_bytes()

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


@pytest.mark.parametrize(
    "labels, message",
    [
        pytest.param(
            b"0\tclean\t-\n1\tcorrupted\tshuffle\n\xff2\tclean\t-\n",
            "line 3: invalid UTF-8",
            id="invalid-utf8",
        ),
        pytest.param(
            b"0\tclean\t-\n1\tcorrupted\t-\n",
            "line 2: corrupted pair with kind '-'; "
            "a clean pair has kind '-' and a corrupted one names its kind",
            id="corrupted-without-kind",
        ),
        pytest.param(
            b"0\tclean\tmisalign\n1\tcorrupted\tshuffle\n",
            "line 1: clean pair with kind 'misalign'; "
            "a clean pair has kind '-' and a corrupted one names its kind",
            id="clean-with-kind",
        ),
    ],
)
def test_evaluate_names_the_bad_line_of_a_label_file(tmp_path, caplog, labels, message):
    """A bad label file fails naming its own line."""
    records = [
        ScoreRecord(pair_id=i, h_fwd=1.0, h_rev=1.0, h_in=1.0, h_out=1.0,
                    adq=c, dom=1.0, combined=c)
        for i, c in ((0, 0.9), (1, 0.5), (2, 0.1))
    ]
    scores, path = tmp_path / "s.tsv", tmp_path / "labels.tsv"
    write_score_file(records, scores)
    path.write_bytes(labels)
    assert run_cli("evaluate", "--scores", scores, "--labels", path,
                   "--report", tmp_path / "report.tsv") == 1
    (record,) = caplog.records
    assert record.message == f"{path}: {message}"
    assert not (tmp_path / "report.tsv").exists()


@pytest.mark.parametrize(
    "labels, message",
    [
        (b"0\tclean\t-\n1\tcorrupted\tshuffle\n",
         "{scores} holds 3 scored pairs but {labels} holds 2 labels; "
         "the labels are for another corpus"),
        (b"0\tclean\t-\n1\tclean\t-\n2\tclean\t-\n",
         "{labels}: 3 clean and 0 corrupted pairs; evaluate needs at least one of each"),
    ],
    ids=["count-mismatch", "no-corrupted-pair"],
)
def test_evaluate_names_the_files_it_cannot_compare(tmp_path, caplog, labels, message):
    scores, path = tmp_path / "s.tsv", tmp_path / "labels.tsv"
    write_score_file([ScoreRecord(i, 1.0, 1.0, 1.0, 1.0, c, 1.0, c)
                      for i, c in enumerate((0.9, 0.5, 0.1))], scores)
    path.write_bytes(labels)
    assert run_cli("evaluate", "--scores", scores, "--labels", path,
                   "--report", tmp_path / "report.tsv") == 1
    (record,) = caplog.records
    assert record.message == message.format(scores=scores, labels=path)
    assert not (tmp_path / "report.tsv").exists()


def test_corrupt_mix_without_third_language_fails(workdir, tmp_path):
    code = run_cli(
        "corrupt", "--in-src", workdir / "cand.src", "--in-tgt", workdir / "cand.tgt",
        "--rate", "0.2", "--seed", "1", "--mix", "wrong_language=1.0",
        "--out-prefix", tmp_path / "n2", "--labels", tmp_path / "l2.tsv",
    )
    assert code == 1


@pytest.mark.parametrize(
    "mix, message",
    [
        ("misalign=0.5,shuffle=0.5,misalign=0.5",
         "corruption kind 'misalign' is given twice in --mix"),
        ("misalign=nan,shuffle=1", "mix proportion nan for 'misalign' must be finite and >= 0"),
        ("shuffle=inf,truncate=1", "mix proportion inf for 'shuffle' must be finite and >= 0"),
        ("truncate=-0.5,shuffle=1.5",
         "mix proportion -0.5 for 'truncate' must be finite and >= 0"),
    ],
    ids=["repeated-kind", "nan", "inf", "negative"],
)
def test_corrupt_names_the_kind_of_a_bad_mix(workdir, tmp_path, caplog, mix, message):
    code = run_cli(
        "corrupt", "--in-src", workdir / "cand.src", "--in-tgt", workdir / "cand.tgt",
        "--mix", mix, "--out-prefix", tmp_path / "n", "--labels", tmp_path / "l.tsv",
    )
    assert code == 1
    (record,) = caplog.records
    assert record.message == message


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


def test_stats_counts_trusted_and_each_flag(tmp_path, capsys):
    flags = ["-", "trusted", "blank_src", "trusted,blank_tgt", "blank_src,overlength_tgt",
             "trusted,overlength_src", "overlength_tgt", "trusted"]
    lines = [
        f"{i}\t1\t1\t1\t1\t1\t0.5\t0.5\t{text}" if text in ("-", "trusted")
        else f"{i}\tnan\tnan\tnan\tnan\t0\t0\t0\t{text}"
        for i, text in enumerate(flags)
    ]
    scores = tmp_path / "flagged.scores.tsv"
    scores.write_text("\n".join(["\t".join(SCORE_HEADER), *lines, ""]), encoding="utf-8")
    assert run_cli("stats", "--scores", scores) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:8] == [
        "records\t8",
        "trusted\t4",
        "flagged\t6",
        "flag_blank_src\t2",
        "flag_blank_tgt\t1",
        "flag_overlength_src\t1",
        "flag_overlength_tgt\t2",
        "min\t0",
    ]


def test_stats_empty_file_is_an_error(tmp_path):
    path = tmp_path / "empty.scores.tsv"
    write_score_file([], path)
    assert run_cli("stats", "--scores", path) == 1


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_stats_into_a_closed_pipe_exits_1_and_logs_nothing(tmp_path, unbuffered):
    """As in `pairsieve stats ... | head -1`: the reader of stdout has gone
    before stats writes, which is no fault of the input to report."""
    scores = _handmade_scores(tmp_path, [0.9, 0.1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pairsieve", "stats", "--scores", str(scores)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin",
                 "PYTHONUNBUFFERED": unbuffered},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""



@pytest.mark.parametrize("bad", ["nan", "7.5", "-0.2"])
@pytest.mark.parametrize("command", ["select-threshold", "select-top-n", "weights", "stats"])
def test_combined_outside_the_unit_interval_fails_every_reader_alike(
    workdir, tmp_path, caplog, capsys, command, bad
):
    scores = _handmade_scores(tmp_path, [float(bad), 0.5, 0.25])
    extract = ["--in-src", workdir / "cand.src", "--in-tgt", workdir / "cand.tgt",
               "--out-prefix", tmp_path / "sel"]
    argv = {
        "select-threshold": ["select", "--threshold", "0.1", *extract],
        "select-top-n": ["select", "--top-n", "1", *extract],
        "weights": ["weights", "--out", tmp_path / "w.txt"],
        "stats": ["stats"],
    }[command]
    assert run_cli(argv[0], "--scores", scores, *argv[1:]) == 1
    (record,) = caplog.records
    assert record.message == f"{scores}: line 2: combined {bad!r} is outside [0, 1]"
    assert capsys.readouterr().out == ""
    assert not {"sel.src", "sel.tgt", "w.txt"} & {p.name for p in tmp_path.iterdir()}

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


@pytest.mark.parametrize(
    "flag, value, low",
    [
        pytest.param("--workers", "0", 1, id="0"),
        pytest.param("--workers", "-1", 1, id="-1"),
        pytest.param("--workers", "two", 1, id="two"),
        pytest.param("--max-tokens", "0", 1, id="max-tokens-0"),
        pytest.param("--top-n", "-1", 0, id="top-n--1"),
    ],
)
def test_score_rejects_workers_below_one_as_a_usage_error(tmp_path, capsys, flag, value, low):
    """Every integer flag with a range, --workers and --max-tokens of score
    and --top-n of select, rejects a value outside it as a usage error."""
    if flag == "--top-n":
        argv = ["select", "--in", "c.tsv", "--scores", "s.tsv", "--out-prefix", tmp_path / "sel"]
    else:
        argv = [
            "score", "--in", "c.tsv", "--fwd-model", "f", "--rev-model", "r",
            "--in-lm", "i", "--out-lm", "o", "--out", tmp_path / "s.tsv",
        ]
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, flag, value)
    assert exc.value.code == 2
    assert f"expected an integer >= {low}, got {value!r}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "key, value, message",
    [
        pytest.param("workers", "0", "workers must be >= 1, got 0", id="0"),
        pytest.param("workers", "-1", "workers must be >= 1, got -1", id="-1"),
        pytest.param("top_n", "-1", "top_n must be >= 0, got -1", id="top_n--1"),
        pytest.param("sample_size", "-1", "sample_size must be >= 0, got -1", id="sample_size--1"),
        pytest.param("max_tokens", "0", "max_tokens must be >= 1, got 0", id="max_tokens-0"),
        pytest.param("threshold", "2", "threshold must be in [0, 1], got 2.0", id="threshold-2"),
        pytest.param("threshold", "-0.5", "threshold must be in [0, 1], got -0.5", id="threshold--0.5"),
        pytest.param("threshold", "nan", "threshold must be in [0, 1], got nan", id="threshold-nan"),
        pytest.param("lm_order", "0", "lm_order must be >= 1, got 0", id="lm_order-0"),
        pytest.param("tm_iterations", "0", "tm_iterations must be >= 1, got 0", id="tm_iterations-0"),
        pytest.param("lm_add_k", "nan", "lm_add_k must be finite and > 0, got nan", id="lm_add_k-nan"),
        pytest.param("lm_add_k", "-1", "lm_add_k must be finite and > 0, got -1.0", id="lm_add_k--1"),
    ],
)
def test_pipeline_config_rejects_workers_below_one(key, value, message):
    """Every ranged config key, not only workers, fails when the config is read."""
    raw = {"candidate_tsv": "c", "trusted_tsv": "t", "out_prefix": "o", "top_n": "5"}
    if key == "threshold":
        del raw["top_n"]
    raw[key] = value
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        PipelineConfig.from_mapping(raw)


def test_pipeline_config_with_invalid_utf8_names_file_and_line(tmp_path, caplog):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"candidate_tsv = c.tsv\n\xfftrusted_tsv = t.tsv\n")
    with pytest.raises(ConfigError, match=rf"^{cfg}: line 2: invalid UTF-8$"):
        parse_config_file(cfg)
    assert run_cli("pipeline", "--config", cfg) == 1
    (record,) = caplog.records
    assert record.message == f"{cfg}: line 2: invalid UTF-8"


def test_pipeline_config_rejects_a_repeated_key_naming_both_lines(tmp_path, caplog):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "candidate_tsv = c.tsv\ntop_n = 5\n# a comment\n\n top_n=7\ntrusted_tsv = t.tsv\n",
        encoding="utf-8",
    )
    message = f"{cfg}: line 5: key 'top_n' repeats line 2"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config_file(cfg)
    assert run_cli("pipeline", "--config", cfg) == 1
    (record,) = caplog.records
    assert record.message == message


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


@pytest.mark.parametrize(
    "raw, text",
    [
        pytest.param(
            {"candidate_src": "crawl.src", "candidate_tgt": "crawl.tgt",
             "trusted_src": "clean.src", "trusted_tgt": "clean.tgt",
             "out_prefix": "runs/filter1", "threshold": "0.25", "seed": "7",
             "sample_size": "5000", "lm_order": "2", "lm_add_k": "0.5", "lm_min_count": "1",
             "tm_iterations": "4", "tm_null": "False", "lowercase": "TRUE",
             "max_tokens": "80", "workers": "3", "log_level": "warning"},
            "candidate_src = crawl.src\ncandidate_tgt = crawl.tgt\n"
            "trusted_src = clean.src\ntrusted_tgt = clean.tgt\nout_prefix = runs/filter1\n"
            "threshold = 0.25\nseed = 7\nsample_size = 5000\nlm_order = 2\nlm_add_k = 0.5\n"
            "lm_min_count = 1\ntm_iterations = 4\ntm_null = false\nlowercase = true\n"
            "max_tokens = 80\nworkers = 3\nlog_level = warning\n",
            id="every-key",
        ),
        pytest.param(
            {"candidate_tsv": "c.tsv", "trusted_tsv": "t.tsv", "out_prefix": "o", "top_n": "5"},
            "candidate_tsv = c.tsv\ntrusted_tsv = t.tsv\nout_prefix = o\ntop_n = 5\nseed = 0\n"
            "sample_size = 100000\nlm_order = 3\nlm_add_k = 0.1\nlm_min_count = 2\n"
            "tm_iterations = 5\ntm_null = true\nlowercase = false\nmax_tokens = 250\n"
            "workers = 2\nlog_level = info\n",
            id="minimal",
        ),
    ],
)
def test_resolved_config_text_is_pinned(monkeypatch, raw, text):
    """The text of resolved.cfg, in field order: a config that sets every key
    one config can hold together, and the defaults of a minimal one."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert PipelineConfig.from_mapping(raw).to_text() == text


@pytest.mark.parametrize(
    "key, value",
    [
        pytest.param("workers", "x", id="int"),
        pytest.param("lm_add_k", "0.1.2", id="float"),
        pytest.param("tm_null", "yes", id="bool"),
    ],
)
def test_pipeline_config_names_the_key_of_a_bad_value(key, value):
    raw = {"candidate_tsv": "c", "trusted_tsv": "t", "out_prefix": "o", "top_n": "5", key: value}
    message = f"bad config value for {key}: {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        PipelineConfig.from_mapping(raw)


@pytest.mark.parametrize("side", ["candidate", "trusted"])
def test_pipeline_config_rejects_a_side_given_in_both_forms(
    workdir, tmp_path, caplog, monkeypatch, side
):
    """A side given both as a TSV and as twin files fails when the config is
    read, naming the keys, before any sampling or training."""
    calls = []
    monkeypatch.setattr(cli, "sample", lambda *args: calls.append("sample"))
    monkeypatch.setattr(cli, "train_model1", lambda *args, **kwargs: calls.append("train"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"candidate_src = {workdir / 'cand.src'}\n"
        f"candidate_tgt = {workdir / 'cand.tgt'}\n"
        f"trusted_src = {workdir / 'trusted.src'}\n"
        f"trusted_tgt = {workdir / 'trusted.tgt'}\n"
        f"{side}_tsv = {workdir / 'cand.src'}\n"
        f"out_prefix = {tmp_path / 'pipe'}\ntop_n = 5\n",
        encoding="utf-8",
    )
    message = f"config needs exactly one of {side}_tsv or {side}_src + {side}_tgt"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        PipelineConfig.from_mapping(parse_config_file(cfg))
    assert run_cli("pipeline", "--config", cfg) == 1
    (record,) = caplog.records
    assert record.message == message
    assert calls == []
    assert not list(tmp_path.glob("pipe.*"))


def test_pipeline_rejects_twin_candidates_of_different_lengths_before_training(
    workdir, tmp_path, caplog
):
    """A candidate target file one line short fails before the trusted sample
    is drawn, so no model is trained and no artifact is written."""
    caplog.set_level(logging.INFO)  # restored after the test
    src, tgt = tmp_path / "crawl.src", tmp_path / "crawl.tgt"
    src.write_bytes((workdir / "cand.src").read_bytes())
    lines = (workdir / "cand.tgt").read_text(encoding="utf-8").splitlines(keepends=True)
    tgt.write_text("".join(lines[:-1]), encoding="utf-8")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"candidate_src = {src}\ncandidate_tgt = {tgt}\n"
        f"trusted_src = {workdir / 'trusted.src'}\n"
        f"trusted_tgt = {workdir / 'trusted.tgt'}\n"
        f"out_prefix = {tmp_path / 'pipe'}\n"
        "top_n = 5\nsample_size = 100\nlm_order = 2\nworkers = 2\nlog_level = info\n",
        encoding="utf-8",
    )
    assert run_cli("pipeline", "--config", cfg) == 1
    errors = [r.message for r in caplog.records if r.levelno >= logging.ERROR]
    assert errors == [
        f"line-count mismatch: {src} continues past the last line of {tgt}; "
        f"first unmatched line is {len(lines)} of {src}"
    ]
    assert not any("training translation models" in r.message for r in caplog.records)
    assert not list(tmp_path.glob("pipe.*"))


def test_log_level_flag_reaches_a_pipeline_whose_config_sets_no_log_level(
    workdir, tmp_path, caplog
):
    """--log-level is the default of the config's log_level; a config that
    sets the key still wins."""
    caplog.set_level(logging.DEBUG)  # restored after the test
    cfg = tmp_path / "run.cfg"
    text = (
        f"candidate_src = {workdir / 'cand.src'}\n"
        f"candidate_tgt = {workdir / 'cand.tgt'}\n"
        f"trusted_src = {workdir / 'trusted.src'}\n"
        f"trusted_tgt = {workdir / 'trusted.tgt'}\n"
        f"out_prefix = {tmp_path / 'pipe'}\n"
        "top_n = 5\nseed = 4\nsample_size = 100\nlm_order = 2\nworkers = 1\n"
    )
    cfg.write_text(text, encoding="utf-8")
    resolved = tmp_path / "pipe.resolved.cfg"
    assert main(["--log-level", "error", "pipeline", "--config", str(cfg)]) == 0
    assert caplog.records == []
    assert "log_level = error\n" in resolved.read_text(encoding="utf-8")

    cfg.write_text(text + "log_level = info\n", encoding="utf-8")
    assert main(["--log-level", "error", "pipeline", "--config", str(cfg)]) == 0
    assert any(r.levelno == logging.INFO for r in caplog.records)
    assert "log_level = info\n" in resolved.read_text(encoding="utf-8")


def test_pipeline_config_rejects_an_unknown_log_level(tmp_path, caplog):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "candidate_tsv = c.tsv\ntrusted_tsv = t.tsv\nout_prefix = o\ntop_n = 5\n"
        "log_level = loud\n",
        encoding="utf-8",
    )
    assert run_cli("pipeline", "--config", cfg) == 1
    (record,) = caplog.records
    assert record.message == "log_level must be one of debug, info, warning, error, got 'loud'"


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


def test_pipeline_top_n_zero_selects_nothing_and_weights_everything(workdir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"candidate_src = {workdir / 'cand.src'}\n"
        f"candidate_tgt = {workdir / 'cand.tgt'}\n"
        f"trusted_src = {workdir / 'trusted.src'}\n"
        f"trusted_tgt = {workdir / 'trusted.tgt'}\n"
        f"out_prefix = {tmp_path / 'pipe'}\n"
        "top_n = 0\nseed = 4\nsample_size = 400\nlm_order = 2\nworkers = 1\n"
        "log_level = error\n",
        encoding="utf-8",
    )
    assert run_cli("pipeline", "--config", cfg) == 0
    assert (tmp_path / "pipe.selected.src").read_bytes() == b""
    assert (tmp_path / "pipe.selected.tgt").read_bytes() == b""
    assert len((tmp_path / "pipe.weights.txt").read_text().splitlines()) == 120


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
    with pytest.raises(ChildProcessError):  # no child left running or unreaped
        os.waitpid(-1, os.WNOHANG)


class KillAt:
    """A scorer that kills the process scoring pair ``killed_at`` unless it is
    ``parent``. It is a module-level class, so it pickles back from the
    worker that loads the scorer files."""

    def __init__(self, killed_at, parent):
        self.killed_at = killed_at
        self.parent = parent

    def __call__(self, pair):
        if pair.id == self.killed_at and os.getpid() != self.parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return 1.0


@pytest.mark.parametrize(
    "n, killed_at, lost",
    [
        pytest.param(2_500, 500, "0-999", id="first-shard"),  # shards 0-999, 1000-2499
        pytest.param(4_000, 2_500, "2000-3999", id="second-shard"),  # 0-1999, 2000-3999
    ],
)
def test_score_fails_cleanly_when_a_worker_dies(tmp_path, caplog, monkeypatch, n, killed_at, lost):
    """A scoring worker killed by SIGKILL ends score with exit 1 and one log
    line naming the pairs of its own shard, even when the shard before it
    finished; it leaves only .partial output and no child process."""
    for side in ("src", "tgt"):
        (tmp_path / f"c.{side}").write_text(f"{side} words here\n" * n, encoding="utf-8")
    scorer = KillAt(killed_at, os.getpid())
    monkeypatch.setattr(cli, "_sniff_scorer", lambda path, role: scorer)
    faulthandler.dump_traceback_later(120, exit=True)  # a hang fails the run
    try:
        code = run_cli(
            "score", "--in-src", tmp_path / "c.src", "--in-tgt", tmp_path / "c.tgt",
            "--fwd-model", "f", "--rev-model", "r", "--in-lm", "i", "--out-lm", "o",
            "--out", tmp_path / "s.tsv", "--workers", "2",
        )
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert code == 1
    (record,) = caplog.records
    assert record.message == f"scoring pairs {lost}: a worker process died"
    assert [p.name for p in tmp_path.glob("s.tsv*")] == ["s.tsv.partial"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _write_table(path, values):
    path.write_text("".join(f"{i}\t{v}\n" for i, v in enumerate(values)), encoding="utf-8")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("trusted", [False, True], ids=["candidate", "trusted"])
@pytest.mark.parametrize("kind", ["models", "tables"])
def test_score_lines_equal_the_formatted_records_of_score_pair(
    workdir, tmp_path, monkeypatch, kind, trusted, workers
):
    """Every line score writes is format_record(score_pair(...)) of its pair:
    clean, blank and overlength pairs alike, over many small shards."""
    monkeypatch.setattr(scoring, "OFFSET_GRANULE", 10)
    monkeypatch.setattr(scoring, "MAX_SHARD_LINES", 20)
    rows = list(corpus.read_rows(src_path=workdir / "cand.src", tgt_path=workdir / "cand.tgt"))
    long = " ".join(["w"] * 13)  # the clean pairs have at most 12 tokens a side
    for k, row in enumerate([("", "b"), ("a", " "), (long, "c"), ("d", long), ("", long)]):
        rows.insert(7 + 23 * k, row)
    n = len(rows)
    write_parallel(
        ((i, s, t) for i, (s, t) in enumerate(rows)), tmp_path / "c.src", tmp_path / "c.tgt"
    )
    if kind == "models":
        files = model_args(workdir)
    else:
        rng = random.Random(3)
        files = []
        for flag, role in zip(model_args(workdir)[::2], ("fwd", "rev", "in", "out")):
            _write_table(tmp_path / f"{role}.tab", [rng.uniform(0, 9) for _ in range(n)])
            files += [flag, tmp_path / f"{role}.tab"]
    out = tmp_path / "s.tsv"
    code = run_cli(
        "score", "--in-src", tmp_path / "c.src", "--in-tgt", tmp_path / "c.tgt", *files,
        "--out", out, "--max-tokens", 12, "--workers", workers, *(["--trusted"] if trusted else []),
    )
    assert code == 0
    scorers = [
        cli._sniff_scorer(str(path), role)
        for path, role in zip(files[1::2], ("fwd", "rev", "in", "out"))
    ]
    pairs = corpus.open_corpus(src_path=tmp_path / "c.src", tgt_path=tmp_path / "c.tgt")
    expected = [
        format_record(scoring.score_pair(pair, *scorers, max_tokens=12, trusted=trusted))
        for pair in pairs
    ]
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines == ["\t".join(SCORE_HEADER), *expected]
    flags = {f for line in lines[1:] for f in line.rsplit("\t", 1)[1].split(",")}
    assert flags == {"blank_src", "blank_tgt", "overlength_src", "overlength_tgt"} | (
        {"trusted"} if trusted else {"-"}
    )


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_score_reports_the_first_failing_role_in_role_order(workdir, tmp_path, caplog, workers):
    """With bad rev and out files, score names the rev file at any worker
    count, though out's much smaller file fails first when they load side
    by side."""
    bad_rev = tmp_path / "rev.tab"
    _write_table(bad_rev, [1.0] * 50_000 + ["x"])
    bad_out = tmp_path / "out.tab"
    bad_out.write_text("zz\n", encoding="utf-8")
    code = run_cli(
        "score", "--in-src", workdir / "cand.src", "--in-tgt", workdir / "cand.tgt",
        "--fwd-model", workdir / "fwd.tm", "--rev-model", bad_rev,
        "--in-lm", workdir / "in.lm", "--out-lm", bad_out,
        "--out", tmp_path / "s.tsv", "--workers", workers,
    )
    assert code == 1
    (record,) = caplog.records
    assert record.message.startswith(f"{bad_rev}: line 50001: ")
    assert not list(tmp_path.glob("s.tsv*"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_loader_that_dies_is_named_by_its_file(workdir, tmp_path, caplog, monkeypatch):
    """A worker killed while it loads a scorer file ends score with exit 1
    and one line naming the file, and leaves no child process."""
    for role in ("fwd", "rev", "in", "out"):
        _write_table(tmp_path / f"{role}.tab", [1.0] * 120)
    parent = os.getpid()
    load = cli.load_external_scores

    def dying_load(path):
        if path == str(tmp_path / "rev.tab") and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return load(path)

    monkeypatch.setattr(cli, "load_external_scores", dying_load)
    code = run_cli(
        "score", "--in-src", workdir / "cand.src", "--in-tgt", workdir / "cand.tgt",
        "--fwd-model", tmp_path / "fwd.tab", "--rev-model", tmp_path / "rev.tab",
        "--in-lm", tmp_path / "in.tab", "--out-lm", tmp_path / "out.tab",
        "--out", tmp_path / "s.tsv", "--workers", 2,
    )
    assert code == 1
    (record,) = caplog.records
    assert record.message == f"loading {tmp_path / 'rev.tab'}: a worker process died"
    assert not list(tmp_path.glob("s.tsv*"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pipeline_fails_on_a_missing_candidate_file_before_training(
    workdir, tmp_path, caplog, monkeypatch
):
    calls = []

    def counted(func):
        def wrapper(*args, **kwargs):
            calls.append(func.__name__)
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "sample", counted(cli.sample))
    monkeypatch.setattr(cli, "train_model1", counted(cli.train_model1))
    missing = tmp_path / "missing.src"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"candidate_src = {missing}\n"
        f"candidate_tgt = {workdir / 'cand.tgt'}\n"
        f"trusted_src = {workdir / 'trusted.src'}\n"
        f"trusted_tgt = {workdir / 'trusted.tgt'}\n"
        f"out_prefix = {tmp_path / 'pipe'}\ntop_n = 5\n",
        encoding="utf-8",
    )
    assert run_cli("pipeline", "--config", cfg) == 1
    (record,) = caplog.records
    assert str(missing) in record.message
    assert calls == []
    assert not list(tmp_path.glob("pipe.*"))


@pytest.mark.parametrize("level", ["info", "debug"])
def test_an_unexpected_error_exits_1_with_one_line(tmp_path, level):
    """Any other exception ends the run with exit 1 and one log line; the
    traceback follows it only at --log-level debug."""
    script = (
        "import sys\n"
        "from pairsieve import cli\n"
        "def fail(args):\n"
        "    raise RuntimeError('no such luck')\n"
        "cli._cmd_stats = fail\n"
        f"sys.exit(cli.main(['--log-level', '{level}', 'stats', '--scores', 's.tsv']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert lines[0] == "ERROR unexpected RuntimeError: no such luck"
    if level == "debug":
        assert lines[1] == "Traceback (most recent call last):"
        assert lines[-1] == "RuntimeError: no such luck"
    else:
        assert len(lines) == 1


def test_only_the_forked_module_starts_processes():
    """No module of the package imports multiprocessing or concurrent, even
    after forked_map has run, no thread runs beside its children, and only
    forked.py calls os.fork."""
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, threading, pairsieve.cli\n"
            "with pairsieve.cli.forked_map(abs, [-1, -2, -3], 2, str) as results:\n"
            "    assert threading.active_count() == 1\n"
            "    assert list(results) == [1, 2, 3]\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('multiprocessing', 'concurrent')))",
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"

    importers, forkers = set(), set()
    for path in sorted((REPO_ROOT / "src" / "pairsieve").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "fork":
                forkers.add(path.name)
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("multiprocessing", "concurrent") for name in names):
                importers.add(path.name)
    assert importers == set()
    assert forkers == {"forked.py"}


def test_the_package_imports_only_the_standard_library():
    """Every import in the package is relative or names a module of the
    standard library, so pairsieve stays stdlib-only."""
    outside = set()
    for path in sorted((REPO_ROOT / "src" / "pairsieve").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside.update(
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            )
    assert outside == set()


def test_only_the_line_readers_name_unicode_decode_error():
    """Every text file whose messages give line numbers is read through
    model_file.numbered_lines; the corpus reader keeps its own binary reader,
    whose messages give byte offsets."""
    naming = set()
    for path in sorted((REPO_ROOT / "src" / "pairsieve").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and node.id == "UnicodeDecodeError":
                naming.add(path.name)
    assert naming == {"model_file.py", "corpus.py"}


def fail_on_the_second_call(x):
    if x == 2:
        raise ValueError(f"no pair {x}")
    return x


def test_a_forked_error_keeps_the_childs_traceback():
    """An exception raised in a child is raised in the parent unchanged, with
    the child's formatted traceback as its cause."""
    with pytest.raises(ValueError) as info:
        with forked_map(fail_on_the_second_call, [1, 2], 2, str) as results:
            list(results)
    assert str(info.value) == "no pair 2"
    cause = info.value.__cause__
    assert isinstance(cause, ChildTraceback)
    assert "in fail_on_the_second_call" in str(cause)
    assert str(cause).rstrip().endswith('ValueError: no pair 2\n"""')


class Box:
    def __init__(self, n):
        self.n = n


def test_forked_map_drops_each_argument_once_its_child_is_forked():
    """The parent keeps no reference to an argument after forking the child
    that runs it; only the child's inherited copy and ``what`` of it remain."""
    boxes = [Box(n) for n in range(3)]
    refs = [weakref.ref(box) for box in boxes]
    block = forked_map(lambda box: box.n * 2, boxes, 2, lambda box: f"box {box.n}")
    del boxes
    with block as results:
        assert [ref() for ref in refs] == [None, None, None]
        assert list(results) == [0, 2, 4]


def test_forked_map_runs_every_call_of_a_worker_in_one_child():
    """With 2 workers, 10 calls run in two children: child k runs calls k,
    k + 2, ...."""
    with forked_map(lambda _: os.getpid(), list(range(10)), 2, str) as results:
        pids = list(results)
    assert os.getpid() not in pids
    assert pids[0] != pids[1]
    assert pids == [pids[0], pids[1]] * 5
    with pytest.raises(ChildProcessError):  # no child left running or unreaped
        os.waitpid(-1, os.WNOHANG)


def test_forked_map_starts_a_call_only_once_the_oldest_result_is_read(tmp_path):
    """Reading result 0 lets child 0 start call 2; child 1 waits with call 3
    until result 1 is read, so no call beyond 2 starts."""
    log_fd = os.open(tmp_path / "started.log", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def logged(n):
        os.write(log_fd, f"{n}\n".encode())
        return n

    try:
        with forked_map(logged, list(range(6)), 2, str) as results:
            assert next(results) == 0
            time.sleep(0.3)
            started = {int(n) for n in (tmp_path / "started.log").read_text().split()}
    finally:
        os.close(log_fd)
    assert started <= {0, 1, 2}


class DiesWhenPickled:
    def __reduce__(self):
        os._exit(1)


def die_mid_result(n):
    """Call 3's result is pickled in part, far past one pipe buffer, and then
    its child dies."""
    if n == 3:
        return [str(i) * 100 for i in range(3_000)] + [DiesWhenPickled()]
    return n


def test_a_child_that_dies_mid_result_is_named_by_its_own_call():
    got = []
    with pytest.raises(PairsieveError, match=r"^call 3: a worker process died$"):
        with forked_map(die_mid_result, list(range(5)), 2, lambda n: f"call {n}") as results:
            got.extend(results)
    assert got == [0, 1, 2]
    with pytest.raises(ChildProcessError):  # no child left running or unreaped
        os.waitpid(-1, os.WNOHANG)


def test_peak_rss_reports_the_commands_own_usage_and_exit_status():
    """scripts/peak_rss.py prints one JSON line after the command's output
    and exits with the command's status; the peak counts what it touched."""
    proc = subprocess.run(
        [
            sys.executable, str(REPO_ROOT / "scripts" / "peak_rss.py"), "--",
            sys.executable, "-c", "import sys; b = b'x' * (40 << 20); print('ran'); sys.exit(3)",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    ran, line = proc.stdout.splitlines()
    assert ran == "ran"
    usage = json.loads(line)
    assert set(usage) == {"cmd", "exit", "wall_s", "cpu_s", "maxrss_mib", "minflt"}
    assert usage["exit"] == 3 and usage["cmd"][0] == sys.executable
    assert usage["maxrss_mib"] >= 40 and usage["minflt"] > 0


def test_sample_memory_reports_one_pipeline_run_per_sample_size():
    """scripts/sample_memory.py runs the pipeline on a tiny seeded draw and
    prints peak_rss.py's JSON, with the sample size and model hashes, for
    each size given."""
    proc = subprocess.run(
        [
            sys.executable, str(REPO_ROOT / "scripts" / "sample_memory.py"),
            "--trusted", "200", "--crawl", "60", "--sample-size", "30", "--sample-size", "80",
            "--workers", "1",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    runs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [run["sample_size"] for run in runs] == [30, 80]
    for run in runs:
        assert run["exit"] == 0 and run["maxrss_mib"] > 0
        assert set(run["model_sha256"]) == {"fwd.tm", "rev.tm", "in.lm", "out.lm"}
    # A larger sample trains other tables.
    assert runs[0]["model_sha256"]["fwd.tm"] != runs[1]["model_sha256"]["fwd.tm"]


def test_intrinsic_eval_script_reports_each_auc():
    """scripts/run_intrinsic_eval.py runs end to end on a small draw."""
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "run_intrinsic_eval.py"), "--pairs", "300"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = dict(line.split("\t") for line in proc.stdout.splitlines())
    for name in ("auc_combined", "auc_adq_alone", "auc_dom_alone"):
        assert 0.0 <= float(report[name]) <= 1.0
    assert int(report["pairs"]) == 300


def test_artifact_digests_repeat_and_agree_across_worker_counts():
    """scripts/artifact_digests.py prints the same digests on a second run,
    and `score` writes the same bytes at 1, 2 and 4 workers."""
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "artifact_digests.py"),
             "--seed", "3", "--pairs", "300"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]
    digests = runs[0]
    for kind in ("models", "tables"):
        assert len({digests[f"scores.{kind}.w{w}.tsv"] for w in (1, 2, 4)}) == 1


class TrackedSample(list):
    """A list that a weakref can follow."""


def test_forked_map_holds_no_result_while_it_reads_the_next(monkeypatch):
    """Once the caller has dropped a result, the iterator keeps no reference
    to it while the next one is unpickled."""
    real_load, refs, alive = pickle.load, [], []

    def load(file):
        alive.append([ref() is not None for ref in refs])
        return real_load(file)

    monkeypatch.setattr(pickle, "load", load)
    with forked_map(TrackedSample, [[0], [1], [2]], 2, str) as results:
        for _ in range(3):
            refs.append(weakref.ref(next(results)))
    assert alive == [[], [False], [False, False]]


def test_pipeline_frees_the_trusted_sample_before_the_reverse_model_arrives(
    workdir, tmp_path, monkeypatch
):
    """At 2 workers no pair of the trusted sample is left in this process when
    the reverse model is read from its child."""
    real_sample, real_load, refs, alive = cli.sample, pickle.load, [], []

    def tracked_sample(pairs, size, seed):
        drawn = real_sample(pairs, size, seed)
        if not refs:  # the first draw is the trusted sample
            drawn = TrackedSample(drawn)
            refs.append(weakref.ref(drawn))
        return drawn

    def load(file):
        alive.append(refs[0]() is not None)
        return real_load(file)

    monkeypatch.setattr(cli, "sample", tracked_sample)
    monkeypatch.setattr(pickle, "load", load)
    assert run_cli("pipeline", "--config", _pipeline_config(workdir, tmp_path, 2)) == 0
    assert alive[0] is False  # the first result read is the reverse model
