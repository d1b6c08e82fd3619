"""Reference checker for pairsieve outputs.

Imports nothing from pairsieve. It reads model, table and score files in the
formats README.md documents and recomputes what the program should have
written: the four cross-entropies, the score algebra, selections, weights and
ranking AUCs. Every check raises CheckError with the file and the line.
"""

from __future__ import annotations

import math
import multiprocessing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

HEADER = "id\th_fwd\th_rev\th_in\th_out\tadq\tdom\tcombined\tflags"
PROB_FLOOR = 1e-9
NULL = ""


class CheckError(Exception):
    """An output of the program disagrees with the reference computation."""


@dataclass
class Record:
    pair_id: int
    h: tuple[float, float, float, float]  # h_fwd, h_rev, h_in, h_out
    adq: float
    dom: float
    combined: float
    flags: tuple[str, ...]


def read_scores(path: Path) -> list[Record]:
    with open(path, encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != HEADER:
            raise CheckError(f"{path}: line 1: bad score header")
        records = []
        for line_no, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 9:
                raise CheckError(f"{path}: line {line_no}: {len(parts)} columns")
            values = [float(p) for p in parts[1:8]]
            records.append(
                Record(
                    int(parts[0]),
                    (values[0], values[1], values[2], values[3]),
                    values[4],
                    values[5],
                    values[6],
                    () if parts[8] == "-" else tuple(parts[8].split(",")),
                )
            )
    for i, record in enumerate(records):
        if record.pair_id != i:
            raise CheckError(f"{path}: line {i + 2}: id {record.pair_id}, expected {i}")
    return records


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


@dataclass
class TranslationModel:
    use_null: bool
    by_gen: dict[str, dict[str, float]]  # gen -> cond -> t(gen | cond)


def read_tm(path: Path) -> TranslationModel:
    with open(path, encoding="utf-8") as fh:
        head = [fh.readline().rstrip("\n").split("\t") for _ in range(4)]
        if head[0] != ["lexical-tm", "1"] or head[1][0] != "direction" or head[3][0] != "rows":
            raise CheckError(f"{path}: line 1: not a lexical-tm 1 file")
        by_gen: dict[str, dict[str, float]] = {}
        n = 0
        for line in fh:
            cond, gen, prob = line.rstrip("\n").split("\t")
            by_gen.setdefault(gen, {})[cond] = float(prob)
            n += 1
    if n != int(head[3][1]):
        raise CheckError(f"{path}: header says {head[3][1]} rows, found {n}")
    return TranslationModel(head[2][1] == "1", by_gen)


def tm_row_sums(path: Path) -> dict[str, float]:
    """Sum of t(. | cond) for every conditioning word of a TM file."""
    rows: dict[str, list[float]] = {}
    with open(path, encoding="utf-8") as fh:
        for _ in range(4):
            fh.readline()
        for line in fh:
            cond, _, prob = line.rstrip("\n").split("\t")
            rows.setdefault(cond, []).append(float(prob))
    return {cond: math.fsum(probs) for cond, probs in rows.items()}


def tm_xent(tm: TranslationModel, cond: list[str], gen: list[str]) -> float:
    """-1/|y| sum_g log max(sum_c t(g|c) / (|x|+NULL), floor); bag of words."""
    cond_tokens = [NULL] + cond if tm.use_null else cond
    norm = len(cond_tokens)
    zeros = [0.0] * norm
    logs = []
    for g in gen:
        mass = math.fsum(map(tm.by_gen.get(g, {}).get, cond_tokens, zeros))
        logs.append(math.log(max(mass / norm, PROB_FLOOR)))
    return -math.fsum(logs) / len(gen)


@dataclass
class LanguageModel:
    order: int
    k: float
    vocab: set[str]
    counts: dict[tuple[str, ...], int]
    contexts: dict[tuple[str, ...], int]


def read_lm(path: Path) -> LanguageModel:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[0] != "ngram-lm\t1":
        raise CheckError(f"{path}: line 1: not an ngram-lm 1 file")
    order = int(lines[1].split("\t")[1])
    k = float(lines[2].split("\t")[1])
    n_vocab = int(lines[3].split("\t")[1])
    vocab = set(lines[4:4 + n_vocab])
    n_ngrams = int(lines[4 + n_vocab].split("\t")[1])
    counts = {}
    contexts: Counter[tuple[str, ...]] = Counter()
    for line in lines[5 + n_vocab:5 + n_vocab + n_ngrams]:
        text, count = line.split("\t")
        ngram = tuple(text.split(" "))
        counts[ngram] = int(count)
        contexts[ngram[:-1]] += int(count)
    return LanguageModel(order, k, vocab, counts, dict(contexts))


def lm_xent(lm: LanguageModel, tokens: list[str]) -> float:
    """Add-k n-gram cross-entropy over m + 1 events (end of sentence included)."""
    padded = ["<s>"] * (lm.order - 1) + [t if t in lm.vocab else "<unk>" for t in tokens] + ["</s>"]
    h = lm.order - 1
    kv = lm.k * len(lm.vocab)
    logs = []
    for i in range(h, len(padded)):
        history = tuple(padded[i - h:i])
        p = (lm.counts.get(history + (padded[i],), 0) + lm.k) / (lm.contexts.get(history, 0) + kv)
        logs.append(math.log(max(p, PROB_FLOOR)))
    return -math.fsum(logs) / len(logs)


def read_table(path: Path) -> list[float]:
    values = []
    with open(path, encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            pair_id, value = line.rstrip("\n").split("\t")
            if int(pair_id) != i:
                raise CheckError(f"{path}: line {i + 1}: id {pair_id}")
            values.append(float(value))
    return values


# ---------------------------------------------------------------------------
# score algebra
# ---------------------------------------------------------------------------


def algebra(h_fwd: float, h_rev: float, h_in: float, h_out: float) -> tuple[float, float, float]:
    """README: adq = exp(-(|f - r| + (f + r)/2)), dom = min(exp(out - in), 1)."""
    adq = math.exp(-(abs(h_fwd - h_rev) + (h_fwd + h_rev) / 2))
    dom = min(math.exp(h_out - h_in), 1.0)
    return adq, dom, adq * dom


def printed(value: float) -> float:
    """The value as the score file prints it: 6 significant digits."""
    return float(f"{value:.6g}")


def check_record(path: Path, record: Record, h: tuple[float, float, float, float]) -> None:
    """Check one unflagged record against entropies recomputed apart from the
    program and README's algebra applied to them.

    The recomputation does the program's arithmetic in the same order, so
    every printed field must agree in all 6 significant digits.
    """
    expected = dict(zip(("h_fwd", "h_rev", "h_in", "h_out"), h))
    expected.update(zip(("adq", "dom", "combined"), algebra(*h)))
    got = dict(zip(("h_fwd", "h_rev", "h_in", "h_out"), record.h))
    got.update(adq=record.adq, dom=record.dom, combined=record.combined)
    for name, want in expected.items():
        if got[name] != printed(want):
            raise CheckError(f"{path}: pair {record.pair_id}: {name} {got[name]!r}, expected {want:.6g}")
    if not (0.0 < record.adq <= 1.0 and 0.0 < record.dom <= 1.0):
        raise CheckError(f"{path}: pair {record.pair_id}: partial score outside (0, 1]")


def check_flags(path: Path, records: list[Record], kinds: list[str]) -> None:
    """Exactly the planted dirt is flagged, with the planted flag and combined 0."""
    dirt = {"blank_src", "blank_tgt", "overlength_src", "overlength_tgt"}
    for record, kind in zip(records, kinds):
        expected = (kind,) if kind in dirt else ()
        if record.flags != expected:
            raise CheckError(
                f"{path}: pair {record.pair_id}: flags {record.flags}, planted {kind}"
            )
        if expected and record.combined != 0.0:
            raise CheckError(f"{path}: pair {record.pair_id}: flagged but combined {record.combined}")


_MODELS: tuple | None = None  # per checking process, set by _load_models


def _load_models(paths: tuple[Path, Path, Path, Path]) -> None:
    global _MODELS
    fwd, rev, lm_in, lm_out = paths
    _MODELS = (read_tm(fwd), read_tm(rev), read_lm(lm_in), read_lm(lm_out))


def _check_slice(path: Path, records: list[Record], src_lines: list[str], tgt_lines: list[str]) -> None:
    fwd, rev, lm_in, lm_out = _MODELS
    for record, src_line, tgt_line in zip(records, src_lines, tgt_lines):
        if record.flags:
            continue
        src, tgt = src_line.split(), tgt_line.split()
        h = (tm_xent(fwd, src, tgt), tm_xent(rev, tgt, src), lm_xent(lm_in, tgt), lm_xent(lm_out, tgt))
        check_record(path, record, h)


def check_scores_from_models(
    path: Path,
    records: list[Record],
    kinds: list[str],
    src_lines: list[str],
    tgt_lines: list[str],
    model_paths: tuple[Path, Path, Path, Path],
    workers: int,
) -> None:
    """Recompute every unflagged record from the fwd, rev, in and out model
    files, split over ``workers`` processes."""
    check_flags(path, records, kinds)
    if len(records) != len(src_lines):
        raise CheckError(f"{path}: {len(records)} records for {len(src_lines)} pairs")
    step = -(-len(records) // workers)
    # fork, not spawn: spawn starts a resource-tracker process that outlives
    # the pool and is only gone some time after this process has exited.
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context, initializer=_load_models, initargs=(model_paths,)) as pool:
        futures = [
            pool.submit(_check_slice, path, records[i:i + step], src_lines[i:i + step], tgt_lines[i:i + step])
            for i in range(0, len(records), step)
        ]
        for future in futures:
            future.result()


def check_scores_from_tables(
    path: Path, records: list[Record], kinds: list[str], tables: list[list[float]]
) -> list[float]:
    """Check every record against the table values; return the independent
    combined scores as the score file prints them (0 for dirt)."""
    check_flags(path, records, kinds)
    if any(len(t) != len(records) for t in tables):
        raise CheckError(f"{path}: {len(records)} records, tables of {[len(t) for t in tables]}")
    independent = []
    for record, *h in zip(records, *tables):
        if record.flags:
            independent.append(0.0)
            continue
        check_record(path, record, tuple(h))
        independent.append(printed(algebra(*h)[2]))
    return independent


def check_tm_rows(path: Path, tolerance: float = 1e-6) -> None:
    for cond, total in tm_row_sums(path).items():
        if abs(total - 1.0) > tolerance:
            raise CheckError(f"{path}: row {cond!r} sums to {total!r}")


# ---------------------------------------------------------------------------
# selection and weights
# ---------------------------------------------------------------------------


def top_n_ids(combined: list[float], n: int) -> list[int]:
    """Ids of the n best scores, ties to the lower id, in ascending id order."""
    ranked = sorted(range(len(combined)), key=lambda i: (-combined[i], i))
    return sorted(ranked[:n])


def threshold_ids(combined: list[float], threshold: float) -> list[int]:
    return [i for i, c in enumerate(combined) if c >= threshold]


def check_selection(
    prefix: str, ids: list[int], src_lines: list[str], tgt_lines: list[str]
) -> None:
    for side, lines in (("src", src_lines), ("tgt", tgt_lines)):
        path = f"{prefix}.{side}"
        with open(path, encoding="utf-8") as fh:
            got = fh.read().split("\n")
        if got and got[-1] == "":
            got.pop()
        if len(got) != len(ids):
            raise CheckError(f"{path}: {len(got)} lines, expected {len(ids)} selected pairs")
        for line_no, (line, i) in enumerate(zip(got, ids), start=1):
            if line != lines[i]:
                raise CheckError(f"{path}: line {line_no}: not pair {i}")


def check_weights(path: Path, records: list[Record]) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) != len(records):
        raise CheckError(f"{path}: {len(lines)} weights for {len(records)} pairs")
    for line_no, (line, record) in enumerate(zip(lines, records), start=1):
        if float(line) != record.combined or line.endswith(".0"):
            raise CheckError(f"{path}: line {line_no}: {line!r}, combined is {record.combined!r}")


# ---------------------------------------------------------------------------
# quality
# ---------------------------------------------------------------------------


def auc(scores: list[float], clean: list[bool]) -> float:
    """P(a random clean pair outranks a random corrupted one), ties count 1/2."""
    order = sorted(range(len(scores)), key=scores.__getitem__)
    n_clean = sum(clean)
    n_bad = len(clean) - n_clean
    if not n_clean or not n_bad:
        raise CheckError("AUC needs clean and corrupted pairs")
    rank_sum = 0.0
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and scores[order[j]] == scores[order[i]]:
            j += 1
        rank_sum += (i + 1 + j) / 2 * sum(clean[order[t]] for t in range(i, j))
        i = j
    return (rank_sum - n_clean * (n_clean + 1) / 2) / (n_clean * n_bad)
