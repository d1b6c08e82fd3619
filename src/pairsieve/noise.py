"""Synthetic corruption of clean bitext and intrinsic filter evaluation.

The corruption taxonomy mirrors what web-crawled bitext actually contains:
misaligned segments, untranslated source copies, scrambled or truncated
targets, and wrong-language text. Corruption assignment is a pure function
of (seed, pair position), so a corrupted corpus is reproducible from its
pairs in order.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .corpus import Sentence, SentencePair
from .errors import ConfigError, StructuralError
from .model_file import IdKeyedFormat, read_id_keyed

DEFAULT_NOISE_RATE = 0.2


class NoiseKind(Enum):
    MISALIGN = "misalign"
    COPY_SOURCE = "copy_source"
    SHUFFLE = "shuffle"
    TRUNCATE = "truncate"
    WRONG_LANGUAGE = "wrong_language"


def uniform_mix() -> dict[NoiseKind, float]:
    return {kind: 1.0 / len(NoiseKind) for kind in NoiseKind}


@dataclass
class NoiseSpec:
    """How much to corrupt and with what blend of corruption kinds."""

    rate: float = DEFAULT_NOISE_RATE
    mix: dict[NoiseKind, float] = field(default_factory=uniform_mix)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"noise rate must be in [0, 1], got {self.rate!r}")
        for kind, p in self.mix.items():
            if not 0.0 <= p < math.inf:  # false for nan too
                raise ConfigError(
                    f"mix proportion {p!r} for {kind.value!r} must be finite and >= 0"
                )
        total = math.fsum(self.mix.values())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"mix proportions must sum to 1, got {total!r}")


# Label i is pair i's corruption kind, None for a clean pair.
Labels = list[NoiseKind | None]


def _made_sentence(tokens: list[str]) -> Sentence:
    return Sentence(tokens=tokens, raw=" ".join(tokens))


def _pair_rng(seed: int, position: int, purpose: str) -> random.Random:
    # String seeding hashes with sha512, so this is stable across processes.
    return random.Random(f"{seed}:{position}:{purpose}")


def inject_noise(
    clean: Iterable[SentencePair],
    spec: NoiseSpec,
    third_language: list[Sentence] | None = None,
) -> tuple[list[SentencePair], Labels]:
    """Corrupt exactly round(rate * n) pairs, kinds drawn per the mix.

    Pair i is the i-th pair given. Returns the pairs after corruption, in the
    same order, and their labels. Misaligned pairs take their target from a
    different pair (never their own, rotation over the misaligned set
    guarantees it). A copied source is the source sentence itself, so its
    line is kept verbatim. Shuffled and truncated targets are built from the
    target's tokens, so they keep its case. Truncation keeps a random
    non-empty prefix of at most half the target tokens, so one-token targets
    pass through unchanged. Deterministic for a fixed spec and seed.
    """
    pairs = list(clean)
    n = len(pairs)
    if n < 10:
        raise ConfigError(f"need at least 10 clean pairs to corrupt, got {n}")
    k = round(spec.rate * n)
    if spec.rate > 0 and k < 1:
        raise ConfigError(f"rate {spec.rate} yields no corrupted pairs at n={n}")

    kinds = sorted(spec.mix, key=lambda kind: kind.value)
    weights = [spec.mix[kind] for kind in kinds]
    if (
        k > 0
        and spec.mix.get(NoiseKind.WRONG_LANGUAGE, 0.0) > 0
        and not third_language
    ):
        raise ConfigError(
            "wrong-language corruption requested but no third-language "
            "sentences were supplied"
        )

    master = random.Random(f"{spec.seed}:assignment")
    corrupted = sorted(master.sample(range(n), k))
    labels: Labels = [None] * n
    for i in corrupted:
        labels[i] = _pair_rng(spec.seed, i, "kind").choices(kinds, weights)[0]

    # Rotate targets within the misaligned set; a singleton borrows from its
    # successor in the full corpus instead.
    misaligned = [i for i in corrupted if labels[i] is NoiseKind.MISALIGN]
    donor_of: dict[int, int] = {}
    if len(misaligned) >= 2:
        for j, i in enumerate(misaligned):
            donor_of[i] = misaligned[(j + 1) % len(misaligned)]
    elif len(misaligned) == 1:
        i = misaligned[0]
        donor_of[i] = (i + 1) % n

    out = list(pairs)
    for i in corrupted:
        kind = labels[i]
        rng = _pair_rng(spec.seed, i, "corrupt")
        pair = pairs[i]
        src, tgt = pair.src, pair.tgt
        if kind is NoiseKind.MISALIGN:
            new_tgt = pairs[donor_of[i]].tgt
        elif kind is NoiseKind.COPY_SOURCE:
            new_tgt = src
        elif kind is NoiseKind.SHUFFLE:
            tokens = list(tgt.tokens)
            if len(set(tokens)) > 1:
                while tokens == tgt.tokens:
                    rng.shuffle(tokens)
            new_tgt = _made_sentence(tokens)
        elif kind is NoiseKind.TRUNCATE:
            keep = rng.randint(1, max(1, len(tgt.tokens) // 2))
            new_tgt = _made_sentence(list(tgt.tokens[:keep]))
        else:
            new_tgt = rng.choice(third_language)
        out[i] = SentencePair(id=pair.id, src=src, tgt=new_tgt)
    return out, labels


def write_labels(labels: Labels, path: str | Path) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        for pair_id, kind in enumerate(labels):
            status, name = ("clean", "-") if kind is None else ("corrupted", kind.value)
            fh.write(f"{pair_id}\t{status}\t{name}\n")
    return len(labels)


# Each (status, kind) text pair a labels line may hold, and its label.
_LABEL_OF = {("clean", "-"): None, **{("corrupted", kind.value): kind for kind in NoiseKind}}


def _labels(ids: range, statuses: list[str], kinds: list[str]) -> Labels:
    try:
        return list(map(_LABEL_OF.__getitem__, zip(statuses, kinds)))
    except KeyError as exc:
        status, kind = exc.args[0]
    if status not in ("clean", "corrupted"):
        raise ValueError(f"expected status 'clean' or 'corrupted', got {status!r}")
    if (status == "clean") != (kind == "-"):
        raise ValueError(
            f"{status} pair with kind {kind!r}; "
            "a clean pair has kind '-' and a corrupted one names its kind"
        )
    raise ValueError(f"unknown corruption kind {kind!r}")


LABELS_FILE = IdKeyedFormat("labels", 3, _labels, StructuralError)


def read_labels(path: str | Path) -> Labels:
    """Labels from ``id<TAB>clean|corrupted<TAB>kind`` lines. Ids count 0, 1,
    2, ... in line order, so label i is pair i. A clean pair's kind is ``-``;
    a corrupted pair names one of the NoiseKind values."""
    return list(itertools.chain.from_iterable(read_id_keyed(path, LABELS_FILE)))


@dataclass
class FilterReport:
    """Rank-based measures of how well a score separates clean from corrupted."""

    n: int
    n_clean: int
    n_corrupted: int
    auc: float
    precision_at_clean: float
    recall_at_clean: float
    mean_combined_clean: float
    mean_combined_by_kind: dict[str, float]


def evaluate_filter(
    scores: Sequence[float],
    labels: Labels,
    *,
    scores_name: str = "the score file",
    labels_name: str = "the labels file",
) -> FilterReport:
    """Score the filter against ground truth: AUC, precision/recall at the
    clean count, and mean score per corruption kind.

    ``scores[i]`` is pair i's score, as ``labels[i]`` is its label; only the
    counts are checked, naming both inputs by ``scores_name`` and
    ``labels_name``. One sort ranks the pairs best first, ties to the lower
    id, the order ``select --top-n`` takes them in. The AUC gives each run of
    tied scores the mean of its ranks, so a tie counts one half (the
    Mann-Whitney convention): floored scores do tie in practice.
    """
    n = len(scores)
    if n != len(labels):
        raise StructuralError(
            f"{scores_name} holds {n} scored pairs but {labels_name} holds "
            f"{len(labels)} labels; the labels are for another corpus"
        )
    n_clean = labels.count(None)
    n_corrupted = n - n_clean
    if not (n_clean and n_corrupted):
        raise StructuralError(
            f"{labels_name}: {n_clean} clean and {n_corrupted} corrupted pairs; "
            "evaluate needs at least one of each"
        )

    # A stable sort keeps tied pairs in id order, reverse=True included.
    order = sorted(range(n), key=scores.__getitem__, reverse=True)
    clean = bytes(kind is None for kind in labels)
    # Ranks count 1 from the lowest score, so the pairs at places i to j - 1
    # of the order rank n - j + 1 to n - i. Each term is a half-integer, so
    # the sum is exact in any order while it stays below 2**52.
    clean_rank_sum = 0.0
    i = 0
    for _, run in itertools.groupby(order, scores.__getitem__):
        run = list(run)
        j = i + len(run)
        clean_rank_sum += (2 * n - i - j + 1) / 2 * sum(map(clean.__getitem__, run))
        i = j
    auc = (clean_rank_sum - n_clean * (n_clean + 1) / 2) / (n_clean * n_corrupted)

    clean_in_top = sum(map(clean.__getitem__, order[:n_clean]))
    # With as many pairs taken as there are clean ones, precision is recall.
    precision = recall = clean_in_top / n_clean

    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for score, kind in zip(scores, labels):
        key = "clean" if kind is None else kind.value
        sums[key] = sums.get(key, 0.0) + score
        counts[key] = counts.get(key, 0) + 1
    means = {key: sums[key] / counts[key] for key in sums}

    return FilterReport(
        n=n,
        n_clean=n_clean,
        n_corrupted=n_corrupted,
        auc=auc,
        precision_at_clean=precision,
        recall_at_clean=recall,
        mean_combined_clean=means["clean"],
        mean_combined_by_kind={
            kind.value: means[kind.value] for kind in NoiseKind if kind.value in means
        },
    )


def write_report(report: FilterReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n\t{report.n}\n")
        fh.write(f"n_clean\t{report.n_clean}\n")
        fh.write(f"n_corrupted\t{report.n_corrupted}\n")
        fh.write(f"auc\t{report.auc:.6g}\n")
        fh.write(f"precision_at_clean\t{report.precision_at_clean:.6g}\n")
        fh.write(f"recall_at_clean\t{report.recall_at_clean:.6g}\n")
        fh.write(f"mean_combined_clean\t{report.mean_combined_clean:.6g}\n")
        for kind, mean in sorted(report.mean_combined_by_kind.items()):
            fh.write(f"mean_combined_{kind}\t{mean:.6g}\n")
