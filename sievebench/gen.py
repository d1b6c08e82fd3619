"""Seeded inputs for the pairsieve benchmark.

Nothing here imports pairsieve: a change to the program (its synthetic or
noise modules included) moves no input.

The language pair is fixed (LANGUAGE_SEED); only the draws depend on the
benchmark seed. Each language is a Markov walk over a Zipf-weighted
vocabulary: every word has four fixed successors, taken with probability
0.75, so an n-gram model learns something and a token shuffle breaks the
sequence statistics. The target language enciphers the source word for word
(a fixed permutation of the vocabulary) and swaps adjacent words now and
then. Sentence lengths are log-normal (median 9, sigma 0.55, clipped to
2..80 tokens), so the (|x|+1)*|y| cost of the translation models has a tail.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

LANGUAGE_SEED = 0
VOCAB = 1000
THIRD_VOCAB = 400
ZIPF_S = 1.0
N_SUCCESSORS = 4
P_SUCCESSOR = 0.75
P_SWAP = 0.1
LEN_MEDIAN = 9.0
LEN_SIGMA = 0.55
LEN_MIN, LEN_MAX = 2, 80

NOISE_KINDS = ("misalign", "copy_source", "shuffle", "truncate", "wrong_language")
DIRT_KINDS = ("blank_src", "blank_tgt", "overlength_src", "overlength_tgt")
NOISE_RATE = 0.2
DIRT_PER_KIND = 3
OVERLENGTH = (260, 300)  # the program's default --max-tokens is 250


class Language:
    """One Markov-walk language: words, Zipf draw weights, successor lists."""

    def __init__(self, prefix: str, size: int, rng: random.Random):
        self.words = [f"{prefix}{i:03d}" for i in range(size)]
        self.cum_weights = list(itertools.accumulate(1.0 / (r + 1) ** ZIPF_S for r in range(size)))
        self.successors = [
            rng.choices(range(size), cum_weights=self.cum_weights, k=N_SUCCESSORS)
            for _ in range(size)
        ]

    def walk(self, rng: random.Random, length: int) -> list[int]:
        draws = rng.choices(range(len(self.words)), cum_weights=self.cum_weights, k=length)
        out = [draws[0]]
        for i in range(1, length):
            if rng.random() < P_SUCCESSOR:
                out.append(self.successors[out[-1]][rng.randrange(N_SUCCESSORS)])
            else:
                out.append(draws[i])
        return out


class LanguagePair:
    def __init__(self) -> None:
        rng = random.Random(f"{LANGUAGE_SEED}:language")
        self.src = Language("s", VOCAB, rng)
        self.tgt_words = [f"t{i:03d}" for i in range(VOCAB)]
        cipher = list(range(VOCAB))
        rng.shuffle(cipher)
        self.cipher = [self.tgt_words[c] for c in cipher]
        self.third = Language("z", THIRD_VOCAB, rng)


def _length(rng: random.Random) -> int:
    value = round(LEN_MEDIAN * math.exp(rng.gauss(0.0, LEN_SIGMA)))
    return min(max(value, LEN_MIN), LEN_MAX)


def clean_pairs(lang: LanguagePair, rng: random.Random, n: int) -> list[tuple[list[str], list[str]]]:
    src_words = lang.src.words
    cipher = lang.cipher
    pairs = []
    for _ in range(n):
        ids = lang.src.walk(rng, _length(rng))
        tgt = [cipher[i] for i in ids]
        for i in range(len(tgt) - 1):
            if rng.random() < P_SWAP:
                tgt[i], tgt[i + 1] = tgt[i + 1], tgt[i]
        pairs.append(([src_words[i] for i in ids], tgt))
    return pairs


def _third_sentence(lang: LanguagePair, rng: random.Random) -> list[str]:
    return [lang.third.words[i] for i in lang.third.walk(rng, _length(rng))]


def corrupt(
    lang: LanguagePair,
    rng: random.Random,
    pairs: list[tuple[list[str], list[str]]],
    rate: float,
    dirt_per_kind: int,
) -> list[str]:
    """Corrupt pairs in place; return one label kind per pair ('clean' or a kind).

    Exactly round(rate * n) pairs get a noise kind, the kinds in equal turns;
    then dirt_per_kind of the remaining clean pairs get each dirt kind.
    """
    n = len(pairs)
    order = list(range(n))
    rng.shuffle(order)
    n_noisy = round(rate * n)
    kinds = ["clean"] * n
    originals = [tgt for _, tgt in pairs]
    for slot, i in enumerate(order[:n_noisy]):
        kind = NOISE_KINDS[slot % len(NOISE_KINDS)]
        kinds[i] = kind
        src, tgt = pairs[i]
        if kind == "misalign":
            j = (i + 1 + rng.randrange(n - 1)) % n
            tgt = list(originals[j])
        elif kind == "copy_source":
            tgt = list(src)
        elif kind == "shuffle":
            tgt = list(tgt)
            for _ in range(5):
                rng.shuffle(tgt)
                if tgt != originals[i]:
                    break
        elif kind == "truncate":
            tgt = tgt[: rng.randint(1, max(1, len(tgt) // 2))]
        else:
            tgt = _third_sentence(lang, rng)
        pairs[i] = (src, tgt)
    dirt_slots = order[n_noisy:n_noisy + dirt_per_kind * len(DIRT_KINDS)]
    for slot, i in enumerate(dirt_slots):
        kind = DIRT_KINDS[slot // dirt_per_kind]
        kinds[i] = kind
        src, tgt = pairs[i]
        long_side = [lang.src.words[w] for w in lang.src.walk(rng, rng.randint(*OVERLENGTH))]
        if kind == "blank_src":
            src = []
        elif kind == "blank_tgt":
            tgt = []
        elif kind == "overlength_src":
            src = long_side
        else:
            tgt = [lang.cipher[int(w[1:])] for w in long_side]
        pairs[i] = (src, tgt)
    return kinds


def write_twin(pairs: list[tuple[list[str], list[str]]], prefix: Path) -> None:
    with open(f"{prefix}.src", "w", encoding="utf-8") as fs, open(
        f"{prefix}.tgt", "w", encoding="utf-8"
    ) as ft:
        for src, tgt in pairs:
            fs.write(" ".join(src) + "\n")
            ft.write(" ".join(tgt) + "\n")


def write_labels(kinds: list[str], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, kind in enumerate(kinds):
            fh.write(f"{i}\t{'clean' if kind == 'clean' else 'corrupted'}\t{kind}\n")


def read_labels(path: Path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t")[2] for line in fh]


# Per-kind means of (h_fwd, h_rev, h_in, h_out - h_in) for the external
# tables; clean pairs agree in both directions and fit the in-domain model.
_TABLE_MEANS = {
    "clean": (1.5, 1.5, 3.0, 0.6),
    "misalign": (6.0, 6.0, 3.0, 0.6),
    "copy_source": (7.0, 7.5, 5.0, -1.0),
    "shuffle": (1.5, 1.5, 6.0, -1.2),
    "truncate": (2.0, 4.5, 3.5, 0.2),
    "wrong_language": (9.0, 9.0, 8.0, -3.0),
}


def score_tables(rng: random.Random, kinds: list[str], prefix: Path) -> None:
    """Write four external score tables (fwd, rev, in, out) for the labels.

    Values are nats per token drawn around per-kind means, so clean and
    corrupted pairs separate; dirt pairs get clean-like values (the program
    never reads them, it flags the pair first).
    """
    files = [open(f"{prefix}.{role}.tab", "w", encoding="utf-8") for role in ("fwd", "rev", "in", "out")]
    try:
        for i, kind in enumerate(kinds):
            fwd, rev, h_in, gap = _TABLE_MEANS.get(kind, _TABLE_MEANS["clean"])
            f = abs(rng.gauss(fwd, 0.4 + 0.1 * fwd))
            r = abs(f + rng.gauss(rev - fwd, 0.3))
            lm_in = abs(rng.gauss(h_in, 0.5))
            lm_out = abs(lm_in + rng.gauss(gap, 0.4))
            for fh, value in zip(files, (f, r, lm_in, lm_out)):
                fh.write(f"{i}\t{value:.6f}\n")
    finally:
        for fh in files:
            fh.close()


@dataclass(frozen=True)
class Sizes:
    train: int = 0  # clean draw for TMs and the in-domain LM
    raw: int = 0  # fully corrupted draw for the out-of-domain LM
    crawl: int = 0  # candidate corpus: 20% noise plus dirt
    trusted: int = 0  # trusted corpus of the pipeline


def generate(seed: int, out: Path, sizes: Sizes, tables: bool = False) -> None:
    """Write every input of one workload under ``out`` (created if missing)."""
    out.mkdir(parents=True, exist_ok=True)
    lang = LanguagePair()
    if sizes.train:
        rng = random.Random(f"{seed}:train")
        pairs = clean_pairs(lang, rng, sizes.train)
        write_twin(pairs, out / "train")
        with open(out / "train.mono", "w", encoding="utf-8") as fh:
            fh.writelines(" ".join(tgt) + "\n" for _, tgt in pairs)
    if sizes.raw:
        rng = random.Random(f"{seed}:raw")
        pairs = clean_pairs(lang, rng, sizes.raw)
        corrupt(lang, rng, pairs, 1.0, 0)
        with open(out / "raw.mono", "w", encoding="utf-8") as fh:
            fh.writelines(" ".join(tgt) + "\n" for _, tgt in pairs)
    if sizes.trusted:
        rng = random.Random(f"{seed}:trusted")
        write_twin(clean_pairs(lang, rng, sizes.trusted), out / "trusted")
    if sizes.crawl:
        rng = random.Random(f"{seed}:crawl")
        pairs = clean_pairs(lang, rng, sizes.crawl)
        kinds = corrupt(lang, rng, pairs, NOISE_RATE, DIRT_PER_KIND)
        write_twin(pairs, out / "crawl")
        write_labels(kinds, out / "crawl.labels")
        if tables:
            score_tables(random.Random(f"{seed}:tables"), kinds, out / "crawl")
