"""Deterministic synthetic bitext for experiments and the test harness.

The "language" is a Markov walk over a small vocabulary: each word allows a
few fixed successor words, so an n-gram model can actually learn something
and token shuffling genuinely breaks the sequence statistics. The "target
language" applies a seeded word-substitution cipher position by position,
which gives a translation model a clean lexical signal. A separate,
disjoint vocabulary stands in for wrong-language text.
"""

from __future__ import annotations

import random

from .corpus import Sentence, SentencePair


_VOCAB_SIZE = 100  # words in each cipher language
_N_SUCCESSORS = 4  # successor words that each word allows


def _walk(rng: random.Random, words: list[str], min_len: int, max_len: int) -> list[str]:
    v = len(words)
    length = rng.randint(min_len, max_len)
    idx = rng.randrange(v)
    out = [words[idx]]
    for _ in range(length - 1):
        # successor set of word i is fixed: i*3 + 1 .. i*3 + _N_SUCCESSORS (mod v)
        idx = (idx * 3 + 1 + rng.randrange(_N_SUCCESSORS)) % v
        out.append(words[idx])
    return out


def make_cipher_corpus(
    n_pairs: int, seed: int, min_len: int = 4, max_len: int = 12
) -> list[SentencePair]:
    """Clean parallel pairs: a source walk plus its word-for-word encipherment.

    The cipher is fixed, so corpora drawn with different ``seed`` values
    share one language pair; train on one draw, evaluate on another.
    """
    src_words = [f"s{i:03d}" for i in range(_VOCAB_SIZE)]
    cipher_perm = list(range(_VOCAB_SIZE))
    random.Random("0:cipher").shuffle(cipher_perm)
    cipher = {f"s{i:03d}": f"t{cipher_perm[i]:03d}" for i in range(_VOCAB_SIZE)}
    rng = random.Random(f"{seed}:corpus")
    pairs = []
    for i in range(n_pairs):
        src_tokens = _walk(rng, src_words, min_len, max_len)
        tgt_tokens = [cipher[w] for w in src_tokens]
        pairs.append(
            SentencePair(
                id=i,
                src=Sentence(tokens=src_tokens, raw=" ".join(src_tokens)),
                tgt=Sentence(tokens=tgt_tokens, raw=" ".join(tgt_tokens)),
            )
        )
    return pairs


def make_third_language(n_sentences: int, seed: int) -> list[Sentence]:
    """Sentences over a vocabulary disjoint from both cipher languages."""
    words = [f"z{i:03d}" for i in range(60)]
    rng = random.Random(f"{seed}:third")
    out = []
    for _ in range(n_sentences):
        tokens = _walk(rng, words, 4, 12)
        out.append(Sentence(tokens=tokens, raw=" ".join(tokens)))
    return out
