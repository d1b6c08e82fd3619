"""Add-k smoothed n-gram language models and word-normalized cross-entropy.

Conventions shared with every other scorer in the toolkit:

* natural log everywhere (scores are nats per token);
* the end-of-sentence event is part of both the log-prob sum and the
  normalizing length, so a sentence of ``m`` tokens is scored over ``m + 1``
  events — this makes the model a proper distribution over variable-length
  sentences and external score files must follow the same convention;
* out-of-vocabulary tokens are scored as ``<unk>``.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from collections.abc import Iterable
from pathlib import Path

from .corpus import Sentence
from .errors import EmptySentenceError, ModelFormatError, TrainingError
from .model_file import ModelFile, first_line

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

LM_MAGIC = "ngram-lm"
_VERSION = 1

DEFAULT_ORDER = 3
DEFAULT_ADD_K = 0.1
DEFAULT_MIN_COUNT = 2


class NgramLanguageModel:
    """Order-n conditional word distribution with add-k smoothing.

    The distribution is closed over ``vocab``: for any history the smoothed
    conditionals sum to exactly 1. Built by :func:`train_ngram`; immutable
    afterwards, so concurrent read-only queries are safe.
    """

    def __init__(
        self,
        order: int,
        k: float,
        vocab: set[str],
        ngram_counts: dict[tuple[str, ...], int],
    ):
        if order < 1:
            raise ValueError("order must be >= 1")
        if not 0.0 < k < math.inf:
            raise ValueError(f"add-k constant must be finite and > 0, got {k!r}")
        self.order = order
        self.k = k
        self.vocab = vocab
        self.ngram_counts = ngram_counts
        # A context's count is the sum of its continuations, so it never
        # needs to be serialized.
        contexts: dict[tuple[str, ...], int] = {}
        for ngram, count in ngram_counts.items():
            history = ngram[:-1]
            contexts[history] = contexts.get(history, 0) + count
        self.context_counts = contexts
        # Every log-probability scoring can need, each the same float that
        # log(prob()) gives: a stored n-gram, an unseen word after a seen
        # history, and any word after an unseen history (count 0 adds nothing).
        kv = k * len(vocab)
        self._ngram_log_probs = {
            ngram: math.log((count + k) / (contexts[ngram[:-1]] + kv))
            for ngram, count in ngram_counts.items()
        }
        self._unseen_word_log_probs = {
            history: math.log(k / (count + kv)) for history, count in contexts.items()
        }
        self._unseen_history_log_prob = math.log(k / kv)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def map_token(self, token: str) -> str:
        return token if token in self.vocab else UNK

    def prob(self, word: str, history: tuple[str, ...]) -> float:
        """Smoothed p(word | history); unseen histories fall back to 1/V."""
        word = self.map_token(word)
        history = tuple(self.map_token(t) for t in history)
        if len(history) > self.order - 1:
            history = history[len(history) - (self.order - 1):]
        numer = self.ngram_counts.get(history + (word,), 0) + self.k
        denom = self.context_counts.get(history, 0) + self.k * self.vocab_size
        return numer / denom

    def _event_log_probs(self, tokens: list[str]) -> list[float]:
        vocab = self.vocab
        mapped = [t if t in vocab else UNK for t in tokens]
        padded = [BOS] * (self.order - 1) + mapped + [EOS]
        ngram_log_probs = self._ngram_log_probs
        out = []
        for ngram in zip(*(padded[i:] for i in range(self.order))):
            log_prob = ngram_log_probs.get(ngram)
            if log_prob is None:
                log_prob = self._unseen_word_log_probs.get(
                    ngram[:-1], self._unseen_history_log_prob
                )
            out.append(log_prob)
        return out


def train_ngram(
    mono: Iterable[Sentence],
    order: int = DEFAULT_ORDER,
    k: float = DEFAULT_ADD_K,
    vocab_min_count: int = DEFAULT_MIN_COUNT,
) -> NgramLanguageModel:
    """Train an add-k n-gram model on a monolingual sentence stream.

    Words seen fewer than ``vocab_min_count`` times map to ``<unk>``; every
    sentence is padded with ``order - 1`` start symbols and one end symbol.
    Blank sentences contribute nothing. Training is deterministic: the same
    corpus always yields a bit-identical model.
    """
    if order < 1:
        raise TrainingError("order must be >= 1")
    if not 0.0 < k < math.inf:
        raise TrainingError(f"add-k constant must be finite and > 0, got {k!r}")
    if iter(mono) is mono:
        mono = [s for s in mono]  # two passes needed: vocab, then counts

    word_counts: Counter[str] = Counter()
    n_sentences = 0
    for sentence in mono:
        n_sentences += 1
        word_counts.update(sentence.tokens)
    if n_sentences == 0:
        raise TrainingError("cannot train a language model on an empty stream")

    vocab = {w for w, c in word_counts.items() if c >= vocab_min_count}
    vocab.add(EOS)
    vocab.add(UNK)
    if order > 1:
        vocab.add(BOS)  # start padding is a real token type for n > 1

    ngram_counts: dict[tuple[str, ...], int] = {}
    for sentence in mono:
        if not sentence.tokens:
            continue
        mapped = [t if t in vocab else UNK for t in sentence.tokens]
        padded = [BOS] * (order - 1) + mapped + [EOS]
        for i in range(order - 1, len(padded)):
            ngram = tuple(padded[i - order + 1:i + 1])
            ngram_counts[ngram] = ngram_counts.get(ngram, 0) + 1
    if not ngram_counts:
        raise TrainingError("training stream contained only blank sentences")

    return NgramLanguageModel(order=order, k=k, vocab=vocab, ngram_counts=ngram_counts)


def cross_entropy(lm: NgramLanguageModel, sentence: Sentence) -> float:
    """Word-normalized cross-entropy in nats per token, end event included."""
    if not sentence.tokens:
        raise EmptySentenceError("cannot score an empty sentence")
    log_probs = lm._event_log_probs(sentence.tokens)
    return -math.fsum(log_probs) / len(log_probs)


def save_lm(lm: NgramLanguageModel, path: str | Path) -> None:
    """Write the model as versioned plain text: header, vocab, n-gram counts.

    Counts are integers and ``k`` round-trips through repr, so a saved model
    reloads bit-exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(first_line(LM_MAGIC, _VERSION) + "\n")
        fh.write(f"order\t{lm.order}\n")
        fh.write(f"k\t{lm.k!r}\n")
        fh.write(f"vocab\t{lm.vocab_size}\n")
        for word in sorted(lm.vocab):
            fh.write(word + "\n")
        fh.write(f"ngrams\t{len(lm.ngram_counts)}\n")
        for ngram in sorted(lm.ngram_counts):
            fh.write(f"{' '.join(ngram)}\t{lm.ngram_counts[ngram]}\n")


def load_lm(path: str | Path) -> NgramLanguageModel:
    """Read a model written by :func:`save_lm`.

    The order must be >= 1, ``k`` finite and > 0, the vocabulary non-empty
    and every count >= 0; a violation raises :class:`ModelFormatError`
    naming the file and line.
    """
    model = ModelFile(path, LM_MAGIC, _VERSION)
    order = model.header(1, "order", int)
    if order < 1:
        raise model.error(1, f"order must be >= 1, got {order}")
    k = model.header(2, "k", float)
    if not 0.0 < k < math.inf:
        raise model.error(2, f"add-k constant must be finite and > 0, got {k!r}")
    vocab_size = model.count(3, "vocab")
    if vocab_size < 1:
        raise model.error(3, f"vocab must not be empty, got {vocab_size}")
    # One string object per word, shared by the vocabulary and every n-gram.
    intern = sys.intern
    words = model.section(4, vocab_size, "vocab")
    vocab = set(map(intern, words))
    if len(vocab) != vocab_size:
        raise model.repeat_error(4, words, "vocab entry")

    ngram_start = 5 + vocab_size
    n_ngrams = model.count(ngram_start - 1, "ngrams")
    rows = model.section(ngram_start, n_ngrams, "n-gram")
    ngram_counts: dict[tuple[str, ...], int] = {}
    for line in rows:
        try:
            text, count_text = line.split("\t")
            count = int(count_text)
        except ValueError:
            why = f"expected 'ngram\\tcount' with an integer count, got {line!r}"
            raise model.row_error(ngram_start, line, why) from None
        ngram = tuple(map(intern, text.split(" ")))
        if count < 0:
            raise model.row_error(ngram_start, line, f"negative count: {count_text!r}")
        if len(ngram) != order:
            why = f"n-gram arity {len(ngram)} != order {order}"
            raise model.row_error(ngram_start, line, why)
        ngram_counts[ngram] = count
    if len(ngram_counts) != n_ngrams:
        keys = (line.partition("\t")[0] for line in rows)
        raise model.repeat_error(ngram_start, keys, "n-gram")
    model.check_end(ngram_start + n_ngrams, "n-gram")

    try:
        return NgramLanguageModel(order=order, k=k, vocab=vocab, ngram_counts=ngram_counts)
    except (ArithmeticError, ValueError) as exc:  # counts or k beyond float range
        raise ModelFormatError(f"{path}: cannot build log-probabilities: {exc}") from None
