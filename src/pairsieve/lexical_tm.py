"""EM-trained word-translation tables and conditional cross-entropy scoring.

The model is the classic bag-of-words lexical translation model: a table
t(generated-word | conditioning-word) trained by expectation maximization,
one model per direction. It is the simplest model with a genuine conditional
P(y|x), which is all the downstream score algebra needs; externally computed
conditional cross-entropies can be substituted via :func:`load_external_scores`.

Scoring gives nats per token of the generated side, which for the reverse
model is the source: a sentence of m generated tokens is scored over m
events, with no end event (the language models score m + 1).
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .corpus import Sentence, SentencePair
from .errors import (
    EmptySentenceError,
    EmptySourceError,
    ExternalScoreError,
    ModelFormatError,
    TrainingError,
)
from .model_file import (
    IdKeyedFormat,
    ModelFile,
    check_finite_nonnegative,
    first_line,
    float_column,
    numbered_lines,
    read_id_keyed,
)

# The empty string can never collide with a real token (tokens are maximal
# non-whitespace runs), so it doubles as the NULL word key.
NULL = ""

PROB_FLOOR = 1e-9
# How far a loaded t(. | cond) may sum from 1. EM's rows sum to 1 within
# rounding, and saved probabilities reload exactly.
ROW_SUM_TOLERANCE = 1e-6

TM_MAGIC = "lexical-tm"
_VERSION = 1

DEFAULT_ITERATIONS = 5
DEFAULT_MIN_GAIN = 1e-6  # nats per pair; early-stop cutoff

EmTrace = list[float]


class Direction(Enum):
    """Which corpus side conditions the model: fwd = P(tgt|src), rev = P(src|tgt)."""

    FORWARD = "fwd"
    REVERSE = "rev"


@dataclass
class LexicalTranslationModel:
    """t(generated | conditioning) probability table, stored gen-major.

    ``table[gen][cond]`` is t(gen | cond): scoring a generated word fetches
    its one column. Every conditional distribution t(. | cond) sums to 1;
    trained tables are treated as immutable, so concurrent read-only queries
    are safe.
    """

    table: dict[str, dict[str, float]]
    use_null: bool
    direction: Direction

    def prob(self, gen_word: str, cond_word: str) -> float:
        column = self.table.get(gen_word)
        if column is None:
            return 0.0
        return column.get(cond_word, 0.0)


def _oriented(pair: SentencePair, direction: Direction) -> tuple[Sentence, Sentence]:
    """Return (conditioning, generated) sentences for the given direction."""
    if direction is Direction.FORWARD:
        return pair.src, pair.tgt
    return pair.tgt, pair.src


def train_model1(
    parallel: Iterable[SentencePair],
    iterations: int = DEFAULT_ITERATIONS,
    use_null: bool = True,
    direction: Direction = Direction.FORWARD,
    min_gain: float | None = DEFAULT_MIN_GAIN,
) -> tuple[LexicalTranslationModel, EmTrace]:
    """Train a lexical translation table by EM from uniform initialization.

    The returned trace holds the corpus log-likelihood under the parameters
    at the start of each iteration (it falls out of the E-step normalizers),
    so EM guarantees it is non-decreasing. When ``min_gain`` is set, training
    stops once the per-pair likelihood gain drops below it; pass ``None`` to
    always run the full iteration count.

    Pairs with a blank side are skipped; if nothing usable remains, training
    fails. EM keeps each usable pair's own token lists, not copies, and
    interns their tokens in place (``sys.intern``), so the caller's lists
    are left holding the same words as interned strings.
    """
    if iterations < 1:
        raise TrainingError("iterations must be >= 1")

    # Interned tokens make every key of the EM tables one string per word.
    intern = sys.intern
    conds: list[list[str]] = []
    gens: list[list[str]] = []
    for pair in parallel:
        cond, gen = _oriented(pair, direction)
        if cond.is_blank or gen.is_blank:
            continue
        cond.tokens[:] = map(intern, cond.tokens)
        gen.tokens[:] = map(intern, gen.tokens)
        conds.append(cond.tokens)
        gens.append(gen.tokens)
    if not conds:
        raise TrainingError("no usable pairs: every pair had a blank side")

    # Uniform initialization over co-occurring generated words: the table's
    # keys are exactly the co-occurring (gen, cond) pairs, so each cond word
    # starts at 1 / (number of columns that hold it).
    null = (NULL,) if use_null else ()
    table: dict[str, dict[str, float]] = {}
    for cond_tokens, gen_tokens in zip(conds, gens):
        cond_keys = dict.fromkeys(itertools.chain(null, cond_tokens), 0.0)
        for g in gen_tokens:
            table.setdefault(g, {}).update(cond_keys)
    n_columns = Counter(itertools.chain.from_iterable(table.values()))
    start = {c: 1.0 / n for c, n in n_columns.items()}
    for column in table.values():
        for c in column:
            column[c] = start[c]

    # Every z, count and total adds its terms in corpus order, NULL's first,
    # so each probability is the same float whichever way the table is keyed.
    # (No sum(), which compensates from Python 3.12 and would change the floats.)
    trace: EmTrace = []
    n_pairs = len(conds)
    for _ in range(iterations):
        counts: dict[str, dict[str, float]] = {g: {} for g in table}
        totals = dict.fromkeys(n_columns, 0.0)
        log_likelihood = 0.0
        for cond_tokens, gen_tokens in zip(conds, gens):
            cond_terms = (*null, *cond_tokens)  # freed with the next pair
            len_norm = math.log(len(cond_terms))
            for g in gen_tokens:
                column = table[g]
                z = 0.0
                for c in cond_terms:
                    z += column[c]
                log_likelihood += math.log(z) - len_norm
                count_column = counts[g]
                for c in cond_terms:
                    share = column[c] / z
                    count_column[c] = count_column.get(c, 0.0) + share
                    totals[c] += share
        trace.append(log_likelihood)
        for g, count_column in counts.items():
            table[g] = {c: v / totals[c] for c, v in count_column.items()}
        if min_gain is not None and len(trace) >= 2:
            if trace[-1] - trace[-2] < min_gain * n_pairs:
                break

    model = LexicalTranslationModel(table=table, use_null=use_null, direction=direction)
    return model, trace


_EMPTY_COLUMN: dict[str, float] = {}


def cond_cross_entropy(
    tm: LexicalTranslationModel, x: Sentence, y: Sentence
) -> float:
    """Word-normalized -log P(y|x)/|y| in nats under the bag-of-words model.

    Each token probability is (1/(|x|+null)) * sum over source words of
    t(y_t|x_s), floored at 1e-9 before the log so unseen words yield large
    but finite scores and the downstream sort stays total. fsum keeps the
    result exactly invariant under permutations of either side.
    """
    if not y.tokens:
        raise EmptySentenceError("cannot score an empty generated sentence")
    if not x.tokens and not tm.use_null:
        raise EmptySourceError(
            "empty conditioning sentence and the model has no NULL word"
        )
    cond_tokens = [NULL] + x.tokens if tm.use_null else x.tokens
    table = tm.table
    norm = len(cond_tokens)
    zeros = [0.0] * norm
    log_prob = {}
    for g in set(y.tokens):
        # One column fetch per distinct generated word; fsum consumes the
        # lookups in C.
        column = table.get(g, _EMPTY_COLUMN)
        mass = math.fsum(map(column.get, cond_tokens, zeros))
        log_prob[g] = math.log(max(mass / norm, PROB_FLOOR))
    # Each repeat adds its word's one value; fsum is exact, so the sum is the
    # float a log per token would give.
    return -math.fsum(map(log_prob.__getitem__, y.tokens)) / len(y.tokens)


def save_tm(tm: LexicalTranslationModel, path: str | Path) -> None:
    """Write the table as versioned TSV rows (cond, gen, probability).

    Rows are sorted by (gen, cond), so output is byte-identical across runs
    and a load fills one column at a time; probabilities are written with
    repr and therefore reload exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(first_line(TM_MAGIC, _VERSION) + "\n")
        fh.write(f"direction\t{tm.direction.value}\n")
        fh.write(f"null\t{int(tm.use_null)}\n")
        n_rows = sum(len(column) for column in tm.table.values())
        fh.write(f"rows\t{n_rows}\n")
        for gen in sorted(tm.table):
            column = tm.table[gen]
            fh.writelines(f"{cond}\t{gen}\t{column[cond]!r}\n" for cond in sorted(column))


def load_tm(path: str | Path) -> LexicalTranslationModel:
    """Read a table written by :func:`save_tm`; rows may come in any order.

    Every probability must be a number in [0, 1] and each (cond, gen) pair
    may appear once; anything else raises :class:`ModelFormatError` naming
    the file and line. Each t(. | cond) must then sum to 1 within
    ROW_SUM_TOLERANCE, or the error names the file, the word and its sum.
    """
    with numbered_lines(path, ModelFormatError) as lines:
        model = ModelFile(path, lines, TM_MAGIC, _VERSION)
        direction = model.header("direction", Direction)
        use_null = bool(model.header("null", ("0", "1").index))  # ValueError otherwise
        n_rows = model.count("rows")
        table: dict[str, dict[str, float]] = {}
        gen, column = None, {}
        # One string object per word, however many rows name it.
        intern = sys.intern
        for line_no, line in model.rows(n_rows):
            try:
                cond, row_gen, prob_text = line.split("\t")
                prob = float(prob_text)
            except ValueError:
                prob = math.nan  # rejected with the row just below
            if not 0.0 <= prob <= 1.0:  # also false for nan
                got = line.rstrip("\n")
                why = f"expected 'cond\\tgen\\tprob' with prob in [0, 1], got {got!r}"
                raise model.error(line_no, why)
            if row_gen != gen:
                gen = intern(row_gen)
                column = table.get(gen)
                if column is None:
                    column = table[gen] = {}
            column[intern(cond)] = prob
        if sum(map(len, table.values())) != n_rows:
            key_of = lambda row: row.rpartition("\t")[0]
            raise model.section_error(key_of, "(cond, gen) pair", "row")
        model.check_end("row")

    # One pass over the loaded table costs less than totals kept in the row loop.
    totals: dict[str, float] = {}
    total_of = totals.get
    for column in table.values():
        for cond, prob in column.items():
            totals[cond] = total_of(cond, 0.0) + prob
    for cond, total in totals.items():
        if abs(total - 1.0) > ROW_SUM_TOLERANCE:
            raise ModelFormatError(
                f"{path}: t(. | {cond!r}) sums to {total!r}, not 1 within {ROW_SUM_TOLERANCE}"
            )
    return LexicalTranslationModel(table=table, use_null=use_null, direction=direction)


class ExternalScoreTable:
    """Precomputed per-pair cross-entropies, queried by pair id; called on a
    pair, the table is that pair's scorer.

    The bridge for scores produced outside the toolkit (for example by neural
    translation models). A table follows the convention of the scorer it
    stands in for (README, "Scoring conventions"): a language model's nats
    per target token over m + 1 events, end event included, or the built-in
    TM's nats per generated token over m events, none for the end. The two
    directions must share one convention. Scores are held as one
    ``array('d')``, 8 bytes per score; any other sequence is copied into one.
    """

    def __init__(self, scores: Sequence[float], source: str = "external score table"):
        self._scores = scores if isinstance(scores, array) else array("d", scores)
        self.source = source  # the file it came from, for error messages

    def __len__(self) -> int:
        return len(self._scores)

    def __call__(self, pair: SentencePair) -> float:
        # One frame per score: only an id off the table goes on to lookup.
        pair_id = pair.id
        if pair_id >= 0:
            try:
                return self._scores[pair_id]
            except IndexError:
                pass
        return self.lookup(pair_id)

    def lookup(self, pair_id: int) -> float:
        if 0 <= pair_id < len(self._scores):
            return self._scores[pair_id]
        raise ExternalScoreError(
            f"pair id {pair_id} not covered by the external score table "
            f"(ids 0..{len(self._scores) - 1})"
        )


def _table_scores(ids: range, scores: list[str]) -> array:
    values = float_column("score", scores)
    check_finite_nonnegative("score", scores, values)
    return array("d", values)


EXTERNAL_SCORE_TABLE = IdKeyedFormat("score table", 2, _table_scores, ExternalScoreError)


def load_external_scores(path: str | Path) -> ExternalScoreTable:
    """Load a headerless TSV of ``id<TAB>cross-entropy`` lines: line k holds
    pair k − 1, its id written as ``str(k − 1)``, and each value is finite
    and >= 0. A table that breaks the rule raises :class:`ExternalScoreError`
    naming its first bad line (see :func:`~pairsieve.model_file.read_id_keyed`)."""
    scores = array("d")
    for block in read_id_keyed(path, EXTERNAL_SCORE_TABLE):
        scores.extend(block)
    if not scores:
        raise ExternalScoreError(f"{path}: empty score table")
    return ExternalScoreTable(scores, source=str(path))
