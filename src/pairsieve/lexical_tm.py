"""EM-trained word-translation tables and conditional cross-entropy scoring.

The model is the classic bag-of-words lexical translation model: a table
t(generated-word | conditioning-word) trained by expectation maximization,
one model per direction. It is the simplest model with a genuine conditional
P(y|x), which is all the downstream score algebra needs; externally computed
conditional cross-entropies can be substituted via :func:`load_external_scores`.

Scoring uses the same conventions as the language models: nats per token,
normalized by the token count of the generated side.
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
from .model_file import ModelFile, first_line, invalid_utf8

# The empty string can never collide with a real token (tokens are maximal
# non-whitespace runs), so it doubles as the NULL word key.
NULL = ""

PROB_FLOOR = 1e-9

TM_MAGIC = "lexical-tm"
_VERSION = 1

DEFAULT_ITERATIONS = 5
DEFAULT_MIN_GAIN = 1e-6  # nats per pair; early-stop cutoff

TABLE_BLOCK_CHARS = 1 << 18  # an in-order score table is read 256 KiB at a time

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
    fails.
    """
    if iterations < 1:
        raise TrainingError("iterations must be >= 1")

    # Interned tokens make every key of the EM tables one string per word.
    intern = sys.intern
    oriented: list[tuple[list[str], list[str]]] = []
    for pair in parallel:
        cond, gen = _oriented(pair, direction)
        if cond.is_blank or gen.is_blank:
            continue
        cond_words = map(intern, cond.tokens)
        cond_tokens = [NULL, *cond_words] if use_null else list(cond_words)
        oriented.append((cond_tokens, list(map(intern, gen.tokens))))
    if not oriented:
        raise TrainingError("no usable pairs: every pair had a blank side")

    # Uniform initialization over co-occurring generated words: the table's
    # keys are exactly the co-occurring (gen, cond) pairs, so each cond word
    # starts at 1 / (number of columns that hold it).
    table: dict[str, dict[str, float]] = {}
    for cond_tokens, gen_tokens in oriented:
        cond_keys = dict.fromkeys(cond_tokens, 0.0)
        for g in gen_tokens:
            table.setdefault(g, {}).update(cond_keys)
    n_columns = Counter(itertools.chain.from_iterable(table.values()))
    start = {c: 1.0 / n for c, n in n_columns.items()}
    for column in table.values():
        for c in column:
            column[c] = start[c]

    # Every z, count and total adds its terms in corpus order, so each
    # probability is the same float whichever way the table is keyed.
    trace: EmTrace = []
    n_pairs = len(oriented)
    for _ in range(iterations):
        counts: dict[str, dict[str, float]] = {g: {} for g in table}
        totals = dict.fromkeys(n_columns, 0.0)
        log_likelihood = 0.0
        for cond_tokens, gen_tokens in oriented:
            len_norm = math.log(len(cond_tokens))
            for g in gen_tokens:
                column = table[g]
                z = 0.0
                for c in cond_tokens:
                    z += column[c]
                log_likelihood += math.log(z) - len_norm
                count_column = counts[g]
                for c in cond_tokens:
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
    log_probs = []
    for g in y.tokens:
        # One column fetch per generated token; fsum consumes the lookups in C.
        column = table.get(g, _EMPTY_COLUMN)
        mass = math.fsum(map(column.get, cond_tokens, zeros))
        log_probs.append(math.log(max(mass / norm, PROB_FLOOR)))
    return -math.fsum(log_probs) / len(y.tokens)


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
    the file and line.
    """
    model = ModelFile(path, TM_MAGIC, _VERSION)
    direction = model.header(1, "direction", Direction)
    use_null = bool(model.header(2, "null", ("0", "1").index))  # ValueError otherwise
    n_rows = model.count(3, "rows")
    rows = model.section(4, n_rows, "row")
    table: dict[str, dict[str, float]] = {}
    gen, column = None, {}
    # One string object per word, however many rows name it.
    intern = sys.intern
    for line in rows:
        try:
            cond, row_gen, prob_text = line.split("\t")
            prob = float(prob_text)
        except ValueError:
            prob = math.nan  # rejected with the row just below
        if not 0.0 <= prob <= 1.0:  # also false for nan
            why = f"expected 'cond\\tgen\\tprob' with prob in [0, 1], got {line!r}"
            raise model.row_error(4, line, why)
        if row_gen != gen:
            gen = intern(row_gen)
            column = table.get(gen)
            if column is None:
                column = table[gen] = {}
        column[intern(cond)] = prob
    if sum(map(len, table.values())) != n_rows:
        keys = (line.rpartition("\t")[0] for line in rows)
        raise model.repeat_error(4, keys, "(cond, gen) pair")
    model.check_end(4 + n_rows, "row")

    return LexicalTranslationModel(table=table, use_null=use_null, direction=direction)


class ExternalScoreTable:
    """Precomputed per-pair cross-entropies, queried by pair id.

    The bridge for scores produced outside the toolkit (for example by neural
    translation models). Scores must use the shared convention: nats per
    token of the generated side, end event included. They are held as one
    ``array('d')``, 8 bytes per score; any other sequence is copied into one.
    """

    def __init__(self, scores: Sequence[float], source: str = "external score table"):
        self._scores = scores if isinstance(scores, array) else array("d", scores)
        self.source = source  # the file it came from, for error messages

    def __len__(self) -> int:
        return len(self._scores)

    def lookup(self, pair_id: int) -> float:
        if 0 <= pair_id < len(self._scores):
            return self._scores[pair_id]
        raise ExternalScoreError(
            f"pair id {pair_id} not covered by the external score table "
            f"(ids 0..{len(self._scores) - 1})"
        )


def load_external_scores(path: str | Path) -> ExternalScoreTable:
    """Load a headerless TSV of (pair id, cross-entropy) with ids dense from 0.

    A table whose line i is exactly ``i<TAB>value`` loads a block at a time;
    any other table, and any table with a fault, is read by the line loop,
    which alone words the errors, so both paths accept the same files and
    load the same floats.
    """
    try:
        scores = _read_in_order(path)
    except ValueError:  # a bad value or invalid UTF-8: the line loop names it
        scores = None
    if not scores:  # another layout, a fault, or an empty file
        scores = _read_any_order(path)
    return ExternalScoreTable(scores, source=str(path))


def _read_in_order(path: str | Path) -> array | None:
    """The scores of a table whose line i is ``i<TAB>value`` for every i, each
    value finite and >= 0, read a block at a time; None if a block is laid out
    otherwise or holds another value. A value that does not parse, or text
    that is not UTF-8, raises ValueError."""
    scores = array("d")
    with open(path, "r", encoding="utf-8") as fh:
        while block := fh.read(TABLE_BLOCK_CHARS):
            if block[-1] != "\n":
                block += fh.readline()
                if block[-1] != "\n":  # the last line has no newline
                    block += "\n"
            fields = block.replace("\n", "\t").split("\t")
            values = fields[1::2]
            ids = map(str, range(len(scores), len(scores) + len(values)))
            # Rebuilt from its ids and values, the block must come out the
            # same: one tab per line and line i's id written as str(i).
            if "\n".join(map("\t".join, zip(ids, values))) + "\n" != block:
                return None
            block_scores = array("d", map(float, values))
            # Cross-entropies are >= 0; a nan or inf makes the sum fail.
            if not (min(block_scores) >= 0.0 and sum(block_scores) < math.inf):
                return None
            scores.extend(block_scores)
    return scores


def _read_any_order(path: str | Path) -> array:
    """The line loop: ids in any order, blank lines skipped; every fault
    raises ExternalScoreError naming the file and, where there is one, the
    line."""
    entries: dict[int, float] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 2:
                    raise ExternalScoreError(
                        f"{path}: line {line_no}: expected 'id\\tscore', got {line!r}"
                    )
                # ASCII digits only: int() would also take a sign, spaces,
                # underscores and the digits of other scripts.
                id_text = parts[0]
                digits = id_text.removeprefix("-")
                if not (digits.isascii() and digits.isdigit()):
                    raise ExternalScoreError(
                        f"{path}: line {line_no}: non-integer id {id_text!r}"
                    )
                if digits != id_text:
                    raise ExternalScoreError(
                        f"{path}: line {line_no}: negative id {id_text!r}"
                    )
                pair_id = int(id_text)
                try:
                    value = float(parts[1])
                except ValueError:
                    raise ExternalScoreError(
                        f"{path}: line {line_no}: non-numeric score {parts[1]!r}"
                    ) from None
                # Cross-entropies are >= 0; nan fails this test too.
                if not 0.0 <= value < math.inf:
                    raise ExternalScoreError(
                        f"{path}: line {line_no}: score {parts[1]!r} is not finite and >= 0"
                    )
                if pair_id in entries:
                    raise ExternalScoreError(
                        f"{path}: line {line_no}: duplicate id {pair_id}"
                    )
                entries[pair_id] = value
    except UnicodeDecodeError:
        raise invalid_utf8(path, ExternalScoreError) from None
    if not entries:
        raise ExternalScoreError(f"{path}: empty score table")
    missing = next((i for i in range(len(entries)) if i not in entries), None)
    if missing is not None:
        raise ExternalScoreError(
            f"{path}: ids are not dense from 0: id {missing} is missing"
        )
    return array("d", map(entries.__getitem__, range(len(entries))))
