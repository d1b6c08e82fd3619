"""Command-line front end: one binary, one subcommand per pipeline stage.

Exit codes: 0 on success, 1 on data/structural errors, 2 on usage errors.
Logs go to stderr; data goes to files (stats prints its report to stdout).
A failed run leaves no finished artifacts, only ``.partial`` files.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from array import array
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import ClassVar

from .corpus import (
    DEFAULT_MAX_TOKENS,
    corpus_offsets,
    open_corpus,
    read_mono,
    read_rows,
    sample,
    write_parallel,
)
from .errors import ConfigError, PairsieveError
from .forked import forked_map
from .lexical_tm import (
    DEFAULT_ITERATIONS,
    TM_MAGIC,
    Direction,
    EmTrace,
    load_external_scores,
    load_tm,
    save_tm,
    train_model1,
)
from .ngram_lm import (
    DEFAULT_ADD_K,
    DEFAULT_MIN_COUNT,
    DEFAULT_ORDER,
    LM_MAGIC,
    load_lm,
    save_lm,
    train_ngram,
)
from .model_file import numbered_lines, read_magic
from .noise import (
    DEFAULT_NOISE_RATE,
    NoiseKind,
    NoiseSpec,
    evaluate_filter,
    inject_noise,
    read_labels,
    uniform_mix,
    write_labels,
    write_report,
)
from .scoring import (
    LmScorer,
    Model1Scorer,
    Scorer,
    read_score_file,
    score_corpus_to_file,
)
from .selection import (
    SelectionResult,
    emit_weights,
    extract_selected,
    select_by_threshold,
    select_top_n,
)

log = logging.getLogger("pairsieve")


class _AtomicSession:
    """Route writes through .partial paths, renamed to final names on commit.

    Anything not committed stays behind as .partial, which is the documented
    trace of a failed run.
    """

    def __init__(self) -> None:
        self._pending: list[tuple[str, str]] = []

    def path(self, final: str | Path) -> str:
        partial = str(final) + ".partial"
        self._pending.append((partial, str(final)))
        return partial

    def commit(self) -> None:
        for partial, final in self._pending:
            os.replace(partial, final)
        self._pending.clear()


def _default_workers() -> int:
    """The CPUs this process may run on, which may be fewer than the machine has."""
    return len(os.sched_getaffinity(0))


def _int_at_least(low: int) -> Callable[[str], int]:
    """The argparse type of an integer flag whose values start at ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def _sniff_scorer(path: str, role: str) -> Scorer:
    """Load whatever model file sits at ``path`` and adapt it to the role.

    Role 'fwd'/'rev' accepts a matching-direction translation model or an
    external score table; 'in'/'out' accepts a language model or a table.
    """
    magic = read_magic(path)
    if magic == TM_MAGIC:
        if role not in ("fwd", "rev"):
            raise ConfigError(
                f"{path}: a translation model cannot serve as the {role!r} "
                "language-model scorer"
            )
        tm = load_tm(path)
        wanted = Direction.FORWARD if role == "fwd" else Direction.REVERSE
        if tm.direction is not wanted:
            raise ConfigError(
                f"{path}: model direction is {tm.direction.value!r} but the "
                f"{role!r} scorer needs {wanted.value!r}"
            )
        return Model1Scorer(tm)
    if magic == LM_MAGIC:
        if role not in ("in", "out"):
            raise ConfigError(
                f"{path}: a language model cannot serve as the {role!r} "
                "translation scorer"
            )
        return LmScorer(load_lm(path))
    return load_external_scores(path)


def _add_corpus_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--in", dest="tsv_in", metavar="TSV", help="2-column TSV corpus")
    parser.add_argument("--in-src", metavar="FILE", help="source side, one sentence per line")
    parser.add_argument("--in-tgt", metavar="FILE", help="target side, one sentence per line")


def _corpus_paths(args: argparse.Namespace) -> dict:
    if args.tsv_in is not None:
        if args.in_src or args.in_tgt:
            raise ConfigError("give --in or --in-src/--in-tgt, not both")
        return {"path": args.tsv_in}
    if not args.in_src or not args.in_tgt:
        raise ConfigError("corpus input needs --in or both --in-src and --in-tgt")
    return {"src_path": args.in_src, "tgt_path": args.in_tgt}


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_train_lm(args: argparse.Namespace) -> int:
    mono = read_mono(args.mono_in, lowercase=args.lowercase)
    lm = train_ngram(
        mono, order=args.order, k=args.add_k, vocab_min_count=args.min_count
    )
    session = _AtomicSession()
    save_lm(lm, session.path(args.out))
    session.commit()
    log.info(
        "trained order-%d model on %d sentences (vocab %d) -> %s",
        args.order, len(mono), lm.vocab_size, args.out,
    )
    return 0


def _cmd_train_tm(args: argparse.Namespace) -> int:
    stream = open_corpus(**_corpus_paths(args), lowercase=args.lowercase)
    direction = Direction(args.direction)
    model, trace = train_model1(
        stream, iterations=args.iters, use_null=args.null, direction=direction
    )
    session = _AtomicSession()
    save_tm(model, session.path(args.out))
    session.commit()
    log.info(
        "trained %s model, %d EM iterations, final log-likelihood %.3f -> %s",
        direction.value, len(trace), trace[-1], args.out,
    )
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    # The four files load side by side in the workers; their results are
    # read in this order, so the first role that fails is the one reported.
    roles = [
        (args.fwd_model, "fwd"),
        (args.rev_model, "rev"),
        (args.in_lm, "in"),
        (args.out_lm, "out"),
    ]
    with forked_map(
        lambda role: _sniff_scorer(*role), roles, args.workers, lambda role: f"loading {role[0]}"
    ) as loaded:
        scorers = tuple(loaded)
    paths = _corpus_paths(args)
    session = _AtomicSession()
    n = score_corpus_to_file(
        session.path(args.out),
        *scorers,
        lowercase=args.lowercase,
        max_tokens=args.max_tokens,
        trusted=args.trusted,
        workers=args.workers,
        **paths,
    )
    session.commit()
    log.info("scored %d pairs with %d workers -> %s", n, args.workers, args.out)
    return 0


def _select(scores: str, top_n: int | None, threshold: float | None) -> SelectionResult:
    """Select from the score file at ``scores`` by ``top_n`` if it is given,
    else by ``threshold``."""
    records = read_score_file(scores)
    if top_n is not None:
        return select_top_n(records, top_n)
    return select_by_threshold(records, threshold)


def _cutoff(selection: SelectionResult) -> str:
    return f"{selection.cutoff_score:.6g}" if selection.cutoff_score is not None else "-"


def _cmd_select(args: argparse.Namespace) -> int:
    selection = _select(args.scores, args.top_n, args.threshold)
    paths = _corpus_paths(args)
    session = _AtomicSession()
    if args.format == "tsv":
        outputs = {"tsv_path": session.path(args.out_prefix + ".tsv")}
    else:
        outputs = {
            "src_path": session.path(args.out_prefix + ".src"),
            "tgt_path": session.path(args.out_prefix + ".tgt"),
        }
    n = extract_selected(
        read_rows(**paths),
        selection,
        **outputs,
        scores_name=args.scores,
        corpus_name=" + ".join(paths.values()),
    )
    session.commit()
    log.info(
        "selected %d of %d pairs (cutoff %s) -> %s.*",
        n, selection.n_scored, _cutoff(selection), args.out_prefix,
    )
    return 0


def _cmd_weights(args: argparse.Namespace) -> int:
    session = _AtomicSession()
    n = emit_weights(read_score_file(args.scores), session.path(args.out))
    session.commit()
    log.info("wrote %d weights -> %s", n, args.out)
    return 0


def _parse_mix(text: str) -> dict[NoiseKind, float]:
    mix = {}
    kinds = {kind.value: kind for kind in NoiseKind}
    for item in text.split(","):
        key, _, value = item.partition("=")
        if key not in kinds:
            raise ConfigError(
                f"unknown corruption kind {key!r}; choices: {sorted(kinds)}"
            )
        if kinds[key] in mix:
            raise ConfigError(f"corruption kind {key!r} is given twice in --mix")
        try:
            mix[kinds[key]] = float(value)
        except ValueError:
            raise ConfigError(f"bad mix proportion {value!r} for {key!r}") from None
    return mix


def _cmd_corrupt(args: argparse.Namespace) -> int:
    stream = open_corpus(**_corpus_paths(args))
    mix = _parse_mix(args.mix) if args.mix else uniform_mix()
    spec = NoiseSpec(rate=args.rate, mix=mix, seed=args.seed)
    third = read_mono(args.third_lang) if args.third_lang else None
    pairs, labels = inject_noise(stream, spec, third)
    session = _AtomicSession()
    write_parallel(
        ((pair.id, pair.src.raw, pair.tgt.raw) for pair in pairs),
        session.path(args.out_prefix + ".src"),
        session.path(args.out_prefix + ".tgt"),
    )
    write_labels(labels, session.path(args.labels))
    session.commit()
    log.info(
        "corrupted %d of %d pairs -> %s.src/.tgt, labels -> %s",
        len(labels) - labels.count(None), len(labels), args.out_prefix, args.labels,
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    combined = array("d", (record.combined for record in read_score_file(args.scores)))
    labels = read_labels(args.labels)
    report = evaluate_filter(combined, labels, scores_name=args.scores, labels_name=args.labels)
    session = _AtomicSession()
    write_report(report, session.path(args.report))
    session.commit()
    log.info(
        "AUC %.4f, precision@clean %.4f over %d pairs -> %s",
        report.auc, report.precision_at_clean, report.n, args.report,
    )
    return 0


def _quantile(sorted_values: list[float], q: float) -> float:
    idx = round(q * (len(sorted_values) - 1))
    return sorted_values[idx]


def _cmd_stats(args: argparse.Namespace) -> int:
    combined = []
    flag_counts: Counter[str] = Counter()
    for record in read_score_file(args.scores):
        combined.append(record.combined)
        if record.flags != "-":
            flag_counts.update(record.flags.split(","))
    trusted = flag_counts.pop("trusted", 0)
    if not combined:
        raise PairsieveError(f"{args.scores}: empty score file, nothing to summarize")
    n = len(combined)
    combined.sort()

    out = sys.stdout
    out.write(f"records\t{n}\n")
    out.write(f"trusted\t{trusted}\n")
    out.write(f"flagged\t{sum(flag_counts.values())}\n")
    for flag in sorted(flag_counts):
        out.write(f"flag_{flag}\t{flag_counts[flag]}\n")
    out.write(f"min\t{combined[0]:.6g}\n")
    for decile in range(1, 10):
        out.write(f"p{decile * 10}\t{_quantile(combined, decile / 10):.6g}\n")
    out.write(f"max\t{combined[-1]:.6g}\n")
    bins = [0] * 20
    for value in combined:
        bins[min(int(value * 20), 19)] += 1
    for i, count in enumerate(bins):
        out.write(f"hist\t{i / 20:.2f}\t{(i + 1) / 20:.2f}\t{count}\n")
    for fraction in (0.10, 0.25, 0.50, 0.75):
        keep = max(1, round(fraction * n))
        out.write(f"retention\t{fraction:.2f}\t{combined[n - keep]:.6g}\n")
    out.flush()  # a closed pipe fails here, not at exit
    return 0


# --------------------------------------------------------------------------
# pipeline
# --------------------------------------------------------------------------


def parse_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    line_of_key: dict[str, int] = {}
    with numbered_lines(path, ConfigError) as lines:
        for line_no, line in lines:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, eq, value = stripped.partition("=")
            if not eq:
                raise ConfigError(f"{path}: line {line_no}: expected 'key = value'")
            key = key.strip()
            if key in line_of_key:
                raise ConfigError(
                    f"{path}: line {line_no}: key {key!r} repeats line {line_of_key[key]}"
                )
            line_of_key[key] = line_no
            values[key] = value.strip()
    return values


@dataclass(kw_only=True)
class PipelineConfig:
    """Resolved description of one train -> score -> select -> weights run.

    The fields are the config keys, each with its default; their order is
    the line order of ``resolved.cfg``.
    """

    LOG_LEVELS: ClassVar[tuple[str, ...]] = ("debug", "info", "warning", "error")

    candidate_tsv: str | None = None
    candidate_src: str | None = None
    candidate_tgt: str | None = None
    trusted_tsv: str | None = None
    trusted_src: str | None = None
    trusted_tgt: str | None = None
    out_prefix: str
    top_n: int | None = None
    threshold: float | None = None
    seed: int = 0
    sample_size: int = 100000
    lm_order: int = DEFAULT_ORDER
    lm_add_k: float = DEFAULT_ADD_K
    lm_min_count: int = DEFAULT_MIN_COUNT
    tm_iterations: int = DEFAULT_ITERATIONS
    tm_null: bool = True
    lowercase: bool = False
    max_tokens: int = DEFAULT_MAX_TOKENS
    workers: int = field(default_factory=_default_workers)
    log_level: str = "info"

    @classmethod
    def from_mapping(cls, raw: dict[str, str]) -> "PipelineConfig":
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "out_prefix" not in raw:
            raise ConfigError("config needs out_prefix")
        if ("top_n" in raw) == ("threshold" in raw):
            raise ConfigError("config needs exactly one of top_n or threshold")
        for side in ("candidate", "trusted"):
            given = [part for part in ("tsv", "src", "tgt") if raw.get(f"{side}_{part}")]
            if given not in (["tsv"], ["src", "tgt"]):
                raise ConfigError(
                    f"config needs exactly one of {side}_tsv or {side}_src + {side}_tgt"
                )
        parsers = {
            "int": int,
            "float": float,
            "str": str,
            "bool": lambda text: {"true": True, "false": False}[text.lower()],
        }
        values = {}
        for f in fields(cls):
            text = raw.get(f.name)
            if text is None or (f.name == "workers" and not text):
                continue  # the field's default; an empty workers means the CPU count
            try:  # f.type is the annotation's text, such as 'int | None'
                values[f.name] = parsers[f.type.removesuffix(" | None")](text)
            except (KeyError, ValueError):
                raise ConfigError(f"bad config value for {f.name}: {text!r}") from None
        config = cls(**values)
        for key, low in (("workers", 1), ("top_n", 0), ("sample_size", 0), ("max_tokens", 1),
                         ("lm_order", 1), ("tm_iterations", 1)):
            value = getattr(config, key)
            if value is not None and value < low:
                raise ConfigError(f"{key} must be >= {low}, got {value}")
        if not 0.0 < config.lm_add_k < math.inf:
            raise ConfigError(f"lm_add_k must be finite and > 0, got {config.lm_add_k}")
        if config.threshold is not None and not 0.0 <= config.threshold <= 1.0:
            raise ConfigError(f"threshold must be in [0, 1], got {config.threshold}")
        if config.log_level.lower() not in cls.LOG_LEVELS:
            raise ConfigError(
                f"log_level must be one of {', '.join(cls.LOG_LEVELS)}, got {config.log_level!r}"
            )
        return config

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    def paths(self, side: str) -> dict[str, str]:
        """The corpus reader's path arguments for side 'candidate' or 'trusted'."""
        tsv = getattr(self, f"{side}_tsv")
        if tsv is not None:
            return {"path": tsv}
        return {"src_path": getattr(self, f"{side}_src"), "tgt_path": getattr(self, f"{side}_tgt")}


def _log_trace(direction: Direction, trace: EmTrace) -> None:
    log.info(
        "pipeline: trained %s model, %d EM iterations, final log-likelihood %.3f",
        direction.value, len(trace), trace[-1],
    )


def run_pipeline(config: PipelineConfig) -> None:
    """Train both translation models and both LMs, then score, select, and
    weight the candidate corpus.

    With ``workers`` >= 2 the reverse translation model trains in a forked
    child while this process trains everything else, and the trusted sample
    is freed once the forward model and the in-domain LM are trained; the
    artifacts are the same bytes for any ``workers``.
    """
    prefix = config.out_prefix
    candidate = config.paths("candidate")
    session = _AtomicSession()

    def train_tm(pairs, direction):
        return train_model1(
            pairs, iterations=config.tm_iterations, use_null=config.tm_null, direction=direction
        )

    def train_lm(sentences):
        return train_ngram(
            sentences,
            order=config.lm_order,
            k=config.lm_add_k,
            vocab_min_count=config.lm_min_count,
        )

    # A missing candidate file, or twin files of different lengths, fail
    # here, not after the models are trained: one counting scan, which keeps
    # no offset past pair 0's.
    corpus_offsets(**candidate, every=sys.maxsize)
    log.info("pipeline: sampling %d trusted pairs", config.sample_size)
    trusted_sample = sample(
        open_corpus(**config.paths("trusted"), lowercase=config.lowercase),
        config.sample_size,
        config.seed,
    )
    log.info("pipeline: training translation models (%d pairs)", len(trusted_sample))
    with forked_map(
        lambda pairs: train_tm(pairs, Direction.REVERSE),
        [trusted_sample],
        config.workers,
        lambda _: "reverse translation-model training",
    ) as reverse_tm:
        fwd_tm, fwd_trace = train_tm(trusted_sample, Direction.FORWARD)
        _log_trace(Direction.FORWARD, fwd_trace)
        log.info("pipeline: training in-domain language model")
        in_lm = train_lm([p.tgt for p in trusted_sample])
        # The child holds its own copy; with one worker the reverse call
        # still holds the sample until it runs.
        del trusted_sample
        log.info("pipeline: sampling candidate corpus for the out-of-domain model")
        candidate_targets = [
            p.tgt
            for p in sample(
                open_corpus(**candidate, lowercase=config.lowercase),
                config.sample_size,
                config.seed + 1,
            )
        ]
        out_lm = train_lm(candidate_targets)
        # Freed before the reverse table arrives, which needs room of its own.
        del candidate_targets
        rev_tm, rev_trace = next(reverse_tm)
        _log_trace(Direction.REVERSE, rev_trace)

    save_tm(fwd_tm, session.path(f"{prefix}.fwd.tm"))
    save_tm(rev_tm, session.path(f"{prefix}.rev.tm"))
    save_lm(in_lm, session.path(f"{prefix}.in.lm"))
    save_lm(out_lm, session.path(f"{prefix}.out.lm"))

    log.info("pipeline: scoring candidate corpus with %d workers", config.workers)
    scores = session.path(f"{prefix}.scores.tsv")
    n_scored = score_corpus_to_file(
        scores,
        Model1Scorer(fwd_tm),
        Model1Scorer(rev_tm),
        LmScorer(in_lm),
        LmScorer(out_lm),
        lowercase=config.lowercase,
        max_tokens=config.max_tokens,
        workers=config.workers,
        **candidate,
    )

    log.info("pipeline: selecting and weighting %d scored pairs", n_scored)
    selection = _select(scores, config.top_n, config.threshold)
    extract_selected(
        read_rows(**candidate),
        selection,
        src_path=session.path(f"{prefix}.selected.src"),
        tgt_path=session.path(f"{prefix}.selected.tgt"),
    )
    emit_weights(read_score_file(scores), session.path(f"{prefix}.weights.txt"))
    with open(session.path(f"{prefix}.resolved.cfg"), "w", encoding="utf-8") as fh:
        fh.write(config.to_text())

    session.commit()
    log.info(
        "pipeline: done; selected %d pairs (cutoff %s)",
        len(selection.selected_ids), _cutoff(selection),
    )


def _cmd_pipeline(args: argparse.Namespace) -> int:
    # The config's log_level, when given, overrides --log-level.
    raw = {"log_level": args.log_level, **parse_config_file(args.config)}
    config = PipelineConfig.from_mapping(raw)
    logging.getLogger().setLevel(config.log_level.upper())
    run_pipeline(config)
    return 0


# --------------------------------------------------------------------------
# parser wiring
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairsieve",
        description="Filter noisy parallel corpora by translation-model "
        "agreement and language-model domain fit.",
    )
    parser.add_argument(
        "--log-level",
        default="info",
        choices=PipelineConfig.LOG_LEVELS,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-lm", help="train an n-gram language model")
    p.add_argument("--in", dest="mono_in", required=True, metavar="FILE")
    p.add_argument("--out", required=True)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--add-k", type=float, default=DEFAULT_ADD_K)
    p.add_argument("--min-count", type=int, default=DEFAULT_MIN_COUNT)
    p.add_argument("--lowercase", action="store_true")
    p.set_defaults(func=_cmd_train_lm)

    p = sub.add_parser("train-tm", help="train a lexical translation model by EM")
    _add_corpus_input_flags(p)
    p.add_argument("--lowercase", action="store_true", help="lowercase while tokenizing")
    p.add_argument("--out", required=True)
    p.add_argument("--direction", choices=("fwd", "rev"), default="fwd")
    p.add_argument("--iters", type=int, default=DEFAULT_ITERATIONS)
    p.add_argument("--null", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=_cmd_train_tm)

    p = sub.add_parser("score", help="score every pair of a corpus")
    _add_corpus_input_flags(p)
    p.add_argument("--lowercase", action="store_true", help="lowercase while tokenizing")
    p.add_argument("--fwd-model", required=True)
    p.add_argument("--rev-model", required=True)
    p.add_argument("--in-lm", required=True)
    p.add_argument("--out-lm", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trusted", action="store_true",
                   help="mark every pair trusted: adequacy forced to 1")
    p.add_argument("--workers", type=_int_at_least(1), default=_default_workers())
    p.add_argument("--max-tokens", type=_int_at_least(1), default=DEFAULT_MAX_TOKENS)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("select", help="extract the best-scored pairs")
    _add_corpus_input_flags(p)
    p.add_argument("--scores", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--top-n", type=_int_at_least(0))
    group.add_argument("--threshold", type=float)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--format", choices=("twin", "tsv"), default="twin")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("weights", help="emit one training weight per pair")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("corrupt", help="corrupt clean bitext with labeled noise")
    _add_corpus_input_flags(p)
    p.add_argument("--rate", type=float, default=DEFAULT_NOISE_RATE)
    p.add_argument("--mix", help="kind=prop,... (default: uniform)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--third-lang", help="sentences for wrong-language corruption")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--labels", required=True)
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("evaluate", help="compare scores against noise labels")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("stats", help="summarize a score file")
    p.add_argument("--scores", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("pipeline", help="train, score, select, and weight from a config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=args.log_level.upper(),
        format="%(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader of stdout has gone (``stats | head``): say nothing, and
        # point stdout at devnull so its flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (PairsieveError, OSError) as exc:
        log.error("%s", exc)
        return 1
    except Exception as exc:
        debug = log.isEnabledFor(logging.DEBUG)
        log.error("unexpected %s: %s", type(exc).__name__, exc, exc_info=debug)
        return 1


if __name__ == "__main__":
    sys.exit(main())
