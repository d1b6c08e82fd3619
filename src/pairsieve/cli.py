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
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields
from pathlib import Path

from .corpus import (
    DEFAULT_MAX_TOKENS,
    Provenance,
    SentencePair,
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
    LexicalTranslationModel,
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
from .model_file import invalid_utf8, read_magic
from .noise import (
    DEFAULT_NOISE_RATE,
    NoiseKind,
    NoiseSpec,
    evaluate_filter,
    inject_noise,
    labels_of,
    read_labels,
    uniform_mix,
    write_labels,
    write_report,
)
from .scoring import (
    LmScorer,
    Model1Scorer,
    Scorer,
    TableScorer,
    read_score_file,
    score_corpus_to_file,
)
from .selection import (
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
    return TableScorer(load_external_scores(path))


def _add_corpus_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--in", dest="tsv_in", metavar="TSV", help="2-column TSV corpus")
    parser.add_argument("--in-src", metavar="FILE", help="source side, one sentence per line")
    parser.add_argument("--in-tgt", metavar="FILE", help="target side, one sentence per line")
    parser.add_argument(
        "--lowercase", action="store_true", help="lowercase while tokenizing"
    )


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
    scorers = (
        _sniff_scorer(args.fwd_model, "fwd"),
        _sniff_scorer(args.rev_model, "rev"),
        _sniff_scorer(args.in_lm, "in"),
        _sniff_scorer(args.out_lm, "out"),
    )
    provenance = Provenance.TRUSTED if args.trusted else Provenance.CANDIDATE
    paths = _corpus_paths(args)
    session = _AtomicSession()
    n = score_corpus_to_file(
        session.path(args.out),
        *scorers,
        lowercase=args.lowercase,
        provenance=provenance,
        max_tokens=args.max_tokens,
        workers=args.workers,
        **paths,
    )
    session.commit()
    log.info("scored %d pairs with %d workers -> %s", n, args.workers, args.out)
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    records = read_score_file(args.scores)
    if args.top_n is not None:
        selection = select_top_n(records, args.top_n)
    else:
        selection = select_by_threshold(records, args.threshold)
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
        n,
        selection.n_scored,
        f"{selection.cutoff_score:.6g}" if selection.cutoff_score is not None else "-",
        args.out_prefix,
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
        try:
            mix[kinds[key]] = float(value)
        except ValueError:
            raise ConfigError(f"bad mix proportion {value!r} for {key!r}") from None
    return mix


def _cmd_corrupt(args: argparse.Namespace) -> int:
    stream = open_corpus(**_corpus_paths(args), lowercase=args.lowercase)
    mix = _parse_mix(args.mix) if args.mix else uniform_mix()
    spec = NoiseSpec(rate=args.rate, mix=mix, seed=args.seed)
    third = read_mono(args.third_lang, args.lowercase) if args.third_lang else None
    labeled = inject_noise(stream, spec, third)
    session = _AtomicSession()
    write_parallel(
        ((lp.pair.id, lp.pair.src.raw, lp.pair.tgt.raw) for lp in labeled),
        session.path(args.out_prefix + ".src"),
        session.path(args.out_prefix + ".tgt"),
    )
    write_labels(labels_of(labeled), session.path(args.labels))
    session.commit()
    n_bad = sum(1 for lp in labeled if not lp.clean)
    log.info(
        "corrupted %d of %d pairs -> %s.src/.tgt, labels -> %s",
        n_bad, len(labeled), args.out_prefix, args.labels,
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    records = list(read_score_file(args.scores))
    labels = read_labels(args.labels)
    report = evaluate_filter(records, labels)
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
    flag_counts: dict[str, int] = {}
    trusted = 0
    for record in read_score_file(args.scores):
        combined.append(record.combined)
        if record.trusted:
            trusted += 1
        for flag in record.flags:
            flag_counts[flag] = flag_counts.get(flag, 0) + 1
    if not combined:
        raise PairsieveError(f"{args.scores}: empty score file, nothing to summarize")
    n = len(combined)
    ordered = sorted(combined)

    out = sys.stdout
    out.write(f"records\t{n}\n")
    out.write(f"trusted\t{trusted}\n")
    out.write(f"flagged\t{sum(flag_counts.values())}\n")
    for flag in sorted(flag_counts):
        out.write(f"flag_{flag}\t{flag_counts[flag]}\n")
    out.write(f"min\t{ordered[0]:.6g}\n")
    for decile in range(1, 10):
        out.write(f"p{decile * 10}\t{_quantile(ordered, decile / 10):.6g}\n")
    out.write(f"max\t{ordered[-1]:.6g}\n")
    bins = [0] * 20
    for value in combined:
        bins[min(int(value * 20), 19)] += 1
    for i, count in enumerate(bins):
        out.write(f"hist\t{i / 20:.2f}\t{(i + 1) / 20:.2f}\t{count}\n")
    ranked = sorted(combined, reverse=True)
    for fraction in (0.10, 0.25, 0.50, 0.75):
        keep = max(1, round(fraction * n))
        out.write(f"retention\t{fraction:.2f}\t{ranked[keep - 1]:.6g}\n")
    return 0


# --------------------------------------------------------------------------
# pipeline
# --------------------------------------------------------------------------

_PIPELINE_DEFAULTS = {
    "seed": "0",
    "sample_size": "100000",
    "lm_order": str(DEFAULT_ORDER),
    "lm_add_k": str(DEFAULT_ADD_K),
    "lm_min_count": str(DEFAULT_MIN_COUNT),
    "tm_iterations": str(DEFAULT_ITERATIONS),
    "tm_null": "true",
    "lowercase": "false",
    "max_tokens": str(DEFAULT_MAX_TOKENS),
    "workers": "",  # resolved to available parallelism
    "log_level": "info",
}

_PIPELINE_KEYS = {
    "candidate_tsv", "candidate_src", "candidate_tgt",
    "trusted_tsv", "trusted_src", "trusted_tgt",
    "out_prefix", "top_n", "threshold", *_PIPELINE_DEFAULTS,
}


def parse_config_file(path: str | Path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                key, eq, value = stripped.partition("=")
                if not eq:
                    raise ConfigError(f"{path}: line {line_no}: expected 'key = value'")
                values[key.strip()] = value.strip()
    except UnicodeDecodeError:
        raise invalid_utf8(path, ConfigError) from None
    return values


@dataclass
class PipelineConfig:
    """Resolved description of one train -> score -> select -> weights run."""

    candidate_tsv: str | None
    candidate_src: str | None
    candidate_tgt: str | None
    trusted_tsv: str | None
    trusted_src: str | None
    trusted_tgt: str | None
    out_prefix: str
    top_n: int | None
    threshold: float | None
    seed: int
    sample_size: int
    lm_order: int
    lm_add_k: float
    lm_min_count: int
    tm_iterations: int
    tm_null: bool
    lowercase: bool
    max_tokens: int
    workers: int
    log_level: str

    @classmethod
    def from_mapping(cls, raw: dict[str, str]) -> "PipelineConfig":
        unknown = set(raw) - _PIPELINE_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged = {**_PIPELINE_DEFAULTS, **raw}

        def get_bool(key: str) -> bool:
            value = merged[key].lower()
            if value not in ("true", "false"):
                raise ConfigError(f"{key} must be true or false, got {value!r}")
            return value == "true"

        if "out_prefix" not in merged:
            raise ConfigError("config needs out_prefix")
        has_top_n = "top_n" in merged
        has_threshold = "threshold" in merged
        if has_top_n == has_threshold:
            raise ConfigError("config needs exactly one of top_n or threshold")
        candidate_tsv = merged.get("candidate_tsv")
        if candidate_tsv is None and not (
            merged.get("candidate_src") and merged.get("candidate_tgt")
        ):
            raise ConfigError(
                "config needs candidate_tsv or candidate_src + candidate_tgt"
            )
        trusted_tsv = merged.get("trusted_tsv")
        if trusted_tsv is None and not (
            merged.get("trusted_src") and merged.get("trusted_tgt")
        ):
            raise ConfigError("config needs trusted_tsv or trusted_src + trusted_tgt")
        try:
            workers = int(merged["workers"]) if merged["workers"] else _default_workers()
            config = cls(
                candidate_tsv=candidate_tsv,
                candidate_src=merged.get("candidate_src"),
                candidate_tgt=merged.get("candidate_tgt"),
                trusted_tsv=trusted_tsv,
                trusted_src=merged.get("trusted_src"),
                trusted_tgt=merged.get("trusted_tgt"),
                out_prefix=merged["out_prefix"],
                top_n=int(merged["top_n"]) if has_top_n else None,
                threshold=float(merged["threshold"]) if has_threshold else None,
                seed=int(merged["seed"]),
                sample_size=int(merged["sample_size"]),
                lm_order=int(merged["lm_order"]),
                lm_add_k=float(merged["lm_add_k"]),
                lm_min_count=int(merged["lm_min_count"]),
                tm_iterations=int(merged["tm_iterations"]),
                tm_null=get_bool("tm_null"),
                lowercase=get_bool("lowercase"),
                max_tokens=int(merged["max_tokens"]),
                workers=workers,
                log_level=merged["log_level"],
            )
        except ValueError as exc:
            raise ConfigError(f"bad config value: {exc}") from None
        for key, low in (("workers", 1), ("top_n", 0), ("sample_size", 0), ("max_tokens", 1),
                         ("lm_order", 1), ("tm_iterations", 1)):
            value = getattr(config, key)
            if value is not None and value < low:
                raise ConfigError(f"{key} must be >= {low}, got {value}")
        if not 0.0 < config.lm_add_k < math.inf:
            raise ConfigError(f"lm_add_k must be finite and > 0, got {config.lm_add_k}")
        if config.threshold is not None and not 0.0 <= config.threshold <= 1.0:
            raise ConfigError(f"threshold must be in [0, 1], got {config.threshold}")
        return config

    def to_text(self) -> str:
        lines = []
        for field in fields(self):
            value = getattr(self, field.name)
            if value is None:
                continue
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{field.name} = {value}")
        return "\n".join(lines) + "\n"

    def candidate_paths(self) -> dict:
        return {
            "path": self.candidate_tsv,
            "src_path": self.candidate_src,
            "tgt_path": self.candidate_tgt,
        }

    def trusted_kwargs(self) -> dict:
        return {
            "path": self.trusted_tsv,
            "src_path": self.trusted_src,
            "tgt_path": self.trusted_tgt,
            "lowercase": self.lowercase,
            "provenance": Provenance.TRUSTED,
        }


def _train_tm(
    trusted_sample: list[SentencePair], direction: Direction, config: PipelineConfig
) -> tuple[LexicalTranslationModel, EmTrace]:
    return train_model1(
        trusted_sample,
        iterations=config.tm_iterations,
        use_null=config.tm_null,
        direction=direction,
    )


def _log_trace(direction: Direction, trace: EmTrace) -> None:
    log.info(
        "pipeline: trained %s model, %d EM iterations, final log-likelihood %.3f",
        direction.value, len(trace), trace[-1],
    )


def run_pipeline(config: PipelineConfig) -> dict[str, str]:
    """Train both translation models and both LMs, then score, select, and
    weight the candidate corpus. Returns the map of written artifacts.

    With ``workers`` >= 2 the reverse translation model trains in a forked
    child while this process trains everything else, and the trusted sample
    is freed once the forward model and the in-domain LM are trained; the
    artifacts are the same bytes for any ``workers``.
    """
    prefix = config.out_prefix
    session = _AtomicSession()
    artifacts = {}

    # A missing candidate file fails here, not after the models are trained.
    for path in (config.candidate_tsv, config.candidate_src, config.candidate_tgt):
        if path is not None:
            open(path, "rb").close()
    log.info("pipeline: sampling %d trusted pairs", config.sample_size)
    trusted_sample = sample(
        open_corpus(**config.trusted_kwargs()), config.sample_size, config.seed
    )
    log.info("pipeline: training translation models (%d pairs)", len(trusted_sample))
    with forked_map(
        lambda pairs: _train_tm(pairs, Direction.REVERSE, config),
        [trusted_sample],
        config.workers,
        lambda _: "reverse translation-model training",
    ) as reverse_tm:
        fwd_tm, fwd_trace = _train_tm(trusted_sample, Direction.FORWARD, config)
        _log_trace(Direction.FORWARD, fwd_trace)
        log.info("pipeline: training in-domain language model")
        in_lm = train_ngram(
            [p.tgt for p in trusted_sample],
            order=config.lm_order,
            k=config.lm_add_k,
            vocab_min_count=config.lm_min_count,
        )
        # The child holds its own copy; with one worker the reverse call
        # still holds the sample until it runs.
        del trusted_sample
        log.info("pipeline: sampling candidate corpus for the out-of-domain model")
        candidate_targets = [
            p.tgt
            for p in sample(
                open_corpus(**config.candidate_paths(), lowercase=config.lowercase),
                config.sample_size,
                config.seed + 1,
            )
        ]
        out_lm = train_ngram(
            candidate_targets,
            order=config.lm_order,
            k=config.lm_add_k,
            vocab_min_count=config.lm_min_count,
        )
        # Freed before the reverse table arrives, which needs room of its own.
        del candidate_targets
        rev_tm, rev_trace = next(reverse_tm)
        _log_trace(Direction.REVERSE, rev_trace)

    for name, saver in (
        ("fwd.tm", lambda p: save_tm(fwd_tm, p)),
        ("rev.tm", lambda p: save_tm(rev_tm, p)),
        ("in.lm", lambda p: save_lm(in_lm, p)),
        ("out.lm", lambda p: save_lm(out_lm, p)),
    ):
        final = f"{prefix}.{name}"
        saver(session.path(final))
        artifacts[name] = final

    log.info("pipeline: scoring candidate corpus with %d workers", config.workers)
    scores_partial = session.path(f"{prefix}.scores.tsv")
    n_scored = score_corpus_to_file(
        scores_partial,
        Model1Scorer(fwd_tm),
        Model1Scorer(rev_tm),
        LmScorer(in_lm),
        LmScorer(out_lm),
        lowercase=config.lowercase,
        max_tokens=config.max_tokens,
        workers=config.workers,
        **config.candidate_paths(),
    )
    artifacts["scores.tsv"] = f"{prefix}.scores.tsv"

    log.info("pipeline: selecting and weighting %d scored pairs", n_scored)
    records = read_score_file(scores_partial)
    if config.top_n is not None:
        selection = select_top_n(records, config.top_n)
    else:
        selection = select_by_threshold(records, config.threshold)
    extract_selected(
        read_rows(**config.candidate_paths()),
        selection,
        src_path=session.path(f"{prefix}.selected.src"),
        tgt_path=session.path(f"{prefix}.selected.tgt"),
    )
    artifacts["selected.src"] = f"{prefix}.selected.src"
    artifacts["selected.tgt"] = f"{prefix}.selected.tgt"

    emit_weights(read_score_file(scores_partial), session.path(f"{prefix}.weights.txt"))
    artifacts["weights.txt"] = f"{prefix}.weights.txt"

    with open(session.path(f"{prefix}.resolved.cfg"), "w", encoding="utf-8") as fh:
        fh.write(config.to_text())
    artifacts["resolved.cfg"] = f"{prefix}.resolved.cfg"

    session.commit()
    log.info(
        "pipeline: done; selected %d pairs (cutoff %s)",
        selection.n_returned,
        f"{selection.cutoff_score:.6g}" if selection.cutoff_score is not None else "-",
    )
    return artifacts


def _cmd_pipeline(args: argparse.Namespace) -> int:
    config = PipelineConfig.from_mapping(parse_config_file(args.config))
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
        choices=("debug", "info", "warning", "error"),
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
    p.add_argument("--out", required=True)
    p.add_argument("--direction", choices=("fwd", "rev"), default="fwd")
    p.add_argument("--iters", type=int, default=DEFAULT_ITERATIONS)
    p.add_argument("--null", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=_cmd_train_tm)

    p = sub.add_parser("score", help="score every pair of a corpus")
    _add_corpus_input_flags(p)
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
    except (PairsieveError, OSError) as exc:
        log.error("%s", exc)
        return 1
    except Exception as exc:
        debug = log.isEnabledFor(logging.DEBUG)
        log.error("unexpected %s: %s", type(exc).__name__, exc, exc_info=debug)
        return 1


if __name__ == "__main__":
    sys.exit(main())
