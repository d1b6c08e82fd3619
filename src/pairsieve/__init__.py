"""pairsieve: filter noisy parallel corpora by dual conditional cross-entropy
and cross-entropy difference, then select, extract, and weight sentence pairs."""

from .corpus import (
    Provenance,
    Sentence,
    SentencePair,
    open_corpus,
    read_mono,
    read_parallel,
    read_tsv,
    sample,
    tokenize,
    write_parallel,
    write_tsv,
)
from .lexical_tm import (
    Direction,
    ExternalScoreTable,
    LexicalTranslationModel,
    cond_cross_entropy,
    load_external_scores,
    load_tm,
    save_tm,
    train_model1,
)
from .ngram_lm import (
    NgramLanguageModel,
    cross_entropy,
    load_lm,
    perplexity,
    save_lm,
    train_ngram,
)
from .noise import (
    FilterReport,
    LabeledPair,
    NoiseKind,
    NoiseSpec,
    PairLabel,
    evaluate_filter,
    inject_noise,
    labels_of,
    read_labels,
    write_labels,
)
from .scoring import (
    LmScorer,
    Model1Scorer,
    ScoreRecord,
    TableScorer,
    adequacy,
    combined_score,
    domain_score,
    dual_score,
    make_record,
    read_score_file,
    score_corpus,
    score_corpus_to_file,
    write_score_file,
)
from .selection import (
    SelectionResult,
    emit_weights,
    extract_selected,
    select_by_threshold,
    select_top_n,
)

__version__ = "0.1.0"
