import math
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from pairsieve.errors import ConfigError, StructuralError
from pairsieve.noise import (
    FilterReport,
    NoiseKind,
    NoiseSpec,
    evaluate_filter,
    inject_noise,
    labels_of,
    read_labels,
    uniform_mix,
    write_labels,
)
from pairsieve.selection import select_top_n
from pairsieve.synthetic import make_cipher_corpus, make_third_language

from score_records import rec

THIRD = make_third_language(50, seed=91)


def corpus(n, seed=3):
    return make_cipher_corpus(n, seed=seed)


def test_corruption_count_is_exact():
    labeled = inject_noise(corpus(10), NoiseSpec(rate=0.3, seed=1), THIRD)
    assert sum(1 for lp in labeled if not lp.clean) == 3


def test_zero_rate_leaves_the_corpus_untouched():
    clean = corpus(12)
    labeled = inject_noise(clean, NoiseSpec(rate=0.0, seed=1), THIRD)
    assert all(lp.clean for lp in labeled)
    assert [lp.pair.tgt.raw for lp in labeled] == [p.tgt.raw for p in clean]


def test_same_spec_and_seed_reproduces_the_stream():
    spec = NoiseSpec(rate=0.4, seed=77)
    a = inject_noise(corpus(40), spec, THIRD)
    b = inject_noise(corpus(40), spec, THIRD)
    assert [(lp.pair.id, lp.clean, lp.kind, lp.pair.tgt.raw) for lp in a] == [
        (lp.pair.id, lp.clean, lp.kind, lp.pair.tgt.raw) for lp in b
    ]


def test_assignment_is_independent_of_iteration_order():
    spec = NoiseSpec(rate=0.4, seed=77)
    a = inject_noise(corpus(40), spec, THIRD)
    b = inject_noise(reversed(corpus(40)), spec, THIRD)
    assert [(lp.pair.id, lp.clean, lp.kind) for lp in a] == [
        (lp.pair.id, lp.clean, lp.kind) for lp in b
    ]


def test_misaligned_pairs_never_keep_their_partner():
    spec = NoiseSpec(
        rate=0.5, mix={NoiseKind.MISALIGN: 1.0}, seed=5
    )
    clean = corpus(30)
    original_tgt = {p.id: p.tgt.raw for p in clean}
    labeled = inject_noise(clean, spec)
    misaligned = [lp for lp in labeled if lp.kind is NoiseKind.MISALIGN]
    assert misaligned
    for lp in misaligned:
        assert lp.pair.tgt.raw in original_tgt.values()
        donors = [
            pid for pid, raw in original_tgt.items() if raw == lp.pair.tgt.raw
        ]
        assert lp.pair.id not in donors


def test_single_misaligned_pair_still_changes_partner():
    mix = {NoiseKind.MISALIGN: 1.0}
    clean = corpus(10)
    labeled = inject_noise(clean, NoiseSpec(rate=0.1, mix=mix, seed=2))
    (bad,) = [lp for lp in labeled if not lp.clean]
    assert bad.pair.tgt.raw != {p.id: p for p in clean}[bad.pair.id].tgt.raw


def test_copy_source_copies_tokens():
    mix = {NoiseKind.COPY_SOURCE: 1.0}
    labeled = inject_noise(corpus(10), NoiseSpec(rate=0.2, mix=mix, seed=3))
    for lp in labeled:
        if not lp.clean:
            assert lp.pair.tgt.tokens == lp.pair.src.tokens


def test_shuffle_permutes_target_tokens():
    mix = {NoiseKind.SHUFFLE: 1.0}
    clean = corpus(20)
    original = {p.id: p.tgt.tokens for p in clean}
    labeled = inject_noise(clean, NoiseSpec(rate=0.3, mix=mix, seed=4))
    for lp in labeled:
        if not lp.clean:
            assert sorted(lp.pair.tgt.tokens) == sorted(original[lp.pair.id])
            if len(set(original[lp.pair.id])) > 1:
                assert lp.pair.tgt.tokens != original[lp.pair.id]


def test_truncate_keeps_a_short_prefix():
    mix = {NoiseKind.TRUNCATE: 1.0}
    clean = corpus(20)
    original = {p.id: p.tgt.tokens for p in clean}
    labeled = inject_noise(clean, NoiseSpec(rate=0.3, mix=mix, seed=5))
    for lp in labeled:
        if not lp.clean:
            before = original[lp.pair.id]
            after = lp.pair.tgt.tokens
            assert after == before[: len(after)]
            assert 1 <= len(after) <= max(1, len(before) // 2)


def test_wrong_language_needs_a_third_language_file():
    mix = {NoiseKind.WRONG_LANGUAGE: 1.0}
    with pytest.raises(ConfigError, match="third-language"):
        inject_noise(corpus(10), NoiseSpec(rate=0.2, mix=mix, seed=6), None)


def test_wrong_language_substitutes_foreign_text():
    mix = {NoiseKind.WRONG_LANGUAGE: 1.0}
    labeled = inject_noise(corpus(10), NoiseSpec(rate=0.2, mix=mix, seed=6), THIRD)
    third_raws = {s.raw for s in THIRD}
    for lp in labeled:
        if not lp.clean:
            assert lp.pair.tgt.raw in third_raws


def test_mix_must_sum_to_one():
    with pytest.raises(ConfigError, match="sum to 1"):
        NoiseSpec(rate=0.2, mix={NoiseKind.SHUFFLE: 0.7})


def test_tiny_corpus_is_rejected():
    with pytest.raises(ConfigError, match="at least 10"):
        inject_noise(corpus(5), NoiseSpec(rate=0.2, seed=1), THIRD)


def test_labels_round_trip(tmp_path):
    labeled = inject_noise(corpus(15), NoiseSpec(rate=0.4, seed=9), THIRD)
    labels = labels_of(labeled)
    path = tmp_path / "labels.tsv"
    assert write_labels(labels, path) == 15
    assert read_labels(path) == labels


def test_precision_at_k_hand_count():
    labels = [None, NoiseKind.SHUFFLE, None]
    report = evaluate_filter([0.9, 0.8, 0.1], labels)
    assert report.precision_at_clean == pytest.approx(0.5)
    assert report.recall_at_clean == pytest.approx(0.5)


def test_auc_is_one_for_perfect_separation():
    scores = [1.0 - 0.1 * i for i in range(6)]
    labels = [None if i < 3 else NoiseKind.SHUFFLE for i in range(6)]
    assert evaluate_filter(scores, labels).auc == pytest.approx(1.0)


def test_auc_is_half_for_constant_scores():
    labels = [None if i % 2 == 0 else NoiseKind.TRUNCATE for i in range(10)]
    assert evaluate_filter([0.5] * 10, labels).auc == pytest.approx(0.5)


@settings(max_examples=50)
@given(
    scores=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=4,
        max_size=40,
    ),
    flip=st.integers(min_value=1, max_value=3),
)
def test_auc_invariant_under_increasing_transform(scores, flip):
    clean = [i % flip == 0 for i in range(len(scores))]
    if all(clean) or not any(clean):
        clean[0] = not clean[0]
    labels = [None if c else NoiseKind.SHUFFLE for c in clean]
    base = evaluate_filter(scores, labels).auc
    transformed = evaluate_filter([math.expm1(2 * s) for s in scores], labels).auc
    assert 0.0 <= base <= 1.0
    assert transformed == pytest.approx(base, abs=1e-12)


def tuple_auc(scored):
    """AUC of (score, clean) items from a sort of the items themselves, each
    tied run given its mean rank: the reference for evaluate_filter's AUC,
    which comes from one index sort shared with precision@clean."""
    n_clean = sum(1 for _, clean in scored if clean)
    n_corrupted = len(scored) - n_clean
    by_score = sorted(scored, key=lambda sc: sc[0])
    clean_rank_sum = 0.0
    i = 0
    while i < len(by_score):
        j = i
        while j < len(by_score) and by_score[j][0] == by_score[i][0]:
            j += 1
        avg_rank = (i + 1 + j) / 2  # ranks are 1-based: mean of i+1 .. j
        clean_rank_sum += avg_rank * sum(1 for s, c in by_score[i:j] if c)
        i = j
    u = clean_rank_sum - n_clean * (n_clean + 1) / 2
    return u / (n_clean * n_corrupted)


@settings(max_examples=200)
@given(
    scored=st.lists(
        st.tuples(st.sampled_from([0.0, 0.125, 0.5, 0.75, 1.0]), st.booleans()),
        min_size=2,
        max_size=60,
    )
)
def test_one_sort_ranks_ties_as_top_n_selection_and_the_tuple_auc_do(scored):
    scored[0] = (scored[0][0], True)
    scored[-1] = (scored[-1][0], False)
    scores = [score for score, _ in scored]
    labels = [None if clean else NoiseKind.TRUNCATE for _, clean in scored]
    report = evaluate_filter(scores, labels)
    top = select_top_n([rec(i, s) for i, s in enumerate(scores)], report.n_clean).selected_ids
    assert report.precision_at_clean == sum(labels[i] is None for i in top) / report.n_clean
    assert report.auc == tuple_auc(scored)


def test_evaluation_holds_little_beside_its_score_column():
    n = 200_000
    scores = array("d", (round((i * 7919 % 1000) / 1000, 2) for i in range(n)))
    labels = [None if i % 5 else NoiseKind.MISALIGN for i in range(n)]
    tracemalloc.start()
    try:
        evaluate_filter(scores, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 120 * n


@pytest.mark.parametrize(
    "n_records, n_labels", [(2, 3), (3, 2)], ids=["labels-more", "scores-more"]
)
def test_evaluation_names_both_files_when_the_counts_differ(n_records, n_labels):
    labels = [None if i % 2 == 0 else NoiseKind.SHUFFLE for i in range(n_labels)]
    with pytest.raises(StructuralError) as info:
        evaluate_filter([0.5] * n_records, labels, scores_name="s.tsv", labels_name="l.tsv")
    assert str(info.value) == (
        f"s.tsv holds {n_records} scored pairs but l.tsv holds {n_labels} labels; "
        "the labels are for another corpus"
    )


@pytest.mark.parametrize(
    "labels, counts",
    [([None, None], "2 clean and 0"), ([NoiseKind.SHUFFLE] * 2, "0 clean and 2")],
    ids=["all-clean", "all-corrupted"],
)
def test_evaluation_needs_a_clean_and_a_corrupted_pair(labels, counts):
    with pytest.raises(StructuralError) as info:
        evaluate_filter([0.5, 0.25], labels, labels_name="l.tsv")
    assert str(info.value) == (
        f"l.tsv: {counts} corrupted pairs; evaluate needs at least one of each"
    )


def test_corruption_needs_ids_0_to_n_minus_1():
    pairs = corpus(10)
    pairs[3].id = 10
    with pytest.raises(StructuralError) as info:
        inject_noise(pairs, NoiseSpec(rate=0.2, seed=1), THIRD)
    assert str(info.value) == "pair ids must be 0 to 9, each once"


def test_report_has_per_kind_means():
    labels = [None, NoiseKind.COPY_SOURCE, NoiseKind.SHUFFLE]
    report = evaluate_filter([0.9, 0.2, 0.4], labels)
    assert report.mean_combined_clean == pytest.approx(0.9)
    assert report.mean_combined_by_kind == {
        "copy_source": pytest.approx(0.2),
        "shuffle": pytest.approx(0.4),
    }


def test_uniform_mix_covers_all_kinds():
    mix = uniform_mix()
    assert set(mix) == set(NoiseKind)
    assert sum(mix.values()) == pytest.approx(1.0)
