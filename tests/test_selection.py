import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from pairsieve.errors import StructuralError
from pairsieve.selection import (
    DEFAULT_MAX_IN_MEMORY,
    emit_weights,
    extract_selected,
    select_by_threshold,
    select_top_n,
)

from score_records import rec


def test_top_n_hand_sort():
    result = select_top_n([rec(0, 0.9), rec(1, 0.1), rec(2, 0.5)], 2)
    assert result.selected_ids == [0, 2]
    assert result.cutoff_score == 0.5
    assert len(result.selected_ids) == 2


def test_top_n_ties_break_by_ascending_id():
    result = select_top_n([rec(0, 0.5), rec(1, 0.5), rec(2, 0.5)], 2)
    assert result.selected_ids == [0, 1]


def test_top_n_larger_than_corpus():
    result = select_top_n([rec(i, 0.1 * i) for i in range(3)], 10)
    assert len(result.selected_ids) == 3
    assert result.selected_ids == [0, 1, 2]


def test_threshold_selection():
    records = [rec(0, 0.9), rec(1, 0.1), rec(2, 0.5)]
    assert select_by_threshold(records, 0.5).selected_ids == [0, 2]
    assert select_by_threshold(records, 0.0).selected_ids == [0, 1, 2]
    assert select_by_threshold([rec(0, 1.0), rec(1, 0.99)], 1.0).selected_ids == [0]
    sparse = [rec(0, 0.9), rec(2, 0.2), rec(3, 0.4), rec(5, 0.7), rec(9, 0.4)]
    result = select_by_threshold(sparse, 0.3)
    assert (result.selected_ids, result.cutoff_score, result.n_scored) == ([0, 3, 5, 9], 0.4, 5)
    nothing = select_by_threshold(sparse, 0.95)
    assert (nothing.selected_ids, nothing.cutoff_score, nothing.n_scored) == ([], None, 5)


@settings(max_examples=60)
@given(
    scores=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False), max_size=60
    ),
    n=st.integers(min_value=0, max_value=70),
)
def test_partition_property(scores, n):
    records = [rec(i, s) for i, s in enumerate(scores)]
    result = select_top_n(records, n)
    selected = set(result.selected_ids)
    rejected = [r for r in records if r.pair_id not in selected]
    assert len(selected) == min(n, len(records))
    assert sorted(result.selected_ids) == result.selected_ids
    if selected and rejected:
        assert min(scores[i] for i in selected) >= max(r.combined for r in rejected)


def full_sort_reference(records, n):
    """The n best ids by a full sort: combined descending, lower id first."""
    ranked = sorted(records, key=lambda r: (-r.combined, r.pair_id))[:n]
    return sorted(r.pair_id for r in ranked), (ranked[-1].combined if ranked else None)


def tied_records(count, seed):
    # Scores on a grid of 50 values, so every score is tied many times over.
    rng = random.Random(seed)
    return [rec(i, rng.randrange(50) / 49) for i in range(count)]


def test_external_sort_path_matches_in_memory_path():
    records = tied_records(5000, seed=4)
    expected = full_sort_reference(records, 700)
    for max_in_memory in (256, 5000):  # steps of n/4 = 175 records, then of n
        result = select_top_n(iter(records), 700, max_in_memory=max_in_memory)
        assert (result.selected_ids, result.cutoff_score) == expected


@pytest.mark.parametrize(
    "n, max_in_memory",
    [
        (30, 60),  # 2n is the budget: a trim after every 30 records
        (7, 1000),  # a trim after every 7 records
        (31, 60),  # 2n exceeds the budget: a trim after every 29 records
        (1000, 1000),  # n is the budget: steps of n/4 = 250 records
        (0, 1000),  # n = 0 still reads every record
        (0, 1),
        (1000, 2000),  # n is the record count: one sort of everything
        (1500, 64),  # n above the record count and the budget: steps of n/4 = 375
    ],
)
def test_top_n_paths_match_a_full_sort(n, max_in_memory):
    records = tied_records(1000, seed=n + max_in_memory)
    result = select_top_n(iter(records), n, max_in_memory=max_in_memory)
    assert (result.selected_ids, result.cutoff_score) == full_sort_reference(records, n)
    assert len(result.selected_ids) == min(n, len(records))
    assert result.n_scored == len(records)


def test_top_n_needs_room_for_one_key():
    with pytest.raises(ValueError, match="max_in_memory"):
        select_top_n([rec(0, 0.5)], 1, max_in_memory=0)


def lazy_records(count, seed):
    rng = random.Random(seed)
    return (rec(i, rng.random()) for i in range(count))


@pytest.mark.parametrize(
    "max_in_memory, bound",
    [
        (DEFAULT_MAX_IN_MEMORY, 2.5),  # steps of n: a 2n-key buffer
        (12_500, 1.75),  # a budget of 1.25n: steps of n/4
    ],
)
def test_top_n_memory_stays_near_the_kept_keys(max_in_memory, bound):
    n = 10_000
    tracemalloc.start()
    try:
        kept = [(-r.combined, r.pair_id) for r in lazy_records(n, seed=5)]
        kept_bytes = tracemalloc.get_traced_memory()[0]
        del kept
        tracemalloc.reset_peak()
        result = select_top_n(lazy_records(10 * n, seed=6), n, max_in_memory=max_in_memory)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.selected_ids) == n and result.n_scored == 10 * n
    assert peak < bound * kept_bytes


def test_threshold_selection_holds_little_beyond_the_ids_it_returns():
    tracemalloc.start()
    try:
        result = select_by_threshold(lazy_records(100_000, seed=7), 0.5)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.selected_ids) > 40_000
    assert peak < 1.25 * kept


@settings(max_examples=40)
@given(
    scores=st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=50,
    ),
    n=st.integers(min_value=0, max_value=25),
)
def test_selection_invariant_under_increasing_transform(scores, n):
    records = [rec(i, s) for i, s in enumerate(scores)]
    transformed = [rec(i, s / (1.0 + s)) for i, s in enumerate(scores)]
    assert (
        select_top_n(records, n).selected_ids
        == select_top_n(transformed, n).selected_ids
    )


def test_selection_is_idempotent():
    rng = random.Random(8)
    records = [rec(i, rng.random()) for i in range(100)]
    first = select_top_n(records, 40)
    kept = [r for r in records if r.pair_id in set(first.selected_ids)]
    second = select_top_n(kept, 40)
    assert second.selected_ids == first.selected_ids


def test_emit_weights_formats_integers_bare(tmp_path):
    path = tmp_path / "w.txt"
    emit_weights([rec(0, 1.0), rec(1, 0.25)], path)
    assert path.read_text(encoding="utf-8") == "1\n0.25\n"


def test_weight_alignment_check(tmp_path):
    path = tmp_path / "w.txt"
    assert emit_weights([rec(i, 0.5) for i in range(4)], path) == 4
    weights = [float(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert weights == [0.5] * 4


def test_read_weights_round_trip(tmp_path):
    path = tmp_path / "w.txt"
    emit_weights([rec(0, 1.0), rec(1, 0.367879)], path)
    weights = [float(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert weights == [1.0, 0.367879]


def corpus_rows(n):
    return [(f"s{i}", f"t{i}") for i in range(n)]


def test_extract_selected_preserves_order(tmp_path):
    selection = select_top_n([rec(0, 0.9), rec(1, 0.1), rec(2, 0.5)], 2)
    n = extract_selected(
        corpus_rows(3),
        selection,
        src_path=tmp_path / "o.src",
        tgt_path=tmp_path / "o.tgt",
    )
    assert n == 2
    assert (tmp_path / "o.src").read_text(encoding="utf-8") == "s0\ns2\n"
    assert (tmp_path / "o.tgt").read_text(encoding="utf-8") == "t0\nt2\n"


def test_extract_empty_selection(tmp_path):
    selection = select_top_n([], 5)
    n = extract_selected(
        corpus_rows(0),
        selection,
        src_path=tmp_path / "o.src",
        tgt_path=tmp_path / "o.tgt",
    )
    assert n == 0
    assert (tmp_path / "o.src").read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("n_rows", [2, 4])
def test_extract_rejects_a_corpus_of_another_length(tmp_path, n_rows):
    selection = select_top_n([rec(i, 0.5) for i in range(3)], 1)
    with pytest.raises(StructuralError) as exc:
        extract_selected(
            corpus_rows(n_rows),
            selection,
            tsv_path=tmp_path / "o.tsv",
            scores_name="s.tsv",
            corpus_name="c.tsv",
        )
    assert str(exc.value) == (
        f"s.tsv holds 3 scored pairs but c.tsv holds {n_rows} pairs; "
        "the scores are for another corpus"
    )


def test_extract_to_tsv(tmp_path):
    selection = select_top_n([rec(0, 0.9), rec(1, 0.95)], 1)
    extract_selected(corpus_rows(2), selection, tsv_path=tmp_path / "o.tsv")
    assert (tmp_path / "o.tsv").read_text(encoding="utf-8") == "s1\tt1\n"
