"""Acceptance suite: one test per contract criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion (the -v test outcomes mirror them).
"""

import math
import random
import resource
import time
from contextlib import contextmanager

import pytest

from pairsieve.corpus import SentencePair, tokenize, write_parallel
from pairsieve.lexical_tm import Direction, ExternalScoreTable, train_model1
from pairsieve.ngram_lm import train_ngram, cross_entropy
from pairsieve.noise import NoiseSpec, evaluate_filter, inject_noise
from pairsieve.scoring import (
    LmScorer,
    Model1Scorer,
    ScoreRecord,
    make_record,
    read_score_file,
    score_corpus_to_file,
    score_pair,
)
from pairsieve.selection import (
    emit_weights,
    extract_selected,
    select_top_n,
)
from pairsieve.synthetic import make_cipher_corpus, make_third_language


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


def test_criterion_1_score_algebra_matches_independent_oracle():
    with criterion("1 score-algebra oracle (1000 tuples, 1e-12, <1s)"):
        rng = random.Random(1234)
        n = 1000
        h = [[rng.uniform(0.0, 30.0) for _ in range(n)] for _ in range(4)]
        trusted = [rng.random() < 0.25 for _ in range(n)]
        pairs = [SentencePair(id=i, src=tokenize("x"), tgt=tokenize("y")) for i in range(n)]
        scorers = [ExternalScoreTable(hs) for hs in h]

        started = time.perf_counter()
        records = [score_pair(p, *scorers, trusted=t) for p, t in zip(pairs, trusted)]
        for i, record in enumerate(records):
            # straight-line re-implementation, independent of the modules
            dual = abs(h[0][i] - h[1][i]) + (h[0][i] + h[1][i]) / 2
            adq = 1.0 if trusted[i] else math.exp(-dual)
            dom_prime = math.exp(-(h[2][i] - h[3][i]))
            dom = dom_prime if dom_prime < 1.0 else 1.0
            assert abs(record.adq - adq) <= 1e-12
            assert abs(record.dom - dom) <= 1e-12
            assert abs(record.combined - adq * dom) <= 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"oracle comparison took {elapsed:.2f}s"


def test_criterion_2_hand_values():
    with criterion("2 hand-value checks"):
        # make_record(pair_id, h_fwd, h_rev, h_in, h_out): adq reads only the
        # first two cross-entropies, dom only the last two.
        assert abs(make_record(0, 1.0, 1.0, 0.0, 0.0).adq - math.exp(-1)) <= 1e-9
        assert abs(make_record(0, 1.0, 3.0, 0.0, 0.0).adq - math.exp(-4)) <= 1e-9
        assert abs(make_record(0, 0.0, 0.0, 2.0, 1.0).dom - math.exp(-1)) <= 1e-9
        assert make_record(0, 0.0, 0.0, 0.5, 2.0).dom == 1.0
        assert make_record(0, 0.0, 0.0, 0.0, 0.0).adq == 1.0


def test_criterion_3_em_correctness():
    with criterion("3 EM hand value + monotone trace on 100 fuzzed corpora"):
        toy = [
            SentencePair(id=0, src=tokenize("das haus"), tgt=tokenize("the house")),
            SentencePair(id=1, src=tokenize("das buch"), tgt=tokenize("the book")),
        ]
        model, _ = train_model1(toy, iterations=1, use_null=False)
        assert abs(model.prob("the", "das") - 0.5) <= 1e-9

        words = ["w%d" % i for i in range(7)]
        for corpus_seed in range(100):
            rng = random.Random(9000 + corpus_seed)
            corpus = [
                SentencePair(
                    id=i,
                    src=tokenize(" ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))),
                    tgt=tokenize(" ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))),
                )
                for i in range(rng.randint(1, 10))
            ]
            _, trace = train_model1(
                corpus, iterations=20, use_null=rng.random() < 0.5, min_gain=None
            )
            assert len(trace) == 20
            for earlier, later in zip(trace, trace[1:]):
                assert later >= earlier - 1e-9


def test_criterion_4_lm_soundness():
    with criterion("4 LM normalization + uniform-model cross-entropy"):
        rng = random.Random(77)
        words = ["v%d" % i for i in range(12)]
        corpus = [
            tokenize(" ".join(rng.choice(words) for _ in range(rng.randint(1, 9))))
            for _ in range(300)
        ]
        lm = train_ngram(corpus, order=2, k=0.1, vocab_min_count=1)
        observed = sorted(lm.context_counts)
        unseen = [("definitely-unseen-%d" % i,) for i in range(10)]
        histories = (observed + unseen) * 8
        assert len(histories) >= 100
        for history in histories[:100]:
            total = math.fsum(lm.prob(w, history) for w in lm.vocab)
            assert abs(total - 1.0) <= 1e-6

        # every event of {a, b, <unk>, </s>} occurs twice: add-k cancels to 1/4
        uniform = train_ngram(
            [tokenize("a b x"), tokenize("a b y")], order=1, k=0.1, vocab_min_count=2
        )
        assert abs(cross_entropy(uniform, tokenize("a b x")) - math.log(4)) <= 1e-9


def test_criterion_5_selection_contract_100k(tmp_path):
    with criterion("5 selection contract, 100k pairs, workers 1/2/8 (<30s)"):
        started = time.perf_counter()
        n = 100_000
        corpus = make_cipher_corpus(n, seed=501, min_len=3, max_len=8)
        src, tgt = tmp_path / "c.src", tmp_path / "c.tgt"
        write_parallel(((p.id, p.src.raw, p.tgt.raw) for p in corpus), src, tgt)

        train = make_cipher_corpus(2000, seed=502, min_len=3, max_len=8)
        fwd, _ = train_model1(train, iterations=3, direction=Direction.FORWARD)
        rev, _ = train_model1(train, iterations=3, direction=Direction.REVERSE)
        in_lm = train_ngram([p.tgt for p in train], order=2, k=0.1, vocab_min_count=2)
        out_lm = train_ngram([p.tgt for p in corpus[:2000]], order=2, k=0.1, vocab_min_count=2)
        scorers = (Model1Scorer(fwd), Model1Scorer(rev), LmScorer(in_lm), LmScorer(out_lm))

        outputs = []
        for workers in (1, 2, 8):
            out = tmp_path / f"scores.w{workers}.tsv"
            written = score_corpus_to_file(
                out, *scorers, src_path=src, tgt_path=tgt, workers=workers
            )
            assert written == n
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], "worker count changed output"

        scores_path = tmp_path / "scores.w1.tsv"
        keep = 30_000
        selection = select_top_n(read_score_file(scores_path), keep)
        assert len(selection.selected_ids) == keep
        selected = set(selection.selected_ids)
        combined = [r.combined for r in read_score_file(scores_path)]
        min_selected = min(combined[i] for i in selected)
        max_rejected = max(
            (c for i, c in enumerate(combined) if i not in selected), default=None
        )
        assert max_rejected is None or min_selected >= max_rejected

        # exact tie-break: equal scores resolve by ascending id
        tied = [
            ScoreRecord(pair_id=i, h_fwd=1, h_rev=1, h_in=1, h_out=1,
                        adq=0.5, dom=1.0, combined=0.5)
            for i in range(10)
        ]
        assert select_top_n(tied, 4).selected_ids == [0, 1, 2, 3]

        weights_path = tmp_path / "weights.txt"
        assert emit_weights(read_score_file(scores_path), weights_path) == n
        weights = [float(line) for line in weights_path.read_text(encoding="utf-8").splitlines()]
        assert len(weights) == n
        assert all(0.0 <= w <= 1.0 for w in weights)
        for w, c in zip(weights[:502], combined):
            assert w == pytest.approx(c, abs=5e-7)

        extract_selected(
            ((p.src.raw, p.tgt.raw) for p in corpus), selection,
            src_path=tmp_path / "sel.src", tgt_path=tmp_path / "sel.tgt",
        )
        assert len((tmp_path / "sel.src").read_text().splitlines()) == keep

        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"selection contract run took {elapsed:.1f}s"


def test_criterion_6_intrinsic_filtering_power():
    with criterion("6 intrinsic filtering power (AUC/precision, <5min)"):
        started = time.perf_counter()
        seed = 20180816

        train_pairs = make_cipher_corpus(10_000, seed=seed + 1)
        eval_pairs = make_cipher_corpus(10_000, seed=seed + 2)
        raw_sample = make_cipher_corpus(10_000, seed=seed + 3)
        third = make_third_language(400, seed=seed + 4)

        noisy_eval, labels = inject_noise(eval_pairs, NoiseSpec(rate=0.2, seed=seed + 5), third)
        # the out-of-domain model trains on a fully noisy draw, the analog of
        # sampling a raw crawl with no filtering applied
        noisy_raw, _ = inject_noise(raw_sample, NoiseSpec(rate=1.0, seed=seed + 6), third)

        fwd, _ = train_model1(train_pairs, iterations=5, direction=Direction.FORWARD)
        rev, _ = train_model1(train_pairs, iterations=5, direction=Direction.REVERSE)
        in_lm = train_ngram([p.tgt for p in train_pairs], order=2, k=0.1, vocab_min_count=2)
        out_lm = train_ngram(
            [p.tgt for p in noisy_raw], order=2, k=0.1, vocab_min_count=2
        )

        scorers = (Model1Scorer(fwd), Model1Scorer(rev), LmScorer(in_lm), LmScorer(out_lm))
        records = [score_pair(pair, *scorers) for pair in noisy_eval]
        report = evaluate_filter([r.combined for r in records], labels)

        auc_adq = evaluate_filter([r.adq for r in records], labels).auc
        auc_dom = evaluate_filter([r.dom for r in records], labels).auc

        assert report.auc >= 0.95, f"combined AUC {report.auc:.4f} < 0.95"
        assert report.precision_at_clean >= 0.90, (
            f"precision@clean {report.precision_at_clean:.4f} < 0.90"
        )
        assert report.auc > auc_adq, (
            f"combined {report.auc:.4f} not above adq alone {auc_adq:.4f}"
        )
        assert report.auc > auc_dom, (
            f"combined {report.auc:.4f} not above dom alone {auc_dom:.4f}"
        )
        for kind, mean in report.mean_combined_by_kind.items():
            assert report.mean_combined_clean > mean, (
                f"clean mean not above {kind} mean"
            )

        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"intrinsic run took {elapsed:.1f}s"


def test_criterion_7_scale_smoke_1m(tmp_path):
    with criterion("7 scale smoke: 1M pairs scored+selected (<10min, <4GiB)"):
        started = time.perf_counter()
        n = 1_000_000
        src, tgt = tmp_path / "big.src", tmp_path / "big.tgt"
        write_parallel(
            (
                (p.id, p.src.raw, p.tgt.raw)
                for p in make_cipher_corpus(n, seed=701, min_len=3, max_len=8)
            ),
            src,
            tgt,
        )

        train = make_cipher_corpus(2000, seed=702, min_len=3, max_len=8)
        fwd, _ = train_model1(train, iterations=3, direction=Direction.FORWARD)
        rev, _ = train_model1(train, iterations=3, direction=Direction.REVERSE)
        in_lm = train_ngram([p.tgt for p in train], order=2, k=0.1, vocab_min_count=2)
        out_lm = train_ngram([p.src for p in train], order=2, k=0.1, vocab_min_count=2)

        scores_path = tmp_path / "scores.tsv"
        written = score_corpus_to_file(
            scores_path,
            Model1Scorer(fwd), Model1Scorer(rev), LmScorer(in_lm), LmScorer(out_lm),
            src_path=src, tgt_path=tgt, workers=2,
        )
        assert written == n

        keep = 250_000
        in_memory = select_top_n(read_score_file(scores_path), keep)
        spilled = select_top_n(
            read_score_file(scores_path), keep, max_in_memory=200_000
        )
        assert in_memory.selected_ids == spilled.selected_ids
        assert in_memory.cutoff_score == spilled.cutoff_score

        weights_path = tmp_path / "weights.txt"
        assert emit_weights(read_score_file(scores_path), weights_path) == n
        with open(weights_path, encoding="utf-8") as fh:
            weights = [float(line) for line in fh]
        assert len(weights) == n
        assert all(0.0 <= w <= 1.0 for w in weights)

        peak_gib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024**2)
        assert peak_gib < 4.0, f"peak memory {peak_gib:.2f} GiB exceeds budget"
        elapsed = time.perf_counter() - started
        assert elapsed < 600.0, f"scale smoke took {elapsed:.1f}s"
