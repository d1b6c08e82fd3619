#!/usr/bin/env python3
"""Intrinsic filtering experiment on synthetic cipher bitext.

Generates a clean two-language corpus, corrupts a labeled fraction of it,
trains both translation directions and both language models on held-out
draws, scores the corrupted corpus, and reports how well the combined score
separates clean from corrupted pairs, next to each partial score alone.

Example:
    python scripts/run_intrinsic_eval.py --pairs 10000 --rate 0.2 --seed 7
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pairsieve.lexical_tm import Direction, train_model1
from pairsieve.ngram_lm import train_ngram
from pairsieve.noise import NoiseSpec, evaluate_filter, inject_noise
from pairsieve.scoring import LmScorer, Model1Scorer, score_pair
from pairsieve.synthetic import make_cipher_corpus, make_third_language


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=10_000,
                        help="evaluation corpus size (and each training draw)")
    parser.add_argument("--rate", type=float, default=0.2,
                        help="fraction of evaluation pairs to corrupt")
    parser.add_argument("--seed", type=int, default=20180816)
    parser.add_argument("--lm-order", type=int, default=2)
    parser.add_argument("--tm-iters", type=int, default=5)
    args = parser.parse_args()

    started = time.perf_counter()
    seed = args.seed
    train_pairs = make_cipher_corpus(args.pairs, seed=seed + 1)
    eval_pairs = make_cipher_corpus(args.pairs, seed=seed + 2)
    raw_sample = make_cipher_corpus(args.pairs, seed=seed + 3)
    third = make_third_language(max(100, args.pairs // 25), seed=seed + 4)

    noisy_eval, labels = inject_noise(eval_pairs, NoiseSpec(rate=args.rate, seed=seed + 5), third)
    # the out-of-domain LM sees a fully noisy draw: the stand-in for sampling
    # a raw crawl with no filtering applied
    noisy_raw, _ = inject_noise(raw_sample, NoiseSpec(rate=1.0, seed=seed + 6), third)

    print(f"training on {len(train_pairs)} clean pairs ...", file=sys.stderr)
    fwd, _ = train_model1(train_pairs, iterations=args.tm_iters, direction=Direction.FORWARD)
    rev, _ = train_model1(train_pairs, iterations=args.tm_iters, direction=Direction.REVERSE)
    in_lm = train_ngram([p.tgt for p in train_pairs], order=args.lm_order)
    out_lm = train_ngram([p.tgt for p in noisy_raw], order=args.lm_order)

    print(f"scoring {len(noisy_eval)} pairs ...", file=sys.stderr)
    scorers = (Model1Scorer(fwd), Model1Scorer(rev), LmScorer(in_lm), LmScorer(out_lm))
    records = [score_pair(pair, *scorers) for pair in noisy_eval]
    report = evaluate_filter([r.combined for r in records], labels)
    auc_adq = evaluate_filter([r.adq for r in records], labels).auc
    auc_dom = evaluate_filter([r.dom for r in records], labels).auc

    print(f"pairs\t{report.n}")
    print(f"clean\t{report.n_clean}")
    print(f"corrupted\t{report.n_corrupted}")
    print(f"auc_combined\t{report.auc:.4f}")
    print(f"auc_adq_alone\t{auc_adq:.4f}")
    print(f"auc_dom_alone\t{auc_dom:.4f}")
    print(f"precision_at_clean\t{report.precision_at_clean:.4f}")
    print(f"mean_combined_clean\t{report.mean_combined_clean:.5f}")
    for kind, mean in sorted(report.mean_combined_by_kind.items()):
        print(f"mean_combined_{kind}\t{mean:.5f}")
    print(f"seconds\t{time.perf_counter() - started:.1f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
