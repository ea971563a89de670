#!/usr/bin/env python3
"""Train the three model flavors and compare held-out scores.

The word-only model is the baseline: every display equation is invisible.
The equation model treats each equation as a singleton token whose vectors
come from surrounding words; the unit model decomposes equations into
layout-tuple units that share statistics across equations.  Comparison
uses the pseudo log-likelihood over the held-out test split.
"""

import time
from dataclasses import replace

from eqvec import evaluate_split, ingest_corpus, train_model
from eqvec.corpus import IngestParams
from eqvec.model import ModelConfig
from eqvec.synthetic import planted_corpus


def main() -> None:
    pc = planted_corpus(n_docs=200, seed=7)
    data = ingest_corpus(pc.documents, IngestParams(seed=11))
    config = ModelConfig(
        k=25, word_window=4, eq_window=16, unit_window=2,
        learning_rate=0.05, seed=3,
    )

    print(f"corpus: {data.stats}")
    print(f"{'mode':10s} {'epochs':>12s} {'valid pseudo':>14s} {'test pseudo':>13s} {'secs':>6s}")
    for mode in ("word", "equation", "unit"):
        t0 = time.perf_counter()
        model, records = train_model(data, config, mode)
        secs = time.perf_counter() - t0
        epochs = {}
        for r in records:
            epochs[r.pass_name] = r.epoch
        valid = evaluate_split(data.heldout_valid, model, "validation")
        test = evaluate_split(data.heldout_test, model, "test")
        ep = "+".join(str(e) for e in epochs.values())
        print(
            f"{mode:10s} {ep:>12s} {valid.mean_pseudo_ll:14.4f} "
            f"{test.mean_pseudo_ll:13.4f} {secs:6.1f}"
        )

    print("\nper-epoch validation trace drives early stopping:")
    model, records = train_model(data, replace(config, seed=4), "equation")
    for r in records:
        print(f"  {r.pass_name:9s} epoch {r.epoch:2d}  predictive LL {r.validation_score:.4f}")


if __name__ == "__main__":
    main()
