#!/usr/bin/env python3
"""The three query families over a trained model.

Nearest equations to an equation (Euclidean over equation feature
vectors), nearest words to an equation (cosine between the equation's
interaction vector and word feature vectors), and nearest equations to a
bag of words (cosine against equation interaction vectors, query = mean
of the words' interaction vectors).
"""

from eqvec import (
    equations_for_words,
    ingest_corpus,
    nearest_equations,
    nearest_words,
    train_model,
)
from eqvec.corpus import IngestParams
from eqvec.model import ModelConfig
from eqvec.synthetic import planted_corpus


def main() -> None:
    pc = planted_corpus(n_docs=200, seed=7)
    data = ingest_corpus(pc.documents, IngestParams(seed=11))
    config = ModelConfig(k=25, word_window=4, eq_window=16, unit_window=2,
                         learning_rate=0.05, seed=3)
    model, _ = train_model(data, config, "equation")

    query = 0
    print(f"query equation: {data.registry.latex[query]}")

    print("\nnearest equations (euclidean over feature vectors):")
    for rank, (eq_id, score) in enumerate(nearest_equations(model, query, 5).hits, 1):
        print(f"  {rank}. d={score:.3f}  {data.registry.latex[eq_id]}")

    print("\nnearest words (cosine against word feature vectors):")
    for rank, (wid, score) in enumerate(nearest_words(model, query, 5).hits, 1):
        print(f"  {rank}. cos={score:.3f}  {data.word_vocab.forms[wid]}")

    words = ["matrix", "eigenvalue", "projection"]
    print(f"\nequations for the word query {words}:")
    ranking = equations_for_words(model, data.word_vocab, words, 5)
    for rank, (eq_id, score) in enumerate(ranking.hits, 1):
        print(f"  {rank}. cos={score:.3f}  {data.registry.latex[eq_id]}")


if __name__ == "__main__":
    main()
