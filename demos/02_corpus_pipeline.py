#!/usr/bin/env python3
"""Ingest a synthetic article collection and look at what comes out.

Generates a planted corpus (four document classes, each with its own topic
words and structurally related equations), runs the full ingestion
pipeline, and prints the collection statistics plus a few artifacts:
vocabulary head, deduplicated equations, held-out items.
"""

from eqvec import ingest_corpus
from eqvec.corpus import IngestParams
from eqvec.synthetic import planted_corpus


def main() -> None:
    pc = planted_corpus(n_docs=60, seed=7)
    data = ingest_corpus(pc.documents, IngestParams(seed=11))

    s = data.stats
    print("documents\twords\tequations\tunits")
    print(f"{s['documents']}\t{s['words']}\t{s['equations']}\t{s['units']}")

    print("\nmost frequent vocabulary entries:")
    for form in data.word_vocab.forms[:8]:
        i = data.word_vocab.index[form]
        print(f"  {form:16s} id={i:<4d} tf={int(data.word_vocab.freqs[i])}")

    print("\ncorpus frequency stop list (dropped on top of fixed stopwords):")
    print(" ", ", ".join(data.word_vocab.stop_forms[:10]), "...")

    print("\nequations with repeated occurrences:")
    registry = data.registry  # columns: equation g is latex[g], seen counts[g] times
    for g in range(min(6, len(registry))):
        print(f"  eq {g}  x{registry.counts[g]}   {registry.latex[g]}")

    singles = int((registry.counts == 1).sum())
    print(f"\nsingletons: {singles} of {len(registry)} equations")

    held = data.heldout_valid  # one column per field; item 0 is the first row
    ctx = slice(held.ctx_ptr[0], held.ctx_ptr[1])
    words = [data.word_vocab.forms[i] for i in held.ctx_id[ctx][~held.ctx_eq[ctx]]]
    target, *negatives = held.cand[held.cand_ptr[0] : held.cand_ptr[1]].tolist()
    print(f"\none held-out item (of {len(held)} in the validation split):")
    print(f"  target    {data.word_vocab.forms[target]!r}")
    print(f"  context   {words} + equation {held.eq_id[0]}")
    print(f"  negatives {negatives[:5]}...")


if __name__ == "__main__":
    main()
