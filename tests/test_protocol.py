"""Cross-module protocol details: exclusions, boundaries, clamps."""

import time

import numpy as np

from eqvec.corpus import (
    EQ_TAG,
    GAP,
    IngestParams,
    TokenStream,
    encode_equation,
    ingest_corpus,
)
from eqvec.model import ModelConfig
from eqvec.synthetic import planted_corpus
from eqvec.tex import RawDocument
from eqvec.passes import _exclusion_mask, compile_pass

from .conftest import corpus_from_streams, plan_positions
from .reference_model import Table, Tables, TrainingPair, pair_loss_and_grads


def test_heldout_targets_never_training_targets():
    pc = planted_corpus(n_docs=40, seed=2)
    data = ingest_corpus(pc.documents, IngestParams(seed=6))
    mask = _exclusion_mask(data)
    held = {(s, p) for split in (data.heldout_valid, data.heldout_test)
            for s, p in zip(split.stream.tolist(), split.position.tolist())}
    assert held
    enumerated = set()
    for si, (stream, lo) in enumerate(zip(data.streams, data.streams.ptr.tolist())):
        for p in np.flatnonzero((stream.codes < EQ_TAG) & ~mask[lo : lo + len(stream.codes)]):
            enumerated.add((si, int(p)))
    assert not held & enumerated


def test_equation_dedup_counts_match_region_total():
    pc = planted_corpus(n_docs=40, seed=2)
    data = ingest_corpus(pc.documents, IngestParams(seed=6))
    total_regions = sum(
        int(((s.codes != GAP) & (s.codes >= EQ_TAG)).sum()) for s in data.streams
    )
    assert int(data.registry.counts.sum()) == total_regions


def test_document_boundary_truncates_equation_context():
    # an equation at document start sees only the words after it
    docs = [
        RawDocument(
            "head",
            "$$a + b$$ probability inference posterior likelihood sampling entropy",
        ),
        RawDocument(
            "tail",
            "probability inference posterior likelihood sampling entropy $$c + d$$",
        ),
    ]
    data = ingest_corpus(
        docs,
        IngestParams(min_tf=1, min_len=4, top_stop=0, abbrev_top=0,
                     heldout_per_equation=1, heldout_window=4, n_negatives=2, seed=0),
    )
    head = next(s for s in data.streams if s.doc_id == "head")
    tail = next(s for s in data.streams if s.doc_id == "tail")
    eq_pos_head = int(np.flatnonzero(head.codes >= EQ_TAG)[0])
    eq_pos_tail = int(np.flatnonzero((tail.codes != GAP) & (tail.codes >= EQ_TAG))[0])
    assert eq_pos_head == 0
    plan = plan_positions(compile_pass(data, ModelConfig(eq_context_window=8), "equation"), "equation")
    context = {t: [i for _, i in ctx] for cls, t, ctx in plan if cls == "eq"}
    following = context[int(head.codes[eq_pos_head]) & ~int(EQ_TAG)]
    preceding = context[int(tail.codes[eq_pos_tail]) & ~int(EQ_TAG)]
    assert 1 <= len(following) <= 4  # one-sided, truncated at the boundary
    assert 1 <= len(preceding) <= 4
    # the one-sided context contains exactly the words physically present
    head_words = [int(c) for c in head.codes[1:5] if int(c) != int(GAP)]
    assert list(following) == head_words


def test_pair_loss_clamped_at_saturation():
    rng = np.random.default_rng(0)
    t = Tables(Table.random(3, 2, rng, 0.1))
    t.word.rho[0] = (900.0, 0.0)
    t.word.alpha[1] = (1.0, 0.0)  # b == 1.0 numerically
    loss, grads = pair_loss_and_grads(TrainingPair(("word", 0), [("word", 1)], 0), "word", t)
    assert np.isfinite(loss)
    assert loss <= -np.log(1e-12) + 1e-9  # clamp bounds the loss
    assert np.isfinite(grads.rho[("word", 0)]).all()


def test_gap_positions_never_in_contexts():
    codes = np.array([GAP, 3, GAP, encode_equation(1), 2, GAP], dtype=np.uint32)
    data = corpus_from_streams([TokenStream("d", codes)], n_words=4, n_equations=2)
    cfg = ModelConfig(word_window=4, eq_window=4, eq_context_window=4)
    seen = set()
    for pass_name in ("word", "equation", "joint"):
        for _, _, ctx in plan_positions(compile_pass(data, cfg, pass_name), pass_name):
            ids = [i for cls, i in ctx if cls == "word"]
            assert all(i in (2, 3) for i in ids)
            seen.update(ids)
    assert seen == {2, 3}  # the equation's context saw both words across the gaps


def test_tiny_training_run_fits_time_budget():
    pc = planted_corpus(n_docs=24, seed=5)
    data = ingest_corpus(pc.documents, IngestParams(seed=5))
    from eqvec.training import train_model

    t0 = time.perf_counter()
    train_model(data, ModelConfig(k=25, seed=1, unit_window=2), "equation")
    assert time.perf_counter() - t0 < 60.0
