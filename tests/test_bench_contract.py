"""What the benchmark under ``bench/`` reads of the package.

The benchmark wraps entry points by name, reads attributes off their
arguments and results, and compares an ingested corpus with its reloaded
bundle field by field; these checks break as soon as ``src/`` stops
offering what it uses, without running the benchmark.  The bench modules
are imported and read, never changed.
"""

import os
import sys

import pytest

from eqvec import bundle, tex
from eqvec.corpus import IngestParams, ingest_corpus
from eqvec.model import ModelConfig
from eqvec.synthetic import planted_corpus
from eqvec.training import train_model

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, BENCH)
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(BENCH)
    return spans, workloads


@pytest.fixture(scope="module")
def planted():
    pc = planted_corpus(n_docs=40, seed=2)
    params = IngestParams(seed=6)
    return pc.documents, params, ingest_corpus(pc.documents, params)


def test_every_traced_entry_point_resolves(bench):
    spans, _ = bench
    targets = spans._targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


def test_traced_attributes_read_real_results(bench, planted):
    spans, _ = bench
    attrs = {name: fn for _, _, name, fn in spans._targets()}
    docs, params, data = planted
    result = tex._extract(docs[0])
    slots = result[3]  # one per region kept
    assert slots and attrs["tex.extract"]((docs[0],), {}, result) == {"equations": len(slots), "skipped": result[2]}
    assert attrs["corpus.ingest"]((docs, params), {}, data) == {
        "tokens": len(data.streams.codes),
        "heldout_items": len(data.heldout_valid) + len(data.heldout_test),
        "heldout_skipped": data.stats["heldout_skipped"],
    }
    args = (data, ModelConfig(k=4, max_epochs=1, seed=1), "word")
    fit = train_model(*args)
    got = attrs["training.fit"](args, {}, fit)
    assert got == {"tokens": len(data.streams.codes), "epochs": [["word", r.seconds] for r in fit[1]]}
    assert got["tokens"] > 0 and got["epochs"]


def test_reloaded_bundle_has_no_corpus_differences(bench, planted, tmp_path):
    _, workloads = bench
    _, _, data = planted
    loaded = bundle.load_bundle(bundle.save_bundle(data, str(tmp_path / "bundle")))
    assert len(data.heldout_valid) and len(data.heldout_test)
    assert workloads._corpus_differences(data, loaded) == []
    assert (data.heldout_valid != loaded.heldout_valid) is False
    assert (data.heldout_test == loaded.heldout_test) is True


def test_ingest_calls_the_traced_tex_names_once_per_document(monkeypatch, planted):
    # the bench times extraction and tokenization by wrapping these module
    # attributes; an ingest path that went round them would read 0 seconds
    docs, params, data = planted
    calls = {"_extract": [], "tokenize_words": []}

    def spy(original, seen):
        def call(*args):
            seen.append(args)
            return original(*args)
        return call

    for name, seen in calls.items():
        monkeypatch.setattr(tex, name, spy(getattr(tex, name), seen))
    again = ingest_corpus(docs, params)
    assert [a[0].doc_id for a in calls["_extract"]] == sorted(d.doc_id for d in docs)
    assert len(calls["tokenize_words"]) == len(docs)
    assert again.streams.codes.tolist() == data.streams.codes.tolist()
