"""What the benchmark under ``bench/`` reads of the package.

The benchmark wraps entry points by name and compares an ingested corpus
with its reloaded bundle field by field; these checks break as soon as
``src/`` stops offering what it uses, without running the benchmark.
The bench modules are imported and read, never changed.
"""

import os
import sys

import pytest

from eqvec import bundle
from eqvec.corpus import IngestParams, ingest_corpus
from eqvec.synthetic import planted_corpus

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


def test_every_traced_entry_point_resolves(bench):
    spans, _ = bench
    targets = spans._targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


def test_reloaded_bundle_has_no_corpus_differences(bench, tmp_path):
    _, workloads = bench
    pc = planted_corpus(n_docs=40, seed=2)
    data = ingest_corpus(pc.documents, IngestParams(seed=6))
    loaded = bundle.load_bundle(bundle.save_bundle(data, str(tmp_path / "bundle")))
    assert len(data.heldout_valid) and len(data.heldout_test)
    assert workloads._corpus_differences(data, loaded) == []
    assert (data.heldout_valid != loaded.heldout_valid) is False
    assert (data.heldout_test == loaded.heldout_test) is True
