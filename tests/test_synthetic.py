"""The planted-corpus generator: its corpora and its argument checks; its
draws are ``eqvec.draws``, tested in ``test_draws``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqvec.synthetic import planted_corpus

from . import reference_synthetic


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 60), st.integers(1, 4), st.integers(1, 12), st.integers(0, 2**64 - 1))
def test_planted_corpus_matches_reference(n_docs, n_classes, sentences_per_doc, seed):
    args = (n_docs, n_classes, sentences_per_doc, seed)
    assert planted_corpus(*args) == reference_synthetic.planted_corpus(*args)


def test_planted_corpus_makes_no_generator_draw(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.random.Generator used")

    monkeypatch.setattr(np.random, "Generator", refuse)
    assert len(planted_corpus(n_docs=12, seed=3).documents) == 12


def test_negative_n_docs_rejected():
    assert planted_corpus(n_docs=0).documents == []
    with pytest.raises(ValueError, match="n_docs"):
        planted_corpus(n_docs=-1)


def test_sentences_per_doc_below_one_rejected():
    with pytest.raises(ValueError, match="sentences_per_doc"):
        planted_corpus(n_docs=4, sentences_per_doc=0)
