"""The planted-corpus generator: its draws, its corpora and its argument checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqvec.synthetic import _Draws, planted_corpus

from . import reference_synthetic

# 3 * 2**30 rejects a quarter of its half draws, and 2**32 - 1 almost none;
# 2**32 takes a half draw whole, and 1 draws nothing.
_RANGES = (1, 2, 5, 2000, 3 * 2**30, 2**32 - 1, 2**32)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.one_of(st.none(), st.sampled_from(_RANGES)), max_size=300),
)
def test_draws_match_numpy_generator(seed, calls):
    """Any interleaving of ``random()`` (None) and ``integers(n)`` gives
    numpy's values, so a half kept by one ``integers`` call outlives the
    ``random()`` calls after it, as in ``Generator``."""
    draws = _Draws(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    for n in calls:
        if n is None:
            assert draws.random() == rng.random()
        else:
            assert draws.integers(n) == int(rng.integers(n))


def test_draws_cross_blocks():
    """A run longer than one block of raw words stays numpy's."""
    draws = _Draws(5)
    rng = np.random.Generator(np.random.PCG64(5))
    for i in range(3 * _Draws.BLOCK):
        n = (3 * 2**30, 7)[i % 2]
        assert draws.integers(n) == int(rng.integers(n))
        assert draws.random() == rng.random()


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
