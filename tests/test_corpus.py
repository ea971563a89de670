"""Vocabulary rules, token streams, held-out construction."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqvec import bundle, corpus
from eqvec.corpus import (
    GAP,
    CorpusError,
    EquationRegistry,
    EquationUnits,
    IngestParams,
    build_heldout,
    build_word_vocabulary,
    encode_equation,
    ingest_corpus,
    intern_prepared,
    load_stopwords,
    merge_batches,
)
from eqvec.records import EquationRecord
from eqvec.synthetic import planted_corpus
from eqvec.tex import RawDocument

from . import reference_corpus
from .conftest import equation_units, heldout_items, token_streams
from .reference_corpus import build_heldout as reference_build_heldout

STOPS = frozenset({"the", "of", "a", "and"})


def word_counts(*groups):
    return Counter(dict(groups))


def test_inclusion_by_frequency_and_length():
    counts = word_counts(("model", 500), ("tiny", 9), ("of", 900))
    vocab = build_word_vocabulary(counts, STOPS, IngestParams(top_stop=0))
    assert "model" in vocab
    assert "tiny" not in vocab  # below min_tf
    assert "of" not in vocab  # stopword


def test_stopword_always_excluded():
    counts = word_counts(("the", 10000), ("model", 50))
    vocab = build_word_vocabulary(counts, STOPS, IngestParams(top_stop=0))
    assert "the" not in vocab and "model" in vocab


def test_top_frequency_stop_list():
    counts = word_counts(("alpha", 100), ("beta", 90), ("gamma", 80), ("delta", 70))
    vocab = build_word_vocabulary(counts, STOPS, IngestParams(top_stop=2))
    assert vocab.stop_forms == ("alpha", "beta")
    assert set(vocab.forms) == {"gamma", "delta"}


def test_three_char_abbreviation_exception():
    counts = word_counts(*[(f"word{i:02d}", 200) for i in range(30)], ("lda", 40), ("svm", 12), ("xy", 99))
    vocab = build_word_vocabulary(counts, STOPS, IngestParams(top_stop=0, abbrev_top=50))
    assert "lda" in vocab and "svm" in vocab  # top-50 3-char forms
    assert "xy" not in vocab  # length 2 has no exception


def test_abbrev_cap_applies():
    three = [(f"a{i:02d}", 20 + i) for i in range(60)]  # sixty 3-char forms
    vocab = build_word_vocabulary(word_counts(*three), STOPS, IngestParams(top_stop=0, abbrev_top=50))
    assert len(vocab) == 50
    assert "a59" in vocab and "a09" not in vocab  # lowest-frequency ten dropped


def test_word_vocab_invariants_hold():
    rng = np.random.default_rng(0)
    words = [f"w{i}{'x' * int(rng.integers(0, 6))}" for i in range(60)]
    vocab = build_word_vocabulary(Counter(rng.choice(words, size=3000).tolist()), STOPS, IngestParams())
    stops = load_stopwords()
    for form, freq in zip(vocab.forms, vocab.freqs):
        assert freq >= 10
        assert len(form) >= 4 or len(form) == 3
        assert form not in STOPS
        assert form not in vocab.stop_forms
    # dense ids
    assert sorted(vocab.index.values()) == list(range(len(vocab)))



def test_stopwords_are_read_once_per_process(monkeypatch):
    # every ingest uses the package's list; it is read and parsed on the
    # first call only, and handed out as an immutable set
    load_stopwords.cache_clear()
    reads = []
    real = corpus.resources.files
    monkeypatch.setattr(corpus.resources, "files", lambda pkg: reads.append(pkg) or real(pkg))
    first = load_stopwords()
    docs = planted_corpus(n_docs=6, seed=1).documents
    ingest_corpus(docs, IngestParams())
    ingest_corpus(docs, IngestParams())
    assert load_stopwords() is first and isinstance(first, frozenset) and "the" in first
    assert reads == ["eqvec"]

def test_empty_corpus_raises():
    with pytest.raises(CorpusError, match="empty corpus"):
        build_word_vocabulary(Counter(), STOPS, IngestParams())


def test_refilter_with_fixed_stop_set_is_idempotent():
    # restricting the token multiset to the vocabulary and rebuilding with
    # the recorded frequency stop list produces the same vocabulary
    rng = np.random.default_rng(1)
    words = [f"word{i:03d}" for i in range(80)]
    weights = rng.random(80) + 0.05
    tokens = rng.choice(words, size=6000, p=weights / weights.sum()).tolist()
    v1 = build_word_vocabulary(Counter(tokens), STOPS, IngestParams())
    filtered = Counter(t for t in tokens if t in v1.index)
    v2 = build_word_vocabulary(filtered, STOPS | set(v1.stop_forms), IngestParams(top_stop=0))
    assert v1.forms == v2.forms
    assert np.array_equal(v1.freqs, v2.freqs)


def test_vocabulary_filter_restriction_idempotent():
    rng = np.random.default_rng(2)
    words = [f"word{i:03d}" for i in range(50)]
    stream = list(rng.choice(words, size=4000))
    v1 = build_word_vocabulary(Counter(stream), STOPS, IngestParams())
    once = [t for t in stream if t in v1.index]
    twice = [t for t in once if t in v1.index]
    assert once == twice


# --- token streams -----------------------------------------------------------


def _batch(doc_records, doc_tokens, bounds=None):
    """``(doc_id, pieces, slots)`` documents with the equation records
    ``doc_records`` (``(doc_id, records)`` pairs), numbered in the batches
    ``bounds`` cuts (one by default) and merged, as ingest does."""
    records = dict(doc_records)
    prepared = [(doc_id, pieces, slots, records[doc_id], 0) for doc_id, pieces, slots in doc_tokens]
    bounds = bounds or [0, len(prepared)]
    return merge_batches([intern_prepared(prepared[a:b]) for a, b in zip(bounds, bounds[1:])])


def _streams(doc_tokens, vocab, doc_gids):
    """The streams of ``(doc_id, pieces, slots)`` documents whose local
    equations are the global ones ``doc_gids[doc_id]`` (-1 for an equation
    dropped by singleton sampling)."""
    doc_records = [(d, [EquationRecord(e, "x", 1) for e in range(len(doc_gids.get(d, [])))]) for d, _, _ in doc_tokens]
    gid = np.array([g for d, _, _ in doc_tokens for g in doc_gids.get(d, [])], dtype=np.int64)
    return _batch(doc_records, doc_tokens).encode(vocab, gid)


def _mini_vocab():
    return corpus.Vocabulary(
        kind="word",
        forms=["model", "layer"],
        freqs=np.array([5, 4], dtype=np.int64),
    )


def test_stream_mapping():
    vocab = _mini_vocab()
    streams = _streams([("d", [["the", "model"], []], [0])], vocab, {"d": [3]})
    codes = streams[0].codes
    assert codes[0] == GAP  # out-of-vocabulary word
    assert codes[1] == vocab.index["model"]
    assert codes[2] == encode_equation(3)


def test_all_gap_document():
    vocab = _mini_vocab()
    streams = _streams([("d", [["zz", "qq"]], [])], vocab, {})
    assert (streams[0].codes == GAP).all()


def test_dropped_equation_slot_is_gap():
    # register_equations gives the rows of sampled-out equations -1
    vocab = _mini_vocab()
    streams = _streams([("d", [["model"], [], ["layer"]], [0, 1])], vocab, {"d": [-1, 4]})
    assert list(streams[0].codes) == [vocab.index["model"], GAP, encode_equation(4),
                                      vocab.index["layer"]]


def test_unknown_placeholder_is_error():
    # a slot in a document with no equations, a negative slot and one past
    # its document's equations: the error names the first stray slot's
    # document and local id, as the per-document maps did
    vocab = _mini_vocab()
    for slot, doc_gids in ((9, {"c": [0], "d": []}), (-1, {"c": [0], "d": [1, 2]}), (2, {"c": [0], "d": [1, 2]})):
        doc_tokens = [("c", [["model"], []], [0]), ("d", [[], [], []], [0 if doc_gids["d"] else slot, slot])]
        message = f"d: equation slot {slot} names no equation of the document"
        with pytest.raises(CorpusError) as got:
            _streams(doc_tokens, vocab, doc_gids)
        assert str(got.value) == message
        with pytest.raises(CorpusError) as want:
            reference_corpus.intern_words(doc_tokens, {d: dict(enumerate(g)) for d, g in doc_gids.items()})
        assert str(want.value) == message


def test_token_streams_are_a_read_only_sequence_of_views():
    table = token_streams([("a", [1, 2]), ("b", []), ("c", [int(GAP)])])
    assert len(table) == 3 and [s.doc_id for s in table] == table.doc_ids == ["a", "b", "c"]
    assert table.ptr.tolist() == [0, 2, 2, 3] and table.codes.dtype == np.uint32
    for s in table:  # every row's codes are a view of the one code array
        assert s.codes.base is table.codes and s.codes.dtype == np.uint32
    assert table[np.int64(0)].codes.tolist() == [1, 2] and table[1].codes.tolist() == []
    assert table[-1].doc_id == "c" and table[-1].codes.tolist() == [int(GAP)]
    for i in (3, -4, 2**70):
        with pytest.raises(IndexError):
            table[i]
    for i in ("0", 1.0, None):
        with pytest.raises(TypeError):
            table[i]
    with pytest.raises(AttributeError):
        table[0].codes = np.zeros(2, dtype=np.uint32)
    assert len(token_streams([])) == 0 and list(token_streams([])) == []


def test_registry_rows_are_built_from_its_columns():
    registry = EquationRegistry(["a", "b^2"], [3, 1])
    assert len(registry) == len(registry.records) == 2 and registry.counts.dtype == np.int64
    assert list(registry.records) == [EquationRecord(0, "a", 3), EquationRecord(1, "b^2", 1)]
    assert registry.records[-1] == EquationRecord(1, "b^2", 1)
    with pytest.raises(IndexError):
        registry.records[2]


_LATEX = st.integers(0, 11).map(lambda i: f"x_{{{i}}}")
_WORD = st.sampled_from(["model", "layer", "lda", "the", "zz", "qq"])
# Small enough that the drawn corpora keep some forms, drop others as too
# rare, too short, a stopword or a frequency stop form, and hold documents
# with no word in the vocabulary.
_SELECT = IngestParams(min_tf=2, min_len=4, top_stop=1, abbrev_top=1)


@st.composite
def _prepared_docs(draw, stray_slots=False):
    """Per-document equation records and tokens, as ``_prepare_document``
    gives them, in doc_id order, and the bounds of consecutive batches over
    them (empty batches included): LaTeX repeats across documents, and an
    equation's count is often 1.  With ``stray_slots`` a slot may name an
    equation its document does not have: a negative id, or one past its
    equations."""
    doc_records, doc_tokens = [], []
    for d in range(draw(st.integers(0, 6))):
        latex = draw(st.lists(_LATEX, unique=True, max_size=5))
        records = [EquationRecord(i, form, draw(st.sampled_from([1, 1, 2, 3]))) for i, form in enumerate(latex)]
        low, top = (-1, len(latex)) if stray_slots else (0, len(latex) - 1)
        slots = draw(st.lists(st.integers(low, top), max_size=6)) if top >= low else []
        pieces = draw(st.lists(st.lists(_WORD, max_size=4), min_size=len(slots) + 1, max_size=len(slots) + 1))
        doc_records.append((f"d{d}", records))
        doc_tokens.append((f"d{d}", pieces, slots))
    n = len(doc_tokens)
    return doc_records, doc_tokens, [0, *sorted(draw(st.lists(st.integers(0, n), max_size=4))), n]


@settings(max_examples=300, deadline=None)
@given(_prepared_docs(), st.integers(0, 3), st.integers(0, 2**32 - 1))
@example(([("d0", [EquationRecord(0, "a", 1), EquationRecord(1, "b", 1)]), ("d1", [EquationRecord(0, "x + y", 1)])],
          [("d0", [["model"], [], ["zz"]], [0, 1]), ("d1", [[], ["layer"]], [0])], [0, 2]), 1, 0)
@example(([("d0", [EquationRecord(0, "a", 1), EquationRecord(1, "b", 1)]), ("d1", [EquationRecord(0, "c", 1)])],
          [("d0", [["model", "model", "layer"], ["lda"], ["zz", "layer", "lda", "model"]], [0, 1]),
           ("d1", [["zz", "the"], ["qq"]], [0])], [0, 1, 2]), 1, 3)  # d1 holds no vocabulary word
@example(([("d0", [EquationRecord(0, "a", 1)]), ("d1", []), ("d2", [EquationRecord(0, "b", 2), EquationRecord(1, "a", 1)])],
          [("d0", [["model"], ["zz"]], [0]), ("d1", [["layer"]], []), ("d2", [[], ["qq"], []], [1, 0])],
          [0, 1, 1, 3]), 0, 0)  # a document without equations, an empty batch, a repeat across batches
def test_columnar_registry_and_streams_match_per_record_oracles(prepared, singleton_sample, seed):
    # registry, singleton sampling and compaction, then the vocabulary and
    # the streams, as ingest runs them on batches merged in order
    doc_records, doc_tokens, bounds = prepared
    batch = _batch(doc_records, doc_tokens, bounds)
    registry, gid = corpus.register_equations(batch, IngestParams(singleton_sample=singleton_sample, seed=seed))

    want, want_maps = reference_corpus.build_equation_registry(doc_records)
    dropped = reference_corpus.sample_singletons(want, singleton_sample, seed)
    if dropped:
        want_maps, want = reference_corpus.compact_registry(want, want_maps, dropped)
    want_counts = Counter(w for _, pieces, _ in doc_tokens for piece in pieces for w in piece)
    assert batch.counts() == want_counts
    if want_counts:
        vocab = build_word_vocabulary(batch.counts(), STOPS, _SELECT)
        want_vocab = build_word_vocabulary(want_counts, STOPS, _SELECT)
        assert vocab.forms == want_vocab.forms and vocab.stop_forms == want_vocab.stop_forms
        assert vocab.freqs.tolist() == want_vocab.freqs.tolist()
    else:
        with pytest.raises(CorpusError, match="empty corpus"):
            build_word_vocabulary(batch.counts(), STOPS, _SELECT)
        vocab = _mini_vocab()
    streams = batch.encode(vocab, gid)
    want_streams = reference_corpus.build_token_streams(doc_tokens, vocab, want_maps)

    assert registry.latex == [r.latex for r in want.records]
    assert registry.counts.dtype == np.int64 and registry.counts.tolist() == [r.occurrence_count for r in want.records]
    assert list(registry.records) == want.records
    # document d's local equation e is equation row eq_ptr[d] + e
    assert batch.eq_ptr.tolist() == np.cumsum([0] + [len(r) for _, r in doc_records]).tolist()
    assert gid.dtype == np.int64 and gid.tolist() == [
        -1 if want_maps[d][e] is None else want_maps[d][e] for d, records in doc_records for e in range(len(records))]
    assert streams.doc_ids == [s.doc_id for s in want_streams]
    assert streams.ptr.tolist() == np.cumsum([0] + [len(s.codes) for s in want_streams]).tolist()
    assert streams.codes.dtype == np.uint32
    assert streams.codes.tolist() == [c for s in want_streams for c in s.codes.tolist()]


@settings(max_examples=300, deadline=None)
@given(_prepared_docs(stray_slots=True), st.integers(0, 3), st.integers(0, 2**32 - 1))
@example(([("d0", [EquationRecord(0, "a", 1)]), ("d1", [EquationRecord(0, "b", 2)]), ("d2", [])],
          [("d0", [["model", "the"], ["zz"]], [0]), ("d1", [["the"], ["layer", "model"]], [0]),
           ("d2", [["lda", "qq", "model"]], [])], [0, 1, 2, 3]), 0, 0)  # forms first seen in later batches
@example(([("d0", [EquationRecord(0, "a", 1)]), ("d1", [])],
          [("d0", [["model"], ["zz"]], [0]), ("d1", [["the"], ["layer"]], [0])], [0, 1, 2]), 0, 0)
@example(([("d0", [EquationRecord(0, "a", 1)]), ("d1", [EquationRecord(0, "b", 1)])],
          [("d0", [["model"], ["zz"]], [0]), ("d1", [["the"], ["layer"], []], [0, -1])], [0, 1, 2]), 0, 0)
def test_batched_interning_matches_the_one_pass_oracle(batched, singleton_sample, seed):
    # documents numbered in consecutive batches and merged, as ingest
    # workers' results are, against numbering all words in one pass
    doc_records, doc_tokens, bounds = batched
    batch = _batch(doc_records, doc_tokens, bounds)
    _, gid = corpus.register_equations(batch, IngestParams(singleton_sample=singleton_sample, seed=seed))
    want, want_maps = reference_corpus.build_equation_registry(doc_records)
    dropped = reference_corpus.sample_singletons(want, singleton_sample, seed)
    if dropped:
        want_maps, want = reference_corpus.compact_registry(want, want_maps, dropped)
    counts = batch.counts()
    vocab = build_word_vocabulary(counts, STOPS, _SELECT) if counts else _mini_vocab()
    try:
        words = reference_corpus.intern_words(doc_tokens, want_maps)
    except CorpusError as e:
        with pytest.raises(CorpusError) as got:
            batch.encode(vocab, gid)
        assert str(got.value) == str(e)
        return
    assert batch.forms == words.forms and batch.ids.dtype == np.int32
    assert counts == words.counts()
    if counts:
        want_vocab = build_word_vocabulary(words.counts(), STOPS, _SELECT)
        assert vocab.forms == want_vocab.forms and vocab.stop_forms == want_vocab.stop_forms
    streams, want_streams = batch.encode(vocab, gid), words.encode(vocab)
    assert streams.doc_ids == want_streams.doc_ids
    assert streams.ptr.tolist() == want_streams.ptr.tolist()
    assert streams.codes.tolist() == want_streams.codes.tolist()


def test_merged_batches_keep_each_documents_records(monkeypatch):
    docs = [RawDocument(f"d{i}", f"word{'s' * i} alpha $$x^{i}$$ beta $$y$$ \\begin{{equation}}") for i in range(5)]
    whole = corpus._prepare_batch(docs)  # one run of positions
    monkeypatch.setattr(corpus, "_INTERN_RUN", 3)  # runs that end inside and between documents
    merged = merge_batches([corpus._prepare_batch(docs[a:b]) for a, b in ((0, 2), (2, 2), (2, 5))])
    assert merged.doc_ids == whole.doc_ids == [d.doc_id for d in docs]
    assert merged.eq_latex == whole.eq_latex == [x for i in range(5) for x in (f"x^{i}", "y")]
    assert merged.eq_counts.tolist() == whole.eq_counts.tolist() == [1] * 10
    assert merged.eq_ptr.tolist() == whole.eq_ptr.tolist() == list(range(0, 11, 2))
    assert merged.skipped == whole.skipped == 5
    assert merged.forms == whole.forms and merged.ids.tolist() == whole.ids.tolist()
    assert merged.ptr.tolist() == whole.ptr.tolist() and merged.slots.tolist() == whole.slots.tolist()


def test_window_classes_word_vs_equation_context():
    # a word two positions from an equation: the equation is outside the
    # word window but inside the word-equation window
    from eqvec.model import ModelConfig
    from eqvec.passes import compile_pass

    from .conftest import corpus_from_streams, plan_positions

    vocab = _mini_vocab()
    streams = _streams([("d", [["model", "layer"], []], [0])], vocab, {"d": [7]})
    data = corpus_from_streams(streams, len(vocab), n_equations=8)

    def context_of_model(eq_window, pass_name):
        cfg = ModelConfig(word_window=4, eq_window=eq_window)
        plan = plan_positions(compile_pass(data, cfg, pass_name), pass_name)
        return next(ctx for cls, t, ctx in plan if (cls, t) == ("word", vocab.index["model"]))

    words_near = [i for c, i in context_of_model(4, "word") if c == "word"]
    eqs_near_small = [i for c, i in context_of_model(4, "equation") if c == "eq"]
    eqs_near_large = [i for c, i in context_of_model(16, "equation") if c == "eq"]
    assert list(words_near) == [vocab.index["layer"]]
    assert list(eqs_near_small) == [7]  # distance 2 is inside a size-4 window
    assert list(eqs_near_large) == [7]


# --- held-out sets -----------------------------------------------------------


def _heldout_fixture(seed=0, per_equation=2, window=4, n_negatives=6):
    # one equation with four in-vocabulary neighbors on each occurrence
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    vocab = corpus.Vocabulary(
        kind="word", forms=words, freqs=np.full(len(words), 20, dtype=np.int64)
    )
    codes = np.array(
        [0, 1, encode_equation(0), 2, 3, 5, 5, 1, encode_equation(0), 4, 0, 5],
        dtype=np.uint32,
    )
    streams = token_streams([("d", codes)])
    params = IngestParams(heldout_per_equation=per_equation, heldout_window=window, n_negatives=n_negatives, seed=seed)
    return vocab, streams, build_heldout(streams, len(words), params)


def test_heldout_shape_and_counts():
    vocab, streams, (valid, test, skipped) = _heldout_fixture()
    assert skipped == 0
    assert len(valid) == 2 and len(test) == 2
    assert (valid.split, test.split) == ("validation", "test")
    for item in heldout_items(valid) + heldout_items(test):
        classes = [cls for cls, _ in item.context]
        assert classes.count("eq") == 1
        assert classes[-1] == "eq"
        assert len(item.context) <= 4
        assert item.target not in item.negatives
        assert ("word", item.target) not in item.context
        assert len(item.negatives) == 6


def test_heldout_deterministic():
    _, _, first = _heldout_fixture(seed=3)
    _, _, second = _heldout_fixture(seed=3)
    assert first[:2] == second[:2]
    _, _, third = _heldout_fixture(seed=4)
    assert first[0] != third[0]


def test_heldout_skips_small_contexts():
    vocab = corpus.Vocabulary(
        kind="word", forms=["alpha"], freqs=np.array([5], dtype=np.int64)
    )
    codes = np.array([0, encode_equation(0)], dtype=np.uint32)
    valid, test, skipped = build_heldout(
        token_streams([("d", codes)]), 1, IngestParams(heldout_per_equation=2, heldout_window=4, n_negatives=3, seed=0)
    )
    assert (len(valid), len(test), skipped) == (0, 0, 1)


def test_heldout_arithmetic():
    # per_equation items per split per eligible equation
    rng = np.random.default_rng(0)
    streams = []
    for d in range(10):
        codes = np.array(
            [0, 1, 2, 3, encode_equation(d), 0, 1, 2, 3], dtype=np.uint32
        )
        streams.append((f"doc{d}", codes))
    valid, test, skipped = build_heldout(
        token_streams(streams), 4, IngestParams(heldout_per_equation=2, heldout_window=4, n_negatives=2, seed=1)
    )
    assert skipped == 0
    assert len(valid) == 2 * 10 and len(test) == 2 * 10


# Word ids, gaps and a few equations, so that one equation often recurs
# within a window and sits at document edges.
_CODES = st.one_of(st.integers(0, 4), st.just(int(GAP)), st.integers(0, 3).map(encode_equation))
_EQ = encode_equation


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.lists(_CODES, max_size=24), max_size=5),
    st.integers(1, 3),
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
)
@example([[_EQ(0), 1, 2, _EQ(0), 3, 4], [], [0, 1, 2], [4, _EQ(1)], [_EQ(1), 2, 3, 4, 0]], 1, 4, 0)
@example([[_EQ(0), int(GAP), _EQ(0)], [1, 2, 3, 4, 0, 1]], 1, 8, 1)
def test_heldout_matches_loop_reference(stream_codes, per_equation, window, seed):
    streams = token_streams((f"d{i}", c) for i, c in enumerate(stream_codes))
    params = IngestParams(heldout_per_equation=per_equation, heldout_window=window, n_negatives=3, seed=seed)
    valid, test, skipped = build_heldout(streams, 5, params)
    assert (valid.split, test.split) == ("validation", "test")
    assert (heldout_items(valid), heldout_items(test), skipped) == reference_build_heldout(
        streams, n_words=5, per_equation=per_equation, context_window=window, n_negatives=3, seed=seed)


# --- ingest orchestration ------------------------------------------------------


def _tiny_docs():
    text1 = (
        "Modeling modeling modeling words everywhere always. "
        "$$x + y$$ found in document text. modeling words everywhere always."
    )
    text2 = (
        "Another document about modeling words everywhere always. "
        "$$x + y$$ and also $$z^2$$ appear. words words everywhere."
    )
    return [RawDocument("a", text1), RawDocument("b", text2)]


def _tiny_params(**kw):
    base = dict(
        min_tf=2, min_len=4, top_stop=0, abbrev_top=0,
        heldout_per_equation=1, heldout_window=4, n_negatives=2, seed=5,
    )
    base.update(kw)
    return IngestParams(**base)


def test_ingest_end_to_end_tiny():
    data = ingest_corpus(_tiny_docs(), _tiny_params())
    assert data.stats["documents"] == 2
    assert data.n_equations == 2
    by_latex = {r.latex: r.occurrence_count for r in data.registry.records}
    assert by_latex == {"x + y": 2, "z^2": 1}
    assert data.unit_vocab is not None and len(data.unit_vocab) > 0


def test_equation_units_is_a_read_only_mapping_over_every_equation_id():
    table = equation_units([[3, 5], [], [4], [0, 1, 2]])
    assert len(table) == 4 and list(table) == list(table.keys()) == [0, 1, 2, 3]
    assert np.array_equal(table[0], [3, 5]) and np.array_equal(table[np.int64(3)], [0, 1, 2])
    for g, row in table.items():  # every row is a view of the one id array
        assert row.base is table.ids and row.dtype == np.int64
    for key in (-1, 4, 2**70, "0", 1.0, None):
        with pytest.raises(KeyError):
            table[key]
        assert key not in table and table.get(key) is None
    with pytest.raises(TypeError):
        table[0] = np.array([1])
    # ``keys()`` compares as a set of ids, as the bench's corpus comparison reads it
    assert table.keys() == equation_units([[]] * 4).keys() == {0, 1, 2, 3}
    assert table.keys() != equation_units([[]] * 3).keys()
    assert table.ptr.tolist() == [0, 2, 2, 3, 6] and table.ids.tolist() == [3, 5, 4, 0, 1, 2]


@pytest.mark.parametrize("ids", [[-1], [0, -2, 1]])
def test_equation_units_refuses_a_negative_id(ids):
    # a table in the gap convention (-1 for a unit below unit_min_count) would
    # read the last unit row for each gap
    with pytest.raises(ValueError, match=f"unit id {min(ids)} is negative"):
        EquationUnits([0, len(ids)], ids)


def test_ingest_parallel_merge_matches_serial():
    serial = ingest_corpus(_tiny_docs(), _tiny_params(workers=1))
    parallel = ingest_corpus(_tiny_docs(), _tiny_params(workers=2))
    assert serial.word_vocab.forms == parallel.word_vocab.forms
    assert [r.latex for r in serial.registry.records] == [
        r.latex for r in parallel.registry.records
    ]
    for s, p in zip(serial.streams, parallel.streams):
        assert s.doc_id == p.doc_id
        assert np.array_equal(s.codes, p.codes)
    assert serial.heldout_valid == parallel.heldout_valid


def test_ingest_peak_memory_is_bounded_per_stream_position():
    # words become ids a few thousand positions at a time, so no string
    # per word of the corpus is alive at once: a few bytes per position
    # (ids, codes, masks) plus the documents in flight
    docs = planted_corpus(2000).documents
    ingest_corpus(docs[:20], IngestParams())  # imports and stopwords outside the trace
    tracemalloc.start()
    try:
        data = ingest_corpus(docs, IngestParams())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * len(data.streams.codes), (peak, len(data.streams.codes))


@pytest.mark.parametrize("marker", ["\u27e6eq:0\u27e7", "\u27e6eq:9\u27e7"])
def test_literal_placeholder_text_is_prose(marker):
    # text that looks like an equation slot stays prose: no slot, no error,
    # no extra occurrence
    clean = ingest_corpus(_tiny_docs(), _tiny_params())
    docs = [RawDocument(d.doc_id, d.source_text.replace("found", f"found {marker}")
                        .replace("appear", f"{marker} appear")) for d in _tiny_docs()]
    assert all(marker in d.source_text for d in docs)
    data = ingest_corpus(docs, _tiny_params())
    assert [(r.latex, r.occurrence_count) for r in data.registry.records] == [
        (r.latex, r.occurrence_count) for r in clean.registry.records
    ]
    for s, c in zip(data.streams, clean.streams):
        eq_codes = s.codes[(s.codes != GAP) & (s.codes >= corpus.EQ_TAG)]
        assert list(eq_codes) == list(c.codes[(c.codes != GAP) & (c.codes >= corpus.EQ_TAG)])
        assert len(s.codes) == len(c.codes) + 1  # the marker's "eq" is one word
    _, pieces, slots, _, _ = corpus._prepare_document(docs[0])
    assert slots == [0]
    assert pieces[1][:3] == ["found", "eq", "in"]


def test_ingest_params_validation():
    for name in ("workers", "heldout_per_equation", "heldout_window", "n_negatives",
                 "symbol_window"):
        with pytest.raises(ValueError, match=name):
            IngestParams(**{name: 0}).validate()
    for name in ("min_tf", "min_len", "top_stop", "abbrev_top", "unit_min_count",
                 "singleton_sample", "seed"):
        with pytest.raises(ValueError, match=name):
            IngestParams(**{name: -1}).validate()
        IngestParams(**{name: 0}).validate()
    with pytest.raises(ValueError, match="heldout_window"):
        ingest_corpus(_tiny_docs(), _tiny_params(heldout_window=-3))


def test_duplicate_doc_ids_rejected():
    docs = [RawDocument("a", "text one"), RawDocument("a", "text two")]
    with pytest.raises(CorpusError, match="duplicate"):
        ingest_corpus(docs, _tiny_params())


def test_singleton_sampling_keeps_repeated_equations():
    params = _tiny_params(singleton_sample=0)
    full = ingest_corpus(_tiny_docs(), params)
    assert full.n_equations == 2
    # z^2 is the only singleton; sampling one keeps both equations
    sampled = ingest_corpus(_tiny_docs(), _tiny_params(singleton_sample=1))
    assert sampled.n_equations == 2


def test_ingest_makes_no_generator_draw(monkeypatch, tmp_path):
    # held-out sets and singleton sampling read the raw PCG64 stream only
    docs = planted_corpus(n_docs=48, seed=3).documents
    params = IngestParams(seed=5, singleton_sample=3)
    bundle.save_bundle(ingest_corpus(docs, params), str(tmp_path / "want"))

    def refuse(*args, **kwargs):
        raise AssertionError("np.random.Generator used")

    monkeypatch.setattr(np.random, "Generator", refuse)
    data = ingest_corpus(docs, params)
    assert data.stats["equations"] < ingest_corpus(docs, IngestParams(seed=5)).stats["equations"]
    assert len(data.heldout_valid) > 0
    bundle.save_bundle(data, str(tmp_path / "got"))
    files = sorted(p.name for p in (tmp_path / "want").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "got").iterdir())
    assert all((tmp_path / "want" / f).read_bytes() == (tmp_path / "got" / f).read_bytes() for f in files)
