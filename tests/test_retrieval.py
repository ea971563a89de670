"""Ranking exactness against brute-force scorers and the whole-matrix
oracle scan, metric invariances."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqvec import model as model_mod
from eqvec import retrieval
from eqvec.corpus import EquationUnits, Vocabulary
from eqvec.model import EmbeddingTable, Model, ModelConfig, RowStats
from eqvec.modelfile import load_model, save_model
from eqvec.retrieval import METRICS, _rank, _scores, equations_for_words, nearest_equations, nearest_words

from .reference_model import reference_rank, reference_scores


def planted_model(seed=0, n_eq=20, n_words=30, k=6, clusters=2):
    """Equation vectors in well-separated clusters; returns model + labels."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(clusters, k)) * 5.0
    labels = np.arange(n_eq) % clusters
    eq_alpha = centers[labels] + rng.normal(size=(n_eq, k)) * 0.2
    eq_rho = centers[labels] + rng.normal(size=(n_eq, k)) * 0.2
    word = EmbeddingTable(n_words, k, rng.bit_generator, 0.5)
    eq = EmbeddingTable.from_arrays(eq_rho, eq_alpha)
    return Model("equation", ModelConfig(k=k), word, eq=eq), labels


def brute_force_euclidean(matrix, query_vec, exclude, k):
    scored = []
    for i in range(len(matrix)):
        if i == exclude:
            continue
        d = math.sqrt(math.fsum((float(a) - float(b)) ** 2 for a, b in zip(matrix[i], query_vec)))
        scored.append((i, d))
    scored.sort(key=lambda p: (p[1], p[0]))
    return scored[:k]


def brute_force_cosine(matrix, query_vec, k):
    qn = math.sqrt(math.fsum(float(v) ** 2 for v in query_vec))
    scored = []
    for i in range(len(matrix)):
        norm = math.sqrt(math.fsum(float(v) ** 2 for v in matrix[i]))
        if norm == 0 or qn == 0:
            c = -math.inf
        else:
            c = math.fsum(float(a) * float(b) for a, b in zip(matrix[i], query_vec)) / (norm * qn)
        scored.append((i, c))
    scored.sort(key=lambda p: (-p[1], p[0]))
    return scored[:k]


def test_nearest_equations_matches_brute_force():
    model, _ = planted_model()
    matrix = model.eq.alpha
    for q in range(0, 20, 3):
        got = nearest_equations(model, q, 7).hits
        want = brute_force_euclidean(matrix, matrix[q], q, 7)
        assert [i for i, _ in got] == [i for i, _ in want]
        assert np.allclose([s for _, s in got], [s for _, s in want], atol=1e-9)


def test_self_duplicate_ranks_first_with_distance_zero():
    model, _ = planted_model()
    model.eq.alpha[7] = model.eq.alpha[3]
    hits = nearest_equations(model, 3, 5).hits
    assert hits[0] == (7, 0.0)
    assert all(i != 3 for i, _ in hits)


def test_k_larger_than_index_returns_all_but_query():
    model, _ = planted_model(n_eq=6)
    hits = nearest_equations(model, 0, 100).hits
    assert len(hits) == 5


def test_planted_clusters_top5_purity():
    model, labels = planted_model()
    for q in range(20):
        hits = nearest_equations(model, q, 5).hits
        assert all(labels[i] == labels[q] for i, _ in hits)


def test_tie_order_is_ascending_id():
    rng = np.random.default_rng(1)
    word = EmbeddingTable(4, 3, rng.bit_generator, 0.5)
    eq_alpha = np.zeros((6, 3))
    eq_alpha[1] = eq_alpha[4] = (1.0, 0.0, 0.0)  # exact ties
    eq_alpha[2] = eq_alpha[3] = eq_alpha[5] = (0.0, 2.0, 0.0)
    model = Model("equation", ModelConfig(k=3), word,
                  eq=EmbeddingTable.from_arrays(np.zeros((6, 3)), eq_alpha))
    hits = nearest_equations(model, 0, 5).hits
    assert [i for i, _ in hits] == [1, 4, 2, 3, 5]


def test_nearest_words_matches_brute_force_and_ranks_parallel_first():
    rng = np.random.default_rng(2)
    k = 4
    word_alpha = rng.normal(size=(10, k))
    eq_rho = np.zeros((1, k))
    eq_rho[0] = (1.0, 0.0, 0.0, 0.0)
    word_alpha[6] = (3.0, 0.0, 0.0, 0.0)  # parallel to rho_e
    word_alpha[2] = (0.0, 1.0, 0.0, 0.0)  # orthogonal
    word_alpha[4] = 0.0  # zero norm sinks
    word = EmbeddingTable.from_arrays(np.zeros((10, k)), word_alpha)
    model = Model("equation", ModelConfig(k=k), word,
                  eq=EmbeddingTable.from_arrays(eq_rho, np.zeros((1, k))))
    got = nearest_words(model, 0, 10)
    want = brute_force_cosine(word_alpha, eq_rho[0], 10)
    assert [i for i, _ in got.hits] == [i for i, _ in want]
    assert got.hits[0][0] == 6
    assert got.hits[0][1] == pytest.approx(1.0, abs=1e-12)
    by_id = dict(got.hits)
    assert by_id[2] == pytest.approx(0.0, abs=1e-12)
    assert got.hits[-1][0] == 4 and got.hits[-1][1] == -math.inf


def test_cosine_ranking_scale_invariant():
    model, _ = planted_model(seed=5)
    base = nearest_words(model, 2, 30).hits
    model.eq.rho[2] *= 7.5  # positive scaling of the query vector
    scaled = nearest_words(model, 2, 30).hits
    assert [i for i, _ in base] == [i for i, _ in scaled]


def test_euclidean_ranking_rotation_invariant():
    # a model's tables are not written once it has been queried: the rotation gets its own model
    model, _ = planted_model(seed=6)
    rotated, _ = planted_model(seed=6)
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    rotated.eq.alpha[...] = rotated.eq.alpha @ q
    base = [i for i, _ in nearest_equations(model, 1, 19).hits]
    assert base == [i for i, _ in nearest_equations(rotated, 1, 19).hits]


@pytest.mark.parametrize("k", [0, -1, -100])
def test_k_below_one_is_an_error(k):
    model, _ = planted_model()
    vocab = word_vocab(f"word{i:02d}" for i in range(30))
    for query in (
        lambda: nearest_equations(model, 0, k),
        lambda: nearest_words(model, 0, k),
        lambda: equations_for_words(model, vocab, ["word01"], k),
    ):
        with pytest.raises(ValueError, match="k must be at least 1"):
            query()


def test_unknown_equation_id_errors():
    model, _ = planted_model()
    with pytest.raises(IndexError):
        nearest_equations(model, 99, 5)
    with pytest.raises(IndexError):
        nearest_words(model, -1, 5)


# --- word queries ------------------------------------------------------------------


def word_vocab(forms):
    forms = list(forms)
    return Vocabulary(kind="word", forms=forms, freqs=np.full(len(forms), 10, dtype=np.int64))


def test_single_word_query_equals_direct_rho():
    model, _ = planted_model(seed=8)
    vocab = word_vocab(f"word{i:02d}" for i in range(30))
    single = equations_for_words(model, vocab, ["word03"], 6)
    direct = brute_force_cosine(model.eq.rho, model.word.rho[3], 6)
    assert [i for i, _ in single.hits] == [i for i, _ in direct]


def test_duplicate_words_equal_single():
    model, _ = planted_model(seed=8)
    vocab = word_vocab(f"word{i:02d}" for i in range(30))
    a = equations_for_words(model, vocab, ["word03", "word03"], 5)
    b = equations_for_words(model, vocab, ["word03"], 5)
    assert a.hits == b.hits


def test_unknown_words_dropped_all_unknown_errors():
    model, _ = planted_model(seed=8)
    vocab = word_vocab(f"word{i:02d}" for i in range(30))
    r = equations_for_words(model, vocab, ["word01", "nope"], 5)
    assert r.dropped == ["nope"]
    with pytest.raises(ValueError):
        equations_for_words(model, vocab, ["nope", "nada"], 5)


def test_vectors_flag_switches_matrix():
    model, _ = planted_model(seed=9)
    vocab = word_vocab(f"word{i:02d}" for i in range(30))
    via_rho = equations_for_words(model, vocab, ["word01"], 20, vectors="rho")
    via_alpha = equations_for_words(model, vocab, ["word01"], 20, vectors="alpha")
    want_alpha = brute_force_cosine(model.eq.alpha, model.word.rho[1], 20)
    assert [i for i, _ in via_alpha.hits] == [i for i, _ in want_alpha]
    assert via_rho.hits != via_alpha.hits


@pytest.mark.parametrize("vectors", ["word", "", "beta", "RHO"])
def test_word2eq_vectors_other_than_rho_or_alpha_are_an_error(vectors, monkeypatch):
    # "word" would scan the word feature matrix and return word ids as
    # equation hits; the check comes before any scan
    model, _ = planted_model(seed=9, n_eq=20, n_words=30)
    vocab = word_vocab(f"word{i:02d}" for i in range(30))
    scans = []
    real = Model.scan
    monkeypatch.setattr(Model, "scan", lambda self, kind: scans.append(kind) or real(self, kind))
    with pytest.raises(ValueError, match="vectors must be 'rho' or 'alpha'"):
        equations_for_words(model, vocab, ["word01"], 5, vectors=vectors)
    assert scans == []
    assert equations_for_words(model, vocab, ["word01"], 5, vectors=None).hits == \
        equations_for_words(model, vocab, ["word01"], 5, vectors="rho").hits


def test_metric_override():
    model, _ = planted_model(seed=10)
    r = nearest_equations(model, 0, 5, metric="cosine")
    assert r.metric == "cosine"
    want = brute_force_cosine(model.eq.alpha, model.eq.alpha[0], 6)
    want = [(i, s) for i, s in want if i != 0][:5]
    assert [i for i, _ in r.hits] == [i for i, _ in want]


# --- the row-local scan against the whole-matrix oracle -------------------------------

_SCORE_POOL = [0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan]


@settings(max_examples=400, deadline=None)
@given(
    scores=st.lists(st.sampled_from(_SCORE_POOL) | st.floats(-3, 3), min_size=1, max_size=40),
    k=st.integers(1, 45),
    ascending=st.booleans(),
    exclude=st.none() | st.integers(0, 39),
)
@example(scores=[math.nan, 1.0, math.nan, 1.0, 1.0], k=2, ascending=True, exclude=1)
@example(scores=[-math.inf, math.nan, 0.0, -0.0, math.inf], k=1, ascending=False, exclude=None)
def test_rank_equals_full_lexsort_oracle(scores, k, ascending, exclude):
    # ties, signed zeros, ±inf and NaN; the excluded id anywhere, or past n
    scores = np.array(scores)
    got = _rank(scores, k, ascending, exclude)
    want = reference_rank(scores, k, ascending, exclude)
    assert [i for i, _ in got] == [i for i, _ in want]
    assert np.array([s for _, s in got]).tobytes() == np.array([s for _, s in want]).tobytes()


def _special_rows(kinds, k, rng):
    rows = rng.normal(size=(len(kinds), k))
    for r, kind in zip(rows, kinds):
        col = int(rng.integers(k))
        if kind == "nan":
            r[col] = math.nan
        elif kind in ("+inf", "-inf"):
            r[col] = math.inf if kind == "+inf" else -math.inf
        elif kind == "±inf":
            r[:2] = (math.inf, -math.inf)
        elif kind == "zero":
            r[:] = 0.0
        elif kind == "huge":  # finite, but its squared norm overflows
            r *= 1e200
    return rows


@settings(max_examples=300, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["finite", "nan", "+inf", "-inf", "±inf", "zero", "huge"]), min_size=1,
                   max_size=70),
    k=st.integers(2, 9),
    query_kind=st.sampled_from(["finite", "zero", "huge", "row"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(kinds=["finite"] * 300 + ["nan", "zero", "huge", "±inf"] * 3, k=25, query_kind="finite", seed=3)
def test_scores_bitwise_equal_zero_filled_oracle(kinds, k, query_kind, seed):
    rng = np.random.default_rng(seed)
    matrix = _special_rows(kinds, k, rng)
    query = {
        "finite": rng.normal(size=k),
        "zero": np.zeros(k),
        "huge": rng.normal(size=k) * 1e200,
        "row": matrix[int(rng.integers(len(kinds)))].copy(),  # a query as eq2eq takes it, finite or not
    }[query_kind]
    for metric in ("euclidean", "cosine"):
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf where a non-finite row meets one
            got = _scores(matrix, query, metric, RowStats(matrix))
            want = reference_scores(matrix, query, metric)
        assert got.tobytes() == want.tobytes(), metric


def test_row_stats_computed_on_first_read_and_overflowing_rows_stay_finite(monkeypatch):
    # a Euclidean scan reads only ``nonfinite``, so no norm is computed for
    # it; a finite row whose sum (and squared norm) overflows is searched
    # and stays finite, whichever scan comes first, and every score is the
    # zero-filled oracle's
    big = np.finfo(np.float64).max / 2
    matrix = np.array([[1.0, 2.0, 3.0], [big, big, big], [1.0, np.inf, 0.0], [np.nan, 0.0, 1.0], [0.0, 0.0, 0.0],
                       [-big, -big, 1.0]])
    stats = RowStats(matrix)
    query = np.array([0.5, -1.0, 2.0])
    with np.errstate(over="ignore", invalid="ignore"):
        euclidean = _scores(matrix, query, "euclidean", stats)
        assert "norms" not in vars(stats) and "cosine_worst" not in vars(stats)
        cosine = _scores(matrix, query, "cosine", stats)
        assert euclidean.tobytes() == reference_scores(matrix, query, "euclidean").tobytes()
        assert cosine.tobytes() == reference_scores(matrix, query, "cosine").tobytes()
    assert stats.nonfinite.tolist() == [False, False, True, True, False, False]
    assert stats.cosine_worst.tolist() == [False, False, True, True, True, False]
    first_cosine = RowStats(matrix)  # its non-finite rows are searched among those of non-finite norm
    with np.errstate(over="ignore", invalid="ignore"):
        assert _scores(matrix, query, "cosine", first_cosine).tobytes() == cosine.tobytes()
    assert first_cosine.nonfinite.tolist() == stats.nonfinite.tolist()


@settings(max_examples=100, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["finite", "nan", "+inf", "zero", "huge"]), min_size=1, max_size=40),
    k=st.integers(1, 9),
    block=st.integers(1, 8),
    strided=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_euclidean_scan_in_row_blocks_equals_oracle(kinds, k, block, strided, seed):
    # blocks that end mid-matrix, a last block shorter than the rest, and a
    # matrix whose rows are not contiguous (every other column of a wider one)
    rng = np.random.default_rng(seed)
    rows = _special_rows(kinds, 2 * k if strided else k, rng)
    matrix = rows[:, ::2] if strided else rows
    query = rng.normal(size=k)
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(retrieval, "_SCAN_BLOCK", block)
        got = _scores(matrix, query, "euclidean", RowStats(matrix))
        want = reference_scores(matrix, query, "euclidean")
    assert got.tobytes() == want.tobytes()


# --- warm queries against cold ones ---------------------------------------------------------


def _saved_models(tmp_path):
    """Paths of an equation model and a unit model, and the unit model's
    ``EquationUnits``.  Each scanned matrix has a zero row; the unit model's
    equation 4 is untokenizable (a NaN row), and equation 1 is the mean of
    the zero unit 3 (a zero row)."""
    rng = np.random.default_rng(11)
    k, n_words, n_eq = 5, 12, 9
    word = rng.normal(size=(2, n_words, k))
    word[1, 4] = 0.0  # a zero word feature vector
    eq = rng.normal(size=(2, n_eq, k))
    eq[0, 2] = eq[1, 5] = 0.0
    unit = rng.normal(size=(2, 7, k))
    unit[:, 3] = 0.0
    units = [[3] if e == 1 else [] if e == 4 else rng.choice([0, 1, 2, 4, 5, 6], 1 + e % 3).tolist()
             for e in range(n_eq)]
    eq_units = EquationUnits(np.cumsum([0] + [len(u) for u in units]), [i for u in units for i in u])
    cfg = ModelConfig(k=k)
    models = {
        "equation": Model("equation", cfg, EmbeddingTable.from_arrays(*word), eq=EmbeddingTable.from_arrays(*eq)),
        "unit": Model("unit", cfg, EmbeddingTable.from_arrays(*word), unit=EmbeddingTable.from_arrays(*unit),
                      eq_units=eq_units, n_equations=n_eq),
    }
    return {mode: save_model(m, str(tmp_path / f"{mode}.eqv")) for mode, m in models.items()}, eq_units


def _answer(model, vocab, family, arg, metric):
    """A query's hits and the bytes of their scores, or its error."""
    try:
        if family == "eq2eq":
            r = nearest_equations(model, arg, 20, metric)
        elif family == "eq2word":
            r = nearest_words(model, arg, 20, metric)
        else:
            vectors, words = arg
            r = equations_for_words(model, vocab, words, 20, metric, vectors=vectors)
    except ValueError as e:
        return str(e)
    return [i for i, _ in r.hits], np.array([s for _, s in r.hits]).tobytes()


@pytest.mark.parametrize("mode", ["equation", "unit"])
def test_warm_queries_equal_cold_ones(mode, tmp_path, monkeypatch):
    paths, eq_units = _saved_models(tmp_path)
    vocab = word_vocab(f"w{i}" for i in range(12))
    queries = [(family, e, metric) for family in ("eq2eq", "eq2word") for e in range(9) for metric in METRICS]
    queries += [("word2eq", (vectors, words), metric) for vectors in ("rho", "alpha")
                for words in (["w0", "w4"], ["w4"], ["w7", "w2", "w3"]) for metric in METRICS]
    scanned = []
    stats_of = model_mod.RowStats
    monkeypatch.setattr(model_mod, "RowStats", lambda matrix: scanned.append(matrix) or stats_of(matrix))
    cold_models = [load_model(paths[mode], eq_units=eq_units) for _ in queries]
    cold = [_answer(m, vocab, *q) for m, q in zip(cold_models, queries)]
    warm_model = load_model(paths[mode], eq_units=eq_units)
    first = [_answer(warm_model, vocab, *q) for q in queries]
    again = [_answer(warm_model, vocab, *q) for q in queries]
    assert first == again == cold
    untokenizable = [q for q, a in zip(queries, cold) if isinstance(a, str)]
    assert untokenizable == ([("eq2eq", 4, m) for m in METRICS] + [("eq2word", 4, m) for m in METRICS]
                             if mode == "unit" else [])
    # each (model, matrix) pair's statistics are computed once, on its first scan; an eq2word
    # query on an untokenizable equation fails before its scan
    assert len({id(m) for m in scanned}) == len(scanned) == len(queries) - len(untokenizable) // 2 + 3
    assert all(any(m is w for m in scanned) for w in (warm_model.scan(kind)[0] for kind in ("word", "alpha", "rho")))
