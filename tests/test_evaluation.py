"""Held-out scores against direct-arithmetic oracles; stopping rule; grid."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqvec import evaluation
from eqvec.evaluation import StopDecision, early_stopping_controller, evaluate_split
from eqvec.model import MODES, EmbeddingTable, Model, ModelConfig

from .conftest import Item, equation_units, heldout_set
from .reference_model import reference_predictive_ll, reference_pseudo_ll


def item(target, ctx_words, eq_id, negatives):
    return Item(target, [("word", w) for w in ctx_words] + [("eq", eq_id)], list(negatives), eq_id=eq_id)


def predictive_log_likelihood(it, model):
    """The predictive score of one item: the mean over a one-row set."""
    return evaluation.mean_predictive_ll(heldout_set([it]), model)


def pseudo_log_likelihood(it, model):
    """The pseudo score of one item: the mean over a one-row set."""
    return evaluate_split(heldout_set([it]), model, "validation").mean_pseudo_ll


def k2_model(word_rho, word_alpha, eq_alpha, **cfg):
    """Hand-set K=2 model with explicit matrices."""
    word = EmbeddingTable.from_arrays(np.array(word_rho, float), np.array(word_alpha, float))
    eq = EmbeddingTable.from_arrays(np.zeros_like(np.array(eq_alpha, float)), np.array(eq_alpha, float))
    return Model("equation", ModelConfig(k=2, **cfg), word, eq=eq)


FIX_RHO = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.5], [0.3, -0.2]]
FIX_ALPHA = [[0.5, 0.5], [0.2, -0.1], [0.0, 1.0], [-0.4, 0.8]]
FIX_EQ_ALPHA = [[0.25, -0.75]]


def oracle_scores(model, it):
    ctx = [model.word.alpha[i] for c, i in it.context if c == "word"]
    ctx.append(model.eq.alpha[[i for c, i in it.context if c == "eq"][0]])
    s = [math.fsum(v[d] for v in ctx) for d in range(2)]
    cand = [it.target] + list(it.negatives)
    return [math.fsum(model.word.rho[c][d] * s[d] for d in range(2)) for c in cand]


def test_predictive_matches_direct_softmax_oracle():
    model = k2_model(FIX_RHO, FIX_ALPHA, FIX_EQ_ALPHA)
    it = item(0, [1, 3], 0, [2, 3])
    z = oracle_scores(model, it)
    want = math.log(math.exp(z[0]) / math.fsum(math.exp(v) for v in z))
    got = predictive_log_likelihood(it, model)
    assert got == pytest.approx(want, abs=1e-12)


def test_pseudo_matches_direct_bernoulli_oracle():
    model = k2_model(FIX_RHO, FIX_ALPHA, FIX_EQ_ALPHA)
    it = item(1, [0, 2], 0, [3, 2])
    z = oracle_scores(model, it)
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    want = math.log(sig(z[0])) + (
        math.log(1.0 - sig(z[1])) + math.log(1.0 - sig(z[2]))
    ) / 2.0
    got = pseudo_log_likelihood(it, model)
    assert got == pytest.approx(want, abs=1e-12)


def test_pseudo_softmax_reading_flag():
    model = k2_model(FIX_RHO, FIX_ALPHA, FIX_EQ_ALPHA, pseudo_likelihood="softmax")
    it = item(1, [0, 2], 0, [3, 2])
    z = oracle_scores(model, it)
    exps = [math.exp(v) for v in z]
    p = [e / math.fsum(exps) for e in exps]
    want = math.log(p[0]) + (math.log(1 - p[1]) + math.log(1 - p[2])) / 2.0
    assert pseudo_log_likelihood(it, model) == pytest.approx(want, abs=1e-12)


def test_uniform_model_predictive_is_exact():
    # all candidate scores equal -> log(1/(n_negatives + 1)) bit-exactly
    word = EmbeddingTable.from_arrays(np.zeros((12, 2)), np.ones((12, 2)))
    eq = EmbeddingTable.from_arrays(np.zeros((1, 2)), np.ones((1, 2)))
    model = Model("equation", ModelConfig(k=2), word, eq=eq)
    for n_neg in (1, 4, 10):
        it = item(0, [1, 2], 0, list(range(1, n_neg + 1)))
        assert predictive_log_likelihood(it, model) == math.log(1.0 / (n_neg + 1))


def test_predictive_saturates_to_zero():
    rho = [[50.0, 0.0]] + [[-50.0, 0.0]] * 3
    model = k2_model(rho, FIX_ALPHA, FIX_EQ_ALPHA)
    it = item(0, [0, 1], 0, [1, 2, 3])
    assert -1e-15 < predictive_log_likelihood(it, model) <= 0.0


def test_pseudo_all_zero_dots():
    model = k2_model(np.zeros((4, 2)), FIX_ALPHA, FIX_EQ_ALPHA)
    it = item(0, [1], 0, [2, 3])
    assert pseudo_log_likelihood(it, model) == pytest.approx(-2 * math.log(2), abs=1e-12)


def test_pseudo_perfect_model_tends_to_zero():
    word = EmbeddingTable.from_arrays(
        np.array([[40.0, 0.0], [-40.0, 0.0], [-40.0, 0.0]]), np.ones((3, 2))
    )
    eq = EmbeddingTable.from_arrays(np.zeros((1, 2)), np.full((1, 2), 0.5))
    model = Model("equation", ModelConfig(k=2), word, eq=eq)
    it = item(0, [1], 0, [1, 2])
    # probabilities clamp at 1e-12, so each term contributes about -1e-12
    assert -1e-11 < pseudo_log_likelihood(it, model) <= 0.0


def test_scores_invariant_under_context_and_negative_permutation():
    model = k2_model(FIX_RHO, FIX_ALPHA, FIX_EQ_ALPHA)
    a = item(0, [1, 2, 3], 0, [2, 3, 1])
    b = Item(0, [("eq", 0), ("word", 3), ("word", 1), ("word", 2)], [1, 3, 2])
    assert predictive_log_likelihood(a, model) == pytest.approx(
        predictive_log_likelihood(b, model), abs=1e-12
    )
    assert pseudo_log_likelihood(a, model) == pytest.approx(
        pseudo_log_likelihood(b, model), abs=1e-12
    )


def test_predictive_never_positive():
    rng = np.random.default_rng(0)
    word = EmbeddingTable(20, 3, rng.bit_generator, 2.0)
    eq = EmbeddingTable(2, 3, rng.bit_generator, 2.0)
    model = Model("equation", ModelConfig(k=3), word, eq=eq)
    for _ in range(100):
        it = item(
            int(rng.integers(20)),
            list(rng.integers(0, 20, size=3)),
            int(rng.integers(2)),
            list(rng.integers(0, 20, size=5)),
        )
        assert predictive_log_likelihood(it, model) <= 0.0


def test_unknown_ids_skip_and_count():
    model = k2_model(FIX_RHO, FIX_ALPHA, FIX_EQ_ALPHA)
    good = item(0, [1], 0, [2])
    bad = item(0, [1], 5, [2])  # equation id out of range
    report = evaluate_split(heldout_set([good, bad]), model, "validation")
    assert report.n_items == 1
    assert report.n_skipped == 1


def test_word_mode_ignores_equation_context():
    word = EmbeddingTable.from_arrays(np.array(FIX_RHO, float), np.array(FIX_ALPHA, float))
    model = Model("word", ModelConfig(k=2), word, n_equations=1)
    it = item(0, [1, 2], 0, [3])
    s = np.array(FIX_ALPHA[1]) + np.array(FIX_ALPHA[2])
    z = [np.array(FIX_RHO[0]) @ s, np.array(FIX_RHO[3]) @ s]
    want = math.log(math.exp(z[0]) / (math.exp(z[0]) + math.exp(z[1])))
    assert predictive_log_likelihood(it, model) == pytest.approx(want, abs=1e-12)


def test_report_mean_is_order_independent():
    model = k2_model(FIX_RHO, FIX_ALPHA, FIX_EQ_ALPHA)
    items = [item(i % 4, [(i + 1) % 4], 0, [(i + 2) % 4, (i + 3) % 4]) for i in range(40)]
    fwd = evaluate_split(heldout_set(items), model, "validation")
    rev = evaluate_split(heldout_set(items[::-1]), model, "validation")
    assert fwd.mean_pseudo_ll == rev.mean_pseudo_ll
    assert fwd.mean_predictive_ll == rev.mean_predictive_ll


# --- batched scorer against the per-item oracle -----------------------------------


def _ids(n: int):
    """Mostly ids below ``n``; now and then -1 or ``n``, which no model knows."""
    return st.integers(0, 19).flatmap(lambda r: st.sampled_from([-1, n]) if r == 0 else st.integers(0, n - 1))


@st.composite
def scoring_cases(draw):
    """A small model of any mode and held-out items with ragged contexts and
    negatives, unknown ids and untokenizable equations."""
    mode = draw(st.sampled_from(MODES))
    k, n_words, n_eqs, n_units = (draw(st.integers(1, hi)) for hi in (4, 6, 4, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # feature vectors over five decades, so that the order of a sum shows
    spread = lambda n: rng.uniform(-2, 2, (n, k)) * 10.0 ** rng.integers(-3, 2, (n, k))
    table = lambda n: EmbeddingTable.from_arrays(rng.uniform(-1, 1, (n, k)), spread(n))
    cfg = ModelConfig(
        k=k,
        unit_context_mean=draw(st.booleans()),
        pseudo_likelihood=draw(st.sampled_from(["bernoulli", "softmax"])),
    )
    if mode == "word":
        model = Model("word", cfg, table(n_words), n_equations=n_eqs)
    elif mode == "equation":
        model = Model("equation", cfg, table(n_words), eq=table(n_eqs))
    else:
        units = st.lists(st.integers(0, n_units - 1), max_size=5)
        # now and then an equation with no units at all
        eq_units = equation_units([draw(units) if draw(_ids(2)) != 2 else [] for _ in range(n_eqs)])
        model = Model("unit", cfg, table(n_words), unit=table(n_units), eq_units=eq_units, n_equations=n_eqs)
    entry = st.one_of(
        st.tuples(st.just("word"), _ids(n_words)),
        st.tuples(st.just("word"), _ids(n_words)),
        st.tuples(st.just("eq"), _ids(n_eqs)),
        st.tuples(st.sampled_from(["word", "eq"]), st.integers(-1, 6)),
    )
    item = st.builds(Item, target=_ids(n_words), context=st.lists(entry, max_size=8),
                     negatives=st.lists(_ids(n_words), max_size=4), stream=st.just(0), position=st.just(0),
                     eq_id=st.just(0))
    return model, draw(st.lists(item, max_size=8))


def _same(got, want, exact):
    if want is None or got is None:
        return got is want
    return got == want if exact else got == pytest.approx(want, rel=1e-9, abs=1e-9)


@settings(max_examples=400, deadline=None)
@given(scoring_cases())
def test_batched_scorer_matches_per_item_oracle(case):
    model, items = case
    held = heldout_set(items)
    # the oracle sums a unit-mode equation's units before adding them to the
    # context sum; the layout adds them one by one, which rounds differently
    exact = model.mode != "unit"
    pred = [reference_predictive_ll(it, model) for it in items]
    pseudo = [reference_pseudo_ll(it, model) for it in items]
    # the batched scores come by candidate count, then in item order
    by_count = sorted(range(len(items)), key=lambda i: len(items[i].negatives))
    for score, want in ((evaluation._predictive, pred), (evaluation._pseudo, pseudo)):
        want = [want[i] for i in by_count if want[i] is not None]
        batched = evaluation._scores(held, model, score)
        assert len(batched) == len(want) and all(_same(g, w, exact) for g, w in zip(batched, want))
    for it, p, q in zip(items, pred, pseudo):  # a one-row set scores its item alone
        one = evaluate_split(heldout_set([it]), model, "validation")
        assert one.n_items == (p is not None)
        if p is not None:
            assert _same(one.mean_predictive_ll, p, exact) and _same(one.mean_pseudo_ll, q, exact)

    report = evaluate_split(held, model, "validation")
    scored = [(a, b) for a, b in zip(pred, pseudo) if a is not None]
    assert all((a is None) == (b is None) for a, b in zip(pred, pseudo))
    assert report.n_items == len(scored)
    assert report.n_skipped == len(items) - len(scored)
    if scored:
        n = len(scored)
        assert _same(report.mean_predictive_ll, math.fsum(a for a, _ in scored) / n, exact)
        assert _same(report.mean_pseudo_ll, math.fsum(b for _, b in scored) / n, exact)
        assert _same(evaluation.mean_predictive_ll(held, model), report.mean_predictive_ll, True)
    else:
        assert math.isnan(report.mean_predictive_ll) and math.isnan(report.mean_pseudo_ll)
        assert evaluation.mean_predictive_ll(held, model) == 0.0


# --- early stopping ------------------------------------------------------------


def test_controller_stops_on_decline():
    assert early_stopping_controller([-3.0, -2.0, -2.5], max_epochs=20) == StopDecision(True, 2)


def test_controller_tie_counts_as_stop():
    assert early_stopping_controller([-3.0, -3.0], max_epochs=20) == StopDecision(True, 1)


def test_controller_improving_to_cap():
    trace = [-3.0 + 0.1 * i for i in range(20)]
    assert early_stopping_controller(trace, max_epochs=20) == StopDecision(True, 20)


def test_controller_improving_below_cap_continues():
    assert early_stopping_controller([-3.0, -2.0], max_epochs=20) == StopDecision(False, 2)


def test_controller_never_returns_declining_epoch():
    rng = np.random.default_rng(3)
    for _ in range(200):
        trace = list(rng.normal(size=rng.integers(1, 25)))
        decision = early_stopping_controller(trace, max_epochs=20)
        best = decision.best_epoch
        assert 1 <= best <= min(len(trace), 20)
        if best > 1:
            assert trace[best - 1] > trace[best - 2]


def test_controller_empty_trace_errors():
    with pytest.raises(ValueError):
        early_stopping_controller([], max_epochs=20)


# --- grid ------------------------------------------------------------------------


def test_window_grid_enumeration(monkeypatch):
    from eqvec import training

    def no_fit(data, cfg, mode, word=None):  # a failed row still names its windows
        raise RuntimeError("no fit")

    monkeypatch.setattr(training, "train_model", no_fit)
    rows = evaluation.grid_select(None, ModelConfig(), ("equation", "word"), (8,), (4, 8, 16), (8, 16))
    assert [(r.mode, r.word_window, r.eq_window) for r in rows] == [
        ("equation", 4, 8), ("equation", 4, 16), ("equation", 8, 8), ("equation", 8, 16), ("equation", 16, 16),
        ("word", 4, 8), ("word", 8, 8), ("word", 16, 16),
    ]
