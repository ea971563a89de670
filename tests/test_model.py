"""Parameterizations, gradients, Adagrad, derived equation vectors."""

import math

import numpy as np
import pytest

from eqvec.model import (
    ADAGRAD_FLOOR,
    EmbeddingTable,
    FrozenTableError,
    Model,
    ModelConfig,
    Tables,
    TrainingPair,
    adagrad_rows,
    adagrad_step,
    bernoulli_param_equation,
    bernoulli_param_unit,
    bernoulli_param_word,
    bernoulli_param_word_units,
    equation_vector_from_units,
    pair_loss_and_grads,
    sigmoid,
    word_context_sum,
)


def make_tables(rng, k=5, n_words=12, n_eqs=6, n_units=9, scale=0.3):
    return Tables(
        EmbeddingTable(n_words, k, rng, scale),
        eq=EmbeddingTable(n_eqs, k, rng, scale),
        unit=EmbeddingTable(n_units, k, rng, scale),
    )


# --- sigmoid -------------------------------------------------------------------


def test_sigmoid_zero():
    assert sigmoid(0.0) == 0.5


def test_sigmoid_saturation():
    assert abs(sigmoid(50.0) - 1.0) < 1e-15
    assert sigmoid(-750.0) == 0.0  # underflows cleanly, no overflow error
    assert sigmoid(750.0) == 1.0


def test_sigmoid_symmetry():
    for x in (0.1, 1.0, 3.7, 12.0, 300.0):
        assert abs(sigmoid(x) + sigmoid(-x) - 1.0) < 1e-15


def test_sigmoid_vectorized_matches_scalar():
    xs = np.linspace(-30, 30, 101)
    vec = sigmoid(xs)
    assert np.allclose(vec, [sigmoid(float(x)) for x in xs], rtol=0, atol=1e-16)


# --- context sums ---------------------------------------------------------------


def test_word_context_sum_single_and_additive():
    rng = np.random.default_rng(0)
    t = make_tables(rng, k=2)
    t.word.alpha[3] = (1.0, 2.0)
    assert np.array_equal(word_context_sum([("word", 3)], t.word, t.eq), [1.0, 2.0])
    t.word.alpha[4] = (1.0, 0.0)
    t.eq.alpha[1] = (0.0, 1.0)
    got = word_context_sum([("word", 4), ("eq", 1)], t.word, t.eq)
    assert np.array_equal(got, [1.0, 1.0])


def test_empty_context_sum_is_zero_vector():
    rng = np.random.default_rng(0)
    t = make_tables(rng, k=3)
    assert np.array_equal(word_context_sum([], t.word, t.eq), np.zeros(3))


def test_context_sum_out_of_range_errors():
    rng = np.random.default_rng(0)
    t = make_tables(rng)
    with pytest.raises(IndexError):
        word_context_sum([("word", 99)], t.word, t.eq)


# --- Bernoulli parameters --------------------------------------------------------


def test_word_param_zero_rho_is_half():
    rng = np.random.default_rng(1)
    t = make_tables(rng)
    t.word.rho[0] = 0.0
    assert bernoulli_param_word(0, [("word", 1), ("eq", 0)], t) == 0.5


def test_word_param_dot_product():
    rng = np.random.default_rng(1)
    t = make_tables(rng, k=2)
    t.word.rho[0] = (1.0, 0.0)
    t.word.alpha[1] = (3.0, 7.0)
    assert bernoulli_param_word(0, [("word", 1)], t) == pytest.approx(sigmoid(3.0), abs=1e-15)


def test_word_param_orthogonal_is_half():
    rng = np.random.default_rng(1)
    t = make_tables(rng, k=2)
    t.word.rho[0] = (1.0, 0.0)
    t.word.alpha[1] = (0.0, 5.0)
    assert bernoulli_param_word(0, [("word", 1)], t) == 0.5


def test_equation_param_rejects_equation_context():
    rng = np.random.default_rng(1)
    t = make_tables(rng)
    with pytest.raises(ValueError, match="words only"):
        bernoulli_param_equation(0, [("eq", 1)], t)


def test_equation_param_value():
    rng = np.random.default_rng(1)
    t = make_tables(rng, k=2)
    t.eq.rho[2] = (1.0, 1.0)
    t.word.alpha[0] = (1.0, 1.0)
    assert bernoulli_param_equation(2, [("word", 0)], t) == pytest.approx(sigmoid(2.0), abs=1e-15)


def test_unit_param_value_and_validation():
    rng = np.random.default_rng(1)
    t = make_tables(rng, k=2)
    t.unit.rho[0] = 0.0
    assert bernoulli_param_unit(0, [("unit", 1), ("unit", 2)], t) == 0.5
    with pytest.raises(ValueError, match="units only"):
        bernoulli_param_unit(0, [("word", 1)], t)


def test_word_units_param_reduces_without_equations():
    rng = np.random.default_rng(2)
    t = make_tables(rng)
    plain = bernoulli_param_word(0, [("word", 1), ("word", 2)], t)
    with_units = bernoulli_param_word_units(0, [1, 2], [], t)
    assert plain == with_units


def test_word_units_param_double_sum():
    rng = np.random.default_rng(2)
    t = make_tables(rng, k=2)
    t.word.rho[0] = (1.0, 1.0)
    t.word.alpha[1] = (1.0, 1.0)
    t.unit.alpha[0] = (1.0, 0.0)
    t.unit.alpha[1] = (0.0, 1.0)
    got = bernoulli_param_word_units(0, [1], [[0, 1]], t)
    assert got == pytest.approx(sigmoid(4.0), abs=1e-15)


def test_long_equation_dominates_context_sum():
    # documented behavior of the literal unit sum: no rescaling
    rng = np.random.default_rng(3)
    t = Tables(
        EmbeddingTable(4, 8, rng, 0.3),
        unit=EmbeddingTable(120, 8, rng, 0.3),
    )
    word_part = t.word.alpha[[1, 2]].sum(axis=0)
    unit_part = t.unit.alpha[np.arange(100)].sum(axis=0)
    assert np.linalg.norm(unit_part) > np.linalg.norm(word_part)


# --- loss and gradients -----------------------------------------------------------


def test_pair_loss_label_one_half_prob():
    rng = np.random.default_rng(4)
    t = make_tables(rng)
    t.word.rho[0] = 0.0
    pair = TrainingPair(("word", 0), [("word", 1)], 1)
    loss, _ = pair_loss_and_grads(pair, "word", t)
    assert loss == pytest.approx(math.log(2.0), abs=1e-15)


def test_zero_error_means_zero_gradients():
    rng = np.random.default_rng(4)
    t = make_tables(rng, k=2)
    t.word.rho[0] = 0.0  # b = 0.5
    pair = TrainingPair(("word", 0), [("word", 1)], 1)
    _, grads = pair_loss_and_grads(pair, "word", t)
    # err = -0.5, rho grad = err * ctx, alpha grad = err * rho = 0
    assert np.allclose(grads.alpha[("word", 1)], 0.0)
    t2 = make_tables(np.random.default_rng(5), k=2)
    t2.word.alpha[1] = 0.0  # zero context: b = 0.5, rho grad = 0 vector
    _, g2 = pair_loss_and_grads(TrainingPair(("word", 0), [("word", 1)], 1), "word", t2)
    assert np.allclose(g2.rho[("word", 0)], 0.0)


def test_duplicate_context_items_accumulate():
    rng = np.random.default_rng(4)
    t = make_tables(rng)
    pair1 = TrainingPair(("word", 0), [("word", 1), ("word", 1)], 1)
    _, g = pair_loss_and_grads(pair1, "word", t)
    single = TrainingPair(("word", 0), [("word", 1)], 1)
    b_double = bernoulli_param_word(0, [("word", 1), ("word", 1)], t)
    expect = (b_double - 1.0) * t.word.rho[0] * 2
    assert np.allclose(g.alpha[("word", 1)], expect)


def test_mode_context_validation():
    rng = np.random.default_rng(4)
    t = make_tables(rng)
    with pytest.raises(ValueError):
        pair_loss_and_grads(TrainingPair(("word", 0), [("eq", 0)], 1), "word", t)
    with pytest.raises(ValueError):
        pair_loss_and_grads(TrainingPair(("eq", 0), [("eq", 1)], 1), "equation", t)
    with pytest.raises(ValueError):
        pair_loss_and_grads(TrainingPair(("word", 0), [("eq", 0)], 1), "unit", t)
    with pytest.raises(ValueError):
        pair_loss_and_grads(TrainingPair(("unit", 0), [("word", 1)], 0), "word", t)


def _fd_check(pair, mode, tables, h=1e-5, tol=1e-5):
    """Central finite differences against the analytic sparse gradients."""
    _, grads = pair_loss_and_grads(pair, mode, tables)

    def loss_at():
        return pair_loss_and_grads(pair, mode, tables)[0]

    worst = 0.0
    for (cls, idx), g in grads.rho.items():
        mat = tables.get(cls).rho
        for d in range(mat.shape[1]):
            orig = mat[idx, d]
            mat[idx, d] = orig + h
            up = loss_at()
            mat[idx, d] = orig - h
            down = loss_at()
            mat[idx, d] = orig
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(g[d]), 1e-8)
            worst = max(worst, abs(fd - g[d]) / denom)
    for (cls, idx), g in grads.alpha.items():
        mat = tables.get(cls).alpha
        for d in range(mat.shape[1]):
            orig = mat[idx, d]
            mat[idx, d] = orig + h
            up = loss_at()
            mat[idx, d] = orig - h
            down = loss_at()
            mat[idx, d] = orig
            fd = (up - down) / (2 * h)
            denom = max(abs(fd), abs(g[d]), 1e-8)
            worst = max(worst, abs(fd - g[d]) / denom)
    assert worst < tol, worst


def random_pair(rng, mode):
    label = int(rng.integers(0, 2))
    if mode == "word":
        ctx = [("word", int(i)) for i in rng.integers(0, 12, size=rng.integers(1, 5))]
        return TrainingPair(("word", int(rng.integers(0, 12))), ctx, label)
    if mode == "equation":
        if rng.random() < 0.5:
            ctx = [("word", int(i)) for i in rng.integers(0, 12, size=3)]
            ctx += [("eq", int(i)) for i in rng.integers(0, 6, size=rng.integers(1, 3))]
            return TrainingPair(("word", int(rng.integers(0, 12))), ctx, label)
        ctx = [("word", int(i)) for i in rng.integers(0, 12, size=rng.integers(1, 5))]
        return TrainingPair(("eq", int(rng.integers(0, 6))), ctx, label)
    if rng.random() < 0.5:
        ctx = [("word", int(i)) for i in rng.integers(0, 12, size=2)]
        ctx += [("unit", int(i)) for i in rng.integers(0, 9, size=rng.integers(1, 6))]
        return TrainingPair(("word", int(rng.integers(0, 12))), ctx, label)
    ctx = [("unit", int(i)) for i in rng.integers(0, 9, size=rng.integers(1, 4))]
    return TrainingPair(("unit", int(rng.integers(0, 9))), ctx, label)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    for mode in ("word", "equation", "unit"):
        for _ in range(12):
            k = int(rng.integers(2, 9))
            tables = make_tables(rng, k=k)
            _fd_check(random_pair(rng, mode), mode, tables)


# --- adagrad -----------------------------------------------------------------------


def test_adagrad_first_step_is_signed_learning_rate():
    mat = np.zeros((3, 4))
    acc = np.full((3, 4), ADAGRAD_FLOOR)
    g = np.full((1, 4), 0.5)
    adagrad_rows(mat, acc, np.array([1]), g, 0.1)
    # update ~ -lr * g / |g| for |g| >> floor
    assert np.allclose(mat[1], -0.1, atol=1e-6)
    assert np.allclose(acc[1], ADAGRAD_FLOOR + 0.25)


def test_adagrad_zero_grad_no_change():
    mat = np.ones((2, 3))
    acc = np.full((2, 3), ADAGRAD_FLOOR)
    adagrad_rows(mat, acc, np.array([0]), np.zeros((1, 3)), 0.1)
    assert np.array_equal(mat, np.ones((2, 3)))
    assert np.array_equal(acc, np.full((2, 3), ADAGRAD_FLOOR))


def test_adagrad_second_identical_step_smaller():
    mat = np.zeros((1, 2))
    acc = np.full((1, 2), ADAGRAD_FLOOR)
    g = np.full((1, 2), 0.3)
    adagrad_rows(mat, acc, np.array([0]), g, 0.1)
    first = -mat[0, 0]
    before = mat[0, 0]
    adagrad_rows(mat, acc, np.array([0]), g, 0.1)
    second = before - mat[0, 0]
    assert 0 < second < first


def test_adagrad_duplicate_rows_combine():
    mat = np.zeros((2, 2))
    acc = np.full((2, 2), ADAGRAD_FLOOR)
    g = np.array([[1.0, 0.0], [1.0, 0.0]])
    adagrad_rows(mat, acc, np.array([0, 0]), g, 0.1)
    ref_mat = np.zeros((2, 2))
    ref_acc = np.full((2, 2), ADAGRAD_FLOOR)
    adagrad_rows(ref_mat, ref_acc, np.array([0]), np.array([[2.0, 0.0]]), 0.1)
    assert np.array_equal(mat, ref_mat)
    assert np.array_equal(acc, ref_acc)


def test_adagrad_step_applies_sparse_grads():
    rng = np.random.default_rng(8)
    t = make_tables(rng, k=3)
    pair = TrainingPair(("word", 2), [("word", 1), ("eq", 0)], 1)
    before_rho = t.word.rho[2].copy()
    before_alpha = t.eq.alpha[0].copy()
    _, grads = pair_loss_and_grads(pair, "equation", t)
    adagrad_step(t, grads, 0.1)
    assert not np.array_equal(t.word.rho[2], before_rho)
    assert not np.array_equal(t.eq.alpha[0], before_alpha)


def test_frozen_table_rejects_updates():
    rng = np.random.default_rng(8)
    t = make_tables(rng, k=3)
    t.word.freeze()
    with pytest.raises((FrozenTableError, ValueError)):
        adagrad_rows(t.word.rho, t.word.rho_acc, np.array([0]), np.ones((1, 3)), 0.1)


# --- negative-sampling loss shape ----------------------------------------------------


def test_loss_monotone_in_b():
    rng = np.random.default_rng(9)
    t = make_tables(rng, k=2)
    t.word.alpha[1] = (1.0, 0.0)
    losses_pos, losses_neg = [], []
    for scale in (-3, -1, 0, 1, 3):
        t.word.rho[0] = (float(scale), 0.0)
        lp, _ = pair_loss_and_grads(TrainingPair(("word", 0), [("word", 1)], 1), "word", t)
        ln, _ = pair_loss_and_grads(TrainingPair(("word", 0), [("word", 1)], 0), "word", t)
        losses_pos.append(lp)
        losses_neg.append(ln)
    # b increases with scale: label-1 loss strictly decreasing, label-0 strictly increasing
    assert all(a > b for a, b in zip(losses_pos, losses_pos[1:]))
    assert all(a < b for a, b in zip(losses_neg, losses_neg[1:]))


# --- derived equation vectors ---------------------------------------------------------


def test_equation_vector_mean_examples():
    rng = np.random.default_rng(10)
    t = EmbeddingTable(4, 2, rng, 0.5)
    t.alpha[0] = (1.0, 0.0)
    t.alpha[1] = (0.0, 1.0)
    alpha, rho = equation_vector_from_units([0, 1], t)
    assert np.allclose(alpha, (0.5, 0.5))
    single_alpha, single_rho = equation_vector_from_units([2], t)
    assert np.array_equal(single_alpha, t.alpha[2])
    assert np.array_equal(single_rho, t.rho[2])


def test_equation_vector_order_invariant():
    rng = np.random.default_rng(11)
    t = EmbeddingTable(10, 6, rng, 0.5)
    ids = [3, 1, 7, 7, 2]
    a1, r1 = equation_vector_from_units(ids, t)
    a2, r2 = equation_vector_from_units(list(reversed(ids)), t)
    assert np.array_equal(a1, a2) and np.array_equal(r1, r2)


def test_equation_vector_empty_errors():
    rng = np.random.default_rng(11)
    t = EmbeddingTable(3, 2, rng, 0.5)
    with pytest.raises(ValueError, match="untokenizable"):
        equation_vector_from_units([], t)


def test_equation_vector_matches_fsum_oracle():
    rng = np.random.default_rng(12)
    t = EmbeddingTable(50, 8, rng, 0.5)
    for _ in range(200):
        ids = rng.integers(0, 50, size=rng.integers(1, 30))
        alpha, rho = equation_vector_from_units(ids, t)
        for d in range(8):
            want = math.fsum(float(t.alpha[i, d]) for i in ids) / len(ids)
            assert abs(alpha[d] - want) <= 2 * np.spacing(abs(want))


# --- model container -------------------------------------------------------------------


def test_model_context_vector_modes():
    rng = np.random.default_rng(13)
    k = 4
    word = EmbeddingTable(5, k, rng, 0.5)
    eq = EmbeddingTable(3, k, rng, 0.5)
    unit = EmbeddingTable(6, k, rng, 0.5)
    eq_units = {0: np.array([1, 2]), 1: np.array([], dtype=np.int64), 2: np.array([0])}
    cfg = ModelConfig(k=k)

    word_only = Model("word", cfg, word, n_equations=3)
    assert word_only.context_vector("eq", 1) is None

    eqm = Model("equation", cfg, word, eq=eq)
    assert np.array_equal(eqm.context_vector("eq", 1), eq.alpha[1])

    um = Model("unit", cfg, word, unit=unit, eq_units=eq_units, n_equations=3)
    assert np.array_equal(um.context_vector("eq", 0), unit.alpha[[1, 2]].sum(axis=0))
    assert um.context_vector("eq", 1) is None  # untokenizable

    mean_cfg = ModelConfig(k=k, unit_context_mean=True)
    um2 = Model("unit", mean_cfg, word, unit=unit, eq_units=eq_units, n_equations=3)
    assert np.allclose(um2.context_vector("eq", 0), unit.alpha[[1, 2]].mean(axis=0))


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(word_window=3).validate()
    with pytest.raises(ValueError):
        ModelConfig(word_window=8, eq_window=4).validate()
    with pytest.raises(ValueError):
        ModelConfig(k=0).validate()
    for scale in (0.0, -1.0, float("nan")):  # zero tables never move
        with pytest.raises(ValueError, match="init_scale"):
            ModelConfig(init_scale=scale).validate()
    assert ModelConfig(init_scale=0.3).validate().scale == 0.3
    assert ModelConfig().validate().scale == 0.5 / 25
