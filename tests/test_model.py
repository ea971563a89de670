"""Parameterizations, gradients, Adagrad, derived equation vectors."""

import ast
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eqvec
from eqvec import model as model_mod
from eqvec.evaluation import compile_heldout
from eqvec.model import (
    EmbeddingTable,
    Model,
    ModelConfig,
    UnitGroups,
    equation_vector_from_units,
    sigmoid,
    unit_means,
)
from eqvec.modelfile import load_model, save_model
from eqvec.training import ADAGRAD_FLOOR

from .conftest import RETRIEVAL_SEED, Item, equation_units, heldout_set
from .reference_model import (
    FrozenTableError,
    Table,
    Tables,
    TrainingPair,
    _compensated_mean,
    adagrad_rows,
    adagrad_step,
    bernoulli_param_equation,
    bernoulli_param_unit,
    bernoulli_param_word,
    bernoulli_param_word_units,
    pair_loss_and_grads,
    reference_equation_matrices,
    word_context_sum,
)


def make_tables(rng, k=5, n_words=12, n_eqs=6, n_units=9, scale=0.3):
    return Tables(
        Table.random(n_words, k, rng, scale),
        eq=Table.random(n_eqs, k, rng, scale),
        unit=Table.random(n_units, k, rng, scale),
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
        Table.random(4, 8, rng, 0.3),
        unit=Table.random(120, 8, rng, 0.3),
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
    t = EmbeddingTable(4, 2, rng.bit_generator, 0.5)
    t.alpha[0] = (1.0, 0.0)
    t.alpha[1] = (0.0, 1.0)
    alpha, rho = equation_vector_from_units([0, 1], t)
    assert np.allclose(alpha, (0.5, 0.5))
    single_alpha, single_rho = equation_vector_from_units([2], t)
    assert np.array_equal(single_alpha, t.alpha[2])
    assert np.array_equal(single_rho, t.rho[2])


def test_equation_vector_order_invariant():
    rng = np.random.default_rng(11)
    t = EmbeddingTable(10, 6, rng.bit_generator, 0.5)
    ids = [3, 1, 7, 7, 2]
    a1, r1 = equation_vector_from_units(ids, t)
    a2, r2 = equation_vector_from_units(list(reversed(ids)), t)
    assert np.array_equal(a1, a2) and np.array_equal(r1, r2)


def test_equation_vector_empty_errors():
    rng = np.random.default_rng(11)
    t = EmbeddingTable(3, 2, rng.bit_generator, 0.5)
    with pytest.raises(ValueError, match="untokenizable"):
        equation_vector_from_units([], t)
    with pytest.raises(ValueError, match="unit id -1 is negative"):  # not the last unit row
        equation_vector_from_units([0, -1], t)
    model = Model("unit", ModelConfig(k=2), t, unit=t, n_equations=2,
                  eq_units=equation_units([[0, 2], []]))
    assert np.isnan(model.equation_matrix("alpha")[1]).all()
    with pytest.raises(ValueError, match="untokenizable"):
        model.equation_vectors(1)  # after the derivation too


def test_equation_vector_matches_fsum_oracle():
    rng = np.random.default_rng(12)
    t = EmbeddingTable(50, 8, rng.bit_generator, 0.5)
    for _ in range(200):
        ids = rng.integers(0, 50, size=rng.integers(1, 30))
        alpha, rho = equation_vector_from_units(ids, t)
        for d in range(8):
            want = math.fsum(float(t.alpha[i, d]) for i in ids) / len(ids)
            assert abs(alpha[d] - want) <= 2 * np.spacing(abs(want))


def unit_groups(rows) -> UnitGroups:
    """The ``UnitGroups`` of the table whose row g holds the unit ids ``rows[g]``."""
    table = equation_units(rows)
    return UnitGroups(table.ptr, table.ids)


@settings(max_examples=300, deadline=None)
@given(
    groups=st.lists(st.lists(st.integers(0, 11), max_size=8), max_size=12),
    long_len=st.integers(0, 60),
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 2, 3, 5, 256]),
)
@example(groups=[[1, 1], [], [2, 2, 5], [0]], long_len=40, seed=1, block=256)
@example(groups=[[1, 1], [], [2, 2, 5], [0], [3]], long_len=40, seed=1, block=2)
def test_unit_means_bitwise_equal_per_equation_oracle(groups, long_len, seed, block):
    # empty groups (NaN rows), duplicate ids, and one long group among short
    # ones; magnitudes span 16 decades so the compensation terms matter;
    # small blocks split the groups
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(12, 5)) * 10.0 ** rng.integers(-8, 8, size=(12, 5))
    groups = [np.array(g, dtype=np.int64) for g in groups]
    groups.insert(int(rng.integers(len(groups) + 1)), rng.integers(0, 12, size=long_len))
    with mock.patch.object(model_mod, "_MEAN_BLOCK", block):
        got = unit_means(unit_groups(groups), rows)
    assert got.shape == (len(groups), 5)
    for ids, row in zip(groups, got):
        want = _compensated_mean(rows[ids]) if ids.size else np.full(5, np.nan)
        assert row.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(ids=st.lists(st.integers(0, 11), max_size=40), seed=st.integers(0, 2**32 - 1))
@example(ids=[3, 3, 0], seed=1)
def test_one_equation_vector_bitwise_equal_unit_means(ids, seed):
    # the one-group path must give the row the batched pass gives, and the
    # per-equation Neumaier oracle's mean
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(12, 6)) * 10.0 ** rng.integers(-8, 8, size=(12, 6))
    table = EmbeddingTable.from_arrays(rho=rows[:, 3:], alpha=rows[:, :3])
    ids = np.array(ids, dtype=np.int64)
    if not ids.size:
        with pytest.raises(ValueError, match="no units"):
            equation_vector_from_units(ids, table)
        return
    alpha, rho = equation_vector_from_units(ids, table)
    batched = unit_means(unit_groups([[0, 1], ids]), rows)[1]
    want = _compensated_mean(rows[ids])
    assert np.hstack([alpha, rho]).tobytes() == batched.tobytes() == want.tobytes()


def test_derived_equation_matrices_bitwise_equal_oracle(trained):
    model = trained("unit", RETRIEVAL_SEED)
    alphas, rhos = reference_equation_matrices(model.eq_units, model.unit, model.n_equations)
    assert np.isnan(alphas).any(axis=1).sum() < model.n_equations
    assert model.equation_matrix("alpha").tobytes() == alphas.tobytes()
    assert model.equation_matrix("rho").tobytes() == rhos.tobytes()
    for eq_id in range(model.n_equations):
        if np.isfinite(alphas[eq_id]).all():
            for alpha, rho in (
                equation_vector_from_units(model.eq_units[eq_id], model.unit),  # one group
                model.equation_vectors(eq_id),  # read from the derived matrices
            ):
                assert alpha.tobytes() == alphas[eq_id].tobytes()
                assert rho.tobytes() == rhos[eq_id].tobytes()


def test_unit_model_derives_one_kind_on_first_use(monkeypatch):
    rng = np.random.default_rng(13)
    t = EmbeddingTable(6, 3, rng.bit_generator, 0.5)
    model = Model("unit", ModelConfig(k=3), t, unit=t, n_equations=3,
                  eq_units=equation_units([[0, 2], [], [5, 1, 1]]))
    derived = []  # the kinds ``Model._derive`` derived, in order
    real = Model._derive

    def derive(self, which):
        if which not in self._derived:
            derived.append(which)
        return real(self, which)

    monkeypatch.setattr(Model, "_derive", derive)

    def one_group_paths_agree():
        for eq_id in (0, 2):
            got = model.equation_vectors(eq_id)
            want = equation_vector_from_units(model.eq_units[eq_id], t)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    one_group_paths_agree()
    alpha = model.equation_matrix("alpha")
    assert derived == ["alpha"]  # rho is not derived with it
    assert model.equation_matrix("alpha") is alpha and len(derived) == 1
    one_group_paths_agree()
    rho = model.equation_matrix("rho")
    assert derived == ["alpha", "rho"]
    assert alpha.flags.c_contiguous and rho.flags.c_contiguous
    one_group_paths_agree()


_SPECIALS = (0.0, -0.0, np.nan, np.inf, -np.inf, 2.0**-149, -(2.0**-130))  # the last two: float32 subnormals


def _sums_exact_oracle(rows: np.ndarray, longest: int) -> bool:
    """The exact path's condition, as stated: finite float32 values whose
    largest magnitude times the longest group stays below 2**(e + 29), for
    e the exponent of the smallest nonzero magnitude."""
    if not np.isfinite(rows).all() or not (rows.astype(np.float32) == rows).all():
        return False
    mags = np.abs(rows[rows != 0])
    return not mags.size or mags.max() * longest < 2.0 ** (int(np.frexp(mags.min())[1]) + 29)


def _nan_canonical(x: np.ndarray) -> bytes:
    return np.where(np.isnan(x), np.nan, x).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    groups=st.lists(st.lists(st.integers(0, 7), max_size=12), max_size=10),
    base=st.integers(-170, 100),
    spread=st.integers(0, 45),
    specials=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3), st.sampled_from(_SPECIALS)), max_size=3),
    widened=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(groups=[[0, 1, 2], [], [3, 3]], base=-10, spread=3, specials=[(3, 0, -0.0)],
         widened=False, seed=1)  # an all -0.0 column sums to +0.0
@example(groups=[[0, 1], [2]], base=-150, spread=2, specials=[], widened=False, seed=2)  # subnormals
@example(groups=[[0, 1, 2, 3, 4, 5, 6, 7]], base=-20, spread=30, specials=[], widened=False, seed=3)
def test_unit_means_exact_path_bitwise_equal_oracle(groups, base, spread, specials, widened, seed):
    # float32-valued rows whose exponents span ``spread`` from ``base``
    # (overflowing to inf or rounding to subnormals and zero at the ends),
    # with NaN, ±inf, ±0 and subnormals written in; ``widened`` makes one
    # entry a float64 value.  Where the stated condition holds the exact
    # path runs (the compensation would raise), elsewhere the compensated
    # loop does; either way every group's mean is the oracle's, bitwise
    # (NaNs compared as NaN)
    rng = np.random.default_rng(seed)
    mantissas = rng.integers(-(2**24) + 1, 2**24, size=(8, 4)).astype(np.float64)
    with np.errstate(over="ignore"):
        rows = np.ldexp(mantissas, base - 24 + rng.integers(0, spread + 1, size=(8, 4)))
        rows = rows.astype(np.float32).astype(np.float64)
    for i, j, v in specials:
        rows[i, j] = v
    if widened:
        rows[0, 0] = 1.0 + 2.0**-40
    table = equation_units(groups)
    exact = _sums_exact_oracle(rows, int(np.diff(table.ptr).max(initial=0)))

    def not_this_path(*_):
        raise AssertionError("the other path ran")

    patched = "_rounding_error" if exact else "_exact_means"
    with mock.patch.object(model_mod, patched, not_this_path), np.errstate(invalid="ignore"):  # inf - inf
        got = unit_means(UnitGroups(table.ptr, table.ids), rows)
        assert got.shape == (len(groups), 4)
        for g, row in zip(table, got):
            units = table[g]
            want = _compensated_mean(rows[units]) if units.size else np.full(4, np.nan)
            assert _nan_canonical(row) == _nan_canonical(want)


@pytest.mark.parametrize("hi, exact", [(2.0**28 - 16, True), (2.0**28, False)])
def test_exact_path_runs_only_below_its_bound(hi, exact):
    # the smallest nonzero |x| is 1.0, whose np.frexp exponent is 1, and the
    # longest group holds 4 units: the sums are exact while max|x| * 4 < 2**30
    rows = np.array([[1.0, -0.0], [hi, 3.0], [-hi, 2.0], [7.0, hi]])
    table = equation_units([[0, 1, 2, 3], [1], [], [3, 0]])
    patched = "_rounding_error" if exact else "_exact_means"
    with mock.patch.object(model_mod, patched, side_effect=AssertionError("the other path ran")):
        got = unit_means(UnitGroups(table.ptr, table.ids), rows)
    for g, row in zip(table, got):
        units = table[g]
        want = _compensated_mean(rows[units]) if units.size else np.full(2, np.nan)
        assert row.tobytes() == want.tobytes()


def test_loaded_unit_model_sums_exactly_and_an_in_memory_fit_compensates(trained, tmp_path, monkeypatch):
    fitted = trained("unit", RETRIEVAL_SEED)
    alphas, rhos = reference_equation_matrices(fitted.eq_units, fitted.unit, fitted.n_equations)
    in_memory = Model("unit", fitted.config, fitted.word, unit=fitted.unit, eq_units=fitted.eq_units,
                      n_equations=fitted.n_equations)
    with mock.patch.object(model_mod, "_exact_means", side_effect=AssertionError("float64 rows summed exactly")):
        assert in_memory.equation_matrix("alpha").tobytes() == alphas.tobytes()
        assert in_memory.equation_matrix("rho").tobytes() == rhos.tobytes()

    loaded = load_model(save_model(fitted, str(tmp_path / "unit.eqv")), eq_units=fitted.eq_units)
    alphas, rhos = reference_equation_matrices(loaded.eq_units, loaded.unit, loaded.n_equations)
    layouts = []
    real = model_mod.UnitGroups
    monkeypatch.setattr(model_mod, "UnitGroups", lambda *layout: layouts.append(layout) or real(*layout))
    with mock.patch.object(model_mod, "_rounding_error", side_effect=AssertionError("compensated")):
        assert loaded.equation_matrix("alpha").tobytes() == alphas.tobytes()
        assert loaded.equation_matrix("rho").tobytes() == rhos.tobytes()
    assert len(layouts) == 1  # both kinds share one layout



def _spy_compensated(monkeypatch) -> list:
    """The rows ``equation_vector_from_units`` hands the compensated sum."""
    calls = []
    real = model_mod._compensated_sum
    monkeypatch.setattr(model_mod, "_compensated_sum", lambda rows: calls.append(rows) or real(rows))
    return calls


@settings(max_examples=300, deadline=None)
@given(
    ids=st.lists(st.integers(0, 7), min_size=1, max_size=12),
    base=st.integers(-170, 100),
    spread=st.integers(0, 45),
    specials=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 5), st.sampled_from(_SPECIALS)), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@example(ids=[0, 1, 2], base=-10, spread=3, specials=[(0, 1, -0.0), (1, 1, -0.0), (2, 1, -0.0)],
         seed=1)  # an all -0.0 column sums to +0.0
@example(ids=[0, 1], base=-150, spread=2, specials=[], seed=2)  # subnormals
@example(ids=[0, 1, 2, 3, 4, 5, 6, 7], base=-20, spread=40, specials=[], seed=3)  # too wide: compensated
@example(ids=[3, 3], base=0, spread=0, specials=[(3, 2, np.inf), (3, 4, np.nan)], seed=4)
def test_one_equation_vector_bitwise_equal_oracle_on_float32_rows(ids, base, spread, specials, seed):
    # float32-valued unit rows (alpha | rho, three columns each) whose
    # exponents span ``spread`` from ``base``, with ±0, subnormals, NaN and
    # ±inf written in: the equation's mean is the per-equation Neumaier
    # oracle's, bitwise (NaNs compared as NaN), and the compensated sum runs
    # exactly where the stated exactness condition fails for its rows
    rng = np.random.default_rng(seed)
    mantissas = rng.integers(-(2**24) + 1, 2**24, size=(8, 6)).astype(np.float64)
    with np.errstate(over="ignore"):
        rows = np.ldexp(mantissas, base - 24 + rng.integers(0, spread + 1, size=(8, 6)))
        rows = rows.astype(np.float32).astype(np.float64)
    for i, j, v in specials:
        rows[i, j] = v
    table = EmbeddingTable.from_arrays(rho=rows[:, 3:], alpha=rows[:, :3])
    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):  # inf - inf
        calls = _spy_compensated(mp)
        alpha, rho = equation_vector_from_units(ids, table)
        want = _compensated_mean(rows[ids])
    assert _nan_canonical(np.hstack([alpha, rho])) == _nan_canonical(want)
    assert len(calls) == (not _sums_exact_oracle(rows[ids], len(ids)))


@pytest.mark.parametrize("rows, branch", [
    (np.array([[1.0, 0.5], [0.25, -3.0], [7.0, 2.0**-20]]), "exact"),  # float32 values, as a loaded model's
    (np.array([[1.0, 0.5], [0.1, -3.0], [7.0, 2.0**-20]]), "compensated"),  # 0.1 is no float32
    (np.array([[1.0, 0.5], [2.0**40, -3.0], [7.0, 2.0**-20]]), "compensated"),  # exponents too far apart
    (np.array([[1.0, 0.5], [np.inf, -3.0], [7.0, 2.0**-20]]), "compensated"),
])
def test_one_equation_vector_names_its_branch(rows, branch, monkeypatch):
    # the one-group path sums directly where the exactness check holds for
    # the equation's rows, and hands them, alpha then rho, to the
    # compensated sum otherwise; either way the mean is the oracle's
    calls = _spy_compensated(monkeypatch)
    table = EmbeddingTable.from_arrays(rho=rows[:, 1:], alpha=rows[:, :1])
    with np.errstate(invalid="ignore"):
        got = np.hstack(equation_vector_from_units([0, 1, 2], table))
        want = _compensated_mean(rows)
    assert _nan_canonical(got) == _nan_canonical(want)
    assert ("compensated" if calls else "exact") == branch
    if calls:
        assert calls[0].tobytes() == rows.tobytes()


@settings(max_examples=100, deadline=None)
@given(groups=st.lists(st.lists(st.integers(0, 9), max_size=6), max_size=12), chunk=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_exact_sum_in_chunks_equals_one_chunk(groups, chunk, seed):
    # the exact path gathers every group at once when they all have units
    # and fit one chunk; split into chunks, and with empty groups among
    # them, it gives the same bytes, and the oracle's
    rows = np.random.default_rng(seed).normal(size=(10, 3)).astype(np.float32).astype(np.float64)
    table = equation_units(groups)
    layout = UnitGroups(table.ptr, table.ids)
    one = unit_means(layout, rows)
    with mock.patch.object(model_mod, "_EXACT_CHUNK", chunk), \
            mock.patch.object(model_mod, "_rounding_error", side_effect=AssertionError("compensated")):
        split = unit_means(UnitGroups(table.ptr, table.ids), rows)
    assert one.tobytes() == split.tobytes()
    assert (layout.chunks[0] is None) == all(groups)
    for g, row in zip(table, one):
        units = table[g]
        want = _compensated_mean(rows[units]) if units.size else np.full(3, np.nan)
        assert row.tobytes() == want.tobytes()


# --- model container -------------------------------------------------------------------


def _compiled_context(model, context):
    """The alpha rows and weights a held-out item with ``context`` sums,
    read from the compiled layout."""
    lay = compile_heldout(heldout_set([Item(0, context, [])]), model)
    assert lay.ok[0]
    rows = lay.alpha[lay.rows[lay.ptr[0] : lay.ptr[1]]]
    return rows, (np.ones(len(rows)) if lay.w is None else lay.w)[:, None]


def test_model_context_vector_modes():
    rng = np.random.default_rng(13)
    k = 4
    word = EmbeddingTable(5, k, rng.bit_generator, 0.5)
    eq = EmbeddingTable(3, k, rng.bit_generator, 0.5)
    unit = EmbeddingTable(6, k, rng.bit_generator, 0.5)
    eq_units = equation_units([[1, 2], [], [0]])
    cfg = ModelConfig(k=k)

    word_only = Model("word", cfg, word, n_equations=3)
    assert len(_compiled_context(word_only, [("eq", 1)])[0]) == 0

    eqm = Model("equation", cfg, word, eq=eq)
    rows, w = _compiled_context(eqm, [("eq", 1)])
    assert np.array_equal(rows, [eq.alpha[1]]) and (w == 1.0).all()

    um = Model("unit", cfg, word, unit=unit, eq_units=eq_units, n_equations=3)
    rows, w = _compiled_context(um, [("eq", 0)])
    assert np.array_equal((w * rows).sum(axis=0), unit.alpha[[1, 2]].sum(axis=0))
    assert len(_compiled_context(um, [("eq", 1)])[0]) == 0  # untokenizable

    mean_cfg = ModelConfig(k=k, unit_context_mean=True)
    um2 = Model("unit", mean_cfg, word, unit=unit, eq_units=eq_units, n_equations=3)
    rows, w = _compiled_context(um2, [("eq", 0)])
    assert np.allclose((w * rows).sum(axis=0), unit.alpha[[1, 2]].mean(axis=0))


# Names of the pair API and of the per-item scorer, which live on only as
# oracles in tests/reference_model.py.
_ORACLE_NAMES = {
    "Tables", "TrainingPair", "SparseGrads", "pair_loss_and_grads", "adagrad_step",
    "adagrad_rows", "context_sum", "context_vector",
}


def test_src_has_one_context_definition():
    """No module of the package defines, imports or calls a second context
    sum: the compiled layout is the only one."""
    root = os.path.dirname(eqvec.__file__)
    found = []
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name)) as f:
            tree = ast.parse(f.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [n for a in node.names for n in (a.name.split(".")[-1], a.asname)]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [(name, n) for n in names if n in _ORACLE_NAMES]
    assert found == []


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
    for rate in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            ModelConfig(learning_rate=rate).validate()
    assert ModelConfig(init_scale=0.3).validate().scale == 0.3
    assert ModelConfig().validate().scale == 0.5 / 25
