"""Parameterizations, gradients, Adagrad, derived equation vectors."""

import ast
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eqvec
from eqvec import model as model_mod
from eqvec.corpus import EquationUnits
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

from .conftest import RETRIEVAL_SEED, Item, equation_units, float32_unit_table, heldout_set, within_float32_bound
from .reference_model import (
    FrozenTableError,
    Table,
    Tables,
    TrainingPair,
    adagrad_rows,
    adagrad_step,
    bernoulli_param_equation,
    bernoulli_param_unit,
    bernoulli_param_word,
    bernoulli_param_word_units,
    fsum_mean,
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


_SPECIALS = (0.0, -0.0, np.nan, np.inf, -np.inf, 2.0**-149, -(2.0**-130),  # then float32 subnormals,
             5e-324, -(2.0**-1060))  # and float64 ones


def _parts_oracle(rows: np.ndarray, longest: int) -> int:
    """The parts ``_split``'s stated conditions give ``rows``, 0 for none (the
    ``math.fsum`` fallback), in exact rational arithmetic: g is the smallest
    power of two with ``longest * (max + g/2) < 2**53 * g``; one part where
    every entry is finite and a multiple of g; else none where ``longest * g
    / 2 >= 2**e``, for e the exponent of the smallest finite nonzero |x|;
    else two."""
    finite = rows[np.isfinite(rows)]
    most = Fraction(float(np.abs(finite).max(initial=0.0)))
    e = -1074 if not most else max(-1074, math.frexp(float(most))[1] + longest.bit_length() - 56)
    while not longest * (most + Fraction(2) ** e / 2) < 2**53 * Fraction(2) ** e:
        e += 1
    g = Fraction(2) ** e
    if finite.size == rows.size and all((Fraction(float(x)) / g).denominator == 1 for x in rows.ravel()):
        return 1
    nonzero = np.abs(finite[finite != 0])
    if nonzero.size and not longest * g / 2 < Fraction(2) ** math.frexp(float(nonzero.min()))[1]:
        return 0
    return 2


def _nan_canonical(x: np.ndarray) -> bytes:
    return np.where(np.isnan(x), np.nan, x).tobytes()


def _spy_branches(monkeypatch) -> tuple[list, list]:
    """The parts each ``_split`` call gave (0 for none), and the row shape
    of each ``_fsum_rows`` call."""
    splits, fsums = [], []
    split, fsum = model_mod._split, model_mod._fsum_rows

    def split_spy(rows, longest):
        parts, exact = split(rows, longest)
        splits.append(parts.shape[1] // rows.shape[1] if exact else 0)
        return parts, exact

    def fsum_spy(rows):
        fsums.append(rows.shape)
        return fsum(rows)

    monkeypatch.setattr(model_mod, "_split", split_spy)
    monkeypatch.setattr(model_mod, "_fsum_rows", fsum_spy)
    return splits, fsums


def unit_groups(rows) -> UnitGroups:
    """The ``UnitGroups`` of the table whose row g holds the unit ids ``rows[g]``."""
    table = equation_units(rows)
    return UnitGroups(table.ptr, table.ids)


def _want_means(rows: np.ndarray, groups) -> list:
    return [fsum_mean(rows[ids]) if len(ids) else np.full(rows.shape[1], np.nan) for ids in groups]


@settings(max_examples=300, deadline=None)
@given(
    groups=st.lists(st.lists(st.integers(0, 11), max_size=8), max_size=12),
    long_len=st.integers(0, 60),
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 2, 3, 5, 256]),
    float32=st.booleans(),
    specials=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 4), st.sampled_from(_SPECIALS)), max_size=3),
)
@example(groups=[[1, 1], [], [2, 2, 5], [0]], long_len=40, seed=1, block=256, float32=False, specials=[])
@example(groups=[[1, 1], [], [2, 2, 5], [0], [3]], long_len=40, seed=1, block=2, float32=False, specials=[])
@example(groups=[[1, 1], [], [2, 2, 5], [0], [3]], long_len=40, seed=1, block=3, float32=True, specials=[])
@example(groups=[[1, 1], [], [2, 2, 5], [0], [3]], long_len=40, seed=1, block=256, float32=True,
         specials=[(2, 0, np.inf), (5, 1, np.nan), (3, 2, -0.0)])  # short groups padded beside a long one
@example(groups=[[1], [1, 1], [4]], long_len=9, seed=2, block=256, float32=True,
         specials=[(1, 0, -0.0), (1, 1, 2.0**-149), (4, 3, -(2.0**-130))])
@example(groups=[[1], [1, 1], [4]], long_len=9, seed=2, block=2, float32=False,
         specials=[(1, 0, 5e-324), (4, 3, -(2.0**-1060))])  # float64 subnormals: past the two-part bound
def test_unit_means_bitwise_equal_per_equation_oracle(groups, long_len, seed, block, float32, specials):
    # empty groups (NaN rows), duplicate ids, and one long group among short
    # ones, which pads them; magnitudes span 16 decades, or the rows are
    # float32-valued, as a fit's; ±0, NaN, ±inf and subnormals written in;
    # small blocks split the groups, and give the bytes one block gives.
    # The rows are split once, into the parts the stated conditions give,
    # and only where there are none is each block summed by math.fsum
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(12, 5))
    if float32:
        rows = rows.astype(np.float32).astype(np.float64)
    else:
        rows *= 10.0 ** rng.integers(-8, 8, size=(12, 5))
    for i, j, v in specials:
        rows[i, j] = v
    groups = [np.array(g, dtype=np.int64) for g in groups]
    groups.insert(int(rng.integers(len(groups) + 1)), rng.integers(0, 12, size=long_len))
    parts = _parts_oracle(rows, max(map(len, groups)))
    n_blocks = -(-sum(ids.size > 0 for ids in groups) // block)
    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):  # inf - inf
        mp.setattr(model_mod, "_BLOCK", block)
        splits, fsums = _spy_branches(mp)
        got = unit_means(unit_groups(groups), rows)
    with np.errstate(invalid="ignore"):
        one_block = unit_means(unit_groups(groups), rows)
    assert got.shape == (len(groups), 5)
    assert got.tobytes() == one_block.tobytes()
    assert splits == [parts] * (n_blocks > 0)
    assert len(fsums) == (n_blocks if parts == 0 else 0)
    for row, w in zip(got, _want_means(rows, groups)):
        assert _nan_canonical(row) == _nan_canonical(w)


@settings(max_examples=300, deadline=None)
@given(ids=st.lists(st.integers(0, 11), max_size=40), seed=st.integers(0, 2**32 - 1))
@example(ids=[3, 3, 0], seed=1)
def test_one_equation_vector_bitwise_equal_unit_means(ids, seed):
    # the one-group path must give the row the batched pass gives, and the
    # per-equation fsum oracle's mean
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
    want = fsum_mean(rows[ids])
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


def _float32_rows(rng, shape, base: int, spread: int) -> np.ndarray:
    """float32-valued rows whose binary exponents span ``spread`` from
    ``base``, overflowing to inf or rounding to subnormals and zero at the
    ends."""
    mantissas = rng.integers(-(2**24) + 1, 2**24, size=shape).astype(np.float64)
    with np.errstate(over="ignore"):
        rows = np.ldexp(mantissas, base - 24 + rng.integers(0, spread + 1, size=shape))
        return rows.astype(np.float32).astype(np.float64)


@settings(max_examples=300, deadline=None)
@given(
    groups=st.lists(st.lists(st.integers(0, 7), max_size=12), max_size=10),
    base=st.integers(-170, 100),
    spread=st.integers(0, 70),
    specials=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 3), st.sampled_from(_SPECIALS)), max_size=3),
    widened=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(groups=[[0, 1, 2], [], [3, 3]], base=-10, spread=3, specials=[(3, 0, -0.0)],
         widened=False, seed=1)  # an all -0.0 column sums to +0.0
@example(groups=[[0, 1], [2]], base=-150, spread=2, specials=[], widened=False, seed=2)  # subnormals
@example(groups=[[0, 1, 2, 3, 4, 5, 6, 7]], base=-20, spread=30, specials=[], widened=False, seed=3)
@example(groups=[[0, 1, 2, 3, 4, 5, 6, 7]], base=-20, spread=70, specials=[], widened=False, seed=3)
def test_unit_means_exact_path_bitwise_equal_oracle(groups, base, spread, specials, widened, seed):
    # float32-valued rows, spreads past the one-part and the two-part bounds
    # included, with NaN, ±inf, ±0 and subnormals written in; ``widened``
    # makes one entry a float64 value.  The split takes the parts its stated
    # conditions give, and every group's mean is the oracle's, bitwise (NaNs
    # compared as NaN)
    rows = _float32_rows(np.random.default_rng(seed), (8, 4), base, spread)
    for i, j, v in specials:
        rows[i, j] = v
    if widened:
        rows[0, 0] = 1.0 + 2.0**-40
    table = equation_units(groups)
    longest = int(np.diff(table.ptr).max(initial=0))
    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):  # inf - inf
        splits, fsums = _spy_branches(mp)
        got = unit_means(UnitGroups(table.ptr, table.ids), rows)
    assert splits == [_parts_oracle(rows, longest)] * (longest > 0)
    assert bool(fsums) == (splits == [0])
    assert got.shape == (len(groups), 4)
    for row, want in zip(got, _want_means(rows, [table[g] for g in table])):
        assert _nan_canonical(row) == _nan_canonical(want)


@pytest.mark.parametrize("hi, exact", [(2.0**28 - 16, True), (2.0**28, False)])
def test_exact_path_runs_only_below_its_bound(hi, exact):
    # the longest group holds 4 units: g is 2**-23 below max|x| = 2**28 and
    # 2**-22 from it, where the entry 2**-23 is no multiple of g, and its lo
    # sums could round (4 * g / 2 >= 2**-22), so the rows are not summed by
    # one reduce but by math.fsum
    rows = np.array([[1.0, -0.0], [hi, 3.0], [-hi, 2.0**-23], [7.0, hi]])
    table = equation_units([[0, 1, 2, 3], [1], [], [3, 0]])
    with pytest.MonkeyPatch.context() as mp:
        splits, fsums = _spy_branches(mp)
        got = unit_means(UnitGroups(table.ptr, table.ids), rows)
    assert splits == [1 if exact else 0] == [_parts_oracle(rows, 4)] and bool(fsums) != exact
    for row, want in zip(got, _want_means(rows, [table[g] for g in table])):
        assert row.tobytes() == want.tobytes()


@pytest.mark.parametrize("most, parts", [(2.0**28, 1), (2.0**49, 2), (2.0**51, 0)])
def test_split_parts_change_at_their_bounds(most, parts):
    # the longest group holds 4 units and the smallest nonzero |x| is 1.25,
    # whose frexp exponent is 1: g is 2**-23 at max 2**28, where every entry
    # is a multiple of it; 0.5 at 2**49, where lo sums are exact while
    # 4 * g / 2 < 2; and 2 at 2**51, where they need not be
    rows = np.array([[1.25, -0.0], [most, 3.0], [-most, 2.0], [7.0, most]])
    table = equation_units([[0, 1, 2, 3], [1], [], [3, 0]])
    assert _parts_oracle(rows, 4) == parts
    with pytest.MonkeyPatch.context() as mp:
        splits, fsums = _spy_branches(mp)
        got = unit_means(UnitGroups(table.ptr, table.ids), rows)
    assert splits == [parts] and bool(fsums) == (parts == 0)
    for row, want in zip(got, _want_means(rows, [table[g] for g in table])):
        assert row.tobytes() == want.tobytes()


def test_fitted_unit_model_equals_its_loaded_copy(trained, tmp_path, monkeypatch):
    # a fit is float32-valued, so its equation matrices are its loaded copy's,
    # bitwise, with both kinds over one layout and no fsum fallback
    fitted = trained("unit", RETRIEVAL_SEED)
    alphas, rhos = reference_equation_matrices(fitted.eq_units, fitted.unit, fitted.n_equations)
    in_memory = Model("unit", fitted.config, fitted.word, unit=fitted.unit, eq_units=fitted.eq_units,
                      n_equations=fitted.n_equations)
    loaded = load_model(save_model(fitted, str(tmp_path / "unit.eqv")), eq_units=fitted.eq_units)
    layouts = []
    real = model_mod.UnitGroups
    monkeypatch.setattr(model_mod, "UnitGroups", lambda *layout: layouts.append(layout) or real(*layout))
    splits, fsums = _spy_branches(monkeypatch)
    for model in (in_memory, loaded):
        assert model.equation_matrix("alpha").tobytes() == alphas.tobytes()
        assert model.equation_matrix("rho").tobytes() == rhos.tobytes()
    assert splits == [1] * 4 and not fsums
    assert len(layouts) == 2  # one per model, both kinds sharing it


def test_float32_table_past_the_old_bound_sums_in_two_parts(monkeypatch):
    # a seeded table as a fit leaves one, whose spread is past the bound of
    # the older one-reduce path: every mean, of the whole table and of one
    # equation alone, is the fsum oracle's, bitwise, without the fallback
    rows, ptr, ids = float32_unit_table(5_000, 5_000, seed=10)
    groups = UnitGroups(ptr, ids)
    assert groups.longest == 60 and not within_float32_bound(rows, 60)
    splits, fsums = _spy_branches(monkeypatch)
    got = unit_means(groups, rows)
    assert splits == [2] and not fsums
    table = EquationUnits(ptr, ids)
    assert all(got[g].tobytes() == fsum_mean(rows[table[g]]).tobytes() for g in table)
    # one equation is past that bound alone with 59 copies of the unit that
    # holds the largest |x| and the one that holds the smallest nonzero |x|
    mags = np.abs(rows)
    units = [int(np.argmax(mags)) // 25] * 59 + [int(np.argmin(np.where(mags == 0, np.inf, mags))) // 25]
    assert not within_float32_bound(rows[units], 60)
    splits.clear()
    alpha, rho = equation_vector_from_units(units, EmbeddingTable.from_arrays(rho=-rows, alpha=rows))
    assert splits == [2] and not fsums
    assert alpha.tobytes() == fsum_mean(rows[units]).tobytes()
    assert rho.tobytes() == fsum_mean(-rows[units]).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    ids=st.lists(st.integers(0, 7), min_size=1, max_size=12),
    base=st.integers(-170, 100),
    spread=st.integers(0, 70),
    specials=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 5), st.sampled_from(_SPECIALS)), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
@example(ids=[0, 1, 2], base=-10, spread=3, specials=[(0, 1, -0.0), (1, 1, -0.0), (2, 1, -0.0)],
         seed=1)  # an all -0.0 column sums to +0.0
@example(ids=[0, 1], base=-150, spread=2, specials=[], seed=2)  # subnormals
@example(ids=[0, 1, 2, 3, 4, 5, 6, 7], base=-20, spread=40, specials=[], seed=3)  # two parts
@example(ids=[0, 1, 2, 3, 4, 5, 6, 7], base=-20, spread=70, specials=[], seed=3)  # too wide: fsum
@example(ids=[3, 3], base=0, spread=0, specials=[(3, 2, np.inf), (3, 4, np.nan)], seed=4)
def test_one_equation_vector_bitwise_equal_oracle_on_float32_rows(ids, base, spread, specials, seed):
    # float32-valued unit rows (alpha | rho, three columns each) whose
    # exponents span ``spread`` from ``base``, with ±0, subnormals, NaN and
    # ±inf written in: the equation's mean is the per-equation fsum
    # oracle's, bitwise (NaNs compared as NaN), through the parts the stated
    # conditions give the equation's rows
    rows = _float32_rows(np.random.default_rng(seed), (8, 6), base, spread)
    for i, j, v in specials:
        rows[i, j] = v
    table = EmbeddingTable.from_arrays(rho=rows[:, 3:], alpha=rows[:, :3])
    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):  # inf - inf
        splits, fsums = _spy_branches(mp)
        alpha, rho = equation_vector_from_units(ids, table)
    assert _nan_canonical(np.hstack([alpha, rho])) == _nan_canonical(fsum_mean(rows[ids]))
    assert splits == [_parts_oracle(rows[ids], len(ids))]
    assert bool(fsums) == (splits == [0])


_PARTS = {"exact": 1, "two_parts": 2, "fsum": 0}  # the branches by the parts of the split


@pytest.mark.parametrize("rows, branch", [
    (np.array([[1.0, 0.5], [0.25, -3.0], [7.0, 2.0**-20]]), "exact"),  # multiples of g, as a fit's entries are
    (np.array([[1.0, 0.5], [0.1, -3.0], [7.0, 2.0**-20]]), "two_parts"),  # 0.1 is not
    (np.array([[1.0, 0.5], [2.0**40, -3.0], [7.0, 2.0**-20]]), "fsum"),  # exponents too far apart
    (np.array([[1.0, 0.5], [np.inf, -3.0], [7.0, 2.0**-20]]), "two_parts"),  # a NaN lo
])
def test_one_equation_vector_names_its_branch(rows, branch, monkeypatch):
    # the one-group path splits the equation's rows, alpha then rho, as
    # handed over, and sums the parts, or each column by math.fsum where
    # there are none; either way the mean is the oracle's
    handed = []
    split = model_mod._split
    monkeypatch.setattr(model_mod, "_split", lambda r, n: handed.append(r.copy()) or split(r, n))
    splits, fsums = _spy_branches(monkeypatch)
    table = EmbeddingTable.from_arrays(rho=rows[:, 1:], alpha=rows[:, :1])
    got = np.hstack(equation_vector_from_units([0, 1, 2], table))
    assert _nan_canonical(got) == _nan_canonical(fsum_mean(rows))
    assert splits == [_PARTS[branch]] and bool(fsums) == (branch == "fsum")
    assert [h.tobytes() for h in handed] == [rows.tobytes()]


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
