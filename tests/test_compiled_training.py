"""The compiled trainer against its oracles.

* the per-position reference trainer (``reference_training``): same epochs,
  scores, losses and tables, to rounding;
* the pair API (``pair_loss_and_grads`` + ``adagrad_step``), which the
  gradient suite finite-differences: one compiled step equals it;
* the sequential draw (``reference_training.NegativeSampler.draw``): block
  draws return its stream;
* the kernel before its step rewrite (``reference_training.sgd_block``):
  to rounding.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eqvec import passes, training
from eqvec.model import EmbeddingTable
from eqvec.passes import assemble_plan
from eqvec.training import _POOL, _stack, draw_negatives, sgd_block, train_model

from .conftest import plan_positions, with_overrides
from .reference_model import SparseGrads, Table, Tables, TrainingPair, adagrad_step, pair_loss_and_grads
from .reference_training import NegativeSampler, reference_train_model
from .reference_training import sgd_block as reference_sgd_block
from .test_training import CFG, make_corpus

EQUIVALENCE_CONFIGS = {
    "word": ("word", {}),
    "equation": ("equation", {}),
    "unit-joint": ("unit", {}),
    "unit-two-pass": ("unit", {"unit_joint": False}),
    "unit-mean": ("unit", {"unit_context_mean": True}),
}


@pytest.fixture(scope="module")
def corpus():
    return make_corpus()


@pytest.mark.parametrize("name", list(EQUIVALENCE_CONFIGS))
def test_matches_reference_trainer(corpus, name):
    mode, overrides = EQUIVALENCE_CONFIGS[name]
    cfg = with_overrides(CFG, max_epochs=20, **overrides)
    got, got_records = train_model(corpus, cfg, mode)
    want, want_records = reference_train_model(corpus, cfg, mode)

    def epochs(records):
        return [(r.pass_name, r.epoch) for r in records]

    assert epochs(got_records) == epochs(want_records)
    for g, w in zip(got_records, want_records):
        assert abs(g.validation_score - w.validation_score) <= 1e-9
        assert abs(g.train_loss - w.train_loss) <= 1e-9
    # the accumulators end with their pass; the scores and losses of every
    # epoch after the first already depend on them
    for cls in ("word", "eq", "unit"):
        a, b = getattr(got, cls), getattr(want, cls)
        assert (a is None) == (b is None)
        if a is not None:
            for m in ("rho", "alpha"):
                np.testing.assert_allclose(getattr(a, m), getattr(b, m), rtol=0, atol=1e-10, err_msg=f"{cls}.{m}")
    assert got.word.frozen == want.word.frozen


@pytest.mark.parametrize("pass_name", list(passes.PASS_CLASSES))
def test_plan_independent_of_compile_chunking(corpus, monkeypatch, pass_name):
    cfg = with_overrides(CFG, unit_context_mean=True)

    def compiled(tokens):
        monkeypatch.setattr(passes, "_COMPILE_TOKENS", tokens)
        plans = passes.compile_pass(corpus, cfg, pass_name)
        weights = [p.ctx_w if p.ctx_w is not None else np.ones(len(p.ctx_rows)) for p in plans]
        return len(plans), plan_positions(plans, pass_name), np.concatenate(weights)

    n_one, one, w_one = compiled(10**9)
    n_many, many, w_many = compiled(1)
    assert n_one == 1 and n_many == len(corpus.streams)
    assert one == many and len(one) > 0
    assert np.array_equal(w_one, w_many)


@pytest.mark.parametrize("name", ["word", "equation", "unit-joint", "unit-two-pass"])
def test_fit_independent_of_compile_chunking(corpus, monkeypatch, name):
    # plans are compiled a chunk of tokens at a time and stepped a slice of
    # positions at a time, with negatives drawn per slice: neither boundary
    # may show
    mode, overrides = EQUIVALENCE_CONFIGS[name]
    cfg = with_overrides(CFG, **overrides)

    def fitted(tokens, positions):
        monkeypatch.setattr(passes, "_COMPILE_TOKENS", tokens)
        monkeypatch.setattr(training, "_SLICE_POSITIONS", positions)
        stacked = []  # each pass's parameters and accumulators, as the pass left them

        def recorded(tables, trainable):
            stacked.append(_stack(tables, trainable))
            return stacked[-1]

        monkeypatch.setattr(training, "_stack", recorded)
        _, records = train_model(corpus, cfg, mode)
        return [a.tobytes() for s in stacked for a in s], [(r.pass_name, r.epoch, r.validation_score, r.train_loss) for r in records]

    runs = [fitted(tokens, positions) for tokens in (10**9, 1) for positions in (10**9, 1)]
    assert all(run == runs[0] for run in runs[1:])


# --- one compiled step against the pair API -----------------------------------


@st.composite
def steps(draw):
    k = draw(st.integers(2, 6))
    n_words = draw(st.integers(3, 7))
    n_units = draw(st.integers(2, 6))
    target = draw(st.integers(0, n_words - 1))
    others = [w for w in range(n_words) if w != target]
    negs = draw(st.lists(st.sampled_from(others), min_size=1, max_size=6))
    negs.append(negs[0])  # a duplicate negative
    negs += [target] * draw(st.integers(0, 2))  # the target drawn as a negative
    words = draw(st.lists(st.integers(0, n_words - 1), min_size=0, max_size=4))
    # mean-variant unit context: each equation's units weighted 1/len; one
    # unit appears in two equations, so its row gets two weights
    eqs = draw(st.lists(st.lists(st.integers(0, n_units - 1), min_size=1, max_size=4), min_size=1, max_size=3))
    eqs.append([eqs[0][0]] + draw(st.lists(st.integers(0, n_units - 1), max_size=2)))
    units = [(u, 1.0 / len(e)) for e in eqs for u in e]
    seed = draw(st.integers(0, 2**32 - 1))
    lr = draw(st.sampled_from([0.05, 0.1, 0.5]))
    return k, n_words, n_units, target, negs, words, units, seed, lr


def _tables(k, n_words, n_units, seed):
    rng = np.random.default_rng(seed)
    word, unit = Table.random(n_words, k, rng, 0.6), Table.random(n_units, k, rng, 0.6)
    for t in (word, unit):  # accumulators away from the floor
        t.rho_acc += rng.uniform(0, 0.3, t.rho_acc.shape)
        t.alpha_acc += rng.uniform(0, 0.3, t.alpha_acc.shape)
    return word, unit


def _accumulators(word, unit):
    """The tables' accumulators in the layout of a stacked array's second half."""
    return np.concatenate((word.rho_acc, unit.rho_acc, word.alpha_acc, unit.alpha_acc))


def _pair_api_step(word, unit, target, negs, ctx, words_trainable, lr):
    """Loss and updated tables from pair_loss_and_grads over the positive and
    its negatives, then one adagrad_step over the trainable classes.

    A weighted context entry enters the pair API as its own row holding
    ``w * alpha``; its gradient maps back to ``alpha`` times ``w``."""
    def weighted_view(table, cls):
        rows = [w * table.alpha[i] for c, i, w in ctx if c == cls]
        n = max(table.size, len(rows))
        rho, alpha = np.zeros((n, table.k)), np.zeros((n, table.k))
        rho[: table.size] = table.rho
        alpha[: len(rows)] = np.reshape(rows, (-1, table.k))
        return Table(rho, alpha)

    view = Tables(weighted_view(word, "word"), unit=weighted_view(unit, "unit"))
    view_ctx, back = [], {}
    for c, i, w in ctx:
        key = (c, sum(1 for cc, _ in view_ctx if cc == c))
        view_ctx.append(key)
        back[key] = (c, i, w)

    total, grads = 0.0, SparseGrads()
    for tid, label in [(target, 1)] + [(n, 0) for n in negs]:
        loss, g = pair_loss_and_grads(TrainingPair(("word", tid), view_ctx, label), "unit", view)
        total += loss
        if words_trainable:
            for key, v in g.rho.items():
                grads.add_rho(key, v)
        for key, v in g.alpha.items():
            c, i, w = back[key]
            if c == "unit" or words_trainable:
                grads.add_alpha((c, i), w * v)
    adagrad_step(Tables(word, unit=unit), grads, lr)
    return total


@settings(max_examples=150, deadline=None)
@given(steps())
def test_compiled_step_equals_pair_api(case):
    k, n_words, n_units, target, negs, words, units, seed, lr = case
    ctx = [("word", i, 1.0) for i in words] + [("unit", u, w) for u, w in units]
    for words_trainable in (False, True):  # a frozen context table, then a trained one
        want_word, want_unit = _tables(k, n_words, n_units, seed)
        got_word, got_unit = (EmbeddingTable.from_arrays(t.rho.copy(), t.alpha.copy()) for t in (want_word, want_unit))

        plan = assemble_plan(
            (n_words, n_units), (words_trainable, True),
            key=[0], cls=[0], target=[target], ctx_len=[len(ctx)],
            ctx_cls=[0 if c == "word" else 1 for c, _, _ in ctx],
            ctx_id=[i for _, i, _ in ctx], ctx_w=[w for _, _, w in ctx],
        )
        assert len(plan) == 1
        stacked = _stack([got_word, got_unit], plan.trainable)
        stacked[1][...] = _accumulators(want_word, want_unit)
        loss = sgd_block(stacked, plan, 0, 1, np.array([negs]), lr)

        want_loss = _pair_api_step(want_word, want_unit, target, negs, ctx, words_trainable, lr)
        assert abs(loss[0] - want_loss) <= 1e-12
        for got, want in ((got_word, want_word), (got_unit, want_unit)):
            for m in ("rho", "alpha"):
                np.testing.assert_allclose(getattr(got, m), getattr(want, m), rtol=0, atol=1e-12)
        np.testing.assert_allclose(stacked[1], _accumulators(want_word, want_unit), rtol=0, atol=1e-12)


# --- the kernel against the kernel before its step rewrite ----------------------


@st.composite
def blocks(draw):
    """A plan of up to 80 positions over two classes and a slice of it with
    its negatives.  Small classes make target rows repeat, large ones keep
    them distinct, an untrained class freezes its targets, contexts may be
    weighted, and some positions draw no negatives (a row of -1)."""
    sizes = (draw(st.integers(1, 10)), draw(st.integers(1, 60)))
    trainable = draw(st.sampled_from([(True, True), (False, True), (True, False)]))
    n_neg = draw(st.integers(0, 8))
    m = draw(st.integers(1, 80))
    weighted = draw(st.booleans())
    k = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([0.1, 1.0, 4.0]))
    lr = draw(st.sampled_from([0.05, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cls = rng.integers(0, 2, m)
    target = rng.integers(0, np.take(sizes, cls))
    ctx_len = rng.integers(1, 7, m)
    ctx_cls = rng.integers(0, 2, ctx_len.sum())
    ctx_id = rng.integers(0, np.take(sizes, ctx_cls))
    ctx_w = rng.choice([1.0, 1 / 2, 1 / 3, 0.7], len(ctx_cls)) if weighted else np.ones(len(ctx_cls))
    plan = assemble_plan(sizes, trainable, np.arange(m), cls, target, ctx_len, ctx_cls, ctx_id, ctx_w)
    assume(len(plan) > 0)
    lo = draw(st.integers(0, len(plan) - 1))
    hi = draw(st.integers(lo + 1, len(plan)))
    negs = rng.integers(0, np.take(sizes, plan.cls[lo:hi])[:, None], (hi - lo, n_neg))
    negs[rng.random(hi - lo) < 0.2] = -1
    n = sum(sizes)
    stacked = np.stack((scale * rng.standard_normal((2 * n, k)), rng.uniform(0.01, 2.0, (2 * n, k))))
    return stacked, plan, lo, hi, negs, lr


@settings(max_examples=200, deadline=None)
@given(blocks())
def test_kernel_matches_kernel_before_step_rewrite(case):
    stacked, plan, lo, hi, negs, lr = case
    got, want = stacked.copy(), stacked.copy()
    with np.errstate(over="ignore"):
        got_loss = sgd_block(got, plan, lo, hi, negs, lr)
        want_loss = reference_sgd_block(want, plan, lo, hi, negs, lr)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    # the per-step loss stays pinned at 1e-12 by the pair-API test
    np.testing.assert_allclose(got_loss, want_loss, rtol=1e-5, atol=1e-12)


# --- block negatives against the sequential sampler ---------------------------


def _weights(draw, rng, n: int, kind: str):
    """``n`` sampling weights of one kind, no id holding more than half:
    integer counts with about a third zero, floats over twelve decades, or
    equal weights on a power-of-two subset, so that every cumulative sum is
    a bucket edge of the sampler's table."""
    if kind == "edges":
        f = np.zeros(n, dtype=np.int64)
        f[rng.choice(n, 1 << draw(st.integers(1, n.bit_length() - 1)), replace=False)] = 1
        return f
    if kind == "counts":
        f = rng.integers(1, 30, n) * (rng.random(n) < 0.7)
    else:
        f = 10.0 ** rng.uniform(-6, 6, n)
    f[rng.choice(n, 2, replace=False)] = max(f.max(), 1)
    return f


@st.composite
def negative_streams(draw):
    """Plan-sized runs of positions over two samplers.  In the dominant case
    every position of sampler 0 excludes the id holding 90% of its weight,
    so it consumes ten times the doubles of a free draw and long runs are
    drawn in several chunks.  A sampler has 1 to 8 ids, or up to a few
    thousand with zero weights or cumulative sums on bucket edges, so that
    its table's buckets split at several boundaries and are searched."""
    def freqs():
        if draw(st.booleans()):
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            n = draw(st.integers(2, 3000))
            return _weights(draw, rng, n, draw(st.sampled_from(["counts", "floats", "edges"])))
        n = draw(st.integers(1, 8))
        f = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
        if draw(st.booleans()):  # one dominant id: rejections are frequent
            f[draw(st.integers(0, n - 1))] = 100
        return f

    sampler_freqs = [freqs(), freqs()]
    dominant = draw(st.booleans())
    if dominant:
        sampler_freqs[0] = [1, 9]
    n_pos = draw(st.integers(1, 1500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    which = rng.integers(0, 2, n_pos).tolist()
    exclude = [1 if dominant and w == 0 else int(rng.integers(len(sampler_freqs[w]))) for w in which]
    blocks = draw(st.lists(st.integers(1, 1500), min_size=1, max_size=4))
    size = draw(st.integers(1, 12))
    shared = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return sampler_freqs, which, exclude, blocks, size, shared, seed


def _samplers(sampler_freqs, shared, seed, bits=False):
    """Samplers on fresh Generators, the sequential oracle's, or with
    ``bits`` on their bit generators, as training gives its samplers."""
    rngs = [np.random.Generator(np.random.PCG64(seed))]
    rngs.append(rngs[0] if shared else np.random.Generator(np.random.PCG64(seed + 1)))
    return [NegativeSampler(r.bit_generator if bits else r, len(f), f) for r, f in zip(rngs, sampler_freqs)], rngs


@settings(max_examples=200, deadline=None)
@given(negative_streams())
def test_block_draws_reproduce_sequential_stream(case):
    sampler_freqs, which, exclude, blocks, size, shared, seed = case
    seq, seq_rngs = _samplers(sampler_freqs, shared, seed)
    want = [seq[w].draw(size, x) for w, x in zip(which, exclude)]

    blk, blk_rngs = _samplers(sampler_freqs, shared, seed, bits=True)
    got, lo, b = [], 0, 0
    while lo < len(which):
        hi = min(len(which), lo + blocks[b % len(blocks)])
        got.extend(draw_negatives(blk, which[lo:hi], exclude[lo:hi], size))
        lo, b = hi, b + 1

    for g, w, x in zip(got, want, exclude):
        assert np.array_equal(g[g >= 0], w)
        assert (g != x).all()
    for a, b in zip(seq_rngs, blk_rngs):
        assert a.bit_generator.state == b.bit_generator.state
    # the next sequential draw continues the same stream
    after = NegativeSampler(blk_rngs[0], len(sampler_freqs[0]), sampler_freqs[0])
    assert np.array_equal(seq[0].draw(size, exclude[0]), after.draw(size, exclude[0]))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5000), st.sampled_from(["uniform", "counts", "floats", "edges"]), st.integers(0, 2**32 - 1),
       st.data())
def test_table_maps_like_searchsorted(n, kind, seed, data):
    # at and beside every bucket edge and every cumulative weight, where a
    # bucket's id changes, and at random doubles
    rng = np.random.default_rng(seed)
    sampler = training.NegativeSampler(rng, n, None if kind == "uniform" else _weights(data.draw, rng, n, kind))
    edges, cum = np.arange(sampler.scale) / sampler.scale, sampler.cum
    u = np.concatenate([v for x in (edges, cum) for v in (x, np.nextafter(x, 0.0), np.nextafter(x, 1.0))]
                       + [rng.random(1000)])
    u = u[(u >= 0.0) & (u < 1.0)]
    assert np.array_equal(sampler.ids(u), np.searchsorted(cum, u, side="right"))


class _CountingBits:
    """A bit generator that records every ``random_raw`` call, as
    ("raw", words), and every ``advance``, as ("advance", delta)."""

    def __init__(self, bits):
        self.bits = bits
        self.calls = []

    def random_raw(self, n):
        self.calls.append(("raw", n))
        return self.bits.random_raw(n)

    def advance(self, delta):
        self.calls.append(("advance", delta))
        return self.bits.advance(delta)


@pytest.mark.parametrize(
    "n_pos, size, seed, chunks",
    [
        (3, 2, 0, lambda n: n == 1),  # one chunk
        # the positions consume more than the first chunk holds, so a second
        # chunk continues the stream where the first ended
        (3, 2, 1, lambda n: n == 2),
        # 150,000 expected doubles come in chunks of at most _POOL: three or more
        (300, 5, 5, lambda n: n >= 3),
    ],
    ids=["one_pool", "retried_pool", "pool_sized_groups"],
)
def test_block_draw_pools(n_pos, size, seed, chunks):
    # every position excludes the id holding 99% of the weight
    seq = NegativeSampler(np.random.Generator(np.random.PCG64(seed)), 2, [1, 99])
    want = [seq.draw(size, 1) for _ in range(n_pos)]
    rng = np.random.Generator(np.random.PCG64(seed))
    bits = _CountingBits(rng.bit_generator)
    got = draw_negatives([NegativeSampler(bits, 2, [1, 99])], [0] * n_pos, [1] * n_pos, size)
    *raw, (last, delta) = bits.calls
    assert {kind for kind, _ in raw} == {"raw"} and chunks(len(raw))
    assert max(n for _, n in raw) <= _POOL
    # one rewind, at the end, over doubles of the last chunk only
    assert last == "advance" and -raw[-1][1] < delta <= 0
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == seq.rng.bit_generator.state


@pytest.mark.parametrize(
    "freqs",
    [[0, 5, 0], [10**20, 1], [1, 1, 10**17], [1, 10**6]],
    ids=["one_nonzero", "one_swamps_the_rest", "swamping_id_last", "all_but_a_millionth"],
)
def test_draw_excluding_all_the_weight_raises(freqs):
    # refused before any double is drawn
    sampler = NegativeSampler(np.random.Generator(np.random.PCG64(0)), len(freqs), freqs)
    state = sampler.rng.bit_generator.state
    big = int(np.argmax(freqs))
    other = (big + 1) % len(freqs)
    with pytest.raises(ValueError, match="all the sampling weight"):
        sampler.draw(3, big)
    with pytest.raises(ValueError, match="all the sampling weight"):
        draw_negatives([NegativeSampler(sampler.rng.bit_generator, len(freqs), freqs)], [0, 0], [other, big], 3)
    assert sampler.rng.bit_generator.state == state
    assert len(sampler.draw(3, other)) == 3  # excluding anything else still draws
