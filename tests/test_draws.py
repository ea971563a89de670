"""Draws from the raw PCG64 stream against ``np.random.Generator``, value for
value, on one stream whose calls interleave; and the ``Generator`` behaviour
training's draws rely on: ``doubles`` and ``uniform``, bitwise, and
``PCG64.advance`` rewinding past doubles drawn and not used."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqvec.draws import Draws, doubles
from eqvec.model import EmbeddingTable

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
    draws = Draws(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    for n in calls:
        if n is None:
            assert draws.random() == rng.random()
        else:
            assert draws.integers(n) == int(rng.integers(n))


def test_draws_cross_blocks():
    """A run longer than one block of raw words stays numpy's."""
    draws = Draws(5)
    rng = np.random.Generator(np.random.PCG64(5))
    for i in range(3 * Draws.BLOCK):
        n = (3 * 2**30, 7)[i % 2]
        assert draws.integers(n) == int(rng.integers(n))
        assert draws.random() == rng.random()


def _choice_args(n_max: int):
    return st.integers(0, n_max).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))


# A choice from more than 10000 with size above n // 50 takes numpy's tail
# shuffle; any other takes Floyd's algorithm.
_CHOICE_ARGS = st.one_of(
    _choice_args(60),
    st.integers(10001, 10200).flatmap(lambda n: st.tuples(st.just(n), st.integers(n // 50 + 1, n // 50 + 40))),
    st.tuples(st.sampled_from((10001, 2**31, 2**32)), st.integers(0, 12)),
)
# One call each: ("random",), ("integers", n), ("block", n, size) or ("choice", n, size).
_CALLS = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"), st.sampled_from(_RANGES)),
    st.tuples(st.just("block"), st.sampled_from(_RANGES), st.integers(0, 40)),
    _CHOICE_ARGS.map(lambda args: ("choice", *args)),
)


def _generator_call(rng, call):
    kind, *args = call
    if kind == "random":
        return rng.random()
    if kind == "integers":
        return int(rng.integers(args[0]))
    if kind == "block":
        return rng.integers(args[0], size=args[1]).tolist()
    return rng.choice(args[0], size=args[1], replace=False).tolist()


def _draws_call(draws, call):
    kind, *args = call
    if kind == "random":
        return draws.random()
    if kind == "integers":
        return draws.integers(args[0])
    if kind == "block":
        return draws.integers(*args)
    return draws.choice(*args)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1), st.lists(_CALLS, max_size=60))
@example(1, [("choice", 0, 0), ("choice", 1, 1), ("choice", 1, 0), ("choice", 9, 9), ("block", 1, 5)])
@example(2, [("integers", 5), ("block", 3 * 2**30, 40), ("random",), ("block", 2**32, 7), ("choice", 10001, 10001)])
@example(3, [("choice", 12000, 241), ("block", 2**32 - 1, 33), ("choice", 10000, 10000), ("random",)])
def test_interleaved_calls_match_numpy_generator(seed, calls):
    """``random()``, ``integers(n)``, ``integers(n, size)`` and
    ``choice(n, size)`` in any order give ``Generator``'s values: Floyd's
    algorithm and the tail shuffle, ``size`` 0 and ``n``, ``n == 1``, and
    blocks from bounds whose half draws Lemire's check rejects."""
    draws = Draws(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    for call in calls:
        assert _draws_call(draws, call) == _generator_call(rng, call), call


@pytest.mark.parametrize("seed", [0, 9, 2**63 + 5])
def test_blocks_cross_blocks_of_raw_words(seed):
    """Blocks of integers that straddle the end of a block of raw words,
    after a kept half or none, stay numpy's."""
    draws = Draws(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    for i in range(2000):
        size = (10, 7, 1, 23)[i % 4]
        assert draws.integers(5973, size) == rng.integers(5973, size=size).tolist()
        if i % 3 == 0:
            assert draws.integers(11) == int(rng.integers(11))
        if i % 5 == 0:
            assert draws.random() == rng.random()


@pytest.mark.parametrize(
    "call",
    [lambda d: d.integers(0), lambda d: d.integers(2**32 + 1), lambda d: d.integers(0, 3),
     lambda d: d.integers(2**32 + 1, 3), lambda d: d.choice(3, 4), lambda d: d.choice(2**32 + 1, 1),
     lambda d: d.choice(3, -1)],
)
def test_out_of_range_arguments_raise(call):
    with pytest.raises(ValueError):
        call(Draws(0))


def test_draws_make_no_generator_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.random.Generator used")

    monkeypatch.setattr(np.random, "Generator", refuse)
    draws = Draws(3)
    draws.random(), draws.integers(7), draws.integers(7, 9), draws.choice(12000, 300), draws.choice(5, 2)


# 0 and 1, and runs past two of ``Draws``' blocks of raw words
_SIZES = st.one_of(st.sampled_from((0, 1, 2 * Draws.BLOCK + 1, 3 * Draws.BLOCK)), st.integers(0, 3 * Draws.BLOCK))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**64 - 1), st.lists(_SIZES, min_size=1, max_size=4))
def test_doubles_are_generator_random(seed, sizes):
    bits = np.random.PCG64(seed)
    rng = np.random.Generator(np.random.PCG64(seed))
    for n in sizes:
        assert doubles(bits, n).tobytes() == rng.random(n).tobytes()
    assert bits.state == rng.bit_generator.state


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**64 - 1), st.integers(0, 40), st.integers(1, 30),
    st.one_of(st.sampled_from((0.5 / 25, 0.02, 0.4, 0.5, 2.0)), st.floats(1e-6, 1e6)),
)
def test_embedding_table_is_generator_uniform(seed, size, k, scale):
    table = EmbeddingTable(size, k, np.random.PCG64(seed), scale)
    rng = np.random.Generator(np.random.PCG64(seed))
    assert table.rho.tobytes() == rng.uniform(-scale, scale, (size, k)).tobytes()
    assert table.alpha.tobytes() == rng.uniform(-scale, scale, (size, k)).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**64 - 1), st.integers(0, 9),
    _SIZES.flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
)
def test_advance_rewinds_past_unused_doubles(seed, n_integers, n_m):
    """``doubles(bits, n)`` then ``bits.advance(-m)`` leaves the state of a
    Generator that drew ``n - m`` doubles, after ``integers`` calls on the
    same bit generator too, except that ``advance`` drops the half word
    ``integers`` may keep.  Training's streams draw no integers, so never
    keep one."""
    n, m = n_m
    rng = np.random.Generator(np.random.PCG64(seed))
    want = np.random.Generator(np.random.PCG64(seed))
    rng.integers(5, size=n_integers), want.integers(5, size=n_integers)
    doubles(rng.bit_generator, n)
    rng.bit_generator.advance(-m)
    want.random(n - m)
    assert rng.bit_generator.state == {**want.bit_generator.state, "has_uint32": 0, "uinteger": 0}
    assert rng.random(3).tobytes() == want.random(3).tobytes()
