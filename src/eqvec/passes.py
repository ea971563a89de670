"""Compiled training passes: every position of a pass as flat arrays.

A pass is enumerated once per fit, by vectorised window extraction over
the token streams' codes with gaps inserted at document boundaries, into
plans of int32 target and context rows that every epoch reuses.
Enumeration order is document order, positions left to right, the units
of an equation at the equation's position.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import EQ_TAG, GAP, CorpusData
from .model import ModelConfig

# Stream tokens a plan compiles: it ends at the first document boundary at
# or past this many, so its window matrices take about half a megabyte.
_COMPILE_TOKENS = 4096


def _exclusion_mask(data: CorpusData) -> np.ndarray:
    """Over the streams' codes, the positions training leaves out: held-out targets."""
    held = np.zeros(len(data.streams.codes), dtype=bool)
    for split in (data.heldout_valid, data.heldout_test):
        held[data.streams.ptr[split.stream] + split.position] = True
    return held


class PassSpec(NamedTuple):
    """A pass's table classes in stacked order, which of them train, the
    child seed of each class's negative stream (one seed, one stream) and
    the model view that scores it.  A trained class's rho rows update where
    it is the target, its alpha rows where it is context."""

    classes: tuple
    trainable: tuple
    seeds: tuple
    view: str


PASS_CLASSES = {
    "word": PassSpec(("word",), (True,), (3,), "word"),
    "equation": PassSpec(("word", "eq"), (False, True), (4, 4), "equation"),
    "unit": PassSpec(("word", "unit"), (False, True), (5, 5), "unit"),
    "joint": PassSpec(("word", "unit"), (True, True), (3, 5), "unit"),
}


def class_sizes(data: CorpusData) -> dict:
    """Rows of each table class."""
    return {"word": data.n_words, "eq": data.n_equations, "unit": len(data.unit_vocab)}


@dataclass
class PassPlan:
    """Part of a training pass as flat arrays, positions in enumeration order.

    Rows index a stacked matrix: the rho rows of every class (class c from
    ``offsets[c]``), then their alpha rows in the same order.  Position i
    predicts ``target[i]``, a class-local id of class ``cls[i]``, from the
    alpha rows ``ctx_rows[ctx_ptr[i]:ctx_ptr[i+1]]`` with weights ``ctx_w``
    (None when every weight is 1).  ``offsets`` is set from ``sizes``.
    """

    sizes: tuple
    trainable: tuple
    target: np.ndarray
    cls: np.ndarray
    ctx_ptr: np.ndarray
    ctx_rows: np.ndarray
    ctx_w: np.ndarray | None

    def __post_init__(self):
        self.offsets = _ptr(self.sizes)

    def __len__(self) -> int:
        return len(self.target)


def _ptr(lengths) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))


def _ranges(starts, lengths) -> np.ndarray:
    """Concatenated ``arange(s, s + l)`` for every (s, l) pair."""
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shift = np.asarray(starts, dtype=np.int64) - (np.cumsum(lengths) - lengths)
    return np.repeat(shift, lengths) + np.arange(total)


def assemble_plan(sizes, trainable, key, cls, target, ctx_len, ctx_cls, ctx_id, ctx_w) -> PassPlan:
    """Order positions by ``key``, drop those with nothing to learn, and lay
    their contexts out as stacked rows.

    ``ctx_len`` gives each position's number of context entries, which are
    listed position by position in ``ctx_cls``/``ctx_id``/``ctx_w``.  A
    position is dropped when its context is empty or when neither its
    target nor any context entry is trainable.
    """
    trainable_cls = np.asarray(trainable, dtype=bool)
    offsets = _ptr(sizes)
    ctx_len = np.asarray(ctx_len, dtype=np.int64)
    ctx_start = _ptr(ctx_len)[:-1]
    entry_pos = np.repeat(np.arange(len(ctx_len)), ctx_len)
    learns = np.bincount(entry_pos, trainable_cls[ctx_cls], minlength=len(ctx_len)) > 0
    keep = np.flatnonzero((ctx_len > 0) & (trainable_cls[cls] | learns))
    keep = keep[np.argsort(np.asarray(key)[keep], kind="stable")]

    lens = ctx_len[keep]
    take = _ranges(ctx_start[keep], lens)
    e_cls = np.asarray(ctx_cls)[take]
    weights = np.asarray(ctx_w, dtype=np.float64)[take]
    return PassPlan(
        sizes=tuple(int(s) for s in sizes),
        trainable=tuple(bool(t) for t in trainable),
        target=np.asarray(target, dtype=np.int32)[keep],
        cls=np.asarray(cls, dtype=np.int8)[keep],
        ctx_ptr=_ptr(lens).astype(np.int32),
        ctx_rows=(offsets[-1] + offsets[e_cls] + np.asarray(ctx_id, dtype=np.int64)[take]).astype(np.int32),
        ctx_w=None if (weights == 1.0).all() else weights,
    )


def _window(seq, pos, half):
    """Entries at offsets -half..-1 and 1..half around each position."""
    off = np.concatenate((np.arange(-half, 0), np.arange(1, half + 1)))
    return seq[pos[:, None] + off]


def expand_units(units, eq_ids, mean: bool):
    """The context entries ``eq_ids`` stand for under a (ptr, flat) map such
    as an ``EquationUnits``'s ``ptr`` and ``ids``: each id's units in order, weighted 1, or 1/n when
    ``mean`` (``unit_context_mean``).  Returns (entries per id, unit ids,
    weights)."""
    ptr, flat = units
    n_per = np.diff(ptr)[eq_ids]
    ids = flat[_ranges(ptr[eq_ids], n_per)]
    return n_per, ids, np.repeat(1.0 / np.maximum(n_per, 1), n_per) if mean else np.ones(len(ids))


def _context(cls: int, win, hit):
    """A context of one class from a window matrix: (row lengths, class,
    id, weight), entries listed row by row, left to right."""
    ids = win[hit].astype(np.int64)
    return hit.sum(axis=1), np.full(len(ids), cls, dtype=np.int64), ids, np.ones(len(ids))


def _cat_rows(a, b):
    """Context whose row i is row i of ``a`` followed by row i of ``b``."""
    starts = np.stack((_ptr(a[0])[:-1], len(a[1]) + _ptr(b[0])[:-1]), axis=1).ravel()
    order = _ranges(starts, np.stack((a[0], b[0]), axis=1).ravel())
    return (a[0] + b[0],) + tuple(np.concatenate((x, y))[order] for x, y in zip(a[1:], b[1:]))


def compile_pass(data: CorpusData, config: ModelConfig, pass_name: str) -> list[PassPlan]:
    """Enumerate one pass's training positions with their contexts.

    Word targets are the words not held out; their context is the words of
    the word window plus, after the first pass, the equations (or the units
    of the equations) of the word-equation window.  Equation targets see
    the words of their own window; unit targets see the units around them
    in their equation.  Streams are compiled into consecutive plans of at
    least ``_COMPILE_TOKENS`` tokens (the last may hold fewer), each ending
    at a document boundary, so the window matrices stay small and the plans
    are never copied into one.
    """
    spec = PASS_CLASSES[pass_name]
    sizes = [class_sizes(data)[c] for c in spec.classes]
    units = data.eq_units.ptr, data.eq_units.ids
    held, ptr = _exclusion_mask(data), data.streams.ptr
    plans, lo, ends = [], 0, ptr.tolist()
    for hi in range(1, len(ends)):
        if ends[hi] - ends[lo] >= _COMPILE_TOKENS or hi == len(ends) - 1:
            plans.append(_compile_streams(data.streams.codes, held, ptr[lo : hi + 1], units, sizes,
                                          spec.trainable, config, pass_name))
            lo = hi
    return plans


def _compile_streams(codes, held, bounds, units, sizes, trainable, config, pass_name) -> PassPlan:
    """``compile_pass`` over the documents at offsets ``bounds`` of the
    streams' ``codes`` and ``held`` mask: windows are cut from their tokens
    with gaps inserted at every boundary, so that none crosses one."""
    half_w, half_e = config.word_window // 2, config.eq_window // 2
    half_m, half_u = config.eq_context_window // 2, config.unit_window // 2
    pad = max(half_w, half_e, half_m)
    cuts = np.repeat(bounds - bounds[0], pad)  # pad slots at every boundary
    codes = np.insert(codes[bounds[0] : bounds[-1]], cuts, GAP)
    held = np.insert(held[bounds[0] : bounds[-1]], cuts, False)
    eq_pos = np.flatnonzero((codes != GAP) & (codes >= EQ_TAG))
    eq_ids = (codes[eq_pos] & ~EQ_TAG).astype(np.int64)

    words = np.flatnonzero((codes < EQ_TAG) & ~held)
    win = _window(codes, words, half_w)
    ctx = _context(0, win, win < EQ_TAG)
    if pass_name != "word":
        win = _window(codes, words, half_e)
        eqs = _context(1, win & ~EQ_TAG, (win != GAP) & (win >= EQ_TAG))
        if pass_name != "equation":
            n_per, ids, w = expand_units(units, eqs[2], config.unit_context_mean)
            per_row = np.bincount(np.repeat(np.arange(len(words)), eqs[0]), n_per, minlength=len(words))
            eqs = (per_row.astype(np.int64), np.ones(len(ids), dtype=np.int64), ids, w)
        ctx = _cat_rows(ctx, eqs)
    # (stream position, index inside the equation, class, target, context)
    parts = [(words, np.zeros(len(words), dtype=np.int64), 0, codes[words].astype(np.int64), ctx)]
    if pass_name == "equation":
        win = _window(codes, eq_pos, half_m)
        parts.append((eq_pos, np.zeros(len(eq_pos), dtype=np.int64), 1, eq_ids, _context(0, win, win < EQ_TAG)))
    elif pass_name in ("unit", "joint"):
        # the unit sentences of all equation occurrences, gap-padded like streams
        n_per, seq, _ = expand_units(units, eq_ids, False)
        starts = half_u * np.arange(1, len(eq_ids) + 1) + _ptr(n_per)[:-1]
        slots = _ranges(starts, n_per)
        sent = np.full(len(seq) + half_u * (len(eq_ids) + 1), -1, dtype=np.int64)
        sent[slots] = seq
        win = _window(sent, slots, half_u)
        parts.append((np.repeat(eq_pos, n_per), slots - np.repeat(starts, n_per), 1, sent[slots],
                      _context(1, win, win >= 0)))
    span = 1 + max(int(p[1].max(initial=0)) for p in parts)
    return assemble_plan(
        sizes,
        trainable,
        key=np.concatenate([p[0] * span + p[1] for p in parts]),
        cls=np.concatenate([np.full(len(p[0]), p[2]) for p in parts]),
        target=np.concatenate([p[3] for p in parts]),
        ctx_len=np.concatenate([p[4][0] for p in parts]),
        ctx_cls=np.concatenate([p[4][1] for p in parts]),
        ctx_id=np.concatenate([p[4][2] for p in parts]),
        ctx_w=np.concatenate([p[4][3] for p in parts]),
    )
