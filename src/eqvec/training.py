"""Training loops: negative-sampling SGD with Adagrad over token streams.

Three modes share one discipline, declared per pass in
``passes.PASS_CLASSES``.  Words are always fitted first with equations
ignored; the second pass then fits equation vectors (or unit vectors)
while every word vector stays frozen.  Each pass early-stops on the
validation predictive log-likelihood.  Single-threaded enumeration is
document order, positions left to right, negatives drawn immediately
after each positive from a seeded stream, so a (seed, config, corpus)
triple fully determines the fitted parameters.

Each pass is compiled once per fit into plans of flat arrays (``passes``)
and stacks its tables into one parameter array, of which the tables are
views, beside one array of their Adagrad accumulators.  An epoch then draws
a plan's negatives by one scan, a slice of positions at a time, and takes
one serial SGD step per position on the stacked arrays.
"""

import time
from dataclasses import dataclass, fields

import numpy as np

from . import evaluation, passes
from .corpus import CorpusData
from .draws import doubles
from .model import LOG_EPS, MODES, EmbeddingTable, Model, ModelConfig
from .passes import PASS_CLASSES, PassPlan, _ptr, _ranges, compile_pass

ADAGRAD_FLOOR = 1e-8


class TrainingDiverged(RuntimeError):
    """Raised when the validation score goes non-finite.

    The trainer rolls tables back to the last good epoch before raising and
    attaches that snapshot as ``model`` so callers can retain it."""

    def __init__(self, pass_name: str, epoch: int, model: Model, records: list):
        super().__init__(f"validation score became non-finite in {pass_name} pass, epoch {epoch}")
        self.pass_name = pass_name
        self.epoch = epoch
        self.model = model
        self.records = records


@dataclass
class EpochRecord:
    """One epoch of a pass.  ``seconds`` covers the whole epoch, of which
    ``score_seconds`` went to scoring the validation split."""

    pass_name: str
    epoch: int
    validation_score: float
    seconds: float
    train_loss: float
    score_seconds: float


def epochs_per_pass(records) -> dict:
    """Each pass's epochs run, by pass name in the order the passes ran."""
    return {r.pass_name: r.epoch for r in records}


# A sampler's table has 2**bits buckets: four to eight per id, at most 2**16.
_TABLE_BITS = 16


class NegativeSampler:
    """The distribution ``draw_negatives`` draws negative target ids from.

    Unigram sampling uses the raw frequency distribution (power 1.0);
    without frequencies every id has equal weight (uniform sampling).  Both
    map one uniform double u per draw to ``searchsorted(cum, u,
    side="right")``, through ``table``: 2**bits equal buckets of [0, 1).
    ``floor(u * 2**bits)`` is exact and the search is monotone in u, so the
    doubles of a bucket map to ids from the one its first double maps to
    up to the one its last double maps to.  Where those are at most one id
    apart, the bucket holds the first and a double adds 1 if it reaches
    that id's cumulative weight; a bucket split by more boundaries holds -1
    and its doubles are searched.  ``accept[i]`` is the chance that a draw
    is not id i.
    """

    def __init__(self, rng: np.random.PCG64, n: int, freqs=None):
        self.rng = rng
        self.n = n
        self.cum = None
        if n > 1:
            w = np.ones(n) if freqs is None else np.asarray(freqs, dtype=np.float64)
            if w.sum() <= 0:
                w = np.ones(n)
            self.cum = np.cumsum(w / w.sum())
            self.cum[-1] = 1.0
            self.accept = 1.0 - np.diff(self.cum, prepend=0.0)
            self.scale = float(1 << min(_TABLE_BITS, int(n).bit_length() + 2))
            edges = np.arange(self.scale + 1) / self.scale
            first = np.searchsorted(self.cum, edges[:-1], side="right")
            last = np.searchsorted(self.cum, np.nextafter(edges[1:], 0.0), side="right")
            self.table = np.where(last - first <= 1, first, -1).astype(np.int32)

    def ids(self, u: np.ndarray) -> np.ndarray:
        """The id each double of ``u``, all in [0, 1), maps to."""
        ids = self.table[(u * self.scale).astype(np.intp)]
        ids += self.cum[ids] <= u  # a split bucket's -1 reads cum[-1], 1.0, and stays
        split = np.flatnonzero(ids < 0)
        if split.size:
            ids[split] = np.searchsorted(self.cum, u[split], side="right")
        return ids


_POOL = 1 << 16  # doubles one chunk of a scan draws and maps, at most


def _expected_draws(size: int, accept, exclude) -> np.ndarray:
    """Doubles each position is expected to consume for ``size`` negatives;
    ValueError where that exceeds ``_POOL`` (or the id holds all the weight)."""
    with np.errstate(divide="ignore"):
        need = size / np.asarray(accept)
    hit = np.flatnonzero(need > _POOL)
    if hit.size:
        raise ValueError(f"cannot draw negatives excluding id {exclude[hit[0]]}: "
                         "it holds all or nearly all the sampling weight")
    return need


def draw_negatives(samplers, which, exclude, size: int) -> np.ndarray:
    """Negatives for consecutive positions, drawn as one block.

    Row i holds exactly what a sequential draw for each position in order
    gives: ``size`` doubles from the generator mapped through the cumulative
    distribution of ``samplers[which[i]]``, ``exclude[i]`` dropped, and the
    shortfall drawn the same way until the row is full.  Every generator is
    left where those draws leave it; samplers that share a generator share
    its stream in position order.  Rows whose sampler has nothing to draw
    from are -1.
    """
    which = np.asarray(which)
    exclude = np.asarray(exclude, dtype=np.int64)
    out = np.full((len(which), size), -1, dtype=np.int64)
    streams: dict[int, list[int]] = {}
    for i, s in enumerate(samplers):
        if s.cum is not None:
            streams.setdefault(id(s.rng), []).append(i)
    for members in streams.values():
        sel = np.flatnonzero(np.isin(which, members))
        if sel.size:
            out[sel] = _draw_stream(
                [samplers[m] for m in members], np.searchsorted(members, which[sel]), exclude[sel], size
            )
    return out


def _draw_stream(samplers, which, exclude, size):
    """``draw_negatives`` for samplers sharing one generator, by one scan.

    Each position takes ``size`` ids from the cursor; one that drew its own
    exclusion takes further ids until ``size`` others are in its row, as
    the rounds of the sequential draw do, and its row is the ids it took
    without the exclusion.  Doubles are drawn and mapped through every
    sampler a chunk at a time (the expected need of the positions left plus
    four of its square roots, at most ``_POOL``), one row per sampler of a
    2-D array; rows run back to back from the start of a chunk, which
    carries over the last one's ids from the start of the row that ran
    out, and are copied out of it by one ``take`` when the next is drawn.
    The generator is then rewound to just past the doubles used: one raw
    word each, and ``advance`` wraps a negative delta."""
    offsets = _ptr([s.n for s in samplers])[which]
    need = _expected_draws(size, np.concatenate([s.accept for s in samplers])[offsets + exclude], exclude)
    rest = np.cumsum(need[::-1])[::-1].tolist()
    bits = samplers[0].rng
    out = np.empty((len(which), size), dtype=np.int64)
    mapped, ids = np.empty((len(samplers), 0), dtype=np.int32), None
    used, end, first = 0, 0, 0
    longer = []  # (position, further ids taken) of the rows that drew their exclusion

    def flush(upto):  # rows first..upto-1 of the chunk, into out
        lens = np.full(upto - first, size)
        if longer:
            at, extra = np.array(longer).T
            lens[at - first] += extra
        got = int(lens.sum())
        vals = mapped.take(np.repeat(which[first:upto], lens) * mapped.shape[1] + np.arange(got))
        if longer:
            vals = vals[vals != np.repeat(exclude[first:upto], lens)]
            longer.clear()
        out[first:upto] = vals.reshape(-1, size)

    def more(i, start):  # the next chunk, from position i's row, which begins at ``start``
        nonlocal mapped, ids, used, end, first
        if i > first:
            flush(i)
        u = doubles(bits, min(int(rest[i] + 4 * rest[i] ** 0.5) + 1, _POOL))
        mapped = np.concatenate((mapped[:, start:], [s.ids(u) for s in samplers]), axis=1)
        ids = mapped.tolist()
        used, end, first = used - start, end - start + len(u), i

    for i, (w, x) in enumerate(zip(which.tolist(), exclude.tolist())):
        if used + size > end:
            more(i, used)
        seq = ids[w]
        start, used = used, used + size
        row = seq[start:used]
        if x in row:
            short = row.count(x)
            while short:
                if used == end:
                    more(i, start)
                    start, seq = 0, ids[w]
                if seq[used] != x:
                    short -= 1
                used += 1
            longer.append((i, used - start - size))
    flush(len(which))
    bits.advance(used - end)
    return out


# --- the SGD step ---------------------------------------------------------------


def _merged(pos, rows, weights, m: int, n_rows: int):
    """Each position's distinct ``rows`` in order of first occurrence, their
    ``weights`` summed in occurrence order, and how many distinct rows each
    of the ``m`` positions has.  ``pos`` (nondecreasing) names each entry's
    position; rows are below ``n_rows``."""
    key = pos * n_rows + rows
    order = np.argsort(key, kind="stable")
    opens = np.ones(len(key), dtype=bool)
    opens[1:] = key[order][1:] != key[order][:-1]
    run = np.empty(len(key), dtype=np.int64)
    run[order] = np.cumsum(opens) - 1
    first = np.zeros(len(key), dtype=bool)
    first[order[opens]] = True
    return rows[first], np.bincount(run, weights)[run[first]], np.bincount(pos[first], minlength=m)


def _stack(tables, trainable) -> tuple[np.ndarray, np.ndarray]:
    """``(params, acc)``, two separate (rows, k) arrays: the parameters,
    every table's rho rows then every table's alpha rows, and their Adagrad
    accumulators in the same layout, all at the floor: a table trains in one
    pass at most.  Each table's matrices become views of the parameters,
    read-only where the table is not ``trainable``, so steps on the pair
    train the tables, and a fitted model keeps no accumulator alive."""
    n = sum(t.size for t in tables)
    params, o = np.empty((2 * n, tables[0].k)), 0
    for t, tr in zip(tables, trainable):
        rho, alpha = params[o : o + t.size], params[n + o : n + o + t.size]
        rho[...], alpha[...] = t.rho, t.alpha
        t.rho, t.alpha = rho, alpha
        if not tr:
            t.freeze()
        o += t.size
    return params, np.full(params.shape, ADAGRAD_FLOOR)


def sgd_block(stacked, plan: PassPlan, lo: int, hi: int, negatives, lr: float) -> np.ndarray:
    """Serial SGD steps for positions ``lo:hi`` on ``stacked``, a pass's
    parameters and accumulators as ``_stack`` gives them; returns their
    losses.

    ``negatives`` holds each position's class-local negative ids (-1 for
    none).  Each step is one positive and its sampled zeros sharing one
    context sum: b = sigmoid(rho_t . s), err = b - y, and one Adagrad step
    (acc += g^2; cell -= lr g / sqrt(acc)) over the touched trainable rows
    with g = (sum of err over a target row's draws) * s for target rows and
    (summed context weight) * (err . rho) for context rows.  Losses are
    clamped at 1e-12 like the pair loss.

    A row drawn d times for one position adds d identical terms (same row,
    same context sum, same label), so a step scores each distinct target
    row once, the target first, and multiplies its error by d.  A step
    holds -s and -err; every sign flip is exact.  Each position has a
    (2, rows it updates) coefficient block whose row 0 multiplies -s and
    row 1 -(err . rho).  A position whose target trains writes its errors
    straight into row 0; one with a frozen target keeps them in a tail
    after the blocks.  Adagrad gathers and scatters each touched row of the
    parameters and of the accumulators as one item.
    """
    m = hi - lo
    n_rows, k = stacked[0].shape
    cls = plan.cls[lo:hi]
    base = plan.offsets[cls]
    valid = np.concatenate((np.ones((m, 1), dtype=bool), negatives >= 0), axis=1)
    n_drawn = valid.sum(axis=1)
    drawn = np.concatenate(((plan.target[lo:hi] + base)[:, None], negatives + base[:, None]), axis=1)[valid]
    trows, draws, nt = _merged(np.repeat(np.arange(m), n_drawn), drawn, np.ones(len(drawn)), m, n_rows)
    tptr = _ptr(nt)
    cptr = plan.ctx_ptr[lo : hi + 1].astype(np.int64)
    ctx = plan.ctx_rows[cptr[0] : cptr[-1]].astype(np.int64)
    weights = np.ones(len(ctx)) if plan.ctx_w is None else plan.ctx_w[cptr[0] : cptr[-1]]
    nc = np.diff(cptr)
    cptr -= cptr[0]
    gptr = _ptr(nt + nc)
    gidx = np.empty(int(gptr[-1]), dtype=np.int64)
    gidx[_ranges(gptr[:-1], nt)] = trows
    gidx[_ranges(gptr[:-1] + nt, nc)] = ctx
    # weights negated so the context sum comes out negated, ready for exp
    wneg = -weights

    # trainable context rows, one per distinct row of a position, weights summed
    trainable_rows = np.repeat(np.asarray(plan.trainable, dtype=bool), plan.sizes)
    learn = trainable_rows[ctx - n_rows // 2]
    crows, grad_coef, ng = _merged(np.repeat(np.arange(m), nc)[learn], ctx[learn], weights[learn], m, n_rows)
    update_target = np.asarray(plan.trainable, dtype=bool)[cls]
    nu = nt * update_target
    n_upd = nu + ng
    uptr = _ptr(n_upd)
    n_u = int(uptr[-1])
    urows = np.empty(n_u, dtype=np.int64)
    urows[_ranges(uptr[:-1], nu)] = trows[np.repeat(update_target, nt)]
    urows[_ranges(uptr[:-1] + nu, ng)] = crows
    # per position a (2, n_upd) coefficient block, row 1 negated once here,
    # then the tail: where each position's errors live is eptr
    tail = _ptr(nt * ~update_target)
    eptr = np.where(update_target, 2 * uptr[:-1], 2 * n_u + tail[:-1])
    coef = np.zeros(2 * n_u + int(tail[-1]))
    coef[_ranges(2 * uptr[:-1] + n_upd + nu, ng)] = -grad_coef
    # where a position's draw counts start, -1 where no row was drawn twice
    dptr = np.where(nt < n_drawn, tptr[:-1], -1)

    item = np.dtype((np.void, 8 * k))  # one row of k doubles
    pv, av = stacked[0].view(item)[:, 0], stacked[1].view(item)[:, 0]
    f8 = np.dtype(np.float64)
    b0 = np.empty(m)
    vec = np.empty((2, k))
    v0, v1 = vec
    take, exp, add, multiply, divide, subtract, sqrt = (
        stacked[0].take, np.exp, np.add, np.multiply, np.divide, np.subtract, np.sqrt)
    # 0-d operands: a ufunc converts a Python float on every call
    one, minus_one, rate = np.array(1.0), np.array(-1.0), np.array(lr, dtype=f8)
    steps = zip(
        gptr[:-1].tolist(), gptr[1:].tolist(), nt.tolist(), eptr.tolist(),
        cptr[:-1].tolist(), cptr[1:].tolist(), uptr[:-1].tolist(), uptr[1:].tolist(), dptr.tolist(),
    )
    for i, (g0, g1, t, e0, c0, c1, u0, u1, d0) in enumerate(steps):
        x = take(gidx[g0:g1], 0)
        r = x[:t]
        wneg[c0:c1].dot(x[t:], v0)
        e = coef[e0 : e0 + t]
        r.dot(v0, e)
        exp(e, e)
        add(e, one, e)
        divide(minus_one, e, e)
        b0[i] = e[0]
        if d0 >= 0:  # before the target's +1, so a negative equal to it stays exact
            multiply(e, draws[d0 : d0 + t], e)
        e[0] += 1.0
        e.dot(r, v1)
        g = coef[2 * u0 : 2 * u1].reshape(2, u1 - u0).T.dot(vec).ravel()
        rows = urows[u0:u1]
        zp, za = pv.take(rows), av.take(rows)
        p, a = zp.view(f8), za.view(f8)
        g2 = multiply(g, g)
        add(a, g2, a)
        sqrt(a, g2)
        multiply(g, rate, g)
        divide(g, g2, g)
        subtract(p, g, p)
        pv[rows] = zp
        av[rows] = za

    # each draw of a negative adds log(1 - b): its row's error holds -d b;
    # each further draw of the target adds log(1 - b_target) = log(1 + b0)
    d = draws[_ranges(tptr[:-1] + 1, nt - 1)]
    neg = d * np.log(np.maximum(1.0 + coef[_ranges(eptr + 1, nt - 1)] / d, LOG_EPS))
    neg_loss = np.bincount(np.repeat(np.arange(m), nt - 1), neg, minlength=m)
    neg_loss = neg_loss + (draws[tptr[:-1]] - 1.0) * np.log(np.maximum(1.0 + b0, LOG_EPS))
    return -np.log(np.maximum(-b0, LOG_EPS)) - neg_loss


# Positions an epoch steps at a time, at most.
_SLICE_POSITIONS = 1024
# Negatives per position at which a slice holds all ``_SLICE_POSITIONS``
# positions: ModelConfig's default, the setting the slice size was tuned at.
_SLICE_NEGATIVES = ModelConfig.n_negatives


def _run_epoch(plans, stacked, samplers, config: ModelConfig) -> float:
    """One epoch of a pass on its stacked tables; returns the summed loss.

    A plan runs in slices of at most ``_SLICE_POSITIONS`` positions: a
    plan holds a few thousand tokens' positions or a long document's, and
    a slice bounds the memory its negative draw and step set-up take.
    Above ``_SLICE_NEGATIVES`` negatives a slice holds proportionally fewer
    positions, which keeps positions x n_negatives, and so its negatives
    and per-position set-up, at most what the default takes."""
    total = 0.0
    n = max(1, _SLICE_POSITIONS * _SLICE_NEGATIVES // max(_SLICE_NEGATIVES, config.n_negatives))
    with np.errstate(over="ignore"):
        for plan in plans:
            for lo in range(0, len(plan), n):
                hi = min(lo + n, len(plan))
                negs = draw_negatives(samplers, plan.cls[lo:hi], plan.target[lo:hi], config.n_negatives)
                for loss in sgd_block(stacked, plan, lo, hi, negs, config.learning_rate).tolist():
                    total += loss
    return total


# --- the fit: one early-stopped loop per pass ------------------------------------


def train_model(data: CorpusData, config: ModelConfig, mode: str, word=None):
    """Fit a model of the requested mode; returns (model, epoch records).

    Runs the word pass and then the mode's own pass, or only the joint pass
    of a ``unit_joint`` model.  Each pass stops at the first epoch whose
    validation score fails to improve and keeps its predecessor.  Tables
    and negative streams use independent child seeds of ``config.seed``, so
    the fitted word table is bit-identical across modes on corpora where
    the extra passes have nothing to train.

    ``word`` is ``(model, records)`` of an earlier fit with a word pass on
    the same data, at a config that differs from ``config`` at most in
    ``eq_window``, which the word pass does not read.  Its word table and
    ``"word"`` records then stand for this fit's word pass, which is not
    run again: the result is the one a fresh fit gives.  The earlier model
    is never written; a word mode fit fits nothing and shares its arrays.
    ``ValueError`` before any fitting where the earlier fit has no word
    pass, another word count or another config, or this fit is joint.
    """
    config.validate()
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    streams = [np.random.PCG64(s) for s in np.random.SeedSequence(config.seed).spawn(6)]
    if mode == "unit" and config.unit_joint:
        pass_names = ["joint"]
    else:
        pass_names = ["word"] if mode == "word" else ["word", mode]
    records: list[EpochRecord] = []
    if word is not None:
        records = _word_pass_of(word, data, config, pass_names)
        pass_names = pass_names[1:]
    used = {c for p in pass_names for c in PASS_CLASSES[p].classes}
    sizes = passes.class_sizes(data)
    tables = {} if word is None else {"word": EmbeddingTable.from_arrays(word[0].word.rho, word[0].word.alpha)}
    # the word, equation and unit tables start from child seeds 0, 1 and 2
    tables.update({c: EmbeddingTable(n, config.k, streams[i], config.scale)
                   for i, (c, n) in enumerate(sizes.items()) if c in used and c not in tables})

    def freqs(cls):
        if config.negative_sampling != "unigram":
            return None
        if cls == "eq":
            return data.registry.counts
        return (data.word_vocab if cls == "word" else data.unit_vocab).freqs

    def view(name):
        return Model(name, config, tables["word"], eq=tables.get("eq"), unit=tables.get("unit"),
                     eq_units=data.eq_units, n_equations=data.n_equations)

    for name in pass_names:
        spec = PASS_CLASSES[name]
        stacked = _stack([tables[c] for c in spec.classes], spec.trainable)
        samplers = [NegativeSampler(streams[s], sizes[c], freqs(c)) for c, s in zip(spec.classes, spec.seeds)]
        best = stacked[0].copy()  # the parameters of the last good epoch
        plans, trace = None, []
        for epoch in range(1, config.max_epochs + 1):
            t0 = time.perf_counter()
            if plans is None:  # compiled inside the first epoch, which it belongs to
                plans = compile_pass(data, config, name)
            loss = _run_epoch(plans, stacked, samplers, config)
            t1 = time.perf_counter()
            score = evaluation.mean_predictive_ll(data.heldout_valid, view(spec.view))
            t2 = time.perf_counter()
            trace.append(score)
            records.append(EpochRecord(name, epoch, score, t2 - t0, loss, t2 - t1))
            diverged = not np.isfinite(score)
            decision = evaluation.early_stopping_controller(trace, config.max_epochs)
            if diverged or (decision.stop and decision.best_epoch < epoch):
                stacked[0][...] = best  # the pass ends here: its accumulators are not needed again
            if diverged:
                raise TrainingDiverged(name, epoch, view(spec.view), records)
            if decision.stop:
                break
            best[...] = stacked[0]
    return view(mode), records


def _word_pass_of(word, data: CorpusData, config: ModelConfig, pass_names) -> list:
    """The ``"word"`` records of ``word``, an earlier ``(model, records)``,
    once its word pass is the one a fit of ``pass_names`` at ``config``
    would run on ``data``; ValueError otherwise."""
    model, records = word
    kept = [r for r in records if r.pass_name == "word"]
    if pass_names[0] != "word":
        raise ValueError("a joint fit runs no word pass for an earlier one to stand for")
    if not kept:
        raise ValueError("the earlier fit ran no word pass")
    if model.word.size != data.n_words:
        raise ValueError(f"the earlier word pass has {model.word.size} words, the corpus {data.n_words}")
    differ = [f.name for f in fields(config)
              if f.name != "eq_window" and getattr(model.config, f.name) != getattr(config, f.name)]
    if differ:
        raise ValueError(f"the earlier word pass was fitted with another {', '.join(differ)}")
    return kept
