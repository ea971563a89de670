"""Training loops: negative-sampling SGD with Adagrad over token streams.

Three modes share one discipline.  Words are always fitted first with
equations ignored; the second pass then fits equation vectors (or unit
vectors) while every word vector stays frozen.  Each pass early-stops on
the validation predictive log-likelihood.  Single-threaded enumeration is
document order, positions left to right, negatives drawn immediately
after each positive from a seeded stream, so a (seed, config, corpus)
triple fully determines the fitted parameters.

Each pass is compiled once per fit into flat arrays (``passes``).  An
epoch then draws negatives one block of positions at a time and takes one
serial SGD step per position on a stacked copy of the pass's tables.
"""

import logging
import time
from dataclasses import dataclass

import numpy as np

from . import evaluation
from .corpus import CorpusData
from .model import LOG_EPS, MODES, EmbeddingTable, Model, ModelConfig
from .passes import PASS_CLASSES, PassPlan, _ptr, _ranges, compile_pass

log = logging.getLogger(__name__)

# Positions per block of negatives and per-step index arrays.
_BLOCK = 128


class TrainingDiverged(RuntimeError):
    """Raised when the validation score goes non-finite.

    The trainer rolls tables back to the last good epoch before raising and
    attaches that snapshot as ``model`` so callers can retain it."""

    def __init__(self, pass_name: str, epoch: int):
        super().__init__(f"validation score became non-finite in {pass_name} pass, epoch {epoch}")
        self.pass_name = pass_name
        self.epoch = epoch
        self.model = None
        self.records = []


@dataclass
class EpochRecord:
    pass_name: str
    epoch: int
    validation_score: float
    seconds: float
    train_loss: float


class NegativeSampler:
    """Draws negative target ids, rejecting the positive target.

    Unigram sampling uses the raw frequency distribution (power 1.0);
    without frequencies every id has equal weight (uniform sampling).  Both
    map one uniform double per draw through the cumulative distribution.
    """

    def __init__(self, rng: np.random.Generator, n: int, freqs=None):
        self.rng = rng
        self.n = n
        self.cum = None
        if n > 1:
            w = np.ones(n) if freqs is None else np.asarray(freqs, dtype=np.float64)
            if w.sum() <= 0:
                w = np.ones(n)
            self.cum = np.cumsum(w / w.sum())
            self.cum[-1] = 1.0

    def draw(self, size: int, exclude: int) -> np.ndarray:
        if self.cum is None:
            return np.empty(0, dtype=np.int64)
        out = np.empty(size, dtype=np.int64)
        have = 0
        while have < size:
            ids = np.searchsorted(self.cum, self.rng.random(size - have), side="right")
            ids = ids[ids != exclude]
            out[have : have + len(ids)] = ids
            have += len(ids)
        return out


def draw_negatives(samplers, which, exclude, size: int) -> np.ndarray:
    """Negatives for consecutive positions, drawn as one block.

    Row i holds exactly what ``samplers[which[i]].draw(size, exclude[i])``
    returns when called for each position in order, and every generator is
    left where those calls leave it; samplers that share a generator share
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
                samplers[members[0]].rng,
                [samplers[m].cum for m in members],
                np.searchsorted(members, which[sel]),
                exclude[sel],
                size,
            )
    return out


def _draw_stream(rng, cums, which, exclude, size):
    """``draw_negatives`` for samplers sharing one generator.

    The stream of doubles is mapped through every sampler's distribution
    once.  Positions take ``size`` doubles each until one of them draws its
    own exclusion; that position then takes as many more doubles as it
    rejected, round after round like ``NegativeSampler.draw``, and the
    positions after it restart from where it stopped.  Nothing is drawn
    beyond what the sequential calls consume.
    """
    n = len(which)
    out = np.empty((n, size), dtype=np.int64)
    ids = np.empty((len(cums), 0), dtype=np.int64)

    def draw_up_to(length):
        nonlocal ids
        if ids.shape[1] < length:
            u = rng.random(length - ids.shape[1])
            ids = np.concatenate((ids, [np.searchsorted(c, u, side="right") for c in cums]), axis=1)

    used = 0
    i = 0
    while i < n:
        m = n - i
        draw_up_to(used + m * size)
        block = ids[which[i:, None], used + np.arange(m * size).reshape(m, size)]
        bad = block == exclude[i:, None]
        hit = bad.any(axis=1)
        j = int(hit.argmax()) if hit.any() else m
        out[i : i + j] = block[:j]
        used += j * size
        if j == m:
            break
        p = i + j
        kept = block[j][~bad[j]]
        got = kept.size
        out[p, :got] = kept
        used += size
        while got < size:
            need = size - got
            draw_up_to(used + need)
            more = ids[which[p], used : used + need]
            more = more[more != exclude[p]]
            out[p, got : got + more.size] = more
            got += more.size
            used += need
        i = p + 1
    return out


# --- the SGD step ---------------------------------------------------------------


def _distinct(key):
    """Sort order of ``key`` (stable) and, in that order, which entries open
    a run of equal keys."""
    order = np.argsort(key, kind="stable")
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[order][1:] != key[order][:-1]
    return order, first


def _stack(tables) -> np.ndarray:
    """(2, rows, k): the parameters, every table's rho rows then every
    table's alpha rows, over their Adagrad accumulators in the same layout."""
    rows = [t.rho for t in tables] + [t.alpha for t in tables]
    accs = [t.rho_acc for t in tables] + [t.alpha_acc for t in tables]
    stacked = np.empty((2, sum(len(r) for r in rows), tables[0].k))
    np.concatenate(rows, out=stacked[0])
    np.concatenate(accs, out=stacked[1])
    return stacked


def _unstack(stacked, tables, trainable):
    """Write the trainable tables back; frozen ones are never written."""
    n = sum(t.size for t in tables)
    o = 0
    for t, tr in zip(tables, trainable):
        if tr:
            t.rho[...] = stacked[0, o : o + t.size]
            t.alpha[...] = stacked[0, n + o : n + o + t.size]
            t.rho_acc[...] = stacked[1, o : o + t.size]
            t.alpha_acc[...] = stacked[1, n + o : n + o + t.size]
        o += t.size


def sgd_block(stacked, plan: PassPlan, lo: int, hi: int, negatives, lr: float) -> np.ndarray:
    """Serial SGD steps for positions ``lo:hi``; returns their losses.

    ``negatives`` holds each position's class-local negative ids (-1 for
    none).  Each step is one positive and its sampled zeros sharing one
    context sum: b = sigmoid(rho_t . s), err = b - y, and one Adagrad step
    (acc += g^2; cell -= lr g / sqrt(acc)) over the touched trainable rows
    with g = (sum of err over a target row's occurrences) * s for target
    rows and (summed context weight) * (err . rho) for context rows.  Losses
    are clamped at 1e-12 like the pair loss.
    """
    m = hi - lo
    k = stacked.shape[2]
    n_rows = stacked.shape[1]
    cls = plan.cls[lo:hi]
    base = plan.offsets[cls]
    valid = np.concatenate((np.ones((m, 1), dtype=bool), negatives >= 0), axis=1)
    nt = valid.sum(axis=1)
    trows = np.concatenate(((plan.target[lo:hi] + base)[:, None], negatives + base[:, None]), axis=1)[valid]
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

    # a target row drawn more than once gets one update with summed errors
    pos = np.repeat(np.arange(m), nt)
    order, first = _distinct(pos * n_rows + trows)
    n_groups = np.bincount(pos[order][first], minlength=m)
    local = np.empty(len(pos), dtype=np.int64)
    local[order] = np.cumsum(first) - 1 - _ptr(n_groups)[pos[order]]
    update_target = np.asarray(plan.trainable, dtype=bool)[cls]
    nu = n_groups * update_target
    # trainable context rows, one per distinct row of a position, weights summed
    trainable_rows = np.repeat(np.asarray(plan.trainable, dtype=bool), plan.sizes)
    learn = trainable_rows[ctx - n_rows // 2]
    cpos = np.repeat(np.arange(m), nc)[learn]
    corder, cfirst = _distinct(cpos * n_rows + ctx[learn])
    grad_coef = np.bincount(np.cumsum(cfirst) - 1, weights[learn][corder], minlength=int(cfirst.sum()))
    ng = np.bincount(cpos[corder][cfirst], minlength=m)
    n_upd = nu + ng
    uptr = _ptr(n_upd)
    urows = np.empty(int(uptr[-1]), dtype=np.int64)
    urows[_ranges(uptr[:-1], nu)] = trows[order][first][np.repeat(update_target, n_groups)]
    urows[_ranges(uptr[:-1] + nu, ng)] = ctx[learn][corder][cfirst]
    # per position a (2, n_upd) coefficient block: row 0 multiplies the
    # negated context sum (filled each step), row 1 the context gradient
    coef = np.zeros(2 * int(uptr[-1]))
    coef[_ranges(2 * uptr[:-1] + n_upd + nu, ng)] = grad_coef
    # per position an (nu, nt) grouping of its targets, -1 to undo the negation
    hptr = _ptr(nu * nt)
    group = np.zeros(int(hptr[-1]))
    at = update_target[pos]
    slot = np.arange(len(pos)) - tptr[pos]
    group[(hptr[pos] + local * nt[pos] + slot)[at]] = -1.0

    params = stacked[0]
    err = np.empty(int(tptr[-1]))
    b0 = np.empty(m)
    vec = np.empty((2, k))
    take, dot, exp, divide, sqrt = params.take, np.dot, np.exp, np.divide, np.sqrt
    steps = zip(
        gptr[:-1].tolist(), gptr[1:].tolist(), nt.tolist(), tptr[:-1].tolist(),
        cptr[:-1].tolist(), cptr[1:].tolist(), uptr[:-1].tolist(), uptr[1:].tolist(),
        nu.tolist(), hptr[:-1].tolist(),
    )
    for i, (g0, g1, t, e0, c0, c1, u0, u1, nui, h0) in enumerate(steps):
        x = take(gidx[g0:g1], axis=0)
        r = x[:t]
        dot(wneg[c0:c1], x[t:], out=vec[0])
        e = err[e0 : e0 + t]
        exp(r @ vec[0], out=e)
        e += 1.0
        divide(1.0, e, out=e)
        b0[i] = e[0]
        e[0] -= 1.0
        dot(e, r, out=vec[1])
        w = coef[2 * u0 : 2 * u1].reshape(2, u1 - u0)
        if nui:
            dot(group[h0 : h0 + nui * t].reshape(nui, t), e, out=w[0, :nui])
        g = dot(w.T, vec)
        rows = urows[u0:u1]
        z = stacked.take(rows, axis=1)
        g2 = g * g
        z[1] += g2
        sqrt(z[1], out=g2)
        g *= lr
        g /= g2
        z[0] -= g
        stacked[:, rows] = z

    neg = np.ones(len(err), dtype=bool)
    neg[tptr[:-1]] = False
    neg_loss = np.bincount(pos[neg], np.log(np.maximum(1.0 - err[neg], LOG_EPS)), minlength=m)
    return -np.log(np.maximum(b0, LOG_EPS)) - neg_loss


def _run_epoch(plans, tables, trainable, samplers, config: ModelConfig) -> float:
    """One epoch over a compiled pass; returns the summed training loss."""
    stacked = _stack(tables)
    total = 0.0
    with np.errstate(over="ignore"):
        for plan in plans:
            for lo in range(0, len(plan), _BLOCK):
                hi = min(lo + _BLOCK, len(plan))
                negs = draw_negatives(samplers, plan.cls[lo:hi], plan.target[lo:hi], config.n_negatives)
                for loss in sgd_block(stacked, plan, lo, hi, negs, config.learning_rate).tolist():
                    total += loss
    _unstack(stacked, tables, trainable)
    return total


# --- pass driver with early stopping --------------------------------------------


def _run_pass(pass_name, epoch_fn, score_fn, trainables, max_epochs, records):
    snapshots = [t.snapshot() for t in trainables]
    trace: list[float] = []
    for epoch in range(1, max_epochs + 1):
        t0 = time.perf_counter()
        loss = epoch_fn()
        score = score_fn()
        trace.append(score)
        records.append(EpochRecord(pass_name, epoch, score, time.perf_counter() - t0, loss))
        if not np.isfinite(score):
            for t, snap in zip(trainables, snapshots):
                t.restore(snap)
            raise TrainingDiverged(pass_name, epoch)
        decision = evaluation.early_stopping_controller(trace, max_epochs)
        if decision.stop and decision.best_epoch < epoch:
            for t, snap in zip(trainables, snapshots):
                t.restore(snap)
            break
        snapshots = [t.snapshot() for t in trainables]
        if decision.stop:
            break
    return trace


def train_model(data: CorpusData, config: ModelConfig, mode: str):
    """Fit a model of the requested mode; returns (model, epoch records).

    Table initialization and each pass's negative stream use independent
    child seeds of ``config.seed``, so the fitted word table is bit-identical
    across modes on corpora where the extra passes have nothing to train.
    """
    config.validate()
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    seeds = np.random.SeedSequence(config.seed).spawn(6)
    rngs = [np.random.Generator(np.random.PCG64(s)) for s in seeds]

    n_words = data.n_words
    word_t = EmbeddingTable(n_words, config.k, rngs[0], config.scale)
    eq_t = EmbeddingTable(data.n_equations, config.k, rngs[1], config.scale) if mode == "equation" else None
    n_units = len(data.unit_vocab) if data.unit_vocab is not None else 0
    unit_t = EmbeddingTable(n_units, config.k, rngs[2], config.scale) if mode == "unit" else None

    unigram = config.negative_sampling == "unigram"
    word_freqs = data.word_vocab.freqs if unigram else None
    unit_freqs = data.unit_vocab.freqs if (unigram and data.unit_vocab is not None) else None
    records: list[EpochRecord] = []

    def scoring_model(view_mode):
        return Model(
            view_mode, config, word_t, eq=eq_t, unit=unit_t,
            eq_units=data.eq_units, n_equations=data.n_equations,
        )

    def run(pass_name, tables, samplers, view):
        trainable = PASS_CLASSES[pass_name][1]
        plans = []

        def epoch():
            if not plans:  # compiled inside the first epoch, which it belongs to
                plans.extend(compile_pass(data, config, pass_name))
            return _run_epoch(plans, tables, trainable, samplers, config)

        trainables = [t for t, tr in zip(tables, trainable) if tr]
        try:
            _run_pass(
                pass_name,
                epoch,
                lambda: evaluation.mean_predictive_ll(data.heldout_valid, scoring_model(view)),
                trainables,
                config.max_epochs,
                records,
            )
        except TrainingDiverged as exc:
            exc.model = scoring_model(view)
            exc.records = records
            raise

    if mode == "unit" and config.unit_joint:
        samplers = [NegativeSampler(rngs[3], n_words, word_freqs), NegativeSampler(rngs[5], n_units, unit_freqs)]
        run("joint", [word_t, unit_t], samplers, "unit")
        return scoring_model("unit"), records

    run("word", [word_t], [NegativeSampler(rngs[3], n_words, word_freqs)], "word")
    if mode == "word":
        return scoring_model("word"), records

    word_t.freeze()
    if mode == "equation":
        eq_freqs = data.registry.occurrence_counts() if unigram else None
        # both samplers share one generator so the negative stream follows
        # enumeration order exactly
        samplers = [NegativeSampler(rngs[4], n_words, word_freqs), NegativeSampler(rngs[4], data.n_equations, eq_freqs)]
        run("equation", [word_t, eq_t], samplers, "equation")
        return scoring_model("equation"), records

    samplers = [NegativeSampler(rngs[5], n_words, word_freqs), NegativeSampler(rngs[5], n_units, unit_freqs)]
    run("unit", [word_t, unit_t], samplers, "unit")
    return scoring_model("unit"), records
