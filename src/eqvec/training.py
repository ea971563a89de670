"""Training loops: negative-sampling SGD with Adagrad over token streams.

Three modes share one discipline, declared per pass in
``passes.PASS_CLASSES``.  Words are always fitted first with equations
ignored; the second pass then fits equation vectors (or unit vectors)
while every word vector stays frozen.  Each pass early-stops on the
validation predictive log-likelihood.  Single-threaded enumeration is
document order, positions left to right, negatives drawn immediately
after each positive from a seeded stream, so a (seed, config, corpus)
triple fully determines the fitted parameters.

Each pass is compiled once per fit into plans of flat arrays (``passes``).
An epoch then draws a plan's negatives at once, a slice of positions at a
time, and takes one serial SGD step per position on a stacked copy of the
pass's tables.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import evaluation, passes
from .corpus import CorpusData
from .model import LOG_EPS, MODES, EmbeddingTable, Model, ModelConfig
from .passes import PASS_CLASSES, PassPlan, _ptr, _ranges, compile_pass


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


class NegativeSampler:
    """Draws negative target ids, rejecting the positive target.

    Unigram sampling uses the raw frequency distribution (power 1.0);
    without frequencies every id has equal weight (uniform sampling).  Both
    map one uniform double per draw through the cumulative distribution.
    ``accept[i]`` is the chance that a draw is not id i.
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
            self.accept = 1.0 - np.diff(self.cum, prepend=0.0)

    def draw(self, size: int, exclude: int) -> np.ndarray:
        if self.cum is None:
            return np.empty(0, dtype=np.int64)
        if 0 <= exclude < self.n:
            _expected_draws(size, self.accept[[exclude]], [exclude])
        out = np.empty(size, dtype=np.int64)
        have = 0
        while have < size:
            ids = np.searchsorted(self.cum, self.rng.random(size - have), side="right")
            ids = ids[ids != exclude]
            out[have : have + len(ids)] = ids
            have += len(ids)
        return out


_POOL = 1 << 16  # doubles one scan is expected to map, at most about


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
                [samplers[m] for m in members], np.searchsorted(members, which[sel]), exclude[sel], size
            )
    return out


def _draw_stream(samplers, which, exclude, size):
    """``draw_negatives`` for samplers sharing one generator: consecutive
    groups of positions, each expected to need at most about ``_POOL``
    doubles, are scanned in turn."""
    offsets = _ptr([s.n for s in samplers])[which]
    need = _expected_draws(size, np.concatenate([s.accept for s in samplers])[offsets + exclude], exclude)
    cuts = np.flatnonzero(np.diff((np.cumsum(need) - need) // _POOL)) + 1
    return np.concatenate([
        _scan(samplers, list(zip(which[g].tolist(), exclude[g].tolist())), size, need[g].sum())
        for g in np.split(np.arange(len(which)), cuts)
    ])


def _scan(samplers, positions, size, need):
    """Negatives for ``positions`` (sampler, exclusion) by one linear scan.

    A pool of doubles, the expected ``need`` plus four of its square roots,
    is drawn and mapped through every sampler's distribution once.
    Positions then take ``size`` ids each from where the previous one
    stopped; a position that drew its own exclusion takes the next accepted
    ids one by one instead, which is what the rounds of
    ``NegativeSampler.draw`` amount to.  A pool that runs out is drawn again
    twice as large from the same state, and the generator finally advances
    by exactly the doubles the positions consumed.
    """
    rng = samplers[0].rng
    state = rng.bit_generator.state
    pool = int(need + 4 * need**0.5) + 1
    while True:
        u = rng.random(pool)
        ids = [np.searchsorted(s.cum, u, side="right").tolist() for s in samplers]
        rng.bit_generator.state = state
        out, used = [], 0
        for w, x in positions:
            seq = ids[w]
            row = seq[used : used + size]
            used += size
            if x in row:
                row = [v for v in row if v != x]
                while len(row) < size and used < pool:
                    if seq[used] != x:
                        row.append(seq[used])
                    used += 1
            if used > pool or len(row) < size:
                break
            out += row
        else:
            rng.random(used)
            return np.array(out, dtype=np.int64).reshape(len(positions), size)
        pool *= 2


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
    v0, v1 = vec
    take, dot, exp, divide, sqrt = params.take, np.dot, np.exp, np.divide, np.sqrt
    steps = zip(
        gptr[:-1].tolist(), gptr[1:].tolist(), nt.tolist(), tptr[:-1].tolist(),
        cptr[:-1].tolist(), cptr[1:].tolist(), uptr[:-1].tolist(), uptr[1:].tolist(),
        nu.tolist(), hptr[:-1].tolist(),
    )
    for i, (g0, g1, t, e0, c0, c1, u0, u1, nui, h0) in enumerate(steps):
        x = take(gidx[g0:g1], axis=0)
        r = x[:t]
        dot(wneg[c0:c1], x[t:], out=v0)
        e = err[e0 : e0 + t]
        exp(r @ v0, out=e)
        e += 1.0
        divide(1.0, e, out=e)
        b0[i] = e[0]
        e[0] -= 1.0
        dot(e, r, out=v1)
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
    """One epoch over a compiled pass; returns the summed training loss.

    A plan runs in slices of at most ``passes._COMPILE_TOKENS`` positions:
    a long document compiles into one plan, and a slice bounds the memory
    its negative draw and step set-up take."""
    stacked = _stack(tables)
    total = 0.0
    n = passes._COMPILE_TOKENS
    with np.errstate(over="ignore"):
        for plan in plans:
            for lo in range(0, len(plan), n):
                hi = min(lo + n, len(plan))
                negs = draw_negatives(samplers, plan.cls[lo:hi], plan.target[lo:hi], config.n_negatives)
                for loss in sgd_block(stacked, plan, lo, hi, negs, config.learning_rate).tolist():
                    total += loss
    _unstack(stacked, tables, trainable)
    return total


# --- the fit: one early-stopped loop per pass ------------------------------------


def train_model(data: CorpusData, config: ModelConfig, mode: str):
    """Fit a model of the requested mode; returns (model, epoch records).

    Runs the word pass and then the mode's own pass, or only the joint pass
    of a ``unit_joint`` model.  Each pass stops at the first epoch whose
    validation score fails to improve and keeps its predecessor.  Tables
    and negative streams use independent child seeds of ``config.seed``, so
    the fitted word table is bit-identical across modes on corpora where
    the extra passes have nothing to train.
    """
    config.validate()
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    rngs = [np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(config.seed).spawn(6)]
    if mode == "unit" and config.unit_joint:
        pass_names = ["joint"]
    else:
        pass_names = ["word"] if mode == "word" else ["word", mode]
    used = {c for p in pass_names for c in PASS_CLASSES[p].classes}
    sizes = passes.class_sizes(data)
    # the word, equation and unit tables start from child seeds 0, 1 and 2
    tables = {c: EmbeddingTable(n, config.k, rngs[i], config.scale)
              for i, (c, n) in enumerate(sizes.items()) if c in used}

    def freqs(cls):
        if config.negative_sampling != "unigram":
            return None
        if cls == "eq":
            return data.registry.occurrence_counts()
        vocab = data.word_vocab if cls == "word" else data.unit_vocab
        return vocab.freqs if vocab is not None else None

    def view(name):
        return Model(name, config, tables["word"], eq=tables.get("eq"), unit=tables.get("unit"),
                     eq_units=data.eq_units, n_equations=data.n_equations)

    records: list[EpochRecord] = []
    for name in pass_names:
        spec = PASS_CLASSES[name]
        pass_tables = [tables[c] for c in spec.classes]
        trainables = [t for t, tr in zip(pass_tables, spec.trainable) if tr]
        for t, tr in zip(pass_tables, spec.trainable):
            if not tr:
                t.freeze()
        samplers = [NegativeSampler(rngs[s], sizes[c], freqs(c)) for c, s in zip(spec.classes, spec.seeds)]
        snapshots = [t.snapshot() for t in trainables]
        plans, trace = None, []
        for epoch in range(1, config.max_epochs + 1):
            t0 = time.perf_counter()
            if plans is None:  # compiled inside the first epoch, which it belongs to
                plans = compile_pass(data, config, name)
            loss = _run_epoch(plans, pass_tables, spec.trainable, samplers, config)
            t1 = time.perf_counter()
            score = evaluation.mean_predictive_ll(data.heldout_valid, view(spec.view))
            t2 = time.perf_counter()
            trace.append(score)
            records.append(EpochRecord(name, epoch, score, t2 - t0, loss, t2 - t1))
            diverged = not np.isfinite(score)
            decision = evaluation.early_stopping_controller(trace, config.max_epochs)
            if diverged or (decision.stop and decision.best_epoch < epoch):
                for t, snap in zip(trainables, snapshots):
                    t.restore(snap)
            if diverged:
                raise TrainingDiverged(name, epoch, view(spec.view), records)
            if decision.stop:
                break
            snapshots = [t.snapshot() for t in trainables]
    return view(mode), records
