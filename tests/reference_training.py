"""Reference trainer: the original per-position SGD loop, kept as a test oracle.

Every position runs its own context sum, sigmoid and Adagrad step through
``adagrad_rows``, with windows and negatives recomputed on each visit.
It is slow and plain on purpose: the compiled trainer in
``eqvec.training`` must reproduce its epoch counts, validation scores,
losses and fitted tables (to rounding), which the equivalence tests check.
Its tables are ``reference_model.Table``s: each keeps its accumulators
and is snapshotted and restored whole.

``NegativeSampler`` adds the sequential per-position draw, the oracle for
the block draws of ``eqvec.training.draw_negatives``.

``sgd_block`` at the end is the compiled kernel as it stood before its
step loop was rewritten for fewer numpy calls, with ``_distinct``, which
only it uses.  It scores every drawn slot and sums a repeated row's errors
through a per-position grouping block; the current kernel scores each
distinct row once and weights its error by its draw count, so the two
agree to rounding.

``unit_lists`` is the equation -> units expansion as it stood while
``eq_units`` was a dict of arrays: the oracle for the rows
``eqvec.bundle`` reads from an ``eq_units.bin`` with gaps (-1).
"""

import time

import numpy as np

from eqvec import evaluation, training
from eqvec.corpus import EQ_TAG, GAP
from eqvec.model import LOG_EPS, Model, sigmoid
from eqvec.passes import PassPlan, _exclusion_mask, _ptr, _ranges
from eqvec.training import EpochRecord, _expected_draws

from .reference_model import Table, adagrad_rows


class NegativeSampler(training.NegativeSampler):
    """``eqvec.training.NegativeSampler`` with a draw per position."""

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


def _position_update(target_table, tid, negatives, sum_specs, grad_specs, lr, update_target):
    """One SGD step for a positive observation and its sampled zeros.

    ``sum_specs``/``grad_specs`` are (table, ids, weights) triples: the
    first builds the shared context sum, the second selects which context
    rows actually receive gradient (frozen tables are read-only inputs).
    Gradients of the positive and its negatives are accumulated and applied
    as a single Adagrad step per touched row.
    """
    k = target_table.k
    s = np.zeros(k)
    for tbl, ids, w in sum_specs:
        if len(ids) == 0:
            continue
        rows = tbl.alpha[ids]
        s += rows.sum(axis=0) if w is None else (rows * w[:, None]).sum(axis=0)

    tgt = np.empty(1 + len(negatives), dtype=np.int64)
    tgt[0] = tid
    tgt[1:] = negatives
    r = target_table.rho[tgt]
    b = sigmoid(r @ s)
    err = b.copy()
    err[0] -= 1.0

    loss = -np.log(max(b[0], 1e-12))
    if len(b) > 1:
        loss -= np.sum(np.log(np.maximum(1.0 - b[1:], 1e-12)))

    if update_target:
        adagrad_rows(target_table.rho, target_table.rho_acc, tgt, err[:, None] * s[None, :], lr)
    g_alpha = err @ r
    for tbl, ids, w in grad_specs:
        if len(ids) == 0:
            continue
        g = np.tile(g_alpha, (len(ids), 1))
        if w is not None:
            g *= w[:, None]
        adagrad_rows(tbl.alpha, tbl.alpha_acc, np.asarray(ids, dtype=np.int64), g, lr)
    return float(loss)


def _word_ids_in_window(codes: np.ndarray, p: int, half: int) -> np.ndarray:
    lo, hi = max(0, p - half), min(len(codes), p + half + 1)
    win = np.concatenate((codes[lo:p], codes[p + 1 : hi]))
    return win[win < EQ_TAG].astype(np.int64)


def _eq_ids_in_window(codes: np.ndarray, p: int, half: int) -> np.ndarray:
    lo, hi = max(0, p - half), min(len(codes), p + half + 1)
    win = np.concatenate((codes[lo:p], codes[p + 1 : hi]))
    win = win[(win != GAP) & (win >= EQ_TAG)]
    return (win & ~EQ_TAG).astype(np.int64)


# --- per-epoch enumeration ------------------------------------------------------


def _word_epoch(data, masks, word_t, cfg, sampler):
    """Pass over word targets only; equation items are treated as gaps."""
    half = cfg.word_window // 2
    total = 0.0
    for stream, mask in zip(data.streams, masks):
        codes = stream.codes
        for p in np.flatnonzero((codes < EQ_TAG) & ~mask):
            p = int(p)
            ctx = _word_ids_in_window(codes, p, half)
            if ctx.size == 0:
                continue
            tid = int(codes[p])
            negs = sampler.draw(cfg.n_negatives, tid)
            total += _position_update(
                word_t, tid, negs, [(word_t, ctx, None)], [(word_t, ctx, None)],
                cfg.learning_rate, True,
            )
    return total


def _equation_epoch(data, masks, word_t, eq_t, cfg, word_sampler, eq_sampler):
    """Pass over equation vectors with all word vectors held fixed.

    Two pair families: (equation target, surrounding words) trains rho_e;
    (word target, context containing in-window equations) trains the
    alpha_e of those equations, the word side being frozen.
    """
    half_w = cfg.word_window // 2
    half_e = cfg.eq_window // 2
    half_m = cfg.eq_context_window // 2
    total = 0.0
    for stream, mask in zip(data.streams, masks):
        codes = stream.codes
        for p in np.flatnonzero(codes != GAP):
            p = int(p)
            c = int(codes[p])
            if c & int(EQ_TAG):
                gid = c & ~int(EQ_TAG)
                ctx = _word_ids_in_window(codes, p, half_m)
                if ctx.size == 0:
                    continue
                negs = eq_sampler.draw(cfg.n_negatives, gid)
                total += _position_update(
                    eq_t, gid, negs, [(word_t, ctx, None)], [],
                    cfg.learning_rate, True,
                )
            elif not mask[p]:
                eqs = _eq_ids_in_window(codes, p, half_e)
                if eqs.size == 0:
                    continue
                wctx = _word_ids_in_window(codes, p, half_w)
                tid = int(codes[p])
                negs = word_sampler.draw(cfg.n_negatives, tid)
                total += _position_update(
                    word_t, tid, negs,
                    [(word_t, wctx, None), (eq_t, eqs, None)],
                    [(eq_t, eqs, None)],
                    cfg.learning_rate, False,
                )
    return total


def _unit_context(data, eqs, mean: bool):
    """Concatenated unit ids (and weights under the mean variant) for the
    equations appearing in a word's enlarged window."""
    ids, weights = [], []
    for g in eqs:
        seq = data.eq_units.get(int(g))
        if seq is None:
            continue
        seq = seq[seq >= 0]
        if seq.size == 0:
            continue
        ids.append(seq)
        if mean:
            weights.append(np.full(seq.size, 1.0 / seq.size))
    if not ids:
        return np.empty(0, dtype=np.int64), None
    cat = np.concatenate(ids)
    return cat, (np.concatenate(weights) if mean else None)


def _unit_epoch(data, masks, word_t, unit_t, cfg, word_sampler, unit_sampler, update_words=False):
    """Pass over unit vectors: skip-gram pairs inside each equation's unit
    sentence, plus word targets whose enlarged window holds equations (the
    equations contribute every unit's feature vector to the context)."""
    half_w = cfg.word_window // 2
    half_e = cfg.eq_window // 2
    half_u = cfg.unit_window // 2
    total = 0.0
    for stream, mask in zip(data.streams, masks):
        codes = stream.codes
        for p in np.flatnonzero(codes != GAP):
            p = int(p)
            c = int(codes[p])
            if c & int(EQ_TAG):
                seq = data.eq_units.get(c & ~int(EQ_TAG))
                if seq is None:
                    continue
                units = seq[seq >= 0]
                for j in range(units.size):
                    lo, hi = max(0, j - half_u), min(units.size, j + half_u + 1)
                    ctx = np.concatenate((units[lo:j], units[j + 1 : hi]))
                    if ctx.size == 0:
                        continue
                    uid = int(units[j])
                    negs = unit_sampler.draw(cfg.n_negatives, uid)
                    total += _position_update(
                        unit_t, uid, negs, [(unit_t, ctx, None)], [(unit_t, ctx, None)],
                        cfg.learning_rate, True,
                    )
            elif not mask[p]:
                eqs = _eq_ids_in_window(codes, p, half_e)
                uctx, uw = _unit_context(data, eqs, cfg.unit_context_mean)
                if uctx.size == 0 and not update_words:
                    continue
                wctx = _word_ids_in_window(codes, p, half_w)
                if uctx.size == 0 and wctx.size == 0:
                    continue
                tid = int(codes[p])
                negs = word_sampler.draw(cfg.n_negatives, tid)
                grad_specs = [(unit_t, uctx, uw)]
                if update_words:
                    grad_specs.insert(0, (word_t, wctx, None))
                total += _position_update(
                    word_t, tid, negs,
                    [(word_t, wctx, None), (unit_t, uctx, uw)],
                    grad_specs,
                    cfg.learning_rate, update_words,
                )
    return total


# --- train_model on the loops above -----------------------------------------------


def _stopping_loop(pass_name, epoch_fn, score_fn, trainables, max_epochs, records):
    """Epochs until the validation score first fails to improve (ties
    included), rolled back to the predecessor, or until ``max_epochs``.

    Written out here rather than taken from ``eqvec.training`` so the
    oracle does not share the driver it checks."""
    snapshots = [t.snapshot() for t in trainables]
    trace = []
    for epoch in range(1, max_epochs + 1):
        t0 = time.perf_counter()
        loss = epoch_fn()
        t1 = time.perf_counter()
        score = score_fn()
        t2 = time.perf_counter()
        records.append(EpochRecord(pass_name, epoch, score, t2 - t0, loss, t2 - t1))
        if not np.isfinite(score):
            raise FloatingPointError(f"validation score became non-finite in {pass_name} pass, epoch {epoch}")
        if trace and score <= trace[-1]:
            for t, snap in zip(trainables, snapshots):
                t.restore(snap)
            return
        trace.append(score)
        snapshots = [t.snapshot() for t in trainables]


def reference_train_model(data, config, mode):
    """``train_model`` on the per-position loops above: same seeds, samplers,
    passes, early stopping and float32 rounding at each pass end; returns
    (model, epoch records)."""
    config.validate()
    seeds = np.random.SeedSequence(config.seed).spawn(6)
    rngs = [np.random.Generator(np.random.PCG64(s)) for s in seeds]

    n_words = data.n_words
    word_t = Table.random(n_words, config.k, rngs[0], config.scale)
    eq_t = Table.random(data.n_equations, config.k, rngs[1], config.scale) if mode == "equation" else None
    n_units = len(data.unit_vocab)
    unit_t = Table.random(n_units, config.k, rngs[2], config.scale) if mode == "unit" else None

    masks = np.split(_exclusion_mask(data), data.streams.ptr[1:-1])
    unigram = config.negative_sampling == "unigram"
    word_freqs = data.word_vocab.freqs if unigram else None
    unit_freqs = data.unit_vocab.freqs if unigram else None
    records: list[EpochRecord] = []

    def scoring_model(view_mode):
        return Model(
            view_mode, config, word_t, eq=eq_t, unit=unit_t,
            eq_units=data.eq_units, n_equations=data.n_equations,
        )

    def run(pass_name, epoch_fn, trainables, view):
        _stopping_loop(
            pass_name,
            epoch_fn,
            lambda: evaluation.mean_predictive_ll(data.heldout_valid, scoring_model(view)),
            trainables,
            config.max_epochs,
            records,
        )
        for t in trainables:  # a pass ends with its tables rounded to the float32 values a saved model holds
            t.rho[...], t.alpha[...] = t.rho.astype(np.float32), t.alpha.astype(np.float32)

    if mode == "unit" and config.unit_joint:
        word_sampler = NegativeSampler(rngs[3], n_words, word_freqs)
        unit_sampler = NegativeSampler(rngs[5], n_units, unit_freqs)
        run(
            "joint",
            lambda: _unit_epoch(data, masks, word_t, unit_t, config, word_sampler, unit_sampler, update_words=True),
            [word_t, unit_t],
            "unit",
        )
        return scoring_model("unit"), records

    word_sampler = NegativeSampler(rngs[3], n_words, word_freqs)
    run("word", lambda: _word_epoch(data, masks, word_t, config, word_sampler), [word_t], "word")
    if mode == "word":
        return scoring_model("word"), records

    word_t.freeze()
    if mode == "equation":
        eq_freqs = data.registry.counts if unigram else None
        pass2_word_sampler = NegativeSampler(rngs[4], n_words, word_freqs)
        eq_sampler = NegativeSampler(rngs[4], data.n_equations, eq_freqs)
        run(
            "equation",
            lambda: _equation_epoch(data, masks, word_t, eq_t, config, pass2_word_sampler, eq_sampler),
            [eq_t],
            "equation",
        )
        return scoring_model("equation"), records

    pass2_word_sampler = NegativeSampler(rngs[5], n_words, word_freqs)
    unit_sampler = NegativeSampler(rngs[5], n_units, unit_freqs)
    run(
        "unit",
        lambda: _unit_epoch(data, masks, word_t, unit_t, config, pass2_word_sampler, unit_sampler),
        [unit_t],
        "unit",
    )
    return scoring_model("unit"), records


# --- the block kernel before the step rewrite ----------------------------------


def _distinct(key):
    """Sort order of ``key`` (stable) and, in that order, which entries open
    a run of equal keys."""
    order = np.argsort(key, kind="stable")
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[order][1:] != key[order][:-1]
    return order, first


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


def unit_lists(eq_units: dict, n_equations: int):
    """Each equation's units with dropped slots removed, as (ptr, flat)."""
    eqs = sorted(g for g in eq_units if 0 <= g < n_equations)
    flat = np.concatenate([np.empty(0, dtype=np.int64)] + [eq_units[g] for g in eqs]).astype(np.int64)
    keep = flat >= 0
    owner = np.repeat(np.array(eqs, dtype=np.int64), [len(eq_units[g]) for g in eqs])[keep]
    return _ptr(np.bincount(owner, minlength=n_equations)), flat[keep]
