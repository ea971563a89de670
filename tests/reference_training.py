"""Reference trainer: the original per-position SGD loop, kept as a test oracle.

Every position runs its own context sum, sigmoid and Adagrad step through
``adagrad_rows``, with windows and negatives recomputed on each visit.
It is slow and plain on purpose: the compiled trainer in
``eqvec.training`` must reproduce its epoch counts, validation scores,
losses and fitted tables (to rounding), which the equivalence tests check.
"""

import time

import numpy as np

from eqvec.corpus import EQ_TAG, GAP
from eqvec.model import EmbeddingTable, Model, sigmoid
from eqvec import evaluation
from eqvec.passes import _exclusion_masks
from eqvec.training import EpochRecord, NegativeSampler

from .reference_model import adagrad_rows


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
    passes and early stopping; returns (model, epoch records)."""
    config.validate()
    seeds = np.random.SeedSequence(config.seed).spawn(6)
    rngs = [np.random.Generator(np.random.PCG64(s)) for s in seeds]

    n_words = data.n_words
    word_t = EmbeddingTable(n_words, config.k, rngs[0], config.scale)
    eq_t = EmbeddingTable(data.n_equations, config.k, rngs[1], config.scale) if mode == "equation" else None
    n_units = len(data.unit_vocab) if data.unit_vocab is not None else 0
    unit_t = EmbeddingTable(n_units, config.k, rngs[2], config.scale) if mode == "unit" else None

    masks = _exclusion_masks(data)
    unigram = config.negative_sampling == "unigram"
    word_freqs = data.word_vocab.freqs if unigram else None
    unit_freqs = data.unit_vocab.freqs if (unigram and data.unit_vocab is not None) else None
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
        eq_freqs = data.registry.occurrence_counts() if unigram else None
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
