"""Held-out scoring and model selection.

Two scores over held-out items: a softmax predictive log-likelihood over
the target plus its fixed negative samples (drives early stopping), and a
pseudo log-likelihood combining the target's log probability with the
averaged log complements of the negatives (drives model comparison).
"""

import logging
import math
import operator
from dataclasses import dataclass, replace
from itertools import groupby, product
from typing import NamedTuple

import numpy as np

from .model import LOG_EPS, Model, ModelConfig, sigmoid
from .passes import _ptr, expand_units

log = logging.getLogger(__name__)

_TINY = np.finfo(np.float64).tiny


@dataclass
class EvalReport:
    split: str
    mean_predictive_ll: float
    mean_pseudo_ll: float
    n_items: int
    n_skipped: int


class HeldOutLayout(NamedTuple):
    """Held-out contexts in a ``PassPlan``'s layout: item i sums ``w[e] *
    alpha[rows[e]]`` for e in ``ptr[i]:ptr[i+1]``, left to right (``w`` None:
    all 1), and ranks words ``cand[cand_ptr[i]:cand_ptr[i+1]]``, target first.
    ``ok`` is False for an item with an id the model lacks; it has no entries."""

    alpha: np.ndarray
    ptr: np.ndarray
    rows: np.ndarray
    w: np.ndarray | None
    cand_ptr: np.ndarray
    cand: np.ndarray
    ok: np.ndarray


def compile_heldout(held, model: Model) -> HeldOutLayout:
    """Lay out a ``corpus.HeldOut`` set's contexts as the training passes see
    them: a word adds its alpha row; an equation its row in an equation model,
    its units (``passes.expand_units``) in a unit model, and nothing in a word
    model, which never looks its id up."""
    n_words, n_eqs, mode = model.word.size, model.n_equations, model.mode
    owner = np.repeat(np.arange(len(held)), np.diff(held.ctx_ptr))
    is_eq, ids, cand_ptr, cand = held.ctx_eq, held.ctx_id, held.cand_ptr, held.cand
    known = (ids >= 0) & (ids < np.where(is_eq, n_eqs, n_words)) | is_eq & (mode == "word")
    ok = np.bincount(owner, ~known, minlength=len(held)) == 0
    ok[np.repeat(np.arange(len(held)), np.diff(cand_ptr))[(cand < 0) | (cand >= n_words)]] = False
    # one id space, words then equations, each id mapped to its alpha rows
    eq_ptr, eq_rows = ((model.eq_units.ptr, model.eq_units.ids) if mode == "unit"
                       else (np.arange(n_eqs + 1), np.arange(n_eqs)))
    objects = (np.concatenate((np.arange(n_words), n_words + eq_ptr)),
               np.concatenate((np.arange(n_words), n_words + eq_rows)))
    take = np.flatnonzero(ok[owner] & (~is_eq | (mode != "word")))
    n_per, rows, w = expand_units(objects, ids[take] + n_words * is_eq[take],
                                  mode == "unit" and model.config.unit_context_mean)
    ptr = _ptr(np.bincount(owner[take], n_per, minlength=len(held)).astype(np.int64))
    alpha = np.concatenate([t.alpha for t in (model.word, model.unit if mode == "unit" else model.eq) if t])
    return HeldOutLayout(alpha, ptr, rows, None if (w == 1.0).all() else w, cand_ptr, cand, ok)


def ranked_steps(lengths: np.ndarray):
    """Groups ranked by length, longest first (stable), and for every step
    j how many groups have a j-th entry: the first ones of that ranking."""
    order = np.argsort(-lengths, kind="stable")
    return order, np.searchsorted(-lengths[order], -np.arange(lengths.max(initial=0)), side="left").tolist()


def _score_blocks(held, model: Model):
    """Candidate scores rho_c . s of the items the model can score, one matrix
    per candidate count, target first.  Step j of the context sums adds the
    j-th entry of every item that still has one, so each sum runs left to
    right, with the additions a loop over that item alone would make."""
    lay = compile_heldout(held, model)
    order, active = ranked_steps(np.diff(lay.ptr))
    s = np.zeros((len(held), lay.alpha.shape[1]))
    for j, n in enumerate(active):
        at = lay.ptr[order[:n]] + j
        v = lay.alpha[lay.rows[at]]
        s[order[:n]] += v if lay.w is None else lay.w[at, None] * v
    n_cand = np.diff(lay.cand_ptr)
    for c in sorted(set(n_cand[lay.ok].tolist())):  # np.unique would import numpy.ma
        every = np.flatnonzero(lay.ok & (n_cand == c))
        for idx in np.split(every, np.arange(32, len(every), 32)):  # 32 items a block: few rho rows at once
            cand = lay.cand[lay.cand_ptr[idx, None] + np.arange(c)]
            yield np.matmul(model.word.rho[cand], s[idx, :, None])[:, :, 0]


def _softmax(z):
    ex = np.exp(z - z.max(axis=1, keepdims=True))
    return ex / ex.sum(axis=1, keepdims=True)


def _predictive(z, model: Model) -> list:
    return np.log(np.maximum(_softmax(z)[:, 0], _TINY)).tolist()


def _pseudo(z, model: Model) -> list:
    p = np.clip(_softmax(z) if model.config.pseudo_likelihood == "softmax" else sigmoid(z), LOG_EPS, 1.0 - LOG_EPS)
    n = z.shape[1] - 1
    return [math.log(r[0]) + (math.fsum(map(math.log1p, map(operator.neg, r[1:]))) / n if n else 0.0)
            for r in p.tolist()]


def _scores(held, model: Model, score) -> list:
    """``score`` of each scorable item, by candidate count, then in order."""
    return [v for z in _score_blocks(held, model) for v in score(z, model)]


def mean_predictive_ll(held, model: Model) -> float:
    """Mean over scored items; 0.0 when nothing is scorable (degenerate
    corpora with no held-out items still need a finite epoch trace)."""
    scores = _scores(held, model, _predictive)
    return math.fsum(scores) / len(scores) if scores else 0.0


def evaluate_split(held, model: Model, split: str) -> EvalReport:
    pred, pseudo = [], []
    for z in _score_blocks(held, model):
        pred += _predictive(z, model)
        pseudo += _pseudo(z, model)
    n = len(pred)
    return EvalReport(
        split=split,
        mean_predictive_ll=math.fsum(pred) / n if n else float("nan"),
        mean_pseudo_ll=math.fsum(pseudo) / n if n else float("nan"),
        n_items=n,
        n_skipped=len(held) - n,
    )


# --- early stopping -----------------------------------------------------------


class StopDecision(NamedTuple):
    stop: bool
    best_epoch: int  # 1-based


def early_stopping_controller(trace, max_epochs: int) -> StopDecision:
    """Stop at the first epoch whose validation score fails to improve on
    its predecessor (ties count as no improvement); the retained epoch is
    the predecessor.  Hard cap at ``max_epochs``."""
    if len(trace) == 0:
        raise ValueError("empty epoch trace")
    n = min(len(trace), max_epochs)
    for i in range(1, n):
        if trace[i] <= trace[i - 1]:
            return StopDecision(True, i)
    return StopDecision(n >= max_epochs, n)


# --- grid selection -----------------------------------------------------------


@dataclass
class GridRow:
    mode: str
    k: int
    word_window: int
    eq_window: int
    valid_pseudo_ll: float
    test_pseudo_ll: float
    epochs_run: str
    selected: bool = False
    error: str = ""


def grid_select(data, base_config: ModelConfig, modes, dims, word_windows, eq_windows) -> list[GridRow]:
    """Train one model per grid row, in report order: mode, then dimension k,
    then window pair (W, E), with E >= W.  Word-only models ignore the
    equation window, so their rows are the word windows alone.

    Returns the rows, the validation-best row of each (mode, k) marked
    ``selected``; a single run's failure is recorded on its row and the grid
    continues.  Each distinct word pass, one per (k, W), is fitted once: a
    fit with a word pass starts from the first successful fit at its
    (k, W), in any mode.  A failed fit is not kept, so the next row at its
    (k, W) fits the word pass again.
    """
    from .training import epochs_per_pass, train_model

    word_fits = {}  # (k, W) -> (model, records) of a successful fit with that word pass
    rows: list[GridRow] = []
    for mode in modes:
        has_word_pass = not (mode == "unit" and base_config.unit_joint)
        if mode == "word":
            combos = [(w, max(w, min(eq_windows))) for w in sorted(set(word_windows))]
        else:
            combos = [(w, e) for w in word_windows for e in eq_windows if e >= w]
        for k, (w, e) in product(dims, combos):
            cfg = replace(base_config, k=k, word_window=w, eq_window=e)
            try:
                cfg.validate()
                fitted, records = train_model(data, cfg, mode, word=word_fits.get((k, w)) if has_word_pass else None)
                if has_word_pass:
                    word_fits.setdefault((k, w), (fitted, records))
                valid = evaluate_split(data.heldout_valid, fitted, "validation")
                test = evaluate_split(data.heldout_test, fitted, "test")
                epochs = "+".join(map(str, epochs_per_pass(records).values()))
                rows.append(GridRow(mode, k, w, e, valid.mean_pseudo_ll, test.mean_pseudo_ll, epochs))
            except Exception as exc:  # single run failure: record and continue
                log.warning("grid run (W=%d, E=%d) failed: %s", w, e, exc)
                rows.append(GridRow(mode, k, w, e, float("nan"), float("nan"), "", error=str(exc)))
    for _, group in groupby(rows, key=lambda r: (r.mode, r.k)):
        scored = [r for r in group if not r.error and not math.isnan(r.valid_pseudo_ll)]
        best = max(scored, key=lambda r: r.valid_pseudo_ll, default=None)
        if best is not None:
            best.selected = True
    return rows
