"""Reference oracles for ``eqvec.model`` and ``eqvec.evaluation``.

* The pair API: per-class ``Tables`` of ``Table``s, which keep their own
  Adagrad accumulators, context sums, Bernoulli parameters,
  ``pair_loss_and_grads`` and the Adagrad update, one observation at a
  time.  The gradient suite finite-differences it, and the compiled SGD
  step in ``eqvec.training`` must match it.
* The per-equation compensated loop, the oracle for the batched
  ``eqvec.model.unit_means``: each equation's units are summed alone, one
  row at a time, with a Neumaier correction term, and the batched kernel
  must give bitwise the same vectors.
* The per-item scorer: each held-out item's context summed one entry at a
  time (a unit-mode equation contributes the sum or mean of its units),
  then its candidates scored; the oracle for the batched scorer in
  ``eqvec.evaluation``.
* The whole-matrix similarity scan: rows with a non-finite entry
  zero-filled in a copy, the copy scored, those rows then set worst, and
  every score ordered by one full ``lexsort``; the oracle for
  ``eqvec.retrieval._scores`` and ``_rank``.
"""

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from eqvec.model import LOG_EPS, MODES, sigmoid
from eqvec.training import ADAGRAD_FLOOR

_TINY = np.finfo(np.float64).tiny


# --- tables with their own accumulators ---------------------------------------


class FrozenTableError(RuntimeError):
    pass


class Table:
    """One class's rho/alpha matrices with per-cell Adagrad accumulators
    that start at the floor.  ``eqvec.model.EmbeddingTable`` holds only the
    vectors (the trainer keeps accumulators for the length of a pass); this
    table keeps its own, so the pair API and the reference trainer share
    nothing with the code they check."""

    def __init__(self, rho: np.ndarray, alpha: np.ndarray):
        self.size, self.k = rho.shape
        self.rho, self.alpha = rho, alpha
        self.rho_acc = np.full(rho.shape, ADAGRAD_FLOOR)
        self.alpha_acc = np.full(rho.shape, ADAGRAD_FLOOR)

    @classmethod
    def random(cls, size: int, k: int, rng: np.random.Generator, scale: float) -> "Table":
        """Drawn as ``EmbeddingTable(size, k, rng.bit_generator, scale)`` draws its vectors."""
        rho = rng.uniform(-scale, scale, size=(size, k))
        return cls(rho, rng.uniform(-scale, scale, size=(size, k)))

    @property
    def frozen(self) -> bool:
        return not self.rho.flags.writeable

    def freeze(self):
        for m in (self.rho, self.alpha, self.rho_acc, self.alpha_acc):
            m.flags.writeable = False

    def snapshot(self) -> tuple:
        return (self.rho.copy(), self.alpha.copy(), self.rho_acc.copy(), self.alpha_acc.copy())

    def restore(self, snap: tuple):
        if self.frozen:
            raise FrozenTableError("cannot restore into a frozen table")
        self.rho[...], self.alpha[...], self.rho_acc[...], self.alpha_acc[...] = snap


# --- context sums and Bernoulli parameters -----------------------------------


class Tables:
    """Per-class table lookup used by the parameterization functions."""

    def __init__(self, word: Table, eq: Table | None = None, unit: Table | None = None):
        self.word = word
        self.eq = eq
        self.unit = unit

    def get(self, cls: str) -> Table:
        t = getattr(self, cls, None)
        if t is None:
            raise ValueError(f"no table for class {cls!r}")
        return t


def _alpha_rows(tables: Tables, items: Iterable[tuple[str, int]]) -> np.ndarray:
    rows = []
    for cls, idx in items:
        table = tables.get(cls)
        if not 0 <= idx < table.size:
            raise IndexError(f"{cls} id {idx} out of range [0, {table.size})")
        rows.append(table.alpha[idx])
    return np.array(rows)


def context_sum(tables: Tables, items) -> np.ndarray:
    rows = _alpha_rows(tables, items)
    if rows.size == 0:
        return np.zeros(tables.word.k)
    return rows.sum(axis=0)


def word_context_sum(context, word_table: Table, eq_table: Table | None) -> np.ndarray:
    """Sum of feature vectors over a word's context: window words plus any
    equations from the enlarged word-equation window."""
    return context_sum(Tables(word_table, eq=eq_table), context)


def bernoulli_param_word(target: int, context, tables: Tables) -> float:
    """sigma(rho_w[target] . sum of context alphas); context may mix words
    and equations."""
    for cls, _ in context:
        if cls not in ("word", "eq"):
            raise ValueError(f"word context cannot contain class {cls!r}")
    s = context_sum(tables, context)
    return float(sigmoid(tables.word.rho[target] @ s))


def bernoulli_param_equation(target_eq: int, context, tables: Tables) -> float:
    """sigma(rho_e[target] . sum of context word alphas); words only."""
    for cls, _ in context:
        if cls != "word":
            raise ValueError("equation contexts contain words only")
    s = context_sum(tables, context)
    if tables.eq is None:
        raise ValueError("no equation table")
    return float(sigmoid(tables.eq.rho[target_eq] @ s))


def bernoulli_param_unit(target_unit: int, context, tables: Tables) -> float:
    """sigma(rho_u[target] . sum of window unit alphas)."""
    for cls, _ in context:
        if cls != "unit":
            raise ValueError("unit contexts contain units only")
    s = context_sum(tables, context)
    if tables.unit is None:
        raise ValueError("no unit table")
    return float(sigmoid(tables.unit.rho[target_unit] @ s))


def bernoulli_param_word_units(
    target: int, word_ids, unit_sequences, tables: Tables
) -> float:
    """Word parameter with every in-window equation contributing all of its
    unit feature vectors (the double sum over equations and their units)."""
    items = [("word", int(w)) for w in word_ids]
    for seq in unit_sequences:
        items.extend(("unit", int(u)) for u in seq)
    s = context_sum(tables, items)
    return float(sigmoid(tables.word.rho[target] @ s))


# --- pairs, loss, gradients ---------------------------------------------------


@dataclass
class TrainingPair:
    target: tuple[str, int]
    context: list[tuple[str, int]]
    label: int

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError("label must be 0 or 1")
        if not self.context:
            raise ValueError("context must be non-empty")


_ALLOWED_CTX = {
    ("word", "word"): {"word"},
    ("equation", "word"): {"word", "eq"},
    ("equation", "eq"): {"word"},
    ("unit", "word"): {"word", "unit"},
    ("unit", "unit"): {"unit"},
}


@dataclass
class SparseGrads:
    """Gradients keyed by (class, id); duplicate context items accumulate."""

    rho: dict[tuple[str, int], np.ndarray] = field(default_factory=dict)
    alpha: dict[tuple[str, int], np.ndarray] = field(default_factory=dict)

    def add_rho(self, key, g):
        if key in self.rho:
            self.rho[key] = self.rho[key] + g
        else:
            self.rho[key] = g

    def add_alpha(self, key, g):
        if key in self.alpha:
            self.alpha[key] = self.alpha[key] + g
        else:
            self.alpha[key] = g


def pair_loss_and_grads(pair: TrainingPair, mode: str, tables: Tables):
    """Negative-sampling loss and its sparse analytic gradients.

    loss = -(y log b + (1-y) log(1-b)) with b the mode-appropriate
    Bernoulli parameter; d loss / d rho_target = (b - y) * context_sum and
    d loss / d alpha_j = (b - y) * rho_target for every context item j.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    tcls, tid = pair.target
    allowed = _ALLOWED_CTX.get((mode, tcls))
    if allowed is None:
        raise ValueError(f"mode {mode!r} cannot train {tcls!r} targets")
    for cls, _ in pair.context:
        if cls not in allowed:
            raise ValueError(f"{tcls} target in mode {mode!r} cannot see {cls!r} context")

    target_table = tables.get(tcls)
    s = context_sum(tables, pair.context)
    rho_t = target_table.rho[tid]
    b = float(sigmoid(rho_t @ s))
    y = pair.label
    loss = -(y * np.log(max(b, LOG_EPS)) + (1 - y) * np.log(max(1.0 - b, LOG_EPS)))

    err = b - y
    grads = SparseGrads()
    grads.add_rho((tcls, tid), err * s)
    g_alpha = err * rho_t
    for key in pair.context:
        grads.add_alpha(key, g_alpha)
    return float(loss), grads


def adagrad_rows(matrix: np.ndarray, acc: np.ndarray, rows: np.ndarray, grads: np.ndarray, lr: float):
    """One Adagrad step on selected rows: acc += g^2; cell -= lr*g/sqrt(acc).

    Duplicate row indices are combined (their gradients summed) before the
    single update so fancy indexing cannot drop contributions.
    """
    rows = np.asarray(rows)
    if len(rows) > 1:
        uniq, inv = np.unique(rows, return_inverse=True)
        if len(uniq) != len(rows):
            combined = np.zeros((len(uniq), matrix.shape[1]))
            np.add.at(combined, inv, grads)
            rows, grads = uniq, combined
    if not matrix.flags.writeable:
        raise FrozenTableError("attempted update of a frozen table")
    acc[rows] += grads * grads
    matrix[rows] -= lr * grads / np.sqrt(acc[rows])


def adagrad_step(tables: Tables, grads: SparseGrads, learning_rate: float):
    """Apply one SparseGrads bundle to the tables."""
    by_cls: dict[tuple[str, str], tuple[list, list]] = {}
    for (cls, idx), g in grads.rho.items():
        by_cls.setdefault((cls, "rho"), ([], []))[0].append(idx)
        by_cls[(cls, "rho")][1].append(g)
    for (cls, idx), g in grads.alpha.items():
        by_cls.setdefault((cls, "alpha"), ([], []))[0].append(idx)
        by_cls[(cls, "alpha")][1].append(g)
    for (cls, which), (rows, gs) in by_cls.items():
        table = tables.get(cls)
        mat = table.rho if which == "rho" else table.alpha
        acc = table.rho_acc if which == "rho" else table.alpha_acc
        adagrad_rows(mat, acc, np.array(rows), np.array(gs), learning_rate)


# --- unit means --------------------------------------------------------------


def _compensated_mean(rows: np.ndarray) -> np.ndarray:
    """Neumaier-compensated column means; exact enough to match fsum."""
    total = np.zeros(rows.shape[1])
    comp = np.zeros(rows.shape[1])
    for r in rows:
        t = total + r
        big = np.abs(total) >= np.abs(r)
        comp += np.where(big, (total - t) + r, (r - t) + total)
        total = t
    return (total + comp) / rows.shape[0]


def reference_equation_matrices(eq_units: dict, unit_table, n_equations: int):
    """``(alphas, rhos)`` of a unit model, one equation at a time; NaN rows
    for equations without units."""
    alphas = np.full((n_equations, unit_table.k), np.nan)
    rhos = np.full((n_equations, unit_table.k), np.nan)
    for eq_id, ids in eq_units.items():
        ids = ids[ids >= 0]
        if ids.size:
            alphas[eq_id] = _compensated_mean(unit_table.alpha[ids])
            rhos[eq_id] = _compensated_mean(unit_table.rho[ids])
    return alphas, rhos


# --- per-item scoring -------------------------------------------------------


def context_vector(model, cls: str, idx: int) -> np.ndarray | None:
    """Feature-vector contribution of one context item, or None when the
    model has no representation for it (it then contributes nothing)."""
    k = model.word.k
    if cls == "word":
        if not 0 <= idx < model.word.size:
            raise IndexError(f"word id {idx} out of range")
        return model.word.alpha[idx]
    if cls != "eq":
        raise ValueError(f"unexpected context class {cls!r}")
    if model.mode == "word":
        return None
    if model.mode == "equation":
        if model.eq is None or not 0 <= idx < model.eq.size:
            raise IndexError(f"equation id {idx} out of range")
        return model.eq.alpha[idx]
    ids = model.eq_units.get(idx)
    if ids is None:
        raise IndexError(f"equation id {idx} out of range")
    ids = ids[ids >= 0]
    if ids.size == 0:
        return None
    rows = model.unit.alpha[ids]
    return rows.mean(axis=0) if model.config.unit_context_mean else rows.sum(axis=0)


def _context_sum(model, item):
    """Sum of context feature vectors, or None when an id is unusable."""
    s = np.zeros(model.word.k)
    try:
        for cls, idx in item.context:
            v = context_vector(model, cls, idx)
            if v is not None:
                s = s + v
    except (IndexError, ValueError):
        return None
    return s


def _candidate_scores(model, item, s):
    cand = np.array([item.target] + list(item.negatives), dtype=np.int64)
    if cand.min() < 0 or cand.max() >= model.word.size:
        return None
    return model.word.rho[cand] @ s


def reference_predictive_ll(item, model):
    """log softmax probability of the held-out word against its negatives,
    or None when the item references ids the model does not know."""
    s = _context_sum(model, item)
    if s is None:
        return None
    z = _candidate_scores(model, item, s)
    if z is None:
        return None
    ex = np.exp(z - z.max())
    p = ex[0] / ex.sum()
    return float(np.log(max(p, _TINY)))


def reference_pseudo_ll(item, model):
    """Target log probability plus averaged log complements of negatives."""
    s = _context_sum(model, item)
    if s is None:
        return None
    z = _candidate_scores(model, item, s)
    if z is None:
        return None
    if model.config.pseudo_likelihood == "softmax":
        ex = np.exp(z - z.max())
        p = ex / ex.sum()
    else:
        p = sigmoid(z)
    p = np.clip(p, LOG_EPS, 1.0 - LOG_EPS)
    value = math.log(p[0])
    if len(p) > 1:
        value += math.fsum(math.log1p(-pj) for pj in p[1:]) / (len(p) - 1)
    return value


# --- similarity scans --------------------------------------------------------


def reference_scores(matrix: np.ndarray, query: np.ndarray, metric: str) -> np.ndarray:
    """Per-row score over a zero-filled copy; rows with a non-finite entry,
    and for cosine zero-norm rows (all rows for a zero query), score worst."""
    valid = np.isfinite(matrix).all(axis=1)
    safe = np.where(valid[:, None], matrix, 0.0)
    if metric == "euclidean":
        d = np.sqrt(((safe - query) ** 2).sum(axis=1))
        return np.where(valid, d, np.inf)
    if metric == "cosine":
        norms = np.sqrt((safe**2).sum(axis=1))
        qn = float(np.sqrt(query @ query))
        with np.errstate(invalid="ignore", divide="ignore"):
            c = (safe @ query) / (norms * qn)
        return np.where(valid & (norms > 0) & (qn > 0), c, -np.inf)
    raise ValueError(f"unknown metric {metric!r}")


def reference_rank(scores: np.ndarray, k: int, ascending: bool, exclude: int | None = None):
    """The first k of every (id, score) but ``exclude``, by score (ascending
    or descending) and then ascending id, from one full ``lexsort``."""
    ids = np.arange(len(scores))
    key = scores if ascending else -scores
    if exclude is not None:
        keep = ids != exclude
        ids, key, scores = ids[keep], key[keep], scores[keep]
    order = np.lexsort((ids, key))[:k]
    return [(int(ids[i]), float(scores[i])) for i in order]
