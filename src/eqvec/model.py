"""Bernoulli embedding parameterizations, gradients and the Adagrad update.

Every object class (words, equations, equation units) carries two dense
matrices: interaction vectors ``rho`` used when the object is the
prediction target, and feature vectors ``alpha`` used when it sits in
another object's context.  An observation is Bernoulli with parameter
sigma(rho_target . sum of context alphas); negative-sampled zeros share
the positive's context with label 0.
"""

from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

ADAGRAD_FLOOR = 1e-8
LOG_EPS = 1e-12

MODES = ("word", "equation", "unit")


@dataclass
class ModelConfig:
    k: int = 25
    word_window: int = 4  # |c_i|
    eq_window: int = 16  # word-equation window |c'_i|, >= word_window
    eq_context_window: int = 16  # |c_m|, words around an equation target
    unit_window: int = 4  # cs_u, units around a unit target
    n_negatives: int = 10
    learning_rate: float = 0.1
    max_epochs: int = 20
    init_scale: float | None = None  # defaults to 0.5 / k
    seed: int = 0
    negative_sampling: str = "unigram"  # "unigram" (power 1.0) | "uniform"
    # Unit models train words and units jointly by default: a frozen-word
    # second pass cannot recalibrate the summed unit contexts, which
    # measurably inverts the expected ordering against the equation model
    # on small corpora.  Set False for the two-pass protocol.
    unit_joint: bool = True
    unit_context_mean: bool = False  # average instead of sum unit contexts
    pseudo_likelihood: str = "bernoulli"  # "bernoulli" | "softmax"
    word2eq_vectors: str = "rho"  # "rho" | "alpha"

    def validate(self):
        if self.k <= 0:
            raise ValueError("embedding dimension must be positive")
        for name in ("word_window", "eq_window", "eq_context_window", "unit_window"):
            v = getattr(self, name)
            if v <= 0 or v % 2:
                raise ValueError(f"{name} must be a positive even integer, got {v}")
        if self.eq_window < self.word_window:
            raise ValueError("eq_window must be >= word_window")
        if self.n_negatives < 1 or self.learning_rate <= 0 or self.max_epochs < 1:
            raise ValueError("bad optimizer settings")
        if self.init_scale is not None and not self.init_scale > 0:
            raise ValueError(f"init_scale must be positive or None, got {self.init_scale}")
        if self.negative_sampling not in ("unigram", "uniform"):
            raise ValueError(f"unknown negative_sampling {self.negative_sampling!r}")
        if self.pseudo_likelihood not in ("bernoulli", "softmax"):
            raise ValueError(f"unknown pseudo_likelihood {self.pseudo_likelihood!r}")
        if self.word2eq_vectors not in ("rho", "alpha"):
            raise ValueError(f"unknown word2eq_vectors {self.word2eq_vectors!r}")
        return self

    @property
    def scale(self) -> float:
        return 0.5 / self.k if self.init_scale is None else self.init_scale

    def with_overrides(self, **kw) -> "ModelConfig":
        return replace(self, **kw).validate()


class FrozenTableError(RuntimeError):
    pass


class EmbeddingTable:
    """rho/alpha matrices plus per-cell Adagrad accumulators for one class."""

    def __init__(self, size: int, k: int, rng: np.random.Generator, scale: float):
        self.size = size
        self.k = k
        self.rho = rng.uniform(-scale, scale, size=(size, k))
        self.alpha = rng.uniform(-scale, scale, size=(size, k))
        self.rho_acc = np.full((size, k), ADAGRAD_FLOOR)
        self.alpha_acc = np.full((size, k), ADAGRAD_FLOOR)

    @classmethod
    def from_arrays(cls, rho: np.ndarray, alpha: np.ndarray) -> "EmbeddingTable":
        t = cls.__new__(cls)
        t.size, t.k = rho.shape
        t.rho = np.ascontiguousarray(rho, dtype=np.float64)
        t.alpha = np.ascontiguousarray(alpha, dtype=np.float64)
        # a table built from stored vectors is never trained: its accumulators
        # are a read-only view of the floor and take no memory
        t.rho_acc = np.broadcast_to(ADAGRAD_FLOOR, rho.shape)
        t.alpha_acc = np.broadcast_to(ADAGRAD_FLOOR, rho.shape)
        return t

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

    def checksum(self) -> bytes:
        import hashlib

        h = hashlib.sha256()
        h.update(self.rho.tobytes())
        h.update(self.alpha.tobytes())
        return h.digest()


def sigmoid(x):
    """Logistic function, stable for |x| well past 700."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return float(out) if out.ndim == 0 else out


# --- context sums and Bernoulli parameters -----------------------------------


class Tables:
    """Per-class table lookup used by the parameterization functions."""

    def __init__(self, word: EmbeddingTable, eq: EmbeddingTable | None = None, unit: EmbeddingTable | None = None):
        self.word = word
        self.eq = eq
        self.unit = unit

    def get(self, cls: str) -> EmbeddingTable:
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


def word_context_sum(context, word_table: EmbeddingTable, eq_table: EmbeddingTable | None) -> np.ndarray:
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


# --- derived equation vectors (unit mode) -------------------------------------


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


def equation_vector_from_units(unit_ids, unit_table: EmbeddingTable):
    """Equation-level (alpha, rho) as the arithmetic mean of unit vectors."""
    ids = np.asarray([u for u in np.asarray(unit_ids).ravel() if u >= 0], dtype=np.int64)
    if ids.size == 0:
        raise ValueError("untokenizable equation: no units")
    return (
        _compensated_mean(unit_table.alpha[ids]),
        _compensated_mean(unit_table.rho[ids]),
    )


# --- fitted model container ---------------------------------------------------


class Model:
    """A fitted embedding model: tables plus enough structure to score and query.

    For unit-trained models, per-equation vectors are derived by averaging
    unit vectors; ``eq_units`` must then map equation ids to unit-id arrays
    (gaps < 0 are ignored).
    """

    def __init__(
        self,
        mode: str,
        config: ModelConfig,
        word: EmbeddingTable,
        eq: EmbeddingTable | None = None,
        unit: EmbeddingTable | None = None,
        eq_units: dict[int, np.ndarray] | None = None,
        n_equations: int = 0,
    ):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.config = config
        self.tables = Tables(word, eq=eq, unit=unit)
        self.eq_units = eq_units or {}
        self.n_equations = eq.size if eq is not None else n_equations
        self._derived: dict[str, np.ndarray] | None = None

    @property
    def word(self) -> EmbeddingTable:
        return self.tables.word

    @property
    def eq(self) -> EmbeddingTable | None:
        return self.tables.eq

    @property
    def unit(self) -> EmbeddingTable | None:
        return self.tables.unit

    def context_vector(self, cls: str, idx: int) -> np.ndarray | None:
        """Feature-vector contribution of one context item, or None when the
        model has no representation for it (it then contributes nothing)."""
        k = self.word.k
        if cls == "word":
            if not 0 <= idx < self.word.size:
                raise IndexError(f"word id {idx} out of range")
            return self.word.alpha[idx]
        if cls != "eq":
            raise ValueError(f"unexpected context class {cls!r}")
        if self.mode == "word":
            return None
        if self.mode == "equation":
            if self.eq is None or not 0 <= idx < self.eq.size:
                raise IndexError(f"equation id {idx} out of range")
            return self.eq.alpha[idx]
        ids = self.eq_units.get(idx)
        if ids is None:
            raise IndexError(f"equation id {idx} out of range")
        ids = ids[ids >= 0]
        if ids.size == 0:
            return None
        rows = self.unit.alpha[ids]
        return rows.mean(axis=0) if self.config.unit_context_mean else rows.sum(axis=0)

    def _derive(self):
        if self._derived is None:
            alphas = np.full((self.n_equations, self.word.k), np.nan)
            rhos = np.full((self.n_equations, self.word.k), np.nan)
            for eq_id, ids in self.eq_units.items():
                ids = ids[ids >= 0]
                if ids.size:
                    a, r = equation_vector_from_units(ids, self.unit)
                    alphas[eq_id], rhos[eq_id] = a, r
            self._derived = {"alpha": alphas, "rho": rhos}
        return self._derived

    def equation_matrix(self, which: str) -> np.ndarray:
        """All equation vectors of one kind; NaN rows mark equations without
        a representation (unit mode, untokenizable)."""
        if which not in ("alpha", "rho"):
            raise ValueError("which must be 'alpha' or 'rho'")
        if self.mode == "equation":
            return self.eq.alpha if which == "alpha" else self.eq.rho
        if self.mode == "unit":
            return self._derive()[which]
        raise ValueError("word-only model has no equation vectors")

    def equation_vectors(self, eq_id: int) -> tuple[np.ndarray, np.ndarray]:
        """(alpha, rho) for one equation; raises for untokenizable ones."""
        if not 0 <= eq_id < self.n_equations:
            raise IndexError(f"equation id {eq_id} out of range")
        if self.mode == "equation":
            return self.eq.alpha[eq_id].copy(), self.eq.rho[eq_id].copy()
        if self.mode == "unit":
            ids = self.eq_units.get(eq_id)
            if ids is None:
                raise IndexError(f"equation id {eq_id} out of range")
            return equation_vector_from_units(ids, self.unit)
        raise ValueError("word-only model has no equation vectors")
