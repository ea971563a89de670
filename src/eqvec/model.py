"""Bernoulli embedding tables, model configuration and the fitted model.

Every object class (words, equations, equation units) carries two dense
matrices: interaction vectors ``rho`` used when the object is the
prediction target, and feature vectors ``alpha`` used when it sits in
another object's context.  An observation is Bernoulli with parameter
sigma(rho_target . sum of context alphas); negative-sampled zeros share
the positive's context with label 0.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import EquationUnits

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
        if not np.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")
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


class EmbeddingTable:
    """rho/alpha matrices for one class, drawn uniform on [-scale, scale)
    from ``bits``, rho first: bitwise ``Generator(bits).uniform``'s values."""

    def __init__(self, size: int, k: int, bits: np.random.PCG64, scale: float):
        from .draws import doubles  # not on the query path, which loads tables

        self.size = size
        self.k = k
        self.rho = -scale + 2 * scale * doubles(bits, size * k).reshape(size, k)
        self.alpha = -scale + 2 * scale * doubles(bits, size * k).reshape(size, k)

    @classmethod
    def from_arrays(cls, rho: np.ndarray, alpha: np.ndarray) -> "EmbeddingTable":
        t = cls.__new__(cls)
        t.size, t.k = rho.shape
        t.rho = np.ascontiguousarray(rho, dtype=np.float64)
        t.alpha = np.ascontiguousarray(alpha, dtype=np.float64)
        return t

    @property
    def frozen(self) -> bool:
        return not self.rho.flags.writeable

    def freeze(self):
        self.rho.flags.writeable = self.alpha.flags.writeable = False

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


# --- derived equation vectors (unit mode) -------------------------------------

_BLOCK = 256  # groups summed at a time, so that a block's arrays stay in cache
_FLOAT32_MAX = float(np.finfo(np.float32).max)


def _rounding_error(tot, r, t, e):
    """Into ``e``, the exact rounding error of ``t = tot + r`` (Knuth's
    TwoSum, without a branch); overwrites ``r``.

    Neumaier's branch on the larger magnitude finds the same exact error,
    so a compensated sum that adds these agrees with his bit for bit on
    finite sums.  (Where the error vanishes the two may differ in the sign
    of zero, which leaves a compensation started at +0.0 unchanged.)"""
    np.subtract(t, tot, out=e)  # the part of r that reached t
    r -= e  # its rounding error
    np.subtract(t, e, out=e)  # the part of tot that reached t
    np.subtract(tot, e, out=e)  # its rounding error
    e += r


class UnitGroups:
    """An equation -> units layout ``(ptr, ids)``, such as an
    ``EquationUnits``'s, and the blocks ``unit_means`` sums over, so that
    both kinds of a model's equation vectors share them."""

    def __init__(self, ptr: np.ndarray, ids: np.ndarray):
        self.ptr, self.ids = ptr, ids
        self.lengths = np.diff(ptr)
        self.longest = int(self.lengths.max(initial=0))

    @cached_property
    def blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The groups with units, ranked by length, longest first (stable),
        ``_BLOCK`` at a time: each block's group ids and its int32 ``(longest
        in block, groups)`` matrix of their unit ids, padded with -1."""
        order = np.argsort(-self.lengths, kind="stable")[: np.count_nonzero(self.lengths)]
        blocks = []
        for lo in range(0, len(order), _BLOCK):
            group_ids = order[lo : lo + _BLOCK]
            lengths, steps = self.lengths[group_ids], np.arange(self.lengths[group_ids[0]])[:, None]
            units = self.ids.take(self.ptr[group_ids] + steps, mode="clip")
            blocks.append((group_ids, np.where(steps < lengths, units, -1).astype(np.int32)))
        return blocks


def _sums_exact(rows: np.ndarray, longest: int) -> bool:
    """Whether every partial sum of at most ``longest`` entries of a column
    of ``rows`` is exact in float64.

    It is when every entry is finite and float32-valued, as a loaded
    model's are, and ``max|x| * longest < 2**(e + 29)`` for ``e`` the
    ``frexp`` exponent of the smallest nonzero |x|: each entry is then a
    multiple of ``2**(e - 24)``, and so is each partial sum, which stays
    below ``2**(e - 24 + 53)``."""
    mags = np.abs(rows)
    hi = mags.max(initial=0.0)
    if not hi <= _FLOAT32_MAX or not (rows.astype(np.float32) == rows).all():  # a NaN fails the first
        return False
    lo = np.min(mags, where=mags > 0, initial=np.inf)
    return lo == np.inf or hi * longest < math.ldexp(1.0, math.frexp(lo)[1] + 29)


def _sum_rows(rows: np.ndarray, exact: bool) -> np.ndarray:
    """The sum of ``rows`` down its first axis, started at +0.0; overwrites
    ``rows``.

    Where ``exact`` (``_sums_exact`` holds for the rows), every partial sum
    is the true one, so one ``np.add.reduce`` gives it in whatever order it
    adds, and adding +0.0 gives an all -0.0 sum the sign a sum started at
    +0.0 has.  Otherwise the rows are added one at a time with a Neumaier
    compensation, and the sum is the total plus the compensation."""
    if exact:
        return np.add.reduce(rows, axis=0) + 0.0
    total, comp, t, e = (np.zeros(rows.shape[1:]) for _ in range(4))
    for r in rows:
        np.add(total, r, out=t)
        _rounding_error(total, r, t, e)
        comp += e
        total, t = t, total
    return total + comp


def unit_means(groups: UnitGroups, rows: np.ndarray) -> np.ndarray:
    """Neumaier-compensated mean of ``rows[ids[ptr[g]:ptr[g + 1]]]`` for
    every group g of ``groups``.  A group without units gives a NaN row.

    Each of ``groups.blocks`` is gathered whole, its -1 padding reading a
    zero row appended to ``rows``, and summed by ``_sum_rows``, exactly
    where ``_sums_exact`` holds for ``rows`` and the longest group.  A
    padded group's mean is bitwise the one it gets alone: its running total
    and compensation start at +0.0, so neither is ever -0.0, and adding
    +0.0 changes neither (after an inf or NaN the compensation is NaN
    already)."""
    rows = np.asarray(rows, dtype=np.float64)
    exact = _sums_exact(rows, groups.longest)
    padded = np.concatenate((rows, np.zeros((1, rows.shape[1]))))
    out = np.full((len(groups.lengths), rows.shape[1]), np.nan)
    for group_ids, units in groups.blocks:
        out[group_ids] = _sum_rows(padded.take(units, axis=0), exact) / groups.lengths[group_ids, None]
    return out


def equation_vector_from_units(units, unit_table: EmbeddingTable):
    """Equation-level (alpha, rho) as the arithmetic mean of unit vectors,
    bitwise the row ``unit_means`` gives the equation over the whole table.

    The equation's rows are gathered first, so that ``_sums_exact`` reads
    only those, with the equation's length as the longest group."""
    ids = np.asarray(units, dtype=np.int64).ravel()
    if ids.size == 0:
        raise ValueError("untokenizable equation: no units")
    if ids.min() < 0:  # a gap (-1) of an old table, which would read the last unit row
        raise ValueError(f"unit id {ids.min()} is negative")
    rows = np.hstack((unit_table.alpha[ids], unit_table.rho[ids]))
    mean = _sum_rows(rows, _sums_exact(rows, ids.size))
    mean /= ids.size
    return mean[: unit_table.k], mean[unit_table.k :]


# --- what a similarity scan reads of a matrix ---------------------------------


class RowStats:
    """The values a similarity scan reads of a matrix, none of which
    depends on the query, each computed on its first read: a Euclidean
    scan reads only ``nonfinite``, so it computes no norms.

    Row-local, like the scans that read them: each finite row's norm is
    bitwise the one it has in a copy with the other rows zero-filled."""

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    @cached_property
    def norms(self) -> np.ndarray:
        """Each row's Euclidean norm."""
        return np.sqrt((self.matrix**2).sum(axis=1))

    @cached_property
    def nonfinite(self) -> np.ndarray:
        """The rows holding a NaN or ±inf entry.  Such a row has a NaN or
        inf sum and norm, so only the rows whose norm (when a cosine scan
        has computed them) or sum is not finite are searched for one; a
        finite row whose sum or squared norm overflows is among them and
        stays finite."""
        totals = self.__dict__.get("norms")
        if totals is None:
            totals = np.add.reduce(self.matrix, axis=1)
        nonfinite = ~np.isfinite(totals)
        odd = nonfinite.nonzero()[0]
        if odd.size:
            nonfinite[odd] = ~np.isfinite(self.matrix[odd]).all(axis=1)
        return nonfinite

    @cached_property
    def cosine_worst(self) -> np.ndarray:
        """The rows that score worst under cosine: the non-finite ones, and
        zero-norm rows."""
        return self.nonfinite | (self.norms == 0)


# --- fitted model container ---------------------------------------------------


class Model:
    """A fitted embedding model: tables plus enough structure to score and query.

    For unit-trained models, per-equation vectors are derived by averaging
    unit vectors over ``eq_units``, the corpus's ``EquationUnits`` table,
    one kind (alpha or rho) at a time on first use; without a table, every
    equation has no units.

    A model's tables are not written again once it is returned, so what
    is derived from them is kept: a unit model's equation matrices, and the
    ``RowStats`` of each matrix a similarity query scans, from its first
    scan.
    """

    def __init__(
        self,
        mode: str,
        config: ModelConfig,
        word: EmbeddingTable,
        eq: EmbeddingTable | None = None,
        unit: EmbeddingTable | None = None,
        eq_units: EquationUnits | None = None,
        n_equations: int = 0,
    ):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.config = config
        self.word, self.eq, self.unit = word, eq, unit
        self.n_equations = eq.size if eq is not None else n_equations
        self.eq_units = EquationUnits(np.zeros(self.n_equations + 1), []) if eq_units is None else eq_units
        self._derived: dict[str, np.ndarray] = {}
        self._scanned: dict[str, RowStats] = {}

    @cached_property
    def _unit_groups(self) -> UnitGroups:
        """The layout of ``eq_units`` that both kinds are derived over."""
        return UnitGroups(self.eq_units.ptr, self.eq_units.ids)

    def _derive(self, which: str) -> np.ndarray:
        """A unit model's equation matrix of one kind, derived on first use."""
        if which not in self._derived:
            self._derived[which] = unit_means(self._unit_groups, getattr(self.unit, which))
        return self._derived[which]

    def equation_matrix(self, which: str) -> np.ndarray:
        """All equation vectors of one kind; NaN rows mark equations without
        a representation (unit mode, untokenizable)."""
        if which not in ("alpha", "rho"):
            raise ValueError("which must be 'alpha' or 'rho'")
        if self.mode == "equation":
            return self.eq.alpha if which == "alpha" else self.eq.rho
        if self.mode == "unit":
            return self._derive(which)
        raise ValueError("word-only model has no equation vectors")

    def scan(self, kind: str) -> tuple[np.ndarray, RowStats]:
        """The matrix a similarity query scans, ``"word"`` feature vectors
        or the equation vectors of one kind (``"alpha"`` or ``"rho"``), and
        its ``RowStats``, computed on its first scan."""
        matrix = self.word.alpha if kind == "word" else self.equation_matrix(kind)
        if kind not in self._scanned:
            self._scanned[kind] = RowStats(matrix)
        return matrix, self._scanned[kind]

    def equation_vectors(self, eq_id: int) -> tuple[np.ndarray, np.ndarray]:
        """(alpha, rho) for one equation; raises for untokenizable ones."""
        if not 0 <= eq_id < self.n_equations:
            raise IndexError(f"equation id {eq_id} out of range")
        if self.mode == "equation":
            return self.eq.alpha[eq_id].copy(), self.eq.rho[eq_id].copy()
        if self.mode == "unit":
            ids = self.eq_units[eq_id]
            if len(self._derived) == 2 and ids.size:
                # both batched passes have run, and gave every equation bitwise its one-group mean
                return self._derived["alpha"][eq_id].copy(), self._derived["rho"][eq_id].copy()
            return equation_vector_from_units(ids, self.unit)
        raise ValueError("word-only model has no equation vectors")
