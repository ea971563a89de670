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
from functools import cached_property, partial

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


def _split(rows: np.ndarray, longest: int) -> tuple[np.ndarray, bool]:
    """``rows`` as parts side by side and padded with a zero row, whose column
    sums over at most ``longest`` rows are exact and add up, in one rounding,
    to the correctly rounded sum, and True; ``rows`` padded, and False, where
    no such split is known.

    For g the least power of two with ``longest * (max|x| + g/2) < 2**53 * g``
    (finite x), ``hi = rint(x / g) * g`` and ``lo = x - hi`` are exact, and
    hi's partial sums are multiples of g below ``2**53 * g``.  Where lo is
    all zero, ``rows`` is the one part.  Each lo is a multiple of
    ``2**(e - 53)``, e the ``frexp`` exponent of the least nonzero |x|, and
    at most g/2: its sums are exact while ``longest * g / 2 < 2**e``.  A NaN
    or ±inf gives a NaN lo, so its group's sum is NaN."""
    mags = np.abs(rows)
    most = mags.max(initial=0.0)
    if not (finite := most < math.inf):  # a NaN or ±inf: the largest finite magnitude
        most = np.max(mags, where=np.isfinite(mags), initial=0.0)
    # for most = num / den the condition is a < b * g, and its least e is e or e + 1 below
    num, den = float(most).as_integer_ratio()
    a, b = 2 * longest * num, den * ((1 << 54) - longest)
    e = a.bit_length() - b.bit_length()
    e = max(e + (not (a < b << e if e >= 0 else a << -e < b)), -1074) if a else -1074
    g = math.ldexp(1.0, e)
    hi = np.multiply(rows, math.ldexp(1.0, -e), out=mags) if e > -1023 else np.divide(rows, g, out=mags)
    np.rint(hi, out=hi)
    hi *= g  # exact: an x / g that lost bits is below 2**-1022, and its hi is 0
    k, padded = rows.shape[1], np.concatenate((rows, np.zeros((1, rows.shape[1]))))
    if finite and (hi == rows).all():
        return padded, True
    least = np.fmin.reduce(np.abs(rows), axis=None, where=rows != 0, initial=math.inf)  # fmin skips NaN
    if least < math.inf and longest.bit_length() > math.frexp(least)[1] - e + 1:
        return padded, False
    parts = np.zeros((len(rows) + 1, 2 * k))
    parts[:-1, :k] = hi
    with np.errstate(invalid="ignore"):  # inf - inf
        np.subtract(rows, hi, out=parts[:-1, k:])
    return parts, True


def _sum_parts(parts: np.ndarray, k: int) -> np.ndarray:
    """The sum of ``_split``'s ``parts`` down their first axis: each part's
    exact sum (``np.add.reduce``, in any order) added in turn to +0.0."""
    sums = np.add.reduce(parts, axis=0)
    return sum((sums[..., at : at + k] for at in range(0, sums.shape[-1], k)), 0.0)


def _fsum_rows(rows: np.ndarray) -> np.ndarray:
    """The sum of ``rows`` down its first axis by ``math.fsum`` for each
    column; NaN where its float sum is not finite (it holds a NaN or ±inf)."""
    sums = np.add.reduce(rows, axis=0)
    for at in zip(*np.isfinite(sums).nonzero()):
        sums[at] = math.fsum(rows[(slice(None), *at)])
    return np.where(np.isfinite(sums), sums, np.nan)


def unit_means(groups: UnitGroups, rows: np.ndarray) -> np.ndarray:
    """The mean of ``rows[ids[ptr[g]:ptr[g + 1]]]`` for every group g of
    ``groups``: each column's ``math.fsum`` over the group's length, NaN
    where the column holds a NaN or ±inf, and a NaN row for no units.

    ``rows`` is split once; each of ``groups.blocks`` is gathered whole from
    the parts, -1 reading their zero row (+0.0 changes no sum), and summed
    by ``_sum_parts``, or by ``math.fsum`` where there is no split."""
    rows = np.asarray(rows, dtype=np.float64)
    padded, exact = _split(rows, groups.longest) if groups.longest else (rows, True)  # no units: nothing to sum
    out = np.full((len(groups.lengths), rows.shape[1]), np.nan)
    sum_rows = partial(_sum_parts, k=rows.shape[1]) if exact else _fsum_rows
    for group_ids, units in groups.blocks:  # each block freed before the next is gathered, which reuses its memory
        out[group_ids] = sum_rows(padded.take(units, axis=0)) / groups.lengths[group_ids, None]
    return out


def equation_vector_from_units(units, unit_table: EmbeddingTable):
    """Equation-level (alpha, rho) as the arithmetic mean of unit vectors,
    bitwise the row ``unit_means`` gives the equation over the whole table:
    only the equation's rows, alpha then rho, are split."""
    ids = np.asarray(units, dtype=np.int64).ravel()
    if ids.size == 0:
        raise ValueError("untokenizable equation: no units")
    if ids.min() < 0:  # a gap (-1) of an old table, which would read the last unit row
        raise ValueError(f"unit id {ids.min()} is negative")
    rows = np.hstack((unit_table.alpha[ids], unit_table.rho[ids]))
    parts, exact = _split(rows, ids.size)
    mean = _sum_parts(parts, rows.shape[1]) if exact else _fsum_rows(parts)
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
