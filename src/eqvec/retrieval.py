"""Similarity queries over a fitted model.

Three query families: nearest equations to an equation (Euclidean over
equation feature vectors), nearest words to an equation (cosine between
the equation's interaction vector and word feature vectors), and nearest
equations to a bag of words (cosine against equation vectors, query being
the mean of the words' interaction vectors).  Scans are exhaustive; ties
break on ascending id and the query item never appears in its own hits.
What a scan reads of its matrix besides the query, the ``RowStats``, is
kept on the model from the matrix's first scan (``Model.scan``).
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import Vocabulary
from .model import Model, RowStats

log = logging.getLogger(__name__)

METRICS = ("cosine", "euclidean")
_SCAN_BLOCK = 2048  # rows a Euclidean scan differences at a time, in one buffer per call


@dataclass
class Ranking:
    query: str
    metric: str
    hits: list[tuple[int, float]]
    dropped: list[str] = field(default_factory=list)


def _check_k(k: int):
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")


def _scores(matrix: np.ndarray, query: np.ndarray, metric: str, stats: RowStats) -> np.ndarray:
    """Per-row score; rows with a non-finite entry score worst, and so do
    zero-norm rows under cosine (every row for a zero query).

    Row sums and the matrix-vector product are row-local, so each finite
    row of the matrix itself scores bitwise as it would in a zero-filled
    copy, and a Euclidean scan may square and sum its differences
    ``_SCAN_BLOCK`` rows at a time; ``stats``, the matrix's ``RowStats``,
    then marks the other rows."""
    if metric == "euclidean":
        d, buf = np.empty(len(matrix)), np.empty((min(_SCAN_BLOCK, len(matrix)), len(query)))
        for lo in range(0, len(matrix), _SCAN_BLOCK):  # ufuncs with positional outs: a one-block scan stays cheap
            rows = matrix[lo : lo + _SCAN_BLOCK]
            block = buf[: len(rows)]
            np.subtract(rows, query, block)
            np.square(block, block)
            np.add.reduce(block, 1, None, d[lo : lo + len(rows)])
        d[stats.nonfinite] = np.inf
        return np.sqrt(d, d)
    if metric == "cosine":
        qn = float(np.sqrt(query @ query))
        if not qn > 0:
            return np.full(len(matrix), -np.inf)
        with np.errstate(invalid="ignore", divide="ignore"):
            c = (matrix @ query) / (stats.norms * qn)
        c[stats.cosine_worst] = -np.inf
        return c
    raise ValueError(f"unknown metric {metric!r}")


def _rank(scores: np.ndarray, k: int, ascending: bool, exclude: int | None = None):
    """The first k (id, score) pairs but ``exclude``, by score and then
    ascending id.  A partition finds the m-th key (m counts the excluded
    id), and only the keys not above it, ties and NaNs included, are
    sorted."""
    key = scores if ascending else -scores
    m = k + (exclude is not None)
    if m < len(key):
        ids = (~(key > np.partition(key, m - 1)[m - 1])).nonzero()[0]
    else:
        ids = np.arange(len(key))
    order = ids[np.lexsort((ids, key[ids]))][:m].tolist()
    if exclude in order:
        order.remove(exclude)
    top = order[:k]
    return list(zip(top, scores[top].tolist()))


def nearest_equations(model: Model, eq_id: int, k: int = 5, metric: str = "euclidean") -> Ranking:
    """Top-k equations nearest the query equation over feature vectors."""
    _check_k(k)
    if not 0 <= eq_id < model.n_equations:
        raise IndexError(f"unknown equation id {eq_id}")
    matrix, stats = model.scan("alpha")
    if stats.nonfinite[eq_id]:
        raise ValueError(f"untokenizable equation {eq_id} has no vector")
    scores = _scores(matrix, matrix[eq_id], metric, stats)
    return Ranking(f"eq:{eq_id}", metric, _rank(scores, k, metric == "euclidean", exclude=eq_id))


def nearest_words(model: Model, eq_id: int, k: int = 5, metric: str = "cosine") -> Ranking:
    """Top-k words by similarity between the equation's interaction vector
    and every word's feature vector; zero-norm words sink to the bottom."""
    _check_k(k)
    if not 0 <= eq_id < model.n_equations:
        raise IndexError(f"unknown equation id {eq_id}")
    _, rho_e = model.equation_vectors(eq_id)
    matrix, stats = model.scan("word")
    scores = _scores(matrix, rho_e, metric, stats)
    return Ranking(f"eq:{eq_id}", metric, _rank(scores, k, metric == "euclidean"))


class UnknownWords(ValueError):
    """A word query none of whose words is in the vocabulary."""


def equations_for_words(
    model: Model,
    vocab: Vocabulary,
    words,
    k: int = 5,
    metric: str = "cosine",
    vectors: str | None = None,
) -> Ranking:
    """Top-k equations for a bag-of-words query.

    The query vector is the mean of the words' interaction vectors; unknown
    words are reported and dropped, an all-unknown query is an error
    (``UnknownWords``).
    ``vectors`` picks which equation matrix to scan (defaults to the model
    config, interaction vectors unless overridden)."""
    _check_k(k)
    known, dropped = [], []
    for w in words:
        wid = vocab.index.get(w)
        (known if wid is not None else dropped).append(wid if wid is not None else w)
    if dropped:
        log.warning("query words not in vocabulary: %s", ", ".join(dropped))
    if not known:
        raise UnknownWords("no query word is in the vocabulary")
    query = model.word.rho[np.array(known, dtype=np.int64)].mean(axis=0)
    matrix, stats = model.scan(vectors or model.config.word2eq_vectors)
    scores = _scores(matrix, query, metric, stats)
    return Ranking(
        "words:" + ",".join(str(w) for w in words),
        metric,
        _rank(scores, k, metric == "euclidean"),
        dropped=dropped,
    )
