from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from eqvec.corpus import (
    CorpusData,
    EquationRegistry,
    EquationUnits,
    HeldOut,
    IngestParams,
    TokenStreams,
    Vocabulary,
    ingest_corpus,
)
from eqvec.model import ModelConfig
from eqvec.synthetic import planted_corpus
from eqvec.passes import PASS_CLASSES
from eqvec.training import train_model

# One experiment configuration for every planted-corpus check: identical
# across modes so comparisons stay fair.
PLANTED_DOCS = 200
PLANTED_CORPUS_SEED = 7
PLANTED_INGEST_SEED = 11
ACCEPT_KW = dict(k=25, word_window=4, eq_window=16, unit_window=2, learning_rate=0.05)
RETRIEVAL_SEED = 4
ORDERING_SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture(scope="session")
def planted():
    pc = planted_corpus(n_docs=PLANTED_DOCS, seed=PLANTED_CORPUS_SEED)
    data = ingest_corpus(pc.documents, IngestParams(seed=PLANTED_INGEST_SEED))
    return pc, data


@pytest.fixture(scope="session")
def trained(planted):
    """Lazily trained planted-corpus models, cached per (mode, seed).  An
    equation fit starts from its seed's word fit, whose word pass it would
    repeat; the joint unit fit has no word pass."""
    _, data = planted
    cache = {}

    def fit(mode, seed):
        if (mode, seed) not in cache:
            word = fit("word", seed) if mode == "equation" else None
            cache[mode, seed] = train_model(data, ModelConfig(seed=seed, **ACCEPT_KW), mode, word=word)
        return cache[mode, seed]

    return lambda mode, seed: fit(mode, seed)[0]


def with_overrides(cfg: ModelConfig, **kw) -> ModelConfig:
    return replace(cfg, **kw).validate()


def equation_units(rows) -> EquationUnits:
    """The equation -> units table whose row g holds the unit ids ``rows[g]``."""
    return EquationUnits(np.cumsum([0] + [len(r) for r in rows]), [u for r in rows for u in r])


def float32_unit_table(n_units: int, n_groups: int, seed: int, longest: int = 60):
    """A seeded unit table as a fit leaves one: float32-valued normal(0, 0.3)
    rows, ``(n_units, 25)``, and ``n_groups`` equations of geometric length
    (mean 10, at most ``longest``) over uniform unit ids; returns ``(rows,
    ptr, ids)``."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(0.0, 0.3, size=(n_units, 25)).astype(np.float32).astype(np.float64)
    lengths = np.minimum(rng.geometric(0.1, size=n_groups), longest)
    ptr = np.concatenate(([0], np.cumsum(lengths)))
    return rows, ptr, rng.integers(0, n_units, size=int(ptr[-1]))


def within_float32_bound(rows: np.ndarray, longest: int) -> bool:
    """The condition under which older versions summed a unit matrix with
    one ``np.add.reduce``: finite float32 values whose largest magnitude
    times the longest group stays below 2**(e + 29), for e the exponent of
    the smallest nonzero magnitude."""
    if not np.isfinite(rows).all() or not (rows.astype(np.float32) == rows).all():
        return False
    mags = np.abs(rows[rows != 0])
    return not mags.size or bool(mags.max() * longest < 2.0 ** (int(np.frexp(mags.min())[1]) + 29))


class Item(NamedTuple):
    """One held-out item as the per-item references read it."""

    target: int
    context: list  # ("word" | "eq", id) pairs
    negatives: list
    stream: int = 0
    position: int = 0
    eq_id: int = 0


def heldout_items(held: HeldOut) -> list[Item]:
    """A ``HeldOut`` set as one record per item."""
    ctx = [("eq" if e else "word", i) for e, i in zip(held.ctx_eq.tolist(), held.ctx_id.tolist())]
    cand, cp, xp = held.cand.tolist(), held.cand_ptr.tolist(), held.ctx_ptr.tolist()
    return [Item(cand[cp[i]], ctx[xp[i] : xp[i + 1]], cand[cp[i] + 1 : cp[i + 1]], *rest)
            for i, rest in enumerate(zip(held.stream.tolist(), held.position.tolist(), held.eq_id.tolist()))]


def heldout_set(items, split: str = "validation") -> HeldOut:
    """Records as one ``HeldOut`` set; a context class other than "eq" is a word."""
    ctx = [c for it in items for c in it.context]
    return HeldOut(split, [it.stream for it in items], [it.position for it in items], [it.eq_id for it in items],
                   np.cumsum([0] + [len(it.context) for it in items]), [c == "eq" for c, _ in ctx],
                   [i for _, i in ctx], np.cumsum([0] + [1 + len(it.negatives) for it in items]),
                   [c for it in items for c in (it.target, *it.negatives)])


def drop_last_equation(path: str):
    """Rewrite an ``eq_units.bin`` without its last row: a file whose
    lengths and unit ids agree, holding one equation fewer than
    ``equations.bin``."""
    with open(path, "rb") as f:
        raw = f.read()
    at = raw.index(b"\n") + 1
    words = np.frombuffer(raw, dtype="<u4", offset=at)  # count n, lengths[n], unit ids
    n = int(words[0])
    kept = np.concatenate(([n - 1], words[1:n], words[1 + n : len(words) - int(words[n])]))
    with open(path, "wb") as f:
        f.write(raw[:at] + kept.astype("<u4").tobytes())


def write_eq_units(path: str, rows):
    """Write an ``eq_units.bin`` by hand, row g holding the int32 unit ids
    ``rows[g]``, -1 included: bundles that older writers ingested at
    ``unit_min_count`` above 1 hold a -1 for each unit the threshold dropped."""
    with open(path, "rb") as f:
        header = f.readline()
    with open(path, "wb") as f:
        f.write(header + np.array([len(rows), *map(len, rows)], dtype="<u4").tobytes())
        f.write(np.array([u for r in rows for u in r], dtype="<i4").tobytes())


def token_streams(rows) -> TokenStreams:
    """The streams table of ``(doc_id, codes)`` rows, such as ``TokenStream``s, in order."""
    rows = [(doc_id, np.asarray(codes, dtype=np.uint32)) for doc_id, codes in rows]
    return TokenStreams([d for d, _ in rows], np.cumsum([0] + [len(c) for _, c in rows]),
                        np.concatenate([np.empty(0, dtype=np.uint32)] + [c for _, c in rows]))


def corpus_from_streams(streams, n_words: int, n_equations: int = 0) -> CorpusData:
    """A corpus around hand-made token streams (``(doc_id, codes)`` rows):
    no held-out items, no units, every equation seen once."""
    vocab = Vocabulary(kind="word", forms=[f"w{i:04d}" for i in range(n_words)],
                       freqs=np.ones(n_words, dtype=np.int64))
    registry = EquationRegistry([f"x_{{{g}}}" for g in range(n_equations)], np.ones(n_equations))
    units = Vocabulary(kind="unit", forms=[], freqs=np.zeros(0, dtype=np.int64))
    return CorpusData(vocab, registry, token_streams(streams), units, equation_units([[]] * n_equations),
                      HeldOut("validation"), HeldOut("test"), IngestParams(), {})


def plan_positions(plans, pass_name: str):
    """A compiled pass decoded to (target class, target id, [(class, id), ...])
    per position, in enumeration order."""
    classes = PASS_CLASSES[pass_name][0]
    out = []
    for plan in plans:
        offsets = plan.offsets
        for i in range(len(plan)):
            rows = plan.ctx_rows[plan.ctx_ptr[i] : plan.ctx_ptr[i + 1]] - offsets[-1]
            cls = np.searchsorted(offsets, rows, side="right") - 1
            ctx = [(classes[c], int(r - offsets[c])) for c, r in zip(cls, rows)]
            out.append((classes[plan.cls[i]], int(plan.target[i]), ctx))
    return out
