"""Corpus construction: vocabulary, equation registry, token streams, held-out sets.

Per-document work (extraction + tokenization) is pure and safe to fan out
to worker processes; everything order-sensitive is merged in doc_id order
so parallel and serial ingestion produce identical corpora.
"""

import logging
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from importlib import resources

import numpy as np

from .records import EquationRecord, RawDocument

log = logging.getLogger(__name__)

# Stream item codes: plain word ids, equation ids with the high bit set,
# and an all-ones sentinel for out-of-vocabulary gap positions.
GAP = np.uint32(0xFFFFFFFF)
EQ_TAG = np.uint32(0x80000000)


def encode_equation(eq_id: int) -> int:
    return int(eq_id) | int(EQ_TAG)


def is_word(code) -> bool:
    return int(code) < int(EQ_TAG)


class CorpusError(ValueError):
    pass


@dataclass
class Vocabulary:
    """Dense bidirectional map between surface forms and integer ids."""

    kind: str  # "word" | "unit"
    forms: list[str]
    freqs: np.ndarray
    index: dict[str, int] = field(default_factory=dict)
    # For word vocabularies: the frequency-derived stop forms that were
    # removed on top of the fixed stopword list, in removal rank order.
    stop_forms: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.index:
            self.index = {f: i for i, f in enumerate(self.forms)}

    def __len__(self) -> int:
        return len(self.forms)

    def __contains__(self, form: str) -> bool:
        return form in self.index


def load_stopwords() -> frozenset[str]:
    data = resources.files("eqvec").joinpath("stopwords.txt").read_text()
    return frozenset(w.strip() for w in data.splitlines() if w.strip() and not w.startswith("#"))


def build_word_vocabulary(
    token_lists,
    stopwords,
    min_tf: int = 10,
    min_len: int = 4,
    top_stop: int = 25,
    abbrev_top: int = 50,
    extra_stop=(),
) -> Vocabulary:
    """Word vocabulary under the frequency/length/stopword rules.

    After removing fixed stopwords (and any ``extra_stop`` forms), the
    ``top_stop`` most frequent remaining forms are dropped as corpus stop
    words.  Kept are forms with frequency >= ``min_tf`` and length >=
    ``min_len``, plus the ``abbrev_top`` most frequent 3-character forms as
    the abbreviation exception.  Ids are dense, ordered by descending
    frequency then form.
    """
    counts: Counter[str] = Counter()
    for toks in token_lists:
        counts.update(toks)
    if not counts:
        raise CorpusError("empty corpus")
    dropped = set(stopwords) | set(extra_stop)
    remaining = {f: c for f, c in counts.items() if f not in dropped}
    by_rank = sorted(remaining, key=lambda f: (-remaining[f], f))
    freq_stop = tuple(by_rank[:top_stop])
    for f in freq_stop:
        del remaining[f]

    kept = {f: c for f, c in remaining.items() if c >= min_tf and len(f) >= min_len}
    three = [f for f, c in remaining.items() if len(f) == 3 and c >= min_tf]
    three.sort(key=lambda f: (-remaining[f], f))
    for f in three[:abbrev_top]:
        kept[f] = remaining[f]

    forms = sorted(kept, key=lambda f: (-kept[f], f))
    return Vocabulary(
        kind="word",
        forms=forms,
        freqs=np.array([kept[f] for f in forms], dtype=np.int64),
        stop_forms=freq_stop,
    )


# --- equation registry -------------------------------------------------------


@dataclass
class EquationRegistry:
    """Corpus-wide equation table, deduplicated on normalized LaTeX."""

    records: list[EquationRecord] = field(default_factory=list)
    _by_latex: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    def add(self, latex: str, doc_id: str, count: int = 1) -> int:
        eq_id = self._by_latex.get(latex)
        if eq_id is None:
            eq_id = len(self.records)
            self._by_latex[latex] = eq_id
            self.records.append(EquationRecord(eq_id, doc_id, latex, 0))
        self.records[eq_id].occurrence_count += count
        return eq_id

    def occurrence_counts(self) -> np.ndarray:
        return np.array([r.occurrence_count for r in self.records], dtype=np.int64)


def build_equation_registry(doc_records: list[tuple[str, list[EquationRecord]]]):
    """Merge per-document records into one registry, in doc_id order.

    Returns ``(registry, doc_maps)`` where ``doc_maps[doc_id]`` maps each
    document-local equation id to its global id.
    """
    registry = EquationRegistry()
    doc_maps: dict[str, dict[int, int]] = {}
    for doc_id, records in sorted(doc_records, key=lambda p: p[0]):
        mapping = {}
        for rec in records:
            mapping[rec.eq_id] = registry.add(rec.latex, doc_id, rec.occurrence_count)
        doc_maps[doc_id] = mapping
    return registry, doc_maps


# --- token streams ------------------------------------------------------------


@dataclass
class TokenStream:
    doc_id: str
    codes: np.ndarray  # uint32, see module head for the encoding


class EquationUnits(Mapping):
    """Every equation's unit ids, gaps (-1) included: equation g's are
    ``ids[ptr[g]:ptr[g + 1]]``.  A read-only mapping from every equation id
    0..n-1 to a view of ``ids``; any other key raises ``KeyError``."""

    def __init__(self, ptr, ids):
        self.ptr = np.asarray(ptr, dtype=np.int64)
        self.ids = np.asarray(ids, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def __iter__(self):
        return iter(range(len(self)))

    def __getitem__(self, eq_id) -> np.ndarray:
        if not isinstance(eq_id, (int, np.integer)) or not 0 <= eq_id < len(self):
            raise KeyError(eq_id)
        return self.ids[self.ptr[eq_id] : self.ptr[eq_id + 1]]

    def without_gaps(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ptr, ids)`` of the same rows with the gaps dropped."""
        keep = self.ids >= 0
        return np.concatenate(([0], np.cumsum(keep)))[self.ptr], self.ids[keep]


def build_token_streams(doc_tokens, word_vocab: Vocabulary, doc_maps) -> list[TokenStream]:
    """Map prepared documents to streams of word/equation/gap codes.

    ``doc_tokens`` holds ``(doc_id, pieces, slots)``: the word lists of a
    document's prose pieces and, between consecutive pieces, the
    document-local id of the equation in that slot.  Every in-vocabulary
    word becomes its id, every other word a gap that holds its position
    but never enters a context window.  A slot becomes its tagged global
    equation id, or a gap when ``doc_maps`` maps it to None (an equation
    dropped by singleton sampling); a slot naming no equation of its
    document is an error.
    """
    lookup = word_vocab.index.get
    gap = int(GAP)
    streams = []
    for doc_id, pieces, slots in doc_tokens:
        mapping = doc_maps.get(doc_id, {})
        codes = [lookup(w, gap) for w in pieces[0]]
        for local, words in zip(slots, pieces[1:], strict=True):
            if local not in mapping:
                raise CorpusError(f"{doc_id}: equation slot {local} names no equation of the document")
            gid = mapping[local]
            codes.append(gap if gid is None else encode_equation(gid))
            codes += [lookup(w, gap) for w in words]
        streams.append(TokenStream(doc_id, np.array(codes, dtype=np.uint32)))
    return streams


# --- held-out sets ------------------------------------------------------------


@dataclass
class HeldOutItem:
    target: int  # word id
    context: list[tuple[str, int]]  # ("word"|"eq", id); exactly one eq entry
    negatives: list[int]  # word ids
    split: str  # "validation" | "test"
    doc_id: str
    position: int
    eq_id: int


def _window_word_positions(codes: np.ndarray, p: int, half: int):
    lo, hi = max(0, p - half), min(len(codes), p + half + 1)
    return [q for q in range(lo, hi) if q != p and is_word(codes[q])]


def build_heldout(
    streams: list[TokenStream],
    n_words: int,
    per_equation: int = 2,
    context_window: int = 4,
    n_negatives: int = 10,
    seed: int = 0,
):
    """Sample per-equation held-out words for validation and test.

    For each equation, ``per_equation`` in-window word positions go to each
    split.  An item's context is the nearest ``context_window - 1``
    in-vocabulary words around the target plus the equation itself;
    negatives are drawn uniformly over the word vocabulary excluding the
    target.  Equations with fewer than ``2 * per_equation`` candidate
    positions are skipped and counted.

    Returns ``(validation, test, n_skipped)``.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    half = context_window // 2
    valid: list[HeldOutItem] = []
    test: list[HeldOutItem] = []
    skipped = 0
    need = 2 * per_equation
    gids, bounds, cand_stream, cand_pos = _candidate_pools(streams, half)
    for gid, lo, hi in zip(gids, bounds, bounds[1:]):
        if hi - lo < need:
            skipped += 1
            continue
        chosen = rng.choice(hi - lo, size=need, replace=False)
        for rank, ci in enumerate(chosen):
            si, p = cand_stream[lo + ci], cand_pos[lo + ci]
            codes = streams[si].codes
            target = int(codes[p])
            nearby = [
                q
                for q in _window_word_positions(codes, p, half)
                if int(codes[q]) != target
            ]
            nearby.sort(key=lambda q: (abs(q - p), q))
            ctx_pos = sorted(nearby[: context_window - 1])
            context = [("word", int(codes[q])) for q in ctx_pos]
            context.append(("eq", gid))
            negatives = _draw_excluding(rng, n_words, n_negatives, target)
            item = HeldOutItem(
                target=target,
                context=context,
                negatives=negatives,
                split="validation" if rank < per_equation else "test",
                doc_id=streams[si].doc_id,
                position=p,
                eq_id=gid,
            )
            (valid if rank < per_equation else test).append(item)
    return valid, test, skipped


def _candidate_pools(streams: list[TokenStream], half: int):
    """Every equation's held-out candidates: the word positions within
    ``half`` of one of its occurrences, in its own document.

    Returns ``(gids, bounds, stream, position)``: equation ``gids[i]``
    (ascending; every equation the streams hold) owns candidates
    ``bounds[i]:bounds[i + 1]`` of the ``stream``/``position`` lists, a
    position near several occurrences once.  Read occurrence by occurrence
    in corpus order, each window in position order, a window adds only
    positions past the end of the window before it, so first-seen order is
    ascending corpus position: the order of the sorted keys.
    """
    if not streams:
        return [], [0], [], []
    lengths = np.array([len(s.codes) for s in streams], dtype=np.int64)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    codes = np.concatenate([s.codes for s in streams])
    at = np.flatnonzero(codes >= EQ_TAG)
    at = at[codes[at] != GAP]
    doc = np.searchsorted(ends, at, side="right")
    steps = np.r_[-half:0, 1 : half + 1]
    near = at[:, None] + steps
    inside = (near >= starts[doc, None]) & (near < ends[doc, None])
    inside &= codes[np.where(inside, near, 0)] < EQ_TAG
    at_gid = (codes[at] & ~EQ_TAG).astype(np.int64)
    rows, cols = np.nonzero(inside)
    # one key per (equation, corpus position): sorted keys group by equation
    key = np.unique(at_gid[rows] * len(codes) + near[rows, cols])
    cand_gid, cand = np.divmod(key, len(codes))
    gids = np.unique(at_gid)
    bounds = np.append(np.searchsorted(cand_gid, gids), len(cand_gid))
    cand_doc = np.searchsorted(ends, cand, side="right")
    return gids.tolist(), bounds.tolist(), cand_doc.tolist(), (cand - starts[cand_doc]).tolist()


def _draw_excluding(rng, n: int, size: int, exclude: int) -> list[int]:
    if n <= 1:
        return []
    out: list[int] = []
    while len(out) < size:
        draw = rng.integers(0, n, size=size - len(out))
        out.extend(int(d) for d in draw if int(d) != exclude)
    return out[:size]


def heldout_positions(items) -> dict[str, set[int]]:
    """(doc -> positions) excluded as training targets."""
    excl: dict[str, set[int]] = {}
    for it in items:
        excl.setdefault(it.doc_id, set()).add(it.position)
    return excl


# --- ingestion ----------------------------------------------------------------


# IngestParams fields that must be at least 1; every other count is >= 0.
_AT_LEAST_ONE = frozenset(
    {"workers", "heldout_per_equation", "heldout_window", "n_negatives", "symbol_window"}
)


@dataclass
class IngestParams:
    min_tf: int = 10
    min_len: int = 4
    top_stop: int = 25
    abbrev_top: int = 50
    unit_min_count: int = 1
    symbol_window: int = 1
    heldout_per_equation: int = 2
    heldout_window: int = 4
    n_negatives: int = 10
    singleton_sample: int = 0  # 0 keeps every singleton
    seed: int = 0
    workers: int = 1

    def validate(self):
        for f in fields(self):
            v = getattr(self, f.name)
            low = 1 if f.name in _AT_LEAST_ONE else 0
            if v < low:
                raise ValueError(f"{f.name} must be >= {low}, got {v}")
        return self


@dataclass
class CorpusData:
    """Everything the trainer needs, in memory."""

    word_vocab: Vocabulary
    registry: EquationRegistry
    streams: list[TokenStream]
    unit_vocab: Vocabulary | None
    eq_units: EquationUnits
    heldout_valid: list[HeldOutItem]
    heldout_test: list[HeldOutItem]
    params: IngestParams
    stats: dict

    @property
    def n_words(self) -> int:
        return len(self.word_vocab)

    @property
    def n_equations(self) -> int:
        return len(self.registry)


def _prepare_document(doc: RawDocument):
    """``(doc_id, pieces, slots, records, skipped)``: the word list of each
    prose piece and the local equation id of each slot between them."""
    from . import tex  # ingest only: keeps the LaTeX scanner off the query path

    pieces, records, skipped, slots = tex._extract(doc)
    return doc.doc_id, [tex.tokenize_words(p) for p in pieces], slots, records, skipped


def ingest_corpus(docs: list[RawDocument], params: IngestParams, stopwords=None) -> CorpusData:
    """Run the full corpus pipeline over parsed documents."""
    from . import slt  # ingest only: keeps the layout-tree tokenizer off the query path

    params.validate()
    ids = [d.doc_id for d in docs]
    if len(set(ids)) != len(ids):
        raise CorpusError("duplicate doc_id in corpus")
    if stopwords is None:
        stopwords = load_stopwords()

    if params.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # all of multiprocessing: import on use

        with ProcessPoolExecutor(max_workers=params.workers) as pool:
            prepared = list(pool.map(_prepare_document, docs, chunksize=8))
    else:
        prepared = [_prepare_document(d) for d in docs]
    prepared.sort(key=lambda r: r[0])
    regions_skipped = sum(r[4] for r in prepared)

    registry, doc_maps = build_equation_registry([(d, r) for d, _, _, r, _ in prepared])
    dropped_eqs = _sample_singletons(registry, params)

    word_vocab = build_word_vocabulary(
        (words for _, pieces, _, _, _ in prepared for words in pieces),
        stopwords,
        min_tf=params.min_tf,
        min_len=params.min_len,
        top_stop=params.top_stop,
        abbrev_top=params.abbrev_top,
    )
    if dropped_eqs:
        doc_maps, registry = _compact_registry(registry, doc_maps, dropped_eqs)
    streams = build_token_streams(
        [(d, pieces, slots) for d, pieces, slots, _, _ in prepared], word_vocab, doc_maps
    )

    sequences = {
        r.eq_id: slt.tokenize_equation(r.latex, symbol_window=params.symbol_window)
        for r in registry.records
    }
    unit_vocab, eq_units = None, EquationUnits([0], [])
    if sequences:
        unit_vocab, eq_units = slt.build_unit_vocabulary(sequences, min_count=params.unit_min_count)

    heldout_valid, heldout_test, heldout_skipped = build_heldout(
        streams,
        n_words=len(word_vocab),
        per_equation=params.heldout_per_equation,
        context_window=params.heldout_window,
        n_negatives=params.n_negatives,
        seed=params.seed,
    )
    stats = {
        "documents": len(docs),
        "words": len(word_vocab),
        "equations": len(registry),
        "units": 0 if unit_vocab is None else len(unit_vocab),
        "regions_skipped": regions_skipped,
        "heldout_skipped": heldout_skipped,
    }
    return CorpusData(
        word_vocab=word_vocab,
        registry=registry,
        streams=streams,
        unit_vocab=unit_vocab,
        eq_units=eq_units,
        heldout_valid=heldout_valid,
        heldout_test=heldout_test,
        params=params,
        stats=stats,
    )


def _sample_singletons(registry: EquationRegistry, params: IngestParams) -> set[int]:
    """Optionally keep only a random subset of singleton equations."""
    if params.singleton_sample <= 0:
        return set()
    singles = [r.eq_id for r in registry.records if r.occurrence_count == 1]
    if len(singles) <= params.singleton_sample:
        return set()
    rng = np.random.Generator(np.random.PCG64(params.seed))
    keep = set(
        int(singles[i])
        for i in rng.choice(len(singles), size=params.singleton_sample, replace=False)
    )
    return {e for e in singles if e not in keep}


def _compact_registry(registry, doc_maps, dropped: set[int]):
    """Renumber equation ids densely after dropping sampled-out singletons;
    a dropped equation's local ids map to None."""
    remap: dict[int, int] = {}
    new = EquationRegistry()
    for rec in registry.records:
        if rec.eq_id in dropped:
            continue
        remap[rec.eq_id] = new.add(rec.latex, rec.doc_id, rec.occurrence_count)
    new_maps = {
        d: {loc: remap.get(g) for loc, g in m.items()}
        for d, m in doc_maps.items()
    }
    return new_maps, new
