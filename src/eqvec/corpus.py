"""Corpus construction: vocabulary, equation registry, token streams, held-out sets.

Per-document work (extraction + tokenization) is pure and safe to fan out
to worker processes; everything order-sensitive is merged in doc_id order
so parallel and serial ingestion produce identical corpora.
"""

import logging
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from . import slt, tex
from .tex import EquationRecord, RawDocument

log = logging.getLogger(__name__)

# Stream item codes: plain word ids, equation ids with the high bit set,
# and an all-ones sentinel for out-of-vocabulary gap positions.
GAP = np.uint32(0xFFFFFFFF)
EQ_TAG = np.uint32(0x80000000)


def encode_equation(eq_id: int) -> int:
    return int(eq_id) | int(EQ_TAG)


def is_word(code) -> bool:
    return int(code) < int(EQ_TAG)


def equation_id(code) -> int:
    return int(code) & ~int(EQ_TAG)


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

    def id_of(self, form: str) -> int:
        return self.index[form]


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
        for t in toks:
            if not tex.is_placeholder(t):
                counts[t] += 1
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

    def id_for_latex(self, latex: str) -> int | None:
        return self._by_latex.get(tex.normalize_equation(latex))

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


def build_token_streams(doc_tokens, word_vocab: Vocabulary, doc_maps) -> list[TokenStream]:
    """Map token lists to streams of word/equation/gap codes.

    Every in-vocabulary word becomes its id, placeholders become tagged
    equation ids, everything else a gap that holds its position but never
    enters a context window.
    """
    streams = []
    for doc_id, tokens in doc_tokens:
        mapping = doc_maps.get(doc_id, {})
        codes = np.empty(len(tokens), dtype=np.uint32)
        for i, t in enumerate(tokens):
            if tex.is_placeholder(t):
                local = tex.placeholder_id(t)
                if local not in mapping:
                    raise CorpusError(f"{doc_id}: unknown equation placeholder {local}")
                codes[i] = encode_equation(mapping[local])
            else:
                wid = word_vocab.index.get(t)
                codes[i] = GAP if wid is None else wid
        streams.append(TokenStream(doc_id, codes))
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
    pools: dict[int, list[tuple[int, int]]] = {}
    seen: dict[int, set] = {}
    for si, stream in enumerate(streams):
        codes = stream.codes
        for p in np.flatnonzero((codes != GAP) & (codes >= EQ_TAG)):
            gid = equation_id(codes[p])
            pool = pools.setdefault(gid, [])
            taken = seen.setdefault(gid, set())
            for q in _window_word_positions(codes, int(p), half):
                if (si, q) not in taken:
                    taken.add((si, q))
                    pool.append((si, q))

    valid: list[HeldOutItem] = []
    test: list[HeldOutItem] = []
    skipped = 0
    need = 2 * per_equation
    for gid in sorted(pools):
        pool = pools[gid]
        if len(pool) < need:
            skipped += 1
            continue
        chosen = rng.choice(len(pool), size=need, replace=False)
        for rank, ci in enumerate(chosen):
            si, p = pool[int(ci)]
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


@dataclass
class CorpusData:
    """Everything the trainer needs, in memory."""

    word_vocab: Vocabulary
    registry: EquationRegistry
    streams: list[TokenStream]
    unit_vocab: Vocabulary | None
    eq_units: dict[int, np.ndarray]
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
    prose, records, skipped = tex._extract(doc)
    return doc.doc_id, tex.tokenize_words(prose), records, skipped


def ingest_corpus(docs: list[RawDocument], params: IngestParams, stopwords=None) -> CorpusData:
    """Run the full corpus pipeline over parsed documents."""
    ids = [d.doc_id for d in docs]
    if len(set(ids)) != len(ids):
        raise CorpusError("duplicate doc_id in corpus")
    if stopwords is None:
        stopwords = load_stopwords()

    if params.workers > 1:
        with ProcessPoolExecutor(max_workers=params.workers) as pool:
            prepared = list(pool.map(_prepare_document, docs, chunksize=8))
    else:
        prepared = [_prepare_document(d) for d in docs]
    prepared.sort(key=lambda r: r[0])
    regions_skipped = sum(r[3] for r in prepared)

    registry, doc_maps = build_equation_registry([(d, r) for d, _, r, _ in prepared])
    dropped_eqs = _sample_singletons(registry, params)

    doc_tokens = [(d, toks) for d, toks, _, _ in prepared]
    word_vocab = build_word_vocabulary(
        (toks for _, toks in doc_tokens),
        stopwords,
        min_tf=params.min_tf,
        min_len=params.min_len,
        top_stop=params.top_stop,
        abbrev_top=params.abbrev_top,
    )
    if dropped_eqs:
        doc_maps, registry = _compact_registry(registry, doc_maps, dropped_eqs)
    streams = _streams_with_gap_placeholders(doc_tokens, word_vocab, doc_maps)

    sequences = {
        r.eq_id: slt.tokenize_equation(r.latex, symbol_window=params.symbol_window)
        for r in registry.records
    }
    unit_vocab, eq_units = (None, {})
    if sequences:
        unit_vocab, eq_units = slt.build_unit_vocabulary(
            sequences, min_count=params.unit_min_count
        )

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


def _streams_with_gap_placeholders(doc_tokens, word_vocab, doc_maps):
    """Like build_token_streams but placeholders absent from the doc map
    (equations dropped by singleton sampling) become gaps."""
    streams = []
    for doc_id, tokens in doc_tokens:
        mapping = doc_maps.get(doc_id, {})
        codes = np.empty(len(tokens), dtype=np.uint32)
        for i, t in enumerate(tokens):
            if tex.is_placeholder(t):
                gid = mapping.get(tex.placeholder_id(t))
                codes[i] = GAP if gid is None else encode_equation(gid)
            else:
                wid = word_vocab.index.get(t)
                codes[i] = GAP if wid is None else wid
        streams.append(TokenStream(doc_id, codes))
    return streams


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
    """Renumber equation ids densely after dropping sampled-out singletons."""
    remap: dict[int, int] = {}
    new = EquationRegistry()
    for rec in registry.records:
        if rec.eq_id in dropped:
            continue
        remap[rec.eq_id] = new.add(rec.latex, rec.doc_id, rec.occurrence_count)
    new_maps = {
        d: {loc: remap[g] for loc, g in m.items() if g in remap}
        for d, m in doc_maps.items()
    }
    return new_maps, new
