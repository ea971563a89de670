"""Corpus construction: vocabulary, equation registry, token streams, held-out sets.

Documents are prepared in doc_id order, and each document's words become
int32 ids as soon as it is extracted and tokenized (``intern_prepared``),
so the corpus is never held as one string per word.  Preparing a batch of
documents is pure and safe to fan out to worker processes: each worker
prepares a contiguous chunk and sends back its ids and its own form
table, and ``merge_batches`` joins the chunks in doc_id order, so
parallel and serial ingestion produce identical corpora.  A batch holds
its equations as columns as well: each document's distinct LaTeX and
counts, found through a per-document offset.  The registry is then one
dict pass over that LaTeX (``register_equations``), singleton sampling
one remap of the global ids it gives, and the word counts the vocabulary
is selected from and the streams' codes array operations over the ids:
every slot's code is one gather.
"""

import functools
import logging
import operator
from array import array
from collections import defaultdict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from importlib import resources
from itertools import count
from typing import NamedTuple

import numpy as np

from .records import SLOT, EquationRecord, RawDocument

log = logging.getLogger(__name__)

# Stream item codes: plain word ids, equation ids with the high bit set,
# and an all-ones sentinel for out-of-vocabulary gap positions.
GAP = np.uint32(0xFFFFFFFF)
EQ_TAG = np.uint32(0x80000000)


def encode_equation(eq_id: int) -> int:
    return int(eq_id) | int(EQ_TAG)


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


@functools.cache
def load_stopwords() -> frozenset[str]:
    """The package's fixed stopword list, read once per process."""
    data = resources.files("eqvec").joinpath("stopwords.txt").read_text(encoding="utf-8")
    return frozenset(w.strip() for w in data.splitlines() if w.strip() and not w.startswith("#"))


def build_word_vocabulary(counts: Mapping[str, int], stopwords, params: "IngestParams") -> Vocabulary:
    """Word vocabulary under the frequency/length/stopword rules of
    ``params``, selected from ``counts``, each word form's number of
    occurrences in the corpus.

    After removing ``stopwords``, the ``params.top_stop`` most frequent
    remaining forms are dropped as corpus stop words.  Kept are forms with
    frequency >= ``params.min_tf`` and length >= ``params.min_len``, plus the
    ``params.abbrev_top`` most frequent 3-character forms as the
    abbreviation exception.  Ids are dense, ordered by descending frequency
    then form.
    """
    if not counts:
        raise CorpusError("empty corpus")
    dropped = set(stopwords)
    remaining = {f: c for f, c in counts.items() if f not in dropped}
    freq_stop = tuple(_by_rank(remaining, remaining)[: params.top_stop])
    for f in freq_stop:
        del remaining[f]

    kept = {f: c for f, c in remaining.items() if c >= params.min_tf and len(f) >= params.min_len}
    three = [f for f, c in remaining.items() if len(f) == 3 and c >= params.min_tf]
    for f in _by_rank(three, remaining)[: params.abbrev_top]:
        kept[f] = remaining[f]

    forms = _by_rank(kept, kept)
    return Vocabulary(
        kind="word",
        forms=forms,
        freqs=np.array([kept[f] for f in forms], dtype=np.int64),
        stop_forms=freq_stop,
    )


def _by_rank(forms, counts: Mapping[str, int]) -> list[str]:
    """``forms`` by descending count, then form: sorted by form, then by
    count alone, which a stable sort keeps in form order where counts tie."""
    ranked = sorted(forms)
    ranked.sort(key=counts.__getitem__, reverse=True)
    return ranked


# --- equation registry and token streams ---------------------------------------


class _Rows(Sequence):
    """A read-only sequence of rows built from columns on access: row i is
    ``self._row(i)``; an index past either end raises ``IndexError``."""

    def __getitem__(self, i):
        n, i = len(self), operator.index(i)
        if not -n <= i < n:
            raise IndexError(f"row {i} out of range ({n} rows)")
        return self._row(i % n)


class EquationRegistry(_Rows):
    """Corpus-wide equation table, deduplicated on normalized LaTeX: equation
    g is ``latex[g]``, which the corpus holds ``counts[g]`` times.  Row g is
    ``EquationRecord(g, latex[g], counts[g])``, built on access."""

    def __init__(self, latex=(), counts=()):
        self.latex = list(latex)
        self.counts = np.asarray(counts, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.latex)

    def _row(self, g: int) -> EquationRecord:
        return EquationRecord(g, self.latex[g], int(self.counts[g]))

    @property
    def records(self) -> "EquationRegistry":
        """The equations as ``EquationRecord`` rows: the registry itself."""
        return self


class TokenStream(NamedTuple):
    doc_id: str
    codes: np.ndarray  # uint32, see module head for the encoding


class TokenStreams(_Rows):
    """Every document's stream as columns: document i is ``doc_ids[i]`` and
    its codes are ``codes[ptr[i]:ptr[i + 1]]``.  Row i is
    ``TokenStream(doc_ids[i], view of codes)``, built on access."""

    def __init__(self, doc_ids=(), ptr=(0,), codes=()):
        self.doc_ids = list(doc_ids)
        self.ptr = np.asarray(ptr, dtype=np.int64)
        self.codes = np.asarray(codes, dtype=np.uint32)

    def __len__(self) -> int:
        return len(self.doc_ids)

    def _row(self, i: int) -> TokenStream:
        return TokenStream(self.doc_ids[i], self.codes[self.ptr[i] : self.ptr[i + 1]])


class EquationUnits(Mapping):
    """Every equation's unit ids: equation g's are ``ids[ptr[g]:ptr[g + 1]]``.
    A read-only mapping from every equation id 0..n-1 to a view of ``ids``;
    any other key raises ``KeyError``.  A negative id raises ``ValueError``."""

    def __init__(self, ptr, ids):
        self.ptr = np.asarray(ptr, dtype=np.int64)
        self.ids = np.asarray(ids, dtype=np.int64)
        if self.ids.min(initial=0) < 0:
            raise ValueError(f"unit id {self.ids.min()} is negative")

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def __iter__(self):
        return iter(range(len(self)))

    def __getitem__(self, eq_id) -> np.ndarray:
        if not isinstance(eq_id, (int, np.integer)) or not 0 <= eq_id < len(self):
            raise KeyError(eq_id)
        return self.ids[self.ptr[eq_id] : self.ptr[eq_id + 1]]


class PreparedBatch(NamedTuple):
    """Prepared documents in doc_id order, their words numbered.

    Position j of the batch holds the word ``forms[ids[j]]``, or an
    equation slot where ``ids[j]`` is 0 (``forms[0]`` is the slot token
    ``SLOT``, which no word is); the slots' document-local equation ids
    are ``slots``, in position order.  Document i is ``doc_ids[i]`` and
    spans ``ptr[i]:ptr[i + 1]``; its local equation e is row
    ``eq_ptr[i] + e`` of the equation columns, which document i holds
    ``eq_counts[row]`` times as ``eq_latex[row]``.
    A word form's id is the order of its first occurrence in the batch.
    ``skipped`` counts the regions extraction skipped.
    """

    doc_ids: list[str]
    ptr: np.ndarray  # int64
    ids: np.ndarray  # int32
    slots: np.ndarray  # int32
    eq_ptr: np.ndarray  # int64
    eq_latex: list[str]
    eq_counts: np.ndarray  # int64
    skipped: int
    forms: list[str]

    def counts(self) -> dict[str, int]:
        """Each word form's number of occurrences."""
        return dict(zip(self.forms[1:], np.bincount(self.ids, minlength=len(self.forms))[1:].tolist()))

    def encode(self, word_vocab: Vocabulary, gid: np.ndarray) -> TokenStreams:
        """The streams of word/equation/gap codes under ``word_vocab``, where
        equation row r is global equation ``gid[r]``, or none (-1, an
        equation dropped by singleton sampling).  A word out of the
        vocabulary and the slot of a dropped equation become gaps, which
        hold their position but never enter a context window.  A slot
        naming no equation of its document is an error."""
        index, gap = word_vocab.index, int(GAP)
        codes = np.array([index.get(f, gap) for f in self.forms], dtype=np.uint32)[self.ids]
        at = np.flatnonzero(self.ids == 0)
        doc = np.searchsorted(self.ptr, at, side="right") - 1
        stray = (self.slots < 0) | (self.slots >= np.diff(self.eq_ptr)[doc])
        if stray.any():
            i = int(np.argmax(stray))
            raise CorpusError(f"{self.doc_ids[doc[i]]}: equation slot {self.slots[i]} names no equation of the document")
        g = gid[self.eq_ptr[doc] + self.slots]
        codes[at] = np.where(g < 0, gap, g | int(EQ_TAG))
        return TokenStreams(self.doc_ids, self.ptr, codes)


# Words are numbered in runs of at least this many, one ``np.fromiter``
# per run: a call per document costs more than a short document's
# lookups, and a run holds a bounded number of strings.
_INTERN_RUN = 4096


def intern_prepared(prepared) -> PreparedBatch:
    """Number the words of prepared documents as they arrive.

    ``prepared`` yields ``(doc_id, words, slots, records, skipped)`` in
    doc_id order: a document's words with the slot token ``SLOT`` at
    each equation slot, the document-local equation id of each slot, in
    order, its distinct equations (record e is local equation e) and its
    skipped regions.  Only the distinct forms and the words of the last
    ``_INTERN_RUN`` or so positions are held as strings.
    """
    index = defaultdict(count(1).__next__, {SLOT: 0})  # id 0 marks a slot
    doc_ids, ptr, ids, words, slots, skipped = [], [0], [], [], [], 0
    eq_ptr, eq_latex, eq_counts = [0], [], []

    def number():
        ids.append(np.fromiter(map(index.__getitem__, words), dtype=np.int32, count=len(words)))
        words.clear()

    for doc_id, doc_words, doc_slots, doc_records, doc_skipped in prepared:
        words += doc_words
        doc_ids.append(doc_id)
        ptr.append(ptr[-1] + len(doc_words))
        slots += doc_slots
        eq_latex += (r.latex for r in doc_records)
        eq_counts += (r.occurrence_count for r in doc_records)
        eq_ptr.append(len(eq_latex))
        skipped += doc_skipped
        if len(words) >= _INTERN_RUN:
            number()
    number()
    return PreparedBatch(doc_ids, np.array(ptr, dtype=np.int64), np.concatenate(ids), np.array(slots, dtype=np.int32),
                         np.array(eq_ptr, dtype=np.int64), eq_latex, np.array(eq_counts, dtype=np.int64), skipped,
                         list(index))


def merge_batches(batches: list[PreparedBatch]) -> PreparedBatch:
    """One batch from consecutive batches, given in doc_id order: each
    batch's forms join one table in order of first occurrence, and its ids
    are remapped with one gather."""
    index, ids = {SLOT: 0}, []
    for b in batches:
        remap = np.fromiter((index.setdefault(f, len(index)) for f in b.forms), dtype=np.int32, count=len(b.forms))
        ids.append(remap[b.ids])

    def joined(ptrs):  # one offset column from the batches' own
        return np.concatenate(([0], np.cumsum(np.concatenate([np.diff(p) for p in ptrs]))))

    return PreparedBatch(
        [d for b in batches for d in b.doc_ids],
        joined([b.ptr for b in batches]),
        np.concatenate(ids),
        np.concatenate([b.slots for b in batches]),
        joined([b.eq_ptr for b in batches]),
        [latex for b in batches for latex in b.eq_latex],
        np.concatenate([b.eq_counts for b in batches]),
        sum(b.skipped for b in batches),
        list(index),
    )


# --- held-out sets ------------------------------------------------------------


class HeldOut:
    """One split's held-out items as columns.

    Item i is the word at ``position[i]`` of stream ``stream[i]`` (an index
    into the corpus's streams), sampled near equation ``eq_id[i]``.  Its
    context entries are ``ctx_id[ctx_ptr[i]:ctx_ptr[i + 1]]``, each an
    equation id where ``ctx_eq`` is set and a word id elsewhere, and it
    ranks the word ids ``cand[cand_ptr[i]:cand_ptr[i + 1]]``: its target,
    then its negatives.  ``==`` compares the split and every column.
    """

    COLUMNS = ("stream", "position", "eq_id", "ctx_ptr", "ctx_eq", "ctx_id", "cand_ptr", "cand")

    def __init__(self, split: str, stream=(), position=(), eq_id=(), ctx_ptr=(0,), ctx_eq=(), ctx_id=(),
                 cand_ptr=(0,), cand=()):
        self.split = split  # "validation" | "test"
        for name, column in zip(self.COLUMNS, (stream, position, eq_id, ctx_ptr, ctx_eq, ctx_id, cand_ptr, cand)):
            setattr(self, name, np.asarray(column, dtype=bool if name == "ctx_eq" else np.int64))

    def __len__(self) -> int:
        return len(self.cand_ptr) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, HeldOut) and self.split == other.split and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in self.COLUMNS)


def build_heldout(streams: TokenStreams, n_words: int, params: "IngestParams"):
    """Sample per-equation held-out words for validation and test, drawn
    from the raw PCG64 stream of ``params.seed`` (``draws.Draws``).

    For each equation, ``params.heldout_per_equation`` in-window word
    positions go to each split.  An item's context is the nearest
    ``params.heldout_window - 1`` in-vocabulary words around the target, in
    position order, plus the equation itself; ``params.n_negatives``
    negatives are drawn uniformly over the ``n_words`` word ids excluding
    the target.  Equations with fewer than ``2 * heldout_per_equation``
    candidate positions are skipped and counted.  The draws are those of
    ``np.random.Generator(PCG64(seed))``: per equation one ``choice`` of
    its positions, then per item ``integers(n_words, n_negatives)``, the
    draws of the target dropped and drawn again as one block until none
    is left.

    Returns ``(validation, test, n_skipped)``, the splits as ``HeldOut``.
    """
    from .draws import Draws  # ingest only: keeps the raw-stream draws off the query path

    per_equation, context_window = params.heldout_per_equation, params.heldout_window
    n_negatives = params.n_negatives if n_words > 1 else 0  # a one-word vocabulary has no other word
    half, need = context_window // 2, 2 * per_equation
    codes, ptr = streams.codes, streams.ptr
    gids, bounds, pool = _candidate_pools(codes, ptr, half)
    sizes = np.diff(bounds)
    drawn = sizes >= need
    # One pass over the items, drawn in turn: an equation's positions, then
    # each position's negatives, where a draw of its own word is drawn again.
    draws, words = Draws(params.seed), codes[pool].tolist()
    picked, negatives = [], array("q")
    for lo, n in zip(bounds[:-1][drawn].tolist(), sizes[drawn].tolist()):
        for ci in draws.choice(n, need):
            picked.append(lo + ci)
            row = draws.integers(n_words, n_negatives)
            while words[lo + ci] in row:
                row = [w for w in row if w != words[lo + ci]]
                row += draws.integers(n_words, n_negatives - len(row))
            negatives.extend(row)
    at, eqs = pool[picked], np.repeat(gids[drawn], need)
    doc = np.searchsorted(ptr, at, side="right") - 1
    target = codes[at].astype(np.int64)
    # the nearest words of the target's document other than the target word,
    # the nearer first and, at equal distance, the earlier
    steps = np.ravel(np.column_stack((-np.arange(1, half + 1), np.arange(1, half + 1))))  # -1, 1, -2, 2, ...
    near = at[:, None] + steps
    word = (near >= ptr[doc, None]) & (near < ptr[doc + 1, None])
    got = codes[np.where(word, near, 0)].astype(np.int64)
    word &= (got < EQ_TAG) & (got != target[:, None])
    word &= np.cumsum(word, axis=1) < context_window
    # a context: the words in position order, then the equation
    keep = np.column_stack((word[:, np.argsort(steps)], np.ones(len(at), dtype=bool)))
    ids = np.column_stack((got[:, np.argsort(steps)], eqs))
    is_eq = np.zeros_like(keep)
    is_eq[:, -1] = True
    cand = np.column_stack((target, np.frombuffer(negatives, dtype=np.int64).reshape(len(at), n_negatives)))
    first = np.arange(len(at)) % need < per_equation  # an equation's first draws validate, the rest test
    valid, test = (
        HeldOut(split, doc[r], at[r] - ptr[doc[r]], eqs[r], np.r_[0, np.cumsum(keep[r].sum(axis=1))],
                is_eq[r][keep[r]], ids[r][keep[r]], np.arange(r.sum() + 1) * cand.shape[1], cand[r].ravel())
        for split, r in (("validation", first), ("test", ~first))
    )
    return valid, test, int(np.count_nonzero(~drawn))


def _candidate_pools(codes: np.ndarray, ptr: np.ndarray, half: int):
    """Every equation's held-out candidates: the word positions within
    ``half`` of one of its occurrences, in its own document, over the
    streams' codes (stream i spans ``ptr[i]:ptr[i + 1]``).

    Returns ``(gids, bounds, positions)``: equation ``gids[i]`` (ascending;
    every equation the streams hold) owns the corpus positions
    ``positions[bounds[i]:bounds[i + 1]]``, a position near several
    occurrences once.  Read occurrence by occurrence in corpus order, each
    window in position order, a window adds only positions past the end of
    the window before it, so first-seen order is ascending corpus position:
    the order of the sorted keys.
    """
    at = np.flatnonzero(codes >= EQ_TAG)
    at = at[codes[at] != GAP]
    doc = np.searchsorted(ptr, at, side="right") - 1
    steps = np.r_[-half:0, 1 : half + 1]
    near = at[:, None] + steps
    inside = (near >= ptr[doc, None]) & (near < ptr[doc + 1, None])
    inside &= codes[np.where(inside, near, 0)] < EQ_TAG
    at_gid = (codes[at] & ~EQ_TAG).astype(np.int64)
    rows, cols = np.nonzero(inside)
    # one key per (equation, corpus position): sorted keys group by equation
    key = _distinct(at_gid[rows] * max(len(codes), 1) + near[rows, cols])
    cand_gid, cand = np.divmod(key, max(len(codes), 1))
    gids = _distinct(at_gid)
    return gids, np.append(np.searchsorted(cand_gid, gids), len(cand_gid)), cand


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a``, ascending, by one sort: numpy 2's
    ``np.unique`` hashes first and takes about 40 times as long on 1.7M
    int64 keys."""
    a = np.sort(a)
    first = np.ones(len(a), dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


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
        for name, low in _INGEST_BOUNDS:
            v = getattr(self, name)
            if not isinstance(v, int) or v < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")
        return self


# each IngestParams field and its least value, looked up once
_INGEST_BOUNDS = tuple((f.name, 1 if f.name in _AT_LEAST_ONE else 0) for f in fields(IngestParams))


@dataclass
class CorpusData:
    """Everything the trainer needs, in memory."""

    word_vocab: Vocabulary
    registry: EquationRegistry
    streams: TokenStreams
    unit_vocab: Vocabulary
    eq_units: EquationUnits
    heldout_valid: HeldOut
    heldout_test: HeldOut
    params: IngestParams
    stats: dict

    @property
    def n_words(self) -> int:
        return len(self.word_vocab)

    @property
    def n_equations(self) -> int:
        return len(self.registry)


def _prepare_document(doc: RawDocument):
    """``(doc_id, words, slots, records, skipped)``: the document's words,
    a slot token at each display-math region, and the local equation id
    of each slot."""
    from . import tex  # ingest only: keeps the LaTeX scanner off the query path

    pieces, records, skipped, slots = tex._extract(doc)
    return doc.doc_id, tex.tokenize_words(*pieces), slots, records, skipped


def _prepare_batch(docs: list[RawDocument]) -> PreparedBatch:
    """Extract, tokenize and number the words of ``docs``, in their order."""
    return intern_prepared(map(_prepare_document, docs))


# Contiguous chunks per ingest worker, so that documents of uneven length
# even out across workers.
_CHUNKS_PER_WORKER = 4


def ingest_corpus(docs: list[RawDocument], params: IngestParams, stopwords=None) -> CorpusData:
    """Run the full corpus pipeline over parsed documents."""
    from . import slt  # ingest only: keeps the layout-tree tokenizer off the query path

    params.validate()
    ids = [d.doc_id for d in docs]
    if len(set(ids)) != len(ids):
        raise CorpusError("duplicate doc_id in corpus")
    if stopwords is None:
        stopwords = load_stopwords()

    docs = sorted(docs, key=lambda d: d.doc_id)
    if params.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # all of multiprocessing: import on use

        n = max(1, min(len(docs), _CHUNKS_PER_WORKER * params.workers))
        bounds = [len(docs) * i // n for i in range(n + 1)]
        with ProcessPoolExecutor(max_workers=params.workers) as pool:
            batch = merge_batches(list(pool.map(_prepare_batch, [docs[a:b] for a, b in zip(bounds, bounds[1:])])))
    else:
        batch = _prepare_batch(docs)

    registry, gid = register_equations(batch, params)
    word_vocab = build_word_vocabulary(batch.counts(), stopwords, params)
    streams = batch.encode(word_vocab, gid)

    sequences = [slt.tokenize_equation(latex, symbol_window=params.symbol_window) for latex in registry.latex]
    unit_vocab, eq_units = slt.build_unit_vocabulary(sequences, min_count=params.unit_min_count)

    heldout_valid, heldout_test, heldout_skipped = build_heldout(streams, len(word_vocab), params)
    stats = {
        "documents": len(docs),
        "words": len(word_vocab),
        "equations": len(registry),
        "units": len(unit_vocab),
        "regions_skipped": batch.skipped,
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


def register_equations(batch: PreparedBatch, params: IngestParams) -> tuple[EquationRegistry, np.ndarray]:
    """``(registry, gid)``: the corpus-wide registry of the batch's
    equations, numbered in order of first occurrence, and the id of each
    equation row in it.  When only a random ``singleton_sample`` of the
    singletons is kept, the kept equations are renumbered densely in id
    order and a dropped one's rows get -1."""
    index = {}  # LaTeX -> id
    gid = np.fromiter((index.setdefault(latex, len(index)) for latex in batch.eq_latex), dtype=np.int64,
                      count=len(batch.eq_latex))
    registry = EquationRegistry(index, np.bincount(gid, batch.eq_counts, len(index)).astype(np.int64))
    singles = np.flatnonzero(registry.counts == 1)
    if params.singleton_sample <= 0 or len(singles) <= params.singleton_sample:
        return registry, gid
    from .draws import Draws  # ingest only: keeps the raw-stream draws off the query path

    keep = registry.counts != 1
    keep[singles[Draws(params.seed).choice(len(singles), params.singleton_sample)]] = True
    remap = np.where(keep, np.cumsum(keep) - 1, -1)
    return EquationRegistry([registry.latex[g] for g in np.flatnonzero(keep)], registry.counts[keep]), remap[gid]
