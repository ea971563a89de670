"""Reference corpus builders, kept as test oracles:

* ``build_heldout`` with each equation's candidate pool built by a loop
  over its occurrences.  It walks every equation position of every stream
  and, per position, every word position of its window, deduplicating per
  equation in first-seen order, and builds every item's context by a loop
  over its window, drawing each equation's positions and each item's
  negatives through ``np.random.Generator``.  ``eqvec.corpus.build_heldout``
  builds the same pools and contexts with array operations, draws from
  the raw PCG64 stream (``eqvec.draws``), and must return equal items (as
  ``conftest.Item`` records) and skip counts.
* The equation registry as one ``EquationRecord`` per equation, grown by
  ``Registry.add`` through a LaTeX -> id dict, with one document map per
  document (local equation id -> global id); singleton sampling as sets
  of ids, drawn through ``np.random.Generator``, and compaction by re-adding the kept records and rebuilding
  every document map.
* ``build_token_streams`` with one ``TokenStream`` and one array per
  document, one vocabulary lookup per word and one document-map lookup
  per equation slot.
* ``intern_words``, which numbers the words of all prepared documents in
  one pass once the document maps are known, holding every word of the
  corpus as a string until it returns, and codes each slot through its
  document's map.

``eqvec.corpus`` numbers each document's words as it is prepared
(``intern_prepared``), in consecutive batches that ``merge_batches``
joins, keeps the equations as columns with a per-document offset, builds
the registry with one dict pass and compacts it with one remap array
(``register_equations``), and codes every slot with one gather
(``PreparedBatch.encode``).  It must give equal LaTeX, counts, doc ids
and codes, each document's local equations the global ids of the
document maps, and a slot naming no equation of its document the same
``CorpusError``; the word counts must equal a ``Counter`` over the words,
and the forms, counts and codes those of ``intern_words``.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import count
from typing import NamedTuple

import numpy as np

from eqvec.corpus import (
    EQ_TAG,
    GAP,
    CorpusError,
    TokenStream,
    TokenStreams,
    encode_equation,
)
from eqvec.records import EquationRecord

from .conftest import Item


def equation_id(code) -> int:
    return int(code) & ~int(EQ_TAG)


def _window_word_positions(codes: np.ndarray, p: int, half: int):
    lo, hi = max(0, p - half), min(len(codes), p + half + 1)
    return [q for q in range(lo, hi) if q != p and int(codes[q]) < int(EQ_TAG)]


def _draw_excluding(rng, n: int, size: int, exclude: int) -> list[int]:
    """``size`` draws from [0, n) other than ``exclude``, by ``Generator``
    blocks of the draws still missing; none from a one-word vocabulary."""
    if n <= 1:
        return []
    out: list[int] = []
    while len(out) < size:
        draw = rng.integers(0, n, size=size - len(out))
        out.extend(int(d) for d in draw if int(d) != exclude)
    return out[:size]


def build_heldout(
    streams,
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

    valid: list[Item] = []
    test: list[Item] = []
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
            item = Item(target, context, negatives, si, p, gid)
            (valid if rank < per_equation else test).append(item)
    return valid, test, skipped


# --- equation registry and token streams ---------------------------------------


@dataclass
class Registry:
    records: list[EquationRecord] = field(default_factory=list)
    by_latex: dict[str, int] = field(default_factory=dict)

    def add(self, latex: str, count: int = 1) -> int:
        eq_id = self.by_latex.get(latex)
        if eq_id is None:
            eq_id = len(self.records)
            self.by_latex[latex] = eq_id
            self.records.append(EquationRecord(eq_id, latex, 0))
        self.records[eq_id].occurrence_count += count
        return eq_id


def build_equation_registry(doc_records):
    """``(registry, doc_maps)`` from per-document records, merged in doc_id order."""
    registry = Registry()
    doc_maps: dict[str, dict[int, int]] = {}
    for doc_id, records in sorted(doc_records, key=lambda p: p[0]):
        doc_maps[doc_id] = {rec.eq_id: registry.add(rec.latex, rec.occurrence_count) for rec in records}
    return registry, doc_maps


def sample_singletons(registry: Registry, singleton_sample: int, seed: int) -> set[int]:
    """The singleton equations dropped when only ``singleton_sample`` of them stay."""
    if singleton_sample <= 0:
        return set()
    singles = [r.eq_id for r in registry.records if r.occurrence_count == 1]
    if len(singles) <= singleton_sample:
        return set()
    rng = np.random.Generator(np.random.PCG64(seed))
    keep = {int(singles[i]) for i in rng.choice(len(singles), size=singleton_sample, replace=False)}
    return {e for e in singles if e not in keep}


def compact_registry(registry: Registry, doc_maps, dropped: set[int]):
    """Renumber equation ids densely after dropping ``dropped``; a dropped
    equation's local ids map to None."""
    remap: dict[int, int] = {}
    new = Registry()
    for rec in registry.records:
        if rec.eq_id not in dropped:
            remap[rec.eq_id] = new.add(rec.latex, rec.occurrence_count)
    return {d: {loc: remap.get(g) for loc, g in m.items()} for d, m in doc_maps.items()}, new


def build_token_streams(doc_tokens, word_vocab, doc_maps) -> list[TokenStream]:
    """One ``TokenStream`` per document, each with its own code array."""
    gap = int(GAP)
    streams = []
    for doc_id, pieces, slots in doc_tokens:
        mapping = doc_maps.get(doc_id, {})
        codes = [word_vocab.index.get(w, gap) for w in pieces[0]]
        for local, words in zip(slots, pieces[1:], strict=True):
            if local not in mapping:
                raise CorpusError(f"{doc_id}: equation slot {local} names no equation of the document")
            gid = mapping[local]
            codes.append(gap if gid is None else encode_equation(gid))
            codes += [word_vocab.index.get(w, gap) for w in words]
        streams.append(TokenStream(doc_id, np.array(codes, dtype=np.uint32)))
    return streams


class InternedWords(NamedTuple):
    """Every document's stream before the word vocabulary is known.

    Position j of the corpus holds the word ``forms[prov[j]]``, or an
    equation slot where ``prov[j]`` is 0 (``forms[0]`` is "", which no word
    is); the slots' codes are ``slot_codes``, in position order.  Document i
    is ``doc_ids[i]`` and spans ``ptr[i]:ptr[i + 1]``.
    """

    forms: list[str]
    prov: np.ndarray  # int32 provisional word ids
    doc_ids: list[str]
    ptr: list[int]
    slot_codes: list[int]

    def counts(self) -> dict[str, int]:
        """Each word form's number of occurrences."""
        return dict(zip(self.forms[1:], np.bincount(self.prov, minlength=len(self.forms))[1:].tolist()))

    def encode(self, word_vocab) -> TokenStreams:
        """The streams of word/equation/gap codes under ``word_vocab``."""
        index, gap = word_vocab.index, int(GAP)
        remap = np.array([index.get(f, gap) for f in self.forms], dtype=np.uint32)
        codes = remap[self.prov]
        codes[self.prov == 0] = self.slot_codes
        return TokenStreams(self.doc_ids, self.ptr, codes)


def intern_words(doc_tokens, doc_maps) -> InternedWords:
    """Number the word forms of prepared documents in one pass over their words.

    ``doc_tokens`` holds ``(doc_id, pieces, slots)``: the word lists of a
    document's prose pieces and, between consecutive pieces, the
    document-local id of the equation in that slot.  A word form's id is
    the order of its first occurrence.  A slot's code is its tagged global
    equation id, or a gap when ``doc_maps`` maps it to None (an equation
    dropped by singleton sampling); a slot naming no equation of its
    document is an error.
    """
    ids = defaultdict(count(1).__next__, {"": 0})  # id 0 marks a slot
    gap = int(GAP)
    words, slot_codes, doc_ids, ptr = [], [], [], [0]
    for doc_id, pieces, slots in doc_tokens:
        mapping = doc_maps.get(doc_id, {})
        words += pieces[0]
        for local, piece in zip(slots, pieces[1:], strict=True):
            if local not in mapping:
                raise CorpusError(f"{doc_id}: equation slot {local} names no equation of the document")
            gid = mapping[local]
            slot_codes.append(gap if gid is None else encode_equation(gid))
            words.append("")
            words += piece
        doc_ids.append(doc_id)
        ptr.append(len(words))
    prov = np.fromiter(map(ids.__getitem__, words), dtype=np.int32, count=len(words))
    return InternedWords(list(ids), prov, doc_ids, ptr, slot_codes)
