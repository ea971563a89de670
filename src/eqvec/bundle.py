"""Corpus bundle directory: the on-disk handoff between ingestion and training.

Layout (every file opens with a one-line format/version header):

    manifest.json        ingestion parameters, counts, format version
    vocab.bin            the word forms, then counts[n]: each form's frequency
    equations.bin        the equations' LaTeX, then counts[n]: each
                         equation's occurrence count
    units.bin            the unit strings, then counts[n]: each unit's frequency
    streams.bin          the document ids, then lengths[n], then every
                         document's codes, back to back
    eq_units.bin         equation count n, lengths[n], then every equation's
                         unit ids (int32); equation g is row g.  Writers
                         store no -1; the reader drops those older writers
                         left for units below unit_min_count
    heldout.valid.bin    item count n, the columns stream[n], position[n] and
    heldout.test.bin     eq_id[n], then the context rows (lengths[n], then
                         codes as streams.bin encodes them), then the
                         candidate rows (lengths[n], then word ids, each
                         row's target first)

A string column (the forms, LaTeX strings, unit strings and document ids)
is its row count n, the byte size B of its block, then B bytes of
newline-separated UTF-8 strings; row i is id i.  Counts in the three
string tables are little-endian uint64; the other counts, lengths, codes
and ids are little-endian uint32 unless marked.  Bundles are written to a
temp directory and renamed into place.

Each file has one reader.  ``load_bundle`` runs all of them;
``load_query_files`` runs only those a similarity query needs (manifest,
vocab.bin, equations.bin, eq_units.bin).  A bundle of another format
version, a file that runs short of or past what its sizes imply, a string
block that is not UTF-8, holds an empty string or another number of
strings than its count, a table that disagrees with a count the manifest
or equations.bin records, holds an id out of range, a form, LaTeX string
or document id twice, a frequency or occurrence count below 1 or past
int64, or a held-out item without a target or whose document does not
hold its target at its position raises ``BundleFormatError``, and the CLI
exits 3.

Each file is read into the columns of its corpus table: a string block is
decoded and split in one call each, and a binary column (counts, or
lengths and payload) is read as one array, so the calls a reader makes do
not grow with the number of records.
"""

import json
import os
import shutil
import tempfile
from dataclasses import asdict
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .corpus import (
    EQ_TAG,
    GAP,
    CorpusData,
    EquationRegistry,
    EquationUnits,
    HeldOut,
    IngestParams,
    TokenStreams,
    Vocabulary,
)
from .records import doc_id_problem

BUNDLE_VERSION = 4
_H_VOCAB = b"# eqvec-vocab 2\n"
_H_EQS = b"# eqvec-equations 2\n"
_H_UNITS = b"# eqvec-units 2\n"
_H_STREAMS = b"# eqvec-streams 2\n"
_H_EQUNITS = b"# eqvec-equnits 2\n"
_H_HELDOUT = b"# eqvec-heldout 2\n"


class BundleFormatError(ValueError):
    pass


def save_bundle(data: CorpusData, path: str) -> str:
    """Write the bundle atomically: temp dir next to the target, then rename.

    An existing target is replaced only if it is an empty directory or a
    bundle; anything else raises ``FileExistsError`` before any write.  So
    does a document id the layout cannot hold, as ``BundleFormatError``.  A
    value its fields cannot hold (a negative id, one past the field's width,
    or an empty string or one holding a newline) raises ``BundleFormatError``
    during the write, which leaves any existing target as it was."""
    path = os.path.abspath(path)
    problem = next(filter(None, map(doc_id_problem, data.streams.doc_ids)), None)
    if problem:
        raise BundleFormatError(f"cannot save bundle {path}: {problem}")
    if os.path.lexists(path) and not _replaceable(path):
        raise FileExistsError(f"refusing to replace {path}: not an empty directory or an eqvec bundle")
    parent = os.path.dirname(path) or "."
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".bundle-", dir=parent)
    try:
        _write_files(data, tmp)
        if os.path.exists(path):
            shutil.rmtree(path)
        os.replace(tmp, path)
    except Exception:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return path


def _replaceable(path: str) -> bool:
    if os.path.islink(path) or not os.path.isdir(path):
        return False
    if not os.listdir(path):
        return True
    try:
        with open(os.path.join(path, "manifest.json"), "rb") as f:
            return json.load(f).get("format") == "eqvec-bundle"
    except (OSError, ValueError, AttributeError):
        return False


def _write_files(data: CorpusData, root: str):
    params = asdict(data.params)
    params.pop("workers")  # execution detail, not part of the corpus identity
    manifest = {
        "format": "eqvec-bundle",
        "version": BUNDLE_VERSION,
        "params": params,
        "stats": data.stats,
        "word_stop_forms": list(data.word_vocab.stop_forms),
    }
    with open(os.path.join(root, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")

    for name, header, strings, counts in (
        ("vocab.bin", _H_VOCAB, data.word_vocab.forms, data.word_vocab.freqs),
        ("equations.bin", _H_EQS, data.registry.latex, data.registry.counts),
        ("units.bin", _H_UNITS, data.unit_vocab.forms, data.unit_vocab.freqs),
    ):
        with open(os.path.join(root, name), "wb") as f:
            f.write(header + _strings(strings) + _packed(counts, "<u8"))

    streams, eq_units = data.streams, data.eq_units
    with open(os.path.join(root, "streams.bin"), "wb") as f:
        f.write(_H_STREAMS + _strings(streams.doc_ids))
        f.write(_packed(np.diff(streams.ptr)) + _packed(streams.codes))
    with open(os.path.join(root, "eq_units.bin"), "wb") as f:
        f.write(_H_EQUNITS + _packed([len(eq_units)]) + _packed(np.diff(eq_units.ptr)))
        f.write(_packed(eq_units.ids, "<i4"))

    for split, held in (("valid", data.heldout_valid), ("test", data.heldout_test)):
        with open(os.path.join(root, f"heldout.{split}.bin"), "wb") as f:
            f.write(_H_HELDOUT + b"".join(map(_packed, ([len(held)], held.stream, held.position, held.eq_id))))
            ctx_codes = np.where(held.ctx_eq, held.ctx_id | int(EQ_TAG), held.ctx_id)
            f.write(b"".join(map(_packed, (np.diff(held.ctx_ptr), ctx_codes, np.diff(held.cand_ptr), held.cand))))


def _packed(values, dtype: str = "<u4") -> bytes:
    """``values`` as little-endian ``dtype`` bytes; a value the type cannot
    hold raises ``BundleFormatError`` instead of being written wrapped."""
    values, bounds = np.asarray(values), np.iinfo(dtype)
    if values.size and (values.min() < bounds.min or values.max() > bounds.max):
        bad = values[(values < bounds.min) | (values > bounds.max)][0]
        raise BundleFormatError(f"value {bad} is out of range of a {bounds.dtype} field")
    return values.astype(dtype).tobytes()


def _strings(strings: list[str]) -> bytes:
    """A string column: u32 n, u32 byte size B, then ``strings`` as B bytes
    of newline-separated UTF-8.  A string the block cannot hold (empty,
    holding a newline, or not UTF-8) raises ``BundleFormatError``."""
    text = "\n".join(strings)
    if "" in strings or text.count("\n") > max(len(strings) - 1, 0):
        bad = next(s for s in strings if not s or "\n" in s)
        raise BundleFormatError(f"cannot store the string {bad!r}: a bundle string is non-empty and has no newline")
    try:
        block = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise BundleFormatError(f"cannot store a string as UTF-8: {exc}") from None
    return _packed([len(strings), len(block)]) + block


# --- loading -------------------------------------------------------------------
# One reader per file.  Every reader turns a file that is cut short or does
# not parse into a BundleFormatError.


class QueryFiles(NamedTuple):
    """The bundle files a similarity query reads."""

    manifest: dict
    word_vocab: Vocabulary
    registry: EquationRegistry
    eq_units: EquationUnits


def load_query_files(path: str) -> QueryFiles:
    """The manifest, word vocabulary, equation registry and ``eq_units`` of a
    bundle: what ``eqvec query`` reads, without the streams, units and
    held-out files it never uses."""
    manifest = _read_manifest(path)
    stats = manifest["stats"]
    stop_forms = manifest.get("word_stop_forms", [])
    if not isinstance(stop_forms, list) or not all(map(isinstance, stop_forms, repeat(str))):
        raise BundleFormatError(f"manifest of bundle {path}: word_stop_forms is not a list of strings")
    word_vocab = _read_vocab(os.path.join(path, "vocab.bin"), _H_VOCAB, "word", stats.get("words"))
    word_vocab.stop_forms = tuple(stop_forms)
    equations = os.path.join(path, "equations.bin")
    latex, counts = _read_table(equations, _H_EQS, stats.get("equations"))
    _check_unique(equations, "LaTeX", latex, len(set(latex)))
    registry = EquationRegistry(latex, counts)
    eq_units = _read_eq_units(os.path.join(path, "eq_units.bin"), len(registry))
    return QueryFiles(manifest, word_vocab, registry, eq_units)


def load_bundle(path: str) -> CorpusData:
    """Every file of a bundle: the corpus as training and evaluation need it."""
    query = load_query_files(path)
    manifest = query.manifest
    try:
        params = IngestParams(**manifest["params"]).validate()
    except (TypeError, ValueError) as exc:  # a key IngestParams does not have, or a bad value
        raise BundleFormatError(f"manifest of bundle {path}: {exc}") from None
    unit_vocab = _read_vocab(os.path.join(path, "units.bin"), _H_UNITS, "unit", manifest["stats"].get("units"))
    _check_ids(os.path.join(path, "eq_units.bin"), "unit", query.eq_units.ids, len(unit_vocab))
    sizes = (len(query.word_vocab), len(query.registry))
    streams = _read_streams(os.path.join(path, "streams.bin"), *sizes)
    return CorpusData(
        word_vocab=query.word_vocab,
        registry=query.registry,
        streams=streams,
        unit_vocab=unit_vocab,
        eq_units=query.eq_units,
        heldout_valid=_read_heldout(os.path.join(path, "heldout.valid.bin"), "validation", streams, *sizes),
        heldout_test=_read_heldout(os.path.join(path, "heldout.test.bin"), "test", streams, *sizes),
        params=params,
        stats=manifest["stats"],
    )


def _check_ids(path: str, kind: str, ids, n: int):
    """Every id in ``ids`` must name one of the ``n`` objects of its kind."""
    ids = np.asarray(ids)  # Python ints past int64 make an object array
    bad = ids[(ids < 0) | (ids >= n)]
    if bad.size:
        raise BundleFormatError(f"{path}: {kind} id {bad[0]} out of range (the bundle has {n})")


def _read_manifest(path: str) -> dict:
    if not os.path.isdir(path):
        raise FileNotFoundError(f"bundle not found: {path}")  # an OSError: the CLI exits 2
    try:
        with open(os.path.join(path, "manifest.json"), "rb", buffering=0) as f:
            manifest = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BundleFormatError(f"corrupt manifest in bundle {path}: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("format") != "eqvec-bundle":
        raise BundleFormatError(f"not an eqvec bundle: {path}")
    if manifest.get("version") != BUNDLE_VERSION:
        raise BundleFormatError(f"bundle {path} has format version {manifest.get('version')!r}, this eqvec reads "
                                f"{BUNDLE_VERSION}: re-run `eqvec ingest` to rebuild it")
    if not isinstance(manifest.get("params"), dict) or not isinstance(manifest.get("stats"), dict):
        raise BundleFormatError(f"manifest of bundle {path} lacks params or stats")
    return manifest


def _read_table(path: str, header: bytes, count: int | None = None) -> tuple[list[str], np.ndarray]:
    """A string table: its strings and its u64 counts column, read as
    int64.  ``count``, when given, is the row count the manifest recorded."""
    raw = _read_binary(path, header)
    strings, at = _read_strings(path, raw, len(header))
    n = len(strings)
    if len(raw) < at + 8 * n:
        raise BundleFormatError(f"truncated bundle file {path}: {n} counts past the end")
    _check_end(path, raw, at + 8 * n)
    if count is not None and n != count:
        raise BundleFormatError(f"{path} has {n} rows, the manifest records {count}")
    counts = np.frombuffer(raw, dtype="<i8", count=n, offset=at)
    if counts.min(initial=1) < 1:  # a count past int64 reads as negative
        wide = np.frombuffer(raw, dtype="<u8", count=n, offset=at)
        if wide.max() > np.iinfo(np.int64).max:
            raise BundleFormatError(f"{path}: count {wide.max()} past int64")
        raise BundleFormatError(f"{path}: count {counts.min()} below 1")
    return strings, counts.copy()  # a copy: a view would keep the whole file alive


def _read_vocab(path: str, header: bytes, kind: str, count: int | None = None) -> Vocabulary:
    forms, freqs = _read_table(path, header, count)
    vocab = Vocabulary(kind=kind, forms=forms, freqs=freqs)
    _check_unique(path, "form", forms, len(vocab.index))
    return vocab


def _check_unique(path: str, what: str, rows: list[str], distinct: int, row: str = "row"):
    """``distinct`` is the number of distinct values among ``rows``."""
    if distinct != len(rows):
        seen = set()
        repeated = next(r for r in rows if r in seen or seen.add(r))
        raise BundleFormatError(f"{path}: {what} {repeated!r} is in more than one {row}")


_CHECK_BLOCK = 1 << 16  # stream codes range-checked at a time


def _read_binary(path: str, header: bytes) -> bytes:
    with open(path, "rb", buffering=0) as f:  # read whole: a buffer would only copy
        raw = f.read()
    if not raw.startswith(header):
        raise BundleFormatError(f"bad file header in bundle {path}: {raw[: len(header)]!r}")
    return raw


def _read_strings(path: str, raw: bytes, at: int) -> tuple[list[str], int]:
    """The string column that starts at byte ``at``, decoded and split in
    one call each, and the byte after its block."""
    if len(raw) < at + 8:
        raise BundleFormatError(f"truncated bundle file {path}: a string block past the end")
    n, size = (int.from_bytes(raw[i : i + 4], "little") for i in (at, at + 4))
    at += 8
    if len(raw) < at + size:
        raise BundleFormatError(f"truncated bundle file {path}: its strings need {at + size} bytes, it has {len(raw)}")
    try:
        text = raw[at : at + size].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BundleFormatError(f"corrupt bundle file {path}: {exc}") from None
    strings = text.split("\n") if text else []
    if len(strings) != n:
        raise BundleFormatError(f"corrupt bundle file {path}: {len(strings)} strings, {n} rows")
    if "" in strings:
        raise BundleFormatError(f"corrupt bundle file {path}: an empty string")
    return strings, at + size


def _rows(path: str, raw: bytes, at: int, n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """``(ptr, payload, end)`` of ``n`` rows stored from byte ``at`` on
    (which lies past the end of a file cut short) as u32 ``lengths[n]``,
    then the rows' 4-byte items, up to byte ``end``.  One ``frombuffer``
    reads both; the payload is a read-only ``<u4`` view of the file."""
    if len(raw) < at + 4 * n:
        raise BundleFormatError(f"truncated bundle file {path}: {n} row lengths past the end")
    words = np.frombuffer(raw, dtype="<u4", count=(len(raw) - at) // 4, offset=at)
    ptr = np.concatenate(([0], np.cumsum(words[:n], dtype=np.int64)))
    end = at + 4 * (n + int(ptr[-1]))
    if len(raw) < end:
        raise BundleFormatError(f"truncated bundle file {path}: its rows need {end} bytes, it has {len(raw)}")
    return ptr, words[n : n + int(ptr[-1])], end


def _check_end(path: str, raw: bytes, end: int):
    """The file's last row must end it."""
    if len(raw) > end:
        raise BundleFormatError(f"trailing bytes in bundle file: {path}")


def _read_streams(path: str, n_words: int, n_equations: int) -> TokenStreams:
    """The streams table: the document ids as a string column, the lengths
    and codes read as one array."""
    raw = _read_binary(path, _H_STREAMS)
    doc_ids, at = _read_strings(path, raw, len(_H_STREAMS))
    ptr, codes, end = _rows(path, raw, at, len(doc_ids))
    _check_end(path, raw, end)
    _check_unique(path, "document", doc_ids, len(set(doc_ids)), "record")
    codes = codes.astype(np.uint32)
    for lo in range(0, len(codes), _CHECK_BLOCK):  # in blocks, so the masks stay small next to the corpus
        block = codes[lo : lo + _CHECK_BLOCK]
        eq = (block >= EQ_TAG) & (block < EQ_TAG + n_equations)
        bad = block[(block >= n_words) & ~eq & (block != GAP)]  # not a word, an equation or a gap
        if bad.size:
            raise BundleFormatError(f"{path}: code {bad[0]:#x} out of range (no word, equation or gap)")
    return TokenStreams(doc_ids, ptr, codes)


def _read_eq_units(path: str, n_equations: int) -> EquationUnits:
    """The equation -> units table, row g for equation g; it must have one
    row per equation of ``equations.bin``.  Writers store only unit ids,
    but a bundle ingested at ``unit_min_count`` above 1 by an older eqvec
    holds a -1 for each unit the threshold dropped: those are dropped here."""
    raw = _read_binary(path, _H_EQUNITS)
    at = len(_H_EQUNITS) + 4  # the lengths
    n = int.from_bytes(raw[at - 4 : at], "little")
    ptr, ids, end = _rows(path, raw, at, n)
    _check_end(path, raw, end)
    if n != n_equations:
        raise BundleFormatError(f"{path} holds {n} equations, equations.bin {n_equations}")
    ids = ids.view("<i4")
    low = ids.min(initial=0)
    if low < -1:
        raise BundleFormatError(f"{path}: unit id {ids[ids < -1][0]} out of range (gaps are -1)")
    if low == 0:  # no gap
        return EquationUnits(ptr, ids)
    keep = ids >= 0
    return EquationUnits(np.concatenate(([0], np.cumsum(keep)))[ptr], ids[keep])


def _read_heldout(path: str, split: str, streams: TokenStreams, n_words: int, n_equations: int) -> HeldOut:
    """The held-out set of one split: its item columns, then its context and
    candidate rows.  Each item must name a word of its own stream: its
    document's codes hold its target at its position, which is the token
    training then leaves out."""
    raw = _read_binary(path, _H_HELDOUT)
    at = len(_H_HELDOUT) + 4  # the item columns
    n = int.from_bytes(raw[at - 4 : at], "little")
    if len(raw) < at + 12 * n:
        raise BundleFormatError(f"truncated bundle file {path}: {n} items past the end")
    items = np.frombuffer(raw, dtype="<u4", count=3 * n, offset=at).astype(np.int64)
    stream, position, eq_id = items.reshape(3, n)
    ctx_ptr, codes, end = _rows(path, raw, at + 12 * n, n)
    cand_ptr, cand, end = _rows(path, raw, end, n)
    _check_end(path, raw, end)
    ctx_eq = codes >= EQ_TAG
    ctx_id, cand = (codes & ~EQ_TAG).astype(np.int64), cand.astype(np.int64)
    no_target = np.flatnonzero(np.diff(cand_ptr) == 0)
    if no_target.size:
        raise BundleFormatError(f"{path}: held-out item {no_target[0]} has no target")
    target = cand[cand_ptr[:-1]]
    _check_ids(path, "word", np.concatenate((cand, ctx_id[~ctx_eq])), n_words)
    _check_ids(path, "equation", np.concatenate((eq_id, ctx_id[ctx_eq])), n_equations)
    _check_ids(path, "stream", stream, len(streams))
    ok = position < np.diff(streams.ptr)[stream]
    ok[ok] = streams.codes[streams.ptr[stream[ok]] + position[ok]] == target[ok]
    if not ok.all():
        i = int(np.argmin(ok))
        raise BundleFormatError(f"{path}: held-out item out of range: document {streams.doc_ids[stream[i]]!r} "
                                f"has no word {target[i]} at position {position[i]}")
    return HeldOut(split, stream, position, eq_id, ctx_ptr, ctx_eq, ctx_id, cand_ptr, cand)
