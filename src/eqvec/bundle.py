"""Corpus bundle directory: the on-disk handoff between ingestion and training.

Layout (every file opens with a one-line format/version header):

    manifest.json        ingestion parameters, counts, format version
    vocab.tsv            form, id, frequency
    equations.tsv        eq_id, occurrence_count, latex
    units.tsv            unit string, id, frequency
    streams.bin          length-prefixed uint32 code sequences per document
    eq_units.bin         eq_id -> unit id list (int32, -1 marks gaps)
    heldout.valid.tsv    held-out items, one per row
    heldout.test.tsv

Bundles are written to a temp directory and renamed into place.

Each file has one reader.  ``load_bundle`` runs all of them;
``load_query_files`` runs only those a similarity query needs (manifest,
vocab.tsv, equations.tsv, eq_units.bin).  A file that ends inside a line
or record, fails to parse, disagrees with a count the manifest records,
holds an id out of range or a frequency or occurrence count below 1 raises
``BundleFormatError``.
"""

import json
import os
import shutil
import struct
import tempfile
from dataclasses import asdict
from typing import NamedTuple

import numpy as np

from .corpus import (
    EQ_TAG,
    GAP,
    CorpusData,
    EquationRegistry,
    HeldOutItem,
    IngestParams,
    TokenStream,
    Vocabulary,
)
from .tex import EquationRecord

BUNDLE_VERSION = 1
_H_VOCAB = "# eqvec-vocab 1"
_H_EQS = "# eqvec-equations 1"
_H_UNITS = "# eqvec-units 1"
_H_STREAMS = b"# eqvec-streams 1\n"
_H_EQUNITS = b"# eqvec-equnits 1\n"
_H_HELDOUT = "# eqvec-heldout 1"
# the tag of each class in a held-out context entry, "w:12" or "e:3"
_CONTEXT_TAGS = {"word": "w", "eq": "e"}


class BundleFormatError(ValueError):
    pass


def save_bundle(data: CorpusData, path: str) -> str:
    """Write the bundle atomically: temp dir next to the target, then rename."""
    path = os.path.abspath(path)
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


def _write_files(data: CorpusData, root: str):
    params = asdict(data.params)
    params.pop("workers")  # execution detail, not part of the corpus identity
    manifest = {
        "format": "eqvec-bundle",
        "version": BUNDLE_VERSION,
        "params": params,
        "stats": data.stats,
        "word_stop_forms": list(data.word_vocab.stop_forms),
        "has_units": data.unit_vocab is not None,
    }
    with open(os.path.join(root, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")

    _write_vocab(os.path.join(root, "vocab.tsv"), _H_VOCAB, data.word_vocab)
    with open(os.path.join(root, "equations.tsv"), "w") as f:
        f.write(_H_EQS + "\n")
        for r in data.registry.records:
            if "\t" in r.latex or "\n" in r.latex:
                raise BundleFormatError(f"equation {r.eq_id} latex not normalized")
            f.write(f"{r.eq_id}\t{r.occurrence_count}\t{r.latex}\n")
    if data.unit_vocab is not None:
        _write_vocab(os.path.join(root, "units.tsv"), _H_UNITS, data.unit_vocab)
    else:
        with open(os.path.join(root, "units.tsv"), "w") as f:
            f.write(_H_UNITS + "\n")

    with open(os.path.join(root, "streams.bin"), "wb") as f:
        f.write(_H_STREAMS)
        f.write(struct.pack("<I", len(data.streams)))
        for s in data.streams:
            did = s.doc_id.encode("utf-8")
            f.write(struct.pack("<H", len(did)))
            f.write(did)
            f.write(struct.pack("<I", len(s.codes)))
            f.write(s.codes.astype("<u4").tobytes())

    with open(os.path.join(root, "eq_units.bin"), "wb") as f:
        f.write(_H_EQUNITS)
        f.write(struct.pack("<I", len(data.eq_units)))
        for eq_id in sorted(data.eq_units):
            ids = np.asarray(data.eq_units[eq_id], dtype="<i4")
            f.write(struct.pack("<II", eq_id, len(ids)))
            f.write(ids.tobytes())

    _write_heldout(os.path.join(root, "heldout.valid.tsv"), data.heldout_valid)
    _write_heldout(os.path.join(root, "heldout.test.tsv"), data.heldout_test)


def _write_vocab(path: str, header: str, vocab: Vocabulary):
    with open(path, "w") as f:
        f.write(header + "\n")
        for i, form in enumerate(vocab.forms):
            f.write(f"{form}\t{i}\t{int(vocab.freqs[i])}\n")


def _write_heldout(path: str, items):
    with open(path, "w") as f:
        f.write(_H_HELDOUT + "\n")
        for it in items:
            ctx = ",".join(f"{_CONTEXT_TAGS[cls]}:{i}" for cls, i in it.context)
            negs = ",".join(str(n) for n in it.negatives)
            f.write(f"{it.target}\t{it.eq_id}\t{it.doc_id}\t{it.position}\t{ctx}\t{negs}\n")


# --- loading -------------------------------------------------------------------
# One reader per file.  Every reader turns a file that is cut short or does
# not parse into a BundleFormatError.


class QueryFiles(NamedTuple):
    """The bundle files a similarity query reads."""

    manifest: dict
    word_vocab: Vocabulary
    registry: EquationRegistry
    eq_units: dict[int, np.ndarray]


def load_query_files(path: str) -> QueryFiles:
    """The manifest, word vocabulary, equation registry and ``eq_units`` of a
    bundle: what ``eqvec query`` reads, without the streams, units and
    held-out files it never uses."""
    manifest = _read_manifest(path)
    stats = manifest["stats"]
    word_vocab = _read_vocab(os.path.join(path, "vocab.tsv"), _H_VOCAB, "word", stats.get("words"))
    word_vocab.stop_forms = tuple(manifest.get("word_stop_forms", ()))
    registry = _read_equations(os.path.join(path, "equations.tsv"), stats.get("equations"))
    eq_units = _read_eq_units(os.path.join(path, "eq_units.bin"), len(registry))
    return QueryFiles(manifest, word_vocab, registry, eq_units)


def load_bundle(path: str) -> CorpusData:
    """Every file of a bundle: the corpus as training and evaluation need it."""
    query = load_query_files(path)
    manifest = query.manifest
    try:
        params = IngestParams(**manifest["params"])
    except TypeError as exc:  # a key IngestParams does not have, or one missing
        raise BundleFormatError(f"manifest of bundle {path}: {exc}") from None
    unit_vocab = None
    if manifest.get("has_units", True):
        unit_vocab = _read_vocab(
            os.path.join(path, "units.tsv"), _H_UNITS, "unit", manifest["stats"].get("units")
        )
    unit_ids = np.concatenate([np.empty(0, dtype=np.int64), *query.eq_units.values()])
    _check_ids(os.path.join(path, "eq_units.bin"), "unit", unit_ids[unit_ids != -1], len(unit_vocab or ()))
    sizes = (len(query.word_vocab), len(query.registry))
    return CorpusData(
        word_vocab=query.word_vocab,
        registry=query.registry,
        streams=_read_streams(os.path.join(path, "streams.bin"), *sizes),
        unit_vocab=unit_vocab,
        eq_units=query.eq_units,
        heldout_valid=_read_heldout(os.path.join(path, "heldout.valid.tsv"), "validation", *sizes),
        heldout_test=_read_heldout(os.path.join(path, "heldout.test.tsv"), "test", *sizes),
        params=params,
        stats=manifest["stats"],
    )


def _check_ids(path: str, kind: str, ids, n: int):
    """Every id in ``ids`` must name one of the ``n`` objects of its kind."""
    ids = np.asarray(ids)  # Python ints past int64 make an object array
    bad = ids[(ids < 0) | (ids >= n)]
    if bad.size:
        raise BundleFormatError(f"{path}: {kind} id {bad[0]} out of range (the bundle has {n})")


def _expect(got, want, path):
    if got != want:
        raise BundleFormatError(f"bad file header in bundle {path}: {got!r}")


def _read_manifest(path: str) -> dict:
    try:
        with open(os.path.join(path, "manifest.json")) as f:
            manifest = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BundleFormatError(f"corrupt manifest in bundle {path}: {exc}") from None
    if (
        not isinstance(manifest, dict)
        or manifest.get("format") != "eqvec-bundle"
        or manifest.get("version") != BUNDLE_VERSION
    ):
        raise BundleFormatError(f"not a version-{BUNDLE_VERSION} bundle: {path}")
    if not isinstance(manifest.get("params"), dict) or not isinstance(manifest.get("stats"), dict):
        raise BundleFormatError(f"manifest of bundle {path} lacks params or stats")
    return manifest


def _read_rows(path: str, header: str, n_fields: int, count: int | None = None) -> list[list[str]]:
    """The rows of a text file after its header, each split into ``n_fields``
    fields (the last keeps any further tabs).  The writer ends every line
    with a newline, so a last line without one marks a file cut short;
    ``count``, when given, is the row count the manifest recorded."""
    try:
        with open(path) as f:
            lines = f.read().split("\n")
    except UnicodeDecodeError as exc:
        raise BundleFormatError(f"corrupt bundle file {path}: {exc}") from None
    _expect(lines[0], header, path)
    if lines[-1]:
        raise BundleFormatError(f"truncated bundle file: {path}")
    rows = [line.split("\t", n_fields - 1) for line in lines[1:-1]]
    if any(len(r) != n_fields for r in rows):
        raise BundleFormatError(f"malformed row in bundle file {path}")
    if count is not None and len(rows) != count:
        raise BundleFormatError(f"{path} has {len(rows)} rows, the manifest records {count}")
    return rows


def _read_vocab(path: str, header: str, kind: str, count: int | None = None) -> Vocabulary:
    rows = _read_rows(path, header, 3, count)
    try:
        ids = [int(r[1]) for r in rows]
        freqs = np.array([int(r[2]) for r in rows], dtype=np.int64)
    except (ValueError, OverflowError):
        raise BundleFormatError(f"{path}: bad id or frequency") from None
    if ids != list(range(len(rows))):
        raise BundleFormatError(f"{path}: ids not dense")
    if (freqs < 1).any():
        raise BundleFormatError(f"{path}: frequency {freqs.min()} below 1")
    return Vocabulary(kind=kind, forms=[r[0] for r in rows], freqs=freqs)


def _read_equations(path: str, count: int | None = None) -> EquationRegistry:
    registry = EquationRegistry()
    for eq_id, occurrences, latex in _read_rows(path, _H_EQS, 3, count):
        try:
            rec = EquationRecord(int(eq_id), "", latex, int(occurrences))
        except ValueError:
            raise BundleFormatError(f"{path}: bad equation id or count") from None
        if rec.occurrence_count < 1:
            raise BundleFormatError(f"{path}: occurrence count {rec.occurrence_count} below 1")
        if rec.eq_id != len(registry.records):
            raise BundleFormatError("equation ids not dense")
        registry.records.append(rec)
        registry._by_latex[latex] = rec.eq_id
    return registry


_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U32_PAIR = struct.Struct("<II")


def _read_binary(path: str, header: bytes) -> bytes:
    with open(path, "rb") as f:
        raw = f.read()
    _expect(raw[: len(header)], header, path)
    return raw


def _read_streams(path: str, n_words: int, n_equations: int) -> list[TokenStream]:
    raw = _read_binary(path, _H_STREAMS)
    streams = []
    try:
        (n_docs,) = _U32.unpack_from(raw, len(_H_STREAMS))
        pos = len(_H_STREAMS) + 4
        for _ in range(n_docs):
            (dlen,) = _U16.unpack_from(raw, pos)
            doc_id = raw[pos + 2 : pos + 2 + dlen].decode("utf-8")
            (n,) = _U32.unpack_from(raw, pos + 2 + dlen)
            pos += 6 + dlen
            codes = np.frombuffer(raw, dtype="<u4", count=n, offset=pos).astype(np.uint32)
            pos += 4 * n
            streams.append(TokenStream(doc_id, codes))
    except (struct.error, ValueError) as exc:  # a read past the end, or a bad doc id
        raise BundleFormatError(f"truncated or corrupt bundle file {path}: {exc}") from None
    if pos != len(raw):
        raise BundleFormatError(f"trailing bytes in bundle file: {path}")
    for lo in range(0, len(streams), 256):  # in blocks, so the masks stay small next to the corpus
        codes = np.concatenate([np.empty(0, dtype=np.uint32)] + [s.codes for s in streams[lo : lo + 256]])
        eq = (codes >= EQ_TAG) & (codes < EQ_TAG + n_equations)
        bad = codes[(codes >= n_words) & ~eq & (codes != GAP)]  # not a word, an equation or a gap
        if bad.size:
            raise BundleFormatError(f"{path}: code {bad[0]:#x} out of range (no word, equation or gap)")
    return streams


def _read_eq_units(path: str, n_equations: int) -> dict[int, np.ndarray]:
    raw = _read_binary(path, _H_EQUNITS)
    eq_units = {}
    try:
        (n_eqs,) = _U32.unpack_from(raw, len(_H_EQUNITS))
        pos = len(_H_EQUNITS) + 4
        for _ in range(n_eqs):
            eq_id, n = _U32_PAIR.unpack_from(raw, pos)
            pos += 8
            eq_units[eq_id] = np.frombuffer(raw, dtype="<i4", count=n, offset=pos).astype(np.int64)
            pos += 4 * n
    except (struct.error, ValueError) as exc:  # a read past the end
        raise BundleFormatError(f"truncated bundle file {path}: {exc}") from None
    if pos != len(raw):
        raise BundleFormatError(f"trailing bytes in bundle file: {path}")
    if eq_units and max(eq_units) >= n_equations:
        raise BundleFormatError(f"{path}: equation id {max(eq_units)} beyond the registry")
    return eq_units


def _read_heldout(path: str, split: str, n_words: int, n_equations: int):
    classes = {tag: cls for cls, tag in _CONTEXT_TAGS.items()}
    items = []
    for target, eq_id, doc_id, position, ctx, negs in _read_rows(path, _H_HELDOUT, 6):
        context = []
        try:
            for tok in ctx.split(","):
                if not tok:
                    continue
                tag, i = tok.split(":")
                if tag not in classes:
                    raise ValueError(f"unknown context class {tag!r}")
                context.append((classes[tag], int(i)))
            negatives = [int(x) for x in negs.split(",") if x]
            items.append(
                HeldOutItem(
                    target=int(target),
                    context=context,
                    negatives=negatives,
                    split=split,
                    doc_id=doc_id,
                    position=int(position),
                    eq_id=int(eq_id),
                )
            )
        except ValueError as exc:
            raise BundleFormatError(f"{path}: malformed held-out item: {exc}") from None
    ids = {cls: [i for it in items for c, i in it.context if c == cls] for cls in ("word", "eq")}
    _check_ids(path, "word", [i for it in items for i in (it.target, *it.negatives)] + ids["word"], n_words)
    _check_ids(path, "equation", [it.eq_id for it in items] + ids["eq"], n_equations)
    return items
