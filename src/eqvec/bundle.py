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
"""

import json
import os
import shutil
import struct
import tempfile
from dataclasses import asdict

import numpy as np

from .corpus import (
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
            ctx = ",".join(
                ("w:" if cls == "word" else "e:") + str(i) for cls, i in it.context
            )
            negs = ",".join(str(n) for n in it.negatives)
            f.write(f"{it.target}\t{it.eq_id}\t{it.doc_id}\t{it.position}\t{ctx}\t{negs}\n")


# --- loading -------------------------------------------------------------------


def load_bundle(path: str) -> CorpusData:
    with open(os.path.join(path, "manifest.json")) as f:
        manifest = json.load(f)
    if manifest.get("format") != "eqvec-bundle" or manifest.get("version") != BUNDLE_VERSION:
        raise BundleFormatError(f"not a version-{BUNDLE_VERSION} bundle: {path}")
    params = IngestParams(**manifest["params"])

    word_vocab = _read_vocab(os.path.join(path, "vocab.tsv"), _H_VOCAB, "word")
    word_vocab.stop_forms = tuple(manifest.get("word_stop_forms", ()))

    registry = EquationRegistry()
    with open(os.path.join(path, "equations.tsv")) as f:
        _expect(f.readline().rstrip("\n"), _H_EQS, path)
        for line in f:
            eq_id, count, latex = line.rstrip("\n").split("\t", 2)
            rec = EquationRecord(int(eq_id), "", latex, int(count))
            if rec.eq_id != len(registry.records):
                raise BundleFormatError("equation ids not dense")
            registry.records.append(rec)
            registry._by_latex[latex] = rec.eq_id

    unit_vocab = None
    if manifest.get("has_units", True):
        unit_vocab = _read_vocab(os.path.join(path, "units.tsv"), _H_UNITS, "unit")

    streams = []
    with open(os.path.join(path, "streams.bin"), "rb") as f:
        _expect(f.readline(), _H_STREAMS, path)
        (n_docs,) = struct.unpack("<I", f.read(4))
        for _ in range(n_docs):
            (dlen,) = struct.unpack("<H", f.read(2))
            doc_id = f.read(dlen).decode("utf-8")
            (n,) = struct.unpack("<I", f.read(4))
            codes = np.frombuffer(f.read(4 * n), dtype="<u4").astype(np.uint32)
            streams.append(TokenStream(doc_id, codes))

    eq_units = {}
    with open(os.path.join(path, "eq_units.bin"), "rb") as f:
        _expect(f.readline(), _H_EQUNITS, path)
        (n_eqs,) = struct.unpack("<I", f.read(4))
        for _ in range(n_eqs):
            eq_id, n = struct.unpack("<II", f.read(8))
            ids = np.frombuffer(f.read(4 * n), dtype="<i4").astype(np.int64)
            eq_units[eq_id] = ids

    valid = _read_heldout(os.path.join(path, "heldout.valid.tsv"), "validation")
    test = _read_heldout(os.path.join(path, "heldout.test.tsv"), "test")
    return CorpusData(
        word_vocab=word_vocab,
        registry=registry,
        streams=streams,
        unit_vocab=unit_vocab,
        eq_units=eq_units,
        heldout_valid=valid,
        heldout_test=test,
        params=params,
        stats=manifest["stats"],
    )


def _expect(got, want, path):
    if got != want:
        raise BundleFormatError(f"bad file header in bundle {path}: {got!r}")


def _read_vocab(path: str, header: str, kind: str) -> Vocabulary:
    forms, freqs = [], []
    with open(path) as f:
        _expect(f.readline().rstrip("\n"), header, path)
        for line in f:
            form, idx, freq = line.rstrip("\n").split("\t")
            if int(idx) != len(forms):
                raise BundleFormatError(f"{path}: ids not dense")
            forms.append(form)
            freqs.append(int(freq))
    return Vocabulary(kind=kind, forms=forms, freqs=np.array(freqs, dtype=np.int64))


def _read_heldout(path: str, split: str):
    items = []
    with open(path) as f:
        _expect(f.readline().rstrip("\n"), _H_HELDOUT, path)
        for line in f:
            target, eq_id, doc_id, position, ctx, negs = line.rstrip("\n").split("\t")
            context = []
            for tok in ctx.split(","):
                if not tok:
                    continue
                cls, i = tok.split(":")
                context.append(("word" if cls == "w" else "eq", int(i)))
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
    return items
