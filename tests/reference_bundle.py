"""Reference bundle readers: ``streams.bin`` and ``eq_units.bin`` read one
row at a time, walking the lengths array with one ``np.frombuffer`` and
one ``astype`` per document or equation, kept as test oracles.

``eqvec.bundle`` reads each file's lengths and payload as one array and
must return equal streams and ``eq_units`` (keys, order, dtypes and
values) for every file these accept.
"""

import numpy as np

from eqvec.bundle import _H_EQUNITS, _H_STREAMS, BundleFormatError, _read_binary
from eqvec.corpus import EQ_TAG, GAP, TokenStream


def _u32(raw: bytes, pos: int, path: str) -> int:
    if pos + 4 > len(raw):
        raise BundleFormatError(f"truncated bundle file: {path}")
    return int.from_bytes(raw[pos : pos + 4], "little")


def _rows(path: str, raw: bytes, pos: int, n: int, dtype: str) -> list[np.ndarray]:
    """The ``n`` rows whose u32 lengths start at byte ``pos``, each its own
    ``frombuffer`` of ``dtype`` items; the last row must end the file."""
    lengths = [_u32(raw, pos + 4 * i, path) for i in range(n)]
    pos += 4 * n
    rows = []
    for n_items in lengths:
        if pos + 4 * n_items > len(raw):
            raise BundleFormatError(f"truncated bundle file: {path}")
        rows.append(np.frombuffer(raw, dtype=dtype, count=n_items, offset=pos))
        pos += 4 * n_items
    if pos != len(raw):
        raise BundleFormatError(f"trailing bytes in bundle file: {path}")
    return rows


def _read_streams(path: str, n_words: int, n_equations: int) -> list[TokenStream]:
    raw = _read_binary(path, _H_STREAMS)
    pos = len(_H_STREAMS)
    n_docs, id_bytes = _u32(raw, pos, path), _u32(raw, pos + 4, path)
    pos += 8
    if pos + id_bytes > len(raw):
        raise BundleFormatError(f"truncated bundle file: {path}")
    rows = _rows(path, raw, pos + id_bytes, n_docs, "<u4")
    block, doc_ids, start = raw[pos : pos + id_bytes], [], 0
    for i in range(n_docs):  # one id at a time: up to its newline, or to the block's end
        end = block.find(b"\n", start)
        end = len(block) if end < 0 else end
        if end <= start:
            raise BundleFormatError(f"corrupt bundle file {path}: document {i} has no id")
        try:
            doc_ids.append(block[start:end].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise BundleFormatError(f"corrupt bundle file {path}: {exc}") from None
        start = end + 1
    if start != len(block) + (n_docs > 0):  # the last id ends the block
        raise BundleFormatError(f"corrupt bundle file {path}: more document ids than documents")
    if len(set(doc_ids)) != n_docs:
        raise BundleFormatError(f"{path}: a document id is in more than one record")
    streams = [TokenStream(d, codes.astype(np.uint32)) for d, codes in zip(doc_ids, rows)]
    for s in streams:
        eq = (s.codes >= EQ_TAG) & (s.codes < EQ_TAG + n_equations)
        bad = s.codes[(s.codes >= n_words) & ~eq & (s.codes != GAP)]  # not a word, an equation or a gap
        if bad.size:
            raise BundleFormatError(f"{path}: code {bad[0]:#x} out of range (no word, equation or gap)")
    return streams


def _read_eq_units(path: str, n_equations: int) -> dict[int, np.ndarray]:
    raw = _read_binary(path, _H_EQUNITS)
    n = _u32(raw, len(_H_EQUNITS), path)
    rows = _rows(path, raw, len(_H_EQUNITS) + 4, n, "<i4")
    if n != n_equations:
        raise BundleFormatError(f"{path} holds {n} equations, equations.tsv {n_equations}")
    eq_units = {g: ids.astype(np.int64) for g, ids in enumerate(rows)}
    for ids in eq_units.values():
        if (ids < -1).any():
            raise BundleFormatError(f"{path}: unit id {ids[ids < -1][0]} out of range (gaps are -1)")
    return eq_units
