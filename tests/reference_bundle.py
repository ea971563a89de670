"""Reference bundle readers: ``streams.bin``, ``eq_units.bin`` and the
held-out files read one row at a time, walking the lengths array with one
``np.frombuffer`` and one ``astype`` per document or equation, and one
held-out item after another, kept as test oracles.

``eqvec.bundle`` reads each file's lengths and payload as one array and
must return equal streams, ``eq_units`` (keys, order, dtypes and values)
and held-out items for every file these accept.
"""

import numpy as np

from eqvec.bundle import _H_EQUNITS, _H_HELDOUT, _H_STREAMS, BundleFormatError, _read_binary
from eqvec.corpus import EQ_TAG, GAP, TokenStream

from .conftest import Item


def _u32(raw: bytes, pos: int, path: str) -> int:
    if pos + 4 > len(raw):
        raise BundleFormatError(f"truncated bundle file: {path}")
    return int.from_bytes(raw[pos : pos + 4], "little")


def _rows(path: str, raw: bytes, pos: int, n: int, dtype: str) -> tuple[list[np.ndarray], int]:
    """The ``n`` rows whose u32 lengths start at byte ``pos``, each its own
    ``frombuffer`` of ``dtype`` items, and the byte after the last row."""
    lengths = [_u32(raw, pos + 4 * i, path) for i in range(n)]
    pos += 4 * n
    rows = []
    for n_items in lengths:
        if pos + 4 * n_items > len(raw):
            raise BundleFormatError(f"truncated bundle file: {path}")
        rows.append(np.frombuffer(raw, dtype=dtype, count=n_items, offset=pos))
        pos += 4 * n_items
    return rows, pos


def _check_end(path: str, raw: bytes, pos: int):
    if pos != len(raw):
        raise BundleFormatError(f"trailing bytes in bundle file: {path}")


def _read_streams(path: str, n_words: int, n_equations: int) -> list[TokenStream]:
    raw = _read_binary(path, _H_STREAMS)
    pos = len(_H_STREAMS)
    n_docs, id_bytes = _u32(raw, pos, path), _u32(raw, pos + 4, path)
    pos += 8
    if pos + id_bytes > len(raw):
        raise BundleFormatError(f"truncated bundle file: {path}")
    rows, end = _rows(path, raw, pos + id_bytes, n_docs, "<u4")
    _check_end(path, raw, end)
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
    rows, end = _rows(path, raw, len(_H_EQUNITS) + 4, n, "<i4")
    _check_end(path, raw, end)
    if n != n_equations:
        raise BundleFormatError(f"{path} holds {n} equations, equations.tsv {n_equations}")
    eq_units = {g: ids.astype(np.int64) for g, ids in enumerate(rows)}
    for ids in eq_units.values():
        if (ids < -1).any():
            raise BundleFormatError(f"{path}: unit id {ids[ids < -1][0]} out of range (gaps are -1)")
    return eq_units


def _read_heldout(path: str, streams: list[TokenStream], n_words: int, n_equations: int) -> list[Item]:
    """One split's held-out items, item i from word i of the stream,
    position and equation id columns and from row i of the context and the
    candidate rows, each checked on its own."""
    raw = _read_binary(path, _H_HELDOUT)
    pos = len(_H_HELDOUT)
    n = _u32(raw, pos, path)
    columns = [[_u32(raw, pos + 4 * (1 + c * n + i), path) for i in range(n)] for c in range(3)]
    contexts, end = _rows(path, raw, pos + 4 * (1 + 3 * n), n, "<u4")
    candidates, end = _rows(path, raw, end, n, "<u4")
    _check_end(path, raw, end)
    items = []
    for stream, position, eq_id, codes, cand in zip(*columns, contexts, candidates):
        context = [("eq", c - int(EQ_TAG)) if c >= EQ_TAG else ("word", c) for c in codes.tolist()]
        cand = cand.tolist()
        if not cand:
            raise BundleFormatError(f"{path}: held-out item {len(items)} has no target")
        for kind, i in [*context, *(("word", c) for c in cand)]:
            if i >= (n_words if kind == "word" else n_equations):
                raise BundleFormatError(f"{path}: {kind} id {i} out of range")
        if eq_id >= n_equations or stream >= len(streams):
            raise BundleFormatError(f"{path}: equation id {eq_id} or stream {stream} out of range")
        codes = streams[stream].codes
        if position >= len(codes) or codes[position] != cand[0]:
            raise BundleFormatError(f"{path}: held-out item out of range: no word {cand[0]} at position {position}")
        items.append(Item(cand[0], context, cand[1:], stream, position, eq_id))
    return items
