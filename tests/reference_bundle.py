"""Reference bundle readers: the string tables (``vocab.bin``,
``equations.bin``, ``units.bin``) and the document ids of ``streams.bin``
read one string and one count at a time; ``streams.bin``, ``eq_units.bin``
and the held-out files read one row at a time, walking the lengths array
with one ``np.frombuffer`` and one ``astype`` per document or equation,
and one held-out item after another, kept as test oracles.

``eqvec.bundle`` decodes each string block in one call and reads each
file's counts, lengths and payload as one array, and must return equal
tables, streams, ``eq_units`` (keys, order, dtypes and values) and
held-out items for every file these accept.

``write_table`` writes a string table byte by byte with no check on its
rows, so that tests can write the corrupt tables ``save_bundle`` refuses.
"""

import struct

import numpy as np

from eqvec.bundle import _H_EQUNITS, _H_HELDOUT, _H_STREAMS, BundleFormatError, _read_binary
from eqvec.corpus import EQ_TAG, GAP, TokenStream

from .conftest import Item


def _u32(raw: bytes, pos: int, path: str) -> int:
    if pos + 4 > len(raw):
        raise BundleFormatError(f"truncated bundle file: {path}")
    return int.from_bytes(raw[pos : pos + 4], "little")


def _strings(path: str, raw: bytes, pos: int) -> tuple[list[str], int]:
    """The string column at byte ``pos`` (u32 n, u32 byte size, the block),
    one string at a time, and the byte after its block."""
    n, size = _u32(raw, pos, path), _u32(raw, pos + 4, path)
    pos += 8
    if pos + size > len(raw):
        raise BundleFormatError(f"truncated bundle file: {path}")
    block, strings, start = raw[pos : pos + size], [], 0
    for i in range(n):  # one string at a time: up to its newline, or to the block's end
        end = block.find(b"\n", start)
        end = len(block) if end < 0 else end
        if end <= start:
            raise BundleFormatError(f"corrupt bundle file {path}: string {i} is empty")
        try:
            strings.append(block[start:end].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise BundleFormatError(f"corrupt bundle file {path}: {exc}") from None
        start = end + 1
    if start != len(block) + (n > 0):  # the last string ends the block
        raise BundleFormatError(f"corrupt bundle file {path}: more strings than rows")
    return strings, pos + size


def read_table(path: str, header: bytes, count: int | None = None) -> tuple[list[str], list[int]]:
    """A string table's strings and counts, each count read on its own."""
    raw = _read_binary(path, header)
    strings, pos = _strings(path, raw, len(header))
    counts = []
    for _ in strings:
        if pos + 8 > len(raw):
            raise BundleFormatError(f"truncated bundle file: {path}")
        counts.append(int.from_bytes(raw[pos : pos + 8], "little"))
        pos += 8
    _check_end(path, raw, pos)
    if count is not None and len(strings) != count:
        raise BundleFormatError(f"{path} has {len(strings)} rows, the manifest records {count}")
    for c in counts:
        if not 1 <= c < 2**63:
            raise BundleFormatError(f"{path}: count {c} below 1 or past int64")
    if len(set(strings)) != len(strings):
        raise BundleFormatError(f"{path}: a string is in more than one row")
    return strings, counts


def write_table(path: str, header: bytes, strings: list[str], counts: list[int]):
    """Write a string table as ``strings`` and ``counts`` (each below
    2**64) give it, repeats, empty strings and zeros included."""
    block = "\n".join(strings).encode("utf-8")
    with open(path, "wb") as f:
        f.write(header + struct.pack("<II", len(strings), len(block)) + block)
        f.write(b"".join(c.to_bytes(8, "little") for c in counts))


def rewrite_table(path: str, change) -> tuple[list[str], list[int]]:
    """Rewrite a saved string table as ``change(strings, counts)`` returns
    them, keeping its header line; return the rows it held."""
    with open(path, "rb") as f:
        header = f.readline()
    rows = read_table(path, header)
    write_table(path, header, *change(*rows))
    return rows


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
    doc_ids, pos = _strings(path, raw, len(_H_STREAMS))
    rows, end = _rows(path, raw, pos, len(doc_ids), "<u4")
    _check_end(path, raw, end)
    if len(set(doc_ids)) != len(doc_ids):
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
        raise BundleFormatError(f"{path} holds {n} equations, equations.bin {n_equations}")
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
