"""Reference bundle readers: ``streams.bin`` and ``eq_units.bin`` read one
record at a time, with one ``np.frombuffer`` and one ``astype`` per
document or equation, kept as test oracles.

``eqvec.bundle`` reads each file as one array and must return equal
streams and ``eq_units`` (keys, order, dtypes and values) for every file
these accept.
"""

import struct

import numpy as np

from eqvec.bundle import _H_EQUNITS, _H_STREAMS, BundleFormatError, _read_binary
from eqvec.corpus import EQ_TAG, GAP, TokenStream

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U32_PAIR = struct.Struct("<II")


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
