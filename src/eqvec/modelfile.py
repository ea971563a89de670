"""Versioned binary model file.

Layout: 8-byte magic, uint32 format version, length-prefixed JSON header
(mode, dimension, vocabulary sizes, config echo, seed), then row-major
little-endian float32 matrices in a fixed order (word rho, word alpha,
then either equation rho/alpha or unit rho/alpha), and a trailing CRC32
of everything before it.
"""

import json
import os
import struct
import tempfile
import zlib
from dataclasses import asdict

import numpy as np

from .model import MODES, EmbeddingTable, Model, ModelConfig

MAGIC = b"EQVMODEL"
FORMAT_VERSION = 1


class ModelFileError(ValueError):
    pass


class ChecksumError(ModelFileError):
    pass


def _matrix_bytes(m: np.ndarray) -> bytes:
    rows, cols = m.shape
    return struct.pack("<II", rows, cols) + np.ascontiguousarray(m, dtype="<f4").tobytes()


def save_model(model: Model, path: str) -> str:
    header = {
        "format_version": FORMAT_VERSION,
        "mode": model.mode,
        "k": model.config.k,
        "seed": model.config.seed,
        "vocab_sizes": {
            "word": model.word.size,
            "eq": model.eq.size if model.eq is not None else 0,
            "unit": model.unit.size if model.unit is not None else 0,
        },
        "n_equations": model.n_equations,
        "eq_vector_source": {
            "word": "none",
            "equation": "trained",
            "unit": "unit_mean",
        }[model.mode],
        "config": asdict(model.config),
    }
    hjson = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", FORMAT_VERSION)
    blob += struct.pack("<I", len(hjson))
    blob += hjson
    for table in _tables_in_order(model):
        blob += _matrix_bytes(table.rho)
        blob += _matrix_bytes(table.alpha)
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))

    path = os.path.abspath(path)
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".model-", dir=os.path.dirname(path))
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except Exception:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _tables_in_order(model: Model):
    tables = [model.word]
    if model.mode == "equation":
        tables.append(model.eq)
    elif model.mode == "unit":
        tables.append(model.unit)
    return tables


def read_header(path: str) -> dict:
    """Parse and return the JSON header after verifying the checksum."""
    with open(path, "rb") as f:
        raw = f.read()
    return _parse_and_verify(raw, path)[0]


def load_model(path: str, eq_units=None) -> Model:
    """Load a model; unit-trained models need ``eq_units`` from the corpus
    bundle to derive per-equation vectors."""
    with open(path, "rb") as f:
        raw = f.read()
    header, hlen = _parse_and_verify(raw, path)
    config = ModelConfig(**header["config"])
    mode = header["mode"]

    offset = len(MAGIC) + 8 + hlen
    matrices = []
    n_tables = 1 if mode == "word" else 2
    for _ in range(2 * n_tables):
        rows, cols = struct.unpack_from("<II", raw, offset)
        offset += 8
        size = rows * cols * 4
        if offset + size > len(raw) - 4:
            raise ModelFileError(f"truncated model file: {path}")
        m = np.frombuffer(raw, dtype="<f4", count=rows * cols, offset=offset)
        matrices.append(m.reshape(rows, cols).astype(np.float64))
        offset += size
    if offset != len(raw) - 4:
        raise ModelFileError(f"trailing bytes in model file: {path}")

    word = EmbeddingTable.from_arrays(matrices[0], matrices[1])
    eq = unit = None
    if mode == "equation":
        eq = EmbeddingTable.from_arrays(matrices[2], matrices[3])
    elif mode == "unit":
        unit = EmbeddingTable.from_arrays(matrices[2], matrices[3])
        if eq_units is None:
            eq_units = {}
    return Model(
        mode,
        config,
        word,
        eq=eq,
        unit=unit,
        eq_units=eq_units,
        n_equations=header.get("n_equations", 0),
    )


def _parse_and_verify(raw: bytes, path: str) -> tuple[dict, int]:
    """The checked header and its length in bytes."""
    if len(raw) < len(MAGIC) + 12 or raw[: len(MAGIC)] != MAGIC:
        raise ModelFileError(f"not a model file: {path}")
    (version,) = struct.unpack_from("<I", raw, len(MAGIC))
    if version != FORMAT_VERSION:
        raise ModelFileError(f"unsupported model format version {version}")
    (hlen,) = struct.unpack_from("<I", raw, len(MAGIC) + 4)
    start = len(MAGIC) + 8
    if start + hlen > len(raw) - 4:
        raise ModelFileError(f"truncated model file: {path}")
    (stored,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(raw[:-4]) != stored:
        raise ChecksumError(f"model file checksum mismatch: {path}")
    try:
        header = json.loads(raw[start : start + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFileError(f"corrupt model header: {exc}") from exc
    _check_header(header)
    return header, hlen


_HEADER_KEYS = {"format_version", "mode", "k", "seed", "vocab_sizes", "eq_vector_source", "config"}
_HEADER_INTS = ("format_version", "k", "seed", "n_equations")  # n_equations may be absent


def _check_header(header):
    """ModelFileError unless the header has every key readers use, integer
    counts, a known mode and a config ``ModelConfig`` accepts."""
    if not isinstance(header, dict) or not header.keys() >= _HEADER_KEYS:
        raise ModelFileError("corrupt model header: not an object with keys " + ", ".join(sorted(_HEADER_KEYS)))
    if header["mode"] not in MODES:
        raise ModelFileError(f"corrupt model header: unknown mode {header['mode']!r}")
    bad = [key for key in _HEADER_INTS if type(header.get(key, 0)) is not int]
    if bad or not isinstance(header["vocab_sizes"], dict):
        raise ModelFileError(f"corrupt model header: {(bad or ['vocab_sizes'])[0]} has the wrong type")
    try:
        ModelConfig(**header["config"]).validate()
    except (TypeError, ValueError) as exc:
        raise ModelFileError(f"corrupt model header: bad config: {exc}") from None


def format_header(header: dict) -> str:
    """Human-readable header rendering for the inspect command."""
    lines = [
        f"format_version: {header['format_version']}",
        f"mode: {header['mode']}",
        f"k: {header['k']}",
        f"seed: {header['seed']}",
        f"eq_vector_source: {header['eq_vector_source']}",
        f"n_equations: {header.get('n_equations', 0)}",
    ]
    for cls, size in sorted(header["vocab_sizes"].items()):
        lines.append(f"vocab_size.{cls}: {size}")
    for key, value in sorted(header["config"].items()):
        lines.append(f"config.{key}: {value}")
    return "\n".join(lines)
