"""On-disk formats: corpus bundle and model file round trips, checksums."""

import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from eqvec import bundle as bundle_io
from eqvec.bundle import BundleFormatError, load_bundle, save_bundle
from eqvec.corpus import EQ_TAG, GAP, IngestParams, ingest_corpus
from eqvec.model import ADAGRAD_FLOOR, EmbeddingTable, Model, ModelConfig
from eqvec.modelfile import (
    ChecksumError,
    ModelFileError,
    format_header,
    load_model,
    read_header,
    save_model,
)
from eqvec.tex import RawDocument


def tiny_corpus_data():
    docs = [
        RawDocument(
            "a",
            "Modeling words everywhere always. $$x + y$$ modeling words everywhere always.",
        ),
        RawDocument(
            "b",
            "Another words everywhere always modeling. $$x + y$$ also $$z^2$$ words modeling.",
        ),
    ]
    params = IngestParams(
        min_tf=2, min_len=4, top_stop=0, abbrev_top=0,
        heldout_per_equation=1, heldout_window=4, n_negatives=2, seed=5,
    )
    return ingest_corpus(docs, params)


def test_bundle_round_trip(tmp_path):
    data = tiny_corpus_data()
    path = save_bundle(data, str(tmp_path / "bundle"))
    loaded = load_bundle(path)
    assert loaded.word_vocab.forms == data.word_vocab.forms
    assert np.array_equal(loaded.word_vocab.freqs, data.word_vocab.freqs)
    assert [(r.eq_id, r.occurrence_count, r.latex) for r in loaded.registry.records] == [
        (r.eq_id, r.occurrence_count, r.latex) for r in data.registry.records
    ]
    assert loaded.unit_vocab.forms == data.unit_vocab.forms
    assert len(loaded.streams) == len(data.streams)
    for s, l in zip(data.streams, loaded.streams):
        assert s.doc_id == l.doc_id
        assert np.array_equal(s.codes, l.codes)
    for mine, theirs in ((data.eq_units, loaded.eq_units),):
        assert set(mine) == set(theirs)
        for k in mine:
            assert np.array_equal(mine[k], theirs[k])
    assert loaded.heldout_valid == data.heldout_valid
    assert loaded.heldout_test == data.heldout_test
    assert loaded.params == data.params


def test_bundle_rewrite_is_byte_identical(tmp_path):
    data = tiny_corpus_data()
    p1 = save_bundle(data, str(tmp_path / "b1"))
    p2 = save_bundle(data, str(tmp_path / "b2"))
    for name in sorted(os.listdir(p1)):
        with open(os.path.join(p1, name), "rb") as f1, open(os.path.join(p2, name), "rb") as f2:
            assert f1.read() == f2.read(), name


def test_bundle_overwrite_replaces(tmp_path):
    data = tiny_corpus_data()
    path = str(tmp_path / "bundle")
    save_bundle(data, path)
    save_bundle(data, path)
    assert load_bundle(path).stats == data.stats


def test_bundle_files_have_headers(tmp_path):
    data = tiny_corpus_data()
    path = save_bundle(data, str(tmp_path / "bundle"))
    for name in ("vocab.tsv", "equations.tsv", "units.tsv", "heldout.valid.tsv"):
        with open(os.path.join(path, name)) as f:
            assert f.readline().startswith("# eqvec-")
    for name in ("streams.bin", "eq_units.bin"):
        with open(os.path.join(path, name), "rb") as f:
            assert f.readline().startswith(b"# eqvec-")


def test_bundle_unknown_manifest_param_rejected(tmp_path):
    path = save_bundle(tiny_corpus_data(), str(tmp_path / "bundle"))
    manifest_path = os.path.join(path, "manifest.json")
    with open(manifest_path) as f:
        manifest = json.load(f)
    manifest["params"]["no_such_param"] = 1
    with open(manifest_path, "w") as f:
        json.dump(manifest, f)
    with pytest.raises(BundleFormatError, match="no_such_param"):
        load_bundle(path)


def test_bundle_bad_header_rejected(tmp_path):
    data = tiny_corpus_data()
    path = save_bundle(data, str(tmp_path / "bundle"))
    vocab = os.path.join(path, "vocab.tsv")
    content = open(vocab).read()
    with open(vocab, "w") as f:
        f.write("# wrong 9\n" + content.split("\n", 1)[1])
    with pytest.raises(BundleFormatError):
        load_bundle(path)


@pytest.mark.parametrize(
    "name",
    ["manifest.json", "vocab.tsv", "equations.tsv", "units.tsv", "streams.bin", "eq_units.bin",
     "heldout.valid.tsv", "heldout.test.tsv"],
)
def test_truncated_bundle_file_rejected(name, tmp_path):
    path = save_bundle(tiny_corpus_data(), str(tmp_path / "bundle"))
    with open(os.path.join(path, name), "rb") as f:
        raw = f.read()
    with open(os.path.join(path, name), "wb") as f:
        f.write(raw[: len(raw) // 2])
    with pytest.raises(BundleFormatError):
        load_bundle(path)


@pytest.mark.parametrize("tag", ["w", "e"])
def test_heldout_unknown_context_class_rejected(tag, tmp_path):
    path = save_bundle(tiny_corpus_data(), str(tmp_path / "bundle"))
    heldout = os.path.join(path, "heldout.valid.tsv")
    with open(heldout) as f:
        text, n = re.subn(rf"(?<=[\t,]){tag}:", "q:", f.read(), count=1)
    assert n == 1
    with open(heldout, "w") as f:
        f.write(text)
    with pytest.raises(BundleFormatError, match="unknown context class 'q'"):
        load_bundle(path)


def _word_position(codes):
    return int(np.flatnonzero(codes < EQ_TAG)[0])


def _break_stream_word(data):
    codes = data.streams[0].codes
    codes[_word_position(codes)] |= np.uint32(1 << 22)  # one flipped bit


def _break_stream_equation(data):
    data.streams[0].codes[_word_position(data.streams[0].codes)] = EQ_TAG | np.uint32(len(data.registry))


def _break_heldout(split, **changes):
    def damage(data):
        items = getattr(data, split)
        items[0] = replace(items[0], **{k: v(items[0], data) for k, v in changes.items()})
    return damage


def _break_eq_units(data):
    data.eq_units[0] = np.append(data.eq_units[0], len(data.unit_vocab))


@pytest.mark.parametrize(
    "damage",
    [
        _break_stream_word,
        _break_stream_equation,
        _break_heldout("heldout_valid", target=lambda it, d: len(d.word_vocab)),
        _break_heldout("heldout_valid", target=lambda it, d: 2**70),
        _break_heldout("heldout_test", negatives=lambda it, d: it.negatives[:-1] + [-1]),
        _break_heldout("heldout_test", context=lambda it, d: [("word", len(d.word_vocab))] + it.context),
        _break_heldout("heldout_valid", context=lambda it, d: it.context[:-1] + [("eq", len(d.registry))]),
        _break_heldout("heldout_test", eq_id=lambda it, d: -1),
        _break_eq_units,
    ],
    ids=["stream_word", "stream_equation", "heldout_target", "heldout_huge_target", "heldout_negative",
         "heldout_context_word", "heldout_context_equation", "heldout_eq_id", "eq_units"],
)
def test_bundle_id_out_of_range_rejected(damage, tmp_path):
    data = tiny_corpus_data()
    assert data.heldout_valid and data.heldout_test
    data.streams[-1].codes[-1] = GAP
    load_bundle(save_bundle(data, str(tmp_path / "good")))  # gaps and every real id load
    damage(data)
    path = save_bundle(data, str(tmp_path / "bad"))
    with pytest.raises(BundleFormatError, match="out of range"):
        load_bundle(path)


# --- model file ------------------------------------------------------------------


def fitted_model(mode="equation", k=4, seed=0):
    rng = np.random.default_rng(seed)
    word = EmbeddingTable(7, k, rng, 0.5)
    cfg = ModelConfig(k=k, seed=3)
    if mode == "word":
        return Model("word", cfg, word, n_equations=0)
    if mode == "equation":
        return Model("equation", cfg, word, eq=EmbeddingTable(3, k, rng, 0.5))
    unit = EmbeddingTable(5, k, rng, 0.5)
    eq_units = {0: np.array([0, 2]), 1: np.array([1]), 2: np.array([3, 4, 1])}
    return Model("unit", cfg, word, unit=unit, eq_units=eq_units, n_equations=3)


@pytest.mark.parametrize("mode", ["word", "equation", "unit"])
def test_model_round_trip(mode, tmp_path):
    model = fitted_model(mode)
    path = str(tmp_path / "m.eqv")
    save_model(model, path)
    loaded = load_model(path, eq_units=model.eq_units or None)
    assert loaded.mode == mode
    assert loaded.config == model.config
    # a loaded table never trains: its accumulators read as the floor
    assert (loaded.word.rho_acc == ADAGRAD_FLOOR).all() and not loaded.word.alpha_acc.flags.writeable
    # float32 on disk: loading the saved values back is exact at f32
    assert np.array_equal(loaded.word.rho, model.word.rho.astype(np.float32).astype(np.float64))
    if mode == "equation":
        assert np.array_equal(
            loaded.eq.alpha, model.eq.alpha.astype(np.float32).astype(np.float64)
        )
    if mode == "unit":
        assert np.array_equal(
            loaded.unit.rho, model.unit.rho.astype(np.float32).astype(np.float64)
        )
        assert loaded.n_equations == 3


def test_save_is_deterministic(tmp_path):
    model = fitted_model()
    p1, p2 = str(tmp_path / "a.eqv"), str(tmp_path / "b.eqv")
    save_model(model, p1)
    save_model(model, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_header_contents(tmp_path):
    model = fitted_model("unit")
    path = str(tmp_path / "m.eqv")
    save_model(model, path)
    header = read_header(path)
    assert header["mode"] == "unit"
    assert header["k"] == 4
    assert header["vocab_sizes"] == {"word": 7, "eq": 0, "unit": 5}
    assert header["eq_vector_source"] == "unit_mean"
    assert header["config"]["seed"] == 3
    text = format_header(header)
    assert "mode: unit" in text and "config.seed: 3" in text


def test_truncated_file_fails_checksum(tmp_path):
    model = fitted_model()
    path = str(tmp_path / "m.eqv")
    save_model(model, path)
    raw = open(path, "rb").read()
    with open(path, "wb") as f:
        f.write(raw[:-9])
    with pytest.raises((ChecksumError, ModelFileError)):
        read_header(path)


def test_corrupted_byte_fails_checksum(tmp_path):
    model = fitted_model()
    path = str(tmp_path / "m.eqv")
    save_model(model, path)
    raw = bytearray(open(path, "rb").read())
    raw[len(raw) // 2] ^= 0xFF
    with open(path, "wb") as f:
        f.write(bytes(raw))
    with pytest.raises(ChecksumError):
        read_header(path)


def test_not_a_model_file(tmp_path):
    path = str(tmp_path / "m.eqv")
    with open(path, "wb") as f:
        f.write(b"definitely not a model")
    with pytest.raises(ModelFileError):
        read_header(path)
