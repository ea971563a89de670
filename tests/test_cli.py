"""Command-line pipeline: exit codes, artifacts, determinism."""

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import zlib
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eqvec
from eqvec import cli, retrieval
from eqvec import model as model_mod
from eqvec.bundle import load_bundle, load_query_files
from eqvec.cli import RunConfig, build_config, main, make_parser
from eqvec.corpus import EQ_TAG, IngestParams
from eqvec.model import EmbeddingTable, Model, ModelConfig
from eqvec.modelfile import ModelFileError, load_model, save_model
from eqvec.synthetic import planted_corpus, write_corpus

from . import reference_bundle
from .conftest import drop_last_equation, write_eq_units


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    texts = {
        "one": (
            "Modeling words everywhere always believing. Modeling believing words "
            "everywhere always.\nbelieving words\n\\begin{equation}\nx + y\n\\end{equation}\n"
            "words believing. everywhere always words modeling believing."
        ),
        "two": (
            "Another believing document words everywhere always modeling. words believing\n"
            "$$ x + y $$\nmodeling words. also modeling everywhere always believing words."
        ),
        "three": (
            "Third words everywhere always modeling believing thing. modeling words\n"
            "\\[ z^{2} \\]\nbelieving everywhere. more believing words modeling always everywhere."
        ),
    }
    for name, text in texts.items():
        (root / f"{name}.tex").write_text(text)
    return str(root)


@pytest.fixture(scope="module")
def chunked_corpus(tmp_path_factory):
    """Twelve documents, more than one chunk per worker at ``--workers 2``;
    each brings a word no earlier document has, so later chunks hold forms
    first seen there."""
    root = tmp_path_factory.mktemp("chunked")
    for i, letter in enumerate("abcdefghijkl"):
        own = "extra" + letter * 3
        (root / f"doc{i:02d}.tex").write_text(
            f"Modeling words everywhere {own} always believing {own}.\n"
            f"\\begin{{equation}}\nx_{{{i % 5}}} + y\n\\end{{equation}}\n"
            f"{own} believing words modeling always everywhere."
        )
    return str(root)


ING = ["--set", "min_tf=2", "--set", "top_stop=0", "--set", "heldout_per_equation=1",
       "--set", "n_negatives=3"]
TRN = ["--set", "k=6", "--set", "eq_window=4", "--set", "eq_context_window=4",
       "--set", "max_epochs=3", "--set", "n_negatives=3"]


def test_corpus_without_equations_ingests_and_trains_in_every_mode(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("one", "two", "three"):
        (corpus / f"{name}.tex").write_text("Modeling words everywhere always believing. Modeling believing words "
                                            f"everywhere always.\nbelieving {name} words modeling everywhere always.")
    bundle = str(tmp_path / "bundle")
    code, out, _ = run(["ingest", "--corpus", str(corpus), "--bundle", bundle] + ING, capsys)
    assert code == 0 and out.splitlines()[1].split("\t")[2:] == ["0", "0"]  # no equations, no units
    data = load_bundle(bundle)
    assert data.unit_vocab.forms == [] and data.unit_vocab.freqs.dtype == np.int64
    assert len(data.heldout_valid) == len(data.heldout_test) == 0
    for mode in ("word", "equation", "unit"):
        model = str(tmp_path / f"{mode}.eqv")
        code, _, err = run(["train", "--bundle", bundle, "--model", model, "--mode", mode] + TRN, capsys)
        assert code == 0 and "Traceback" not in err, (mode, err)
        assert load_model(model).mode == mode
    # nothing to score: eval refuses before any fit and writes no report
    report = tmp_path / "out" / "report.tsv"
    code, out, err = run(["eval", "--bundle", bundle, "--report", str(report)] + TRN, capsys)
    assert code == 2 and out == ""
    assert err == f"error: bundle {bundle} has no held-out items to score\n"
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def tiny_bundle(tiny_corpus, tmp_path_factory):
    bundle = str(tmp_path_factory.mktemp("tiny") / "bundle")
    assert main(["ingest", "--corpus", tiny_corpus, "--bundle", bundle] + ING) == 0
    return bundle


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ingest_summary_and_artifacts(tiny_corpus, tmp_path, capsys):
    bundle = str(tmp_path / "bundle")
    code, out, err = run(["ingest", "--corpus", tiny_corpus, "--bundle", bundle] + ING, capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "documents\twords\tequations\tunits"
    counts = lines[1].split("\t")
    assert counts[0] == "3"
    assert os.path.isdir(bundle)
    for f in ("manifest.json", "vocab.bin", "equations.bin", "units.bin", "streams.bin"):
        assert os.path.exists(os.path.join(bundle, f))


def test_ingest_missing_directory_exits_2(capsys):
    code, out, err = run(["ingest", "--corpus", "/nonexistent/nowhere"], capsys)
    assert code == 2
    assert "not found" in err


@pytest.mark.parametrize(
    "argv",
    [["train", "--model", "m.eqv"], ["eval", "--report", "r.tsv"], ["query", "eq2eq", "--id", "0", "--model", "m.eqv"]],
    ids=["train", "eval", "query"],
)
def test_missing_bundle_exits_2(argv, tmp_path, capsys):
    missing = str(tmp_path / "nowhere")
    argv = [str(tmp_path / a) if a.endswith((".eqv", ".tsv")) else a for a in argv]
    code, out, err = run(argv + ["--bundle", missing], capsys)
    assert (code, out, err) == (2, "", f"error: bundle not found: {missing}\n")
    assert os.listdir(tmp_path) == []


def test_ingest_no_documents_exits_1(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run(["ingest", "--corpus", str(empty)], capsys)
    assert code == 1
    assert "no readable" in err


def test_word2eq_three_word_query_returns_five_rows(tmp_path, capsys):
    corpus_dir = str(tmp_path / "corpus")
    write_corpus(planted_corpus(n_docs=24, seed=3), corpus_dir)
    bundle = str(tmp_path / "bundle")
    model = str(tmp_path / "model.eqv")
    assert run(["ingest", "--corpus", corpus_dir, "--bundle", bundle,
                "--set", "min_tf=4"], capsys)[0] == 0
    assert run(["train", "--bundle", bundle, "--model", model, "--mode", "equation",
                "--set", "k=8", "--set", "max_epochs=3"], capsys)[0] == 0
    code, out, _ = run(
        ["query", "word2eq", "--words", "matrix,eigenvalue,projection", "-k", "5",
         "--model", model, "--bundle", bundle], capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rank\tid\tscore\tsurface"
    assert len(lines) == 6  # five result rows


def _assert_workers_byte_identical(corpus_dir, tmp_path, capsys):
    b1, b2 = str(tmp_path / "b1"), str(tmp_path / "b2")
    assert run(["ingest", "--corpus", corpus_dir, "--bundle", b1] + ING, capsys)[0] == 0
    assert run(["ingest", "--corpus", corpus_dir, "--bundle", b2, "--workers", "2"] + ING, capsys)[0] == 0
    for name in sorted(os.listdir(b1)):
        with open(os.path.join(b1, name), "rb") as f1, open(os.path.join(b2, name), "rb") as f2:
            assert f1.read() == f2.read(), name


def test_ingest_parallel_workers_byte_identical(tiny_corpus, tmp_path, capsys):
    _assert_workers_byte_identical(tiny_corpus, tmp_path, capsys)


def test_ingest_workers_byte_identical_across_chunks(chunked_corpus, tmp_path, capsys):
    _assert_workers_byte_identical(chunked_corpus, tmp_path, capsys)


def test_ingest_rerun_byte_identical(tiny_corpus, tmp_path, capsys):
    b1, b2 = str(tmp_path / "b1"), str(tmp_path / "b2")
    assert run(["ingest", "--corpus", tiny_corpus, "--bundle", b1, "--seed", "4"] + ING, capsys)[0] == 0
    assert run(["ingest", "--corpus", tiny_corpus, "--bundle", b2, "--seed", "4"] + ING, capsys)[0] == 0
    for name in sorted(os.listdir(b1)):
        with open(os.path.join(b1, name), "rb") as f1, open(os.path.join(b2, name), "rb") as f2:
            assert f1.read() == f2.read(), name


def test_train_eval_query_inspect_pipeline(tiny_corpus, tmp_path, capsys):
    bundle = str(tmp_path / "bundle")
    model = str(tmp_path / "model.eqv")
    assert run(["ingest", "--corpus", tiny_corpus, "--bundle", bundle] + ING, capsys)[0] == 0

    code, out, _ = run(
        ["train", "--bundle", bundle, "--model", model, "--mode", "equation"] + TRN, capsys
    )
    assert code == 0
    assert os.path.exists(model)
    assert os.path.exists(model + ".trace.jsonl")
    with open(model + ".trace.jsonl") as f:
        rows = [json.loads(l) for l in f]
    assert all({"pass", "epoch", "validation_predictive_ll", "train_loss", "seconds"} <= set(r) for r in rows)
    assert all(math.isfinite(r["train_loss"]) and r["train_loss"] > 0 for r in rows)

    code, out, _ = run(["inspect", model], capsys)
    assert code == 0
    assert "mode: equation" in out and "config.seed: 0" in out

    code, out, _ = run(
        ["query", "eq2eq", "--id", "0", "-k", "5", "--model", model, "--bundle", bundle], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "rank\tid\tscore\tsurface"

    code, out, _ = run(
        ["query", "eq2word", "--id", "0", "-k", "3", "--model", model, "--bundle", bundle], capsys
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 4

    code, out, _ = run(
        ["query", "word2eq", "--words", "words,modeling,believing", "-k", "5",
         "--model", model, "--bundle", bundle], capsys
    )
    assert code == 0
    # header plus one row per equation up to k
    assert len(out.strip().splitlines()) >= 2


def test_train_determinism_byte_identical_models(tiny_corpus, tmp_path, capsys):
    bundle = str(tmp_path / "bundle")
    m1, m2 = str(tmp_path / "m1.eqv"), str(tmp_path / "m2.eqv")
    assert run(["ingest", "--corpus", tiny_corpus, "--bundle", bundle] + ING, capsys)[0] == 0
    assert run(["train", "--bundle", bundle, "--model", m1, "--mode", "equation"] + TRN, capsys)[0] == 0
    assert run(["train", "--bundle", bundle, "--model", m2, "--mode", "equation"] + TRN, capsys)[0] == 0
    assert open(m1, "rb").read() == open(m2, "rb").read()


def test_truncated_model_inspect_exits_3(tiny_corpus, tmp_path, capsys):
    bundle = str(tmp_path / "bundle")
    model = str(tmp_path / "model.eqv")
    assert run(["ingest", "--corpus", tiny_corpus, "--bundle", bundle] + ING, capsys)[0] == 0
    assert run(["train", "--bundle", bundle, "--model", model, "--mode", "word"] + TRN, capsys)[0] == 0
    raw = open(model, "rb").read()
    with open(model, "wb") as f:
        f.write(raw[: len(raw) // 2])
    code, _, err = run(["inspect", model], capsys)
    assert code == 3
    assert "checksum" in err or "truncated" in err


def test_eval_emits_one_row_per_config(tiny_corpus, tmp_path, capsys):
    bundle = str(tmp_path / "bundle")
    report = str(tmp_path / "report.tsv")
    assert run(["ingest", "--corpus", tiny_corpus, "--bundle", bundle] + ING, capsys)[0] == 0
    code, out, _ = run(
        ["eval", "--bundle", bundle, "--report", report,
         "--set", "eval_modes=word,equation", "--set", "eval_dims=4",
         "--set", "eval_word_windows=2,4", "--set", "eval_eq_windows=4",
         "--set", "max_epochs=2", "--set", "n_negatives=2",
         "--set", "eq_context_window=4"], capsys
    )
    assert code == 0
    lines = open(report).read().strip().splitlines()
    assert lines[0].startswith("# eqvec-eval 1")
    assert lines[1].split("\t") == [
        "mode", "k", "word_window", "eq_window", "valid_pseudo_ll",
        "test_pseudo_ll", "epochs", "selected",
    ]
    data_rows = lines[2:]
    # word mode collapses to one row per word window; equation mode E>=W
    assert len(data_rows) == 2 + 2
    assert sum(r.endswith("\t1") for r in data_rows) == 2  # one winner per mode


def test_config_file_and_cli_precedence(tiny_corpus, tmp_path, capsys):
    bundle = str(tmp_path / "bundle")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("min_tf = 2\ntop_stop = 0\nheldout_per_equation = 1\nn_negatives = 9\n")
    code, out, _ = run(
        ["ingest", "--corpus", tiny_corpus, "--bundle", bundle,
         "--config", str(cfgfile), "--set", "n_negatives=3"], capsys
    )
    assert code == 0
    manifest = json.load(open(os.path.join(bundle, "manifest.json")))
    assert manifest["params"]["n_negatives"] == 3  # CLI overrides file
    assert manifest["params"]["min_tf"] == 2


@pytest.mark.parametrize(
    "command, setting, message",
    [
        ("ingest", "no_such_key=1", "unknown config key"),
        ("ingest", "min_tf=abc", "min_tf"),
        ("train", "word_window=3", "word_window"),
        ("train", "mode=wrod", "wrod"),
        ("train", "init_scale=-1", "init_scale"),
        ("eval", "eval_dims=x", "eval_dims"),
        ("eval", "eval_modes=wrod", "eval_modes"),
        ("ingest", "heldout_window=-3", "heldout_window"),
        ("ingest", "workers=0", "workers"),
        ("train", "learning_rate=nan", "learning_rate"),
        ("eval", "eval_word_windows=3", "eval_word_windows"),
        ("eval", "eval_eq_windows=0", "eval_eq_windows"),
        ("eval", "eval_dims=0", "eval_dims"),
        ("eval", "eval_dims=8,08", "eval_dims: 8 is given more than once"),
        ("eval", "eval_modes=word, unit,word", "eval_modes: 'word' is given more than once"),
        ("eval", "eval_word_windows=4,8,4", "eval_word_windows: 4 is given more than once"),
        ("eval", "eval_eq_windows=8,8", "eval_eq_windows: 8 is given more than once"),
        ("eval", "eval_dims=", "eval_dims: the list is empty"),
        ("eval", "eval_modes=,", "eval_modes: the list is empty"),
        ("eval", "eval_word_windows=", "eval_word_windows: the list is empty"),
        ("train", "eval_eq_windows=", "eval_eq_windows: the list is empty"),
    ],
    ids=["unknown_key", "min_tf", "word_window", "mode", "init_scale", "eval_dims", "eval_modes",
         "heldout_window", "workers", "learning_rate", "eval_word_windows", "eval_eq_windows", "eval_dims_zero",
         "eval_dims_repeated", "eval_modes_repeated", "eval_word_windows_repeated", "eval_eq_windows_repeated",
         "eval_dims_empty", "eval_modes_empty", "eval_word_windows_empty", "eval_eq_windows_empty"],
)
def test_unknown_config_key_exits_2(command, setting, message, tiny_corpus, tiny_bundle,
                                    tmp_path, capsys):
    argv = {
        "ingest": ["--corpus", tiny_corpus, "--bundle", str(tmp_path / "b")],
        "train": ["--bundle", tiny_bundle, "--model", str(tmp_path / "m.eqv")],
        "eval": ["--bundle", tiny_bundle, "--report", str(tmp_path / "r.tsv")],
    }[command]
    code, _, err = run([command, "--set", setting] + argv, capsys)
    assert code == 2
    assert message in err
    assert not os.listdir(tmp_path)  # nothing written


# one non-default value for every ModelConfig and IngestParams field
NON_DEFAULT = dict(
    k=7, word_window=6, eq_window=18, eq_context_window=8, unit_window=2, n_negatives=3,
    learning_rate=0.05, max_epochs=4, init_scale=0.25, seed=9, negative_sampling="uniform",
    unit_joint=False, unit_context_mean=True, pseudo_likelihood="softmax",
    word2eq_vectors="alpha", min_tf=3, min_len=2, top_stop=5, abbrev_top=7, unit_min_count=2,
    symbol_window=2, heldout_per_equation=1, heldout_window=6, singleton_sample=4, workers=2,
)
CLI_ONLY = {"corpus_dir", "bundle_dir", "model_path", "report_path", "mode",
            "eval_modes", "eval_dims", "eval_word_windows", "eval_eq_windows"}


def test_every_dataclass_field_is_a_config_key():
    library = {f.name for cls in (ModelConfig, IngestParams) for f in fields(cls)}
    assert set(NON_DEFAULT) == library
    assert set(cli._KEY_TYPES) == library | CLI_ONLY
    assert len(cli._KEY_TYPES) == 34
    assert not library & {f.name for f in fields(RunConfig)}

    argv = ["train"]
    for key, value in NON_DEFAULT.items():
        argv += ["--set", f"{key}={value}"]
    cfg = build_config(make_parser().parse_args(argv))
    for cls, section in ((ModelConfig, cfg.model), (IngestParams, cfg.ingest)):
        for f in fields(cls):
            value = getattr(section, f.name)
            assert value == NON_DEFAULT[f.name] != f.default, f.name
    assert cfg.model.seed == cfg.ingest.seed == 9
    assert cfg.model.n_negatives == cfg.ingest.n_negatives == 3

    cfg = build_config(make_parser().parse_args(["train", "--set", "init_scale=0"]))
    assert cfg.model.init_scale is None  # 0 spells the dimension-scaled default


# --- queries on planted-corpus bundles ----------------------------------------------


def _planted_bundle(root, n_docs: int) -> str:
    corpus, bundle = str(root / f"corpus{n_docs}"), str(root / f"bundle{n_docs}")
    write_corpus(planted_corpus(n_docs=n_docs, seed=3), corpus)
    assert main(["ingest", "--corpus", corpus, "--bundle", bundle, "--set", "min_tf=4"]) == 0
    return bundle


@pytest.fixture(scope="module")
def planted_models(tmp_path_factory):
    """A 24-doc planted bundle, an equation and a unit model trained on it,
    and a 40-doc bundle from the same generator."""
    root = tmp_path_factory.mktemp("planted")
    bundle = _planted_bundle(root, 24)
    models = {}
    for mode in ("equation", "unit"):
        models[mode] = str(root / f"{mode}.eqv")
        assert main(["train", "--bundle", bundle, "--model", models[mode], "--mode", mode,
                     "--set", "k=8", "--set", "max_epochs=2"]) == 0
    return bundle, models, _planted_bundle(root, 40)


@pytest.mark.parametrize("family", ["eq2eq", "eq2word", "word2eq"])
def test_unit_model_query_prints_library_ranking(family, planted_models, capsys):
    bundle, models, _ = planted_models
    data = load_bundle(bundle)
    model = load_model(models["unit"], eq_units=data.eq_units)
    eq_id = next(e for e in range(data.n_equations)
                 if np.isfinite(model.equation_matrix("alpha")[e]).all())
    latex = lambda i: data.registry.latex[i]
    if family == "eq2eq":
        args, ranking, surface = ["--id", str(eq_id)], retrieval.nearest_equations(model, eq_id, 5), latex
    elif family == "eq2word":
        args, ranking = ["--id", str(eq_id)], retrieval.nearest_words(model, eq_id, 5)
        surface = lambda i: data.word_vocab.forms[i]
    else:
        args, surface = ["--words", "matrix,eigenvalue"], latex
        ranking = retrieval.equations_for_words(model, data.word_vocab, ["matrix", "eigenvalue"], 5)
    want = ["rank\tid\tscore\tsurface"] + [
        f"{rank}\t{i}\t{score:.6f}\t{surface(i)}" for rank, (i, score) in enumerate(ranking.hits, 1)
    ]
    code, out, _ = run(["query", family, *args, "-k", "5", "--model", models["unit"],
                        "--bundle", bundle], capsys)
    assert code == 0
    assert len(ranking.hits) == 5
    assert out.splitlines() == want


@pytest.mark.parametrize("family, derived", [("eq2eq", ["alpha"]), ("eq2word", []), ("word2eq", ["rho"])])
def test_cold_unit_query_derives_only_what_it_scans(family, derived, planted_models, capsys, monkeypatch):
    # eq2eq scans the equations' feature vectors, word2eq their interaction
    # vectors (the model's default); eq2word reads one equation's vectors
    # and derives no whole matrix
    bundle, models, _ = planted_models
    unit = load_model(models["unit"]).unit
    kinds = []
    real = model_mod.unit_means

    def spy(groups, rows):
        kinds.append(next(k for k in ("alpha", "rho") if np.array_equal(rows, getattr(unit, k))))
        return real(groups, rows)

    monkeypatch.setattr(model_mod, "unit_means", spy)
    eq_id = int(np.flatnonzero(np.diff(load_query_files(bundle).eq_units.ptr))[0])
    args = ["--words", "matrix,eigenvalue"] if family == "word2eq" else ["--id", str(eq_id)]
    code, out, _ = run(["query", family, *args, "--model", models["unit"], "--bundle", bundle], capsys)
    assert code == 0 and len(out.splitlines()) == 6
    assert kinds == derived


@pytest.mark.parametrize(
    "family, args, message",
    [
        ("eq2eq", ["--id", "999"], "unknown equation id 999"),
        ("eq2word", ["--id", "-1"], "unknown equation id -1"),
        ("eq2eq", ["--id", "0", "-k", "-2"], "-k must be at least 1"),
        ("word2eq", ["--words", "matrix", "-k", "0"], "-k must be at least 1"),
        ("word2eq", ["--words", " , ,"], "--words names no word"),
        ("word2eq", ["--words", "zzqx,qxzz"], "no query word is in the vocabulary"),
    ],
    ids=["eq2eq_id_999", "eq2word_id_-1", "k_-2", "k_0", "no_words", "unknown_words"],
)
def test_bad_query_argument_exits_2(family, args, message, planted_models, capsys):
    bundle, models, _ = planted_models
    code, out, err = run(["query", family, *args, "--model", models["unit"], "--bundle", bundle], capsys)
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("mode", ["equation", "unit"])
def test_model_from_another_bundle_exits_3(mode, planted_models, capsys):
    _, models, other_bundle = planted_models
    code, out, err = run(["query", "eq2eq", "--id", "0", "--model", models[mode],
                          "--bundle", other_bundle], capsys)
    assert code == 3
    assert out == ""
    assert "model has" in err


def test_model_with_too_few_units_exits_3(planted_models, tmp_path, capsys):
    bundle, models, _ = planted_models
    data = load_bundle(bundle)
    full = load_model(models["unit"], eq_units=data.eq_units)
    unit = EmbeddingTable.from_arrays(full.unit.rho[:-1], full.unit.alpha[:-1])
    short = Model("unit", full.config, full.word, unit=unit, n_equations=full.n_equations)
    path = save_model(short, str(tmp_path / "short.eqv"))
    code, out, err = run(["query", "eq2eq", "--id", "0", "--model", path, "--bundle", bundle], capsys)
    assert code == 3
    assert out == ""
    assert f"unit id {full.unit.size - 1}" in err


def _rewrite_header(src, dest, change, records=lambda r: r):
    """Copy a model file with ``change`` applied to its JSON header,
    ``records`` to the matrix records after it, and the checksum
    recomputed, so only what they change is wrong."""
    with open(src, "rb") as f:
        raw = f.read()
    (hlen,) = struct.unpack_from("<I", raw, 12)
    hjson = json.dumps(change(json.loads(raw[16 : 16 + hlen]))).encode()
    blob = raw[:12] + struct.pack("<I", len(hjson)) + hjson + records(raw[16 + hlen : -4])
    with open(dest, "wb") as f:
        f.write(blob + struct.pack("<I", zlib.crc32(blob)))


@pytest.mark.parametrize("command", ["query", "inspect"])
@pytest.mark.parametrize(
    "change",
    [
        lambda h: {**h, "config": {**h["config"], "no_such_key": 1}},
        lambda h: {k: v for k, v in h.items() if k != "mode"},
        lambda h: {**h, "config": {**h["config"], "k": str(h["config"]["k"])}},
        lambda h: {**h, "k": str(h["k"])},
        lambda h: [h],
        lambda h: {**h, "mode": "sentence"},
        lambda h: {**h, "config": {**h["config"], "learning_rate": -1.0}},
    ],
    ids=["unknown_config_key", "missing_mode", "config_k_string", "k_string", "json_list",
         "unknown_mode", "bad_config_value"],
)
def test_bad_model_header_exits_3(change, command, planted_models, tmp_path, capsys):
    bundle, models, _ = planted_models
    path = str(tmp_path / "bad.eqv")
    _rewrite_header(models["unit"], str(tmp_path / "same.eqv"), lambda h: h)
    assert run(["inspect", str(tmp_path / "same.eqv")], capsys)[0] == 0  # the rewrite alone is fine
    _rewrite_header(models["unit"], path, change)
    argv = {"query": ["query", "eq2eq", "--id", "0", "--model", path, "--bundle", bundle],
            "inspect": ["inspect", path]}[command]
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error: corrupt model header") and err.count("\n") == 1


def _swap_shape(index):
    """Swap the rows and columns of matrix record ``index`` (word rho, word
    alpha, unit rho, unit alpha); the data is left as it is."""
    def change(records):
        o = 0
        for _ in range(index):
            rows, cols = struct.unpack_from("<II", records, o)
            o += 8 + 4 * rows * cols
        rows, cols = struct.unpack_from("<II", records, o)
        assert rows != cols
        return records[:o] + struct.pack("<II", cols, rows) + records[o + 8 :]
    return change


@pytest.mark.parametrize(
    "change, records, message",
    [
        (None, lambda r: b"", "truncated model file"),
        (None, lambda r: r[:3], "truncated model file"),
        (None, _swap_shape(1), "a word matrix is 8x"),
        (None, _swap_shape(3), "a unit matrix is 8x"),
        (lambda h: {**h, "k": 7}, None, "x8, the header says"),
    ],
    ids=["cut_after_header", "cut_in_first_shape", "word_alpha_swapped", "unit_alpha_swapped", "header_k_7"],
)
def test_model_records_checked_against_header(change, records, message, planted_models, tmp_path, capsys):
    bundle, models, _ = planted_models
    path = str(tmp_path / "bad.eqv")
    _rewrite_header(models["unit"], path, change or (lambda h: h), records or (lambda r: r))
    with pytest.raises(ModelFileError, match=message):
        load_model(path)
    for family, args in (("eq2eq", ["--id", "0"]), ("eq2word", ["--id", "0"]), ("word2eq", ["--words", "matrix"])):
        code, out, err = run(["query", family, *args, "--model", path, "--bundle", bundle], capsys)
        assert code == 3
        assert out == ""
        assert message in err and err.count("\n") == 1 and "Traceback" not in err


# An eval grid of one quick row.
_ONE_ROW_GRID = ["--set", "eval_modes=word", "--set", "eval_dims=4", "--set", "eval_word_windows=2",
                 "--set", "max_epochs=1"]


def _paths_of_the_wrong_kind(tmp_path, bundle, models, corpus):
    a_file = str(tmp_path / "a_file")
    open(a_file, "w").close()
    a_dir = str(tmp_path / "a_dir")
    os.mkdir(a_dir)
    word = ["--mode", "word", "--set", "k=4", "--set", "max_epochs=1"]
    return {
        "query_model_dir": ["query", "eq2eq", "--id", "0", "--model", a_dir, "--bundle", bundle],
        "query_bundle_file": ["query", "eq2eq", "--id", "0", "--model", models["unit"], "--bundle", a_file],
        "inspect_dir": ["inspect", a_dir],
        "train_model_dir": ["train", "--bundle", bundle, "--model", a_dir, *word],
        "ingest_bundle_file": ["ingest", "--corpus", corpus, "--bundle", a_file],
        "eval_report_dir": ["eval", "--bundle", bundle, "--report", a_dir, *_ONE_ROW_GRID],
    }


@pytest.mark.parametrize(
    "case",
    ["query_model_dir", "query_bundle_file", "inspect_dir", "train_model_dir", "ingest_bundle_file",
     "eval_report_dir"],
)
def test_path_of_the_wrong_kind_exits_2(case, planted_models, tiny_corpus, tmp_path, capsys, monkeypatch):
    from eqvec import training

    fits = []

    def no_fit(*args, **kwargs):  # eval records a failed grid row and goes on
        fits.append(args)
        raise AssertionError("fitted before the output path was checked")

    monkeypatch.setattr(training, "train_model", no_fit)
    bundle, models, _ = planted_models
    argv = _paths_of_the_wrong_kind(tmp_path, bundle, models, tiny_corpus)[case]
    code, out, err = run(argv, capsys)
    assert fits == []
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_trace_path_a_directory_exits_2_before_the_fit(planted_models, tmp_path, capsys, monkeypatch):
    from eqvec import training

    monkeypatch.setattr(training, "train_model",
                        lambda *a, **kw: pytest.fail("fitted before the trace path was checked"))
    bundle, _, _ = planted_models
    model = tmp_path / "m.eqv"
    (tmp_path / "m.eqv.trace.jsonl").mkdir()
    code, out, err = run(["train", "--bundle", bundle, "--model", str(model), "--mode", "word"], capsys)
    assert code == 2 and out == "" and not model.exists()
    assert err.startswith("error: ") and "Is a directory" in err and err.count("\n") == 1


def test_eval_report_into_a_missing_directory(planted_models, tmp_path, capsys, monkeypatch):
    # the directory exists before the first fit, as for ``train --model``
    from eqvec import training

    report = tmp_path / "missing" / "deeper" / "r.tsv"
    fit, made = training.train_model, []

    def checking_fit(*args, **kwargs):
        made.append(report.parent.is_dir())
        return fit(*args, **kwargs)

    monkeypatch.setattr(training, "train_model", checking_fit)
    bundle, _, _ = planted_models
    code, out, err = run(["eval", "--bundle", bundle, "--report", str(report), *_ONE_ROW_GRID], capsys)
    assert code == 0, err
    assert made and all(made)
    assert report.read_text() == out


def test_ingest_leaves_a_directory_that_is_not_a_bundle(tmp_path, capsys):
    docs = tmp_path / "docs"
    write_corpus(planted_corpus(n_docs=10, seed=3), str(docs))
    (docs / "notes.txt").write_text("not a bundle\n")
    (docs / "sub").mkdir()
    (docs / "sub" / "kept.tex").write_text("x")

    def tree():
        return sorted((os.path.relpath(d, tmp_path), sorted(fs), sorted(ds)) for d, ds, fs in os.walk(tmp_path))

    before = tree()
    code, out, err = run(["ingest", "--corpus", str(docs), "--bundle", str(docs)], capsys)
    assert code == 2
    assert "not an empty directory or an eqvec bundle" in err
    assert tree() == before
    assert len([n for n in os.listdir(docs) if n.endswith(".tex")]) == 10


def test_word2eq_vectors_three_spellings(planted_models, tmp_path, capsys):
    bundle, models, _ = planted_models
    conf = tmp_path / "alpha.conf"
    conf.write_text("word2eq_vectors = alpha\n")
    # the same tables with alpha stored as the model's own choice
    stored = load_model(models["unit"])
    stored.config = dataclasses.replace(stored.config, word2eq_vectors="alpha")
    alpha_model = save_model(stored, str(tmp_path / "alpha.eqv"))

    def query(model, *extra):
        code, out, err = run(["query", "word2eq", "--words", "matrix,eigenvalue,probability", "-k", "8",
                              "--model", model, "--bundle", bundle, *extra], capsys)
        assert code == 0, err
        return out

    plain = query(models["unit"])
    spelled = [query(models["unit"], "--config", str(conf)),
               query(models["unit"], "--set", "word2eq_vectors=alpha"),
               query(models["unit"], "--vectors", "alpha")]
    assert spelled[0] == spelled[1] == spelled[2] == query(alpha_model) != plain
    # without a setting the model's stored choice holds; a setting overrides it
    assert plain == query(models["unit"], "--set", "word2eq_vectors=rho") == query(alpha_model, "--vectors", "rho")
    data = load_bundle(bundle)
    ranking = retrieval.equations_for_words(
        load_model(models["unit"], eq_units=data.eq_units), data.word_vocab,
        ["matrix", "eigenvalue", "probability"], 8,
    )
    assert plain.splitlines()[1:] == [
        f"{rank}\t{i}\t{score:.6f}\t{data.registry.latex[i]}"
        for rank, (i, score) in enumerate(ranking.hits, 1)
    ]


def _cut_in_half(path):
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(raw[: len(raw) // 2])


def _drop_last_row(path):
    # the last count: the string block still holds the row
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(raw[:-8])


@pytest.mark.parametrize(
    "name, damage",
    [
        ("manifest.json", _cut_in_half),
        ("vocab.bin", _cut_in_half),
        ("vocab.bin", _drop_last_row),
        ("equations.bin", _cut_in_half),
        ("equations.bin", _drop_last_row),
        ("eq_units.bin", _cut_in_half),
    ],
    ids=["manifest", "vocab", "vocab_last_line", "equations", "equations_last_line", "eq_units"],
)
def test_truncated_query_file_exits_3(name, damage, planted_models, tmp_path, capsys):
    bundle, models, _ = planted_models
    copy = str(tmp_path / "bundle")
    shutil.copytree(bundle, copy)
    damage(os.path.join(copy, name))
    code, out, err = run(["query", "eq2eq", "--id", "0", "--model", models["unit"],
                          "--bundle", copy], capsys)
    assert code == 3
    assert out == ""
    assert "Traceback" not in err


_QUERY_FILES = ("manifest.json", "vocab.bin", "equations.bin", "eq_units.bin", "model")


@settings(max_examples=240, deadline=None)
@given(name=st.sampled_from(_QUERY_FILES), mode=st.sampled_from(["equation", "unit"]),
       mutation=st.sampled_from(["flip", "rewrite", "truncate"]), draw=st.data())
def test_damaged_query_file_exits_0_or_3(name, mode, mutation, draw, planted_models):
    # one bit flipped, one byte rewritten, or the file cut short, in any of
    # the five files a query reads: every query family either answers or
    # exits 3 with a one-line error, never a traceback
    bundle, models, _ = planted_models
    with tempfile.TemporaryDirectory() as root:
        copy = os.path.join(root, "bundle")
        os.mkdir(copy)
        for f in _QUERY_FILES[:-1]:
            shutil.copy(os.path.join(bundle, f), copy)
        model = shutil.copy(models[mode], os.path.join(root, "m.eqv"))
        path = model if name == "model" else os.path.join(copy, name)
        with open(path, "rb") as f:
            raw = bytearray(f.read())
        at = draw.draw(st.integers(0, len(raw) - 1), label="at")
        if mutation == "flip":
            raw[at] ^= 1 << draw.draw(st.integers(0, 7), label="bit")
        elif mutation == "rewrite":
            raw[at] = draw.draw(st.integers(0, 255).filter(lambda b: b != raw[at]), label="byte")
        else:
            del raw[at:]
        with open(path, "wb") as f:
            f.write(raw)
        eq_id = str(np.flatnonzero(np.diff(load_query_files(bundle).eq_units.ptr))[0])  # one with units
        for family, args in (("eq2eq", ["--id", eq_id]), ("eq2word", ["--id", eq_id]),
                             ("word2eq", ["--words", "matrix,eigenvalue"])):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["query", family, *args, "--model", model, "--bundle", copy])
            assert code in (0, 3), err.getvalue()
            if code == 3:
                assert out.getvalue() == "" and err.getvalue().startswith("error: ")
                assert len(err.getvalue().splitlines()) == 1
            assert "Traceback" not in err.getvalue()


def _set_first_unit(value):
    def damage(path):
        with open(path, "rb") as f:
            raw = f.read()
        count = raw.index(b"\n") + 1
        n_equations, n_units = struct.unpack_from("<II", raw, count)  # and the length of equation 0
        assert n_units > 0
        with open(path, "r+b") as f:
            f.seek(count + 4 + 4 * n_equations)  # the first unit id of equation 0
            f.write(struct.pack("<i", value))
    return damage


@pytest.mark.parametrize("family", ["eq2eq", "eq2word", "word2eq"])
@pytest.mark.parametrize(
    "damage, message",
    [(_set_first_unit(-5), "unit id -5 out of range"),
     (_set_first_unit(-2), "unit id -2 out of range"),
     (drop_last_equation, "eq_units.bin holds 35 equations, equations.bin 36")],
    ids=["unit_id_-5", "unit_id_-2", "missing_record"],
)
def test_bad_eq_units_record_exits_3(damage, message, family, planted_models, tmp_path, capsys):
    bundle, models, _ = planted_models
    copy = str(tmp_path / "bundle")
    shutil.copytree(bundle, copy)
    damage(os.path.join(copy, "eq_units.bin"))
    args = ["--words", "matrix"] if family == "word2eq" else ["--id", "0"]
    for mode in ("unit", "equation"):
        code, out, err = run(["query", family, *args, "--model", models[mode], "--bundle", copy], capsys)
        assert code == 3
        assert out == ""
        assert message in err and len(err.splitlines()) == 1 and "Traceback" not in err


def test_eq_units_with_gaps_load_and_query_as_without(planted_models, tmp_path, capsys):
    # a -1 in eq_units.bin, which older writers left for each unit below
    # unit_min_count, is dropped on reading: the table and every answer are
    # those of the same bundle without the gaps
    bundle, models, _ = planted_models
    table = load_bundle(bundle).eq_units
    gapped = str(tmp_path / "gapped")
    shutil.copytree(bundle, gapped)
    # gaps before every row's units, after the first unit of every other row
    # and after the last unit of every third
    rows = [[-1, *ids[:1], *[-1] * (g % 2), *ids[1:], *[-1] * (g % 3 == 0)] for g, ids in table.items()]
    write_eq_units(os.path.join(gapped, "eq_units.bin"), rows)
    for load in (load_bundle, load_query_files):
        got = load(gapped).eq_units
        assert got.ptr.tolist() == table.ptr.tolist() and got.ids.tolist() == table.ids.tolist()
    eq_id = str(next(g for g, ids in table.items() if ids.size))
    for family, args in (("eq2eq", ["--id", eq_id]), ("eq2word", ["--id", eq_id]),
                         ("word2eq", ["--words", "matrix,eigenvalue"])):
        want, got = (run(["query", family, *args, "--model", models["unit"], "--bundle", b], capsys)
                     for b in (bundle, gapped))
        assert want[0] == 0 and len(want[1].splitlines()) > 1
        assert got == want


def _set_manifest(path, change):
    with open(os.path.join(path, "manifest.json")) as f:
        manifest = json.load(f)
    change(manifest)
    with open(os.path.join(path, "manifest.json"), "w") as f:
        json.dump(manifest, f)


@pytest.mark.parametrize(
    "command, change, message",
    [("query", lambda m: m.update(word_stop_forms=5), "word_stop_forms is not a list of strings"),
     ("query", lambda m: m.update(word_stop_forms="abc"), "word_stop_forms is not a list of strings"),
     ("query", lambda m: m.update(word_stop_forms=["a", 1]), "word_stop_forms is not a list of strings"),
     ("train", lambda m: m["params"].update(min_tf="x"), "min_tf must be an integer >= 0, got 'x'"),
     ("train", lambda m: m["params"].update(seed=-1), "seed must be an integer >= 0, got -1")],
    ids=["stop_forms_int", "stop_forms_str", "stop_forms_not_str", "params_min_tf_str", "params_seed_negative"],
)
def test_malformed_manifest_field_exits_3(command, change, message, planted_models, tmp_path, capsys):
    bundle, models, _ = planted_models
    copy = str(tmp_path / "bundle")
    shutil.copytree(bundle, copy)
    _set_manifest(copy, change)
    model = str(tmp_path / "m.eqv")
    argv = {"query": ["query", "eq2eq", "--id", "0", "--model", models["unit"]],
            "train": ["train", "--model", model, "--mode", "word", "--set", "max_epochs=1"]}[command]
    code, out, err = run([*argv, "--bundle", copy], capsys)
    assert code == 3 and out == "" and not os.path.exists(model)
    assert message in err and len(err.splitlines()) == 1 and "Traceback" not in err


def test_version_1_bundle_exits_3_naming_ingest(planted_models, tmp_path, capsys):
    # version 3 is the layout with text string tables, version 2 the one
    # with text held-out files, version 1 the one before it
    bundle, models, _ = planted_models
    copy = str(tmp_path / "bundle")
    shutil.copytree(bundle, copy)
    model, report = str(tmp_path / "m.eqv"), str(tmp_path / "r.tsv")
    for version in (1, 2, 3):
        _set_manifest(copy, lambda m: m.update(version=version))
        for argv in (["query", "eq2eq", "--id", "0", "--model", models["unit"]],
                     ["train", "--model", model, "--mode", "word", "--set", "max_epochs=1"],
                     ["eval", "--report", report, *_ONE_ROW_GRID]):
            code, out, err = run([*argv, "--bundle", copy], capsys)
            assert code == 3 and out == "", argv
            assert err.splitlines() == [f"error: bundle {copy} has format version {version}, this eqvec reads 4: "
                                        "re-run `eqvec ingest` to rebuild it"]
    assert not os.path.exists(model) and not os.path.exists(report)


def test_repeated_vocabulary_form_exits_3(planted_models, tmp_path, capsys):
    # two ids for one form: a word query would read one of them silently
    bundle, models, _ = planted_models
    copy = str(tmp_path / "bundle")
    shutil.copytree(bundle, copy)
    forms, _ = reference_bundle.rewrite_table(os.path.join(copy, "vocab.bin"),
                                              lambda s, c: ([s[0], s[0], *s[2:]], c))
    form = forms[0]
    for mode in ("unit", "equation"):
        code, out, err = run(["query", "word2eq", "--words", form, "--model", models[mode], "--bundle", copy], capsys)
        assert code == 3
        assert out == ""
        assert f"form {form!r} is in more than one row" in err and len(err.splitlines()) == 1
        assert "Traceback" not in err


def test_flipped_stream_code_exits_3(tiny_bundle, tmp_path, capsys):
    copy = str(tmp_path / "bundle")
    shutil.copytree(tiny_bundle, copy)
    path = os.path.join(copy, "streams.bin")
    with open(path, "rb") as f:
        raw = bytearray(f.read())
    header = raw.index(b"\n") + 1
    n_docs, id_bytes = struct.unpack_from("<II", raw, header)
    first_code = header + 8 + id_bytes + 4 * n_docs  # after the doc ids and the lengths
    assert int.from_bytes(raw[first_code : first_code + 4], "little") < 2**22  # a word id
    raw[first_code + 2] ^= 0x40  # bit 22 of the first code
    with open(path, "wb") as f:
        f.write(raw)
    model = str(tmp_path / "m.eqv")
    code, out, err = run(["train", "--bundle", copy, "--model", model, "--set", "max_epochs=1"], capsys)
    assert code == 3
    assert "out of range" in err and "Traceback" not in err
    assert not os.path.exists(model)


@pytest.fixture(scope="module")
def tiny_data(tiny_bundle):
    return load_bundle(tiny_bundle)


_HELDOUT_MUTATIONS = ["id_out_of_range", "position_not_target", "length"]
_LENGTH_DELTAS = [-2, -1, 1, 2, 2**31]


def _mutated_heldout(draw, words: np.ndarray, data, mutation: str, index: int) -> np.ndarray:
    """The u32 words of a held-out file after its header line after one
    mutation of item ``index % n``'s fields or of a length.  The words are
    the count n, stream[n], position[n], eq_id[n], the context lengths[n]
    and codes, then the candidate lengths[n] and word ids."""
    words = words.astype(np.int64)
    n = int(words[0])
    i = index % n
    ctx_lengths = 1 + 3 * n
    cand_lengths = ctx_lengths + n + int(words[ctx_lengths : ctx_lengths + n].sum())
    ctx = ctx_lengths + n + int(words[ctx_lengths : ctx_lengths + i].sum())
    ctx = range(ctx, ctx + int(words[ctx_lengths + i]))
    cand = cand_lengths + n + int(words[cand_lengths : cand_lengths + i].sum())
    cand = range(cand, cand + int(words[cand_lengths + i]))
    n_words, n_eqs, top = data.n_words, data.n_equations, 2**32 - 1
    if mutation == "id_out_of_range":
        field = draw(st.sampled_from(["stream", "eq_id", "context", "candidate"]))
        if field == "stream":
            at, bad = 1 + i, [len(data.streams), len(data.streams) + 3, top]
        elif field == "eq_id":
            at, bad = 1 + 2 * n + i, [n_eqs, n_eqs + 5, top]
        elif field == "context":  # a word past the vocabulary, or an equation past the registry (the gap code too)
            at, bad = draw(st.sampled_from(ctx)), [n_words, n_words + 7, int(EQ_TAG) - 1, int(EQ_TAG) + n_eqs, top]
        else:  # the target or a negative
            at, bad = draw(st.sampled_from(cand)), [n_words, n_words + 3, top]
        words[at] = draw(st.sampled_from(bad))
    elif mutation == "position_not_target":
        codes = data.streams[int(words[1 + i])].codes.tolist()
        other = [p for p in [*range(len(codes) + 2), top] if not (p < len(codes) and codes[p] == words[cand[0]])]
        words[1 + n + i] = draw(st.sampled_from(other))
    else:  # a length: the item count, or one item's context or candidate count
        at = draw(st.sampled_from([0, ctx_lengths + i, cand_lengths + i]))
        words[at] = (words[at] + draw(st.sampled_from(_LENGTH_DELTAS))) % 2**32
    return words


@settings(max_examples=60, deadline=None)
@given(split=st.sampled_from(["valid", "test"]), index=st.integers(0, 99),
       mutation=st.sampled_from(_HELDOUT_MUTATIONS), draw=st.data())
def test_heldout_row_mutation_exits_3(split, index, mutation, draw, tiny_bundle, tiny_data):
    with tempfile.TemporaryDirectory() as root:
        copy = os.path.join(root, "bundle")
        shutil.copytree(tiny_bundle, copy)
        path = os.path.join(copy, f"heldout.{split}.bin")
        with open(path, "rb") as f:
            raw = f.read()
        at = raw.index(b"\n") + 1
        words = _mutated_heldout(draw.draw, np.frombuffer(raw, dtype="<u4", offset=at), tiny_data, mutation, index)
        with open(path, "wb") as f:
            f.write(raw[:at] + words.astype("<u4").tobytes())
        model = os.path.join(root, "m.eqv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["train", "--bundle", copy, "--model", model, "--set", "max_epochs=1"])
        assert code == 3, err.getvalue()
        assert out.getvalue() == "" and not os.path.exists(model)
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")


def _counts(count):
    """A string-table change that maps each (row index, count) to a new count."""
    return lambda s, c: (s, [count(i, n) for i, n in enumerate(c)])


def _drop_row(i):
    """A string-table change that drops row ``i``: each later row's id moves down one."""
    return lambda s, c: (s[:i] + s[i + 1 :], c[:i] + c[i + 1 :])


@pytest.mark.parametrize(
    "name,change,message",
    [
        ("vocab.bin", _counts(lambda i, n: n if i == 0 else 0), "below 1"),  # all sampling weight on one word
        ("vocab.bin", _counts(lambda i, n: 2**64 - n if i == 1 else n), "past int64"),  # -n as a u64
        ("units.bin", _counts(lambda i, n: 0 if i == 0 else n), "below 1"),
        ("equations.bin", _counts(lambda i, n: 0 if i == 0 else n), "below 1"),
        ("equations.bin", _counts(lambda i, n: 2**63 if i == 1 else n), "equations.bin: count 9223372036854775808 "
                                                                          "past int64"),
        ("equations.bin", _drop_row(1), "rows, the manifest records"),
    ],
    ids=["vocab_one_nonzero", "vocab_negative", "units_zero", "equations_zero", "equations_past_int64",
         "equations_id_skipped"],
)
def test_count_below_one_exits_3(name, change, message, tiny_bundle, tmp_path):
    copy = str(tmp_path / "bundle")
    shutil.copytree(tiny_bundle, copy)
    reference_bundle.rewrite_table(os.path.join(copy, name), change)
    model = str(tmp_path / "m.eqv")
    code, out, err = fresh(["train", "--bundle", copy, "--model", model, "--mode", "unit",
                            "--set", "max_epochs=1"], timeout=60)
    assert code == 3
    assert message in err and len(err.splitlines()) == 1 and "Traceback" not in err
    assert not os.path.exists(model)


def test_repeated_doc_id_in_streams_exits_3(tiny_bundle, tmp_path, capsys):
    # one document renamed to another: the streams file is at fault, not
    # the held-out items that name the renamed document
    copy = str(tmp_path / "bundle")
    shutil.copytree(tiny_bundle, copy)
    path = os.path.join(copy, "streams.bin")
    with open(path, "rb") as f:
        raw = f.read()
    assert raw.count(b"one\nthree\ntwo") == 1  # the doc id block, in file name order
    with open(path, "wb") as f:
        f.write(raw.replace(b"one\nthree\ntwo", b"one\nthree\none"))
    model = str(tmp_path / "m.eqv")
    code, out, err = run(["train", "--bundle", copy, "--model", model, "--set", "max_epochs=1"], capsys)
    assert code == 3 and out == "" and not os.path.exists(model)
    assert err.splitlines() == [f"error: {path}: document 'one' is in more than one record"]


def test_count_swamping_the_rest_exits_1(tiny_bundle, tmp_path):
    # every count is valid, but one word holds all but ~1e-15 of the weight:
    # drawing negatives that exclude it is refused instead of never ending
    copy = str(tmp_path / "bundle")
    shutil.copytree(tiny_bundle, copy)
    reference_bundle.rewrite_table(os.path.join(copy, "vocab.bin"), _counts(lambda i, n: 10**17 if i == 1 else n))
    model = str(tmp_path / "m.eqv")
    code, out, err = fresh(["train", "--bundle", copy, "--model", model, "--mode", "word",
                            "--set", "max_epochs=1"], timeout=60)
    assert code == 1
    assert "nearly all the sampling weight" in err and "Traceback" not in err
    assert not os.path.exists(model)


def test_doc_id_with_a_tab_is_ingested(tiny_corpus, tmp_path, capsys):
    # a doc id is its file name; no bundle file separates doc ids with tabs
    corpus = tmp_path / "corpus"
    shutil.copytree(tiny_corpus, corpus)
    (corpus / "one\tx.tex").write_text("Modeling words everywhere always believing.\n$$ q + r $$\nwords believing.")
    bundle = str(tmp_path / "bundle")
    code, _, err = run(["ingest", "--corpus", str(corpus), "--bundle", bundle] + ING, capsys)
    assert code == 0 and err == ""
    assert load_bundle(bundle).streams.doc_ids == ["one", "one\tx", "three", "two"]


@pytest.mark.parametrize("name", [b"one\xffx.tex"], ids=["byte_0xff"])
def test_doc_id_a_bundle_cannot_hold_is_skipped(name, tiny_corpus, tiny_bundle, tmp_path):
    # a doc id is its file name; a byte that is not UTF-8 could not be
    # written to streams.bin
    corpus = tmp_path / "corpus"
    shutil.copytree(tiny_corpus, corpus)
    with open(os.path.join(os.fsencode(corpus), name), "wb") as f:
        f.write(b"Modeling words everywhere always believing.\n$$ q + r $$\nwords believing modeling.")
    bundle = str(tmp_path / "bundle")
    code, out, err = fresh(["ingest", "--corpus", str(corpus), "--bundle", bundle] + ING, timeout=60)
    assert code == 0 and "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("warning: skipping ")
    for f in sorted(os.listdir(tiny_bundle)):  # as if the file were not there
        with open(os.path.join(tiny_bundle, f), "rb") as a, open(os.path.join(bundle, f), "rb") as b:
            assert a.read() == b.read(), f
    model = str(tmp_path / "m.eqv")
    assert fresh(["train", "--bundle", bundle, "--model", model] + TRN, timeout=120)[0] == 0


def test_deeply_nested_equation_ingests(tiny_corpus, tiny_bundle, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(tiny_corpus, corpus)
    deep = "{" * 3000 + "x" + "}" * 3000
    (corpus / "deep.tex").write_text(f"Deep words modeling always.\n\\[ {deep} \\]\nbelieving words everywhere.")
    bundle = str(tmp_path / "bundle")
    code, _, err = run(["ingest", "--corpus", str(corpus), "--bundle", bundle] + ING, capsys)
    assert code == 0 and "Traceback" not in err

    def units_by_latex(path):
        data = load_bundle(path)
        return {latex: [data.unit_vocab.forms[u] for u in data.eq_units[g] if u >= 0]
                for g, latex in enumerate(data.registry.latex)}

    before, after = units_by_latex(tiny_bundle), units_by_latex(bundle)
    assert after.pop(deep) == []  # untokenizable: no units
    assert after == before


# --- one parser per process, and a query imports only the query path ---------------------

SRC = os.path.dirname(os.path.dirname(eqvec.__file__))


def fresh(argv, *flags, timeout=300, env=None):
    """``python [flags] -m eqvec argv`` in a new interpreter, with ``env``
    added to the environment: (exit code, stdout, stderr)."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, *flags, "-m", "eqvec", *argv], capture_output=True, text=True,
                          encoding="utf-8", env={**os.environ, **(env or {}), "PYTHONPATH": path}, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


# an ASCII locale, with neither locale coercion nor UTF-8 mode to mend it
_ASCII_LOCALE = {"LC_ALL": "C", "LANG": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def test_ingest_and_query_under_an_ascii_locale(tiny_corpus, tmp_path, capsys):
    # every file eqvec writes or reads is UTF-8 by name: a corpus, a config
    # file and a bundle holding non-ASCII text work under any locale, and
    # the bundle's bytes do not depend on it
    corpus = tmp_path / "corpus"
    shutil.copytree(tiny_corpus, corpus)
    (corpus / "four.tex").write_text("Words believing caf\u00e9 modeling.\n$$ x_{\u00e9} $$\ncaf\u00e9 words always.",
                                     encoding="utf-8")
    config = tmp_path / "run.cfg"
    config.write_text("# r\u00e9glages\nmin_tf = 2\n", encoding="utf-8")
    ingest = ["ingest", "--corpus", str(corpus), "--config", str(config), *ING[2:]]
    bundle, model = str(tmp_path / "bundle"), str(tmp_path / "m.eqv")
    code, _, err = fresh([*ingest, "--bundle", bundle], env=_ASCII_LOCALE, timeout=60)
    assert code == 0, err
    assert run([*ingest, "--bundle", str(tmp_path / "utf8")], capsys)[0] == 0
    assert {f: (tmp_path / "bundle" / f).read_bytes() for f in os.listdir(bundle)} == {
        f: (tmp_path / "utf8" / f).read_bytes() for f in os.listdir(tmp_path / "utf8")}
    data = load_bundle(bundle)
    eq = data.registry.latex.index("x_{\u00e9}")
    code, _, err = fresh(["train", "--bundle", bundle, "--model", model, "--mode", "equation", *TRN, "--config",
                          str(config)], env=_ASCII_LOCALE, timeout=60)
    assert code == 0, err
    # query rows are UTF-8 bytes whatever stdout's encoding (an empty
    # PYTHONIOENCODING is none), and an in-process caller's text stream
    # gets the same text
    query = ["query", "word2eq", "--words", "words", "-k", "5", "--model", model, "--bundle", bundle]
    code, out, err = fresh(query, env={**_ASCII_LOCALE, "PYTHONIOENCODING": ""}, timeout=60)
    assert code == 0, err
    assert f"\t{eq}\t" in out and "\tx_{\u00e9}\n".encode() in out.encode("utf-8")
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert main(query) == 0
    assert text.getvalue() == out


def test_reused_parser_leaks_no_state(planted_models, monkeypatch, capsys):
    bundle, models, _ = planted_models
    files = ["--model", models["unit"], "--bundle", bundle]
    calls = [
        ["query", "eq2eq", "--id", "3", "--set", "seed=3", *files],
        ["query", "word2eq", "--words", "matrix,eigenvalue", *files],
        ["train", "--mode", "bogus"],
        ["query", "eq2word", "--id", "3", *files],
        ["query", "eq2eq", "--id", "3", *files],  # the first call's subparser again
    ]
    seen = []

    def recording(args):
        cfg = build_config(args)
        seen.append((args.set, cfg.model.seed))
        return cfg

    monkeypatch.setattr(cli, "build_config", recording)
    assert make_parser() is make_parser()
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        assert (code, out.out, out.err) == fresh(argv), argv
    default = ModelConfig().seed
    assert default != 3
    assert seen == [(["seed=3"], 3)] + [(None, default)] * 3


def test_query_imports_only_the_query_path(planted_models, capsys):
    bundle, models, _ = planted_models
    argv = ["query", "eq2eq", "--id", "3", "--model", models["unit"], "--bundle", bundle]
    code, out, err = fresh(argv, "-X", "importtime")
    assert code == 0
    loaded = {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
              if line.startswith("import time:")}
    assert {"eqvec.cli", "eqvec.bundle", "eqvec.modelfile", "eqvec.retrieval"} <= loaded
    unused = {"eqvec.training", "eqvec.passes", "eqvec.evaluation", "eqvec.slt", "eqvec.tex", "eqvec.draws",
              "concurrent.futures.process"}
    assert not loaded & unused
    assert main(argv) == 0
    assert out == capsys.readouterr().out
