"""Command-line pipeline: exit codes, artifacts, determinism."""

import dataclasses
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import zlib
from dataclasses import fields

import numpy as np
import pytest

import eqvec
from eqvec import cli, retrieval
from eqvec.bundle import load_bundle
from eqvec.cli import RunConfig, build_config, main, make_parser
from eqvec.corpus import IngestParams
from eqvec.model import EmbeddingTable, Model, ModelConfig
from eqvec.modelfile import load_model, save_model
from eqvec.synthetic import planted_corpus, write_corpus


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


ING = ["--set", "min_tf=2", "--set", "top_stop=0", "--set", "heldout_per_equation=1",
       "--set", "n_negatives=3"]
TRN = ["--set", "k=6", "--set", "eq_window=4", "--set", "eq_context_window=4",
       "--set", "max_epochs=3", "--set", "n_negatives=3"]


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
    for f in ("manifest.json", "vocab.tsv", "equations.tsv", "streams.bin"):
        assert os.path.exists(os.path.join(bundle, f))


def test_ingest_missing_directory_exits_2(capsys):
    code, out, err = run(["ingest", "--corpus", "/nonexistent/nowhere"], capsys)
    assert code == 2
    assert "not found" in err


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


def test_ingest_parallel_workers_byte_identical(tiny_corpus, tmp_path, capsys):
    b1, b2 = str(tmp_path / "b1"), str(tmp_path / "b2")
    assert run(["ingest", "--corpus", tiny_corpus, "--bundle", b1] + ING, capsys)[0] == 0
    assert run(["ingest", "--corpus", tiny_corpus, "--bundle", b2, "--workers", "2"] + ING, capsys)[0] == 0
    for name in sorted(os.listdir(b1)):
        with open(os.path.join(b1, name), "rb") as f1, open(os.path.join(b2, name), "rb") as f2:
            assert f1.read() == f2.read(), name


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
    ],
    ids=["unknown_key", "min_tf", "word_window", "mode", "init_scale", "eval_dims", "eval_modes",
         "heldout_window", "workers", "learning_rate", "eval_word_windows", "eval_eq_windows"],
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
    latex = lambda i: data.registry.records[i].latex
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


@pytest.mark.parametrize(
    "family, args, message",
    [
        ("eq2eq", ["--id", "999"], "unknown equation id 999"),
        ("eq2word", ["--id", "-1"], "unknown equation id -1"),
        ("eq2eq", ["--id", "0", "-k", "-2"], "-k must be at least 1"),
        ("word2eq", ["--words", "matrix", "-k", "0"], "-k must be at least 1"),
    ],
    ids=["eq2eq_id_999", "eq2word_id_-1", "k_-2", "k_0"],
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


def _rewrite_header(src, dest, change):
    """Copy a model file with ``change`` applied to its JSON header and the
    checksum recomputed, so only the header is wrong."""
    with open(src, "rb") as f:
        raw = f.read()
    (hlen,) = struct.unpack_from("<I", raw, 12)
    hjson = json.dumps(change(json.loads(raw[16 : 16 + hlen]))).encode()
    blob = raw[:12] + struct.pack("<I", len(hjson)) + hjson + raw[16 + hlen : -4]
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
        f"{rank}\t{i}\t{score:.6f}\t{data.registry.records[i].latex}"
        for rank, (i, score) in enumerate(ranking.hits, 1)
    ]


def _cut_in_half(path):
    with open(path, "rb") as f:
        raw = f.read()
    with open(path, "wb") as f:
        f.write(raw[: len(raw) // 2])


def _drop_last_line(path):
    with open(path) as f:
        lines = f.readlines()
    with open(path, "w") as f:
        f.writelines(lines[:-1])


@pytest.mark.parametrize(
    "name, damage",
    [
        ("manifest.json", _cut_in_half),
        ("vocab.tsv", _cut_in_half),
        ("vocab.tsv", _drop_last_line),
        ("equations.tsv", _cut_in_half),
        ("equations.tsv", _drop_last_line),
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


def test_flipped_stream_code_exits_3(tiny_bundle, tmp_path, capsys):
    copy = str(tmp_path / "bundle")
    shutil.copytree(tiny_bundle, copy)
    path = os.path.join(copy, "streams.bin")
    with open(path, "rb") as f:
        raw = bytearray(f.read())
    header = raw.index(b"\n") + 1
    doc_id_len = int.from_bytes(raw[header + 4 : header + 6], "little")
    first_code = header + 4 + 2 + doc_id_len + 4
    assert int.from_bytes(raw[first_code : first_code + 4], "little") < 2**22  # a word id
    raw[first_code + 2] ^= 0x40  # bit 22 of the first code
    with open(path, "wb") as f:
        f.write(raw)
    model = str(tmp_path / "m.eqv")
    code, out, err = run(["train", "--bundle", copy, "--model", model, "--set", "max_epochs=1"], capsys)
    assert code == 3
    assert "out of range" in err and "Traceback" not in err
    assert not os.path.exists(model)


def _set_counts(path, count):
    """Rewrite the frequency or occurrence column of a bundle table; ``count``
    maps (row index, old value) to the new value."""
    with open(path) as f:
        header, *rows = f.read().splitlines()
    cols = [r.split("\t") for r in rows]
    col = 2 if path.endswith(("vocab.tsv", "units.tsv")) else 1
    for i, c in enumerate(cols):
        c[col] = str(count(i, int(c[col])))
    with open(path, "w") as f:
        f.write("\n".join([header] + ["\t".join(c) for c in cols]) + "\n")


@pytest.mark.parametrize(
    "name,count",
    [
        ("vocab.tsv", lambda i, n: n if i == 0 else 0),  # all sampling weight on one word
        ("vocab.tsv", lambda i, n: -n if i == 1 else n),
        ("units.tsv", lambda i, n: 0 if i == 0 else n),
        ("equations.tsv", lambda i, n: 0 if i == 0 else n),
    ],
    ids=["vocab_one_nonzero", "vocab_negative", "units_zero", "equations_zero"],
)
def test_count_below_one_exits_3(name, count, tiny_bundle, tmp_path):
    copy = str(tmp_path / "bundle")
    shutil.copytree(tiny_bundle, copy)
    _set_counts(os.path.join(copy, name), count)
    model = str(tmp_path / "m.eqv")
    code, out, err = fresh(["train", "--bundle", copy, "--model", model, "--mode", "unit",
                            "--set", "max_epochs=1"], timeout=60)
    assert code == 3
    assert "below 1" in err and "Traceback" not in err
    assert not os.path.exists(model)


def test_count_swamping_the_rest_exits_1(tiny_bundle, tmp_path):
    # every count is valid, but one word holds all but ~1e-15 of the weight:
    # drawing negatives that exclude it is refused instead of never ending
    copy = str(tmp_path / "bundle")
    shutil.copytree(tiny_bundle, copy)
    _set_counts(os.path.join(copy, "vocab.tsv"), lambda i, n: 10**17 if i == 1 else n)
    model = str(tmp_path / "m.eqv")
    code, out, err = fresh(["train", "--bundle", copy, "--model", model, "--mode", "word",
                            "--set", "max_epochs=1"], timeout=60)
    assert code == 1
    assert "nearly all the sampling weight" in err and "Traceback" not in err
    assert not os.path.exists(model)


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
        return {r.latex: [data.unit_vocab.forms[u] for u in data.eq_units[r.eq_id] if u >= 0]
                for r in data.registry.records}

    before, after = units_by_latex(tiny_bundle), units_by_latex(bundle)
    assert after.pop(deep) == []  # untokenizable: no units
    assert after == before


# --- one parser per process, and a query imports only the query path ---------------------

SRC = os.path.dirname(os.path.dirname(eqvec.__file__))


def fresh(argv, *flags, timeout=300):
    """``python [flags] -m eqvec argv`` in a new interpreter: (exit code, stdout, stderr)."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, *flags, "-m", "eqvec", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


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
    unused = {"eqvec.training", "eqvec.passes", "eqvec.evaluation", "eqvec.slt",
              "concurrent.futures.process"}
    assert not loaded & unused
    assert main(argv) == 0
    assert out == capsys.readouterr().out
