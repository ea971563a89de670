"""Command-line pipeline: exit codes, artifacts, determinism."""

import json
import math
import os
from dataclasses import fields

import pytest

from eqvec import cli
from eqvec.cli import RunConfig, build_config, main, make_parser
from eqvec.corpus import IngestParams
from eqvec.model import ModelConfig


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
    from eqvec.synthetic import planted_corpus, write_corpus

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
    ],
    ids=["unknown_key", "min_tf", "word_window", "mode", "init_scale", "eval_dims", "eval_modes"],
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
