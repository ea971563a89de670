"""Training protocol: frozen passes, mode reduction, determinism, stopping."""

import json

import numpy as np
import pytest

from eqvec import cli, evaluation
from eqvec.bundle import save_bundle
from eqvec.corpus import IngestParams, ingest_corpus
from eqvec.model import ModelConfig
from eqvec.modelfile import load_model
from eqvec.tex import RawDocument
from eqvec.training import NegativeSampler, TrainingDiverged, train_model


def make_corpus(n_docs=24, with_equations=True, seed=3):
    """Small two-topic corpus; equations co-occur with one topic each."""
    rng = np.random.default_rng(seed)
    topics = {
        0: ["probability", "inference", "posterior", "likelihood", "sampling", "density"],
        1: ["matrix", "eigenvalue", "projection", "orthogonal", "transpose", "subspace"],
    }
    fillers = ["common", "words", "shared", "across", "every", "topic", "area", "text"]
    eqs = {0: [r"p(x_{i}) = \theta_{i}", r"\log p = \sum_{j} \theta_{j}"],
           1: [r"A v = \lambda v", r"M = U \Sigma V^{T}"]}
    docs = []
    for d in range(n_docs):
        cls = d % 2
        words = []
        for _ in range(40):
            pool = topics[cls] if rng.random() < 0.5 else fillers
            words.append(pool[int(rng.integers(len(pool)))])
        text = " ".join(words[:20])
        if with_equations:
            t = topics[cls]
            flank = [t[int(rng.integers(len(t)))] for _ in range(4)]
            eq = eqs[cls][d % 2]
            text += (
                f" {flank[0]} {flank[1]}\n\\begin{{equation}}\n{eq}\n\\end{{equation}}\n"
                f"{flank[2]} {flank[3]} "
            )
        text += " ".join(words[20:])
        docs.append(RawDocument(f"d{d:02d}", text))
    params = IngestParams(
        min_tf=4, min_len=4, top_stop=0, abbrev_top=0,
        heldout_per_equation=1, heldout_window=4, n_negatives=4, seed=9,
    )
    return ingest_corpus(docs, params)


CFG = ModelConfig(k=8, word_window=4, eq_window=8, eq_context_window=8,
                  unit_window=2, n_negatives=4, learning_rate=0.05,
                  max_epochs=4, seed=13)


def test_word_table_frozen_through_equation_pass():
    data = make_corpus()
    model, _ = train_model(data, CFG, "equation")
    word_only, _ = train_model(data, CFG, "word")
    assert model.word.checksum() == word_only.word.checksum()


def test_word_table_frozen_through_unit_pass():
    # the two-pass unit protocol freezes words, like the equation pass
    data = make_corpus()
    model, _ = train_model(data, CFG.with_overrides(unit_joint=False), "unit")
    word_only, _ = train_model(data, CFG, "word")
    assert model.word.checksum() == word_only.word.checksum()


def test_equation_pass_trains_equation_vectors():
    data = make_corpus()
    model, _ = train_model(data, CFG, "equation")
    init_scale = CFG.scale
    # trained feature vectors moved well beyond the initialization range
    assert np.abs(model.eq.alpha).max() > 2 * init_scale


def test_mode_reduction_zero_equations_bit_identical():
    data = make_corpus(with_equations=False)
    assert data.n_equations == 0
    word_m, _ = train_model(data, CFG, "word")
    eq_m, _ = train_model(data, CFG, "equation")
    unit_m, _ = train_model(data, CFG, "unit")
    assert word_m.word.rho.tobytes() == eq_m.word.rho.tobytes() == unit_m.word.rho.tobytes()
    assert word_m.word.alpha.tobytes() == eq_m.word.alpha.tobytes() == unit_m.word.alpha.tobytes()
    assert eq_m.eq.size == 0


def test_determinism_same_seed_same_bytes():
    data = make_corpus()
    a, _ = train_model(data, CFG, "equation")
    b, _ = train_model(data, CFG, "equation")
    assert a.word.rho.tobytes() == b.word.rho.tobytes()
    assert a.eq.rho.tobytes() == b.eq.rho.tobytes()
    assert a.eq.alpha.tobytes() == b.eq.alpha.tobytes()


def test_different_seed_different_bytes():
    data = make_corpus()
    a, _ = train_model(data, CFG, "equation")
    b, _ = train_model(data, CFG.with_overrides(seed=14), "equation")
    assert a.word.rho.tobytes() != b.word.rho.tobytes()


def test_epoch_cap_respected():
    data = make_corpus()
    _, records = train_model(data, CFG, "word")
    assert max(r.epoch for r in records) <= CFG.max_epochs
    # validation scoring is timed inside the epoch
    assert all(0 <= r.score_seconds <= r.seconds for r in records)


def test_trace_stops_at_first_non_improvement():
    data = make_corpus()
    _, records = train_model(data, CFG.with_overrides(max_epochs=20), "word")
    trace = [r.validation_score for r in records if r.pass_name == "word"]
    for i in range(1, len(trace) - 1):
        assert trace[i] > trace[i - 1]  # improved everywhere except possibly the last
    if len(trace) < 20:
        assert trace[-1] <= trace[-2]


def test_untouched_equation_keeps_initialization():
    # an equation with no in-vocabulary words anywhere near it receives no
    # gradient: its Adagrad accumulators stay at the floor
    from eqvec.model import ADAGRAD_FLOOR

    rng = np.random.default_rng(0)
    base = make_corpus()
    docs = []
    for d in range(24):
        cls = d % 2
        topics = ["probability", "inference", "posterior", "likelihood"] if cls == 0 else [
            "matrix", "eigenvalue", "projection", "orthogonal"]
        words = [topics[int(rng.integers(len(topics)))] for _ in range(24)]
        eq = r"p(x_{i}) = \theta_{i}" if cls == 0 else r"A v = \lambda v"
        text = (
            " ".join(words[:12])
            + f" {words[0]} {words[1]}\n\\begin{{equation}}\n{eq}\n\\end{{equation}}\n"
            + f"{words[2]} {words[3]} "
            + " ".join(words[12:])
        )
        docs.append(RawDocument(f"d{d:02d}", text))
    docs.append(
        RawDocument("zz_iso", "qqqq rrrr ssss \\begin{equation}w_{9} + q_{9}\\end{equation} tttt uuuu")
    )
    params = IngestParams(
        min_tf=4, min_len=4, top_stop=0, abbrev_top=0,
        heldout_per_equation=1, heldout_window=4, n_negatives=4, seed=9,
    )
    data = ingest_corpus(docs, params)
    iso_id = data.registry.id_for_latex("w_{9} + q_{9}")
    assert iso_id is not None
    model, _ = train_model(data, CFG, "equation")
    # the feature vector is only reachable through context membership, so it
    # stays at initialization; the interaction vector may still be drawn as
    # a subsampled zero for other equations' positions
    assert np.array_equal(model.eq.alpha_acc[iso_id], np.full(CFG.k, ADAGRAD_FLOOR))


def test_singleton_equation_gets_nonzero_vector():
    data = make_corpus()
    singles = [r.eq_id for r in data.registry.records if r.occurrence_count == 1]
    model, _ = train_model(data, CFG, "equation")
    for eq_id in singles:
        assert np.linalg.norm(model.eq.alpha[eq_id]) > 0


def test_two_pass_unit_word_pass_identical_to_word_mode():
    data = make_corpus()
    a, _ = train_model(data, CFG, "word")
    b, _ = train_model(data, CFG.with_overrides(unit_joint=False), "unit")
    assert a.word.rho.tobytes() == b.word.rho.tobytes()


def test_joint_unit_training_runs_and_updates_words():
    data = make_corpus()
    joint, records = train_model(data, CFG, "unit")  # joint is the default
    assert {r.pass_name for r in records} == {"joint"}
    word_only, _ = train_model(data, CFG, "word")
    assert joint.word.rho.tobytes() != word_only.word.rho.tobytes()


def test_negative_sampler_excludes_target_and_is_deterministic():
    freqs = np.array([5, 1, 9, 3, 2], dtype=np.int64)
    a = NegativeSampler(np.random.Generator(np.random.PCG64(4)), 5, freqs)
    b = NegativeSampler(np.random.Generator(np.random.PCG64(4)), 5, freqs)
    da = [a.draw(6, 2) for _ in range(10)]
    db = [b.draw(6, 2) for _ in range(10)]
    for x, y in zip(da, db):
        assert np.array_equal(x, y)
        assert (x != 2).all()
    empty = NegativeSampler(np.random.Generator(np.random.PCG64(4)), 1, None)
    assert empty.draw(4, 0).size == 0


def test_unigram_sampler_tracks_frequencies():
    freqs = np.array([100, 1, 1, 1], dtype=np.int64)
    s = NegativeSampler(np.random.Generator(np.random.PCG64(0)), 4, freqs)
    draws = s.draw(4000, exclude=3)
    counts = np.bincount(draws, minlength=4)
    assert counts[0] > 3000  # mass follows the unigram distribution
    assert counts[3] == 0


def test_uniform_sampling_fits_and_repeats(tmp_path):
    from eqvec.modelfile import save_model

    data = make_corpus()
    cfg = CFG.with_overrides(negative_sampling="uniform")
    for mode in ("word", "equation", "unit"):
        saved = []
        for run in ("a", "b"):
            model, records = train_model(data, cfg, mode)
            assert all(np.isfinite(r.validation_score) for r in records)
            path = save_model(model, str(tmp_path / f"{mode}-{run}.eqv"))
            with open(path, "rb") as f:
                saved.append(f.read())
        assert saved[0] == saved[1], mode


def test_uniform_sampler_is_flat_and_excludes_target():
    s = NegativeSampler(np.random.Generator(np.random.PCG64(0)), 5, None)
    counts = np.bincount(s.draw(5000, exclude=2), minlength=5)
    assert counts[2] == 0
    mean = 5000 / 4
    for i in (0, 1, 3, 4):
        assert abs(counts[i] - mean) <= 0.2 * mean


def _scripted_scores(monkeypatch, scores):
    """Validation scores taken in turn from ``scores`` instead of computed."""
    it = iter(scores)
    monkeypatch.setattr(evaluation, "mean_predictive_ll", lambda items, model: next(it))


# (mode, scores up to a non-finite one, the same without the epochs the
# last good snapshot does not include)
DIVERGING = [
    ("word", [-3.0, -2.5, float("nan")], [-3.0, -2.5]),
    ("equation", [-3.0, -2.5, -2.6, -2.0, -1.5, float("nan")], [-3.0, -2.5, -2.0, -1.5]),
]


def test_divergence_aborts_with_last_good_snapshot(monkeypatch):
    data = make_corpus()
    for mode, scores, good in DIVERGING:
        # the last good epoch is the second of each pass: a fit capped there
        # on the same scores ends with exactly that snapshot
        _scripted_scores(monkeypatch, good)
        want, _ = train_model(data, CFG.with_overrides(max_epochs=2), mode)
        _scripted_scores(monkeypatch, scores)
        with pytest.raises(TrainingDiverged) as info:
            train_model(data, CFG.with_overrides(max_epochs=6), mode)
        exc = info.value
        assert exc.model is not None
        assert np.isfinite(exc.model.word.rho).all()
        assert (exc.pass_name, exc.epoch) == (mode, 3)
        last = exc.records[-1]
        assert (last.pass_name, last.epoch) == (mode, 3) and np.isnan(last.validation_score)
        assert len(exc.records) == len(scores)
        for name in ("word", "eq"):
            got, ref = getattr(exc.model, name), getattr(want, name)
            if ref is None:
                continue
            for attr in ("rho", "alpha", "rho_acc", "alpha_acc"):
                assert getattr(got, attr).tobytes() == getattr(ref, attr).tobytes(), (mode, name, attr)


def test_cli_train_divergence_exits_1_and_keeps_snapshot(monkeypatch, tmp_path, capsys):
    data = make_corpus()
    bundle = save_bundle(data, str(tmp_path / "bundle"))
    path = str(tmp_path / "model.eqv")
    _, scores, good = DIVERGING[1]
    _scripted_scores(monkeypatch, scores)
    argv = ["train", "--bundle", bundle, "--model", path, "--mode", "equation", "--seed", "13",
            "--set", "k=8", "--set", "eq_window=8", "--set", "eq_context_window=8",
            "--set", "unit_window=2", "--set", "n_negatives=4", "--set", "learning_rate=0.05",
            "--set", "max_epochs=6"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "non-finite in equation pass, epoch 3" in err and "Traceback" not in err
    _scripted_scores(monkeypatch, good)
    want, _ = train_model(data, CFG.with_overrides(max_epochs=2), "equation")
    got = load_model(path, eq_units=data.eq_units)
    assert got.mode == "equation"
    for name in ("word", "eq"):
        for attr in ("rho", "alpha"):
            saved = getattr(getattr(want, name), attr).astype(np.float32).astype(np.float64)
            assert np.array_equal(getattr(getattr(got, name), attr), saved), (name, attr)
    with open(path + ".trace.jsonl") as f:
        trace = [json.loads(line) for line in f]
    assert [(r["pass"], r["epoch"]) for r in trace] == [("word", 1), ("word", 2), ("word", 3),
                                                        ("equation", 1), ("equation", 2), ("equation", 3)]
    assert np.isnan(trace[-1]["validation_predictive_ll"])
