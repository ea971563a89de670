"""Training protocol: frozen passes, mode reduction, determinism, stopping."""

import json
from dataclasses import replace

import numpy as np
import pytest

from eqvec import cli, evaluation
from eqvec.bundle import save_bundle
from eqvec.corpus import IngestParams, Vocabulary, ingest_corpus
from eqvec.model import EmbeddingTable, ModelConfig
from eqvec.modelfile import load_model, save_model
from eqvec.synthetic import planted_corpus
from eqvec.tex import RawDocument, normalize_equation
from eqvec.training import TrainingDiverged, train_model

from .conftest import with_overrides
from .reference_training import NegativeSampler


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
    model, _ = train_model(data, with_overrides(CFG, unit_joint=False), "unit")
    word_only, _ = train_model(data, CFG, "word")
    assert model.word.checksum() == word_only.word.checksum()


def test_equation_pass_trains_equation_vectors():
    data = make_corpus()
    model, _ = train_model(data, CFG, "equation")
    init_scale = CFG.scale
    # trained feature vectors moved well beyond the initialization range
    assert np.abs(model.eq.alpha).max() > 2 * init_scale


def _root(a: np.ndarray) -> np.ndarray:
    while a.base is not None:
        a = a.base
    return a


@pytest.mark.parametrize("mode, extra", [("word", {}), ("equation", {}), ("unit", {}), ("unit", {"unit_joint": False})])
def test_fitted_model_keeps_only_its_parameters_alive(mode, extra):
    # a pass's Adagrad accumulators are its own: no table of the returned model is a view of them
    model, _ = train_model(make_corpus(), with_overrides(CFG, **extra), mode)
    tables = [t for t in (model.word, model.eq, model.unit) if t is not None]
    held = {id(r): r for t in tables for r in map(_root, (t.rho, t.alpha))}
    assert sum(r.nbytes for r in held.values()) == sum(t.rho.nbytes + t.alpha.nbytes for t in tables)


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
    b, _ = train_model(data, with_overrides(CFG, seed=14), "equation")
    assert a.word.rho.tobytes() != b.word.rho.tobytes()


def test_epoch_cap_respected():
    data = make_corpus()
    _, records = train_model(data, CFG, "word")
    assert max(r.epoch for r in records) <= CFG.max_epochs
    # validation scoring is timed inside the epoch
    assert all(0 <= r.score_seconds <= r.seconds for r in records)


def test_trace_stops_at_first_non_improvement():
    data = make_corpus()
    _, records = train_model(data, with_overrides(CFG, max_epochs=20), "word")
    trace = [r.validation_score for r in records if r.pass_name == "word"]
    for i in range(1, len(trace) - 1):
        assert trace[i] > trace[i - 1]  # improved everywhere except possibly the last
    if len(trace) < 20:
        assert trace[-1] <= trace[-2]


def test_untouched_equation_keeps_initialization():
    # an equation with no in-vocabulary words anywhere near it receives no
    # gradient: its feature vector stays as the equation table drew it
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
    iso_id = data.registry.latex.index(normalize_equation("w_{9} + q_{9}"))
    model, _ = train_model(data, CFG, "equation")
    # the feature vector is only reachable through context membership, so it
    # stays at initialization, rounded to float32 as the pass ends; the
    # interaction vector may still be drawn as a subsampled zero for other
    # equations' positions
    eq_seed = np.random.SeedSequence(CFG.seed).spawn(6)[1]  # the equation table's child seed
    init = EmbeddingTable(data.n_equations, CFG.k, np.random.PCG64(eq_seed), CFG.scale)
    assert model.eq.alpha[iso_id].tobytes() == init.alpha[iso_id].astype(np.float32).astype(np.float64).tobytes()
    assert not np.array_equal(model.eq.alpha, init.alpha)


def test_singleton_equation_gets_nonzero_vector():
    data = make_corpus()
    singles = np.flatnonzero(data.registry.counts == 1)
    model, _ = train_model(data, CFG, "equation")
    for eq_id in singles:
        assert np.linalg.norm(model.eq.alpha[eq_id]) > 0


def test_two_pass_unit_word_pass_identical_to_word_mode():
    data = make_corpus()
    a, _ = train_model(data, CFG, "word")
    b, _ = train_model(data, with_overrides(CFG, unit_joint=False), "unit")
    assert a.word.rho.tobytes() == b.word.rho.tobytes()


def _tables(model) -> list:
    return [getattr(t, m) for t in (model.word, model.eq, model.unit) if t is not None for m in ("rho", "alpha")]


def _float32_valued(model) -> bool:
    return all((m.astype(np.float32) == m).all() for m in _tables(model))


@pytest.mark.parametrize("mode, extra", [("word", {}), ("equation", {}), ("unit", {}), ("unit", {"unit_joint": False})])
def test_fit_is_float32_valued_and_equals_its_saved_copy(mode, extra, tmp_path):
    # every pass ends float32-valued, so the model in memory is the one saved
    data = make_corpus()
    model, _ = train_model(data, with_overrides(CFG, **extra), mode)
    assert _float32_valued(model)
    loaded = load_model(save_model(model, str(tmp_path / "model.eqv")), eq_units=data.eq_units)
    assert [m.tobytes() for m in _tables(loaded)] == [m.tobytes() for m in _tables(model)]
    if mode != "word":
        for which in ("alpha", "rho"):
            assert loaded.equation_matrix(which).tobytes() == model.equation_matrix(which).tobytes()


def test_grid_scores_float32_valued_fits(monkeypatch):
    from eqvec import training

    data, fit, fits = make_corpus(), training.train_model, []
    monkeypatch.setattr(training, "train_model", lambda *a, **kw: fits.append(fit(*a, **kw)) or fits[-1])
    evaluation.grid_select(data, CFG, ("equation", "word", "unit"), (CFG.k,), (4,), (8,))
    assert len(fits) == 3 and all(_float32_valued(model) for model, _ in fits)


def _records(records):
    return [(r.pass_name, r.epoch, r.validation_score, r.train_loss) for r in records]


@pytest.mark.parametrize("seed", [13, 2])
@pytest.mark.parametrize("mode, extra", [("word", {}), ("equation", {}), ("unit", {"unit_joint": False})])
def test_reused_word_pass_gives_the_fresh_fit(mode, extra, seed, monkeypatch):
    from eqvec import training

    data = make_corpus()
    cfg = with_overrides(CFG, seed=seed, **extra)
    fresh, fresh_records = train_model(data, cfg, mode)
    # the word pass does not read eq_window: a fit at another one stands in
    word = train_model(data, with_overrides(cfg, eq_window=16), "word")
    before = word[0].word.checksum()
    compile_pass, compiled = training.compile_pass, []
    monkeypatch.setattr(training, "compile_pass", lambda d, c, name: compiled.append(name) or compile_pass(d, c, name))
    model, records = train_model(data, cfg, mode, word=word)
    assert compiled == ([] if mode == "word" else [mode])  # the word pass is not run again
    assert word[0].word.checksum() == before  # the earlier model is not written
    for name in ("word", "eq", "unit"):
        got, want = getattr(model, name), getattr(fresh, name)
        assert (got is None) == (want is None), name
        if want is not None:
            assert got.rho.tobytes() == want.rho.tobytes() and got.alpha.tobytes() == want.alpha.tobytes(), name
    assert _records(records) == _records(fresh_records)


@pytest.mark.parametrize("case, message", [
    ("k", "another k$"), ("word_window", "another word_window$"), ("seed", "another seed$"),
    ("n_words", "has 20 words, the corpus 19"), ("joint_fit", "earlier fit ran no word pass"),
    ("joint_mode", "joint fit runs no word pass"),
])
def test_word_pass_of_another_fit_refused_before_any_epoch(case, message, monkeypatch):
    from eqvec import training

    data = make_corpus()
    if case == "n_words":  # fitted on the corpus; this fit's vocabulary lacks its last word
        word = train_model(data, CFG, "word")
        vocab = data.word_vocab
        data = replace(data, word_vocab=Vocabulary("word", vocab.forms[:-1], vocab.freqs[:-1]))
    elif case == "joint_fit":  # has no word pass
        word = train_model(data, CFG, "unit")
    else:
        change = {"k": {"k": 6}, "word_window": {"word_window": 2}, "seed": {"seed": 14}}.get(case, {})
        word = train_model(data, with_overrides(CFG, **change), "word")
    monkeypatch.setattr(training, "_run_epoch", lambda *a: pytest.fail("an epoch ran"))
    with pytest.raises(ValueError, match=message):
        train_model(data, CFG, "unit" if case == "joint_mode" else "equation", word=word)


def test_grid_fits_each_word_pass_once_and_refits_after_a_failure(monkeypatch, caplog):
    from eqvec import training

    data, fit, calls, fits = make_corpus(), training.train_model, [], []
    compile_pass, compiled = training.compile_pass, []

    def failing_fit(data, cfg, mode, word=None):
        calls.append(((mode, cfg.word_window, cfg.eq_window), word))
        if (mode, cfg.word_window, cfg.eq_window) == ("equation", 4, 8):
            raise RuntimeError("planted failure")
        fits.append(fit(data, cfg, mode, word=word))
        return fits[-1]

    monkeypatch.setattr(training, "train_model", failing_fit)
    monkeypatch.setattr(training, "compile_pass", lambda d, c, name: compiled.append(name) or compile_pass(d, c, name))
    rows = evaluation.grid_select(data, CFG, ("equation", "word"), (CFG.k,), (4, 8), (8, 16))
    assert "grid run (W=4, E=8) failed: planted failure" in caplog.text
    assert rows[0].error == "planted failure" and rows[0].epochs_run == ""
    assert all(not r.error for r in rows[1:])
    # the failed row stored nothing: the next row at W=4 fits the word pass
    assert [(combo, word is None) for combo, word in calls[:4]] == [
        (("equation", 4, 8), True), (("equation", 4, 16), True),
        (("equation", 8, 8), True), (("equation", 8, 16), False),
    ]
    assert calls[3][1] == fits[1]  # the same model (no __eq__: identity) and its records
    # the word rows start from the equation rows' word passes and fit nothing
    assert [(combo, word) for combo, word in calls[4:]] == [(("word", 4, 8), fits[0]), (("word", 8, 8), fits[1])]
    assert compiled == ["word", "equation", "word", "equation", "equation"]
    monkeypatch.setattr(training, "train_model", fit)
    assert rows[4:] == evaluation.grid_select(data, CFG, ("word",), (CFG.k,), (4, 8), (8, 16))


def test_grid_shares_word_passes_per_dimension(monkeypatch, caplog):
    from eqvec import training

    data, fit, calls = make_corpus(), training.train_model, []

    def failing_fit(data, cfg, mode, word=None):
        if (mode, cfg.k, cfg.word_window) == ("equation", 4, 8):
            raise RuntimeError("planted failure")
        out = fit(data, cfg, mode, word=word)
        calls.append(((mode, cfg.k, cfg.word_window), word, out))
        return out

    monkeypatch.setattr(training, "train_model", failing_fit)
    rows = evaluation.grid_select(data, CFG, ("equation", "word"), (8, 4), (4, 8), (8,))
    assert "grid run (W=8, E=8) failed: planted failure" in caplog.text
    assert [(r.mode, r.k, r.word_window, bool(r.error)) for r in rows] == [
        ("equation", 8, 4, False), ("equation", 8, 8, False), ("equation", 4, 4, False), ("equation", 4, 8, True),
        ("word", 8, 4, False), ("word", 8, 8, False), ("word", 4, 4, False), ("word", 4, 8, False),
    ]
    # each word row starts from the equation row's fit at its own (k, W); the failed one left none
    fitted = {row: out for row, _, out in calls}
    assert [(row, word) for row, word, _ in calls[3:]] == [
        (("word", 8, 4), fitted["equation", 8, 4]), (("word", 8, 8), fitted["equation", 8, 8]),
        (("word", 4, 4), fitted["equation", 4, 4]), (("word", 4, 8), None),
    ]
    assert [(r.mode, r.k) for r in rows if r.selected] == [("equation", 8), ("equation", 4), ("word", 8), ("word", 4)]
    assert not rows[3].selected


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


def test_pipeline_makes_no_generator_call(monkeypatch):
    # ingest, fits in every mode and sampling, and a grid row read the raw
    # PCG64 stream only, and give the tables an unpatched run gives
    docs = planted_corpus(n_docs=40).documents
    cfg = with_overrides(CFG, max_epochs=2)
    fits = [("word", cfg), ("equation", cfg), ("unit", cfg), ("unit", with_overrides(cfg, unit_joint=False)),
            ("equation", with_overrides(cfg, negative_sampling="uniform"))]

    def run():
        data = ingest_corpus(docs, IngestParams(seed=5))
        models = [train_model(data, c, mode)[0] for mode, c in fits]
        sums = [t.checksum() for m in models for t in (m.word, m.eq, m.unit) if t is not None]
        rows = evaluation.grid_select(data, cfg, ["unit"], [cfg.k], [cfg.word_window], [cfg.eq_window])
        return sums, [(r.valid_pseudo_ll, r.test_pseudo_ll, r.epochs_run, r.error) for r in rows]

    want = run()

    def refuse(*args, **kwargs):
        raise AssertionError("np.random.Generator used")

    monkeypatch.setattr(np.random, "Generator", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert run() == want


def test_uniform_sampling_fits_and_repeats(tmp_path):
    from eqvec.modelfile import save_model

    data = make_corpus()
    cfg = with_overrides(CFG, negative_sampling="uniform")
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
        want, _ = train_model(data, with_overrides(CFG, max_epochs=2), mode)
        _scripted_scores(monkeypatch, scores)
        with pytest.raises(TrainingDiverged) as info:
            train_model(data, with_overrides(CFG, max_epochs=6), mode)
        exc = info.value
        assert exc.model is not None
        assert np.isfinite(exc.model.word.rho).all() and _float32_valued(exc.model)
        assert (exc.pass_name, exc.epoch) == (mode, 3)
        last = exc.records[-1]
        assert (last.pass_name, last.epoch) == (mode, 3) and np.isnan(last.validation_score)
        assert len(exc.records) == len(scores)
        for name in ("word", "eq"):
            got, ref = getattr(exc.model, name), getattr(want, name)
            if ref is None:
                continue
            for attr in ("rho", "alpha"):
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
    want, _ = train_model(data, with_overrides(CFG, max_epochs=2), "equation")
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
