"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import math
import os
import time

import numpy as np
import pytest

from eqvec import retrieval
from eqvec.corpus import IngestParams, ingest_corpus
from eqvec.evaluation import StopDecision, early_stopping_controller, evaluate_split
from eqvec.model import EmbeddingTable, Model, ModelConfig, equation_vector_from_units
from eqvec.slt import tokenize_equation, unit_string
from eqvec.synthetic import planted_corpus, write_corpus
from eqvec.training import train_model

from .conftest import ACCEPT_KW, ORDERING_SEEDS, RETRIEVAL_SEED
from .reference_model import Tables, TrainingPair, pair_loss_and_grads

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "slt_golden.tsv")


def report(criterion: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion:2d} [{status}] {description} {detail}".rstrip())
    assert ok, f"criterion {criterion}: {description} {detail}"


# --- 1. gradient suite -----------------------------------------------------------


def _finite_difference_check(pair, mode, tables, h=1e-5):
    loss_at = lambda: pair_loss_and_grads(pair, mode, tables)[0]
    _, grads = pair_loss_and_grads(pair, mode, tables)
    worst = 0.0
    for which, bundle in (("rho", grads.rho), ("alpha", grads.alpha)):
        for (cls, idx), g in bundle.items():
            mat = getattr(tables.get(cls), which)
            for d in range(mat.shape[1]):
                orig = mat[idx, d]
                mat[idx, d] = orig + h
                up = loss_at()
                mat[idx, d] = orig - h
                down = loss_at()
                mat[idx, d] = orig
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(g[d]), 1e-8)
                worst = max(worst, abs(fd - g[d]) / denom)
    return worst


def _random_instance(rng, mode, tables):
    label = int(rng.integers(0, 2))
    n_w, n_e, n_u = tables.word.size, tables.eq.size, tables.unit.size
    if mode == "word":
        ctx = [("word", int(i)) for i in rng.integers(0, n_w, size=rng.integers(1, 5))]
        return TrainingPair(("word", int(rng.integers(0, n_w))), ctx, label)
    if mode == "equation":
        if rng.random() < 0.5:
            ctx = [("word", int(i)) for i in rng.integers(0, n_w, size=2)]
            ctx += [("eq", int(i)) for i in rng.integers(0, n_e, size=rng.integers(1, 3))]
            return TrainingPair(("word", int(rng.integers(0, n_w))), ctx, label)
        ctx = [("word", int(i)) for i in rng.integers(0, n_w, size=rng.integers(1, 5))]
        return TrainingPair(("eq", int(rng.integers(0, n_e))), ctx, label)
    if rng.random() < 0.5:
        ctx = [("word", int(i)) for i in rng.integers(0, n_w, size=2)]
        ctx += [("unit", int(i)) for i in rng.integers(0, n_u, size=rng.integers(1, 7))]
        return TrainingPair(("word", int(rng.integers(0, n_w))), ctx, label)
    ctx = [("unit", int(i)) for i in rng.integers(0, n_u, size=rng.integers(1, 4))]
    return TrainingPair(("unit", int(rng.integers(0, n_u))), ctx, label)


def test_criterion_1_gradient_suite():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    checked, worst = 0, 0.0
    while checked < 105:
        for mode in ("word", "equation", "unit"):
            k = int(rng.integers(2, 9))
            tables = Tables(
                EmbeddingTable(10, k, rng.bit_generator, 0.4),
                eq=EmbeddingTable(6, k, rng.bit_generator, 0.4),
                unit=EmbeddingTable(9, k, rng.bit_generator, 0.4),
            )
            worst = max(worst, _finite_difference_check(_random_instance(rng, mode, tables), mode, tables))
            checked += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        "analytic vs central finite-difference gradients",
        worst < 1e-5 and elapsed < 10.0,
        f"(instances={checked}, worst rel err={worst:.2e}, {elapsed:.1f}s)",
    )


# --- 2. frozen-pass byte test -----------------------------------------------------


def test_criterion_2_frozen_word_table(planted, trained):
    _, data = planted
    word_only = trained("word", RETRIEVAL_SEED)
    with_equations = trained("equation", RETRIEVAL_SEED)
    same = word_only.word.checksum() == with_equations.word.checksum()
    report(
        2,
        "word table checksum unchanged by the equation pass",
        same and with_equations.word.frozen,
    )


# --- 3. unit-mean exactness --------------------------------------------------------


def test_criterion_3_unit_mean_exactness():
    rng = np.random.default_rng(103)
    table = EmbeddingTable(400, 16, rng.bit_generator, 0.5)
    worst_ulp = 0.0
    for _ in range(1000):
        ids = rng.integers(0, 400, size=int(rng.integers(1, 40)))
        alpha, rho = equation_vector_from_units(ids, table)
        for vec, mat in ((alpha, table.alpha), (rho, table.rho)):
            for d in range(16):
                want = math.fsum(float(mat[i, d]) for i in ids) / len(ids)
                ulp = np.spacing(abs(want)) or np.spacing(1e-300)
                worst_ulp = max(worst_ulp, abs(vec[d] - want) / ulp)
    report(3, "derived equation vectors equal unit means", worst_ulp <= 1.0,
           f"(worst {worst_ulp:.3f} ulp)")


# --- 4. planted-signal retrieval ----------------------------------------------------


def test_criterion_4_planted_retrieval():
    t0 = time.perf_counter()
    pc = planted_corpus(n_docs=200, seed=7)
    data = ingest_corpus(pc.documents, IngestParams(seed=11))
    config = ModelConfig(seed=RETRIEVAL_SEED, **ACCEPT_KW)
    model, _ = train_model(data, config, "equation")

    eq_cls = {r.eq_id: pc.class_of_latex(r.latex) for r in data.registry.records}
    topic_sets = {c: set(ws) for c, ws in pc.topics.items()}
    purities, precisions = [], []
    for eq_id in range(data.n_equations):
        c = eq_cls[eq_id]
        hits = retrieval.nearest_equations(model, eq_id, 5).hits
        purities.append(np.mean([eq_cls[h] == c for h, _ in hits]))
        whits = retrieval.nearest_words(model, eq_id, 5).hits
        precisions.append(
            np.mean([data.word_vocab.forms[i] in topic_sets[c] for i, _ in whits])
        )
    purity = float(np.mean(purities))
    precision = float(np.mean(precisions))
    elapsed = time.perf_counter() - t0
    report(
        4,
        "planted-corpus retrieval quality",
        purity >= 0.90 and precision >= 0.80 and elapsed < 300.0,
        f"(eq2eq purity={purity:.3f}, eq2word precision={precision:.3f}, {elapsed:.0f}s)",
    )


# --- 5. relative ordering across modes ------------------------------------------------


def test_criterion_5_mode_ordering(planted, trained):
    _, data = planted
    scores = {mode: [] for mode in ("word", "equation", "unit")}
    for seed in ORDERING_SEEDS:
        for mode in scores:
            model = trained(mode, seed)
            rep = evaluate_split(data.heldout_test, model, "test")
            scores[mode].append(rep.mean_pseudo_ll)
    eq_gain = np.array(scores["equation"]) - np.array(scores["word"])
    unit_gain = np.array(scores["unit"]) - np.array(scores["equation"])
    ok = (
        eq_gain.mean() > eq_gain.std(ddof=1)
        and unit_gain.mean() > unit_gain.std(ddof=1)
    )
    report(
        5,
        "pseudo log-likelihood ordering unit >= equation > word",
        ok,
        f"(eq-word {eq_gain.mean():+.3f}±{eq_gain.std(ddof=1):.3f}, "
        f"unit-eq {unit_gain.mean():+.3f}±{unit_gain.std(ddof=1):.3f})",
    )


# --- 6. early stopping rule -----------------------------------------------------------


def test_criterion_6_early_stopping_rule():
    fixtures = [
        ([-3.0, -2.0, -2.5], StopDecision(True, 2)),
        ([-3.0, -3.0], StopDecision(True, 1)),
        ([-5.0, -4.0, -3.0, -3.5, -1.0], StopDecision(True, 3)),
        ([-3.0 + 0.1 * i for i in range(20)], StopDecision(True, 20)),
        ([-3.0 + 0.1 * i for i in range(30)], StopDecision(True, 20)),
        ([-1.0], StopDecision(False, 1)),
        ([-3.0, -2.0], StopDecision(False, 2)),
    ]
    ok = all(early_stopping_controller(t, max_epochs=20) == want for t, want in fixtures)
    report(6, "early stopping: first non-improvement, cap 20", ok)


# --- 7. score oracles -------------------------------------------------------------------


def test_criterion_7_score_oracles():
    from .test_evaluation import (
        FIX_ALPHA,
        FIX_EQ_ALPHA,
        FIX_RHO,
        item,
        k2_model,
        oracle_scores,
        predictive_log_likelihood,
        pseudo_log_likelihood,
    )

    model = k2_model(FIX_RHO, FIX_ALPHA, FIX_EQ_ALPHA)
    it = item(0, [1, 3], 0, [2, 3])
    z = oracle_scores(model, it)
    softmax_want = math.log(math.exp(z[0]) / math.fsum(math.exp(v) for v in z))
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    pseudo_want = math.log(sig(z[0])) + (
        math.log(1 - sig(z[1])) + math.log(1 - sig(z[2]))
    ) / 2.0
    pred_err = abs(predictive_log_likelihood(it, model) - softmax_want)
    pseudo_err = abs(pseudo_log_likelihood(it, model) - pseudo_want)

    uniform_word = EmbeddingTable.from_arrays(np.zeros((12, 2)), np.ones((12, 2)))
    uniform_eq = EmbeddingTable.from_arrays(np.zeros((1, 2)), np.ones((1, 2)))
    uniform = Model("equation", ModelConfig(k=2), uniform_word, eq=uniform_eq)
    exact = all(
        predictive_log_likelihood(item(0, [1, 2], 0, list(range(1, n + 1))), uniform)
        == math.log(1.0 / (n + 1))
        for n in (1, 4, 10)
    )
    report(
        7,
        "softmax and pseudo scores match direct-arithmetic oracles",
        pred_err < 1e-12 and pseudo_err < 1e-12 and exact,
        f"(pred err={pred_err:.1e}, pseudo err={pseudo_err:.1e}, uniform exact={exact})",
    )


# --- 8. layout-tuple golden fixture --------------------------------------------------------


def test_criterion_8_slt_goldens():
    with open(GOLDEN) as f:
        lines = [l.rstrip("\n") for l in f if not l.startswith("#")]
    ok = len(lines) == 30
    for line in lines:
        latex, expected = line.split("\t")
        got = " ".join(unit_string(t) for t in tokenize_equation(latex, lenient=False))
        ok = ok and got == expected
        ok = ok and all(t.relation in "nauow" for t in tokenize_equation(latex))
    report(8, "30-equation golden tuple fixture reproduced bit-exactly", ok)


# --- 9. end-to-end determinism ---------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    from eqvec.cli import main

    corpus_dir = str(tmp_path / "corpus")
    write_corpus(planted_corpus(n_docs=24, seed=3), corpus_dir)
    digests = []
    for run in ("a", "b"):
        bundle = str(tmp_path / f"bundle_{run}")
        model = str(tmp_path / f"model_{run}.eqv")
        assert main(["ingest", "--corpus", corpus_dir, "--bundle", bundle,
                     "--seed", "5", "--set", "min_tf=4"]) == 0
        assert main(["train", "--bundle", bundle, "--model", model, "--mode", "equation",
                     "--seed", "5", "--set", "k=8", "--set", "max_epochs=4"]) == 0
        digests.append(open(model, "rb").read())
    report(9, "ingest->train reruns produce byte-identical model files",
           digests[0] == digests[1], f"({len(digests[0])} bytes)")


# --- 10. retrieval exactness -------------------------------------------------------------------


def test_criterion_10_retrieval_exactness(trained, planted):
    from .test_retrieval import brute_force_cosine, brute_force_euclidean

    _, data = planted
    model = trained("equation", RETRIEVAL_SEED)
    ok = True
    alpha = model.eq.alpha
    for q in range(0, data.n_equations, 7):
        got = retrieval.nearest_equations(model, q, 10).hits
        want = brute_force_euclidean(alpha, alpha[q], q, 10)
        ok = ok and [i for i, _ in got] == [i for i, _ in want]
        wgot = retrieval.nearest_words(model, q, 10).hits
        wwant = brute_force_cosine(model.word.alpha, model.eq.rho[q], 10)
        ok = ok and [i for i, _ in wgot] == [i for i, _ in wwant]
    # constructed ties must break by ascending id
    tied = Model("equation", ModelConfig(k=2),
                 EmbeddingTable.from_arrays(np.zeros((3, 2)), np.zeros((3, 2))),
                 eq=EmbeddingTable.from_arrays(np.zeros((5, 2)),
                                               np.array([[1.0, 0.0]] * 5)))
    hits = retrieval.nearest_equations(tied, 2, 5).hits
    ok = ok and [i for i, _ in hits] == [0, 1, 3, 4]
    report(10, "rankings equal the brute-force scorer including tie order", ok)
