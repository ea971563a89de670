"""The three benchmark workloads and the checks on their outputs.

Each workload is one client in one process, in a closed loop: the next
call into eqvec starts when the previous one returns.  Set-up builds the
inputs.  The timed phase repeats the workload's own round of operations
until ``--seconds`` have passed (and at least a minimum number of rounds
ran).  Between timed rounds, coverage slices run the parts of the whole
pipeline (ingest -> fit in three modes -> evaluate -> save/load -> query)
that the workload's round does not, so that every end-to-end metric is
measured on every workload, from samples spread over the whole run.

Times are taken around the calls into eqvec only; the benchmark's own
checks run outside them.  An operation that raises, or whose output is
wrong, counts as failed; no check stops the run.
"""

import contextlib
import hashlib
import io
import math
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from eqvec import bundle, cli, corpus, evaluation, modelfile, retrieval, training
from eqvec.corpus import IngestParams
from eqvec.model import ModelConfig
from eqvec.synthetic import planted_corpus

import hostile
from clock import reference_loop
from spans import percentile

# The acceptance suite's planted configuration, with its corpus, ingest
# and model seeds, so the quality metrics are criterion 4's own and repeat
# exactly.  Across corpus seeds eq2word precision ranges from 0.5 to 1.0,
# wider than any bound.  The workload seed picks the 2000-document corpus,
# its hostile share and the queries.  Every pass is capped at two epochs:
# early stopping can end a pass at epoch 2 at the earliest, so each fit
# does the same work whatever the corpus.  Left to stop on its own, a pass
# runs 2 to 20 epochs, and fit time would measure the early-stopping luck.
ACCEPT = dict(k=25, word_window=4, eq_window=16, unit_window=2, learning_rate=0.05)
PLANTED_SEED = 7
INGEST_SEED = 11
MODEL_SEED = 4
MAX_EPOCHS = 2
MODES = ("word", "equation", "unit")
FAMILIES = ("eq2eq", "eq2word", "word2eq")
QUERY_MODELS = ("equation", "unit")
TOP_K = 5


@dataclass(frozen=True)
class Sizes:
    planted_docs: int = 200
    ingest_docs: int = 2000
    hostile_run: tuple = (hostile.RUN_MIN, hostile.RUN_MAX)
    warm_per_round: int = 378  # 63 per (family, model) pair
    cold_per_round: int = 18  # 3 per (family, model) pair
    coverage_query_rounds: int = 10  # at least; 3780 warm and 180 cold samples
    setup_repeats: int = 5
    check_every: int = 10  # brute-force every n-th warm query of the first round


# Seconds-long sizes for the self-test.
SMALL = Sizes(planted_docs=40, ingest_docs=120, hostile_run=(8, 16), warm_per_round=30,
              cold_per_round=6, coverage_query_rounds=2, setup_repeats=2, check_every=3)

INGEST_PARAMS = IngestParams(seed=INGEST_SEED)


def model_config() -> ModelConfig:
    return ModelConfig(seed=MODEL_SEED, max_epochs=MAX_EPOCHS, **ACCEPT)


def pin_to_fastest_cpu(cpus: list[int]):
    """Move this process to whichever usable CPU runs the reference loop
    fastest right now.  On a shared host each CPU is slowed by a
    neighbour for seconds at a time, independently of the others; this
    keeps the benchmark off the contended one.  It runs before every
    timed round and coverage slice, outside the measured calls."""
    if len(cpus) < 2:
        return
    best = None
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        t = min(reference_loop() for _ in range(3))
        if best is None or t < best[0]:
            best = (t, cpu)
    os.sched_setaffinity(0, {best[1]})


class Abort(Exception):
    """An operation the rest of the run depends on failed."""


class Run:
    """Counters, tracing state and working directory of one benchmark run."""

    def __init__(self, seed: int, seconds: float, sizes: Sizes, tracer, clock, workdir: str):
        self.seed = seed
        self.clock = clock  # every duration is measured with clock.span
        self.seconds = seconds
        self.sizes = sizes
        self.tracer = tracer
        self.workdir = workdir
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.errors: list[str] = []
        self.overhead_frac = 0.0
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

    def repin(self):
        pin_to_fastest_cpu(self.cpus)

    def op(self, fn, *args, **kwargs):
        """One call into eqvec: returns ``(result, seconds)``; the result is
        None when the call raised."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request = self.attempted
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            seconds = self.clock.span(t0, time.perf_counter())
            self.fail(f"{getattr(fn, '__name__', fn)} raised:\n{traceback.format_exc(limit=4)}")
            return None, seconds
        return result, self.clock.span(t0, time.perf_counter())

    def since(self, t0: float) -> float:
        return self.clock.span(t0, time.perf_counter())

    def need(self, result, what: str):
        if result is None:
            raise Abort(what)
        return result

    def check(self, ok: bool, what: str) -> bool:
        """Mark the latest operation failed unless ``ok``."""
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str):
        self.failed_ops.add(self.attempted)
        if len(self.errors) < 20:
            self.errors.append(what)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def at(self, phase: str, rnd: int = 0):
        if self.tracer is not None:
            self.tracer.phase, self.tracer.round = phase, rnd

    def untraced(self):
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def timed_rounds(self, body, min_rounds: int, between):
        """Repeat ``body(round)`` for ``seconds`` and at least ``min_rounds``,
        calling ``between(round, elapsed)`` after each round; the coverage
        slices it runs count in the seconds.

        Under tracing, even rounds run with the tracer removed and odd
        rounds with it installed; the ratio of their median walls is the
        tracing overhead.  Coverage slices are always traced."""
        if self.tracer is not None:
            min_rounds = max(min_rounds, 2)
        results, walls = [], {False: [], True: []}
        start = time.perf_counter()
        rnd = 0
        while rnd < min_rounds or time.perf_counter() - start < self.seconds:
            traced = self.tracer is not None and rnd % 2 == 1
            self.repin()
            self.at("timed", rnd)
            if self.tracer is not None:
                self.tracer.install() if traced else self.tracer.uninstall()
            res = body(rnd)
            results.append(res)
            walls[traced].append(res.wall)
            if self.tracer is not None:
                self.tracer.install()
            self.at("coverage", rnd)
            self.repin()
            between(rnd, time.perf_counter() - start)
            rnd += 1
        if self.tracer is not None:
            self.overhead_frac = statistics.median(walls[True]) / statistics.median(walls[False]) - 1
        return results


def file_sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- planted corpus: build and ingest ------------------------------------------


@dataclass
class Base:
    pc: object
    data: object
    bundle_dir: str
    setup_s: float
    ingest_s: list


def ingest_planted(run: Run, pc):
    data, seconds = run.op(corpus.ingest_corpus, pc.documents, INGEST_PARAMS)
    run.need(data, "ingesting the planted corpus failed")
    run.check(data.stats["documents"] == len(pc.documents) and data.stats["regions_skipped"] == 0,
              f"planted ingest stats {data.stats}")
    return data, seconds


def planted_base(run: Run) -> Base:
    """Generate the planted corpus, ingest it and save its bundle; repeated
    ``setup_repeats`` times, set-up time is the median over the repeats."""
    bundle_dir = os.path.join(run.workdir, "bundle-planted")
    setups, ingests = [], []
    for rep in range(run.sizes.setup_repeats):
        run.at("setup", rep)
        run.repin()
        t0 = time.perf_counter()
        pc = planted_corpus(run.sizes.planted_docs, seed=PLANTED_SEED)
        data, t_ingest = ingest_planted(run, pc)
        run.need(run.op(bundle.save_bundle, data, bundle_dir)[0], "saving the planted bundle failed")
        setups.append(run.since(t0))
        ingests.append(t_ingest)
    return Base(pc, data, bundle_dir, statistics.median(setups), ingests)


# --- fitting -------------------------------------------------------------------


@dataclass
class FitSet:
    ops: list = field(default_factory=list)  # seconds of each call, in order
    tokens: int = 0
    work: int = 0  # stream tokens x epochs run, over the set's fits
    sgd_s: float = 0.0  # fit seconds minus validation scoring
    nll: dict = field(default_factory=dict)
    fitted: dict = field(default_factory=dict)
    loaded: dict = field(default_factory=dict)
    paths: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.ops)


def _same_tables(fitted, loaded) -> bool:
    pairs = [(fitted.word, loaded.word)]
    if fitted.mode == "equation":
        pairs.append((fitted.eq, loaded.eq))
    elif fitted.mode == "unit":
        pairs.append((fitted.unit, loaded.unit))
    as_stored = lambda m: m.astype("<f4").astype(np.float64)
    return all(
        np.array_equal(as_stored(a.rho), b.rho) and np.array_equal(as_stored(a.alpha), b.alpha)
        for a, b in pairs
    )


def fit_set(run: Run, data, tag: str, after_fit=None) -> FitSet:
    """Fit one model per mode; score each on the test split, save it and
    load it back.  ``after_fit`` runs after each mode, outside the round."""
    out = FitSet(tokens=sum(len(s.codes) for s in data.streams))
    for mode in MODES:
        fit_one(run, data, mode, tag, out)
        if after_fit is not None:
            after_fit()
    return out


def fit_one(run: Run, data, mode: str, tag: str, out: FitSet):
    """Fit, test-score, save and reload one mode into ``out``.

    Every epoch of a fit ends with one validation scoring.  For
    ``train_tokens_per_s`` that scoring is measured by scoring the fitted
    model once more, outside the timed calls, and taken off once per
    epoch."""
    run.repin()
    res, t_fit = run.op(training.train_model, data, model_config(), mode)
    out.ops.append(t_fit)
    model, records = run.need(res, f"{mode} fit failed")
    out.fitted[mode] = model
    with run.untraced():
        t0 = time.perf_counter()
        evaluation.mean_predictive_ll(data.heldout_valid, model)
        t_score = run.since(t0)
    out.work += out.tokens * len(records)
    out.sgd_s += t_fit - t_score * len(records)

    report, t_eval = run.op(evaluation.evaluate_split, data.heldout_test, model, "test")
    out.ops.append(t_eval)
    if report is not None and run.check(
        report.n_items > 0
        and math.isfinite(report.mean_pseudo_ll)
        and math.isfinite(report.mean_predictive_ll),
        f"{mode}: held-out test report is not finite: {report}",
    ):
        out.nll[mode] = -report.mean_pseudo_ll

    path, t_save = run.op(modelfile.save_model, model, os.path.join(run.workdir, f"{tag}-{mode}.eqv"))
    out.ops.append(t_save)
    run.need(path, f"{mode} model save failed")
    loaded, t_load = run.op(modelfile.load_model, path, eq_units=data.eq_units)
    out.ops.append(t_load)
    run.need(loaded, f"{mode} model load failed")
    run.check(_same_tables(model, loaded), f"{mode}: reloaded model differs from the saved one")
    out.loaded[mode], out.paths[mode], out.digests[mode] = loaded, path, file_sha256(path)


def check_refit(run: Run, first: FitSet, again: FitSet):
    """The determinism contract: a refit at the same seed saves the same bytes."""
    for mode, digest in again.digests.items():
        run.check(digest == first.digests[mode], f"{mode}: refit at the same seed saved different model bytes")


def retrieval_quality(run: Run, pc, data, model) -> tuple[float, float]:
    """Acceptance criterion 4: eq2eq class purity and eq2word topic
    precision of the top 5, averaged over every equation."""
    with run.untraced():
        eq_cls = {r.eq_id: pc.class_of_latex(r.latex) for r in data.registry.records}
        topic_sets = {c: set(ws) for c, ws in pc.topics.items()}
        purities, precisions = [], []
        for eq_id in range(data.n_equations):
            c = eq_cls[eq_id]
            hits = retrieval.nearest_equations(model, eq_id, TOP_K).hits
            purities.append(np.mean([eq_cls[h] == c for h, _ in hits]))
            whits = retrieval.nearest_words(model, eq_id, TOP_K).hits
            precisions.append(np.mean([data.word_vocab.forms[i] in topic_sets[c] for i, _ in whits]))
    return float(np.mean(purities)), float(np.mean(precisions))


# --- queries -------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    family: str
    model: str  # "equation" | "unit"
    arg: object  # equation id, or a tuple of query words
    cold: bool


@dataclass
class Session:
    data: object
    bundle_dir: str
    models: dict  # mode -> loaded Model
    paths: dict  # mode -> model file


@dataclass
class QueryRound:
    ops: list  # seconds of each query, in mix order
    warm: list
    cold: list

    @property
    def wall(self) -> float:
        return sum(self.ops)


def query_mix(run: Run, session: Session, topics) -> list[Query]:
    """One round's seeded mix.  Every (family, model) pair gets the same
    number of warm and of cold queries, so the work in a round does not
    depend on the seed; the seed picks the arguments and the order."""
    rng = np.random.Generator(np.random.PCG64([run.seed, 0x0E5]))
    eq_ids = [
        e for e in range(session.data.n_equations)
        if all(np.isfinite(session.models[m].equation_matrix("alpha")[e]).all() for m in QUERY_MODELS)
    ]
    topic_words = sorted({w for ws in topics.values() for w in ws} & set(session.data.word_vocab.forms))
    cells = [(f, m) for f in FAMILIES for m in QUERY_MODELS]
    mix = []
    for cold, per_round in ((False, run.sizes.warm_per_round), (True, run.sizes.cold_per_round)):
        for i in range(per_round):
            family, which = cells[i % len(cells)]
            if family == "word2eq":
                arg = tuple(str(w) for w in rng.choice(topic_words, size=2, replace=False))
            else:
                arg = int(eq_ids[int(rng.integers(len(eq_ids)))])
            mix.append(Query(family, which, arg, cold))
    return [mix[i] for i in rng.permutation(len(mix))]


def warm_query(q: Query, model, vocab):
    if q.family == "eq2eq":
        return retrieval.nearest_equations(model, q.arg, TOP_K)
    if q.family == "eq2word":
        return retrieval.nearest_words(model, q.arg, TOP_K)
    return retrieval.equations_for_words(model, vocab, list(q.arg), TOP_K)


def cold_query(q: Query, model_path: str, bundle_dir: str):
    """``eqvec query`` as a shell user runs it, stdout captured."""
    argv = ["query", q.family]
    argv += ["--words", ",".join(q.arg)] if q.family == "word2eq" else ["--id", str(q.arg)]
    argv += ["-k", str(TOP_K), "--model", model_path, "--bundle", bundle_dir]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _brute_force(scores: list[tuple[int, float]], ascending: bool) -> list[int]:
    key = (lambda p: (p[1], p[0])) if ascending else (lambda p: (-p[1], p[0]))
    return [i for i, _ in sorted(scores, key=key)[:TOP_K]]


def _euclidean(row, query) -> float:
    if not np.isfinite(row).all():
        return math.inf
    return math.sqrt(math.fsum((float(a) - float(b)) ** 2 for a, b in zip(row, query)))


def _cosine(row, query) -> float:
    if not np.isfinite(row).all():
        return -math.inf
    norm = math.sqrt(math.fsum(float(v) ** 2 for v in row))
    qn = math.sqrt(math.fsum(float(v) ** 2 for v in query))
    if norm == 0 or qn == 0:
        return -math.inf
    return math.fsum(float(a) * float(b) for a, b in zip(row, query)) / (norm * qn)


def brute_force_ranking(q: Query, model, vocab) -> list[int]:
    """Exhaustive scorer in plain Python, ties broken on ascending id
    (acceptance criterion 10)."""
    if q.family == "eq2eq":
        matrix = model.equation_matrix("alpha")
        scores = [(i, _euclidean(r, matrix[q.arg])) for i, r in enumerate(matrix) if i != q.arg]
        return _brute_force(scores, ascending=True)
    if q.family == "eq2word":
        _, rho = model.equation_vectors(q.arg)
        return _brute_force([(i, _cosine(r, rho)) for i, r in enumerate(model.word.alpha)], False)
    ids = np.array([vocab.index[w] for w in q.arg], dtype=np.int64)
    query = model.word.rho[ids].mean(axis=0)
    matrix = model.equation_matrix(model.config.word2eq_vectors)
    return _brute_force([(i, _cosine(r, query)) for i, r in enumerate(matrix)], False)


def query_round(run: Run, session: Session, mix: list[Query], check: bool) -> QueryRound:
    vocab = session.data.word_vocab
    ops, warm, cold = [], [], []
    for n, q in enumerate(mix):
        model = session.models[q.model]
        if not q.cold:
            ranking, seconds = run.op(warm_query, q, model, vocab)
            ops.append(seconds)
            warm.append(seconds)
            if ranking is not None and check and n % run.sizes.check_every == 0:
                with run.untraced():
                    want = brute_force_ranking(q, model, vocab)
                run.check([i for i, _ in ranking.hits] == want,
                          f"{q}: ranking {ranking.hits} differs from brute force {want}")
            continue
        res, seconds = run.op(cold_query, q, session.paths[q.model], session.bundle_dir)
        ops.append(seconds)
        cold.append(seconds)
        if res is None:
            continue
        code, text = res
        with run.untraced():
            want = [(i, f"{s:.6f}") for i, s in warm_query(q, model, vocab).hits]
        got = [(int(f[1]), f[2]) for f in (line.split("\t") for line in text.splitlines()[1:])]
        run.check(code == 0 and got == want, f"{q}: cold CLI exit {code}, printed {got}, warm {want}")
    return QueryRound(ops, warm, cold)


class Coverage:
    """Query rounds, planted-corpus ingests and refits run between timed
    rounds, for the workloads whose own round does not run them."""

    def __init__(self, run: Run, pc, data, bundle_dir: str, fits: FitSet):
        self.run, self.pc, self.data = run, pc, data
        self.fits = fits
        self.refits = FitSet(tokens=fits.tokens)
        self.session = Session(data, bundle_dir, fits.loaded, fits.paths)
        self.mix = query_mix(run, self.session, pc.topics)
        self.queries: list[QueryRound] = []
        self.ingest_s: list[float] = []

    def refit_due(self, elapsed: float):
        """Refit the modes one at a time, at a quarter, half and three
        quarters of the timed phase, so that training is sampled at three
        moments of the run rather than one."""
        due = [m for i, m in enumerate(MODES) if elapsed >= (i + 1) / 4 * self.run.seconds]
        for mode in due:
            if mode not in self.refits.digests:
                self.run.at("coverage", -1)  # the refits count as one round
                fit_one(self.run, self.data, mode, "refit", self.refits)

    def finish(self):
        self.refit_due(math.inf)
        check_refit(self.run, self.fits, self.refits)
        self.top_up_queries()

    def query(self):
        self.queries.append(query_round(self.run, self.session, self.mix, check=not self.queries))

    def ingest(self):
        self.ingest_s.append(ingest_planted(self.run, self.pc)[1])

    def top_up_queries(self):
        while len(self.queries) < self.run.sizes.coverage_query_rounds:
            self.query()


# --- metrics -------------------------------------------------------------------


def end_to_end(*, setup_s, rounds, fits: list[FitSet], quality, docs: int, ingest_s: list,
               queries: list[QueryRound]):
    warm = [s * 1e3 for qr in queries for s in qr.warm]
    cold = [s * 1e3 for qr in queries for s in qr.cold]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.wall for r in rounds),
        "train_tokens_per_s": statistics.median(fs.work / fs.sgd_s for fs in fits),
        "test_nll.word": fits[0].nll.get("word"),
        "test_nll.equation": fits[0].nll.get("equation"),
        "test_nll.unit": fits[0].nll.get("unit"),
        "eq2eq_purity": quality[0],
        "eq2word_precision": quality[1],
        "ingest_docs_per_s": docs / statistics.median(ingest_s),
        "query_p50_ms": percentile(warm, 50) if warm else None,
        "query_p99_ms": percentile(warm, 99) if warm else None,
        "cold_query_p50_ms": percentile(cold, 50) if cold else None,
        "cold_query_p90_ms": percentile(cold, 90) if cold else None,
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {
        "rounds": len(rounds), "round_walls_s": [r.wall for r in rounds], "ingest_s": ingest_s,
        "fit_sets": len(fits), "query_rounds": len(queries),
        "warm_queries": len(warm), "cold_queries": len(cold),
    }
    return metrics, samples


# --- workloads -----------------------------------------------------------------


# Coverage query rounds after each fit, from the second timed round on
# (the first round's models are the ones queried).
QUERY_ROUNDS_PER_FIT = 2


def train_p200(run: Run):
    """Fits dominate: three modes on the planted corpus, each followed by a
    test-split evaluation and a model save/load round trip."""
    base = planted_base(run)
    rounds: list[FitSet] = []
    coverage: list[Coverage] = []

    def queries():
        rnd = len(rounds)
        run.at("coverage", rnd)
        run.repin()
        for _ in range(QUERY_ROUNDS_PER_FIT):
            coverage[0].query()
        run.at("timed", rnd)

    def body(rnd):
        fits = fit_set(run, base.data, f"fit{rnd}", after_fit=queries if coverage else None)
        if rounds:
            check_refit(run, rounds[0], fits)
        rounds.append(fits)
        return fits

    def between(rnd, elapsed):
        if not coverage:
            coverage.append(Coverage(run, base.pc, base.data, base.bundle_dir, rounds[0]))
        coverage[0].ingest()

    run.timed_rounds(body, min_rounds=2, between=between)
    cov = coverage[0]
    cov.top_up_queries()
    quality = retrieval_quality(run, base.pc, base.data, rounds[0].fitted["equation"])
    return end_to_end(
        setup_s=base.setup_s, rounds=rounds, fits=rounds, quality=quality,
        docs=run.sizes.planted_docs, ingest_s=base.ingest_s + cov.ingest_s,
        queries=cov.queries,
    )


@dataclass
class IngestRound:
    ops: list  # ingest, bundle save, bundle load

    @property
    def wall(self) -> float:
        return sum(self.ops)


def _corpus_differences(a, b) -> list[str]:
    """Fields on which an in-memory corpus and its reloaded bundle differ.
    Equation records lose their first document id on disk by design."""
    diffs = []
    for kind in ("word_vocab", "unit_vocab"):
        va, vb = getattr(a, kind), getattr(b, kind)
        if (va is None) != (vb is None) or (va is not None and (
                va.forms != vb.forms or not np.array_equal(va.freqs, vb.freqs))):
            diffs.append(kind)
    if tuple(a.word_vocab.stop_forms) != tuple(b.word_vocab.stop_forms):
        diffs.append("stop_forms")
    rec = lambda r: (r.eq_id, r.latex, r.occurrence_count)
    if [rec(r) for r in a.registry.records] != [rec(r) for r in b.registry.records]:
        diffs.append("registry")
    if len(a.streams) != len(b.streams) or any(
            sa.doc_id != sb.doc_id or not np.array_equal(sa.codes, sb.codes)
            for sa, sb in zip(a.streams, b.streams)):
        diffs.append("streams")
    if a.eq_units.keys() != b.eq_units.keys() or any(
            not np.array_equal(a.eq_units[k], b.eq_units[k]) for k in a.eq_units):
        diffs.append("eq_units")
    for split in ("heldout_valid", "heldout_test"):
        if getattr(a, split) != getattr(b, split):
            diffs.append(split)
    if a.params != b.params:
        diffs.append("params")
    if a.stats != b.stats:
        diffs.append("stats")
    return diffs


def ingest_p2000(run: Run):
    """Ingest, bundle save and bundle load of the large planted corpus with
    its hostile share; no training in the timed phase."""
    n = run.sizes.ingest_docs
    setups = []
    for rep in range(run.sizes.setup_repeats):
        run.at("setup", rep)
        run.repin()
        t0 = time.perf_counter()
        docs, n_hostile = hostile.with_hostile_tails(
            planted_corpus(n, seed=run.seed).documents, run.seed,
            run_min=run.sizes.hostile_run[0], run_max=run.sizes.hostile_run[1])
        setups.append(run.since(t0))

    # The planted-corpus pipeline the timed rounds leave out, fitted before
    # them so that its query rounds can run between them.
    run.at("coverage", 0)
    pc = planted_corpus(run.sizes.planted_docs, seed=PLANTED_SEED)
    data, _ = ingest_planted(run, pc)
    bundle_planted = os.path.join(run.workdir, "bundle-planted")
    run.need(run.op(bundle.save_bundle, data, bundle_planted)[0], "saving the planted bundle failed")
    fits = fit_set(run, data, "coverage")
    quality = retrieval_quality(run, pc, data, fits.fitted["equation"])
    cov = Coverage(run, pc, data, bundle_planted, fits)

    bundle_dir = os.path.join(run.workdir, "bundle-ingest")
    first: dict = {}

    def body(rnd):
        data, t_ingest = run.op(corpus.ingest_corpus, docs, INGEST_PARAMS)
        run.need(data, "ingest failed")
        run.check(data.stats["documents"] == n and data.stats["regions_skipped"] == n_hostile,
                  f"ingest stats {data.stats}, expected {n} documents and {n_hostile} skipped regions")
        _, t_save = run.op(bundle.save_bundle, data, bundle_dir)
        loaded, t_load = run.op(bundle.load_bundle, bundle_dir)
        run.need(loaded, "bundle load failed")
        with run.untraced():
            diffs = _corpus_differences(data, loaded)
            digests = {f: file_sha256(os.path.join(bundle_dir, f)) for f in sorted(os.listdir(bundle_dir))}
        run.check(not diffs, f"reloaded bundle differs from the ingested corpus in {diffs}")
        first.setdefault("digests", digests)
        first.setdefault("stats", data.stats)
        run.check(digests == first["digests"] and data.stats == first["stats"],
                  "bundle digests or ingest counts changed between rounds")
        return IngestRound([t_ingest, t_save, t_load])

    def between(rnd, elapsed):
        cov.query()
        cov.refit_due(elapsed)

    rounds = run.timed_rounds(body, min_rounds=2, between=between)
    cov.finish()
    metrics, samples = end_to_end(
        setup_s=statistics.median(setups), rounds=rounds, fits=[fits, cov.refits],
        quality=quality, docs=n, ingest_s=[r.ops[0] for r in rounds],
        queries=cov.queries,
    )
    samples["bundle_sha256"] = first.get("digests")
    samples["hostile_documents"] = n_hostile
    return metrics, samples


# One planted-corpus ingest after every this many query rounds.
QUERY_ROUNDS_PER_INGEST = 8


def query_p200(run: Run):
    """Warm library queries on loaded models, with a fixed share of cold
    CLI queries that reload the bundle and the model."""
    base = planted_base(run)
    run.at("setup", run.sizes.setup_repeats)
    t0 = time.perf_counter()
    fits = fit_set(run, base.data, "query")
    cov = Coverage(run, base.pc, base.data, base.bundle_dir, fits)
    setup_s = base.setup_s + run.since(t0)
    quality = retrieval_quality(run, base.pc, base.data, fits.fitted["equation"])

    def between(rnd, elapsed):
        if rnd % QUERY_ROUNDS_PER_INGEST == QUERY_ROUNDS_PER_INGEST - 1:
            cov.ingest()
        cov.refit_due(elapsed)

    rounds = run.timed_rounds(
        lambda rnd: query_round(run, cov.session, cov.mix, check=(rnd == 0)), min_rounds=1,
        between=between)
    cov.finish()
    return end_to_end(
        setup_s=setup_s, rounds=rounds, fits=[fits, cov.refits], quality=quality,
        docs=run.sizes.planted_docs, ingest_s=base.ingest_s + cov.ingest_s,
        queries=rounds,
    )


WORKLOADS = {"train-p200": train_p200, "ingest-p2000": ingest_p2000, "query-p200": query_p200}
