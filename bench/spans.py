"""Spans around calls into eqvec, recorded from outside the package.

The tracer replaces module attributes (and one method) of eqvec with thin
wrappers that record a span per call: name, start, end, parent span,
request id and the benchmark phase/round it ran in.  Every eqvec caller
looks these names up through the module at call time, so wrapping the
attribute times calls made inside the package too (``ingest_corpus``
calling ``tex._extract``, the CLI calling ``bundle.load_bundle``).
Nothing under ``src/`` is changed; ``uninstall`` restores the originals.

Spans stay in memory and are written out once, when the run ends.  A
span's self time is its duration minus the durations of its direct
children, which lie inside it because every call is synchronous.
"""

import contextlib
import functools
import json
import os
import statistics
import time
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    phase: str
    round: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path))


def _targets():
    """(owner, attribute, span name, attrs-from-call) for every wrapped entry point."""
    from eqvec import bundle, cli, corpus, evaluation, model, modelfile, retrieval, slt, tex, training

    def mode_of(args, kw, result):
        return {"mode": args[0].mode}

    return [
        (tex, "_extract", "tex.extract",
         lambda a, k, r: {"equations": sum(rec.occurrence_count for rec in r[1]), "skipped": r[2]}),
        (tex, "tokenize_words", "tex.tokenize", None),
        (slt, "tokenize_equation", "slt.tokenize",
         lambda a, k, r: {"units": len(r), "untokenizable": int(not r)}),
        (slt, "build_unit_vocabulary", "slt.vocab", None),
        (corpus, "ingest_corpus", "corpus.ingest",
         lambda a, k, r: {
             "tokens": sum(len(s.codes) for s in r.streams),
             "heldout_items": len(r.heldout_valid) + len(r.heldout_test),
             "heldout_skipped": r.stats["heldout_skipped"],
         }),
        (corpus, "build_word_vocabulary", "corpus.vocab", None),
        (corpus, "build_heldout", "corpus.heldout", None),
        (bundle, "save_bundle", "bundle.save", lambda a, k, r: {"bytes": _dir_bytes(r)}),
        (bundle, "load_bundle", "bundle.load", None),
        (training, "train_model", "training.fit",
         lambda a, k, r: {
             "tokens": sum(len(s.codes) for s in a[0].streams),
             "epochs": [[rec.pass_name, rec.seconds] for rec in r[1]],
         }),
        (evaluation, "mean_predictive_ll", "evaluation.score", None),
        (evaluation, "evaluate_split", "evaluation.test", lambda a, k, r: {"skipped": r.n_skipped}),
        (model.Model, "_derive", "model.derive", None),
        (modelfile, "save_model", "modelfile.save", lambda a, k, r: {"bytes": os.path.getsize(r)}),
        (modelfile, "load_model", "modelfile.load", None),
        (retrieval, "nearest_equations", "retrieval.eq2eq", mode_of),
        (retrieval, "nearest_words", "retrieval.eq2word", mode_of),
        (retrieval, "equations_for_words", "retrieval.word2eq", mode_of),
        (cli, "main", "cli.main", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self.round = 0
        self.request = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self):
        if self._saved:
            return
        for owner, attr, name, attrs in _targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, attrs))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording their calls."""
        installed = bool(self._saved)
        self.uninstall()
        try:
            yield
        finally:
            if installed:
                self.install()

    def _wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self.request, self.phase, self.round)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def write(self, path: str):
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **asdict(s)}) + "\n")


# --- per-layer metrics ----------------------------------------------------------

PASSES = ("word", "equation", "joint")
QUERY_FAMILIES = ("eq2eq", "eq2word", "word2eq")
QUERY_MODES = ("equation", "unit")

# Per-layer metric -> unit.  Directions live in BENCHMARK.json.
LAYER_UNITS = {
    "tex.extract_s": "s",
    "tex.extract_max_doc_ms": "ms",
    "tex.tokenize_s": "s",
    "tex.equations": "count",
    "tex.regions_skipped": "count",
    "slt.tokenize_s": "s",
    "slt.vocab_s": "s",
    "slt.equations": "count",
    "slt.units_emitted": "count",
    "slt.untokenizable": "count",
    "corpus.vocab_s": "s",
    "corpus.heldout_s": "s",
    "corpus.ingest_self_s": "s",
    "corpus.tokens": "count",
    "corpus.heldout_items": "count",
    "corpus.heldout_skipped": "count",
    "bundle.save_s": "s",
    "bundle.load_s": "s",
    "bundle.bytes": "bytes",
    **{f"training.{p}.{m}": u for p in PASSES
       for m, u in (("epochs", "count"), ("sgd_s", "s"), ("tokens_per_s", "tokens/s"))},
    "evaluation.score_s": "s",
    "evaluation.score_calls": "count",
    "evaluation.test_s": "s",
    "evaluation.items_skipped": "count",
    "model.derive_s": "s",
    "modelfile.save_s": "s",
    "modelfile.load_s": "s",
    "modelfile.bytes": "bytes",
    **{f"retrieval.{f}.{m}.{q}": "us" for f in QUERY_FAMILIES for m in QUERY_MODES
       for q in ("p50_us", "p99_us")},
    "cli.query_self_ms": "ms",
    "trace_overhead_frac": "fraction",
}


def _self_seconds(spans: list[Span], seconds: list[float]) -> list[float]:
    child = [0.0] * len(spans)
    for s, d in zip(spans, seconds):
        if s.parent is not None:
            child[s.parent] += d
    return [d - c for d, c in zip(seconds, child)]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


def layer_metrics(spans: list[Span], clock, overhead_frac: float) -> dict[str, float]:
    """Per-layer numbers from one traced run.

    Each span name is read in its focus phase: the timed phase when the
    name ran there, else set-up, else the coverage phase.  Times and
    counts are totals per round of that phase, medians over its rounds,
    so a run that fits more rounds into its seconds reads the same.
    Latency percentiles pool the focus phase's warm calls.  Durations
    are taken with ``clock``, like the end-to-end times.
    """
    seconds = [clock.span(s.start, s.end) for s in spans]
    selfs = _self_seconds(spans, seconds)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def focus(name):
        idx = by_name.get(name, [])
        for phase in ("timed", "setup", "coverage"):
            chosen = [i for i in idx if spans[i].phase == phase]
            if chosen:
                return chosen
        return []

    def per_round(name, value):
        totals: dict[int, float] = {}
        for i in focus(name):
            totals[spans[i].round] = totals.get(spans[i].round, 0.0) + value(i)
        return statistics.median(totals.values()) if totals else 0.0

    dur = lambda i: seconds[i]
    own = lambda i: selfs[i]
    attr = lambda key: (lambda i: spans[i].attrs.get(key, 0))
    calls = lambda i: 1

    m = {
        "tex.extract_s": per_round("tex.extract", own),
        "tex.extract_max_doc_ms": max((dur(i) for i in focus("tex.extract")), default=0.0) * 1e3,
        "tex.tokenize_s": per_round("tex.tokenize", own),
        "tex.equations": per_round("tex.extract", attr("equations")),
        "tex.regions_skipped": per_round("tex.extract", attr("skipped")),
        "slt.tokenize_s": per_round("slt.tokenize", own),
        "slt.vocab_s": per_round("slt.vocab", own),
        "slt.equations": per_round("slt.tokenize", calls),
        "slt.units_emitted": per_round("slt.tokenize", attr("units")),
        "slt.untokenizable": per_round("slt.tokenize", attr("untokenizable")),
        "corpus.vocab_s": per_round("corpus.vocab", own),
        "corpus.heldout_s": per_round("corpus.heldout", own),
        "corpus.ingest_self_s": per_round("corpus.ingest", own),
        "corpus.tokens": per_round("corpus.ingest", attr("tokens")),
        "corpus.heldout_items": per_round("corpus.ingest", attr("heldout_items")),
        "corpus.heldout_skipped": per_round("corpus.ingest", attr("heldout_skipped")),
        "bundle.save_s": per_round("bundle.save", dur),
        "bundle.load_s": per_round("bundle.load", dur),
        "bundle.bytes": per_round("bundle.save", attr("bytes")),
        "evaluation.score_s": per_round("evaluation.score", dur),
        "evaluation.score_calls": per_round("evaluation.score", calls),
        "evaluation.test_s": per_round("evaluation.test", dur),
        "evaluation.items_skipped": per_round("evaluation.test", attr("skipped")),
        "model.derive_s": per_round("model.derive", dur),
        "modelfile.save_s": per_round("modelfile.save", dur),
        "modelfile.load_s": per_round("modelfile.load", dur),
        "modelfile.bytes": per_round("modelfile.save", attr("bytes")),
        "trace_overhead_frac": overhead_frac,
    }
    m.update(_training_metrics(spans, seconds, focus("training.fit")))

    for family in QUERY_FAMILIES:
        lat: dict[str, list[float]] = {mode: [] for mode in QUERY_MODES}
        for i in focus(f"retrieval.{family}"):
            if spans[i].parent is None:  # warm calls; cold ones run under cli.main
                lat.setdefault(spans[i].attrs.get("mode"), []).append(dur(i) * 1e6)
        for mode in QUERY_MODES:
            for q in (50, 99):
                m[f"retrieval.{family}.{mode}.p{q}_us"] = percentile(lat[mode], q) if lat[mode] else 0.0

    cli_self = [own(i) * 1e3 for i in focus("cli.main")]
    m["cli.query_self_ms"] = statistics.median(cli_self) if cli_self else 0.0
    return m


def _training_metrics(spans: list[Span], seconds: list[float], fits: list[int]) -> dict[str, float]:
    """Epochs, SGD seconds and throughput per pass, per round.

    A fit's epoch records carry raw seconds that include validation
    scoring; they are scaled by the fit's measured-to-raw ratio, and the
    scoring spans under the fit, one per epoch in order, are subtracted
    to leave SGD time."""
    scoring: dict[int, list[float]] = {}
    for s, d in zip(spans, seconds):
        if s.name == "evaluation.score" and s.parent is not None:
            scoring.setdefault(s.parent, []).append(d)
    rounds: dict[int, dict[str, list[float]]] = {}
    for i in fits:
        epochs = spans[i].attrs.get("epochs", [])
        scores = scoring.get(i, [])
        if len(scores) != len(epochs):
            scores = [0.0] * len(epochs)
        tokens = spans[i].attrs.get("tokens", 0)
        scale = seconds[i] / spans[i].seconds
        acc = rounds.setdefault(spans[i].round, {})
        for (pass_name, raw), score_s in zip(epochs, scores):
            row = acc.setdefault(pass_name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += raw * scale - score_s
            row[2] += tokens
    out = {}
    for p in PASSES:
        rows = [acc[p] for acc in rounds.values() if p in acc]
        out[f"training.{p}.epochs"] = statistics.median(r[0] for r in rows) if rows else 0
        out[f"training.{p}.sgd_s"] = statistics.median(r[1] for r in rows) if rows else 0.0
        out[f"training.{p}.tokens_per_s"] = (
            statistics.median(r[2] / r[1] for r in rows if r[1] > 0) if rows else 0.0
        )
    return out
