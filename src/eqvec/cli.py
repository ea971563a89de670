"""Command-line pipeline: ingest, train, eval, query, inspect.

Configuration is a flat key=value file plus command-line overrides, with
precedence CLI > file > defaults.  Exit codes: 0 ok, 1 runtime failure,
2 usage or input error, 3 corrupt artifact.
"""

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys
import time
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import bundle as bundle_io
from . import corpus as corpus_mod
from . import modelfile, retrieval
from .corpus import IngestParams
from .model import MODES, ModelConfig

# A query runs only bundle, modelfile, model and retrieval: each other command
# imports the modules it alone uses, and calls through them so the names stay
# patchable.

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_CORRUPT = 3


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    """The keys only the CLI has, beside the two library configs.

    Every field of ``ModelConfig`` and ``IngestParams`` is a config key too;
    ``seed`` and ``n_negatives`` belong to both and set both.
    """

    corpus_dir: str | None = None
    bundle_dir: str = "bundle"
    model_path: str = "model.eqv"
    report_path: str = "eval_report.tsv"
    mode: str = "equation"
    # evaluation grid, comma-separated
    eval_modes: str = ",".join(MODES)
    eval_dims: str = str(ModelConfig.k)
    eval_word_windows: str = "4,8,16"
    eval_eq_windows: str = "8,16"
    model: ModelConfig = field(default_factory=ModelConfig)
    ingest: IngestParams = field(default_factory=IngestParams)
    # the keys a config file, --set or a flag gave (``build_config`` sets it)
    given: typing.ClassVar[frozenset] = frozenset()

    def eval_grid(self) -> tuple[list, tuple, tuple, tuple]:
        """(modes, dims, word windows, equation windows) of the eval grid."""
        modes = _split(self.eval_modes)
        for m in modes:
            if m not in MODES:
                raise UsageError(f"eval_modes: unknown mode {m!r}")
        dims = _int_list("eval_dims", self.eval_dims)
        windows = []
        for key in ("eval_word_windows", "eval_eq_windows"):
            values = _int_list(key, getattr(self, key))
            bad = [v for v in values if v <= 0 or v % 2]
            if bad:
                raise UsageError(f"{key}: windows must be positive even integers, got {bad}")
            windows.append(values)
        return (modes, dims, *windows)


_KEY_TYPES = {
    f.name: f.type
    for cls in (RunConfig, ModelConfig, IngestParams)
    for f in fields(cls)
    if f.name not in ("model", "ingest")
}
# keys that a dedicated flag also sets, each flag's argparse dest named after its key
_FLAG_KEYS = (
    "corpus_dir", "bundle_dir", "model_path", "report_path", "mode", "seed", "workers", "word2eq_vectors",
)


def _split(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


def _int_list(key: str, value: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in _split(value))
    except ValueError:
        raise UsageError(f"{key}: expected comma-separated integers, got {value!r}") from None


def _coerce(key: str, value: str):
    t = _KEY_TYPES.get(key)
    if t is None:
        raise UsageError(f"unknown config key {key!r}")
    t = next((a for a in typing.get_args(t) if a is not type(None)), t)  # X | None -> X
    if t is bool:
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
        raise UsageError(f"bad boolean for {key}: {value!r}")
    try:
        return t(value)
    except ValueError:
        raise UsageError(f"bad {t.__name__} for {key}: {value!r}") from None


def _pick(cls, values: dict) -> dict:
    names = {f.name for f in fields(cls)}
    return {k: v for k, v in values.items() if k in names}


def parse_config_file(path: str) -> dict:
    values = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, value = (s.strip() for s in line.split("=", 1))
            values[key] = _coerce(key, value)
    return values


def build_config(args) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        if not os.path.isfile(args.config):
            raise UsageError(f"config file not found: {args.config}")
        values.update(parse_config_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        values[key.strip()] = _coerce(key.strip(), value.strip())
    for key in _FLAG_KEYS:
        v = getattr(args, key, None)
        if v is not None:
            values[key] = v
    if getattr(args, "parallel", False):
        values["workers"] = os.cpu_count() or 1
    # the CLI spells ModelConfig's dimension-scaled default (None) as 0
    if values.get("init_scale") == 0:
        values["init_scale"] = None
    cfg = RunConfig(
        **_pick(RunConfig, values),
        model=ModelConfig(**_pick(ModelConfig, values)),
        ingest=IngestParams(**_pick(IngestParams, values)),
    )
    cfg.given = frozenset(values)
    try:
        cfg.model.validate()
        cfg.ingest.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if cfg.mode not in MODES:
        raise UsageError(f"unknown mode {cfg.mode!r}")
    cfg.eval_grid()
    return cfg


# --- commands -------------------------------------------------------------------


def cmd_ingest(args) -> int:
    from . import tex

    cfg = build_config(args)
    if not cfg.corpus_dir:
        raise UsageError("ingest requires --corpus")
    if not os.path.isdir(cfg.corpus_dir):
        print(f"error: corpus directory not found: {cfg.corpus_dir}", file=sys.stderr)
        return EXIT_USAGE
    docs = []
    for name in sorted(os.listdir(cfg.corpus_dir)):
        if not name.endswith(".tex"):
            continue
        path = os.path.join(cfg.corpus_dir, name)
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                text = f.read()
            docs.append(tex.RawDocument(name[: -len(".tex")], text))
        except (OSError, ValueError) as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
    if not docs:
        print("error: no readable .tex documents", file=sys.stderr)
        return EXIT_RUNTIME
    data = corpus_mod.ingest_corpus(docs, cfg.ingest)
    bundle_io.save_bundle(data, cfg.bundle_dir)
    print("documents\twords\tequations\tunits")
    s = data.stats
    print(f"{s['documents']}\t{s['words']}\t{s['equations']}\t{s['units']}")
    return EXIT_OK


def cmd_train(args) -> int:
    from . import training

    cfg = build_config(args)
    if not os.path.isdir(cfg.bundle_dir):
        print(f"error: bundle not found: {cfg.bundle_dir}", file=sys.stderr)
        return EXIT_USAGE
    data = bundle_io.load_bundle(cfg.bundle_dir)
    mconfig = cfg.model
    t0 = time.perf_counter()
    try:
        model, records = training.train_model(data, mconfig, cfg.mode)
    except training.TrainingDiverged as exc:
        print(f"error: {exc}; retaining last good snapshot", file=sys.stderr)
        modelfile.save_model(exc.model, cfg.model_path)
        _write_trace(cfg.model_path, exc.records)
        return EXIT_RUNTIME
    modelfile.save_model(model, cfg.model_path)
    _write_trace(cfg.model_path, records)
    passes = {}
    for r in records:
        passes[r.pass_name] = r.epoch
    epochs = ", ".join(f"{p}={e}" for p, e in passes.items())
    print(
        f"trained mode={cfg.mode} k={mconfig.k} epochs[{epochs}] "
        f"in {time.perf_counter() - t0:.1f}s -> {cfg.model_path}"
    )
    return EXIT_OK


def _write_trace(model_path: str, records):
    with open(model_path + ".trace.jsonl", "w") as f:
        for r in records:
            f.write(
                json.dumps(
                    {
                        "pass": r.pass_name,
                        "epoch": r.epoch,
                        "validation_predictive_ll": r.validation_score,
                        "train_loss": r.train_loss,
                        "seconds": round(r.seconds, 3),
                        "score_seconds": round(r.score_seconds, 3),
                    }
                )
                + "\n"
            )


def cmd_eval(args) -> int:
    from . import evaluation

    cfg = build_config(args)
    if not os.path.isdir(cfg.bundle_dir):
        print(f"error: bundle not found: {cfg.bundle_dir}", file=sys.stderr)
        return EXIT_USAGE
    data = bundle_io.load_bundle(cfg.bundle_dir)
    modes, dims, wws, ews = cfg.eval_grid()
    base = cfg.model
    lines = [
        "# eqvec-eval 1\tconfig="
        + json.dumps(dataclasses.asdict(base), sort_keys=True)
    ]
    lines.append("mode\tk\tword_window\teq_window\tvalid_pseudo_ll\ttest_pseudo_ll\tepochs\tselected")
    for mode in modes:
        for k in dims:
            rows, best = evaluation.grid_select(
                data, dataclasses.replace(base, k=k), mode, wws, ews
            )
            for r in rows:
                lines.append(
                    f"{r.mode}\t{r.k}\t{r.word_window}\t{r.eq_window}\t"
                    f"{r.valid_pseudo_ll:.6f}\t{r.test_pseudo_ll:.6f}\t"
                    f"{r.epochs_run}\t{int(r.selected)}"
                )
    report = "\n".join(lines) + "\n"
    with open(cfg.report_path, "w") as f:
        f.write(report)
    sys.stdout.write(report)
    return EXIT_OK


def cmd_query(args) -> int:
    cfg = build_config(args)
    if args.k < 1:
        raise UsageError(f"-k must be at least 1, got {args.k}")
    data = bundle_io.load_query_files(cfg.bundle_dir)
    model = modelfile.load_model(cfg.model_path, eq_units=data.eq_units)
    _check_model_fits(model, data)
    if args.query_kind != "word2eq" and not 0 <= args.id < len(data.registry):
        raise UsageError(f"unknown equation id {args.id} (the bundle has {len(data.registry)})")
    k = args.k
    if args.query_kind == "eq2eq":
        ranking = retrieval.nearest_equations(
            model, args.id, k, metric=args.metric or "euclidean"
        )
        surface = lambda i: data.registry.records[i].latex
    elif args.query_kind == "eq2word":
        ranking = retrieval.nearest_words(model, args.id, k, metric=args.metric or "cosine")
        surface = lambda i: data.word_vocab.forms[i]
    else:
        words = [w.strip() for w in args.words.split(",") if w.strip()]
        # the model's own choice unless this run names one
        vectors = cfg.model.word2eq_vectors if "word2eq_vectors" in cfg.given else None
        ranking = retrieval.equations_for_words(
            model, data.word_vocab, words, k,
            metric=args.metric or "cosine", vectors=vectors,
        )
        surface = lambda i: data.registry.records[i].latex
    print("rank\tid\tscore\tsurface")
    for rank, (idx, score) in enumerate(ranking.hits, 1):
        print(f"{rank}\t{idx}\t{score:.6f}\t{surface(idx)}")
    return EXIT_OK


def _check_model_fits(model, data: bundle_io.QueryFiles):
    """Refuse a model whose sizes cannot belong to the bundle."""
    if model.word.size != len(data.word_vocab):
        raise modelfile.ModelFileError(
            f"model has {model.word.size} words, the bundle {len(data.word_vocab)}"
        )
    if model.n_equations != len(data.registry):
        raise modelfile.ModelFileError(
            f"model has {model.n_equations} equations, the bundle {len(data.registry)}"
        )
    if model.mode == "unit" and data.eq_units:
        top = int(np.concatenate(list(data.eq_units.values())).max(initial=-1))
        if top >= model.unit.size:
            raise modelfile.ModelFileError(
                f"bundle equations use unit id {top}, the model has {model.unit.size} units"
            )


def cmd_inspect(args) -> int:
    header = modelfile.read_header(args.model)
    print(modelfile.format_header(header))
    return EXIT_OK


# --- argument parsing -------------------------------------------------------------


def _add_common(p):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override any config key")
    p.add_argument("--seed", type=int, default=None)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The whole command tree, built once per process: parsing never changes it."""
    p = argparse.ArgumentParser(prog="eqvec", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pi = sub.add_parser("ingest", help="build a corpus bundle from .tex articles")
    pi.add_argument("--corpus", dest="corpus_dir", metavar="CORPUS", help="directory of .tex files, one article each")
    pi.add_argument("--bundle", dest="bundle_dir", metavar="BUNDLE", help="output bundle directory")
    pi.add_argument("--workers", type=int, default=None)
    pi.add_argument("--parallel", action="store_true", help="use all cores for ingestion")
    _add_common(pi)
    pi.set_defaults(fn=cmd_ingest)

    pt = sub.add_parser("train", help="fit a model on a corpus bundle")
    pt.add_argument("--bundle", dest="bundle_dir", metavar="BUNDLE", help="bundle directory")
    pt.add_argument("--model", dest="model_path", metavar="MODEL", help="output model path")
    pt.add_argument("--mode", choices=MODES, default=None)
    _add_common(pt)
    pt.set_defaults(fn=cmd_train)

    pe = sub.add_parser("eval", help="grid-train and report held-out scores")
    pe.add_argument("--bundle", dest="bundle_dir", metavar="BUNDLE", help="bundle directory")
    pe.add_argument("--report", dest="report_path", metavar="REPORT", help="output TSV path")
    _add_common(pe)
    pe.set_defaults(fn=cmd_eval)

    pq = sub.add_parser("query", help="similarity queries over a fitted model")
    qsub = pq.add_subparsers(dest="query_kind", required=True)
    for kind, help_text in (
        ("eq2eq", "equations nearest an equation"),
        ("eq2word", "words nearest an equation"),
        ("word2eq", "equations nearest a bag of words"),
    ):
        qp = qsub.add_parser(kind, help=help_text)
        if kind == "word2eq":
            qp.add_argument("--words", required=True, help="comma-separated query words")
            qp.add_argument("--vectors", dest="word2eq_vectors", choices=("rho", "alpha"), default=None,
                            help="word2eq_vectors: the equation vectors to rank")
        else:
            qp.add_argument("--id", type=int, required=True, help="equation id")
        qp.add_argument("-k", type=int, default=5)
        qp.add_argument("--metric", choices=("cosine", "euclidean"), default=None)
        qp.add_argument("--model", dest="model_path", metavar="MODEL", help="model path")
        qp.add_argument("--bundle", dest="bundle_dir", metavar="BUNDLE", help="bundle directory")
        _add_common(qp)
        qp.set_defaults(fn=cmd_query)

    pn = sub.add_parser("inspect", help="print a model file header")
    pn.add_argument("model", help="model path")
    pn.set_defaults(fn=cmd_inspect)
    return p


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (modelfile.ModelFileError, bundle_io.BundleFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
