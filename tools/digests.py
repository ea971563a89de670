"""Named sha256 digests of everything the pipeline writes, for byte-identity checks.

Builds the planted corpus bundle and runs the CLI on it in-process:

* the source text of three planted corpora (``corpus/...``, named
  ``DOCS-CLASSES-SENTENCES/seedSEED``): the 200 documents every other
  digest starts from, the bench's 2000-document ingest corpus, and one
  with 3 classes and 5 sentences a document, so that a change to the
  generator shows by itself and not only through the bundles;
* every file of the bundle (``manifest.json``, ``vocab.bin``,
  ``equations.bin``, ``units.bin``, ``streams.bin``, ``eq_units.bin``,
  ``heldout.valid.bin`` and ``heldout.test.bin``); of a bundle of the
  same corpus with ``%`` comments, ``\\%`` escapes and hyphenated words
  written into its prose (``commented_corpus``), which the planted
  corpus has none of; of one
  with inline math the planted corpus lacks (``inline_math_corpus``:
  ``\\(...\\)`` spans, a ``$`` span holding ``\\)``, an unclosed ``\\(``
  and a lone ``$``, in pieces with and without a ``\\(``); of one with
  display equations that reach the layout-tree parser's branches the
  planted templates do not (``math_corpus``: root indices, ``\\left.``
  and ``\\right|``, ``\\binom``, wrappers, ``\\text``, ``\\label``,
  primes, ``\\{``, an unknown command and an unclosed brace), ingested
  at ``symbol_window=2``; of one with display equations beyond the planted
  templates (``equations_corpus``: every equation of
  ``tests/data/slt_golden.tsv`` and the parser's edge cases in
  ``_EDGE_EQUATIONS``), ingested at the default ``symbol_window`` and at
  ``symbol_window=3`` (``equations`` and ``equations3``), so that the unit
  tables pin the layout-tree tokenizer; of one with reference commands in its prose
  (``references_corpus``: ``\\ref``, ``\\eqref`` and ``\\cite[...]{...}``,
  with and without nested braces in their arguments, a ``]`` in a group
  or escaped inside ``[...]``, ``\\{`` escapes, a ``ref{`` after a
  ``\\\\`` line break, a ``\\citep`` with two ``[...]`` arguments, a
  ``\\ref`` with a space before its argument, a ``\\cite`` with blanks
  between its arguments, and a ``\\cite{x}`` whose next group, after a
  space, stays prose), which the planted corpus has none of; of one with
  backslash escapes in its prose (``escapes_corpus``: a table row's
  ``\\\\[2pt]`` before a real ``\\[...\\]``, ``\\$`` prices, a ``\\\\(``, a
  comment after ``\\\\%``, a ``\\$`` before inline math and an equation
  with ``\\label {x}``), which the planted corpus has none of; of the
  planted corpus ingested at the held-out settings ``HELDOUT`` (seed,
  items per equation, window and negatives all off their defaults), so
  that held-out draws at other sizes and bounds are pinned; of a
  bundle that keeps only ``SINGLETON_SAMPLE`` of its singleton
  equations, so that the registry is compacted and renumbered; and of
  one ingested at ``unit_min_count=UNIT_MIN_COUNT`` (``gapped``), whose
  equations lose the units the threshold drops;
* each of those eleven bundles loaded back, table by table (``table/...``):
  the streams' ``doc_ids``, ``ptr`` and ``codes``, the ``eq_units`` ``ptr``
  and ``ids``, the registry, both vocabularies and every held-out column.
  These digest content, not layout: a change to how a bundle file is laid
  out changes its file digest and leaves its table digests equal;
* ``eqvec train`` in seven configurations (word, equation, unit-joint, unit
  two-pass, ``unit_context_mean``, equation at ``negative_sampling=uniform``,
  whose cumulative weights are about ``i/n``, and unit-joint at
  ``n_negatives=25``, whose slices hold fewer positions) at model seeds 4
  and 1, and the ``GAPPED_CONFIGS`` on the gapped bundle (named
  ``gapped-...``): the model file, and its ``.trace.jsonl`` with the two
  timing fields masked;
* ``eqvec eval`` with the default grid at seeds 4 and 1: the report TSV;
* ``eqvec query`` on every model with equation vectors: eq2eq and eq2word
  at equation ids 0, 7 and 42 (those the bundle has), each under its
  default metric and the other one, and one word2eq: stdout and exit code;
* the same queries through ``eqvec.retrieval`` on one loaded model, asked
  twice, so that the second answers read what the first scans left on the
  model (``warm/...``): their ids and the ``float.hex`` of each score;
* each loaded unit model's two equation matrices (``derived/.../alpha``
  and ``rho``): their raw bytes.

Fits use the acceptance configuration (k=25, windows 4/16/2, learning rate
0.05).  Run it in two checkouts and compare the outputs::

    python3 tools/digests.py --out a.json          # 200 docs, about 25 s
    python3 tools/digests.py --compare a.json b.json

The output holds the digests, the corpus size and epoch cap they were
made at, and the ``environment`` they depend on.  ``--compare`` prints
each digest that differs or exists on one side only, and exits 1 if there
is any.  Digests of fitted, scored or queried floats (``FLOAT_GROUPS``)
depend on numpy's BLAS and on the SIMD extensions it uses, while those of
the corpus text and bundles (``BYTE_GROUPS``) do not.
``tests/data/digests.json`` holds a 40-document, one-epoch run that
tier-1 compares against; a change that alters bytes on purpose writes it
again::

    python3 tools/digests.py --n-docs 40 --max-epochs 1 --out tests/data/digests.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from eqvec import bundle, cli, modelfile, retrieval  # noqa: E402
from eqvec.corpus import IngestParams, ingest_corpus  # noqa: E402
from eqvec.synthetic import planted_corpus  # noqa: E402
from eqvec.tex import RawDocument  # noqa: E402

CORPUS_SEED, INGEST_SEED = 7, 11
# (n_docs, n_classes, sentences_per_doc, seed) of each planted corpus whose text is digested
PLANTED = ((200, 4, 8, CORPUS_SEED), (2000, 4, 8, 1), (37, 3, 5, 11))
SINGLETON_SAMPLE = 8
UNIT_MIN_COUNT = 2  # the gapped bundle's threshold: units seen once are dropped
# held-out settings other than the defaults, so that draws at other sizes and bounds are pinned
HELDOUT = {"seed": 12345, "heldout_per_equation": 3, "heldout_window": 6, "n_negatives": 5}
MODEL_SEEDS = (4, 1)
EVAL_SEEDS = (4, 1)
QUERY_IDS = (0, 7, 42)
QUERY_K = 5  # eqvec query's default -k
ACCEPTANCE = {"k": 25, "word_window": 4, "eq_window": 16, "unit_window": 2, "learning_rate": 0.05}
CONFIGS = {
    "word": ("word", {}),
    "equation": ("equation", {}),
    "unit-joint": ("unit", {}),
    "unit-two-pass": ("unit", {"unit_joint": "false"}),
    "unit-mean": ("unit", {"unit_context_mean": "true"}),
    "uniform": ("equation", {"negative_sampling": "uniform"}),
    "negatives-25": ("unit", {"n_negatives": 25}),
}
GAPPED_CONFIGS = ("unit-joint", "unit-two-pass")  # fitted on the gapped bundle as well
FLOAT_GROUPS = ("model/", "trace/", "eval/", "query/", "warm/", "derived/")
BYTE_GROUPS = ("corpus/", "bundle/", "table/")
_SECONDS = re.compile(r'"(seconds|score_seconds)": [0-9.e+-]+')


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _sets(values: dict) -> list:
    return [a for key, v in values.items() for a in ("--set", f"{key}={v}")]


# Written into every third prose line, in turn: a comment line before it
# (hiding a display equation), an escaped "%" with hyphen runs after it, and
# a trailing comment.  The hyphenated words take turns, so that each is
# frequent enough for the vocabulary and none is a corpus stop word.
_COMMENT_LINE = "% draft-note: the well-known bound $$q_{{{}}} = 0$$ stays hidden\n"
_ESCAPES = " Up to 5\\% of {} cases -- pages 3--5, non- linear -x y-."
_TRAILING = " % a trailing-comment \\% with an escape"
_HYPHENATED = ("closed-form", "mean-field", "well-posed", "low-rank", "non-convex", "data-driven",
               "real-valued", "self-adjoint")


def commented_corpus(docs):
    """``docs`` with comments, ``\\%`` escapes and hyphenated words written
    into their prose lines (those ending in ".")."""
    out = []
    for d, doc in enumerate(docs):
        lines, j = [], 0
        for line in doc.source_text.split("\n"):
            if line.endswith("."):
                if j % 3 == 0:
                    line = _COMMENT_LINE.format(j) + line
                elif j % 3 == 1:
                    line += _ESCAPES.format(_HYPHENATED[(d + j // 3) % len(_HYPHENATED)])
                else:
                    line += _TRAILING
                j += 1
            lines.append(line)
        out.append(RawDocument(doc.doc_id, "\n".join(lines)))
    return out


# Written into the prose lines of the even documents in turn and into
# every prose line of the odd ones: two closed \(...\) spans, and a $...$
# span that holds "\)", so that the odd documents' pieces hold "$" as the
# only opener.  Before \end{document}, in the last piece of prose, an
# unclosed "\(" (even documents) and a lone "$" follow.
_PAREN_SPANS = " Then \\(q_{{{}}}\\) holds for \\(r\\) here."
_DOLLAR_PAREN = " Here $a \\) b_{{{}}}$ stays closed."
_TAILS = ("An open \\( paren and a lone $ sign end the text.\n", "A lone $ sign ends the text.\n")


def inline_math_corpus(docs):
    """``docs`` with inline math written into their prose: ``\\(...\\)``
    spans, which the planted corpus has none of, a ``$`` span holding
    ``\\)``, an unclosed ``\\(`` and a lone ``$``."""
    out = []
    for d, doc in enumerate(docs):
        lines, j = [], 0
        for line in doc.source_text.split("\n"):
            if line.endswith("."):
                line += (_PAREN_SPANS if d % 2 == j % 2 == 0 else _DOLLAR_PAREN).format(j)
                j += 1
            lines.append(line)
        text = "\n".join(lines)
        end = text.rindex("\\end{document}")
        out.append(RawDocument(doc.doc_id, text[:end] + _TAILS[d % 2] + text[end:]))
    return out


# One display equation per document, in turn, with "@" replaced by the
# document's number modulo 3, so that each is seen several times.
_MATH_EQUATIONS = (
    "\\sqrt[@]{x_{@} + 1} = \\sqrt{y}",
    "\\left. \\frac{d f}{d x} \\right|_{x = @}",
    "\\binom{n}{@} = \\binom{n}{n - @}",
    "\\hat{x}_{@} + \\vec{v} \\cdot \\overline{w}",
    "f'(x) + g''_{@} = h'^{2}",
    "y = @ \\text{if } x > 0 \\label{eq:{@}}",  # nested braces: normalization drops the whole label
    "\\{ a_{@}, b \\} \\subseteq \\left\\{ S \\right\\}",
    "\\mycommand{x} + \\widget_{@} \\mathbf{A}^{T}",
    "{x + y_{@} \\cdot z",
)


# Edge cases of the layout-tree parser that neither the planted templates
# nor the golden equations reach: roots with indices, "\left.", primes on
# carriers, unknown and starred commands, a "%" comment (which the extractor
# strips) beside an escaped "\%", non-ASCII letters, digits and spaces,
# spacing escapes, empty groups and a trailing backslash.
_EDGE_EQUATIONS = (
    "\\sqrt[n^2]{x} + \\sqrt[x']{y} - \\sqrt[a_i]{b} + \\sqrt[\\sqrt[3]{k}]{c}",
    "\\left. \\frac{d f}{d x} \\right|_{x = 0} + \\left\\{ a \\right\\} \\left( b \\right)",
    "x^{2}^{3}' + {_{i}' y} + z_{1}_{2}''",
    "\\foo{x} + \\unknowncmd_{1} \\widget^{\\gadget}",
    "\\operatorname*{argmax}_{\\theta} L(\\theta) + \\foo* z \\align* w",
    "a + b % a comment inside the equation\n + c \\% d",
    "\\é + ß_{1} + x² + \u0663 \u2009 y",
    "\\binom{n}{k} \\hat{x} \\vec{v} \\text{if} \\displaystyle \\lim_{n} a \\cdot b",
    "a \\, b \\; c \\! d \\ e & f ~ g * h \\{ i \\} \\\\ j",
    "{x + y} {} \\frac{}{} z \\",
)


def _golden_equations() -> list[str]:
    """The equations of ``tests/data/slt_golden.tsv``, in file order."""
    path = Path(__file__).resolve().parents[1] / "tests" / "data" / "slt_golden.tsv"
    return [line.split("\t")[0] for line in path.read_text().splitlines() if not line.startswith("#")]


def equations_corpus(docs):
    """``docs`` with one display equation each, in turn, from the golden
    equations and ``_EDGE_EQUATIONS``, written before ``\\end{document}``."""
    cases = _golden_equations() + list(_EDGE_EQUATIONS)
    out = []
    for d, doc in enumerate(docs):
        eq = cases[d % len(cases)]
        end = doc.source_text.rindex("\\end{document}")
        region = f"\\begin{{equation}}\n{eq}\n\\end{{equation}}\n"
        out.append(RawDocument(doc.doc_id, doc.source_text[:end] + region + doc.source_text[end:]))
    return out


def math_corpus(docs):
    """``docs`` with one display equation from ``_MATH_EQUATIONS`` each,
    written before ``\\end{document}``."""
    out = []
    for d, doc in enumerate(docs):
        eq = _MATH_EQUATIONS[d % len(_MATH_EQUATIONS)].replace("@", str(d % 3))
        end = doc.source_text.rindex("\\end{document}")
        out.append(RawDocument(doc.doc_id, f"{doc.source_text[:end]}\\[ {eq} \\]\n{doc.source_text[end:]}"))
    return out


# Written into every prose line, in turn: references without braces in
# their arguments, references whose arguments nest braces (dropped whole,
# like the others), and escaped braces before a reference.  "@" is the
# line's number.
_REFERENCES = (
    " See \\ref{sec:@} and \\eqref{eq:@} here.",
    " As in \\ref{sec:{intro}@} and \\eqref{eq:{a}{b}@} shown.",
    " By \\cite[p.~@]{key} and \\cite[p.~{@}]{smith{jones}} we know.",
    " The set \\{ x_@ \\} of \\cite{lemma} holds.",
    " Cf. \\cite[{a]b}]{x@} and \\cite[p.\\]@]{k} then a \\\\ref{b} line.",
    " See \\citep[see][p.~@]{k@} for it.",
    " Recall \\ref {eq:@} above.",
    " By \\cite [a] [p.~@]\n{k@} and \\cite{x} {\\em word} it.",
)


def references_corpus(docs):
    """``docs`` with reference commands from ``_REFERENCES`` written into
    their prose lines (those ending in ".")."""
    return _written_into_prose(docs, _REFERENCES)


# Written into every prose line, in turn: a table row break with its skip
# before a display equation, escaped dollars, a line break before "(", a
# comment after a line break, an escaped dollar before inline math, and an
# equation whose label has a blank before its group.  "@" is the line's
# number.
_ESCAPED = (
    " A table \\begin{tabular}{cc} a & b \\\\[2pt] c & d \\end{tabular} and then \\[ y_{@} = 2 \\] follows.",
    " A price of \\$@ within \\$10 in total.",
    " Then \\\\(alpha) holds \\\\) here.",
    " One line \\\\% hidden words @",
    " It costs \\$$y_{@}$ at most.",
    " So \\[ x_{@} = 1 \\label {eq:@} \\] and \\[ x_{@} = 1 \\label{eq:@} \\] hold.",
)


def escapes_corpus(docs):
    """``docs`` with the escapes of ``_ESCAPED`` written into their prose
    lines (those ending in ".")."""
    return _written_into_prose(docs, _ESCAPED)


def _written_into_prose(docs, pieces):
    """``docs`` with ``pieces`` appended to their prose lines (those ending
    in "."), in turn, each "@" replaced by the line's number."""
    out = []
    for doc in docs:
        lines, j = [], 0
        for line in doc.source_text.split("\n"):
            if line.endswith("."):
                line += pieces[j % len(pieces)].replace("@", str(j))
                j += 1
            lines.append(line)
        out.append(RawDocument(doc.doc_id, "\n".join(lines)))
    return out


def _content(value) -> str:
    """The digest of an array's dtype, shape and values, or of a JSON value."""
    if isinstance(value, np.ndarray):
        return _sha(f"{value.dtype.str} {value.shape}\n".encode() + np.ascontiguousarray(value).tobytes())
    return _sha(json.dumps(value).encode())


def _tables(data) -> dict:
    """The tables of a loaded corpus by name."""
    tables = {
        "streams.doc_ids": data.streams.doc_ids,
        "streams.ptr": data.streams.ptr,
        "streams.codes": data.streams.codes,
        "eq_units.ptr": data.eq_units.ptr,
        "eq_units.ids": data.eq_units.ids,
        "registry.latex": data.registry.latex,
        "registry.counts": data.registry.counts,
    }
    for kind in ("word_vocab", "unit_vocab"):
        tables[f"{kind}.forms"] = getattr(data, kind).forms
        tables[f"{kind}.freqs"] = getattr(data, kind).freqs
    tables["word_vocab.stop_forms"] = list(data.word_vocab.stop_forms)
    for split in ("heldout_valid", "heldout_test"):
        held = getattr(data, split)
        tables.update({f"{split}.{c}": getattr(held, c) for c in held.COLUMNS})
    return tables


def _bundle_digests(data, bundle_dir: str, name: str) -> dict:
    bundle.save_bundle(data, bundle_dir)
    out = {f"bundle/{name}/{f}": _sha(Path(bundle_dir, f).read_bytes()) for f in sorted(os.listdir(bundle_dir))}
    out.update({f"table/{name}/{t}": _content(v) for t, v in _tables(bundle.load_bundle(bundle_dir)).items()})
    return out


def digests(workdir: str, n_docs: int = 200, max_epochs: int | None = None) -> dict:
    """Every named digest of one run in ``workdir``; ``max_epochs`` caps
    every fit, the eval grid's included."""
    out = {}
    for args in PLANTED:
        text = [[d.doc_id, d.source_text] for d in planted_corpus(*args).documents]
        out["corpus/{}-{}-{}/seed{}".format(*args)] = _content(text)
    docs = planted_corpus(n_docs=n_docs, seed=CORPUS_SEED).documents
    commented = ingest_corpus(commented_corpus(docs), IngestParams(seed=INGEST_SEED))
    out.update(_bundle_digests(commented, os.path.join(workdir, "commented"), "commented"))
    inline = ingest_corpus(inline_math_corpus(docs), IngestParams(seed=INGEST_SEED))
    out.update(_bundle_digests(inline, os.path.join(workdir, "inline"), "inline"))
    math = ingest_corpus(math_corpus(docs), IngestParams(seed=INGEST_SEED, symbol_window=2))
    out.update(_bundle_digests(math, os.path.join(workdir, "math"), "math"))
    for name, window in (("equations", {}), ("equations3", {"symbol_window": 3})):
        eqs = ingest_corpus(equations_corpus(docs), IngestParams(seed=INGEST_SEED, **window))
        out.update(_bundle_digests(eqs, os.path.join(workdir, name), name))
    references = ingest_corpus(references_corpus(docs), IngestParams(seed=INGEST_SEED))
    out.update(_bundle_digests(references, os.path.join(workdir, "references"), "references"))
    escapes = ingest_corpus(escapes_corpus(docs), IngestParams(seed=INGEST_SEED))
    out.update(_bundle_digests(escapes, os.path.join(workdir, "escapes"), "escapes"))
    heldout = ingest_corpus(docs, IngestParams(**HELDOUT))
    out.update(_bundle_digests(heldout, os.path.join(workdir, "heldout"), "heldout"))
    data = ingest_corpus(docs, IngestParams(seed=INGEST_SEED))
    sampled = ingest_corpus(docs, IngestParams(seed=INGEST_SEED, singleton_sample=SINGLETON_SAMPLE))
    if sampled.n_equations == data.n_equations:
        raise RuntimeError("singleton sampling dropped no equation")
    out.update(_bundle_digests(sampled, os.path.join(workdir, "sampled"), "sampled"))
    gapped = ingest_corpus(docs, IngestParams(seed=INGEST_SEED, unit_min_count=UNIT_MIN_COUNT))
    if len(gapped.unit_vocab) == len(data.unit_vocab):
        raise RuntimeError(f"unit_min_count={UNIT_MIN_COUNT} dropped no unit")
    gapped_dir = os.path.join(workdir, "gapped")
    out.update(_bundle_digests(gapped, gapped_dir, "gapped"))
    bundle_dir = os.path.join(workdir, "bundle")
    out.update(_bundle_digests(data, bundle_dir, "planted"))
    cap = {} if max_epochs is None else {"max_epochs": max_epochs}
    out.update(_fit_digests(workdir, bundle_dir, data, CONFIGS, cap))
    out.update(_fit_digests(workdir, gapped_dir, gapped, {f"gapped-{c}": CONFIGS[c] for c in GAPPED_CONFIGS}, cap))
    for seed in EVAL_SEEDS:
        report = os.path.join(workdir, f"eval-{seed}.tsv")
        code, _ = _run(["eval", "--bundle", bundle_dir, "--report", report, "--seed", str(seed), *_sets(cap)])
        if code:
            raise RuntimeError(f"eval --seed {seed} exited {code}")
        out[f"eval/seed{seed}"] = _sha(Path(report).read_bytes())
    return out


def _fit_digests(workdir: str, bundle_dir: str, data, configs: dict, cap: dict) -> dict:
    """The model, trace, query, warm and derived digests of ``configs``
    fitted at ``MODEL_SEEDS`` on the bundle ``data`` was saved to."""
    out = {}
    ids = [i for i in QUERY_IDS if i < data.n_equations]
    words = ",".join(data.word_vocab.forms[:3])
    for name, (mode, extra) in configs.items():
        for seed in MODEL_SEEDS:
            key = f"{name}/seed{seed}"
            model = os.path.join(workdir, f"{name}-{seed}.eqv")
            code, _ = _run(["train", "--bundle", bundle_dir, "--model", model, "--mode", mode,
                            "--seed", str(seed), *_sets({**ACCEPTANCE, **extra, **cap})])
            if code:
                raise RuntimeError(f"train {key} exited {code}")
            out[f"model/{key}"] = _sha(Path(model).read_bytes())
            trace = _SECONDS.sub(r'"\1": 0', Path(model + ".trace.jsonl").read_text())
            out[f"trace/{key}"] = _sha(trace.encode())
            if mode == "word":  # no equation vectors to query
                continue
            # (family, equation id or words, metric or None for the family's default)
            queries = {f"{kind}/{i}": (kind, i, None) for kind in ("eq2eq", "eq2word") for i in ids}
            # each family's other metric, so that both scorers run on every matrix
            for kind, metric in (("eq2eq", "cosine"), ("eq2word", "euclidean")):
                queries.update({f"{kind}-{metric}/{i}": (kind, i, metric) for i in ids})
            queries["word2eq"] = ("word2eq", words, None)
            for q, (kind, arg, metric) in queries.items():
                args = [kind, "--words", arg] if kind == "word2eq" else [kind, "--id", str(arg)]
                args += ["--metric", metric] if metric else []
                code, text = _run(["query", *args, "--model", model, "--bundle", bundle_dir])
                out[f"query/{key}/{q}"] = _sha(f"{code}\n{text}".encode())
            out.update({f"warm/{key}/{q}": d for q, d in _warm_digests(model, bundle_dir, queries).items()})
            if mode == "unit":
                out.update({f"derived/{key}/{w}": d for w, d in _derived_digests(model, bundle_dir).items()})
    return out


def _warm_digests(model_path: str, bundle_dir: str, queries: dict) -> dict:
    """Each of ``queries`` asked twice through ``eqvec.retrieval`` of one
    loaded model, at ``eqvec query``'s default k: the digest of each second
    answer's ids and ``float.hex`` scores, or of the error it raised."""
    files = bundle.load_query_files(bundle_dir)
    model = modelfile.load_model(model_path, eq_units=files.eq_units)

    def ask(kind, arg, metric):
        given = {"metric": metric} if metric else {}
        try:
            if kind == "eq2eq":
                ranking = retrieval.nearest_equations(model, arg, QUERY_K, **given)
            elif kind == "eq2word":
                ranking = retrieval.nearest_words(model, arg, QUERY_K, **given)
            else:
                ranking = retrieval.equations_for_words(model, files.word_vocab, arg.split(","), QUERY_K, **given)
        except ValueError as e:
            return f"error: {e}"
        return " ".join(f"{i}:{score.hex()}" for i, score in ranking.hits)

    for _ in range(2):
        answers = {q: ask(*spec) for q, spec in queries.items()}
    return {q: _sha(a.encode()) for q, a in answers.items()}


def _derived_digests(model_path: str, bundle_dir: str) -> dict:
    """The digests of a loaded unit model's two equation matrices' raw bytes."""
    model = modelfile.load_model(model_path, eq_units=bundle.load_query_files(bundle_dir).eq_units)
    return {which: _sha(model.equation_matrix(which).tobytes()) for which in ("alpha", "rho")}


def environment() -> dict:
    """What float digests depend on beside the program: numpy, its BLAS,
    and the SIMD extensions numpy found on this CPU."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its build configuration
        return {"numpy": np.__version__}
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "simd": config["SIMD Extensions"]["found"]}


def record(workdir: str, n_docs: int = 200, max_epochs: int | None = None) -> dict:
    """One run's digests with what they were made at and depend on."""
    return {"n_docs": n_docs, "max_epochs": max_epochs, "environment": environment(),
            "digests": digests(workdir, n_docs, max_epochs)}


def compare(a: dict, b: dict) -> list:
    """Names whose digests differ or that one side lacks, sorted."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", help="write the digests to this JSON file (default: stdout)")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), help="list the digests that differ")
    p.add_argument("--n-docs", type=int, default=200, help="planted documents every bundle is made from")
    p.add_argument("--max-epochs", type=int, help="cap every fit, the eval grid's included")
    args = p.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(f).read_text()) for f in args.compare)
        for key in ("n_docs", "max_epochs", "environment"):
            if a[key] != b[key]:
                print(f"note\t{key} differs: {a[key]} against {b[key]}")
        diff = compare(a["digests"], b["digests"])
        for name in diff:
            print(f"differs\t{name}")
        print(f"{len(diff)} of {len(a['digests'].keys() | b['digests'].keys())} digests differ")
        return 1 if diff else 0
    with tempfile.TemporaryDirectory() as workdir:
        text = json.dumps(record(workdir, args.n_docs, args.max_epochs), indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
