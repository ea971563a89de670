"""Display-math extraction and word tokenization."""

import gc
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqvec import tex
from eqvec.corpus import _prepare_document
from eqvec.tex import (
    RawDocument,
    _extract,
    _split_rows,
    extract_display_equations,
    normalize_equation,
    strip_comments,
    tokenize_words,
)

from .reference_tex import drop_labels, reference_sequence, reference_tokenize_words, split_rows
from .reference_tex import strip_comments as reference_strip_comments


def test_single_equation_environment():
    doc = RawDocument("d", r"before \begin{equation}x+y\end{equation} after")
    pieces, slots, records = extract_display_equations(doc)
    assert len(records) == 1
    assert records[0].latex == "x+y"
    assert records[0].occurrence_count == 1
    assert slots == [0]
    assert "x+y" not in "".join(pieces)


def test_no_display_math_is_identity():
    doc = RawDocument("d", "just words here")
    pieces, slots, records = extract_display_equations(doc)
    assert records == [] and slots == []
    assert pieces == ["just words here"]


def test_duplicate_regions_share_record():
    doc = RawDocument("d", "a $$x^2$$ b $$ x^2 $$ c")
    pieces, slots, records = extract_display_equations(doc)
    assert len(records) == 1
    assert records[0].occurrence_count == 2
    assert slots == [0, 0]


def test_corpus_level_dedup_matches_string_count_oracle():
    # brute-force oracle: occurrences of the normalized latex across raw docs
    from eqvec.corpus import IngestParams, _prepare_batch, register_equations

    from .reference_corpus import build_equation_registry

    docs = [
        RawDocument("a", "one $$a^2$$ two"),
        RawDocument("b", "three $$ a^2 $$ four $$b_i$$"),
    ]
    per_doc = []
    oracle: dict[str, int] = {}
    for d in docs:
        _, _, recs = extract_display_equations(d)
        per_doc.append((d.doc_id, recs))
        for r in recs:
            oracle[r.latex] = oracle.get(r.latex, 0) + r.occurrence_count
    batch = _prepare_batch(docs)
    registry, gid = register_equations(batch, IngestParams())
    assert len(registry) == 2
    by_latex = {r.latex: r.occurrence_count for r in registry.records}
    assert by_latex == oracle == {"a^2": 2, "b_i": 1}
    # both docs' local equation 0 is the same global equation
    assert gid[batch.eq_ptr[0]] == gid[batch.eq_ptr[1]] == 0
    want, want_maps = build_equation_registry(per_doc)
    assert list(registry.records) == want.records
    assert [want_maps[d][e] for d, e in (("a", 0), ("b", 0), ("b", 1))] == gid.tolist()


def test_multiline_align_splits_rows():
    doc = RawDocument("d", "p \\begin{align}u &= v \\\\ w &= z\\end{align} q")
    pieces, slots, records = extract_display_equations(doc)
    assert [r.latex for r in records] == ["u &= v", "w &= z"]
    assert slots == [0, 1]


def test_row_split_ignores_braced_backslashes():
    doc = RawDocument("d", r"\begin{align}a = \frac{1}{2} \\ b = c\end{align}")
    _, _, records = extract_display_equations(doc)
    assert len(records) == 2
    assert records[0].latex == r"a = \frac{1}{2}"


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(["{", "}", "\\", "\\\\", "\\{", "\\}", "[", "]", "\\label{", "&", "a", "b", "\n"]),
                max_size=40))
@example(["a", "\\\\", "b", "\\"])  # a lone last backslash
@example(["}", "}", "\\\\", "{", "\\}", "\\\\", "}", "\\\\"])  # stray closers, an escaped one
def test_split_rows_matches_character_walk(parts):
    body = "".join(parts)
    assert _split_rows(body) == split_rows(body)


def test_unbalanced_environment_is_skipped_not_fatal():
    doc = RawDocument("d", r"start \begin{equation} x + y and more prose")
    pieces, _, records = extract_display_equations(doc)
    assert records == []
    assert "prose" in pieces[-1]


def test_label_stripped_and_whitespace_collapsed():
    doc = RawDocument(
        "d", "\\begin{equation}\n x +\n y \\label{eq:foo}\n\\end{equation}"
    )
    _, _, records = extract_display_equations(doc)
    assert records[0].latex == "x + y"


@pytest.mark.parametrize(
    "latex, normal",
    [
        ("x = 1 \\label{eq:{a}}", "x = 1"),  # the same equation as under \label{eq:a}
        ("x = 1 \\label{eq:\\alpha{}} + 0", "x = 1 + 0"),
        ("x \\label{a\\}b} y", "x y"),  # an escaped brace closes nothing
        ("x \\label{a\\{b} y", "x y"),  # and opens nothing
        ("x \\label{{a} y", "x \\label{{a} y"),  # never closes: stays as written
        ("\\label{a \\label{b}} z", "z"),
        ("} \\label{a} {", "} {"),
        ("x \\\\label{a} y", "x \\\\label{a} y"),  # a line break, then text
        ("x = 1 \\label {eq:a}", "x = 1"),  # a blank before the group, as in prose
        ("x = 1 \\label \t\n {eq:a}", "x = 1"),  # one line break too
        ("x \\label\n\n{a} y", "x \\label {a} y"),  # but not a paragraph break
    ],
)
def test_label_with_braces_dropped_whole(latex, normal):
    assert normalize_equation(latex) == normal


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(["\\label{", "\\label", "{", "}", "\\", "\\{", "\\}", "a", " ", "\n"]), max_size=24))
def test_drop_labels_matches_per_label_scan(parts):
    latex = "".join(parts)
    assert normalize_equation(latex) == " ".join(drop_labels(latex).split())


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(["%", "\\", "\\%", "%%", "a", "\n", " ", "\u00e9"]), max_size=30))
@example(["\\", "\\", "%", "a", "\n", "a"])  # an escaped backslash before "%"
@example(["%", "\\%", "a", "\n", "\\%", "a"])
def test_strip_comments_matches_lookbehind_reference(parts):
    text = "".join(parts)
    assert strip_comments(text) == reference_strip_comments(text)


@pytest.mark.parametrize(
    "text, kept",
    [
        ("one \\\\% hidden words", "one \\\\"),  # a line break, then a comment
        ("a \\% b % c\nd \\\\\\% e", "a \\% b \nd \\\\\\% e"),  # an odd run escapes
    ],
)
def test_percent_escaped_only_after_an_odd_run(text, kept):
    assert strip_comments(text) == reference_strip_comments(text) == kept


def test_comments_do_not_hide_math():
    doc = RawDocument("d", "text % $$hidden$$\n$$real$$")
    _, _, records = extract_display_equations(doc)
    assert [r.latex for r in records] == ["real"]


def test_round_trip_region_positions():
    # slots reconstruct the display-math region sequence
    body = "A $$x$$ B \\begin{equation}y\\end{equation} C $$x$$ D"
    doc = RawDocument("d", body)
    pieces, found, records = extract_display_equations(doc)
    assert found == [0, 1, 0]
    assert [p.strip() for p in pieces] == ["A", "B", "C", "D"]
    assert sum(r.occurrence_count for r in records) == 3


def test_escaped_display_opener_stays_prose():
    # "\\[2pt]" is a row break with its skip, not the opener of "2pt] ... \[ y = 2"
    text = r"Results \begin{tabular}{cc} a & b \\[2pt] c & d \end{tabular} and then \[ y = 2 \] follows."
    _, pieces, slots, records, skipped = _prepare_document(RawDocument("d", text))
    assert ([r.latex for r in records], slots, skipped) == (["y = 2"], [0], 0)
    assert pieces == [["results", "cc", "a", "b", "pt", "c", "d", "and", "then"], ["follows"]]
    assert reference_sequence(RawDocument("d", text))[1:] == (records, skipped)


@pytest.mark.parametrize(
    "text, words, skipped",
    [
        # an escaped "$", then inline math: no unbalanced "$$", and LaTeX's words
        (r"costs \$$5$ here and \$$x$ too", ["costs", "here", "and", "too"], 0),
        (r"a \$$$ b", ["a", "b"], 1),  # an escaped "$", then an unclosed "$$"
        (r"a \\$$ b", ["a", "b"], 1),  # an escaped backslash, then an unclosed "$$"
    ],
)
def test_escaped_dollar_before_dollar_is_no_display_delimiter(text, words, skipped):
    _, pieces, slots, _, got = _prepare_document(RawDocument("d", text))
    assert (pieces, slots, got) == ([words], [], skipped)
    assert reference_sequence(RawDocument("d", text))[2] == skipped


def test_bracket_display_math():
    doc = RawDocument("d", r"p \[ a = b \] q")
    _, _, records = extract_display_equations(doc)
    assert records[0].latex == "a = b"


# --- tokenize_words ---------------------------------------------------------


def test_tokenize_lowercases():
    assert tokenize_words("The LSTM layer") == ["the", "lstm", "layer"]


def test_tokenize_empty():
    assert tokenize_words("") == []


def test_tokenize_hyphens_and_numerals():
    # oracle: walk characters of the expected token grammar by hand
    text = "p-value of 0.05"
    expected = []
    for raw in text.lower().split():
        cleaned = "".join(c for c in raw if c.isalpha() or c == "-")
        parts = [p for p in cleaned.strip("-").split("--") if p]
        for p in parts:
            if p and all(s.isalpha() for s in p.split("-")) and any(p):
                expected.append(p)
    assert tokenize_words(text) == expected == ["p-value", "of"]


def test_tokenize_grammar_against_character_oracle():
    # every emitted token is maximal: alphabetic runs joined by single hyphens
    import re

    rng = np.random.default_rng(5)
    alphabet = list("ab c-d1.")
    for _ in range(200):
        s = "".join(rng.choice(alphabet) for _ in range(30))
        toks = tokenize_words(s)
        for t in toks:
            assert re.fullmatch(r"[a-z]+(?:-[a-z]+)*", t)
        assert toks == re.findall(r"[a-z]+(?:-[a-z]+)*", s.lower())


def test_placeholders_pass_through():
    # the equation slot sits between the words around it, out of band
    doc = RawDocument("d", "alpha $$x$$ beta")
    _, pieces, slots, _, _ = _prepare_document(doc)
    assert pieces == [["alpha"], ["beta"]]
    assert slots == [0]


@pytest.mark.parametrize(
    "text, words",
    [
        (r"see \ref{eq:{a}} now", ["see", "now"]),  # as under \ref{eq:a}
        (r"see \eqref{eq:{a}{b}}{c} now", ["see", "now"]),  # a run of groups
        (r"by \cite[p.~{3}]{x{y}} it", ["by", "it"]),
        (r"by \cite[p.~3]{x{y} it", ["by", "p", "x", "y", "it"]),  # never closes: stays
        (r"a \ref{x\}y} b \{ c \}", ["a", "b", "c"]),  # an escaped brace closes nothing
        (r"see \cite[{a]b}]{x} now", ["see", "now"]),  # a "]" in a group ends no [...]
        (r"see \cite[a\]b]{x} now", ["see", "now"]),  # nor does an escaped one
        (r"see \cite[ {x ] y", ["see", "x", "y"]),  # its group never closes: stays
        (r"a \\ref{b} c", ["a", "ref", "b", "c"]),  # a line break, then text
        (r"a \\\ref{b} c", ["a", "c"]),  # a line break, then a reference
        (r"\ref{a}\\ref{b} c", ["ref", "b", "c"]),
        (r"\documentclass[11pt]{article} a \cite[p.~3]{k} b", ["a", "b"]),  # flat arguments
        (r"see \citep[see][p.~3]{key} now", ["see", "now"]),  # natbib's two [...] arguments
        (r"see \citep[{a}][b]{key} now", ["see", "now"]),  # read from the brace map
        (r"see \cite[a][b] now", ["see", "a", "b", "now"]),  # no brace group: stays
        ("see \\ref {eq:a} now", ["see", "now"]),  # LaTeX skips the space
        ("see \\ref \t\n\t{eq:a} now", ["see", "now"]),  # and one line break
        ("see \\ref\n\n{eq:a} now", ["see", "eq", "a", "now"]),  # but not a paragraph break
        ("see \\cite [a] [b]{k} now", ["see", "now"]),  # a blank before a later argument too
        ("see \\cite[a] \n {k} now", ["see", "now"]),  # and before the group, one line break
        ("see \\cite[a]\n\n{k} now", ["see", "a", "k", "now"]),  # not a paragraph break
        ("see \\cite{x} {\\em word} now", ["see", "word", "now"]),  # brace groups stay adjacent
    ],
)
def test_reference_with_nested_braces_dropped_whole(text, words):
    assert tokenize_words(text) == reference_tokenize_words(text) == words


def test_flat_arguments_need_no_brace_map(monkeypatch):
    # a preamble's optional arguments are flat: ending them must not scan the text for braces
    def no_map(text):
        raise AssertionError("brace map built")

    monkeypatch.setattr(tex, "_brace_map", no_map)
    text = r"\documentclass[11pt]{article} \usepackage[utf8]{inputenc} see \cite[p.~3]{k} \cite[x] now"
    assert tokenize_words(text) == ["see", "x", "now"]


def test_inline_math_and_commands_dropped():
    toks = tokenize_words(r"the value $x_i$ of \textbf{bold} text \cite{Someone_2010}")
    assert "x" not in toks and "i" not in toks
    assert "bold" in toks
    assert "someone" not in toks


@pytest.mark.parametrize(
    "text, words",
    [
        (r"a price of \$5 and \$10 total", ["a", "price", "of", "and", "total"]),
        (r"alpha \\(beta) gamma \\) delta", ["alpha", "beta", "gamma", "delta"]),
        (r"a \\\(x\) b \\$y$ c", ["a", "b", "c"]),  # an even run escapes nothing
    ],
)
def test_escaped_inline_opener_stays_prose(text, words):
    assert tokenize_words(text) == reference_tokenize_words(text) == words


def test_document_validation():
    with pytest.raises(ValueError):
        RawDocument("", "text")
    with pytest.raises(ValueError):
        RawDocument("d", "")
    # a bundle writes doc ids as UTF-8 lines
    for doc_id in ("a\nb", "a\rb", "a\udcffb"):
        with pytest.raises(ValueError, match="doc_id"):
            RawDocument(doc_id, "text")
    assert RawDocument("a\tb", "text").doc_id == "a\tb"


# --- against the rescanning extractor ------------------------------------------

# Delimiter-heavy pieces.  Literal ``⟦eq:N⟧`` text is left out: the reference
# turns it into an equation slot, the extractor keeps it as prose.
_PIECES = [
    "$$", "$", "\\[", "\\]", "\\begin{equation}", "\\end{equation}", "\\begin{align}",
    "\\end{align}", "\\\\", "%", "{", "}", "\\label{a}", "a", "b", "xy", "model", " ", "\n",
    "\\\\[", "\\$", "\\\\(", "\\", "\\$$",
]


def _sequence(pieces, slots):
    """Words and equation slots of a prepared document, in document order."""
    seq = [("w", w) for w in pieces[0]]
    for local, words in zip(slots, pieces[1:], strict=True):
        seq.append(("eq", local))
        seq.extend(("w", w) for w in words)
    return seq


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), min_size=1, max_size=40))
def test_extract_matches_rescanning_reference(parts):
    doc = RawDocument("d", "".join(parts))
    expected, ref_records, ref_skipped = reference_sequence(doc)
    _, pieces, slots, records, skipped = _prepare_document(doc)
    assert records == ref_records  # latex, local ids and occurrence counts
    assert skipped == ref_skipped
    assert _sequence(pieces, slots) == expected


# Dead openers: a run of "\[" or a "$$" that finds no closer, then real
# regions of each kind, which the scan must still find once it stops
# searching for the dead opener.  Each case: (text, equations extracted).
_DEAD_OPENERS = {
    "brackets_then_dollars": ("\\[ a \\[ b_{1} \\[ c $$ x = 1 $$ d $$ y $$", 2),
    "brackets_then_equation": ("\\[ a \\[ b \\begin{equation} y \\end{equation} e \\[ f", 1),
    "brackets_then_align_rows": ("\\[ a \\[ b \\begin{align} p \\\\ q = 2 \\\\ \\end{align} \\[ c", 2),
    "dollars_then_brackets": ("$$ a \\[ x \\] b \\[ y \\] c", 2),
    "escaped_then_dead_dollars_then_brackets": ("\\$$ a $$ b \\[ x \\] c", 1),
    "row_breaks_in_dead_run": ("\\[ a \\\\[2pt] b \\[ c \\\\[1ex] $$ z $$ \\\\[ d \\begin{equation} w \\end{equation}", 2),
    "closer_before_dead_run": ("\\] \\[ a \\[ b $$ x $$ \\[ y", 1),
}


@pytest.mark.parametrize("text, n_equations", list(_DEAD_OPENERS.values()), ids=list(_DEAD_OPENERS))
def test_dead_openers_match_rescanning_reference(text, n_equations):
    doc = RawDocument("d", text)
    expected, ref_records, ref_skipped = reference_sequence(doc)
    _, pieces, slots, records, skipped = _prepare_document(doc)
    assert records == ref_records and skipped == ref_skipped
    assert _sequence(pieces, slots) == expected
    assert len(slots) == n_equations


# --- linear time on hostile input ------------------------------------------------


def _best_seconds(run, small, large, ceiling: float, repeat: int = 5) -> tuple[float, float]:
    """Fastest of ``repeat`` calls of ``run(small)`` and of ``run(large)``,
    taken in turn so that a slow stretch of the host lands on both sizes;
    stops early once either exceeds ``ceiling``.  The collector is off
    during each call, so a full collection over the caller's heap does not
    land in one run only."""
    best = [float("inf"), float("inf")]
    for _ in range(repeat):
        for i, arg in enumerate((small, large)):
            gc.disable()
            try:
                t0 = time.perf_counter()
                run(arg)
                best[i] = min(best[i], time.perf_counter() - t0)
            finally:
                gc.enable()
        if max(best) > ceiling:
            break
    return best[0], best[1]


@pytest.mark.parametrize(
    "make",
    [
        lambda n: " ".join(f"\\[ x_{{{i}}} + y" for i in range(n)),
        lambda n: " ".join(f"$$x_{{{i}}}$$ w" for i in range(n)) + " \\[ tail",
        # row splitting: each "{" opens a group of text that a backslash pair leaves unclosed
        lambda n: "\\begin{align}" + " ".join(f"{{x{i} + y - z + w \\\\ z" for i in range(n)) + "\\end{align}",
        # every label but the last closes an inner group and never its own
        lambda n: "\\begin{equation}x" + " \\label{{a}" * n + " \\label{b}\\end{equation}",
        # escaped openers and escaped "%" before real ones
        lambda n: " ".join(f"\\\\[ x_{{{i}}} \\$$ y" for i in range(n)) + " \\[ z \\] $$ w $$",
        lambda n: " ".join(f"\\% x{i} \\\\\\%" for i in range(n)) + " % tail\n\\[ z \\]",
        # dead openers, then real regions of the other kinds
        lambda n: "\\[ a " * n + " ".join(f"$$ x_{{{i}}} $$ \\begin{{equation}} y \\end{{equation}}" for i in range(n)),
        lambda n: "\\[ a " * n + "\\begin{align}" + " \\\\ ".join(f"x_{{{i}}} = 1" for i in range(n)) + "\\end{align}",
        lambda n: "$$ a " + " ".join(f"\\[ x_{{{i}}} \\] w" for i in range(n)),
        lambda n: "\\] " + " ".join(f"\\[ x_{{{i}}} \\\\[2pt]" for i in range(n)) + " $$ z $$",
    ],
    ids=["unclosed_brackets", "equations_then_unclosed_bracket", "unclosed_groups_in_align", "unclosed_labels",
         "escaped_openers", "escaped_percents", "dead_brackets_then_regions", "dead_brackets_then_align",
         "dead_dollars_then_brackets", "row_breaks_in_dead_brackets"],
)
def test_extract_time_is_linear(make):
    # the rescanning extractor takes about 0.7 s at n = 2000 and 11 s at
    # n = 8000 on a 2-core machine; a linear one takes milliseconds
    n, ceiling = 2000, 0.25
    small, large = _best_seconds(_extract, RawDocument("d", make(n)), RawDocument("d", make(4 * n)), ceiling)
    assert small < ceiling
    assert large < ceiling
    assert large < 8 * small


# --- word tokenizer against the regex tokenizer --------------------------------

# Openers, closers and whole command heads, so that short lists reach the
# bracket and brace-group branches and commands behind a backslash pair.
_PROSE = [
    "\\(", "\\)", "$", "\\$", "\\\\(", "\\\\[", "\\cite", "\\cite[", "\\citep", "\\ref{", "\\include",
    "\\includegraphics", "\\begin{", "\\end", "\\", "\\\\", "\\{", "\\}", "[", "]", "]{", "{", "}", "*", "a",
    "bc", "p-value", "7", " ", "\t", "\n", "-", "--", "a-", "-b", "Word", "\u212a", "\u0130", "\u00e9", "\\$$",
]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_PROSE), max_size=30))
@example(["\\ref{", "a", "}", "bc", "}"])  # a run of groups ends at the first non-brace
@example(["{", "}", "\\cite[", "a"])  # no "]" anywhere after the command
@example(["\\cite[", "a", "\\cite[", "bc", "]{", "a"])  # a shared "]" with no group after it
@example(["\\cite[", "\\ref{", "a", "}", "]{", "bc", "}", "a"])  # a command inside [...]
@example(["\\ref{", "{", "a", "}", "bc", "}", "a"])  # a nested group
@example(["\\cite[", "a", "]{", "{", "bc", "\\}", "}", "}", "a"])  # an escaped brace in a nested group
@example(["\\ref{", "{", "a", "}", "\\ref{", "bc", "}"])  # a nested group that never closes
@example(["\\cite[", "{", "a", "]", "bc", "}", "]{", "a", "}"])  # a "]" in a group ends no [...]
@example(["\\cite[", "a", "\\", "]", "bc", "]{", "a", "}"])  # nor does an escaped "]"
@example(["\\cite[", "a", "}", "]{", "bc", "}"])  # a "}" before the "]" leaves the [...] open
@example(["a", "\\", "\\ref{", "bc", "}", "\\\\", "\\ref{", "a", "}"])  # escaped, then not
@example(["\\citep", "[", "a", "][", "bc", "]{", "a", "}"])  # a run of [...] arguments
@example(["\\cite[", "\\cite[", "a", "]", "[", "bc", "]", "a"])  # two commands share a "]"
@example(["\\ref", " ", "\t", "\n", " ", "{", "a", "}"])  # a blank before the first argument
@example(["\\ref", "\n", " ", "\n", "{", "a", "}"])  # two line breaks end the command
@example(["\\cite", " ", "[", "a", "]", "\t", "[", "bc", "]", "\n", "{", "a", "}", " ", "{", "bc", "}"])  # blanks
@example(["\\(", "a", "\\(", "bc", "\\)", "$", "a", "\\begin{", "a"])
@example(["Word", "-", "\u212a", "a-", "-b", "\u0130", "--", "\u00e9", "bc", "p-value", "-"])
@example(["a", "$", "bc", "$", "a", "$", "bc"])  # "$" the only opener, a lone last "$" stays
@example(["$", "$", "a", "$"])  # an empty span, then a lone "$"
@example(["$", "a", "\\)", "$", "bc", "$"])  # a "$" span holding "\)", then a lone "$"
def test_tokenize_words_matches_regex_reference(parts):
    text = "".join(parts)
    assert tokenize_words(text) == reference_tokenize_words(text)


@pytest.mark.parametrize(
    "make",
    [
        lambda n: " ".join(f"\\( x_{i} word" for i in range(n)),
        lambda n: " ".join(f"$ x_{i} word" for i in range(n)) + " $ tail",  # n + 1 "$", n even
        lambda n: " ".join(f"\\cite[ p{i} word" for i in range(n)),
        lambda n: " ".join(f"\\cite[ p{i} word" for i in range(n)) + " ]{" + " word" * n,
        lambda n: " ".join(f"\\begin{{ x{i} word" for i in range(n)),
        lambda n: " ".join(f"\\ref{{{{ w{i}" for i in range(n)),
        lambda n: " ".join(f"\\cite[{{ p{i} ]" for i in range(n)),
        lambda n: " ".join(f"\\\\ref{{ w{i}" for i in range(n)),
        lambda n: " ".join(f"\\cite[p{i}] word" for i in range(n)),
        # every "[" closes at the first "]", and each command would walk the run after it
        lambda n: "\\cite[ " * n + "]" + "[x]" * n + " word",
        lambda n: " ".join(f"\\ref{' ' * 40}\n{' ' * 40}w{i}" for i in range(n)),
        # as shared_optional_run, with a blank before each later argument
        lambda n: "\\cite[ " * n + "]" + " [a]" * n + " word",
        lambda n: " ".join(f"\\$ {i} word" for i in range(n)) + " $ x $",
        lambda n: " ".join(f"\\\\( x_{i} word" for i in range(n)) + " \\( x \\)",
    ],
    ids=["unclosed_parens", "odd_dollars", "cite_without_bracket", "cite_shared_bracket", "unclosed_begin",
         "unclosed_nested_refs", "brackets_in_groups", "escaped_refs", "flat_brackets", "shared_optional_run",
         "refs_before_blanks", "blank_optional_run", "escaped_dollars", "escaped_parens"],
)
def test_tokenize_time_is_linear(make):
    # the regex tokenizer takes about 0.25 s (parens) and 0.05 s (the others)
    # at n = 2000, and 16 times that at n = 8000, on a 2-core machine
    n, ceiling = 2000, 0.25
    small, large = _best_seconds(tokenize_words, make(n), make(4 * n), ceiling)
    assert small < ceiling
    assert large < ceiling
    assert large < 8 * small
