"""Math layout-tree parser and tuple emission."""

import gc
import os
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqvec import slt
from eqvec.corpus import EquationUnits
from eqvec.model import EmbeddingTable, Model, ModelConfig
from eqvec.slt import (
    DROP_ARG_COMMANDS,
    FRACTION_COMMANDS,
    OPERATOR_COMMANDS,
    RELATIONS,
    SKIP_COMMANDS,
    SYMBOL_COMMANDS,
    TRANSPARENT_COMMANDS,
    WRAPPER_COMMANDS,
    MathNode,
    MathParseError,
    SltTuple,
    build_unit_vocabulary,
    parse_math,
    slt_tuples,
    tokenize_equation,
    unit_string,
)

from . import reference_slt

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "slt_golden.tsv")


def tuples_of(latex, window=1, lenient=False):
    return [tuple(t) for t in tokenize_equation(latex, symbol_window=window, lenient=lenient)]


def test_superscript_goes_above():
    tree = parse_math("x^2")
    node = tree.within[0]
    assert node.symbol == "x"
    assert [c.symbol for c in node.above] == ["2"]
    assert tuples_of("x^2") == [("x", "2", "a")]


def test_fraction_slots():
    tree = parse_math(r"\frac{a}{b}")
    frac = tree.within[0]
    assert frac.kind == "fraction"
    assert [c.symbol for c in frac.over] == ["a"]
    assert [c.symbol for c in frac.under] == ["b"]
    assert tuples_of(r"\frac{a}{b}") == [("frac", "a", "o"), ("frac", "b", "u")]


def test_big_operator_tree_matches_hand_construction():
    got = parse_math(r"\sum_{i=1}^{n} x_i")
    want = MathNode(
        "group",
        "",
        within=[
            MathNode(
                "operator",
                "sum",
                under=[MathNode("symbol", "i"), MathNode("symbol", "="), MathNode("symbol", "1")],
                above=[MathNode("symbol", "n")],
            ),
            MathNode("symbol", "x", under=[MathNode("symbol", "i")]),
        ],
    )
    assert got == want


def test_adjacency_chain():
    assert tuples_of("a+b") == [("a", "+", "n"), ("+", "b", "n")]


def test_strict_unknown_command_error_carries_offset():
    with pytest.raises(MathParseError) as err:
        parse_math(r"a \unknowncmd b", lenient=False)
    assert err.value.offset == 2


def test_strict_unbalanced_brace_error():
    with pytest.raises(MathParseError):
        parse_math("{x + y", lenient=False)
    with pytest.raises(MathParseError):
        parse_math("x } y", lenient=False)


def test_lenient_mode_recovers():
    ts = tuples_of(r"a \unknowncmd b", lenient=True)
    assert ts == [("a", "unknowncmd", "n"), ("unknowncmd", "b", "n")]
    assert tuples_of("{x + y", lenient=True)  # unclosed group closes at end


def test_symbol_window_two_links_ahead():
    assert tuples_of("a b c", window=2) == [
        ("a", "b", "n"),
        ("a", "c", "n"),
        ("b", "c", "n"),
    ]
    # parent links to the first two of the slot chain
    assert tuples_of(r"x_{abc}", window=2) == [
        ("x", "a", "u"),
        ("x", "b", "u"),
        ("a", "b", "n"),
        ("a", "c", "n"),
        ("b", "c", "n"),
    ]


def test_determinism_and_whitespace_invariance():
    a = tuples_of(r"\sum_{i=1}^{n} x_i")
    b = tuples_of("\\sum_{i=1}^{n}\n  x_i")
    c = tuples_of(r"\sum_{i = 1} ^ {n} x_i")
    assert a == b == c


def test_every_symbol_with_neighbor_appears():
    for latex in (r"\frac{a}{b}", "a+b", r"\sqrt{u_v}", r"e^{i \pi}"):
        tree = parse_math(latex)
        symbols = []

        def collect(node):
            if node.symbol:
                symbols.append(node.symbol)
            for slot in ("over", "under", "above", "within"):
                for child in getattr(node, slot):
                    collect(child)

        collect(tree)
        seen = set()
        for t in tokenize_equation(latex):
            seen.add(t.from_symbol)
            seen.add(t.to_symbol)
        assert set(symbols) <= seen


def test_single_symbol_has_no_tuples():
    assert tuples_of("x") == []


# --- independent re-implementation oracle -------------------------------------


def _reference_tuples(tree, window):
    """Iterative worklist emitter, written independently of the recursive one."""
    out = []
    stack = [("chain", tree.within if not tree.symbol else [tree], 0)]
    while stack:
        kind, payload, idx = stack.pop()
        if kind == "chain":
            chain = payload
            if idx >= len(chain):
                continue
            stack.append(("chain", chain, idx + 1))
            node = chain[idx]
            links = []
            if node.symbol:
                hops = 0
                j = idx + 1
                while j < len(chain) and hops < window:
                    hops += 1
                    if chain[j].symbol:
                        links.append((node.symbol, chain[j].symbol, "n"))
                    j += 1
            stack.append(("links", links, 0))
            for slot, rel in reversed([("over", "o"), ("under", "u"), ("above", "a"), ("within", "w")]):
                kids = getattr(node, slot)
                if kids:
                    head = []
                    if node.symbol:
                        head = [
                            (node.symbol, child.symbol, rel)
                            for child in kids[:window]
                            if child.symbol
                        ]
                    stack.append(("chain", kids, 0))
                    stack.append(("links", head, 0))
        else:
            out.extend(payload)
    return out


def test_matches_independent_emitter_on_goldens_and_windows():
    with open(GOLDEN) as f:
        lines = [l for l in f if not l.startswith("#")]
    for line in lines:
        latex = line.split("\t")[0]
        for window in (1, 2, 3):
            tree = parse_math(latex)
            got = [tuple(t) for t in slt_tuples(tree, symbol_window=window)]
            assert got == _reference_tuples(tree, window), (latex, window)


def test_golden_fixture_bit_exact():
    with open(GOLDEN) as f:
        lines = [l.rstrip("\n") for l in f if not l.startswith("#")]
    assert len(lines) == 30
    for line in lines:
        latex, expected = line.split("\t")
        got = " ".join(unit_string(t) for t in tokenize_equation(latex, lenient=False))
        assert got == expected, latex


# --- canonical strings and unit vocabulary -------------------------------------


def parse_unit_string(s: str) -> SltTuple:
    """The inverse of ``unit_string``, for round-trip checks."""
    if len(s) < 6 or s[0] != "(" or s[-1] != ")":
        raise ValueError(f"malformed unit string: {s!r}")
    body = s[1:-1]
    fields, buf, i = [], [], 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            buf.append(body[i + 1])
            i += 2
        elif ch == ",":
            fields.append("".join(buf))
            buf = []
            i += 1
        else:
            buf.append(ch)
            i += 1
    fields.append("".join(buf))
    if len(fields) != 3 or fields[2] not in RELATIONS:
        raise ValueError(f"malformed unit string: {s!r}")
    return SltTuple(*fields)


def test_unit_string_round_trip():
    cases = [
        SltTuple("x", "2", "a"),
        SltTuple(",", ",", "n"),
        SltTuple("\\", "a,b", "w"),
        SltTuple("(", ")", "n"),
    ]
    for t in cases:
        assert parse_unit_string(unit_string(t)) == t


def test_round_trip_over_random_symbols():
    rng = np.random.default_rng(0)
    chars = list("ab,\\()xyz+")
    for _ in range(300):
        f = "".join(rng.choice(chars, size=rng.integers(1, 5)))
        to = "".join(rng.choice(chars, size=rng.integers(1, 5)))
        rel = str(rng.choice(list("nauow")))
        t = SltTuple(f, to, rel)
        assert parse_unit_string(unit_string(t)) == t


def test_build_unit_vocabulary_counts():
    seq_a = tokenize_equation("x^2 + y")
    seq_b = tokenize_equation("x^2 - y")
    vocab, ids = build_unit_vocabulary([seq_a, seq_b])
    assert vocab.kind == "unit"
    shared = unit_string(SltTuple("x", "2", "a"))
    assert vocab.freqs[vocab.index[shared]] == 2
    assert len(ids[0]) == len(seq_a)
    assert (ids[0] >= 0).all()  # min_count=1 drops nothing


def test_unit_vocabulary_min_count_gaps():
    seq_a = tokenize_equation("x^2 + y")
    seq_b = tokenize_equation("x^2 - y")
    vocab, ids = build_unit_vocabulary([seq_a, seq_b], min_count=2)
    assert len(ids[0]) < len(seq_a) and (ids.ids >= 0).all()  # units below min_count are dropped
    for form in vocab.forms:
        assert vocab.freqs[vocab.index[form]] >= 2


def test_empty_equation_set_gives_empty_vocabulary():
    vocab, eq_units = build_unit_vocabulary([])
    assert vocab.kind == "unit" and vocab.forms == [] and vocab.freqs.dtype == np.int64
    assert isinstance(eq_units, EquationUnits) and len(eq_units) == 0
    assert eq_units.ptr.tolist() == [0] and eq_units.ids.tolist() == []


def test_relations_confined_to_alphabet():
    with open(GOLDEN) as f:
        lines = [l for l in f if not l.startswith("#")]
    for line in lines:
        for t in tokenize_equation(line.split("\t")[0]):
            assert t.relation in slt.RELATIONS


@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
def test_root_index_takes_scripts_and_primes(lenient):
    assert tuples_of("\\sqrt[n^2]{x}", lenient=lenient) == [
        ("sqrt", "n", "a"), ("n", "2", "a"), ("sqrt", "x", "w")]
    assert tuples_of("\\sqrt[x']{y}", lenient=lenient) == [
        ("sqrt", "x", "a"), ("x", "prime", "a"), ("sqrt", "y", "w")]
    assert tuples_of("\\sqrt[a_i]{b} + c", lenient=lenient) == [
        ("sqrt", "a", "a"), ("a", "i", "u"), ("sqrt", "b", "w"), ("sqrt", "+", "n"), ("+", "c", "n")]


# --- deep nesting ----------------------------------------------------------------

_DEEP = {
    "braces": "{" * 3000 + "x" + "}" * 3000,
    "fractions": "\\frac{" * 1500 + "x",
    "superscripts": "x" + "^{x" * 2000,
    "unclosed_braces": "{" * 4000,
    "wrappers": "\\hat" * 3000 + "x",
    "root_indices": "\\sqrt[" * 2000 + "x",
}


@pytest.mark.parametrize("latex", list(_DEEP.values()), ids=list(_DEEP))
def test_deep_nesting_is_untokenizable_not_fatal(latex):
    with pytest.raises(MathParseError, match="nested deeper"):
        parse_math(latex)
    assert parse_math(latex, lenient=True).within == []
    assert tokenize_equation(latex) == []


def test_nesting_up_to_the_cap_parses():
    depth = slt.MAX_DEPTH - 1  # the top-level chain is one level
    latex = "{" * depth + "x" + "}" * depth
    assert len(tokenize_equation(latex, lenient=False)) == depth
    with pytest.raises(MathParseError, match="nested deeper"):
        parse_math("{" + latex + "}")


_MATH = ["{", "}", "^", "_", "'", "\\frac", "\\sqrt", "\\hat", "\\mathbf", "[", "]",
         "\\left(", "\\right)", "x", "y", " "]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_MATH), max_size=20), st.integers(1, 2 * slt.MAX_DEPTH))
def test_lenient_parse_never_raises(parts, repeat):
    latex = "".join(parts) * repeat
    assert isinstance(parse_math(latex, lenient=True), MathNode)
    assert isinstance(tokenize_equation(latex), list)
    try:
        tokenize_equation(latex, lenient=False)
    except MathParseError:
        pass  # strict mode rejects, but never with another error


# --- against the branchy reference parser and vocabulary ---------------------------

# Pieces that reach every lexer and parser branch: punctuation tokens, escapes
# (spacing, "\\", literal braces, a trailing backslash), delimiters, root
# indices, fractions, wrappers, transparent, skipped and argument-dropping
# commands, unknown and starred commands, comments, and non-ASCII letters,
# digits and spaces.
_LATEX_PIECES = [
    "{", "}", "^", "_", "'", "\\\\", "\\,", "\\;", "\\!", "\\ ", "\\{", "\\}", "\\%", "\\",
    "\\left.", "\\right|", "\\left(", "\\right)", "\\left", "\\right", "\\left\\{", "\\sqrt", "\\sqrt[",
    "[", "]", "\\frac", "\\binom", "\\hat", "\\vec", "\\mathbf", "\\text", "\\label", "\\displaystyle",
    "\\alpha", "\\sum", "\\lim", "\\cdot", "\\foo", "\\unknowncmd", "\\align*", "*", "x", "y", "1", "=",
    "+", "&", "~", "%", "\n", " ", "é", "²", "\u2009", "ß", "\u0663",
]
_latex = st.lists(st.one_of(st.sampled_from(_LATEX_PIECES), st.text(max_size=2)), max_size=30).map("".join)
# Whole scripts and arguments, so that scripts stack into carriers and take
# primes more often than in ``_latex``.
_scripted = st.lists(st.sampled_from(["x", "y", "{}", "{x y}", "^{2}", "_{i}", "^", "'", "\\sqrt[n]", "\\frac"]),
                     max_size=20).map(" ".join)


def _outcome(parse, latex, lenient):
    try:
        return parse(latex, lenient=lenient)
    except MathParseError as exc:
        return type(exc), str(exc)


@settings(max_examples=1500, deadline=None)
@given(_latex)
def test_parse_matches_reference(latex):
    for lenient in (True, False):
        assert _outcome(parse_math, latex, lenient) == _outcome(reference_slt.parse_math, latex, lenient)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_latex, _scripted))
@example("x^{2}^{3}' y \\sqrt[n_i]{} {} z_1_2 w")
def test_emitter_matches_independent_emitter_on_random_trees(latex):
    """Carriers, primes, root indices and empty groups, beside the goldens' shapes."""
    tree = parse_math(latex, lenient=True)
    for window in (1, 2, 3):
        got = slt_tuples(tree, symbol_window=window)
        assert [tuple(t) for t in got] == _reference_tuples(tree, window)
        assert all(type(t) is SltTuple for t in got)


def test_command_tables_are_disjoint():
    """The parser tests a command name against the tables in any order."""
    tables = [SYMBOL_COMMANDS, OPERATOR_COMMANDS, SKIP_COMMANDS, DROP_ARG_COMMANDS, TRANSPARENT_COMMANDS,
              FRACTION_COMMANDS.keys(), WRAPPER_COMMANDS, {"left", "right", "sqrt"}]
    assert sum(map(len, tables)) == len(set().union(*tables))


@settings(max_examples=300, deadline=None)
@given(st.lists(_latex, min_size=1, max_size=8), st.integers(1, 3), st.integers(1, 3))
@example(["x^2 + y", "x^2 - y", "a_b", "z"], 1, 2)  # every unit of "a_b" is dropped, "z" has none
def test_unit_vocabulary_matches_reference(latexes, window, min_count):
    # each row is the oracle's with its gaps (units below min_count) removed;
    # an equation whose every unit is dropped has an empty row, and no vector
    sequences = [tokenize_equation(latex, symbol_window=window) for latex in latexes]
    vocab, eq_units = build_unit_vocabulary(sequences, min_count=min_count)
    want_vocab, want_rows = reference_slt.build_unit_vocabulary(dict(enumerate(sequences)), min_count=min_count)
    assert vocab.forms == want_vocab.forms and vocab.index == want_vocab.index
    assert vocab.freqs.dtype == want_vocab.freqs.dtype and vocab.freqs.tolist() == want_vocab.freqs.tolist()
    assert eq_units.ids.min(initial=0) >= 0 and len(eq_units) == len(want_rows)
    gap = reference_slt.UNIT_GAP
    assert [eq_units[g].tolist() for g in eq_units] == [[u for u in r if u != gap] for r in want_rows]
    bits = np.random.PCG64(0)
    model = Model("unit", ModelConfig(k=2), EmbeddingTable(1, 2, bits, 0.5),
                  unit=EmbeddingTable(len(vocab), 2, bits, 0.5), eq_units=eq_units, n_equations=len(eq_units))
    for g, row in enumerate(want_rows):
        if set(row) == {gap}:
            with pytest.raises(ValueError, match="untokenizable"):
                model.equation_vectors(g)


def _best_seconds(small: str, large: str, repeats: int = 5) -> tuple[float, float]:
    """Best-of-``repeats`` times of tokenizing ``small`` and ``large``, taken
    in turn so that a slow stretch of the host lands on both.  The collector
    is off during each call, so a full collection over the caller's heap
    does not land in one run only."""
    best = [float("inf"), float("inf")]
    for _ in range(repeats):
        for i, latex in enumerate((small, large)):
            gc.disable()
            try:
                start = time.perf_counter()
                tokenize_equation(latex)
                best[i] = min(best[i], time.perf_counter() - start)
            finally:
                gc.enable()
    return best[0], best[1]


_SCALING = {
    "flat": lambda n: "x + " * (50 * n),
    "deep_groups": lambda n: ("{" * 90 + "x" + "}" * 90 + " + ") * n,  # under MAX_DEPTH
}


@pytest.mark.parametrize("make", list(_SCALING.values()), ids=list(_SCALING))
def test_tokenize_time_is_linear(make):
    small, large = _best_seconds(make(10), make(40))
    assert large < 8 * small
