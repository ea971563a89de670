"""Layout-tree tokenizer for LaTeX math.

An equation is parsed into a tree whose edges carry one of five spatial
relations: n (next, to the right), a (above), u (under), o (over) and
w (within).  Walking the tree emits (symbol, symbol, relation) tuples;
each tuple is one equation *unit*, the atomic "word" of an equation.
"""

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count
from typing import NamedTuple

import numpy as np

RELATIONS = ("n", "a", "u", "o", "w")

# Nested chains and commands an equation may open.  Every recursion of the parser
# passes one, so parsing and tuple emission stay far below the recursion limit.
MAX_DEPTH = 100


class MathParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass(init=False, slots=True)
class MathNode:
    """One node of the layout tree.

    Horizontal adjacency is implicit: siblings inside any slot list are
    chained left to right.  ``symbol`` is empty only for the synthetic
    document root and for recovery carriers, which never appear in tuples.
    Each slot list the caller does not pass starts empty.
    """

    kind: str  # symbol | operator | fraction | root | group | carrier
    symbol: str
    above: list["MathNode"]
    under: list["MathNode"]
    over: list["MathNode"]
    within: list["MathNode"]

    def __init__(self, kind: str, symbol: str, above=None, under=None, over=None, within=None):
        self.kind = kind
        self.symbol = symbol
        self.above = [] if above is None else above
        self.under = [] if under is None else under
        self.over = [] if over is None else over
        self.within = [] if within is None else within


class SltTuple(NamedTuple):
    from_symbol: str
    to_symbol: str
    relation: str


# Command classification tables.  Names are stored without the backslash.
GREEK = (
    "alpha beta gamma delta epsilon varepsilon zeta eta theta vartheta iota "
    "kappa lambda mu nu xi pi varpi rho varrho sigma varsigma tau upsilon phi "
    "varphi chi psi omega Gamma Delta Theta Lambda Xi Pi Sigma Upsilon Phi Psi Omega"
).split()

SYMBOL_COMMANDS = frozenset(
    GREEK
    + (
        "infty partial nabla hbar ell imath jmath Re Im aleph emptyset forall "
        "exists neg prime cdot times div pm mp ast star circ bullet cap cup "
        "sqcap sqcup vee wedge setminus wr diamond oplus ominus otimes oslash "
        "odot dagger ddagger amalg uplus leq geq le ge equiv models prec succ "
        "preceq succeq sim simeq approx cong neq ne doteq propto ll gg subset "
        "supset subseteq supseteq sqsubseteq sqsupseteq in ni notin vdash "
        "dashv mid parallel perp smile frown bowtie asymp leftarrow gets "
        "rightarrow to leftrightarrow Leftarrow Rightarrow Leftrightarrow "
        "mapsto hookleftarrow hookrightarrow uparrow downarrow Uparrow "
        "Downarrow updownarrow nearrow searrow swarrow nwarrow iff implies "
        "ldots cdots vdots ddots dots dotsc dotsb angle triangle backslash "
        "surd top bot flat natural sharp clubsuit diamondsuit heartsuit "
        "spadesuit langle rangle lceil rceil lfloor rfloor vert Vert lbrace "
        "rbrace lbrack rbrack colon cdotp ldotp circle odiv oint wp Box "
        "because therefore"
    ).split()
)

OPERATOR_COMMANDS = frozenset(
    (
        "sin cos tan cot sec csc arcsin arccos arctan sinh cosh tanh coth "
        "log ln lg exp min max sup inf lim limsup liminf det dim ker deg "
        "gcd hom arg Pr argmax argmin bmod mod "
        "sum prod coprod int iint iiint bigcup bigcap bigvee bigwedge "
        "bigoplus bigotimes bigodot biguplus bigsqcup"
    ).split()
)

# One braced argument placed in the `within` slot.
WRAPPER_COMMANDS = frozenset(
    (
        "hat tilde bar vec dot ddot check breve acute grave mathring widehat "
        "widetilde overline underline overbrace underbrace overrightarrow "
        "overleftarrow"
    ).split()
)

FRACTION_COMMANDS = {"frac": "frac", "dfrac": "frac", "tfrac": "frac", "cfrac": "frac", "binom": "binom"}

# Style wrappers vanish; their argument is spliced into the chain.
TRANSPARENT_COMMANDS = frozenset(
    (
        "mathbf mathrm mathit mathcal mathbb mathsf mathtt mathfrak mathscr "
        "boldsymbol bm text textrm textbf textit textsc texttt textnormal "
        "emph mbox hbox operatorname mathop mathrel mathbin mathopen "
        "mathclose ensuremath"
    ).split()
)

# Bare style/markup switches and spacing: no layout contribution at all.
SKIP_COMMANDS = frozenset(
    (
        "displaystyle textstyle scriptstyle scriptscriptstyle limits nolimits "
        "big Big bigg Bigg bigl bigr Bigl Bigr biggl biggr bigm Bigm "
        "rm bf it cal tt sf quad qquad thinspace enspace negthinspace "
        "noindent nonumber notag allowbreak displaybreak vphantom hphantom "
        "phantom strut smallskip medskip bigskip scriptsize footnotesize "
        "small normalsize large Large LARGE huge Huge cr"
    ).split()
)

# Commands whose single braced argument is dropped along with the command.
DROP_ARG_COMMANDS = frozenset("label tag hspace vspace kern mspace".split())


# A token is a plain ``(kind, text, offset)`` tuple; kind is one of cmd, char,
# lbrace, rbrace, sup, sub and prime.  One-character tokens other than "char"
# come from this table; any other character is a "char".
_PUNCT = {"{": "lbrace", "}": "rbrace", "^": "sup", "_": "sub", "'": "prime"}


def _lex(latex: str) -> list[tuple[str, str, int]]:
    toks: list[tuple[str, str, int]] = []
    append = toks.append
    i, n = 0, len(latex)
    while i < n:
        ch = latex[i]
        kind = _PUNCT.get(ch)
        if kind is not None:
            append((kind, ch, i))
            i += 1
        elif ch == "\\":
            j = i + 1
            while j < n and latex[j].isalpha():
                j += 1
            if j > i + 1:
                name = latex[i + 1 : j]
                if j < n and latex[j] == "*":
                    j += 1
                append(("cmd", name, i))
                i = j
            else:
                c = latex[i + 1 : i + 2]
                if c not in "\\,;:! ":  # "" (a trailing backslash) is in every string
                    append(("char", c, i))  # escaped literal symbol
                i += 2
        elif ch.isspace() or ch in "&~":
            i += 1
        elif ch == "%":
            i = latex.find("\n", i)
            if i < 0:
                break
        else:
            append(("char", ch, i))
            i += 1
    return toks


class _Parser:
    """Recursive descent over the tokens.  ``chain`` and ``command`` each open
    one nesting level, counted in ``depth``; past ``MAX_DEPTH`` they raise.
    A raise ends the parse, so no level is closed on the way out."""

    def __init__(self, toks: list[tuple[str, str, int]], lenient: bool):
        self.toks = toks
        self.n = len(toks)
        self.i = 0
        self.lenient = lenient
        self.depth = 0

    def error(self, msg: str, offset: int):
        raise MathParseError(msg, offset)

    def too_deep(self):
        raise MathParseError(f"nested deeper than {MAX_DEPTH}", self.toks[min(self.i, self.n - 1)][2])

    def chain(self, in_group: bool) -> list[MathNode]:
        if self.depth == MAX_DEPTH:
            self.too_deep()
        self.depth += 1
        toks, n = self.toks, self.n
        nodes: list[MathNode] = []
        while True:
            i = self.i
            if i == n:
                if in_group and not self.lenient:
                    self.error("unclosed brace", toks[-1][2] if toks else 0)
                break
            tok = toks[i]
            kind = tok[0]
            if kind == "char":
                self.i = i + 1
                nodes.append(MathNode("symbol", tok[1]))
            elif kind == "rbrace":
                if in_group:
                    self.i = i + 1
                    break
                if not self.lenient:
                    self.error("unmatched closing brace", tok[2])
                self.i = i + 1
            else:
                self.step(tok, nodes)
        self.depth -= 1
        return nodes

    def step(self, tok: tuple[str, str, int], nodes: list[MathNode]):
        """Parse the construct at ``tok`` onto ``nodes``; a script or prime attaches
        to the last node."""
        kind = tok[0]
        if kind == "sup" or kind == "sub":
            self.i += 1
            arg = self.argument(tok)
            base = nodes[-1] if nodes and nodes[-1].symbol else None
            slot = "above" if kind == "sup" else "under"
            if base is None or getattr(base, slot):
                base = MathNode("carrier", "")
                nodes.append(base)
            getattr(base, slot).extend(arg)
        elif kind == "prime":
            self.i += 1
            if nodes:
                nodes[-1].above.append(MathNode("symbol", "prime"))
            else:
                nodes.append(MathNode("symbol", "prime"))
        else:
            nodes.extend(self.unit(tok))

    def argument(self, script_tok: tuple[str, str, int]) -> list[MathNode]:
        """One script/command argument: a braced chain or a single unit."""
        i = self.i
        if i < self.n:
            tok = self.toks[i]
            kind = tok[0]
            if kind == "lbrace":
                self.i = i + 1
                return self.chain(in_group=True)
            if kind != "sup" and kind != "sub" and kind != "rbrace":
                return self.unit(tok)
        else:
            tok = script_tok
        if not self.lenient:
            self.error("missing argument", tok[2])
        return []

    def unit(self, tok: tuple[str, str, int]) -> list[MathNode]:
        """The nodes of the one construct starting at ``tok``: none, one, or
        the spliced chain of a transparent command."""
        kind = tok[0]
        if kind == "char":
            self.i += 1
            return [MathNode("symbol", tok[1])]
        if kind == "cmd":
            return self.command(tok)
        if kind == "lbrace":
            self.i += 1
            return [MathNode("group", "{}", within=self.chain(in_group=True))]
        self.error(f"unexpected token {tok[1]!r}", tok[2])

    def command(self, tok: tuple[str, str, int]) -> list[MathNode]:
        if self.depth == MAX_DEPTH:
            self.too_deep()
        self.depth += 1
        name = tok[1]
        self.i += 1
        # The command tables are disjoint, so the commonest kinds are tested first.
        if name in SYMBOL_COMMANDS:
            got = [MathNode("symbol", name)]
        elif name in OPERATOR_COMMANDS:
            got = [MathNode("operator", name)]
        elif name in SKIP_COMMANDS:
            got = []
        elif name == "left" or name == "right":  # the delimiter that follows is a symbol; "." is none
            got = []
            nxt = self.toks[self.i] if self.i < self.n else None
            if nxt is not None and nxt[0] == "char":
                self.i += 1
                if nxt[1] != ".":
                    got.append(MathNode("symbol", nxt[1]))
        elif name in DROP_ARG_COMMANDS:
            self._skip_braced()
            got = []
        elif name in TRANSPARENT_COMMANDS:
            got = self.argument(tok)
        elif name in FRACTION_COMMANDS:
            num = self.argument(tok)
            den = self.argument(tok)
            got = [MathNode("fraction", FRACTION_COMMANDS[name], over=num, under=den)]
        elif name == "sqrt":
            bracket = self.i < self.n and self.toks[self.i][:2] == ("char", "[")
            index = self._bracket_group() if bracket else []
            got = [MathNode("root", "sqrt", above=index, within=self.argument(tok))]
        elif name in WRAPPER_COMMANDS:
            got = [MathNode("symbol", name, within=self.argument(tok))]
        else:
            if not self.lenient:
                self.error(f"unknown command \\{name}", tok[2])
            got = [MathNode("symbol", name)]
        self.depth -= 1
        return got

    def _bracket_group(self) -> list[MathNode]:
        self.i += 1  # consume '['
        nodes: list[MathNode] = []
        while self.i < self.n:
            tok = self.toks[self.i]
            if tok[0] == "char" and tok[1] == "]":
                self.i += 1
                break
            self.step(tok, nodes)
        return nodes

    def _skip_braced(self):
        if self.i == self.n or self.toks[self.i][0] != "lbrace":
            return
        depth = 0
        while self.i < self.n:
            kind = self.toks[self.i][0]
            self.i += 1
            if kind == "lbrace":
                depth += 1
            elif kind == "rbrace":
                depth -= 1
                if depth == 0:
                    return


def parse_math(latex: str, lenient: bool = False) -> MathNode:
    """Parse display-math content (no surrounding delimiters) to a layout tree.

    Superscripts land in ``above``, subscripts in ``under``, fraction
    numerators in ``over`` and denominators in ``under`` of the fraction
    node, radical and braced-group contents in ``within``.  Strict mode
    raises :class:`MathParseError` with a byte offset on unbalanced braces,
    unknown commands or nesting deeper than :data:`MAX_DEPTH`; lenient mode
    recovers, turning unknown commands into opaque symbols, and gives an
    empty tree (no units) where it cannot.
    """
    try:
        top = _Parser(_lex(latex), lenient).chain(in_group=False)
    except MathParseError:
        if not lenient:
            raise
        top = []
    return MathNode("group", "", within=top)


# --- tuple emission ---------------------------------------------------------


def slt_tuples(tree: MathNode, symbol_window: int = 1) -> list[SltTuple]:
    """Emit layout tuples by depth-first traversal.

    For every node, each populated slot links the node to the first
    ``symbol_window`` symbols of that slot's chain; siblings link ahead by
    up to ``symbol_window`` steps with relation n.  Structural slots emit
    before horizontal continuation so nested units precede the rest.
    """
    out: list[SltTuple] = []
    append = out.append
    new = tuple.__new__  # SltTuple's own __new__ is a Python-level call
    wide = symbol_window > 1

    def slot(sym: str, kids: list[MathNode], rel: str):
        """Link ``sym`` to the first symbols of ``kids`` by ``rel``, then walk them."""
        if sym:
            for child in kids[:symbol_window]:
                if child.symbol:
                    append(new(SltTuple, (sym, child.symbol, rel)))
        visit_chain(kids)

    def visit_chain(chain: list[MathNode]):
        # A node's n links follow the units of its slots and precede those of
        # the next node.  At window 1 its one link is emitted on reaching the
        # next node, before that node's slots, so no slice of the chain is made.
        prev = ""
        for i, node in enumerate(chain, 1):
            sym = node.symbol
            if prev and sym:
                append(new(SltTuple, (prev, sym, "n")))
            if node.over:
                slot(sym, node.over, "o")
            if node.under:
                slot(sym, node.under, "u")
            if node.above:
                slot(sym, node.above, "a")
            if node.within:
                slot(sym, node.within, "w")
            if not wide:
                prev = sym
            elif sym:
                for nxt in chain[i : i + symbol_window]:
                    if nxt.symbol:
                        append(new(SltTuple, (sym, nxt.symbol, "n")))

    visit_chain(tree.within if not tree.symbol else [tree])
    return out


def tokenize_equation(latex: str, symbol_window: int = 1, lenient: bool = True) -> list[SltTuple]:
    return slt_tuples(parse_math(latex, lenient=lenient), symbol_window=symbol_window)


# --- canonical unit strings -------------------------------------------------


def unit_string(t: SltTuple) -> str:
    """Serialize one tuple as ``(from,to,rel)`` with commas/backslashes escaped."""
    esc = lambda s: s.replace("\\", "\\\\").replace(",", "\\,")
    return f"({esc(t.from_symbol)},{esc(t.to_symbol)},{t.relation})"


def build_unit_vocabulary(sequences: list[list[SltTuple]], min_count: int = 1):
    """Frequency-filtered unit vocabulary over all tokenized equations.

    ``sequences[g]`` is equation g's tuple list.  Returns ``(vocab,
    eq_units)``: the tuple lists re-emitted as vocabulary ids in one
    ``EquationUnits`` table, each keeping its units of at least
    ``min_count`` in order; no equations give an empty vocabulary and table.
    Ids are dense, ordered by descending count then unit string.  Each
    distinct tuple is serialized once: ``unit_string`` is injective, so a
    tuple's count is its string's.
    """
    from .corpus import EquationUnits, Vocabulary  # local import: corpus also imports slt

    ids = defaultdict(count().__next__)  # a tuple's provisional id: the order of its first occurrence
    prov = np.fromiter(map(ids.__getitem__, chain.from_iterable(sequences)), dtype=np.int64)
    counts = np.bincount(prov, minlength=len(ids))
    forms, n = list(map(unit_string, ids)), counts.tolist()
    kept = sorted((u for u, c in enumerate(n) if c >= min_count), key=lambda u: (-n[u], forms[u]))
    remap = np.empty(len(forms), dtype=np.int64)
    remap[kept] = np.arange(len(kept))
    keep = counts[prov] >= min_count
    ptr = np.concatenate(([0], np.cumsum([len(seq) for seq in sequences], dtype=np.int64)))
    ptr = np.concatenate(([0], np.cumsum(keep)))[ptr]  # where each equation's kept units start
    return Vocabulary("unit", [forms[u] for u in kept], counts[kept]), EquationUnits(ptr, remap[prov[keep]])
