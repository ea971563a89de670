"""Layout-tree tokenizer for LaTeX math.

An equation is parsed into a tree whose edges carry one of five spatial
relations: n (next, to the right), a (above), u (under), o (over) and
w (within).  Walking the tree emits (symbol, symbol, relation) tuples;
each tuple is one equation *unit*, the atomic "word" of an equation.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, count
from typing import NamedTuple

import numpy as np

RELATIONS = ("n", "a", "u", "o", "w")

UNIT_GAP = -1  # sequence slot for a unit dropped by the frequency threshold

# Nested chains and commands an equation may open.  Every recursion of the parser
# passes one, so parsing and tuple emission stay far below the recursion limit.
MAX_DEPTH = 100


class MathParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


@dataclass
class MathNode:
    """One node of the layout tree.

    Horizontal adjacency is implicit: siblings inside any slot list are
    chained left to right.  ``symbol`` is empty only for the synthetic
    document root and for recovery carriers, which never appear in tuples.
    """

    kind: str  # symbol | operator | fraction | root | group | carrier
    symbol: str
    above: list["MathNode"] = field(default_factory=list)
    under: list["MathNode"] = field(default_factory=list)
    over: list["MathNode"] = field(default_factory=list)
    within: list["MathNode"] = field(default_factory=list)


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


class _Tok(NamedTuple):
    kind: str  # cmd | char | lbrace | rbrace | sup | sub | prime
    text: str
    offset: int


# One-character tokens other than "char"; any other character is a "char".
_PUNCT = {"{": "lbrace", "}": "rbrace", "^": "sup", "_": "sub", "'": "prime"}


def _lex(latex: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, n = 0, len(latex)
    while i < n:
        ch = latex[i]
        if ch.isspace() or ch in "&~":
            i += 1
        elif ch == "%":
            while i < n and latex[i] != "\n":
                i += 1
        elif ch == "\\":
            if i + 1 < n and latex[i + 1].isalpha():
                j = i + 1
                while j < n and latex[j].isalpha():
                    j += 1
                if j < n and latex[j] == "*":
                    j += 1
                toks.append(_Tok("cmd", latex[i + 1 : j].rstrip("*"), i))
                i = j
            else:
                c = latex[i + 1 : i + 2]
                if c not in "\\,;:! ":  # "" (a trailing backslash) is in every string
                    toks.append(_Tok("char", c, i))  # escaped literal symbol
                i += 2
        else:
            toks.append(_Tok(_PUNCT.get(ch, "char"), ch, i))
            i += 1
    return toks


def _nested(method):
    """``method`` one nesting level deeper; past ``MAX_DEPTH`` it raises."""
    def counted(self, *args, **kwargs):
        if self.depth == MAX_DEPTH:
            raise MathParseError(f"nested deeper than {MAX_DEPTH}", (self.peek() or self.toks[-1]).offset)
        self.depth += 1
        try:
            return method(self, *args, **kwargs)
        finally:
            self.depth -= 1
    return counted


class _Parser:
    def __init__(self, toks: list[_Tok], lenient: bool):
        self.toks = toks
        self.i = 0
        self.lenient = lenient
        self.depth = 0

    def error(self, msg: str, offset: int):
        raise MathParseError(msg, offset)

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    @_nested
    def chain(self, in_group: bool) -> list[MathNode]:
        nodes: list[MathNode] = []
        while True:
            tok = self.peek()
            if tok is None:
                if in_group and not self.lenient:
                    self.error("unclosed brace", self.toks[-1].offset if self.toks else 0)
                return nodes
            if tok.kind == "rbrace":
                if in_group:
                    self.i += 1
                    return nodes
                if not self.lenient:
                    self.error("unmatched closing brace", tok.offset)
                self.i += 1
                continue
            self.step(tok, nodes)

    def step(self, tok: _Tok, nodes: list[MathNode]):
        """Parse the construct at ``tok`` onto ``nodes``; a script or prime attaches
        to the last node."""
        if tok.kind in ("sup", "sub"):
            self.i += 1
            arg = self.argument(tok)
            base = nodes[-1] if nodes and nodes[-1].symbol else None
            slot = "above" if tok.kind == "sup" else "under"
            if base is None or getattr(base, slot):
                base = MathNode("carrier", "")
                nodes.append(base)
            getattr(base, slot).extend(arg)
        elif tok.kind == "prime":
            self.i += 1
            if nodes:
                nodes[-1].above.append(MathNode("symbol", "prime"))
            else:
                nodes.append(MathNode("symbol", "prime"))
        else:
            nodes.extend(self.unit(tok))

    def argument(self, script_tok: _Tok) -> list[MathNode]:
        """One script/command argument: a braced chain or a single unit."""
        tok = self.peek()
        if tok is None or tok.kind in ("sup", "sub", "rbrace"):
            if self.lenient:
                return []
            self.error("missing argument", (tok or script_tok).offset)
        if tok.kind == "lbrace":
            self.i += 1
            return self.chain(in_group=True)
        return self.unit(tok)

    def unit(self, tok: _Tok) -> list[MathNode]:
        """The nodes of the one construct starting at ``tok``: none, one, or
        the spliced chain of a transparent command."""
        if tok.kind == "lbrace":
            self.i += 1
            return [MathNode("group", "{}", within=self.chain(in_group=True))]
        if tok.kind == "char":
            self.i += 1
            return [MathNode("symbol", tok.text)]
        if tok.kind == "cmd":
            return self.command(tok)
        self.error(f"unexpected token {tok.text!r}", tok.offset)

    @_nested
    def command(self, tok: _Tok) -> list[MathNode]:
        name = tok.text
        self.i += 1
        if name in SKIP_COMMANDS:
            return []
        if name in ("left", "right"):  # the delimiter that follows is a symbol; "." is none
            nxt = self.peek()
            if nxt is not None and nxt.kind == "char":
                self.i += 1
                return [] if nxt.text == "." else [MathNode("symbol", nxt.text)]
            return []
        if name in DROP_ARG_COMMANDS:
            self._skip_braced()
            return []
        if name in TRANSPARENT_COMMANDS:
            return self.argument(tok)
        if name in FRACTION_COMMANDS:
            num = self.argument(tok)
            den = self.argument(tok)
            return [MathNode("fraction", FRACTION_COMMANDS[name], over=num, under=den)]
        if name == "sqrt":
            nxt = self.peek()
            index = self._bracket_group() if nxt is not None and nxt.kind == "char" and nxt.text == "[" else []
            return [MathNode("root", "sqrt", above=index, within=self.argument(tok))]
        if name in WRAPPER_COMMANDS:
            return [MathNode("symbol", name, within=self.argument(tok))]
        if name in OPERATOR_COMMANDS:
            return [MathNode("operator", name)]
        if name not in SYMBOL_COMMANDS and not self.lenient:
            self.error(f"unknown command \\{name}", tok.offset)
        return [MathNode("symbol", name)]

    def _bracket_group(self) -> list[MathNode]:
        self.i += 1  # consume '['
        nodes: list[MathNode] = []
        while True:
            tok = self.peek()
            if tok is None:
                return nodes
            if tok.kind == "char" and tok.text == "]":
                self.i += 1
                return nodes
            self.step(tok, nodes)

    def _skip_braced(self):
        tok = self.peek()
        if tok is None or tok.kind != "lbrace":
            return
        depth = 0
        while self.i < len(self.toks):
            t = self.toks[self.i]
            self.i += 1
            if t.kind == "lbrace":
                depth += 1
            elif t.kind == "rbrace":
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

_SLOT_ORDER = (("over", "o"), ("under", "u"), ("above", "a"), ("within", "w"))


def slt_tuples(tree: MathNode, symbol_window: int = 1) -> list[SltTuple]:
    """Emit layout tuples by depth-first traversal.

    For every node, each populated slot links the node to the first
    ``symbol_window`` symbols of that slot's chain; siblings link ahead by
    up to ``symbol_window`` steps with relation n.  Structural slots emit
    before horizontal continuation so nested units precede the rest.
    """
    out: list[SltTuple] = []

    def visit(node: MathNode):
        for slot, rel in _SLOT_ORDER:
            kids = getattr(node, slot)
            if not kids:
                continue
            if node.symbol:
                for child in kids[:symbol_window]:
                    if child.symbol:
                        out.append(SltTuple(node.symbol, child.symbol, rel))
            visit_chain(kids)

    def visit_chain(chain: list[MathNode]):
        for i, node in enumerate(chain):
            visit(node)
            if not node.symbol:
                continue
            for step in range(1, symbol_window + 1):
                if i + step < len(chain) and chain[i + step].symbol:
                    out.append(SltTuple(node.symbol, chain[i + step].symbol, "n"))

    if tree.symbol:
        visit_chain([tree])
    else:
        visit_chain(tree.within)
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
    ``EquationUnits`` table, with units below ``min_count`` replaced by
    :data:`UNIT_GAP`; no equations give an empty vocabulary and table.
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
    remap = np.full(len(forms), UNIT_GAP, dtype=np.int64)
    remap[kept] = np.arange(len(kept))
    ptr = np.concatenate(([0], np.cumsum([len(seq) for seq in sequences], dtype=np.int64)))
    return Vocabulary("unit", [forms[u] for u in kept], counts[kept]), EquationUnits(ptr, remap[prov])
