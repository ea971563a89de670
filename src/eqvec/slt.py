"""Layout-tree tokenizer for LaTeX math.

An equation is parsed into a tree whose edges carry one of five spatial
relations: n (next, to the right), a (above), u (under), o (over) and
w (within).  Walking the tree emits (symbol, symbol, relation) tuples;
each tuple is one equation *unit*, the atomic "word" of an equation.
"""

import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

RELATIONS = ("n", "a", "u", "o", "w")

UNIT_GAP = -1  # sequence slot for a unit dropped by the frequency threshold


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
            elif i + 1 < n:
                c = latex[i + 1]
                if c != "\\" and c not in ",;:! ":
                    toks.append(_Tok("char", c, i))  # escaped literal symbol
                i += 2
            else:
                i += 1
        elif ch == "{":
            toks.append(_Tok("lbrace", ch, i))
            i += 1
        elif ch == "}":
            toks.append(_Tok("rbrace", ch, i))
            i += 1
        elif ch == "^":
            toks.append(_Tok("sup", ch, i))
            i += 1
        elif ch == "_":
            toks.append(_Tok("sub", ch, i))
            i += 1
        elif ch == "'":
            toks.append(_Tok("prime", ch, i))
            i += 1
        else:
            toks.append(_Tok("char", ch, i))
            i += 1
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok], lenient: bool):
        self.toks = toks
        self.i = 0
        self.lenient = lenient

    def error(self, msg: str, offset: int):
        raise MathParseError(msg, offset)

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

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
            if tok.kind in ("sup", "sub"):
                self.i += 1
                arg = self.argument(tok)
                base = nodes[-1] if nodes and nodes[-1].symbol else None
                slot = "above" if tok.kind == "sup" else "under"
                if base is None or getattr(base, slot):
                    base = MathNode("carrier", "")
                    nodes.append(base)
                getattr(base, slot).extend(arg)
                continue
            if tok.kind == "prime":
                self.i += 1
                if nodes:
                    nodes[-1].above.append(MathNode("symbol", "prime"))
                else:
                    nodes.append(MathNode("symbol", "prime"))
                continue
            node_or_list = self.unit(tok)
            if isinstance(node_or_list, list):
                nodes.extend(node_or_list)
            elif node_or_list is not None:
                nodes.append(node_or_list)

    def argument(self, script_tok: _Tok) -> list[MathNode]:
        """One script/command argument: a braced chain or a single unit."""
        tok = self.peek()
        if tok is None:
            if self.lenient:
                return []
            self.error("missing argument", script_tok.offset)
        if tok.kind == "lbrace":
            self.i += 1
            return self.chain(in_group=True)
        if tok.kind in ("sup", "sub", "rbrace"):
            if self.lenient:
                return []
            self.error("missing argument", tok.offset)
        got = self.unit(tok)
        if isinstance(got, list):
            return got
        return [got] if got is not None else []

    def unit(self, tok: _Tok):
        """Parse one construct starting at ``tok``; returns node, list or None."""
        if tok.kind == "lbrace":
            self.i += 1
            inner = self.chain(in_group=True)
            return MathNode("group", "{}", within=inner)
        if tok.kind == "char":
            self.i += 1
            return MathNode("symbol", tok.text)
        if tok.kind == "cmd":
            return self.command(tok)
        self.error(f"unexpected token {tok.text!r}", tok.offset)

    def command(self, tok: _Tok):
        name = tok.text
        self.i += 1
        if name in SKIP_COMMANDS:
            return None
        if name in ("left", "right"):
            nxt = self.peek()
            if nxt is not None and nxt.kind in ("char", "cmd"):
                if nxt.kind == "char" and nxt.text == ".":
                    self.i += 1
                    return None
                if nxt.kind == "char":
                    self.i += 1
                    return MathNode("symbol", nxt.text)
            return None
        if name in DROP_ARG_COMMANDS:
            self._skip_braced()
            return None
        if name in TRANSPARENT_COMMANDS:
            return self.argument(tok)
        if name in FRACTION_COMMANDS:
            num = self.argument(tok)
            den = self.argument(tok)
            return MathNode("fraction", FRACTION_COMMANDS[name], over=num, under=den)
        if name == "sqrt":
            node = MathNode("root", "sqrt")
            nxt = self.peek()
            if nxt is not None and nxt.kind == "char" and nxt.text == "[":
                node.above.extend(self._bracket_group())
            node.within.extend(self.argument(tok))
            return node
        if name in WRAPPER_COMMANDS:
            return MathNode("symbol", name, within=self.argument(tok))
        if name in OPERATOR_COMMANDS:
            return MathNode("operator", name)
        if name in SYMBOL_COMMANDS:
            return MathNode("symbol", name)
        if self.lenient:
            return MathNode("symbol", name)
        self.error(f"unknown command \\{name}", tok.offset)

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
            got = self.unit(tok)
            if isinstance(got, list):
                nodes.extend(got)
            elif got is not None:
                nodes.append(got)

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
    raises :class:`MathParseError` with a byte offset on unbalanced braces
    or unknown commands; lenient mode recovers, turning unknown commands
    into opaque symbols.
    """
    parser = _Parser(_lex(latex), lenient)
    top = parser.chain(in_group=False)
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


def parse_unit_string(s: str) -> SltTuple:
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


def build_unit_vocabulary(sequences: dict[int, list[SltTuple]], min_count: int = 1):
    """Frequency-filtered unit vocabulary over all tokenized equations.

    Returns ``(vocab, id_sequences)`` where each equation's tuple list is
    re-emitted as an int array of vocabulary ids, with units below
    ``min_count`` replaced by :data:`UNIT_GAP`.
    """
    from .corpus import Vocabulary  # local import: corpus also imports slt

    if not sequences:
        raise ValueError("empty equation set")
    counts: dict[str, int] = {}
    per_eq_strings: dict[int, list[str]] = {}
    for eq_id in sorted(sequences):
        strs = [unit_string(t) for t in sequences[eq_id]]
        per_eq_strings[eq_id] = strs
        for s in strs:
            counts[s] = counts.get(s, 0) + 1
    kept = sorted(
        (f for f, c in counts.items() if c >= min_count),
        key=lambda f: (-counts[f], f),
    )
    vocab = Vocabulary(
        kind="unit",
        forms=kept,
        freqs=np.array([counts[f] for f in kept], dtype=np.int64),
    )
    id_sequences = {
        eq_id: np.array(
            [vocab.index.get(s, UNIT_GAP) for s in strs], dtype=np.int64
        )
        for eq_id, strs in per_eq_strings.items()
    }
    return vocab, id_sequences
