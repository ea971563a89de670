"""Reference layout-tree lexer, parser and unit vocabulary: the branchy
first versions, kept as test oracles.

The lexer spends one branch on each one-character token kind and emits
``_Tok`` named tuples; the parser's ``unit`` and ``command`` return a node,
a list or None, and its callers branch on which, and each nesting level is
one ``_nested`` wrapper frame; the vocabulary serializes every unit occurrence with
``unit_string`` and counts the strings with a ``Counter``.
``eqvec.slt.parse_math`` must give ``==`` trees, or raise the same error
with the same message, and ``eqvec.slt.build_unit_vocabulary`` the same
vocabulary and unit table, which the differential tests check.
"""

from collections import Counter
from typing import NamedTuple

import numpy as np

from eqvec.corpus import Vocabulary
from eqvec.slt import (
    DROP_ARG_COMMANDS,
    FRACTION_COMMANDS,
    MAX_DEPTH,
    OPERATOR_COMMANDS,
    SKIP_COMMANDS,
    SYMBOL_COMMANDS,
    TRANSPARENT_COMMANDS,
    WRAPPER_COMMANDS,
    MathNode,
    MathParseError,
    SltTuple,
    unit_string,
)


UNIT_GAP = -1  # the slot of a unit below min_count in the vocabulary's rows


class _Tok(NamedTuple):
    kind: str  # cmd | char | lbrace | rbrace | sup | sub | prime
    text: str
    offset: int


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
            got = self.unit(tok)
            if isinstance(got, list):
                nodes.extend(got)
            elif got is not None:
                nodes.append(got)

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

    @_nested
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


def build_unit_vocabulary(sequences: dict[int, list[SltTuple]], min_count: int = 1):
    """Frequency-filtered unit vocabulary over all tokenized equations.

    ``sequences`` maps every equation id 0..n-1 to its tuple list.  Returns
    ``(vocab, rows)``: the tuple lists re-emitted as lists of vocabulary
    ids, with units below ``min_count`` replaced by :data:`UNIT_GAP`.
    """
    if not sequences:
        raise ValueError("empty equation set")
    rows = [[unit_string(t) for t in sequences[eq_id]] for eq_id in range(len(sequences))]
    counts = Counter(s for strs in rows for s in strs)
    kept = sorted(
        (f for f, c in counts.items() if c >= min_count),
        key=lambda f: (-counts[f], f),
    )
    vocab = Vocabulary(
        kind="unit",
        forms=kept,
        freqs=np.array([counts[f] for f in kept], dtype=np.int64),
    )
    return vocab, [[vocab.index.get(s, UNIT_GAP) for s in strs] for strs in rows]
