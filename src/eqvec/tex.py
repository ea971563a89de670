"""LaTeX article handling: pull display math out of prose, tokenize what remains.

A document is reduced to the prose pieces between its display-math
regions plus, for each region, a slot holding a document-local equation
id; the corpus layer later maps those to global equation ids after
deduplication.  Slots are carried beside the prose, never written into
it, so no text a document contains can pose as an equation.  A
document's words are tokenized in one pass over its pieces joined by the
slot character (``records.SLOT``, NUL), which becomes one slot token
between the words of consecutive pieces.  Before the join each literal
NUL in a piece becomes a space, and no later rule reads across the slot
character, so it marks only the gap between two pieces.
"""

import logging
import re

from .records import SLOT, EquationRecord, RawDocument

log = logging.getLogger(__name__)

# Display-math environments recognized by the extractor.  Each row of a
# multi-line environment becomes its own equation.
DISPLAY_ENVS = ("equation", "equation*", "align", "align*", "eqnarray", "displaymath")
MULTILINE_ENVS = frozenset({"align", "align*", "eqnarray"})

_ENV_BEGIN = re.compile(
    r"\\begin\{(" + "|".join(re.escape(e) for e in DISPLAY_ENVS) + r")\}"
)
# Region openers; the group names the environment of a ``\begin``.  An
# opener after an odd run of backslashes is escaped (``_escaped``).  Once a
# ``$$`` or ``\[`` has found no closer, no later one finds one either, so the
# scan goes on without it: ``_OPENERS[dollars, brackets]`` searches for
# ``\begin`` and for each of ``$$`` and ``\[`` whose flag is true.
_OPENERS = {
    (dollars, brackets): re.compile("|".join([_ENV_BEGIN.pattern] + [r"\$\$"] * dollars + [r"\\\["] * brackets))
    for dollars in (True, False)
    for brackets in (True, False)
}

# The blank LaTeX skips between a command's name and its argument: spaces
# and tabs with at most one line break.
_BLANK = re.compile(r"[ \t]*(?:\n[ \t]*)?")
# One match per mark a brace scan acts on: a ``\label{`` (whose ``{`` opens
# a group; a blank may come before it), an escape pair (so ``\{``, ``\}``,
# ``\[`` and ``\]`` are no marks, and ``\\`` is a row break), a brace or a
# bracket.
_BRACE_MARK = re.compile(r"\\label" + _BLANK.pattern + r"\{|\\.|[{}\[\]]", re.S)


def _escaped(text: str, i: int) -> bool:
    """Whether an odd run of backslashes ends right before ``i``, which
    escapes the character at ``i``."""
    run = i
    while run > 0 and text[run - 1] == "\\":
        run -= 1
    return (i - run) % 2 == 1


def _cut_unescaped(text: str, mark: str, end) -> list[str]:
    """The parts of ``text`` left when each ``mark`` that no odd run of
    backslashes escapes is cut up to ``end(at)``, ``at`` being where it
    starts, or to the end of the text if that is -1.  The search jumps
    from one mark, or cut, to the next."""
    kept, cut, at = [], 0, text.find(mark)
    while at >= 0:
        if not _escaped(text, at):
            kept.append(text[cut:at])
            cut = end(at)
            if cut < 0:
                return kept
        at = text.find(mark, max(cut, at + 1))
    kept.append(text[cut:])
    return kept


def strip_comments(text: str) -> str:
    """Drop %-comments, keeping line structure intact; a "%" after an odd
    run of backslashes is escaped."""
    return "".join(_cut_unescaped(text, "%", lambda at: text.find("\n", at)))


def normalize_equation(latex: str) -> str:
    """Canonical form used for deduplication: no labels, collapsed whitespace."""
    return " ".join(_drop_labels(latex).split())


def _brace_map(text: str) -> tuple[dict[int, int], list[int], list[int]]:
    """``(close, labels, breaks)`` from one scan of the marks of ``text``.

    ``close`` maps the index of each ``{`` to that of the ``}`` that closes
    it, and of each ``[`` to that of the first ``]`` at its own brace depth;
    -1 if there is none.  A ``}`` that closes no group is ignored, save
    that, like any ``}``, it leaves each ``[`` still open at its depth
    unclosed.  ``labels`` holds the start of each ``\\label{`` and
    ``breaks`` that of each ``\\\\`` outside every group, in order."""
    close, labels, breaks = {}, [], []
    opened = []  # the "{" of each group not yet closed
    pending = []  # (depth, index) of each "[" not yet closed, depths ascending
    for m in _BRACE_MARK.finditer(text):
        mark, at = m[0], m.start()
        if mark == "]" or mark == "}":  # either ends each "[" still open at its depth
            while pending and pending[-1][0] == len(opened):
                close[pending.pop()[1]] = at if mark == "]" else -1
            if mark == "}" and opened:
                close[opened.pop()] = at
        elif mark == "[":
            close[at] = -1
            pending.append((len(opened), at))
        elif mark == "\\\\":
            if not opened:
                breaks.append(at)
        elif mark == "{" or len(mark) > 2:  # a brace or a \label{
            opened.append(m.end() - 1)
            close[m.end() - 1] = -1
            if len(mark) > 2:
                labels.append(at)
    return close, labels, breaks


def _drop_labels(latex: str) -> str:
    """Replace each ``\\label{...}`` group, braces balanced, with a space;
    a blank may come before the group, as in prose.

    A label that never closes stays as written; a label inside a dropped
    one goes with it."""
    if "\\label" not in latex:
        return latex
    close, labels, _ = _brace_map(latex)
    kept, cut = [], 0
    for start in labels:
        end = close[latex.index("{", start)]
        if end >= 0 and start >= cut:
            kept.append(latex[cut:start])
            cut = end + 1
    kept.append(latex[cut:])
    return " ".join(kept)


def _split_rows(content: str) -> list[str]:
    """Split a multi-line environment body on the ``\\\\`` separators that
    lie outside every brace group (``\\}`` closes none)."""
    cuts = [-2, *_brace_map(content)[2], len(content)]
    return [content[a + 2 : b] for a, b in zip(cuts, cuts[1:])]


def extract_display_equations(doc: RawDocument):
    """Split a document at its display-math regions.

    Returns ``(pieces, slots, records)``: the prose pieces between regions
    (one more piece than slots), the document-local equation id of each
    region in order, and one record per distinct normalized region
    (identical regions share a record, occurrence_count incremented).
    Unbalanced regions are skipped with a warning; the document survives.
    """
    pieces, records, skipped, slots = _extract(doc)
    return pieces, slots, records


def _extract(doc: RawDocument):
    """``(pieces, records, skipped, slots)`` in one forward scan.

    Each opener's closer is found with a forward ``str.find``.  A closer
    that is absent after one position is absent after every later one, so
    a failed search is remembered and never repeated, and the opener search
    leaves out a ``$$`` or ``\\[`` whose closer is absent: every character
    is scanned a bounded number of times.
    """
    text = strip_comments(doc.source_text)
    pieces: list[str] = []
    slots: list[int] = []
    held: list[str] = []  # prose segments of the piece being built
    records: list[EquationRecord] = []
    by_latex: dict[str, int] = {}
    unclosed: set[str] = set()
    skipped = 0
    pos = cut = 0  # scan position; start of prose not yet held

    def register(raw: str) -> None:
        nonlocal skipped
        norm = normalize_equation(raw)
        if not norm:
            skipped += 1
            log.warning("%s: empty display-math region skipped", doc.doc_id)
            return
        local = by_latex.setdefault(norm, len(records))
        if local == len(records):
            records.append(EquationRecord(local, norm, 0))
        records[local].occurrence_count += 1
        pieces.append("".join(held))
        held.clear()
        slots.append(local)

    opener = _OPENERS[True, True]
    while (m := opener.search(text, pos)) is not None:
        # the first test keeps the call off the path of an opener after no backslash
        if text[m.start() - 1] == "\\" and _escaped(text, m.start()):
            pos = m.start() + 1
            continue
        env = m.group(1)
        closer = f"\\end{{{env}}}" if env else "$$" if m[0] == "$$" else "\\]"
        end = -1 if closer in unclosed else text.find(closer, m.end())
        if end < 0:
            unclosed.add(closer)
            pos = m.end()
            if env is not None:  # the opener is dropped; $$ and \[ stay prose
                skipped += 1
                log.warning("%s: unbalanced \\begin{%s} skipped", doc.doc_id, env)
                held.append(text[cut : m.start()])
                cut = pos
            else:
                opener = _OPENERS["$$" not in unclosed, "\\]" not in unclosed]
            continue
        held.append(text[cut : m.start()])
        body = text[m.end() : end]
        pos = cut = end + len(closer)
        if env in MULTILINE_ENVS:
            for row in _split_rows(body):
                if row.strip():
                    register(row)
        else:
            register(body)
    held.append(text[cut:])
    pieces.append("".join(held))

    # a "$$" left in prose opened no region; "\\$$" is an escaped "$" and a "$"
    loose = [" ".join(_cut_unescaped(p, "$$", lambda at: at + 2)) if "$$" in p else p for p in pieces]
    if loose != pieces:
        skipped += 1
        log.warning("%s: unbalanced $$ delimiter left in prose", doc.doc_id)
    return loose, records, skipped, slots


# --- word tokenization -----------------------------------------------------
# No pass rescans the text from an unclosed opener.  Where the scan is in
# Python, a closer is read from the brace map, or found with ``str.find``
# and a failed search is remembered: a closer absent after one position is
# absent after every later one.

_INLINE_OPEN = re.compile(r"\$|\\\(")
# Where "$" is the only opener and none is escaped (no ``_PAREN_OR_ESCAPE``
# match), each span ends at the next "$" and a lone last "$" stays: what the
# scan in ``_drop_inline_math`` does, in one pass.
_DOLLAR_SPAN = re.compile(r"\$[^$]*\$")
_PAREN_OR_ESCAPE = re.compile(r"\\[($]")
# Commands whose braced argument is reference noise, not prose: the name,
# any [...] arguments, then one or more adjacent {...} groups, braces
# balanced.  Before the first argument and after each [...] a blank
# (``_BLANK``) may come.  A name after an odd run of backslashes is escaped,
# which no look-behind can tell; ``_drop_references`` counts the run.
_REFERENCE = re.compile(
    r"\\(?:cite[pt]?\*?|ref|eqref|pageref|autoref|cref|Cref|label|url|href"
    r"|input|include|includegraphics|bibliography|bibliographystyle"
    r"|usepackage|documentclass|pagestyle|thispagestyle)"
    + _BLANK.pattern + r"(?=[\[{])"
)
# A ``[...]`` or brace group with no brace, bracket or backslash inside
# ends where the brace map would say, so texts whose references are all
# like this (``\documentclass[11pt]{article}``) are never scanned for
# braces; stopping at a backslash keeps each match short of the next command.
_FLAT_GROUP = re.compile(r"\[[^\[\]{}\\]*\]|\{[^{}\\]*\}")
_BEGIN_END = re.compile(r"\\(?:begin|end)\{[^}]*\}")
# The slot character is no command's escaped character.
_COMMAND = re.compile(r"\\[a-zA-Z]+\*?|\\[^a-zA-Z\0]")
# A word, or the slot token.
_TOKEN = re.compile(r"[a-z]+(?:-[a-z]+)*|\0")
# Every byte but a-z, "-" and the slot character becomes a space.  After
# ``.lower()`` and an ASCII encode that writes "?" for each other code
# point, the tokens of ``_TOKEN`` are the space-separated runs without "-".
_SEPARATE = bytes(b if 97 <= b <= 122 or b == 45 or b == 0 else 32 for b in range(256))
_JOIN = f" {SLOT} "


def tokenize_words(*pieces: str) -> list[str]:
    """Lowercase alphabetic tokens in document order, with one slot token
    (``records.SLOT``) between the words of consecutive ``pieces``.

    A word is a run of ASCII letters after lowercasing; every other
    character, accented letters included, separates words.  Hyphenated
    words stay whole ("p-value"); numerals and punctuation are dropped;
    inline math and LaTeX commands are removed.  Inline math, reference
    arguments and ``\\begin{..}``/``\\end{..}`` end within their piece;
    the rest runs once over the joined pieces.  Time is linear in the
    length of the text, unclosed delimiters included.
    """
    t = _JOIN.join(map(_drop_piece_markup, pieces))
    t = _COMMAND.sub(" ", t)
    t = t.lower().encode("ascii", "replace").translate(_SEPARATE).decode()
    return t.split() if "-" not in t else _TOKEN.findall(t)


def _drop_piece_markup(text: str) -> str:
    """``text`` without its inline math, reference commands and
    ``\\begin{..}``/``\\end{..}``, each literal slot character a space."""
    t = _drop_references(_drop_inline_math(text))
    # A \begin{..} or \end{..} match ends at a "}", so none lies past the
    # last one, and before it every opener finds its "}": the regex never
    # rescans.
    cut = t.rfind("}") + 1
    if cut:
        t = _BEGIN_END.sub(" ", t[:cut]) + t[cut:]
    return t.replace(SLOT, " ")


def _drop_inline_math(text: str) -> str:
    """Replace each ``$...$`` and ``\\(...\\)`` span with a space; an opener
    with no closer after it, or after an odd run of backslashes, stays in
    the text."""
    if _PAREN_OR_ESCAPE.search(text) is None:
        return _DOLLAR_SPAN.sub(" ", text)
    m = _INLINE_OPEN.search(text)
    if m is None:
        return text
    kept: list[str] = []
    unclosed: set[str] = set()
    cut = 0
    while m is not None:
        if _escaped(text, m.start()):
            m = _INLINE_OPEN.search(text, m.end())
            continue
        closer = "$" if m[0] == "$" else "\\)"
        end = -1 if closer in unclosed else text.find(closer, m.end())
        if end < 0:
            unclosed.add(closer)
            m = _INLINE_OPEN.search(text, m.end())
            continue
        kept.append(text[cut : m.start()])
        cut = end + len(closer)
        m = _INLINE_OPEN.search(text, cut)
    kept.append(text[cut:])
    return " ".join(kept)


def _drop_references(text: str) -> str:
    """Replace each reference command with its arguments by a space; a
    command whose backslash is escaped, or with no brace group that
    closes, stays."""
    m = _REFERENCE.search(text)
    if m is None:
        return text
    close: dict[int, int] = {}  # the brace map, made when an argument first needs it
    seen: set[int] = set()  # each "]" an argument walk has passed
    kept: list[str] = []
    cut = 0
    while m is not None:
        end = -1 if _escaped(text, m.start()) else _arguments_end(text, m.end(), close, seen)
        if end < 0:
            m = _REFERENCE.search(text, m.end())
            continue
        kept.append(text[cut : m.start()])
        cut = end
        m = _REFERENCE.search(text, cut)
    kept.append(text[cut:])
    return " ".join(kept)


def _arguments_end(text: str, pos: int, close: dict[int, int], seen: set[int]) -> int:
    """The end of the arguments that start at ``pos``, a run of ``[...]``
    and then a run of adjacent brace groups, or -1 when no group closes;
    a blank after a ``[...]`` is skipped (``_BLANK``).  Each ends
    where ``close``, the brace map of ``text``, says.  An empty ``close`` is
    filled the first time an argument that is not flat needs it; until then
    ``_FLAT_GROUP`` ends arguments.  ``seen`` holds each ``]`` that an
    earlier walk passed.  Commands whose ``[...]`` share a ``]`` share the
    arguments after it, so a walk that reaches one fails as that walk did:
    one that succeeded moved the cut past it."""
    end = -1
    while text.startswith("{", pos) or (end < 0 and text.startswith("[", pos)):
        flat = None if close else _FLAT_GROUP.match(text, pos)
        if flat is None and not close:
            close.update(_brace_map(text)[0])
        group = flat.end() - 1 if flat else close[pos]
        if group < 0 or group in seen:
            break
        pos = group + 1
        if text[group] == "}":
            end = pos
        else:
            seen.add(group)
            pos = _BLANK.match(text, pos).end()
    return end
