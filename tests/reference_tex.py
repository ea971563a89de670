"""Reference extractor and word tokenizer: the original rescanning
extractor with in-band placeholders and the regex word tokenizer, kept as
test oracles.

After every match it re-runs three regex searches from the current
position, so hostile input (runs of unclosed ``\\[``) costs quadratic
time, and each region is written into the prose as a ``⟦eq:N⟧`` marker
that word tokenization passes through.  On input without literal marker
text, ``eqvec.tex._extract`` followed by per-piece tokenization must give
the same records, skipped count and word/slot sequence, which the
differential tests check.  It takes a display opener after an odd run
of backslashes for no opener, and a ``$$`` left in the prose after such
a run for an escaped ``$`` and a ``$``, not an unbalanced delimiter.
The regex tokenizer rescans to the end of the text from every unclosed
``\\(`` and every ``\\begin{`` without a ``}``, and takes an inline-math
opener after an odd run of backslashes for no opener.  It takes a
reference command after such a run for no command, skips the blank after
its name and after each ``[...]`` argument if that holds at most one
line break, and ends each of its ``[...]`` and brace arguments by
counting braces forward from its ``[`` or ``{``, so that an argument holding braces is dropped whole;
``eqvec.tex.tokenize_words`` must give the same tokens.  The comment
stripper is the look-behind-first regex, which takes a "%" after an odd
run of backslashes for no comment; ``eqvec.tex.strip_comments`` must drop
the same spans.  The row splitter walks an environment body one
character at a time; ``eqvec.tex._split_rows`` must give the same rows.
The label dropper finds each unescaped ``\\label{``, a blank allowed
before the ``{``, and then its closing brace by a scan of its own from
there; ``eqvec.tex.normalize_equation`` must drop the same labels.
"""

import logging
import re

from eqvec.tex import (
    _BEGIN_END,
    _COMMAND,
    _ENV_BEGIN,
    _WORD,
    MULTILINE_ENVS,
    EquationRecord,
    RawDocument,
    normalize_equation,
)

log = logging.getLogger(__name__)

# Placeholder markers survive word tokenization because they use bracket
# characters that never occur in real LaTeX prose.
PLACEHOLDER_FMT = "\u27e6eq:{}\u27e7"
PLACEHOLDER_RE = re.compile(r"\u27e6eq:(\d+)\u27e7")

# An even run of backslashes, none before it: what follows is no escape.
# Each pattern below keeps the run as group 1 and starts its opener after it.
_UNESCAPED = r"(?<!\\)((?:\\\\)*)"

_INLINE_MATH = re.compile(_UNESCAPED + r"(?:\$[^$]*\$|\\\(.*?\\\))", re.DOTALL)
# Commands whose braced argument is reference noise, not prose: the name
# and the blank after it, when a [...] argument or a brace group follows.
# A name after an odd run of backslashes, or whose blank holds more than
# one line break, is no command; ``drop_references`` skips it.
_REFERENCE_NAME = re.compile(
    r"\\(?:cite[pt]?\*?|ref|eqref|pageref|autoref|cref|Cref|label|url|href"
    r"|input|include|includegraphics|bibliography|bibliographystyle"
    r"|usepackage|documentclass|pagestyle|thispagestyle)"
    r"([ \t\n]*)(?=[\[{])"
)

# The comment pattern as first written, with a look-behind that leads, so a
# search tries the pattern at every character.
_COMMENT = re.compile(_UNESCAPED + r"%[^\n]*")

_ENV_OPEN = re.compile(_UNESCAPED + _ENV_BEGIN.pattern)
_DOLLAR_PAIR = re.compile(_UNESCAPED + r"\$\$(.*?)\$\$", re.DOTALL)
_BRACKET_PAIR = re.compile(_UNESCAPED + r"\\\[(.*?)\\\]", re.DOTALL)
# A "$$" no pair took, none after an odd run of backslashes.
_LOOSE_DOLLARS = re.compile(_UNESCAPED + r"\$\$")
# A label's name, the blank after it, and the "{" that opens its group.
_LABEL_OPEN = re.compile(r"\\label([ \t\n]*)\{")


def split_rows(content: str) -> list[str]:
    """Split a multi-line environment body on top-level ``\\\\`` separators,
    walking it one character at a time."""
    rows, depth, start, i = [], 0, 0, 0
    while i < len(content):
        ch = content[i]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth = max(0, depth - 1)
        elif ch == "\\" and i + 1 < len(content):
            if content[i + 1] == "\\" and depth == 0:
                rows.append(content[start:i])
                i += 2
                start = i
                continue
            i += 1  # skip escaped char so \} does not close a group
        i += 1
    rows.append(content[start:])
    return rows


def strip_comments(text: str) -> str:
    """Drop %-comments, keeping line structure intact; a "%" after an odd
    run of backslashes is escaped."""
    return _COMMENT.sub(r"\1", text)


def _extract(doc: RawDocument):
    text = strip_comments(doc.source_text)
    out: list[str] = []
    records: list[EquationRecord] = []
    by_latex: dict[str, int] = {}
    skipped = 0
    pos = 0

    def register(raw: str) -> None:
        nonlocal skipped
        norm = normalize_equation(raw)
        if not norm:
            skipped += 1
            log.warning("%s: empty display-math region skipped", doc.doc_id)
            return
        local = by_latex.get(norm)
        if local is None:
            local = len(records)
            by_latex[norm] = local
            records.append(EquationRecord(local, norm, 0))
        records[local].occurrence_count += 1
        out.append(" " + PLACEHOLDER_FMT.format(local) + " ")

    while pos < len(text):
        matches = [
            m
            for m in (
                _ENV_OPEN.search(text, pos),
                _DOLLAR_PAIR.search(text, pos),
                _BRACKET_PAIR.search(text, pos),
            )
            if m is not None
        ]
        if not matches:
            out.append(text[pos:])
            break
        m = min(matches, key=lambda m: m.end(1))
        out.append(text[pos : m.end(1)])
        if m.re is _ENV_OPEN:
            env = m.group(2)
            end = re.compile(r"\\end\{" + re.escape(env) + r"\}").search(text, m.end())
            if end is None:
                skipped += 1
                log.warning("%s: unbalanced \\begin{%s} skipped", doc.doc_id, env)
                pos = m.end()
                continue
            body = text[m.end() : end.start()]
            if env in MULTILINE_ENVS:
                for row in split_rows(body):
                    if row.strip():
                        register(row)
            else:
                register(body)
            pos = end.end()
        else:
            register(m.group(2))
            pos = m.end()

    prose, loose = _LOOSE_DOLLARS.subn(r"\1 ", "".join(out))
    if loose:
        skipped += 1
        log.warning("%s: unbalanced $$ delimiter left in prose", doc.doc_id)
    return prose, records, skipped


def is_placeholder(token: str) -> bool:
    return PLACEHOLDER_RE.fullmatch(token) is not None


def placeholder_id(token: str) -> int:
    m = PLACEHOLDER_RE.fullmatch(token)
    if m is None:
        raise ValueError(f"not an equation placeholder: {token!r}")
    return int(m.group(1))


def _group_end(text: str, i: int) -> int:
    """The index past the ``}`` that closes the ``{`` at ``i``, found by
    counting braces forward from there (an escape pair skipped), or -1."""
    depth, j = 0, i
    while j < len(text):
        ch = text[j]
        depth += (ch == "{") - (ch == "}")
        j += 2 if ch == "\\" else 1
        if depth == 0:
            return j
    return -1


def _bracket_end(text: str, i: int) -> int:
    """The index past the ``]`` that ends the ``[`` at ``i``: the first one
    outside every group opened after it, found by counting braces forward
    from there (an escape pair skipped); -1 when a ``}`` that closes no
    such group, or the end of the text, comes first."""
    depth, j = 0, i + 1
    while j < len(text):
        ch = text[j]
        if depth == 0 and ch in "]}":
            return j + 1 if ch == "]" else -1
        depth += (ch == "{") - (ch == "}")
        j += 2 if ch == "\\" else 1
    return -1


def _blank_end(text: str, i: int) -> int:
    """The index past the spaces, tabs and line breaks from ``i`` if they
    hold at most one line break, else ``i``; -1 for -1."""
    j = i
    while 0 <= j < len(text) and text[j] in " \t\n":
        j += 1
    return j if text.count("\n", i, j) <= 1 else i


def drop_references(text: str) -> str:
    """Each reference command with its arguments replaced with a space,
    found left to right: the name, spaces, tabs and at most one line
    break, any ``[...]`` arguments, each followed by such a blank, then
    one or more adjacent brace groups, each closed by a scan of its own;
    a command after an odd run of backslashes, or with no group that
    closes, stays."""
    out, cut, pos = [], 0, 0
    while (m := _REFERENCE_NAME.search(text, pos)) is not None:
        pos, end = m.end(), -1
        before = text[cut : m.start()]
        if (len(before) - len(before.rstrip("\\"))) % 2 or m[1].count("\n") > 1:
            continue
        j = pos
        while j >= 0 and text.startswith("[", j):
            j = _blank_end(text, _bracket_end(text, j))
        while j >= 0 and text.startswith("{", j) and (e := _group_end(text, j)) >= 0:
            end = j = e
        if end >= 0:
            out.append(text[cut : m.start()])
            cut = pos = end
    return " ".join(out + [text[cut:]])


def reference_tokenize_words(prose_text: str) -> list[str]:
    """Lowercase alphabetic tokens in document order, by regex substitution
    and a scan per reference command."""
    t = _INLINE_MATH.sub(r"\1 ", prose_text)
    t = drop_references(t)
    t = _BEGIN_END.sub(" ", t)
    t = _COMMAND.sub(" ", t)
    return _WORD.findall(t.lower())


def tokenize_words(prose_text: str) -> list[str]:
    """``reference_tokenize_words`` with equation placeholders passed through
    untouched."""
    tokens: list[str] = []
    parts = PLACEHOLDER_RE.split(prose_text)
    # re.split with one capture group alternates text and captured ids
    for i, part in enumerate(parts):
        if i % 2 == 1:
            tokens.append(PLACEHOLDER_FMT.format(int(part)))
        else:
            tokens.extend(reference_tokenize_words(part))
    return tokens


def reference_sequence(doc: RawDocument):
    """``(sequence, records, skipped)`` where ``sequence`` holds ``("w", word)``
    and ``("eq", local id)`` items in document order."""
    prose, records, skipped = _extract(doc)
    sequence = [
        ("eq", placeholder_id(t)) if is_placeholder(t) else ("w", t)
        for t in tokenize_words(prose)
    ]
    return sequence, records, skipped


def drop_labels(latex: str) -> str:
    """Each ``\\label{`` that no backslash escapes, a blank of spaces, tabs
    and at most one line break allowed before its ``{``, up to the brace that
    closes it, found by counting braces forward from there (an escape pair
    skipped), replaced with a space; a label that never closes stays, and
    one inside a dropped label goes with it."""
    starts, i = [], 0
    while i < len(latex):
        m = _LABEL_OPEN.match(latex, i)
        if m and m[1].count("\n") <= 1:
            starts.append((i, m.end()))
            i = m.end()
        else:
            i += 2 if latex[i] == "\\" else 1
    spans = []
    for start, j in starts:
        depth = 1
        while j < len(latex) and depth:
            ch = latex[j]
            depth += (ch == "{") - (ch == "}")
            j += 2 if ch == "\\" else 1
        if depth == 0 and (not spans or start >= spans[-1][1]):
            spans.append((start, j))
    out, cut = [], 0
    for start, end in spans:
        out.append(latex[cut:start])
        cut = end
    return " ".join(out + [latex[cut:]])
