"""Plain records: a source document, an equation record (a document's
distinct region as ``tex`` extracts it, or a row of the equation registry)
and the slot token.  They live apart from ``tex`` so that reading a bundle
does not import it."""

from dataclasses import dataclass

# The token that stands for a display-math region in a document's word
# list (``tex.tokenize_words`` writes it, ``corpus.intern_prepared`` numbers
# it 0).  No word is a NUL: a literal one in prose becomes a space.
SLOT = "\0"


def doc_id_problem(doc_id: str) -> str | None:
    """Why a bundle, which writes doc ids as UTF-8 lines, cannot hold ``doc_id``."""
    if not doc_id:
        return "doc_id must be non-empty"
    if set("\n\r") & set(doc_id) or doc_id.encode("utf-8", "replace").decode() != doc_id:
        return f"doc_id {doc_id!r} holds a line break, or is not valid UTF-8"
    return None


@dataclass(frozen=True)
class RawDocument:
    doc_id: str
    source_text: str

    def __post_init__(self):
        problem = doc_id_problem(self.doc_id)
        if problem:
            raise ValueError(problem)
        if not self.source_text:
            raise ValueError(f"document {self.doc_id!r} has empty source text")


@dataclass
class EquationRecord:
    eq_id: int
    latex: str
    occurrence_count: int
