"""Plain records: a source document, and an equation record (a document's
distinct region as ``tex`` extracts it, or a row of the equation registry).
They live apart from ``tex`` so that reading a bundle does not import it."""

from dataclasses import dataclass


@dataclass(frozen=True)
class RawDocument:
    doc_id: str
    source_text: str

    def __post_init__(self):
        if not self.doc_id:
            raise ValueError("doc_id must be non-empty")
        # a bundle writes doc ids inside tab-separated rows, and as UTF-8
        if set("\t\n\r") & set(self.doc_id) or self.doc_id.encode("utf-8", "replace").decode() != self.doc_id:
            raise ValueError(f"doc_id {self.doc_id!r} holds a tab or a line break, or is not valid UTF-8")
        if not self.source_text:
            raise ValueError(f"document {self.doc_id!r} has empty source text")


@dataclass
class EquationRecord:
    eq_id: int
    latex: str
    occurrence_count: int
