"""Plain records shared by ingest and the bundle: a source document and an
equation record.  They live apart from ``tex`` so that reading a bundle
does not import the LaTeX scanner."""

from dataclasses import dataclass


@dataclass(frozen=True)
class RawDocument:
    doc_id: str
    source_text: str

    def __post_init__(self):
        if not self.doc_id:
            raise ValueError("doc_id must be non-empty")
        if not self.source_text:
            raise ValueError(f"document {self.doc_id!r} has empty source text")


@dataclass
class EquationRecord:
    eq_id: int
    doc_id: str
    latex: str
    occurrence_count: int
