"""eqvec: dense vector representations of display equations.

Equations are modeled as singleton tokens embedded from the words around
them, optionally decomposed into layout-tree units that share statistics
across equations.  The package covers the whole pipeline: LaTeX corpus
ingestion, math tokenization, two-pass negative-sampling training with
Adagrad, held-out likelihood evaluation, and similarity queries.

The public names below are imported from their modules on first use, so
``eqvec query`` loads only the modules a query runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "corpus": (
        "CorpusData IngestParams Vocabulary build_heldout build_word_vocabulary "
        "ingest_corpus load_stopwords"
    ),
    "evaluation": "early_stopping_controller evaluate_split grid_select",
    "model": "EmbeddingTable Model ModelConfig equation_vector_from_units sigmoid",
    "records": "RawDocument",
    "retrieval": "Ranking equations_for_words nearest_equations nearest_words",
    "slt": (
        "MathNode MathParseError SltTuple build_unit_vocabulary parse_math "
        "slt_tuples tokenize_equation"
    ),
    "tex": "extract_display_equations tokenize_words",
    "training": "TrainingDiverged train_model",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys())
