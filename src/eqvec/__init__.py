"""eqvec: dense vector representations of display equations.

Equations are modeled as singleton tokens embedded from the words around
them, optionally decomposed into layout-tree units that share statistics
across equations.  The package covers the whole pipeline: LaTeX corpus
ingestion, math tokenization, two-pass negative-sampling training with
Adagrad, held-out likelihood evaluation, and similarity queries.
"""

from .corpus import (
    CorpusData,
    IngestParams,
    Vocabulary,
    build_heldout,
    build_word_vocabulary,
    ingest_corpus,
    load_stopwords,
)
from .evaluation import (
    early_stopping_controller,
    evaluate_split,
    grid_select,
    predictive_log_likelihood,
    pseudo_log_likelihood,
)
from .model import EmbeddingTable, Model, ModelConfig, equation_vector_from_units, sigmoid
from .retrieval import Ranking, equations_for_words, nearest_equations, nearest_words
from .slt import (
    MathNode,
    MathParseError,
    SltTuple,
    build_unit_vocabulary,
    parse_math,
    slt_tuples,
    tokenize_equation,
)
from .tex import RawDocument, extract_display_equations, tokenize_words
from .training import TrainingDiverged, train_model

__version__ = "0.1.0"
