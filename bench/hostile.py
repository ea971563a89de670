"""Seeded malformed LaTeX for the ingest workload.

A fixed share of the planted documents (``SHARE``, chosen by the workload
seed) get a hostile tail appended after their last real equation: a run
of ``RUN_MIN``..``RUN_MAX`` unclosed ``\\[`` openers, each followed by a
little inline-looking math, and then one unclosed ``$$``.  Because the
tail sits after every real display region, it never swallows a genuine
equation, so the extracted equations are those of the clean corpus.

What the extractor must do with a tail is fixed: the ``\\[`` run is left
in the prose (and later dropped by word tokenization) and the lone ``$$``
is counted as one skipped region.  Each hostile document therefore adds
exactly one to ``regions_skipped``.

The sizes are chosen so that, with the extractor that rescans the text
after every match, the hostile documents cost a visible minority of
ingest time (about a quarter on a 2-core machine): a run of n openers
costs time quadratic in n, around 2 ms at n = 100.
"""

import numpy as np

from eqvec.tex import RawDocument

SHARE = 0.05
RUN_MIN = 64
RUN_MAX = 128


def hostile_tail(rng: np.random.Generator, run_min: int, run_max: int) -> str:
    n = int(rng.integers(run_min, run_max + 1))
    opener = " ".join(f"\\[ x_{{{i}}} + y" for i in range(n))
    return f"{opener}\n$$ z_{{0}} = \n"


def with_hostile_tails(docs, seed: int, share: float = SHARE,
                       run_min: int = RUN_MIN, run_max: int = RUN_MAX):
    """Return ``(documents, n_hostile)``; the chosen documents get a tail
    inserted before ``\\end{document}``."""
    rng = np.random.Generator(np.random.PCG64([seed, 0x5EED]))
    n_hostile = max(1, round(share * len(docs)))
    chosen = set(int(i) for i in rng.choice(len(docs), size=n_hostile, replace=False))
    out = []
    for i, doc in enumerate(docs):
        if i in chosen:
            tail = hostile_tail(rng, run_min, run_max)
            text = doc.source_text.replace("\\end{document}", tail + "\\end{document}")
            doc = RawDocument(doc.doc_id, text)
        out.append(doc)
    return out, n_hostile
