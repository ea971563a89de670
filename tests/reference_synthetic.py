"""Reference planted-corpus generator, kept as a test oracle: the original
``planted_corpus``, which draws through ``np.random.Generator(PCG64(seed))``
one scalar call per choice.  ``eqvec.synthetic.planted_corpus`` reads the
raw PCG64 stream and must build the same corpus from the same arguments.
"""

import numpy as np

from eqvec.synthetic import (
    FILLERS,
    NEUTRALS,
    TOPICS,
    PlantedCorpus,
    _SPRINKLE_STOPWORDS,
    _class_equations,
    _pad_words,
    _rare_words,
)
from eqvec.tex import RawDocument, normalize_equation


def planted_corpus(
    n_docs: int = 200,
    n_classes: int = 4,
    sentences_per_doc: int = 8,
    seed: int = 7,
) -> PlantedCorpus:
    """Generate ``n_docs`` articles, class-balanced round robin.

    Each class owns 24 equations: the first twenty recur across its
    documents (a few occurrences each) and the last four appear exactly
    once (singletons).  Equation blocks keep held-out candidates two
    positions from the equation with neutral-only or one-topic windows,
    while deeper topic words among gap padding carry the class signal.
    """
    if not 1 <= n_classes <= len(TOPICS):
        raise ValueError(f"n_classes must be in [1, {len(TOPICS)}]")
    rng = np.random.Generator(np.random.PCG64(seed))
    rare = _rare_words()
    pads = _pad_words()
    class_eqs = {c: _class_equations(c) for c in range(n_classes)}
    common = {c: eqs[:20] for c, eqs in class_eqs.items()}
    singles = {c: list(eqs[20:]) for c, eqs in class_eqs.items()}
    env_cycle = ["equation", "dollar", "bracket", "equation*", "align"]

    def pick(pool):
        return pool[int(rng.integers(len(pool)))]

    def sentence(cls: int) -> str:
        n = int(rng.integers(6, 11))
        words = []
        for _ in range(n):
            r = rng.random()
            if r < 0.12:
                words.append(pick(_SPRINKLE_STOPWORDS))
            elif r < 0.50:
                words.append(pick(FILLERS))
            elif r < 0.60:
                words.append(pick(NEUTRALS))
            elif r < 0.95:
                words.append(pick(TOPICS[cls]))
            else:
                words.append(pick(rare))
        if rng.random() < 0.2:
            words.insert(int(rng.integers(len(words))), "$x_{i}$")
        return " ".join(words).capitalize() + "."

    def eq_block(cls: int, latex_list: list[str], env: str) -> str:
        t = [pick(TOPICS[cls]) for _ in range(6)]
        n = [pick(NEUTRALS) for _ in range(6)]
        g = [pick(pads) for _ in range(4)]
        if env == "align":
            rows = " \\\\\n".join(latex_list)
            body = f"\\begin{{align}}\n{rows}\n\\end{{align}}"
        elif env == "dollar":
            body = f"$$ {latex_list[0]} $$"
        elif env == "bracket":
            body = f"\\[ {latex_list[0]} \\]"
        else:
            body = f"\\begin{{{env}}}\n{latex_list[0]}\n\\end{{{env}}}"
        # Eight positions per side, mirrored: g t g t n n t n around the
        # equation (g = out-of-vocabulary padding).  Two held-out candidate
        # shapes result: the topic word two positions out sees only neutral
        # words, so the equation is its only class-bearing context, while
        # the neutral word next to the equation sees one topic word and
        # keeps the word-pass validation trace improving.  The deeper topic
        # words sit among gaps, hard to predict from words, feeding class
        # gradients to the equation's feature vector every epoch.
        left = f"{g[0]} {t[0]} {g[1]} {t[1]} {n[0]} {n[1]} {t[2]} {n[2]}"
        right = f"{n[3]} {t[3]} {n[4]} {n[5]} {t[4]} {g[2]} {t[5]} {g[3]}"
        return f"{left}\n{body}\n{right}."

    documents, doc_class = [], {}
    eq_cursor = {c: 0 for c in range(n_classes)}
    for d in range(n_docs):
        cls = d % n_classes
        parts = [
            "\\documentclass{article}",
            "\\begin{document}",
            f"\\section{{{FILLERS[d % len(FILLERS)].capitalize()}}}",
        ]
        blocks: list[str] = []
        pool = common[cls]
        picks = [pool[eq_cursor[cls] % len(pool)]]
        eq_cursor[cls] += 1
        env = env_cycle[d % len(env_cycle)]
        if env == "align":
            picks.append(pool[eq_cursor[cls] % len(pool)])
            eq_cursor[cls] += 1
        blocks.append(eq_block(cls, picks, env))
        if d % (3 * n_classes) == cls and singles[cls]:
            blocks.append(eq_block(cls, [singles[cls].pop(0)], "equation"))

        n_blocks = len(blocks)
        per_gap = max(1, sentences_per_doc // (n_blocks + 1))
        for b in range(n_blocks + 1):
            parts.extend(sentence(cls) for _ in range(per_gap))
            if b < n_blocks:
                parts.append(blocks[b])
        parts.append("\\end{document}")
        doc_id = f"doc{d:03d}"
        documents.append(RawDocument(doc_id, "\n".join(parts) + "\n"))
        doc_class[doc_id] = cls

    norm_eqs = {c: [normalize_equation(e) for e in eqs] for c, eqs in class_eqs.items()}
    eq_class = {latex: c for c, eqs in norm_eqs.items() for latex in eqs}
    return PlantedCorpus(documents, dict(TOPICS), norm_eqs, doc_class, eq_class)
