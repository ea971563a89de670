"""Synthetic article generator with planted topic/equation structure.

Documents come in classes; each class owns a disjoint topic-word set and a
pool of structurally related equations.  Topic words co-occur only with
their class's equations, so a trained model should cluster equations by
class and rank topic words highest for them.

Two word pools are deliberately uninformative about class: a block of very
frequent filler words is sacrificial (it occupies the corpus frequency stop
list, keeping the effective vocabulary small), and a pool of *neutral*
words appears uniformly in every class.  Each equation is flanked by
neutral words with a single topic word two positions away on each side, so
for a held-out word near an equation the equation itself is the only
class-bearing context item.
"""

import os
from dataclasses import dataclass, field

from .draws import Draws
from .tex import RawDocument, normalize_equation

FILLERS = (
    "model data method results approach paper based using given number "
    "section work case time order problem different present terms consider "
    "example form note defined general"
).split()

NEUTRALS = (
    "value values measure measures quantity term factor variable variables "
    "expression component components element elements property properties "
    "relation definition notation symbol mapping index coefficient scalar "
    "argument operand identity instance object structure"
).split()

TOPICS = {
    0: (
        "probability distribution posterior prior likelihood bayesian "
        "inference latent topics dirichlet sampling marginal variational "
        "conditional density mixture entropy divergence generative stochastic"
    ).split(),
    1: (
        "angle rotation sinusoid frequency amplitude phase oscillation "
        "waveform spectrum fourier harmonic periodic geometry circle radius "
        "curvature wavelength resonance signal trigonometric"
    ).split(),
    2: (
        "matrix matrices eigenvalue eigenvector decomposition factorization "
        "orthogonal projection subspace rank singular transpose determinant "
        "inverse linear basis norm sparse symmetric spectral"
    ).split(),
    3: (
        "gradient derivative integral convergence optimization minimize "
        "objective constraint convex descent stepsize continuous "
        "differentiable bounded lipschitz stationary saddle momentum "
        "regularization iterates"
    ).split(),
}

_SPRINKLE_STOPWORDS = "the of and with for that this from which when".split()

# Index letters are per class so spurious cross-class unit sharing stays low;
# pairs reuse the class's four letters, which strengthens within-class sharing.
_LETTERS = {0: "ijkl", 1: "pqrs", 2: "cdeg", 3: "vhoz"}
_PAIRS = [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]
_CONST = ["2", "3", "4", "5", "6", "7"]


def _class_equations(cls: int) -> list[str]:
    letters = _LETTERS[cls]
    eqs = []
    for v in range(6):
        a, b = letters[_PAIRS[v][0]], letters[_PAIRS[v][1]]
        c = _CONST[v]
        if cls == 0:
            eqs += [
                rf"\pi_{{{a}}} = \frac{{\theta_{{{a}}}}}{{z_{{{b}}}}}",
                rf"p(z_{{{a}}}) = \theta_{{{a}}} \theta_{{{b}}}",
                rf"\log p_{{{a}}} = \sum_{{{b}}} \theta_{{{b}}}",
                rf"q_{{{a}}} = \prod_{{{b}}} \theta_{{{b}}}^{{{c}}}",
            ]
        elif cls == 1:
            eqs += [
                rf"y_{{{a}}} = \cos \omega_{{{b}}} t",
                rf"z_{{{a}}} = \sin \omega_{{{b}}} t",
                rf"T_{{{a}}} = \frac{{{c} \pi}}{{\omega_{{{b}}}}}",
                rf"\sin^{{{c}}} \phi_{{{a}}} + \cos^{{{c}}} \phi_{{{b}}}",
            ]
        elif cls == 2:
            eqs += [
                rf"A v_{{{a}}} = \lambda_{{{b}}} v_{{{a}}}",
                rf"M_{{{a}}} = U \Sigma_{{{b}}} V^{{T}}",
                rf"\|A_{{{a}}}\|^{{{c}}} = \lambda_{{{a}}} + \lambda_{{{b}}}",
                rf"B_{{{a}{b}}} = A_{{{b}{a}}}^{{T}}",
            ]
        else:
            eqs += [
                rf"x_{{{a}}} = x_{{{b}}} - \eta \nabla f_{{{a}}}",
                rf"F_{{{a}}} = \int_{{0}}^{{T}} f_{{{b}}} \, dt",
                rf"g_{{{a}}} = \nabla f_{{{a}}} + \beta g_{{{b}}}",
                rf"f(y_{{{a}}}) \geq \nabla f(x_{{{b}}})^{{{c}}}",
            ]
    return eqs


_SYLLABLES = "bel dor fen gra hul jin kap lum mon nar ost pra quil ros tav urn vish wex yor zan".split()


def _rare_words():
    return [h + t for h in _SYLLABLES for t in _SYLLABLES]


def _pad_words():
    # three-syllable forms: a large pool of out-of-vocabulary padding that
    # never reaches the frequency threshold
    return [a + b + c for a in _SYLLABLES for b in _SYLLABLES[:10] for c in _SYLLABLES[10:]]


@dataclass
class PlantedCorpus:
    documents: list[RawDocument]
    topics: dict[int, list[str]]
    class_equations: dict[int, list[str]]  # normalized latex
    doc_class: dict[str, int]
    eq_class: dict[str, int] = field(default_factory=dict)  # normalized latex -> class

    def class_of_latex(self, latex: str) -> int:
        return self.eq_class[normalize_equation(latex)]


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
    if n_docs < 0:
        raise ValueError("n_docs must be at least 0")
    if sentences_per_doc < 1:
        raise ValueError("sentences_per_doc must be at least 1")
    rng = Draws(seed)
    rare = _rare_words()
    pads = _pad_words()
    class_eqs = {c: _class_equations(c) for c in range(n_classes)}
    common = {c: eqs[:20] for c, eqs in class_eqs.items()}
    singles = {c: list(eqs[20:]) for c, eqs in class_eqs.items()}
    env_cycle = ["equation", "dollar", "bracket", "equation*", "align"]

    def pick(pool):
        return pool[rng.integers(len(pool))]

    def sentence(cls: int) -> str:
        n = 6 + rng.integers(5)
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
            words.insert(rng.integers(len(words)), "$x_{i}$")
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


def write_corpus(pc: PlantedCorpus, directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    for doc in pc.documents:
        with open(os.path.join(directory, doc.doc_id + ".tex"), "w", encoding="utf-8") as f:
            f.write(doc.source_text)
    return directory
