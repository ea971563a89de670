"""Reference held-out sampler: ``build_heldout`` with each equation's
candidate pool built by a loop over its occurrences, kept as a test oracle.

It walks every equation position of every stream and, per position, every
word position of its window, deduplicating per equation in first-seen
order, and builds every item's context by a loop over its window.
``eqvec.corpus.build_heldout`` builds the same pools and contexts with
array operations and must return equal items (as ``conftest.Item``
records) and skip counts.
"""

import numpy as np

from eqvec.corpus import EQ_TAG, GAP, TokenStream, _draw_excluding

from .conftest import Item


def equation_id(code) -> int:
    return int(code) & ~int(EQ_TAG)


def _window_word_positions(codes: np.ndarray, p: int, half: int):
    lo, hi = max(0, p - half), min(len(codes), p + half + 1)
    return [q for q in range(lo, hi) if q != p and int(codes[q]) < int(EQ_TAG)]


def build_heldout(
    streams: list[TokenStream],
    n_words: int,
    per_equation: int = 2,
    context_window: int = 4,
    n_negatives: int = 10,
    seed: int = 0,
):
    """Sample per-equation held-out words for validation and test.

    For each equation, ``per_equation`` in-window word positions go to each
    split.  An item's context is the nearest ``context_window - 1``
    in-vocabulary words around the target plus the equation itself;
    negatives are drawn uniformly over the word vocabulary excluding the
    target.  Equations with fewer than ``2 * per_equation`` candidate
    positions are skipped and counted.

    Returns ``(validation, test, n_skipped)``.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    half = context_window // 2
    pools: dict[int, list[tuple[int, int]]] = {}
    seen: dict[int, set] = {}
    for si, stream in enumerate(streams):
        codes = stream.codes
        for p in np.flatnonzero((codes != GAP) & (codes >= EQ_TAG)):
            gid = equation_id(codes[p])
            pool = pools.setdefault(gid, [])
            taken = seen.setdefault(gid, set())
            for q in _window_word_positions(codes, int(p), half):
                if (si, q) not in taken:
                    taken.add((si, q))
                    pool.append((si, q))

    valid: list[Item] = []
    test: list[Item] = []
    skipped = 0
    need = 2 * per_equation
    for gid in sorted(pools):
        pool = pools[gid]
        if len(pool) < need:
            skipped += 1
            continue
        chosen = rng.choice(len(pool), size=need, replace=False)
        for rank, ci in enumerate(chosen):
            si, p = pool[int(ci)]
            codes = streams[si].codes
            target = int(codes[p])
            nearby = [
                q
                for q in _window_word_positions(codes, p, half)
                if int(codes[q]) != target
            ]
            nearby.sort(key=lambda q: (abs(q - p), q))
            ctx_pos = sorted(nearby[: context_window - 1])
            context = [("word", int(codes[q])) for q in ctx_pos]
            context.append(("eq", gid))
            negatives = _draw_excluding(rng, n_words, n_negatives, target)
            item = Item(target, context, negatives, si, p, gid)
            (valid if rank < per_equation else test).append(item)
    return valid, test, skipped
