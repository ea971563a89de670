"""Random draws read from the raw PCG64 stream.

``Draws(seed)`` gives the values that ``np.random.Generator(PCG64(seed))``
gives for ``random()``, ``integers(n)``, ``integers(n, size)`` and
``choice(n, size, replace=False)``, in any interleaving, but reads nothing
of numpy's but ``PCG64.random_raw``.  NEP 19 keeps bit-generator streams
stable across numpy releases, not ``Generator``'s methods, so these draws
do not move when numpy changes how ``Generator`` makes them.

``random()`` is the top 53 bits of a raw word scaled to [0, 1).  A draw
from [0, n), 1 <= n <= 2**32, is Lemire's bounded draw (arXiv 1805.10941)
on a 32-bit half: the high 32 bits of ``half * n``, unless its low 32 bits
fall below ``2**32 % n``, when the half is rejected and the next one tried.
A fresh word gives its low half and keeps its high half for the next half
draw, which ``random()`` leaves alone; ``n == 1`` draws nothing.
"""

import numpy as np

_LOW = 0xFFFFFFFF
_NO_MAP: tuple[int, list[int], list[int]] = (0, [], [])


def doubles(bits: np.random.PCG64, n: int) -> np.ndarray:
    """``Generator(bits).random(n)``, read from ``bits.random_raw``."""
    return (bits.random_raw(n) >> 11) * 2.0**-53


class Draws:
    """A cursor over ``PCG64(seed)``'s raw words, read in blocks of
    ``BLOCK`` words, and the high half kept from the last word split."""

    BLOCK = 4096

    def __init__(self, seed: int):
        self._bits = np.random.PCG64(seed)
        self._block = np.empty(0, dtype=np.uint64)
        self._list: list[int] = []  # the block as ints
        self._words = iter(self._list)  # the cursor
        self._next = self._words.__next__
        self._high = -1  # the kept high half, -1 if none
        # (n, each half of the block mapped to [0, n), the halves Lemire's check rejects)
        self._map = _NO_MAP

    def _word(self) -> int:
        try:
            return self._next()
        except StopIteration:
            self._block = self._bits.random_raw(self.BLOCK)
            self._list = self._block.tolist()
            self._words = iter(self._list)
            self._next = self._words.__next__
            self._map = _NO_MAP
            return self._next()

    def _half(self) -> int:
        if self._high >= 0:
            half, self._high = self._high, -1
            return half
        word = self._word()
        self._high = word >> 32
        return word & _LOW

    def random(self) -> float:
        """``Generator.random()``."""
        return (self._word() >> 11) * 2.0**-53

    def integers(self, n: int, size: int | None = None):
        """``Generator.integers(n)`` for 1 <= n <= 2**32, or with ``size``
        a list of the values ``Generator.integers(n, size=size)`` gives."""
        if size is not None:
            return self._block_of_integers(n, size)
        if n <= 1:
            if n == 1:
                return 0
            raise ValueError(f"a bounded draw needs 1 <= n <= 2**32, got {n}")
        m = self._half() * n
        if m & _LOW < n:  # maybe in the biased low part, or n out of range
            if n > 1 << 32:
                raise ValueError(f"a bounded draw needs 1 <= n <= 2**32, got {n}")
            floor = (1 << 32) % n
            while m & _LOW < floor:
                m = self._half() * n
        return m >> 32

    def _block_of_integers(self, n: int, size: int) -> list[int]:
        """A kept half's value, then a slice of the block of raw words
        mapped to [0, n) by one numpy multiply, kept for later blocks from
        the same n.  Where a half may be rejected, or the block of raw
        words ends, the values are drawn one at a time."""
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"a bounded draw needs 1 <= n <= 2**32, got {n}")
        if n == 1 or size == 0:
            return [0] * size
        if self._map[0] != n:
            m = self._block.astype("<u8").view("<u4").astype(np.uint64) * np.uint64(n)
            self._map = (n, (m >> 32).tolist(), np.flatnonzero(m & _LOW < (1 << 32) % n).tolist())
        _, values, rejected = self._map
        kept = self._high
        at = 2 * (len(self._list) - self._words.__length_hint__())  # the next word's low half
        end = at + size - (kept >= 0)
        if (end > len(values) or kept >= 0 and kept * n & _LOW < n
                or rejected and any(at <= r < end for r in rejected)):
            return [self.integers(n) for _ in range(size)]
        self._words.__setstate__((end + 1) // 2)
        self._high = self._list[end // 2] >> 32 if end % 2 else -1  # an odd end splits a word
        return [kept * n >> 32] + values[at:end] if kept >= 0 else values[at:end]

    def choice(self, n: int, size: int) -> list[int]:
        """``Generator.choice(n, size, replace=False)`` as a list, for
        0 <= size <= n <= 2**32.

        Floyd's algorithm, then a Fisher-Yates shuffle of the sample; or,
        when n > 10000 and size > n // 50, the last ``size`` entries of
        range(n) after the last ``size`` steps of a Fisher-Yates shuffle
        (at most n - 1), its swaps kept in a dict."""
        if not 0 <= size <= n <= 1 << 32:
            raise ValueError(f"choice needs 0 <= size <= n <= 2**32, got n={n}, size={size}")
        if n > 10000 and size > n // 50:
            swapped: dict[int, int] = {}
            for i in range(n - 1, max(n - size, 1) - 1, -1):
                j = self.integers(i + 1)
                swapped[i], swapped[j] = swapped.get(j, j), swapped.get(i, i)
            return [swapped.get(i, i) for i in range(n - size, n)]
        out, seen = [], set()
        for j in range(n - size, n):
            v = self.integers(j + 1)
            v = j if v in seen else v
            seen.add(v)
            out.append(v)
        for i in range(size - 1, 0, -1):
            j = self.integers(i + 1)
            out[i], out[j] = out[j], out[i]
        return out
