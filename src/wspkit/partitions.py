"""Set partitions as restricted growth strings.

A partition of n positions is encoded by its restricted growth string:
position i holds the index of its block, blocks numbered in order of
their first position. This is the only partition encoding in wspkit.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Sequence


def growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """Yield all restricted growth strings of length n in lexicographic order.

    A restricted growth string a satisfies a[0] == 0 and
    a[i] <= max(a[:i]) + 1. Each string encodes one set partition of n
    items; the first string (all zeros) is the single-block partition and
    the last is the all-singletons partition.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    a = [0] * n
    # b[i] = max(a[:i]) + 1, the cap on a[i]; b[0] is unused
    b = [1] * n
    while True:
        yield tuple(a)
        i = n - 1
        while i > 0 and a[i] == b[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        cap = max(b[i], a[i] + 1)
        for j in range(i + 1, n):
            a[j] = 0
            b[j] = cap


def growth_string(labels: Sequence[Hashable]) -> tuple[int, ...]:
    """The restricted growth string of a labelling: each label becomes the
    number of distinct labels seen before its first occurrence."""
    names: dict[Hashable, int] = {}
    return tuple(names.setdefault(x, len(names)) for x in labels)


def blocks(code: Sequence[int]) -> list[list[int]]:
    """The blocks of a growth string as lists of positions (0-based), in
    order of each block's first position."""
    out: list[list[int]] = []
    for i, which in enumerate(code):
        if which == len(out):
            out.append([])
        out[which].append(i)
    return out
