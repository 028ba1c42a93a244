"""Set partition enumeration via restricted growth strings."""

from __future__ import annotations

from typing import Iterator, Sequence, TypeVar

T = TypeVar("T")


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


def set_partitions(items: Sequence[T]) -> Iterator[tuple[tuple[T, ...], ...]]:
    """Yield all partitions of items, blocks ordered by first occurrence.

    Enumeration order is the lexicographic order of the underlying
    restricted growth strings, which makes the order deterministic and
    canonical for a given item sequence.
    """
    items = list(items)
    for code in growth_strings(len(items)):
        nblocks = max(code, default=-1) + 1
        blocks: list[list[T]] = [[] for _ in range(nblocks)]
        for item, which in zip(items, code):
            blocks[which].append(item)
        yield tuple(tuple(b) for b in blocks)
