"""Integer partitions and dominant weights, as validated tuples.

Both are ``tuple`` subclasses whose constructor checks one invariant, so
they index, iterate, compare, hash and serialize as the plain tuple of
their entries. A partition is kept in canonical form: weakly decreasing,
trailing zeros stripped, so ``(3, 2, 1)`` and ``(3, 2, 1, 0, 0, 0)`` are
the same value. A dominant weight never normalizes: its length is semantic
(it indexes a Schur functor on a space of that dimension) and its entries
may be negative.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence


def _integers(xs: Iterable[int]) -> tuple[int, ...]:
    """The entries as ints: ``TypeError`` for a bool or a non-integer."""
    data = tuple(xs)
    if bool in map(type, data):
        raise TypeError(f"entries must be integers, not bools: {data}")
    return tuple(map(operator.index, data))


class Partition(tuple):
    """Weakly decreasing tuple of nonnegative integers (a Young diagram).

    ``len(p)`` is the number of nonzero parts.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        data = _integers(parts)
        end = len(data)
        while end and data[end - 1] == 0:
            end -= 1
        return super().__new__(cls, data[:end])

    def __init__(self, parts: Iterable[int] = ()):
        if not all(map(operator.ge, self, self[1:])):
            raise ValueError(f"parts must be weakly decreasing: {tuple(self)}")
        if self and self[-1] < 0:
            raise ValueError(f"parts must be nonnegative: {tuple(self)}")

    def __repr__(self) -> str:
        return f"Partition({list(self)})"


class DominantWeight(tuple):
    """Weakly decreasing tuple of integers of fixed positive length.

    Unlike a partition, entries may be negative and the length is preserved:
    (0, 0) and (0, 0, 0) index representations of different groups.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[int]):
        return super().__new__(cls, _integers(entries))

    def __init__(self, entries: Iterable[int]):
        if not self:
            raise ValueError("a dominant weight needs at least one entry")
        if not all(map(operator.ge, self, self[1:])):
            raise ValueError(f"entries must be weakly decreasing: {tuple(self)}")

    def __repr__(self) -> str:
        return f"DominantWeight({list(self)})"


def _as_partition(x: Partition | Sequence[int]) -> Partition:
    return x if isinstance(x, Partition) else Partition(x)


def _as_weight(x: DominantWeight | Sequence[int]) -> DominantWeight:
    return x if isinstance(x, DominantWeight) else DominantWeight(x)
