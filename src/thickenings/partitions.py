"""Integer partitions and dominant weights, as immutable exact values.

A partition is kept in canonical form: weakly decreasing, trailing zeros
stripped, so ``(3, 2, 1)`` and ``(3, 2, 1, 0, 0, 0)`` are the same value.
A dominant weight never normalizes: its length is semantic (it indexes a
Schur functor on a space of that dimension) and its entries may be negative.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Sequence

from .closed_forms import check_integer


class Partition:
    """Weakly decreasing sequence of nonnegative integers (a Young diagram).

    Indexing reads 0 past the last part, so ``p[i]`` behaves like the
    zero-padded sequence; ``len(p)`` is the number of nonzero parts.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        data = tuple(map(operator.index, parts))
        for a, b in zip(data, data[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing: {data}")
        if data and data[-1] < 0:
            raise ValueError(f"parts must be nonnegative: {data}")
        while data and data[-1] == 0:
            data = data[:-1]
        self._parts = data

    @property
    def parts(self) -> tuple[int, ...]:
        """Canonical parts, without trailing zeros."""
        return self._parts

    def __len__(self) -> int:
        return len(self._parts)

    def __getitem__(self, i: int) -> int:
        if not isinstance(i, int):
            raise TypeError("partition indices must be integers")
        if i < 0:
            raise IndexError("partition indices are nonnegative")
        return self._parts[i] if i < len(self._parts) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self._parts == other._parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)})"

    def __bool__(self) -> bool:
        return bool(self._parts)

    def pad(self, length: int) -> tuple[int, ...]:
        """Parts padded with zeros to the given length."""
        if length < len(self._parts):
            raise ValueError(f"cannot pad {self!r} to length {length}")
        return self._parts + (0,) * (length - len(self._parts))


def partitions_of(n: int, max_rows: int | None = None) -> Iterator[Partition]:
    """Yield every partition of n, optionally with at most max_rows parts."""
    check_integer("n", n, 0)
    if max_rows is not None:
        check_integer("max_rows", max_rows, 0)
    if n == 0:
        yield Partition()
        return
    rows = n if max_rows is None else max_rows

    def rec(remaining: int, max_part: int, rows_left: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        if rows_left == 0:
            return
        for p in range(min(max_part, remaining), 0, -1):
            for rest in rec(remaining - p, p, rows_left - 1):
                yield (p,) + rest

    for parts in rec(n, n, rows):
        yield Partition(parts)


class DominantWeight:
    """Weakly decreasing integer sequence of fixed positive length.

    Unlike a partition, entries may be negative and the length is preserved
    by every operation: (0, 0) and (0, 0, 0) index representations of
    different groups.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[int]):
        data = tuple(map(operator.index, entries))
        if not data:
            raise ValueError("a dominant weight needs at least one entry")
        for a, b in zip(data, data[1:]):
            if a < b:
                raise ValueError(f"entries must be weakly decreasing: {data}")
        self._entries = data

    @property
    def entries(self) -> tuple[int, ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, i: int) -> int:
        return self._entries[i]

    def __iter__(self) -> Iterator[int]:
        return iter(self._entries)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DominantWeight):
            return self._entries == other._entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("DominantWeight", self._entries))

    def __repr__(self) -> str:
        return f"DominantWeight({list(self._entries)})"

    def to_json(self) -> list[int]:
        return list(self._entries)


def _as_partition(x: Partition | Sequence[int]) -> Partition:
    return x if isinstance(x, Partition) else Partition(x)


def _as_weight(x: DominantWeight | Sequence[int]) -> DominantWeight:
    return x if isinstance(x, DominantWeight) else DominantWeight(x)
