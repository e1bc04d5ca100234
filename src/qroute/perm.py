"""Partial permutations over a fixed vertex set 0..n-1: routing requests.

A partial permutation maps a subset of vertices injectively onto a subset of
vertices, stored in a dense ``forward`` list where ``None`` marks an unmapped
vertex: ``forward[v]`` is the destination of the token on vertex ``v``.  It is
read, never moved: a router swaps tokens in its own copy of ``forward``.
"""
from __future__ import annotations

from operator import index
from typing import Iterable, Iterator


def read_count(n: int) -> int:
    """A vertex count read through ``operator.index``; ValueError unless it is an int >= 0."""
    try:
        n = index(n)
    except TypeError:
        raise ValueError(f"vertex count {n!r} is not an integer") from None
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    return n


def read_vertex(v: int, n: int, what: str = "vertex") -> int:
    """A vertex of ``{0, .., n-1}`` read through ``operator.index`` (``True``
    is vertex 1); ValueError naming it as ``what`` for 1.5, ``'2'`` or -1."""
    try:
        v = index(v)
    except TypeError:
        raise ValueError(f"{what} {v!r} is not an integer") from None
    if not 0 <= v < n:
        raise ValueError(f"{what} {v} out of range [0, {n})")
    return v


class PartialPermutation:
    """Injective partial self-map of ``{0, .., n-1}``; a router reads it, never moves it."""

    __slots__ = ("n", "forward")

    def __init__(self, n: int, forward: Iterable[int | None] | None = None):
        self.n = n = read_count(n)
        self.forward: list[int | None] = list(forward) if forward is not None else [None] * n
        if len(self.forward) != n:
            raise ValueError(f"forward has length {len(self.forward)}, expected {n}")
        seen = bytearray(n)
        for t in self.forward:
            if t is not None:
                t = read_vertex(t, n, "target")
                if seen[t]:
                    raise ValueError(f"target {t} repeated; mapping is not injective")
                seen[t] = 1

    @classmethod
    def from_mapping(cls, n: int, mapping: dict[int, int]) -> "PartialPermutation":
        fwd: list[int | None] = [None] * read_count(n)
        for s, t in mapping.items():
            fwd[read_vertex(s, n, "source")] = t
        return cls(n, fwd)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PartialPermutation)
                and self.n == other.n and self.forward == other.forward)

    # forward is a public list compared by value, so unhashable; key() is the hashable view.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        pairs = ", ".join(f"{s}->{t}" for s, t in self.items())
        return f"PartialPermutation(n={self.n}, {{{pairs}}})"

    def __call__(self, v: int) -> int | None:
        """Target of vertex v (None if unmapped); v is read by :func:`read_vertex`."""
        return self.forward[read_vertex(v, self.n)]

    def items(self) -> Iterator[tuple[int, int]]:
        for s, t in enumerate(self.forward):
            if t is not None:
                yield s, t

    def dom(self) -> list[int]:
        return [s for s, t in enumerate(self.forward) if t is not None]

    def key(self) -> tuple[int | None, ...]:
        """Hashable snapshot, usable as a memoization key or set member."""
        return tuple(self.forward)

    def complete_arbitrary(self) -> "PartialPermutation":
        """Deterministic completion: unmapped sources in ascending order
        receive the unused targets in ascending order."""
        used = set(self.forward)
        free = iter(t for t in range(self.n) if t not in used)
        fwd = [t if t is not None else next(free) for t in self.forward]
        return PartialPermutation(self.n, fwd)

