"""Partial permutations over a fixed vertex set 0..n-1: routing requests.

A partial permutation maps a subset of vertices injectively onto a subset of
vertices, stored in a dense ``forward`` list where ``None`` marks an unmapped
vertex: ``forward[v]`` is the int destination of the token on vertex ``v``.
It is read, never moved: a router swaps tokens in its own copy of ``forward``.
"""
from __future__ import annotations

from operator import index
from typing import Iterable, Iterator


def read_count(n: int, what: str = "vertex count") -> int:
    """``n`` read through ``operator.index``; ValueError naming it ``what`` unless an int >= 0."""
    try:
        n = index(n)
    except TypeError:
        raise ValueError(f"{what} {n!r} is not an integer") from None
    if n < 0:
        raise ValueError(f"{what} must be non-negative")
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
        seen, cast = bytearray(n), False
        for t in self.forward:
            if t is not None:
                v = read_vertex(t, n, "target")
                if seen[v]:
                    raise ValueError(f"target {v} repeated; mapping is not injective")
                seen[v] = 1
                cast = cast or v is not t
        if cast:  # an entry such as True or np.int64(2) is held as the int it reads as
            self.forward = [t if t is None else index(t) for t in self.forward]

    @classmethod
    def from_mapping(cls, n: int, mapping: dict[int, int]) -> "PartialPermutation":
        """The request that sends vertex ``s`` to ``mapping[s]``, the rest blank.

        Costs O(n) for the ``forward`` list and O(len(mapping)) for the
        checks: each source and target is read once by :func:`read_vertex`,
        and injectivity is checked over the targets given.  Errors are those
        of the constructor on the filled list, in its order: sources before
        targets, and targets in ascending source order.
        """
        n = read_count(n)
        sources = [read_vertex(s, n, "source") for s in mapping]
        forward: list[int | None] = [None] * n
        try:
            targets = [read_vertex(t, n, "target") for t in mapping.values()]
        except ValueError:
            targets = []
        if len(set(targets)) < len(mapping):  # the constructor names the first fault
            for s, t in zip(sources, mapping.values()):
                forward[s] = t
            return cls(n, forward)
        for s, t in zip(sources, targets):
            forward[s] = t
        request = cls.__new__(cls)
        request.n, request.forward = n, forward
        return request

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
