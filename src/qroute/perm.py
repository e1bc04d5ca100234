"""Partial permutations over a fixed vertex set 0..n-1.

A partial permutation maps a subset of vertices injectively onto a subset of
vertices.  Entries are stored in a dense ``forward`` list where ``None`` marks
an unmapped vertex.  In the token picture, ``forward[v]`` is the destination
of the token currently sitting on vertex ``v`` (``None`` = no token).
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
    """Injective partial self-map of ``{0, .., n-1}``."""

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

    def copy(self) -> "PartialPermutation":
        return PartialPermutation(self.n, self.forward)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PartialPermutation)
                and self.n == other.n and self.forward == other.forward)

    # Mutable (see apply_swap), so unhashable; key() is the hashable view.
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

    def image(self) -> list[int]:
        return [t for t in self.forward if t is not None]

    def is_resolved(self) -> bool:
        """True iff every mapped vertex already sits on its destination."""
        return all(t is None or t == s for s, t in enumerate(self.forward))

    def key(self) -> tuple[int | None, ...]:
        """Hashable snapshot, usable as a memoization key or set member."""
        return tuple(self.forward)

    def apply_swap(self, u: int, v: int) -> None:
        """Exchange the tokens on vertices ``u`` and ``v`` in place.

        An unmapped entry models "no token" and transfers as undefined.
        """
        u, v = read_vertex(u, self.n), read_vertex(v, self.n)
        if u == v:
            raise ValueError("swap endpoints must differ")
        f = self.forward
        f[u], f[v] = f[v], f[u]

    def complete_arbitrary(self) -> "PartialPermutation":
        """Deterministic completion: unmapped sources in ascending order
        receive the unused targets in ascending order."""
        used = set(self.image())
        free = iter(t for t in range(self.n) if t not in used)
        fwd = [t if t is not None else next(free) for t in self.forward]
        return PartialPermutation(self.n, fwd)

