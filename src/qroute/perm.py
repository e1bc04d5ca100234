"""Partial permutations over a fixed vertex set 0..n-1.

A partial permutation maps a subset of vertices injectively onto a subset of
vertices.  Entries are stored in a dense ``forward`` list where ``None`` marks
an unmapped vertex.  In the token picture, ``forward[v]`` is the destination
of the token currently sitting on vertex ``v`` (``None`` = no token).
"""
from __future__ import annotations

from typing import Iterable, Iterator


class PartialPermutation:
    """Injective partial self-map of ``{0, .., n-1}``."""

    __slots__ = ("n", "forward")

    def __init__(self, n: int, forward: Iterable[int | None] | None = None):
        self.n = n
        self.forward: list[int | None] = list(forward) if forward is not None else [None] * n
        if len(self.forward) != n:
            raise ValueError(f"forward has length {len(self.forward)}, expected {n}")
        seen = bytearray(n)  # indexed by target, so a non-integer one raises TypeError
        for t in self.forward:
            if t is None:
                continue
            try:
                if not (0 <= t < n):
                    raise ValueError(f"target {t} out of range [0, {n})")
                if seen[t]:
                    raise ValueError(f"target {t} repeated; mapping is not injective")
            except TypeError:
                raise ValueError(f"target {t!r} is not an integer") from None
            seen[t] = 1

    @classmethod
    def identity(cls, n: int) -> "PartialPermutation":
        return cls(n, list(range(n)))

    @classmethod
    def from_mapping(cls, n: int, mapping: dict[int, int]) -> "PartialPermutation":
        fwd: list[int | None] = [None] * n
        for s, t in mapping.items():
            try:
                if not (0 <= s < n):
                    raise ValueError(f"source {s} out of range [0, {n})")
                fwd[s] = t  # a list index, so a non-integer source raises TypeError
            except TypeError:
                raise ValueError(f"source {s!r} is not an integer") from None
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
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range [0, {self.n})")
        return self.forward[v]

    def items(self) -> Iterator[tuple[int, int]]:
        for s, t in enumerate(self.forward):
            if t is not None:
                yield s, t

    def dom(self) -> list[int]:
        return [s for s, t in enumerate(self.forward) if t is not None]

    def image(self) -> list[int]:
        return [t for t in self.forward if t is not None]

    def is_total(self) -> bool:
        return all(t is not None for t in self.forward)

    def is_resolved(self) -> bool:
        """True iff every mapped vertex already sits on its destination."""
        return all(t is None or t == s for s, t in enumerate(self.forward))

    def key(self) -> tuple[int | None, ...]:
        """Hashable snapshot, usable as a memoization key or set member."""
        return tuple(self.forward)

    def inverse(self) -> "PartialPermutation":
        fwd: list[int | None] = [None] * self.n
        for s, t in self.items():
            fwd[t] = s
        return PartialPermutation(self.n, fwd)

    def apply_swap(self, u: int, v: int) -> None:
        """Exchange the tokens on vertices ``u`` and ``v`` in place.

        An unmapped entry models "no token" and transfers as undefined.
        """
        if u == v:
            raise ValueError("swap endpoints must differ")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"swap ({u}, {v}) out of range [0, {self.n})")
        f = self.forward
        f[u], f[v] = f[v], f[u]

    def complete_arbitrary(self) -> "PartialPermutation":
        """Deterministic completion: unmapped sources in ascending order
        receive the unused targets in ascending order."""
        used = set(self.image())
        free = iter(t for t in range(self.n) if t not in used)
        fwd = [t if t is not None else next(free) for t in self.forward]
        return PartialPermutation(self.n, fwd)


def compose(f: PartialPermutation, g: PartialPermutation) -> PartialPermutation:
    """Return ``f after g``: defined at x iff x in dom(g) and g(x) in dom(f)."""
    if f.n != g.n:
        raise ValueError(f"size mismatch: {f.n} != {g.n}")
    fwd: list[int | None] = [None] * g.n
    for x, gx in g.items():
        fgx = f.forward[gx]
        if fgx is not None:
            fwd[x] = fgx
    return PartialPermutation(g.n, fwd)


def union(f: PartialPermutation, g: PartialPermutation) -> PartialPermutation:
    """Disjoint union of two partial permutations.

    Requires disjoint domains and disjoint images, which keeps the result
    injective.
    """
    if f.n != g.n:
        raise ValueError(f"size mismatch: {f.n} != {g.n}")
    fwd = list(f.forward)
    f_image = set(f.image())
    for s, t in g.items():
        if fwd[s] is not None:
            raise ValueError(f"domains intersect at {s}")
        if t in f_image:
            raise ValueError(f"images intersect at {t}")
        fwd[s] = t
    return PartialPermutation(f.n, fwd)
