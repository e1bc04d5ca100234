"""Permuters: a graph and a partial permutation ``pp`` go in, a list of steps
comes out.

The contract every permuter keeps: ``permuter(graph, pp)`` returns a routing
of ``pp``.  Each step is a matching, vertex-disjoint edges of ``graph`` whose
swaps happen at once, and swapping along the steps in order brings every token
of ``pp`` to its destination; a vertex ``pp`` leaves unmapped holds no token
and may end anywhere.  ``pp`` is read, never moved.  A request on another
number of vertices than the graph's raises ValueError.  A permuter that cannot
route a graph raises NotImplementedError naming its kind, even for a request
that needs no step.  The test gate for this contract is
``tests/oracles.py::is_routing``, which replays the steps on the graph's edges
as its kind defines them.

:func:`route` is the parallel permuter, routing via matchings, which reads
blanks as ``None``; :func:`chain` is the naive chain's, one SWAP per step.
"""
from __future__ import annotations

from ..graphs import ArchitectureGraph, Edge
from ..perm import PartialPermutation


def route(graph: ArchitectureGraph, pp: PartialPermutation) -> list[list[Edge]]:
    """Route ``pp`` via matchings on a ``path`` or ``complete`` graph.

    The kind's router reads ``pp.forward``, blanks as ``None``, and never
    swaps two blanks or emits an empty step.  A path takes at most n steps, a
    complete graph its routing number (at most 2) with the fewest swaps.
    NotImplementedError on every other kind.
    """
    _check_size(graph, pp)
    router = _ROUTERS.get(graph.kind)
    if router is None:
        raise NotImplementedError(f"no router for {graph.kind} graphs")
    return router(pp.forward)


def _check_size(graph: ArchitectureGraph, pp: PartialPermutation) -> None:
    if pp.n != graph.n:
        raise ValueError(f"permutation on {pp.n} vertices, graph on {graph.n}")


def _odd_even(forward: list[int | None]) -> list[list[Edge]]:
    """Odd-even transposition sort of a path's tokens by destination
    (Habermann 1972): rounds alternate between the edges (i, i+1) of even and
    of odd i, swapping each pair out of order; at most n rounds.  The blanks
    take the unused destinations in ascending order, so no two are ever out
    of order with each other."""
    used = set(forward)
    free = iter(t for t in range(len(forward)) if t not in used)
    dest = [t if t is not None else next(free) for t in forward]
    steps, parity = [], 0
    while any(dest[i] > dest[i + 1] for i in range(len(dest) - 1)):
        step = [(i, i + 1) for i in range(parity, len(dest) - 1, 2) if dest[i] > dest[i + 1]]
        for i, j in step:
            dest[i], dest[j] = dest[j], dest[i]
        if step:
            steps.append(step)
        parity ^= 1
    return steps


def _reflections(forward: list[int | None]) -> list[list[Edge]]:
    """At most two steps on a complete graph.  A cycle c_0 -> c_1 -> ... ->
    c_(k-1), the token on c_i bound for c_(i+1), is the product of the
    reflections c_i <-> c_(-i) and then c_i <-> c_(1-i), indices mod k.
    Each chain (a token on a vertex no token is bound for, followed to its
    blank end) is closed into its own cycle; other blanks stay put.  A cycle
    then holds at most one blank, and both the steps and the swaps (a cycle's
    length - 1, a chain's token count) are the fewest possible."""
    bound = set(forward)
    dest = [v if t is None else t for v, t in enumerate(forward)]
    for start, t in enumerate(forward):
        if t is not None and start not in bound:
            while forward[t] is not None:
                t = forward[t]
            dest[t] = start
    first, second, seen = [], [], [False] * len(dest)
    for start in range(len(dest)):
        if seen[start]:
            continue
        cycle = [start]
        while dest[cycle[-1]] != start:
            cycle.append(dest[cycle[-1]])
        for v in cycle:
            seen[v] = True
        k = len(cycle)
        first += [(cycle[i], cycle[k - i]) for i in range(1, (k + 1) // 2)]
        second += [(cycle[i], cycle[(1 - i) % k]) for i in range(k) if i < (1 - i) % k]
    return [step for step in (first, second) if step]


_ROUTERS = {"path": _odd_even, "complete": _reflections}


def chain(graph: ArchitectureGraph, pp: PartialPermutation) -> list[list[Edge]]:
    """The naive chain's permuter, on any kind: the one token off its
    destination walks ``graph.shortest_path`` to it, one SWAP per step.

    It routes the requests the naive placer makes, in which a gate's first
    qubit walks to a neighbour of its partner.  ValueError for a request with
    more than one token off its destination, or whose walk would move
    another token.
    """
    _check_size(graph, pp)
    off = [v for v, t in enumerate(pp.forward) if t is not None and t != v]
    if not off:
        return []
    walk = graph.shortest_path(off[0], pp.forward[off[0]])
    if len(off) > 1 or any(pp.forward[v] is not None for v in walk[1:]):
        raise ValueError(f"the chain routes one token along a path of blanks; "
                         f"{len(off)} are off their destinations, the first on vertex {off[0]}")
    return [[(u, v)] for u, v in zip(walk, walk[1:])]
