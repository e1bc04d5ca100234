"""Placers: where the two-qubit gates of a layer meet.

A placer is called once per graph, ``placer(graph)``, and returns
``place(at, pairs)``.  ``at[q]`` is the vertex logical qubit q stands on, and
``pairs`` holds the qubit pairs of the two-qubit gates left in the layer, in
ascending gate index.  ``place`` returns ``{i: (x, y)}`` for the gates it
places, in ascending ``i``: gate ``pairs[i]`` is to run on the edge (x, y),
its first qubit on x.  It places at least one gate, and the gates it leaves
out are deferred to another round of the same layer.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from .graphs import ArchitectureGraph, Edge
from .matching import maximal_matching, min_weight_perfect_matching

Place = Callable[[Sequence[int], Sequence[tuple[int, int]]], dict[int, Edge]]


def matching_placer(graph: ArchitectureGraph) -> Place:
    """The parallel placer: gates take slots, the edges of ``maximal_matching(graph)``.

    A gate costs, per slot, the hop distances its qubits travel to the slot's
    ends in the cheaper orientation, straight or crossed (a tie goes
    straight).  The first gates, as many as there are slots, take the
    lex-min min-weight matching of gates to slots over every slot; any gate
    left over is deferred.
    """
    d = graph.distances()
    x, y = np.array(maximal_matching(graph), dtype=np.intp).reshape(-1, 2).T

    def place(at: Sequence[int], pairs: Sequence[tuple[int, int]]) -> dict[int, Edge]:
        a, b = np.array([(at[p], at[q]) for p, q in pairs[:len(x)]], dtype=np.intp).T
        straight = d[np.ix_(a, x)] + d[np.ix_(b, y)]
        crossed = d[np.ix_(a, y)] + d[np.ix_(b, x)]
        placed = {}
        for i, j in min_weight_perfect_matching(np.minimum(straight, crossed)):
            u, v = int(x[j]), int(y[j])
            placed[i] = (u, v) if straight[i, j] <= crossed[i, j] else (v, u)
        return placed

    return place


def naive_placer(graph: ArchitectureGraph) -> Place:
    """The naive chain's placer, on any kind.  If some gates left stand on an
    edge, it places all of them where they stand; otherwise it places the
    first gate alone, with its first qubit on the lowest-index neighbour of
    its partner's vertex that is one hop closer to it."""
    d = graph.distances()

    def place(at: Sequence[int], pairs: Sequence[tuple[int, int]]) -> dict[int, Edge]:
        placed = {i: (at[p], at[q]) for i, (p, q) in enumerate(pairs) if d[at[p], at[q]] == 1}
        if not placed:
            u, v = at[pairs[0][0]], at[pairs[0][1]]
            placed[0] = (int(np.flatnonzero((d[v] == 1) & (d[u] == d[u, v] - 1))[0]), v)
        return placed

    return place
