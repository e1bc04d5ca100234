"""Permuters: route a partial permutation on a graph by swap steps.

A routing is a list of steps.  Each step is a matching of the graph, a list
of vertex-disjoint edges whose swaps happen at once.
"""
from __future__ import annotations

from collections.abc import Sequence

from ..graphs import ArchitectureGraph, Edge
from ..perm import PartialPermutation


def check_routing(graph: ArchitectureGraph, pp: PartialPermutation,
                  steps: Sequence[Sequence[Edge]]) -> None:
    """Raise ValueError unless ``steps`` is a routing of ``pp`` on ``graph``.

    Every step must be vertex-disjoint edges of the graph, and swapping
    along the steps in order must bring every token to its destination.
    The error names the first bad step; ``pp`` itself is left unchanged.
    """
    if pp.n != graph.n:
        raise ValueError(f"permutation on {pp.n} vertices, graph on {graph.n}")
    tokens = pp.copy()
    for i, step in enumerate(steps):
        used: set[int] = set()
        for u, v in step:
            if not graph.has_edge(u, v):
                raise ValueError(f"step {i}: ({u}, {v}) is not an edge")
            if u in used or v in used:
                raise ValueError(f"step {i}: vertex {u if u in used else v} is swapped twice")
            used.update((u, v))
            tokens.apply_swap(u, v)
    if not tokens.is_resolved():
        raise ValueError(f"{len(steps)} steps leave {tokens} unresolved")
