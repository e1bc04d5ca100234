"""Permuters: a graph and a partial permutation ``pp`` go in, a list of steps
comes out.  Each step is a matching, vertex-disjoint edges whose swaps happen
at once.  :func:`check_routing` is the only replay of a routing; ``pp`` itself
is never moved."""
from __future__ import annotations

from collections.abc import Sequence

from ..graphs import ArchitectureGraph, Edge
from ..perm import PartialPermutation, read_vertex


def check_routing(graph: ArchitectureGraph, pp: PartialPermutation,
                  steps: Sequence[Sequence[Edge]]) -> None:
    """Raise ValueError unless ``steps`` is a routing of ``pp`` on ``graph``: each
    step is vertex-disjoint graph edges, and swapping along the steps in order
    brings every token home.  The error names the first bad step or stray token."""
    if pp.n != graph.n:
        raise ValueError(f"permutation on {pp.n} vertices, graph on {graph.n}")
    n, dist, tokens = graph.n, graph.distances(), list(pp.forward)
    for i, step in enumerate(steps):
        used: set[int] = set()
        what = f"step {i}: vertex"
        for u, v in step:
            u, v = read_vertex(u, n, what), read_vertex(v, n, what)
            if dist[u, v] != 1:
                raise ValueError(f"step {i}: ({u}, {v}) is not an edge")
            if u in used or v in used:
                raise ValueError(f"step {i}: vertex {u if u in used else v} is swapped twice")
            used.update((u, v))
            tokens[u], tokens[v] = tokens[v], tokens[u]
    if off := [v for v, t in enumerate(tokens) if t is not None and t != v]:
        raise ValueError(f"{len(steps)} steps leave {len(off)} tokens unresolved: "
                         f"vertex {off[0]} holds the token for {tokens[off[0]]}")
