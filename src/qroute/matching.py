"""Matching algorithms: greedy maximal and min-weight perfect bipartite.

All routines are deterministic: edge iteration follows sorted order and ties
in the assignment problem are broken toward the lexicographically smallest
matched edge set.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import deque
from collections.abc import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .graphs import ArchitectureGraph, Edge

# Endpoints are read as floats so that a fractional one can be rejected
# rather than truncated.
_TRIPLE = np.dtype([("l", np.float64), ("r", np.float64), ("w", np.float64)])


class WeightedBipartiteGraph:
    """Bipartite multigraph with real edge weights, held as a cost matrix.

    Edges are (left, right, weight) triples; parallel edges are allowed.
    ``cost`` is a float64 array of shape (n_left, n_right) whose entry
    [l, r] is the cheapest weight of an edge from l to r, or inf where
    there is none.  Each edge must be a 3-item sequence, side counts
    non-negative, endpoints integers in range and weights finite; a
    ValueError names the first edge that is not.
    """

    def __init__(self, n_left: int, n_right: int,
                 edges: Sequence[tuple[int, int, float]] = ()):
        if n_left < 0 or n_right < 0:
            raise ValueError(f"negative side count: n_left={n_left}, n_right={n_right}")
        self.n_left = n_left
        self.n_right = n_right
        edges = edges or ()
        triples = np.fromiter(edges, _TRIPLE, len(edges))
        left, right, weight = triples["l"], triples["r"], triples["w"]
        fractional = (left != np.floor(left)) | (right != np.floor(right))
        outside = ~((0 <= left) & (left < n_left) & (0 <= right) & (right < n_right))
        infinite = ~np.isfinite(weight)
        # The decode reads a bare number x as the triple (x, x, x), so rows of
        # that form are unpacked too; a valid list has few.
        suspect = fractional | outside | infinite | ((left == right) & (right == weight))
        if suspect.any():
            for i in np.flatnonzero(suspect).tolist():
                try:
                    l, r, w = edges[i]
                except (TypeError, ValueError):
                    raise ValueError(f"edge {edges[i]!r} is not a (left, right, weight) "
                                     "triple") from None
                if fractional[i]:
                    raise ValueError(f"edge ({l}, {r}) has a non-integer endpoint")
                if outside[i]:
                    raise ValueError(f"edge ({l}, {r}) out of range")
                if infinite[i]:
                    raise ValueError(f"edge weight {w} is not finite")
        self.cost = np.full((n_left, n_right), np.inf)
        # Of parallel edges, the cheapest is kept.
        np.minimum.at(self.cost, (left.astype(np.intp), right.astype(np.intp)), weight)


def maximal_matching(g: ArchitectureGraph) -> list[Edge]:
    """Greedy maximal matching over lexicographically sorted edges."""
    used: set[int] = set()
    matching: list[Edge] = []
    for u, v in sorted(g.edges):
        if u in used or v in used:
            continue
        matching.append((u, v))
        used.add(u)
        used.add(v)
    return matching


def _tight_edges(cost: np.ndarray, cols: list[int]) -> np.ndarray:
    """Edges of zero reduced cost under optimal duals for the optimum cols.

    Column potentials v are shortest distances over edges cols[r] -> c of
    weight cost[r, c] - cost[r, cols[r]], which have no negative cycle as cols
    is optimal; row potentials are u[r] = cost[r, cols[r]] - v[cols[r]].
    """
    n = len(cols)
    assigned = cost[np.arange(n), cols]
    step = cost - assigned[:, None]
    v = np.zeros(n)
    for _ in range(n):
        relaxed = np.minimum(v, (v[cols][:, None] + step).min(axis=0))
        if np.array_equal(relaxed, v):
            break
        v = relaxed
    u = assigned - v[cols]
    tol = 1e-9 * max(1.0, float(abs(cost[np.isfinite(cost)]).max()))
    return cost - u[:, None] - v[None, :] <= tol


def min_weight_perfect_matching(b: WeightedBipartiteGraph) -> list[tuple[int, int]]:
    """Minimum-weight perfect matching on a bipartite (multi)graph.

    Negative weights are permitted; an inf entry of ``b.cost`` is a forbidden
    edge.  Among equal-weight optima the lexicographically smallest edge set
    is returned.  Raises ValueError when no perfect matching exists, which
    scipy's assignment solver detects itself.

    One assignment solve gives an optimum, and optimal duals recovered from
    it by Bellman-Ford mark the tight edges, those of zero reduced cost: the
    optimal matchings are exactly the perfect matchings of tight edges.  Rows
    are then fixed in order.  A row that holds its smallest tight column
    keeps it; otherwise a breadth-first search over tight edges of later rows
    finds every column the row can take by rotating an alternating cycle, and
    the row takes the smallest.  Reduced costs up to 1e-9 times
    max(1, largest |weight|) count as tight, so optima closer than that are
    ties.  Cost: one solve plus O(n^3).
    """
    if b.n_left != b.n_right:
        raise ValueError(f"sides differ: {b.n_left} != {b.n_right}")
    n = b.n_left
    if n == 0:
        return []
    cost = b.cost
    try:
        # Entries are finite or inf, so infeasibility is scipy's only ValueError.
        cols = linear_sum_assignment(cost)[1].tolist()  # rows come back as 0..n-1
    except ValueError:
        raise ValueError("no perfect matching exists") from None
    # The tight columns of each row and the tight rows of each column, ascending.
    tight_cols: list[list[int]] = [[] for _ in range(n)]
    tight_rows: list[list[int]] = [[] for _ in range(n)]
    r_idx, c_idx = np.nonzero(_tight_edges(cost, cols))
    for r, c in zip(r_idx.tolist(), c_idx.tolist()):
        tight_cols[r].append(c)
        tight_rows[c].append(r)
    for row in range(n):
        best = tight_cols[row][0]  # the smallest column worth reaching
        if cols[row] == best:
            continue
        # via[c] = (r, x): row r can move to column x, freeing c for row.
        via: dict[int, tuple[int, int] | None] = {cols[row]: None}
        queue = deque(via)
        while queue and best not in via:
            x = queue.popleft()
            rows = tight_rows[x]
            for r in rows[bisect_right(rows, row):]:
                if cols[r] not in via:
                    via[cols[r]] = (r, x)
                    queue.append(cols[r])
        chosen = c = next(col for col in tight_cols[row] if col in via)
        while via[c] is not None:
            r, c = via[c]
            cols[r] = c
        cols[row] = chosen
    return list(enumerate(cols))
