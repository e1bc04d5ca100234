"""Matching algorithms: greedy maximal and min-weight perfect bipartite.

All routines are deterministic: the greedy matching scans vertices in order
and ties in the assignment problem are broken toward the lexicographically
smallest matched edge set.
"""
from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .graphs import ArchitectureGraph, Edge

# Endpoints are read as floats so that a fractional one can be rejected
# rather than truncated.
_TRIPLE = np.dtype([("l", np.float64), ("r", np.float64), ("w", np.float64)])


def cost_matrix(n_left: int, n_right: int,
                edges: Sequence[tuple[int, int, float]] = ()) -> np.ndarray:
    """Cost matrix of a bipartite multigraph given as (left, right, weight) triples.

    Entry [l, r] of the float64 (n_left, n_right) result is the cheapest
    weight of the parallel edges from l to r, or inf where there is none.
    Each edge must be a 3-tuple, side counts non-negative, endpoints integers
    in range and weights finite; a ValueError names the first edge that is
    not.  An edge given as a list or an ndarray row is refused by numpy's own
    ValueError, and a dict by a TypeError, neither naming the edge.
    """
    if n_left < 0 or n_right < 0:
        raise ValueError(f"negative side count: n_left={n_left}, n_right={n_right}")
    triples = np.fromiter(edges, _TRIPLE, len(edges))
    left, right, weight = triples["l"], triples["r"], triples["w"]
    fractional = (left != np.floor(left)) | (right != np.floor(right))
    outside = ~((0 <= left) & (left < n_left) & (0 <= right) & (right < n_right))
    infinite = ~np.isfinite(weight)
    # The decode reads a bare number x as the triple (x, x, x), so rows of
    # that form are unpacked too; a valid list has few.
    suspect = fractional | outside | infinite | ((left == right) & (right == weight))
    for i in np.flatnonzero(suspect).tolist():
        try:
            l, r, w = edges[i]
        except (TypeError, ValueError):
            raise ValueError(f"edge {edges[i]!r} is not a (left, right, weight) triple") from None
        if fractional[i]:
            raise ValueError(f"edge ({l}, {r}) has a non-integer endpoint")
        if outside[i]:
            raise ValueError(f"edge ({l}, {r}) out of range")
        if infinite[i]:
            raise ValueError(f"edge weight {w} is not finite")
    cost = np.full((n_left, n_right), np.inf)
    np.minimum.at(cost, (left.astype(np.intp), right.astype(np.intp)), weight)
    return cost


# The class name perfbench still calls; ROADMAP item 4 deletes this alias.
WeightedBipartiteGraph = cost_matrix


def maximal_matching(g: ArchitectureGraph) -> list[Edge]:
    """Greedy maximal matching over lexicographically sorted edges: each free vertex
    u in turn takes its smallest free neighbour v (v > u: a free v < u would have taken u)."""
    d = g.distances()
    free = np.ones(g.n, dtype=bool)
    matching: list[Edge] = []
    for u in range(g.n):
        if free[u] and (row := (d[u] == 1) & free).any():
            v = int(row.argmax())  # the first free neighbour
            free[u] = free[v] = False
            matching.append((u, v))
    return matching


def _tight_edges(cost: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Edges of zero reduced cost under optimal duals for the optimum cols.

    ``cols`` is an optimal assignment as an integer array (row r takes
    column cols[r]), and ``cost`` holds no NaN or -inf.

    Column potentials v are shortest distances over edges cols[r] -> c of
    weight cost[r, c] - cost[r, cols[r]], which have no negative cycle as cols
    is optimal; row potentials are u[r] = cost[r, cols[r]] - v[cols[r]].
    Bellman-Ford runs on the rows permuted into column order, where these
    weights have a zero diagonal: a round can then only lower v, and the
    rounds stop once none does.
    """
    n = len(cols)
    permuted = np.empty_like(cost)
    permuted[cols] = cost  # row p holds column p
    assigned = permuted.diagonal()
    step = permuted - assigned[:, None]
    v = np.zeros(n)
    relaxed = step.min(axis=0)  # the first round, from v = 0
    for _ in range(n):
        if not (relaxed < v).any():
            break
        v = relaxed
        relaxed = (v[:, None] + step).min(axis=0)
    u = (assigned - v)[cols]
    tol = 1e-9 * max(1.0, float(abs(cost[cost < np.inf]).max()))
    return cost - u[:, None] - v <= tol


def min_weight_perfect_matching(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-weight perfect matching of a square cost matrix, as (row, column) pairs.

    Negative weights are permitted; an inf entry is a forbidden pair.  Among
    equal-weight optima the lexicographically smallest edge set is returned.
    Raises ValueError when ``cost`` is not square, holds NaN or -inf, or
    admits no perfect matching, which scipy's assignment solver detects
    itself.

    One assignment solve gives an optimum, and optimal duals recovered from
    it by Bellman-Ford mark the tight edges, those of zero reduced cost: the
    optimal matchings are exactly the perfect matchings of tight edges.  Rows
    are then fixed in order.  A row can only trade up to a tight column that
    is smaller than its own and held by a later row; a row with no such
    candidate keeps its column.  Otherwise a breadth-first search over tight
    edges of later rows finds the columns the row can take by rotating an
    alternating cycle, stopping once it reaches the smallest candidate, and
    the row takes the smallest candidate reached.  Reduced costs up to 1e-9
    times max(1, largest |weight|) count as tight, so optima closer than that
    are ties.  Cost: one solve plus O(n^3).
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"sides differ: cost has shape {cost.shape}")
    if not (cost > -np.inf).all():  # false for NaN as well as -inf
        raise ValueError("cost holds NaN or -inf")
    n = len(cost)
    if n == 0:
        return []
    try:
        # Entries are finite or inf, so infeasibility is scipy's only ValueError.
        assignment = linear_sum_assignment(cost)[1]  # rows come back as 0..n-1
    except ValueError:
        raise ValueError("no perfect matching exists") from None
    cols = assignment.tolist()
    # The tight columns of each row and the tight rows of each column, ascending.
    tight_cols: list[list[int]] = [[] for _ in range(n)]
    tight_rows: list[list[int]] = [[] for _ in range(n)]
    r_idx, c_idx = np.nonzero(_tight_edges(cost, assignment))
    for r, c in zip(r_idx.tolist(), c_idx.tolist()):
        tight_cols[r].append(c)
        tight_rows[c].append(r)
    owner = [0] * n  # owner[c] is the row that holds column c
    for r, c in enumerate(cols):
        owner[c] = r
    for row, tight in enumerate(tight_cols):
        col = cols[row]
        if tight[0] == col:  # the row already holds its smallest tight column
            continue
        # Columns held by earlier rows are fixed, so only these can be won.
        candidates = [c for c in tight if c < col and owner[c] > row]
        if not candidates:
            continue
        # via[c] = (r, x): row r can move to column x, freeing c for row.
        via: dict[int, tuple[int, int] | None] = {col: None}
        first = candidates[0]
        reached = [col]  # the breadth-first queue, which grows as it is read
        for x in reached:
            if first in via:
                break
            rows = tight_rows[x]
            for r in rows[bisect_right(rows, row):]:
                c = cols[r]
                if c not in via:
                    via[c] = (r, x)
                    reached.append(c)
        chosen = c = next((c for c in candidates if c in via), col)
        while via[c] is not None:
            r, c = via[c]
            cols[r] = c
            owner[c] = r
        cols[row] = chosen
        owner[chosen] = row
    return list(enumerate(cols))
