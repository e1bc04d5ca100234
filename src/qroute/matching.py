"""Matching algorithms: greedy maximal and min-weight perfect bipartite.

All routines are deterministic: the greedy matching scans vertices in order
and ties in the assignment problem are broken toward the lexicographically
smallest matched edge set.

The assignment solver is scipy's ``linear_sum_assignment``, the built-in
function of its ``scipy.optimize._lsap`` extension.  Importing this module
loads that extension from scipy's ``optimize`` directory without the rest of
``scipy.optimize``, whose import would be most of qroute's.  An extension
loaded already is reused; if scipy's layout has none, the public
``from scipy.optimize import linear_sum_assignment`` gives the solver.  Either
way it is the object ``scipy.optimize`` exports.
"""
from __future__ import annotations

import os
import sys
from collections.abc import Sequence
from functools import lru_cache
from importlib.machinery import ExtensionFileLoader, PathFinder
from importlib.util import module_from_spec
from numbers import Integral

import numpy as np
import scipy

from .graphs import ArchitectureGraph, Edge

_LSAP = "scipy.optimize._lsap"


def _load_solver(search: list[str]):
    """``linear_sum_assignment`` from the ``_lsap`` extension in one of the ``search`` directories.

    The extension is entered in ``sys.modules`` under its scipy name, so a
    later ``import scipy.optimize`` takes it from there (though not as the
    package attribute ``scipy.optimize._lsap``).  When no ``_lsap`` is found,
    or the one found is not an extension module, the solver comes from the
    public ``scipy.optimize`` import.
    """
    spec = PathFinder.find_spec(_LSAP, search)
    if spec is None or not isinstance(spec.loader, ExtensionFileLoader):
        from scipy.optimize import linear_sum_assignment
        return linear_sum_assignment
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_LSAP] = module
    return module.linear_sum_assignment


linear_sum_assignment = (sys.modules[_LSAP].linear_sum_assignment if _LSAP in sys.modules
                         else _load_solver([os.path.join(p, "optimize") for p in scipy.__path__]))

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
    # A flat index takes ufunc.at's fast 1-d path; the endpoints are exact
    # integers, so is their flat position.
    np.minimum.at(cost.reshape(-1), (left * n_right + right).astype(np.intp), weight)
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


def min_weight_perfect_matching(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-weight matching of every row of a k x m integer cost, k <= m, as (row, column) pairs.

    Each row gets its own column; with k < m the columns no row takes are
    simply left over, so a placement costs its gates against every slot
    without padding rows.  Entries may be negative; an inf entry is a
    forbidden pair.  Among equal-weight optima the lexicographically smallest
    column sequence is returned.  Raises ValueError when ``cost`` is not 2-d
    or has more rows than columns, holds NaN, -inf or a finite non-integer
    (named with its position), admits no matching of every row (which
    scipy's assignment solver detects), or spans too wide a range to stage,
    as does an integer entry beyond 2**53 in size, which float64 may round.

    Rows are fixed in stages.  With r rows and m columns left and span the
    largest minus the smallest finite entry, a stage takes the next k rows,
    for the largest k <= r with m**k * (m*span + 1) <= 2**52.  One
    assignment solve over the rows and columns left, of (cost - min) * m**k
    plus, on stage row i, each column's index among those left times
    m**(k-1-i), gives the stage's lex-min optimum: that radix sum stays below
    m**k, so the total cost decides first, and every entry and every sum of
    r <= m entries is an exact float64 integer.  If m * (m*span + 1) > 2**52
    no stage holds a row, and a cost that has a matching raises "cost range
    too wide".
    """
    given = np.asarray(cost)
    cost = given.astype(np.float64, copy=False)
    if cost.ndim != 2 or cost.shape[0] > cost.shape[1]:
        raise ValueError(f"sides differ: cost has shape {cost.shape}, "
                         f"not k x m with k <= m")
    lo, hi = (cost.min(), cost.max()) if cost.size else (0.0, 0.0)
    if not lo > -np.inf:  # false for NaN as well as -inf
        raise ValueError("cost holds NaN or -inf")
    if given.dtype.kind not in "biu" and not (whole := cost == np.floor(cost)).all():
        r, c = np.argwhere(~whole)[0]  # inf is whole
        raise ValueError(f"cost[{r}, {c}] = {float(cost[r, c])!r} is not an integer")
    if hi == np.inf:
        values = cost[cost < np.inf]
        lo, hi = (values.min(), values.max()) if values.size else (0.0, 0.0)
    n, limit = cost.shape[1], 2 ** 52
    if max(hi, -lo) >= 2 ** 53 and any(isinstance(x, Integral) and not -2 ** 53 <= x <= 2 ** 53
                                       for x in given.flat):  # a float is exact as given
        raise ValueError("cost range too wide: an integer entry beyond 2**53 rounds as a float")
    span = int(hi) - int(lo)
    if n * (n * span + 1) > limit:
        _assignment(np.where(cost < np.inf, 0.0, np.inf))  # an infeasible cost says so first
        raise ValueError(f"cost range too wide: {n} columns spanning {span} exceed 2**52")
    work, cols, fixed = cost - lo, np.arange(n), []
    while (r := len(work)):
        m = len(cols)
        room, k = limit // (m * span + 1), 1
        while k < r and m ** (k + 1) <= room:
            k += 1
        stage = work * float(m ** k)
        stage[:k] += _radix(m)[-k:]
        picked = _assignment(stage)[:k]
        fixed += cols[picked].tolist()
        if k == r:
            break
        free = np.ones(m, dtype=bool)
        free[picked] = False
        work, cols = work[k:, free], cols[free]
    return list(enumerate(fixed))


@lru_cache(maxsize=32)
def _radix(m: int) -> np.ndarray:
    """Read-only rows m**(K-1-i) * j for i < K, j < m: K is the most stage rows m columns take.

    K is the largest k <= m with m**k <= 2**52, at most 13, and a stage of k
    rows adds the last k rows.  The cache keeps the tables of the 32 column
    counts used last.  A table of K * m float64s is at most 64 KiB, reached
    at 2,048 columns (K = 4), the most slots a graph under MAX_DIST_VERTICES
    has, so the cache holds at most 2 MiB.
    """
    depth = 1
    while depth < m and m ** (depth + 1) <= 2 ** 52:
        depth += 1
    table = np.outer([float(m ** p) for p in range(depth - 1, -1, -1)], np.arange(m))
    table.setflags(write=False)
    return table


def _assignment(cost: np.ndarray) -> np.ndarray:
    """The columns scipy's assignment solver gives rows 0..k-1 of a k x m cost, k <= m."""
    try:
        return linear_sum_assignment(cost)[1]
    except ValueError:  # entries are finite or inf, so only infeasibility raises
        raise ValueError("no perfect matching exists") from None
