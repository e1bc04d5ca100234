"""Architecture graphs: simple connected graphs with cached hop distances.

Vertices are dense indices 0..n-1.  Hierarchical products store their factor
graphs and connection vector; the product vertex (i, j) flattens to i*n2 + j.
"""
from __future__ import annotations

from operator import index

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

Edge = tuple[int, int]

# distances() builds an n x n int16 matrix only up to this many vertices
# (4096 vertices: 32 MiB), so its entries are at most 4095.
MAX_DIST_VERTICES = 4096
# Rows of a generic graph's matrix computed per shortest-path call, so the
# float64 transient is 256 rows, not n.
_DIST_BLOCK_ROWS = 256


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class ArchitectureGraph:
    """Simple connected graph, optionally tagged with structural kind.

    ``kind`` is one of ``path``, ``complete``, ``grid``, ``modular``,
    ``hier`` or ``generic``.  The hierarchical kinds (grid, modular, hier)
    carry ``factor1``, ``factor2`` and the 0/1 connection vector ``vec``.
    """

    def __init__(self, n: int, edges: set[Edge], kind: str = "generic",
                 factor1: "ArchitectureGraph | None" = None,
                 factor2: "ArchitectureGraph | None" = None,
                 vec: tuple[int, ...] | None = None):
        try:
            n = index(n)
        except TypeError:
            raise ValueError(f"vertex count {n!r} is not an integer") from None
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self.edges: set[Edge] = set()
        for u, v in edges:
            try:
                u, v = index(u), index(v)
            except TypeError:
                raise ValueError(f"edge ({u}, {v}) has a non-integer endpoint") from None
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            self.edges.add(_norm_edge(u, v))
        self.kind = kind
        self.factor1 = factor1
        self.factor2 = factor2
        self.vec = vec
        self._dist: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"ArchitectureGraph({self.kind}, n={self.n}, m={len(self.edges)})"

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def _sparse_adjacency(self) -> csr_matrix:
        """Symmetric CSR adjacency: each edge is entered from both ends."""
        u, v = np.array(list(self.edges), dtype=np.int64).reshape(-1, 2).T
        return csr_matrix((np.ones(2 * len(u)), (np.concatenate([u, v]), np.concatenate([v, u]))),
                          shape=(self.n, self.n))

    def is_connected(self) -> bool:
        return connected_components(self._sparse_adjacency())[0] <= 1

    def distances(self) -> np.ndarray:
        """All-pairs hop distances as int16, cached.

        Paths, complete graphs and hierarchical products (those with factors)
        get closed forms built from their factors' matrices; other graphs get
        shortest-path calls on the sparse adjacency, one per block of rows.
        A closed form is the metric of the graph the kind and factors
        describe, so it is accepted only when its pairs at distance 1 are
        exactly this graph's edges.

        Entries are at most 4095 (see ``MAX_DIST_VERTICES``), so a sum of up
        to 8 entries fits in int16.  Array reductions such as ``.sum()``
        widen by themselves; code that adds more entries elementwise, or sums
        numpy scalars with Python ``sum``, must widen first.

        Raises ValueError when the graph is disconnected, when its edges
        are not those its kind describes, or when it has more than
        ``MAX_DIST_VERTICES`` vertices.
        """
        if self._dist is None:
            if self.n > MAX_DIST_VERTICES:
                raise ValueError(f"distance matrix of {self.n} vertices exceeds the cap of "
                                 f"{MAX_DIST_VERTICES} vertices")
            d = self._closed_form_distances()
            if d is None:
                adj = self._sparse_adjacency()
                d = np.empty((self.n, self.n), dtype=np.int16)
                for start in range(0, self.n, _DIST_BLOCK_ROWS):
                    stop = min(start + _DIST_BLOCK_ROWS, self.n)
                    block = shortest_path(adj, unweighted=True, indices=range(start, stop))
                    if np.isinf(block).any():
                        raise ValueError("distance matrix requires a connected graph")
                    d[start:stop] = block
            else:
                adj = self._sparse_adjacency()
                if np.count_nonzero(d == 1) != adj.nnz or not (d[adj.nonzero()] == 1).all():
                    raise ValueError(f"edges do not form the {self.kind} graph "
                                     "its kind and factors describe")
            self._dist = d
        return self._dist

    def _closed_form_distances(self) -> np.ndarray | None:
        """Hop distances from the kind and factors alone, or None for a generic graph.

        In a hierarchical product, (i, j) and (i, j') are d2(j, j') apart.  A
        path between copies i != i' crosses at some position k with
        vec[k] = 1, so it has length d1(i, i') + min over such k of
        d2(j, k) + d2(k, j').  That minimum is d2(j, j') when j or j' is such
        a position (triangle inequality), so it is only taken over the rest.
        """
        g1, g2 = self.factor1, self.factor2
        if g1 is not None and g2 is not None:
            if self.vec is None or len(self.vec) != g2.n or g1.n * g2.n != self.n:
                raise ValueError(f"factors and vec do not form a graph of {self.n} vertices")
            d1, d2 = g1.distances(), g2.distances()
            vec = np.array(self.vec, dtype=bool)
            via = d2.copy()
            if not vec.all():
                to_k = d2[np.ix_(~vec, vec)]  # from each 0 position to each 1 position
                best = to_k[:, 0, None] + to_k[:, 0]
                for c in range(1, to_k.shape[1]):
                    np.minimum(best, to_k[:, c, None] + to_k[:, c], out=best)
                via[np.ix_(~vec, ~vec)] = best
            d = d1[:, None, :, None] + via[None, :, None, :]
            i = np.arange(g1.n)
            d[i, :, i, :] = d2
            return d.reshape(self.n, self.n)
        if self.kind == "path":
            r = np.arange(self.n, dtype=np.int16)
            return np.abs(r[:, None] - r)
        if self.kind == "complete":
            return 1 - np.eye(self.n, dtype=np.int16)
        return None

    def shortest_path(self, s: int, t: int) -> list[int]:
        """Lexicographically smallest shortest path from s to t: each step goes
        to the lowest-index neighbour one hop closer to t.

        Reads :meth:`distances`, so it raises the same ValueError when the
        graph is disconnected (even if s and t share a component) or has
        more than ``MAX_DIST_VERTICES`` vertices.  A vertex outside 0..n-1
        raises ValueError too.
        """
        for v in (s, t):
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range [0, {self.n})")
        d = self.distances()
        path = [s]
        while path[-1] != t:
            u = path[-1]
            path.append(int(np.flatnonzero((d[u] == 1) & (d[t] == d[u, t] - 1))[0]))
        return path


def path_graph(n: int) -> ArchitectureGraph:
    if n < 1:
        raise ValueError("path needs at least one vertex")
    return ArchitectureGraph(n, {(i, i + 1) for i in range(n - 1)}, kind="path")


def complete_graph(n: int) -> ArchitectureGraph:
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    edges = {(i, j) for i in range(n) for j in range(i + 1, n)}
    return ArchitectureGraph(n, edges, kind="complete")


def hierarchical_product(g1: ArchitectureGraph, g2: ArchitectureGraph,
                         vec: tuple[int, ...], kind: str = "hier") -> ArchitectureGraph:
    """Product with vertex set V1 x V2: copies of g2 per V1-vertex, plus a
    copy of g1 joining position-j vertices wherever vec[j] = 1."""
    n1, n2 = g1.n, g2.n
    if len(vec) != n2:
        raise ValueError(f"vec has length {len(vec)}, expected {n2}")
    if any(x not in (0, 1) for x in vec):
        raise ValueError(f"vec entries must be 0 or 1, got {tuple(vec)}")
    if not any(vec):
        raise ValueError("vec must have at least one 1 (graph would be disconnected)")
    edges: set[Edge] = set()
    for i in range(n1):
        for (j, jp) in g2.edges:
            edges.add(_norm_edge(i * n2 + j, i * n2 + jp))
    for (i, ip) in g1.edges:
        for j in range(n2):
            if vec[j]:
                edges.add(_norm_edge(i * n2 + j, ip * n2 + j))
    g = ArchitectureGraph(n1 * n2, edges, kind=kind, factor1=g1, factor2=g2,
                          vec=tuple(vec))
    if not g.is_connected():
        raise ValueError("hierarchical product is disconnected")
    return g


def grid_graph(n1: int, n2: int) -> ArchitectureGraph:
    """Cartesian product of two paths (all-ones connection vector)."""
    return hierarchical_product(path_graph(n1), path_graph(n2),
                                (1,) * n2, kind="grid")


def modular_graph(n1: int, n2: int) -> ArchitectureGraph:
    """n1 fully connected modules of n2 qubits, linked through one
    communicator qubit per module (first-basis-vector connection)."""
    vec = (1,) + (0,) * (n2 - 1)
    return hierarchical_product(complete_graph(n1), complete_graph(n2),
                                vec, kind="modular")


def build_architecture(spec: str) -> ArchitectureGraph:
    """Build a graph from a spec string.

    Formats: ``path:N``, ``complete:N``, ``grid:RxC``, ``modular:MxK``,
    ``hier:<file>`` (see :func:`parse_hier_file`).
    """
    if ":" not in spec:
        raise ValueError(f"bad architecture spec {spec!r}: expected kind:params")
    kind, _, params = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "path":
        return path_graph(int(params))
    if kind == "complete":
        return complete_graph(int(params))
    if kind in ("grid", "modular"):
        parts = params.lower().split("x")
        if len(parts) != 2:
            raise ValueError(f"bad {kind} parameters {params!r}: expected AxB")
        a, b = int(parts[0]), int(parts[1])
        return grid_graph(a, b) if kind == "grid" else modular_graph(a, b)
    if kind == "hier":
        with open(params, "r", encoding="utf-8") as fh:
            return parse_hier_file(fh.read())
    raise ValueError(f"unknown architecture kind {kind!r}")


def parse_hier_file(text: str) -> ArchitectureGraph:
    """Parse a line-oriented hierarchical product description.

    Directives (one per line, ``#`` comments ignored)::

        n1 <int>        vertex count of the first factor
        n2 <int>        vertex count of the second factor
        v  <0/1> ...    connection vector, n2 entries
        e1 <u> <v>      edge of the first factor
        e2 <u> <v>      edge of the second factor

    n1, n2 and v must each appear exactly once; n1 and n2 are at least 1.
    """
    arity = {"n1": 1, "n2": 1, "v": None, "e1": 2, "e2": 2}  # None: any count
    once: dict[str, tuple[int, ...]] = {}
    edges: dict[str, set[Edge]] = {"e1": set(), "e2": set()}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *args = line.split()
        try:
            if key not in arity:
                raise ValueError(f"unknown directive {key!r}")
            if arity[key] is not None and len(args) != arity[key]:
                raise ValueError(f"{key} takes {arity[key]} value(s), got {len(args)}")
            values = tuple(int(x) for x in args)
            if key in edges:
                edges[key].add(_norm_edge(*values))
            elif key in once:
                raise ValueError(f"{key} given twice")
            elif key in ("n1", "n2") and values[0] < 1:
                raise ValueError(f"{key} is {values[0]}; a factor needs at least one vertex")
            else:
                once[key] = values
        except ValueError as exc:
            raise ValueError(f"hier file line {lineno}: {exc}") from exc
    if once.keys() != {"n1", "n2", "v"}:
        raise ValueError("hier file must define n1, n2 and v")
    (n1,), (n2,), vec = once["n1"], once["n2"], once["v"]
    return hierarchical_product(_detect_factor(n1, edges["e1"]),
                                _detect_factor(n2, edges["e2"]), vec)


def _detect_factor(n: int, edges: set[Edge]) -> ArchitectureGraph:
    """Tag a factor as path/complete when its edge set matches exactly."""
    if edges == {(i, i + 1) for i in range(n - 1)}:
        return ArchitectureGraph(n, edges, kind="path")
    if len(edges) == n * (n - 1) // 2 and n >= 1:
        return ArchitectureGraph(n, edges, kind="complete")
    g = ArchitectureGraph(n, edges, kind="generic")
    if not g.is_connected():
        raise ValueError("factor graph is disconnected")
    return g


def induced_subgraph(g: ArchitectureGraph, vertices: set[int]) -> tuple[ArchitectureGraph, list[int]]:
    """Vertex-induced subgraph, re-indexed densely.

    Returns the subgraph (kind ``generic``) and the list mapping new index ->
    original vertex.  The result may be disconnected; callers that need
    connectivity must check.
    """
    keep = sorted(vertices)
    index = {v: i for i, v in enumerate(keep)}
    edges = {(index[u], index[v]) for u, v in g.edges if u in index and v in index}
    return ArchitectureGraph(len(keep), edges), keep
