"""Architecture graphs: connected simple graphs held as their hop distances.

Vertices are dense indices 0..n-1; a graph's edges (its pairs at distance 1)
and its kind are derived from the matrix.  Hierarchical products store their
factor graphs and connection vector; the product vertex (i, j) is i*n2 + j.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from operator import index

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .perm import read_count, read_vertex

Edge = tuple[int, int]

# A graph holds an n x n int16 matrix, so it has at most this many vertices
# (4096 vertices: 32 MiB), and matrix entries are at most 4095.
MAX_DIST_VERTICES = 4096
# Rows of a generic graph's matrix computed per shortest-path call, so the
# float64 transient is 256 rows, not n.
_DIST_BLOCK_ROWS = 256


def _read_edge(u: int, v: int, n: int) -> Edge:
    """The normalised edge of two distinct vertices in 0..n-1, else ValueError."""
    try:
        u, v = index(u), index(v)
    except TypeError:
        raise ValueError(f"edge ({u}, {v}) has a non-integer endpoint") from None
    if u == v:
        raise ValueError(f"self-loop at {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) out of range")
    return (u, v) if u < v else (v, u)


def _check_cap(n: int, what: str) -> None:
    if n > MAX_DIST_VERTICES:
        raise ValueError(f"{what} of {n} vertices exceeds the cap of "
                         f"{MAX_DIST_VERTICES} vertices")


class ArchitectureGraph:
    """Connected simple graph on vertices 0..n-1, held as its int16 hop distances.

    A graph made here gets its matrix from shortest paths over ``edges``, and
    ValueError is raised if it is disconnected or over ``MAX_DIST_VERTICES``
    vertices; the builders below use closed forms, and a product keeps its
    ``factor1``, ``factor2`` and 0/1 connection vector ``vec``.  ``kind`` is
    derived from the matrix: ``path`` if row 0 is 0, 1, ..., n-1, true of the
    path 0-1-...-(n-1) alone (so K1 and K2 are paths), else ``complete`` if no
    distance exceeds 1, else ``generic``.  A product is ``grid`` if both
    factors pass the path test and vec is all ones, ``modular`` if both pass
    the complete test and vec is 1, 0, ..., 0, else ``hier``.
    """

    def __init__(self, n: int, edges: Iterable[Edge]):
        n = read_count(n)
        _check_cap(n, "distance matrix")
        u, v = np.array([_read_edge(a, b, n) for a, b in edges], dtype=np.int64).reshape(-1, 2).T
        adj = csr_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
        d = np.empty((n, n), dtype=np.int16)
        for start in range(0, n, _DIST_BLOCK_ROWS):
            block = shortest_path(adj, directed=False, unweighted=True,
                                  indices=range(start, min(start + _DIST_BLOCK_ROWS, n)))
            if np.isinf(block).any():
                raise ValueError("graph is disconnected")
            d[start:start + len(block)] = block
        self._hold(d)

    @classmethod
    def _built(cls, d: np.ndarray, factor1=None, factor2=None, vec=None):
        """A builder's graph: its closed-form matrix d, with no edge set or search."""
        return cls.__new__(cls)._hold(d, factor1, factor2, vec)

    def _hold(self, d: np.ndarray, factor1=None, factor2=None, vec=None) -> ArchitectureGraph:
        """Keep d and a product's factors and vec; derive ``kind`` as the class docstring says."""
        # Read-only, since distances() hands it out and a product with a
        # one-vertex factor shares the other factor's matrix.
        d.flags.writeable = False
        self.n, self._dist, self.factor1, self.factor2, self.vec = len(d), d, factor1, factor2, vec
        tested = [d] if factor1 is None else [factor1.distances(), factor2.distances()]
        path = all((m[:1] == np.arange(len(m))).all() for m in tested)
        complete = all(m.max(initial=0) <= 1 for m in tested)
        if factor1 is None:
            self.kind = "path" if path else "complete" if complete else "generic"
        else:
            self.kind = ("grid" if path and all(vec) else
                         "modular" if complete and not any(vec[1:]) else "hier")
        return self

    def __repr__(self) -> str:
        m = int(np.count_nonzero(self._dist == 1)) // 2
        return f"ArchitectureGraph({self.kind}, n={self.n}, m={m})"

    @property
    def edges(self) -> set[Edge]:
        """The pairs (u, v), u < v, at distance 1; only perfbench and the tests read them."""
        u, v = np.nonzero(self._dist == 1)
        upper = u < v  # half the time of np.triu on a 1,024-vertex matrix
        return set(zip(u[upper].tolist(), v[upper].tolist()))

    def has_edge(self, u: int, v: int) -> bool:
        """Whether u and v are adjacent; both are read by :func:`~qroute.perm.read_vertex`."""
        return bool(self._dist[read_vertex(u, self.n), read_vertex(v, self.n)] == 1)

    def distances(self) -> np.ndarray:
        """All-pairs hop distances: the read-only int16 matrix built with the graph.

        Entries are at most 4095 (see ``MAX_DIST_VERTICES``), so a sum of up
        to 8 entries fits in int16.  Array reductions such as ``.sum()``
        widen by themselves; code that adds more entries elementwise, or sums
        numpy scalars with Python ``sum``, must widen first.
        """
        return self._dist

    def shortest_path(self, s: int, t: int) -> list[int]:
        """Lexicographically smallest shortest path from s to t: each step goes
        to the lowest-index neighbour one hop closer to t.

        Both vertices are read by :func:`~qroute.perm.read_vertex`, which
        raises ValueError; the graph is connected, so a path always exists.
        """
        s, t = read_vertex(s, self.n), read_vertex(t, self.n)
        d = self._dist
        path = [s]
        while path[-1] != t:
            u = path[-1]
            path.append(int(np.flatnonzero((d[u] == 1) & (d[t] == d[u, t] - 1))[0]))
        return path


def _read_size(n: int) -> int:
    """A builder's vertex count: an integer from 1 to ``MAX_DIST_VERTICES``, else ValueError."""
    n = read_count(n)
    if n < 1:
        raise ValueError("a graph needs at least one vertex")
    _check_cap(n, "distance matrix")
    return n


def path_graph(n: int) -> ArchitectureGraph:
    r = np.arange(_read_size(n), dtype=np.int16)
    return ArchitectureGraph._built(np.abs(r[:, None] - r))


def complete_graph(n: int) -> ArchitectureGraph:
    return ArchitectureGraph._built(1 - np.eye(_read_size(n), dtype=np.int16))


def _read_vec(vec: Iterable[int], n2: int) -> tuple[int, ...]:
    """A connection vector of n2 entries, each 0 or 1 and at least one 1, else
    ValueError.  Each entry is read as a vertex of {0, 1}, so True is 1 and 1.0 is refused."""
    vec = tuple(vec)
    if len(vec) != n2:
        raise ValueError(f"vec has length {len(vec)}, expected {n2}")
    try:
        bits = tuple(read_vertex(x, 2, "entry") for x in vec)
    except ValueError as exc:
        raise ValueError(f"vec entries must be 0 or 1, got {vec}: {exc}") from None
    if not any(bits):
        raise ValueError("vec must have at least one 1 (graph would be disconnected)")
    return bits


def hierarchical_product(g1: ArchitectureGraph, g2: ArchitectureGraph,
                         vec: Iterable[int]) -> ArchitectureGraph:
    """Product with vertex set V1 x V2: copies of g2 per V1-vertex, plus a
    copy of g1 joining position-j vertices wherever vec[j] = 1.  It is
    connected, as its factors are and vec has a 1.

    In a hierarchical product, (i, j) and (i, j') are d2(j, j') apart.  A
    path between copies i != i' crosses at some position k with
    vec[k] = 1, so it has length d1(i, i') + min over such k of
    d2(j, k) + d2(k, j').  That minimum is d2(j, j') when j or j' is such
    a position (triangle inequality), so it is only taken over the rest.
    """
    n1, n2 = g1.n, g2.n
    vec = _read_vec(vec, n2)
    _check_cap(n1 * n2, "distance matrix")
    d1, d2 = g1.distances(), g2.distances()
    if 1 in (n1, n2):
        # The product is the other factor, so it shares that factor's matrix.
        d = d1 if n2 == 1 else d2
    else:
        on = np.array(vec, dtype=bool)
        via = d2.copy()
        if not on.all():
            to_k = d2[np.ix_(~on, on)]  # from each 0 position to each 1 position
            best = to_k[:, 0, None] + to_k[:, 0]
            for c in range(1, to_k.shape[1]):
                np.minimum(best, to_k[:, c, None] + to_k[:, c], out=best)
            via[np.ix_(~on, ~on)] = best
        d = d1[:, None, :, None] + via[None, :, None, :]
        i = np.arange(n1)
        d[i, :, i, :] = d2
        d = d.reshape(n1 * n2, n1 * n2)
    return ArchitectureGraph._built(d, g1, g2, vec)


def grid_graph(n1: int, n2: int) -> ArchitectureGraph:
    """Cartesian product of two paths (all-ones connection vector)."""
    return hierarchical_product(path_graph(n1), path_graph(n2), (1,) * n2)


def modular_graph(n1: int, n2: int) -> ArchitectureGraph:
    """n1 fully connected modules of n2 qubits, linked through one
    communicator qubit per module (first-basis-vector connection)."""
    return hierarchical_product(complete_graph(n1), complete_graph(n2),
                                (1,) + (0,) * (n2 - 1))


# Each spec kind's builder and the shape of its sizes.
_SPECS = {"path": (path_graph, "N"), "complete": (complete_graph, "N"),
          "grid": (grid_graph, "AxB"), "modular": (modular_graph, "AxB")}


def build_architecture(spec: str) -> ArchitectureGraph:
    """Build a graph from a spec string.

    Formats: ``path:N``, ``complete:N``, ``grid:RxC``, ``modular:MxK``,
    ``hier:<file>`` (see :func:`parse_hier_file`); sizes are decimal
    integers, at most ``MAX_DIST_VERTICES`` vertices in all.
    """
    if ":" not in spec:
        raise ValueError(f"bad architecture spec {spec!r}: expected kind:params")
    kind, _, params = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "hier":
        with open(params, "r", encoding="utf-8") as fh:
            return parse_hier_file(fh.read())
    if kind not in _SPECS:
        raise ValueError(f"unknown architecture kind {kind!r}")
    build, shape = _SPECS[kind]
    parts = params.lower().split("x")
    if len(parts) != len(shape.split("x")) or not all(p.strip().isdecimal() for p in parts):
        raise ValueError(f"bad {kind} parameters {params!r}: expected {shape}")
    sizes = [int(p) for p in parts]
    _check_cap(math.prod(sizes), "architecture")
    return build(*sizes)


def parse_hier_file(text: str) -> ArchitectureGraph:
    """Parse a line-oriented hierarchical product description.

    Directives (one per line, ``#`` comments ignored)::

        n1 <int>        vertex count of the first factor
        n2 <int>        vertex count of the second factor
        v  <0/1> ...    connection vector, n2 entries
        e1 <u> <v>      edge of the first factor
        e2 <u> <v>      edge of the second factor

    n1, n2 and v must each appear exactly once; n1 and n2 are at least 1, and
    n1 * n2 is at most ``MAX_DIST_VERTICES``.  An error on a line names it,
    and a disconnected factor is named by its edge directive.
    """
    arity = {"n1": 1, "n2": 1, "v": None, "e1": 2, "e2": 2}  # None: any count
    once: dict[str, tuple[int, tuple[int, ...]]] = {}  # key -> (line number, values)
    edge_lines: list[tuple[int, str, tuple[int, ...]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *args = line.split()
        with _in_hier_file(f"line {lineno}"):
            if key not in arity:
                raise ValueError(f"unknown directive {key!r}")
            if arity[key] is not None and len(args) != arity[key]:
                raise ValueError(f"{key} takes {arity[key]} value(s), got {len(args)}")
            values = tuple(int(x) for x in args)
            if key in ("e1", "e2"):
                edge_lines.append((lineno, key, values))
            elif key in once:
                raise ValueError(f"{key} given twice")
            elif key in ("n1", "n2") and values[0] < 1:
                raise ValueError(f"{key} is {values[0]}; a factor needs at least one vertex")
            else:
                once[key] = (lineno, values)
    if once.keys() != {"n1", "n2", "v"}:
        raise ValueError("hier file must define n1, n2 and v")
    (_, (n1,)), (_, (n2,)), (v_line, vec) = once["n1"], once["n2"], once["v"]
    _check_cap(n1 * n2, "architecture")
    with _in_hier_file(f"line {v_line}"):
        vec = _read_vec(vec, n2)
    edges: dict[str, set[Edge]] = {"e1": set(), "e2": set()}
    for lineno, key, (u, v) in edge_lines:
        with _in_hier_file(f"line {lineno}"):
            edges[key].add(_read_edge(u, v, n1 if key == "e1" else n2))
    factors = []
    for key, n in (("e1", n1), ("e2", n2)):
        with _in_hier_file(f"factor {key}"):
            factors.append(ArchitectureGraph(n, edges[key]))
    return hierarchical_product(*factors, vec)


@contextmanager
def _in_hier_file(where: str) -> Iterator[None]:
    """Prefix a ValueError raised in the block with where in the hier file it arose."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"hier file {where}: {exc}") from exc

