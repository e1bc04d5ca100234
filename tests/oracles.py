"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive: exhaustive search, breadth-first
search over explicit state spaces, repeated calls to scipy's assignment
solver, and a dense statevector simulator.  None of it shares code with the
library algorithms it checks.
"""
from __future__ import annotations

import itertools
import math
import re
from collections import deque

import numpy as np

State = tuple  # forward array of a partial permutation, None = no token


def resolved(state: State) -> bool:
    return all(t is None or t == i for i, t in enumerate(state))


def swap_state(state: State, u: int, v: int) -> State:
    s = list(state)
    s[u], s[v] = s[v], s[u]
    return tuple(s)


def is_routing(edges, forward, steps) -> bool:
    """Every step is a matching of ``edges`` and the swap replay ends resolved."""
    edge_set = set(edges)
    state = tuple(forward)
    for step in steps:
        ends = [w for e in step for w in e]
        if len(set(ends)) != len(ends):
            return False
        if any((min(u, v), max(u, v)) not in edge_set for u, v in step):
            return False
        for u, v in step:
            state = swap_state(state, u, v)
    return resolved(state)


def all_matchings(edges: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Every nonempty matching (set of vertex-disjoint edges)."""
    out: list[list[tuple[int, int]]] = []

    def rec(i: int, used: set[int], acc: list[tuple[int, int]]):
        if i == len(edges):
            if acc:
                out.append(list(acc))
            return
        rec(i + 1, used, acc)
        u, v = edges[i]
        if u not in used and v not in used:
            acc.append((u, v))
            rec(i + 1, used | {u, v}, acc)
            acc.pop()

    rec(0, set(), [])
    return out


def bfs_routing_number(edges: list[tuple[int, int]], start: State) -> int:
    """Exact minimum number of matchings resolving the permutation."""
    if resolved(start):
        return 0
    moves = all_matchings(edges)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        d = dist[state]
        for matching in moves:
            nxt = state
            for u, v in matching:
                nxt = swap_state(nxt, u, v)
            if nxt not in dist:
                if resolved(nxt):
                    return d + 1
                dist[nxt] = d + 1
                queue.append(nxt)
    raise AssertionError("routing BFS exhausted the state space")


def bfs_routing_size(edges: list[tuple[int, int]], start: State) -> int:
    """Exact minimum number of single swaps resolving the permutation."""
    if resolved(start):
        return 0
    dist = {start: 0}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        d = dist[state]
        for u, v in edges:
            nxt = swap_state(state, u, v)
            if nxt not in dist:
                if resolved(nxt):
                    return d + 1
                dist[nxt] = d + 1
                queue.append(nxt)
    raise AssertionError("token swap BFS exhausted the state space")


def routing_size_table(edges: list[tuple[int, int]], n: int) -> dict[State, int]:
    """rs(G, pi) for every total permutation, via one BFS sweep from identity.

    Swap moves are involutions, so distance from identity equals distance to
    identity.
    """
    ident: State = tuple(range(n))
    dist: dict[State, int] = {ident: 0}
    queue = deque([ident])
    while queue:
        state = queue.popleft()
        d = dist[state]
        for u, v in edges:
            nxt = swap_state(state, u, v)
            if nxt not in dist:
                dist[nxt] = d + 1
                queue.append(nxt)
    return dist


def routing_number_table(edges: list[tuple[int, int]], n: int) -> dict[State, int]:
    """rt(G, pi) for every total permutation, via one BFS sweep from identity.

    A step swaps along a matching, which is an involution, so distance from
    identity equals distance to identity.
    """
    moves = all_matchings(edges)
    ident: State = tuple(range(n))
    dist: dict[State, int] = {ident: 0}
    queue = deque([ident])
    while queue:
        state = queue.popleft()
        d = dist[state]
        for matching in moves:
            nxt = state
            for u, v in matching:
                nxt = swap_state(nxt, u, v)
            if nxt not in dist:
                dist[nxt] = d + 1
                queue.append(nxt)
    return dist


def brute_min_weight_pm(cost: list[list[float]]) -> tuple[float, list[int]] | None:
    """(total, lex-smallest optimal column assignment), or None if infeasible.

    ``cost`` is k x m with k <= m; each row takes its own column, and the
    columns no row takes are left over.  cost[r][c] = math.inf marks a
    forbidden pair.
    """
    k, m = len(cost), len(cost[0]) if cost else 0
    best_total, best = math.inf, None
    for perm in itertools.permutations(range(m), k):
        total = 0.0
        ok = True
        for r, c in enumerate(perm):
            w = cost[r][c]
            if not math.isfinite(w):
                ok = False
                break
            total += w
        if ok and total < best_total - 1e-12:
            best_total, best = total, list(perm)
    if best is None:
        return None
    return best_total, best


def refix_min_weight_pm(cost: list[list[float]]) -> list[int] | None:
    """Lex-smallest optimal column assignment, or None if infeasible.

    Fixes rows in order, each to the smallest column that keeps the optimum,
    re-solving the rest with scipy after every trial: up to n^2 solves, but
    fine for n in the tens, where brute_min_weight_pm cannot go.
    cost[r][c] = math.inf marks a forbidden pair.
    """
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    def optimum(sub: np.ndarray) -> float:
        if sub.size == 0:
            return 0.0
        finite = np.isfinite(sub)
        big = (abs(sub[finite]).max() if finite.any() else 1.0) * len(sub) + 1.0
        rows, cols = linear_sum_assignment(np.where(finite, sub, 2 * big))
        return float(sub[rows, cols].sum())  # inf if a forbidden pair is used

    c = np.array(cost, dtype=float)
    n = len(c)
    total = optimum(c)
    if not math.isfinite(total):
        return None
    fixed, avail, out = 0.0, list(range(n)), []
    for row in range(n):
        for col in avail:
            rest = [x for x in avail if x != col]
            trial = fixed + c[row, col] + optimum(c[np.ix_(range(row + 1, n), rest)])
            if trial <= total + 1e-9:
                break
        else:
            raise AssertionError("row fixing lost the optimum")
        out.append(col)
        avail.remove(col)
        fixed += c[row, col]
    return out


def connected_small_graphs(max_n: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """All connected graphs with 2..max_n vertices, one per isomorphism class."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    out = []
    for g in graph_atlas_g():
        n = g.number_of_nodes()
        if 2 <= n <= max_n and nx.is_connected(g):
            out.append((n, sorted(tuple(sorted(e)) for e in g.edges())))
    return out


def reference_edges(g) -> set[tuple[int, int]]:
    """Edges (u, v), u < v, of an architecture graph from its kind's definition.

    A path joins i and i+1; a complete graph joins every pair; a hierarchical
    product has a copy of factor 2's edges per factor-1 vertex, plus a copy of
    factor 1's edges at each position j with ``vec[j] = 1``.  A generic graph
    has no definition to follow, so its own ``edges`` stand in.
    """
    if g.kind == "path":
        return {(i, i + 1) for i in range(g.n - 1)}
    if g.kind == "complete":
        return set(itertools.combinations(range(g.n), 2))
    if g.factor1 is None:
        return set(g.edges)
    n2 = g.factor2.n
    edges = {(i * n2 + a, i * n2 + b)
             for i in range(g.factor1.n) for a, b in reference_edges(g.factor2)}
    edges |= {(i * n2 + j, k * n2 + j)
              for i, k in reference_edges(g.factor1) for j in range(n2) if g.vec[j]}
    return edges


def reference_maximal_matching(g) -> list[tuple[int, int]]:
    """Greedy maximal matching over the sorted ``reference_edges(g)``: an edge
    joins the matching when neither end is matched yet."""
    used: set[int] = set()
    matching = []
    for u, v in sorted(reference_edges(g)):
        if u not in used and v not in used:
            matching.append((u, v))
            used.update((u, v))
    return matching


# Hier files whose factors come out path, complete and generic.
HIER_FILES = [
    "n1 3\nn2 4\nv 0 1 0 1\ne1 0 1\ne1 1 2\n"
    "e2 0 1\ne2 0 2\ne2 0 3\ne2 1 2\ne2 1 3\ne2 2 3\n",
    "n1 3\nn2 5\nv 0 0 1 0 0\ne1 0 1\ne1 1 2\ne1 0 2\n"
    "e2 0 1\ne2 1 2\ne2 2 3\ne2 3 4\ne2 4 0\n",
    "n1 4\nn2 3\nv 1 0 0\ne1 0 1\ne1 0 2\ne1 0 3\ne2 1 2\ne2 0 1\n",
]


def longest_weighted_path(gate_qubits: list[tuple[int, ...]],
                          gate_weights: list[int]) -> int:
    """Max-weight path in the dependency DAG of a gate list, by DP over an
    explicitly constructed edge relation."""
    n = len(gate_qubits)
    preds: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            if set(gate_qubits[i]) & set(gate_qubits[j]):
                preds[i].append(j)
    best = [0] * n
    for i in range(n):
        incoming = max((best[j] for j in preds[i]), default=0)
        best[i] = incoming + gate_weights[i]
    return max(best, default=0)


# QASM reference: the statement-by-statement parser and the plain emitter the
# library replaced.  It shares only Circuit, Gate and QasmError with
# qroute.qasm, accepts non-finite parameters and has no register cap.
_REF_QREG = re.compile(r"qreg\s+q\s*\[\s*(\d+)\s*\]")
_REF_STMT = re.compile(r"^(?P<name>[a-zA-Z]+)\s*(?:\((?P<params>[^)]*)\))?\s*(?P<args>[^;]*)$")
_REF_ARG = re.compile(r"q\s*\[\s*(\d+)\s*\]")
_REF_MAPPING = re.compile(r"//\s*(initial|final):\s*(\S+)\s*->\s*v\[(\d+)\]")
_REF_ARITY = {"u": (3, 1), "h": (0, 1), "x": (0, 1), "rz": (1, 1),
              "cx": (0, 2), "swap": (0, 2)}
# OpenQASM 2: the version and include lines are skipped, as word lists; these
# statements are refused wherever they stand.
_REF_HEADER_WORDS = (["OPENQASM", "2.0"], ["include", '"qelib1.inc"'])
_REF_UNSUPPORTED = ("creg", "measure", "barrier", "reset")


def reference_parse_qasm(text: str):
    """(circuit, initial_map, final_map), raising QasmError on bad input."""
    from qroute.circuit import Circuit, Gate
    from qroute.qasm import QasmError

    initial: dict[str, int] = {}
    final: dict[str, int] = {}
    circuit = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _REF_MAPPING.search(raw)
        if m:
            (initial if m.group(1) == "initial" else final)[m.group(2)] = int(m.group(3))
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        for stmt in filter(None, (s.strip() for s in line.split(";"))):
            if stmt.startswith("qreg"):
                qm = _REF_QREG.fullmatch(stmt)
                if not qm:
                    raise QasmError(lineno, f"bad qreg statement {stmt!r}")
                if circuit is not None:
                    raise QasmError(lineno, "duplicate qreg")
                circuit = Circuit([f"q[{i}]" for i in range(int(qm.group(1)))])
                continue
            if stmt.split() in _REF_HEADER_WORDS:
                continue
            sm = _REF_STMT.match(stmt)
            if sm and sm.group("name").lower() in _REF_UNSUPPORTED:
                raise QasmError(lineno, "unsupported statement")
            if circuit is None:
                raise QasmError(lineno, "statement before qreg header")
            if not sm:
                raise QasmError(lineno, f"cannot parse {stmt!r}")
            name = sm.group("name").lower()
            if name not in _REF_ARITY:
                raise QasmError(lineno, f"unknown gate {name!r}")
            n_params, n_args = _REF_ARITY[name]
            raw_params = sm.group("params")
            try:
                params = tuple(float(p) for p in raw_params.split(",")) if raw_params else ()
            except ValueError:
                raise QasmError(lineno, f"bad parameters {raw_params!r}") from None
            if len(params) != n_params:
                raise QasmError(lineno, f"{name} expects {n_params} parameters")
            args = [_REF_ARG.fullmatch(a.strip()) for a in sm.group("args").split(",")]
            if not all(args):
                raise QasmError(lineno, f"bad qubit arguments {sm.group('args')!r}")
            if len(args) != n_args:
                raise QasmError(lineno, f"{name} expects {n_args} qubit arguments")
            qubits = tuple(int(a.group(1)) for a in args)
            for q in qubits:
                if q >= circuit.n_qubits:
                    raise QasmError(lineno, f"qubit index {q} out of range")
            if n_args == 2 and qubits[0] == qubits[1]:
                raise QasmError(lineno, f"{name} operands must differ")
            # Built without Gate's checks: the reference accepts non-finite
            # parameters, which Gate refuses.
            circuit.append(tuple.__new__(Gate, (name, qubits, params)))
    if circuit is None:
        raise QasmError(0, "missing qreg header")
    return circuit, (initial or None), (final or None)


def reference_emit_qasm(circuit, initial_map=None, final_map=None) -> str:
    lines: list[str] = []
    for q, v in (initial_map or {}).items():
        lines.append(f"// initial: {q} -> v[{v}]")
    lines.append(f"qreg q[{circuit.n_qubits}];")
    for g in circuit.gates:
        params = f"({','.join(repr(float(p)) for p in g.params)})" if g.params else ""
        args = ",".join(f"q[{q}]" for q in g.qubits)
        lines.append(f"{g.name}{params} {args};")
    for q, v in (final_map or {}).items():
        lines.append(f"// final: {q} -> v[{v}]")
    return "\n".join(lines) + "\n"


STATEVECTOR_MAX_QUBITS = 10
_GATE_MATRICES = {
    "h": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
    "x": np.array([[0, 1], [1, 0]]),
    "cx": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
}


def _gate_matrix(name: str, params) -> np.ndarray:
    if name == "u":
        theta, phi, lam = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -np.exp(1j * lam) * s],
                         [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]])
    if name == "rz":
        return np.diag([np.exp(-0.5j * params[0]), np.exp(0.5j * params[0])])
    return _GATE_MATRICES[name]


def simulate(gates, state: np.ndarray) -> np.ndarray:
    """``state`` after ``gates`` in order.

    ``state`` has shape ``(2,) * n``, axis q being qubit q, for n at most
    ``STATEVECTOR_MAX_QUBITS``.  Each gate is a ``(name, qubits, params)``
    tuple of u, h, x, rz, cx or swap; a two-qubit gate's matrix is indexed
    by its first qubit's bit, then its second's."""
    if state.ndim > STATEVECTOR_MAX_QUBITS:
        raise ValueError(f"{state.ndim} qubits, at most {STATEVECTOR_MAX_QUBITS} simulated")
    for name, qubits, params in gates:
        k = len(qubits)
        matrix = _gate_matrix(name, params).reshape((2,) * 2 * k)
        state = np.tensordot(matrix, state, axes=(list(range(k, 2 * k)), list(qubits)))
        state = np.moveaxis(state, list(range(k)), list(qubits))
    return state


def place_state(state: np.ndarray, vertices: list[int], n: int) -> np.ndarray:
    """``state`` on ``len(vertices)`` qubits put on ``n`` qubits: its qubit i
    on qubit ``vertices[i]``, and every other qubit in |0>."""
    rest = [v for v in range(n) if v not in vertices]
    zeros = np.zeros((2,) * len(rest))
    zeros.flat[0] = 1
    return np.moveaxis(np.multiply.outer(state, zeros), list(range(n)), list(vertices) + rest)
