"""Circuit transformation: rewrite a circuit so that every two-qubit gate acts
on an edge of an architecture graph.

:func:`transform` walks ``circuit.layers()`` once.  Logical qubit i starts on
vertex i.  In each layer, the one-qubit gates are emitted at their qubits'
vertices; then, in rounds until none is left, the placer chooses an edge for
some of the two-qubit gates (see :mod:`qroute.placement`), the permuter
routes their qubits there (see :mod:`qroute.permuters`), and the routing's
SWAPs and then the placed gates are emitted.  An input ``swap`` is placed and
emitted like any other two-qubit gate.

Two placer/permuter pairs are in use: the parallel pair
``(matching_placer, route)`` and the naive chain ``(naive_placer, chain)``,
the baseline the parallel one is compared against.
"""
from __future__ import annotations

from collections.abc import Callable

from .circuit import Circuit, Gate, layers
from .graphs import ArchitectureGraph, Edge
from .perm import PartialPermutation
from .placement import Place


def transform(circuit: Circuit, graph: ArchitectureGraph,
              placer: Callable[[ArchitectureGraph], Place],
              permuter: Callable[[ArchitectureGraph, PartialPermutation], list[list[Edge]]],
              ) -> tuple[Circuit, dict[str, int], dict[str, int]]:
    """``(routed, initial_map, final_map)`` for ``circuit`` on ``graph``.

    ``routed`` acts on the graph's vertices, qubit v being vertex v, and the
    maps give each logical qubit name its vertex at the start and at the end.
    ValueError if the circuit has more qubits than the graph has vertices,
    or if the placer places no gate of those left; NotImplementedError, from
    the permuter, if it has no router for the graph's kind.
    """
    n = circuit.n_qubits
    if n > graph.n:
        raise ValueError(f"{n} logical qubits do not fit on the {graph.n} vertices of the graph")
    # The empty request needs no step, so a permuter without a router for
    # this kind fails here rather than at the first gate that needs one.
    permuter(graph, PartialPermutation.from_mapping(graph.n, {}))
    place = placer(graph)
    at = list(range(n))  # the vertex of each qubit
    on = [*range(n), *[None] * (graph.n - n)]  # the qubit on each vertex
    gates, out = circuit.gates, []
    for layer in layers(circuit):
        for i in layer.gates:
            g = gates[i]
            if len(g.qubits) == 1:
                out.append(Gate(g.name, (at[g.qubits[0]],), g.params))
        left = [gates[i] for i, _ in layer.two_qubit]
        while left:
            placed = place(at, [g.qubits for g in left])
            if not placed:
                raise ValueError(f"the placer placed none of the {len(left)} gates left")
            request = {at[q]: v for i, e in placed.items() for q, v in zip(left[i].qubits, e)}
            for step in permuter(graph, PartialPermutation.from_mapping(graph.n, request)):
                for u, v in step:
                    out.append(Gate("swap", (u, v)))
                    on[u], on[v] = on[v], on[u]
                    for w in (u, v):
                        if on[w] is not None:
                            at[on[w]] = w
            for i in placed:
                g = left[i]
                out.append(Gate(g.name, (at[g.qubits[0]], at[g.qubits[1]]), g.params))
            left = [g for i, g in enumerate(left) if i not in placed]
    routed = Circuit([f"q[{v}]" for v in range(graph.n)], out)
    return routed, {q: i for i, q in enumerate(circuit.qubits)}, dict(zip(circuit.qubits, at))
