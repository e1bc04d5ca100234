"""An independent check of a routed circuit against its input.

It shares no code with the transformer, placers or permuters: one walker
replays both circuits gate by gate, reading of the graph only its distances.
Map vertices are read as requests read them.  Every ``swap``, in the input or
in the output, moves qubit states rather than acting on them.  A state is
named by the input qubit it starts on; in the output it starts on that
qubit's ``initial_map`` vertex.  Each other gate is recorded, for each state
it acts on, as (name, parameters, operand position, partner state).
"""
from __future__ import annotations

import numpy as np

from .circuit import Circuit, Gate
from .graphs import ArchitectureGraph
from .perm import read_vertex


def verify(circuit: Circuit, graph: ArchitectureGraph, routed: Circuit,
           initial_map: dict[str, int], final_map: dict[str, int]) -> None:
    """Raise ValueError unless ``routed`` is ``circuit`` run on ``graph``.

    That is: each map gives every qubit name of ``circuit`` its own vertex;
    every two-qubit gate of ``routed`` sits on an edge; each state meets the
    same sequence of non-swap gates as in the input; and each state ends on
    the ``final_map`` vertex of the input qubit it ends on.  The error names
    the first gate or state that fails.
    """
    names, n = circuit.qubits, circuit.n_qubits
    wire = list(range(n))  # the state on each input qubit
    want = _replay(circuit.gates, wire, n)
    if routed.n_qubits > graph.n:
        raise ValueError(f"routed circuit has {routed.n_qubits} qubits, "
                         f"the graph {graph.n} vertices")
    vertex: list[int | None] = [None] * graph.n  # the state on each vertex
    for s, v in enumerate(_vertices(initial_map, names, graph.n, "initial")):
        vertex[v] = s
    got = _replay(routed.gates, vertex, n, graph.distances())
    for s in range(n):
        if got[s] != want[s]:
            at = next((i for i, (g, w) in enumerate(zip(got[s], want[s])) if g != w),
                      min(len(got[s]), len(want[s])))
            raise ValueError(f"the state starting on {names[s]} meets other gates than in "
                             f"the input, from its gate {at} on")
    end = {s: v for v, s in enumerate(vertex) if s is not None}
    for w, v in enumerate(_vertices(final_map, names, graph.n, "final")):
        if end[wire[w]] != v:
            raise ValueError(f"final map puts {names[w]} on vertex {v}, "
                             f"but its state ends on vertex {end[wire[w]]}")


def _replay(gates: list[Gate], holder: list[int | None], n: int,
            dist: np.ndarray | None = None) -> list[list[tuple]]:
    """The non-swap gates each of the ``n`` states meets when ``gates`` run
    with state ``holder[w]`` on wire ``w``; a swap exchanges two entries of
    ``holder``.  Given the graph's distances ``dist``, the wires are vertices:
    ValueError for a two-qubit gate off an edge or a gate on an empty one."""
    seqs: list[list[tuple]] = [[] for _ in range(n)]
    for k, (name, qs, params) in enumerate(gates):
        if dist is not None and len(qs) == 2 and dist[qs[0], qs[1]] != 1:
            raise ValueError(f"gate {k}: {name} on vertices {qs} is not on an edge")
        if name == "swap":
            a, b = qs
            holder[a], holder[b] = holder[b], holder[a]
            continue
        states = [holder[w] for w in qs]
        if None in states:
            raise ValueError(f"gate {k}: {name} on vertices {qs} acts on a vertex with no qubit")
        for p, s in enumerate(states):
            seqs[s].append((name, params, p, states[1 - p] if len(states) == 2 else None))
    return seqs


def _vertices(mapping: dict[str, int], names: list[str], n: int, what: str) -> list[int]:
    """The vertex ``mapping`` gives each name, in order, read by :func:`read_vertex`;
    ValueError unless its keys are exactly ``names`` and its vertices are distinct."""
    if sorted(mapping) != sorted(names):
        raise ValueError(f"{what} map names {sorted(mapping)}, the circuit {sorted(names)}")
    vertices = [read_vertex(mapping[q], n, f"{what} map entry {q!r}:") for q in names]
    if len(set(vertices)) != len(vertices):
        raise ValueError(f"{what} map vertices {vertices} are not distinct vertices of 0..{n - 1}")
    return vertices
