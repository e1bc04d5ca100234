"""An independent check of a routed circuit against its input.

It shares no code with the transformer: it replays both circuits gate by
gate, and reads of the graph only its distances.  Every ``swap``, in the
input or in the output, moves qubit states rather than acting on them.  A
state is named by the input qubit it starts on; in the output it starts on
that qubit's ``initial_map`` vertex.  Each other gate is recorded, for each
state it acts on, as (name, parameters, operand position, partner state).
"""
from __future__ import annotations

from .circuit import Circuit
from .graphs import ArchitectureGraph


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
    want: list[list[tuple]] = [[] for _ in range(n)]
    for name, qs, params in circuit.gates:
        if name == "swap":
            a, b = qs
            wire[a], wire[b] = wire[b], wire[a]
        else:
            _record(want, name, params, [wire[q] for q in qs])

    if routed.n_qubits > graph.n:
        raise ValueError(f"routed circuit has {routed.n_qubits} qubits, "
                         f"the graph {graph.n} vertices")
    vertex: list[int | None] = [None] * graph.n  # the state on each vertex
    for s, v in enumerate(_vertices(initial_map, names, graph.n, "initial")):
        vertex[v] = s
    dist = graph.distances()
    got: list[list[tuple]] = [[] for _ in range(n)]
    for k, (name, qs, params) in enumerate(routed.gates):
        if len(qs) == 2 and dist[qs[0], qs[1]] != 1:
            raise ValueError(f"gate {k}: {name} on vertices {qs} is not on an edge")
        if name == "swap":
            a, b = qs
            vertex[a], vertex[b] = vertex[b], vertex[a]
            continue
        states = [vertex[v] for v in qs]
        if None in states:
            raise ValueError(f"gate {k}: {name} on vertices {qs} acts on a vertex with no qubit")
        _record(got, name, params, states)
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


def _record(seqs: list[list[tuple]], name: str, params: tuple, states: list[int]) -> None:
    """Append a gate on ``states`` to each state's sequence."""
    for p, s in enumerate(states):
        seqs[s].append((name, params, p, states[1 - p] if len(states) == 2 else None))


def _vertices(mapping: dict[str, int], names: list[str], n: int, what: str) -> list[int]:
    """The vertex ``mapping`` gives each name, in order; ValueError unless its
    keys are exactly ``names`` and its vertices are distinct vertices of 0..n-1."""
    if sorted(mapping) != sorted(names):
        raise ValueError(f"{what} map names {sorted(mapping)}, the circuit {sorted(names)}")
    vertices = [mapping[q] for q in names]
    if len(set(vertices)) != len(vertices) or not all(0 <= v < n for v in vertices):
        raise ValueError(f"{what} map vertices {vertices} are not distinct vertices of 0..{n - 1}")
    return vertices
