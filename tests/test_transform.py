"""transform routes circuits end to end, and the verifier checks what it emits."""
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import STATEVECTOR_MAX_QUBITS, place_state, simulate
from qroute.circuit import Circuit, Gate, random_circuit
from qroute.graphs import ArchitectureGraph, build_architecture, grid_graph, path_graph
from qroute.permuters import chain, route
from qroute.placement import matching_placer, naive_placer
from qroute.transform import transform
from qroute.verify import verify

PARALLEL, NAIVE = (matching_placer, route), (naive_placer, chain)


@st.composite
def routing_jobs(draw, max_vertices=16):
    """(circuit, graph, pair): a random circuit, with input swaps mixed in, on a
    graph of at most ``max_vertices`` vertices (at least 8); the parallel pair
    on path and complete only."""
    pair = draw(st.sampled_from([PARALLEL, NAIVE]))
    kind = draw(st.sampled_from(["path", "complete"] + (["grid", "modular"] if pair is NAIVE
                                                         else [])))
    if kind in ("path", "complete"):
        graph = build_architecture(f"{kind}:{draw(st.integers(2, max_vertices))}")
    else:
        rows = draw(st.integers(1, 4))
        graph = build_architecture(
            f"{kind}:{rows}x{draw(st.integers(2, min(4, max_vertices // rows)))}")
    n = draw(st.integers(2, graph.n))
    circuit = random_circuit(n, draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**32 - 1)))
    for at in sorted(draw(st.lists(st.integers(0, len(circuit)), max_size=4)), reverse=True):
        a, b = draw(st.permutations(range(n)))[:2]
        circuit.gates.insert(at, Gate("swap", (a, b)))
    return circuit, graph, pair


@given(routing_jobs())
@settings(max_examples=150, deadline=None)
def test_every_routed_circuit_verifies(job):
    circuit, graph, (placer, permuter) = job
    routed, initial, final = transform(circuit, graph, placer, permuter)
    assert initial == {q: i for i, q in enumerate(circuit.qubits)}
    verify(circuit, graph, routed, initial, final)


# Run as statevectors, each routed circuit maps a random input state, placed
# by the initial map with the unused vertices in |0>, to the input circuit's
# output placed by the final map.  The verifier is not consulted.
@given(routing_jobs(max_vertices=STATEVECTOR_MAX_QUBITS), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_every_routed_circuit_acts_like_its_input(job, seed):
    circuit, graph, (placer, permuter) = job
    routed, initial, final = transform(circuit, graph, placer, permuter)
    shape, rng = (2,) * circuit.n_qubits, np.random.default_rng(seed)
    state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    state /= np.linalg.norm(state)
    got = simulate(routed.gates, place_state(state, [initial[q] for q in circuit.qubits], graph.n))
    want = place_state(simulate(circuit.gates, state), [final[q] for q in circuit.qubits], graph.n)
    np.testing.assert_allclose(got, want, atol=1e-9)


@pytest.mark.parametrize("spec,n_qubits,n_layers", [("grid:4x4", 16, 60),
                                                    ("grid:32x32", 64, 10)],
                         ids=["deep16", "grid1024"])
@pytest.mark.parametrize("seed", range(4))
def test_naive_chain_on_benchmark_shapes(spec, n_qubits, n_layers, seed):
    circuit, graph = random_circuit(n_qubits, n_layers, seed=seed), build_architecture(spec)
    verify(circuit, graph, *transform(circuit, graph, *NAIVE))


def test_more_qubits_than_vertices():
    with pytest.raises(ValueError, match="5 logical qubits .* 4 vertices"):
        transform(random_circuit(5, 1, seed=0), path_graph(4), *NAIVE)


# Even a circuit with no two-qubit gate is refused: the pair has no router.
@pytest.mark.parametrize("circuit", [random_circuit(4, 1, seed=0),
                                     Circuit(["a"], [Gate("h", (0,))])], ids=["cx", "one-qubit"])
def test_parallel_pair_without_router(circuit):
    with pytest.raises(NotImplementedError, match="no router for grid graphs"):
        transform(circuit, grid_graph(2, 2), *PARALLEL)


# A star has one slot, so the second gate is deferred to another round; the
# first takes the slot crossed, its qubits on 1 and 2 being nearer to 1 and 0.
def test_matching_placer_defers_gates_beyond_the_slots():
    star = ArchitectureGraph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert matching_placer(star)([1, 2, 3, 4, 0], [(0, 1), (2, 3)]) == {0: (1, 0)}


def test_naive_placer_keeps_adjacent_gates_or_places_the_first():
    place = naive_placer(path_graph(5))
    assert place([0, 1, 2, 3, 4], [(0, 2), (1, 2), (4, 3)]) == {1: (1, 2), 2: (4, 3)}
    assert place([0, 1, 2, 3, 4], [(4, 0), (1, 3)]) == {0: (1, 0)}


def _routed():
    """A circuit routed with SWAPs on a path, and what transform returns for it."""
    circuit, graph = random_circuit(6, 2, seed=5), path_graph(6)
    routed, initial, final = transform(circuit, graph, *NAIVE)
    assert any(g.name == "swap" for g in routed.gates)
    return circuit, graph, routed, initial, final


def _edit(routed, gates):
    return Circuit(routed.qubits, gates)


def test_verifier_rejects_dropped_swap():
    circuit, graph, routed, initial, final = _routed()
    k = next(k for k, g in enumerate(routed.gates) if g.name == "swap")
    broken = _edit(routed, routed.gates[:k] + routed.gates[k + 1:])
    with pytest.raises(ValueError):
        verify(circuit, graph, broken, initial, final)


def test_verifier_rejects_gate_off_an_edge():
    circuit, graph, routed, initial, final = _routed()
    k = next(k for k, g in enumerate(routed.gates) if g.name == "cx")
    u = routed.gates[k].qubits[0]
    far = Gate("cx", (u, next(v for v in range(6) if abs(u - v) > 1)))
    broken = _edit(routed, routed.gates[:k] + [far] + routed.gates[k + 1:])
    with pytest.raises(ValueError, match=rf"gate {k}: cx on vertices .* is not on an edge"):
        verify(circuit, graph, broken, initial, final)


def test_verifier_rejects_swapped_cx_operands():
    circuit, graph, routed, initial, final = _routed()
    k = next(k for k, g in enumerate(routed.gates) if g.name == "cx")
    flipped = Gate("cx", routed.gates[k].qubits[::-1])
    broken = _edit(routed, routed.gates[:k] + [flipped] + routed.gates[k + 1:])
    with pytest.raises(ValueError, match="meets other gates than in the input"):
        verify(circuit, graph, broken, initial, final)


def test_verifier_rejects_wrong_final_map():
    circuit, graph, routed, initial, final = _routed()
    a, b = circuit.qubits[:2]
    wrong = {**final, a: final[b], b: final[a]}
    with pytest.raises(ValueError, match=re.escape(f"final map puts {a} on vertex {final[b]}")):
        verify(circuit, graph, routed, initial, wrong)


IDENTITY = {f"q[{i}]": i for i in range(6)}


@pytest.mark.parametrize("which,mapping,message", [
    ("initial", {"q[0]": 0}, "initial map names"),
    ("initial", {f"q[{i}]": 0 for i in range(6)}, "are not distinct vertices"),
    pytest.param("final", {f"q[{i}]": i + 1 for i in range(6)},
                 re.escape("final map entry 'q[5]': 6 out of range [0, 6)"),
                 id="final-out-of-range"),
    pytest.param("initial", {**IDENTITY, "q[2]": "0"},
                 re.escape("initial map entry 'q[2]': '0' is not an integer"),
                 id="initial-string-vertex"),
    pytest.param("final", {**IDENTITY, "q[3]": 1.5},
                 re.escape("final map entry 'q[3]': 1.5 is not an integer"),
                 id="final-fractional-vertex"),
])
def test_verifier_rejects_malformed_map(which, mapping, message):
    circuit, graph, routed, initial, final = _routed()
    maps = {"initial": initial, "final": final, which: mapping}
    with pytest.raises(ValueError, match=message):
        verify(circuit, graph, routed, maps["initial"], maps["final"])


# Vertex 3 holds no state: the two qubits stand on vertices 0 and 1.
def test_verifier_rejects_gate_on_an_empty_vertex():
    circuit = Circuit(["a", "b"], [Gate("h", (0,))])
    routed = Circuit([f"q[{v}]" for v in range(4)], [Gate("h", (3,))])
    maps = {"a": 0, "b": 1}
    with pytest.raises(ValueError, match=re.escape(
            "gate 0: h on vertices (3,) acts on a vertex with no qubit")):
        verify(circuit, path_graph(4), routed, maps, maps)


def test_verifier_rejects_register_larger_than_the_graph():
    circuit, graph, routed, initial, final = _routed()
    wide = Circuit(routed.qubits + ["q[6]"], routed.gates)
    with pytest.raises(ValueError, match="^routed circuit has 7 qubits, the graph 6 vertices$"):
        verify(circuit, graph, wide, initial, final)


# A placer must place a gate each round.  One that places none is refused at
# once, not called again for the same gates.
def test_placer_that_places_nothing_is_refused():
    def placer(graph):
        calls = []

        def place(at, pairs):
            if calls:
                raise RuntimeError("placer called again")
            calls.append(pairs)
            return {}
        return place

    circuit = Circuit(["a", "b", "c", "d"], [Gate("cx", (0, 3))])
    with pytest.raises(ValueError, match="^the placer placed none of the 1 gates left$"):
        transform(circuit, path_graph(4), placer, chain)


# An input swap moves states; emitted as a SWAP on an edge, it verifies, and
# the final map follows it.
def test_input_swap_moves_states():
    circuit = Circuit(["a", "b", "c"], [Gate("swap", (0, 2)), Gate("cx", (0, 1))])
    routed, initial, final = transform(circuit, path_graph(3), *NAIVE)
    verify(circuit, path_graph(3), routed, initial, final)
    assert [g.name for g in routed.gates].count("swap") == 2
    # A routed circuit that drops the input swap fails.
    dropped = _edit(routed, [g for g in routed.gates if g.name != "swap"])
    with pytest.raises(ValueError):
        verify(circuit, path_graph(3), dropped, initial, final)
