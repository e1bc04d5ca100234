"""Memory that built circuits and graphs take, measured with tracemalloc.

The circuit bounds are per gate, for the 5,280-gate ``random_circuit(16, 60)``.
A circuit that gives every gate its own operand tuple, its own parameterless
``Gate`` and numpy scalar angles retains about 230 B per gate when generated
and 281 B per gate when parsed; sharing brings these to about 172 and 206 B.
A 1,024-vertex int64 distance matrix is 8 MiB, and one float64 shortest-path
call over all rows peaks at 16 MiB; int16 and blocks of rows bring these to 2
and about 6 MiB.  A graph holds no edge set, so a 4,096-vertex complete graph
retains its 32 MiB int16 matrix and nothing more; an edge set would add about
8.4 million tuples, which its 2,048 slots, read from the matrix, also avoid.
"""
import gc
import tracemalloc

import pytest

from qroute.circuit import random_circuit
from qroute.graphs import ArchitectureGraph, complete_graph, grid_graph, modular_graph
from qroute.matching import maximal_matching
from qroute.qasm import emit_qasm, parse_qasm


def traced_bytes(build):
    """What ``build()`` returns, the bytes still allocated while it is held,
    and the most allocated at once while it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
        return built, current - before, peak - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def deep16_text():
    # Generating once first also leaves no first-call allocation to the measured calls.
    return emit_qasm(random_circuit(16, 60, seed=0))


def test_parsed_circuit_retains_at_most_240_bytes_per_gate(deep16_text):
    (circuit, _, _), size, _ = traced_bytes(lambda: parse_qasm(deep16_text))
    assert len(circuit) == 5280
    assert size / len(circuit) <= 240


def test_generated_circuit_retains_at_most_200_bytes_per_gate(deep16_text):
    circuit, size, _ = traced_bytes(lambda: random_circuit(16, 60, seed=0))
    assert len(circuit) == 5280
    assert size / len(circuit) <= 200


def test_grid_distances_retain_at_most_2_1_mib():
    g, size, _ = traced_bytes(lambda: grid_graph(32, 32))
    assert g.distances().shape == (1024, 1024)
    assert size <= 2.1 * 2**20


def test_generic_distances_peak_at_most_7_mib():
    edges = {(i, i + 1) for i in range(1023)}
    g, _, peak = traced_bytes(lambda: ArchitectureGraph(1024, edges))
    assert g.distances()[0, -1] == 1023
    assert peak <= 7 * 2**20


@pytest.mark.parametrize("build", [lambda: complete_graph(4096), lambda: modular_graph(4096, 1)],
                         ids=["complete", "modular"])
def test_4096_vertex_graph_retains_only_its_matrix(build):
    g, size, _ = traced_bytes(build)
    assert g.n == 4096 and g.distances()[0, -1] == 1
    assert size <= 32.1 * 2**20


def test_4096_vertex_complete_graph_slots_peak_under_1_mib():
    g = complete_graph(4096)
    slots, _, peak = traced_bytes(lambda: maximal_matching(g))
    assert len(slots) == 2048
    assert peak < 2**20
