"""The exact routing oracles agree with each other and with known values."""
import itertools
import math

import numpy as np
import pytest

from oracles import (bfs_routing_number, bfs_routing_size, connected_small_graphs, is_routing,
                     place_state, routing_number_table, routing_size_table, simulate)

P2, P3, K3 = [(0, 1)], [(0, 1), (1, 2)], [(0, 1), (0, 2), (1, 2)]


@pytest.mark.parametrize("edges,forward,steps", [
    (P3, [2, 1, 0], [[(0, 1)], [(1, 2)], [(0, 1)]]),
    (K3, [1, 2, 0], [[(0, 1)], [(0, 2)]]),
    (P3, [None, 0, None], [[(1, 0)]]),
    (P2, [0, 1], []),
], ids=["p3-reversal", "k3-cycle", "partial", "resolved"])
def test_is_routing_accepts(edges, forward, steps):
    assert is_routing(edges, forward, steps)


# One case per way to fail: a step off the edges, a step that is no matching,
# and a replay that ends with a token off its destination.
@pytest.mark.parametrize("steps", [
    [[(0, 1)], [(0, 2)], [(0, 1)]],
    [[(0, 1), (1, 2)]],
    [[(0, 1)], [(1, 2)]],
    [],
], ids=["non-edge", "vertex-twice", "unresolved", "no-steps"])
def test_is_routing_rejects(steps):
    assert not is_routing(P3, [2, 1, 0], steps)


@pytest.mark.parametrize("table,search", [(routing_number_table, bfs_routing_number),
                                          (routing_size_table, bfs_routing_size)],
                         ids=["number", "size"])
def test_table_equals_search_on_every_small_graph(table, search):
    for n, edges in connected_small_graphs(4):
        got = table(edges, n)
        assert len(got) == math.factorial(n)
        for pi in itertools.permutations(range(n)):
            assert got[pi] == search(edges, pi), (edges, pi)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_path_reversal_needs_n_steps(n):
    edges = [(i, i + 1) for i in range(n - 1)]
    reversal = tuple(reversed(range(n)))
    assert bfs_routing_number(edges, reversal) == n
    assert routing_number_table(edges, n)[reversal] == n


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_complete_graph_routes_in_two_steps(n):
    table = routing_number_table(list(itertools.combinations(range(n), 2)), n)
    assert len(table) == math.factorial(n)
    assert max(table.values()) <= 2


# The simulator's gates: u(pi, 0, pi) is x and u(pi/2, 0, pi) is h; h then cx
# makes a Bell pair; swap exchanges its qubits' states; rz only phases.
def test_statevector_gates():
    zero = np.zeros((2, 2), dtype=complex)
    zero[0, 0] = 1
    bell = simulate([("h", (0,), ()), ("cx", (0, 1), ())], zero)
    assert np.allclose(bell, np.array([[1, 0], [0, 1]]) / math.sqrt(2))
    one_zero = simulate([("x", (0,), ())], zero)
    assert np.allclose(simulate([("swap", (0, 1), ())], one_zero), one_zero.T)
    assert np.allclose(simulate([("u", (0,), (math.pi, 0.0, math.pi))], zero), one_zero)
    assert np.allclose(simulate([("u", (0,), (math.pi / 2, 0.0, math.pi)), ("h", (0,), ())], zero),
                       zero)
    assert np.allclose(abs(simulate([("rz", (0,), (0.7,))], bell)), abs(bell))
    assert np.allclose(place_state(np.array([0, 1]), [2], 3)[0, 0], [0, 1])
