"""The exact routing oracles agree with each other and with known values."""
import itertools
import math

import pytest

from oracles import (bfs_routing_number, bfs_routing_size, connected_small_graphs,
                     routing_number_table, routing_size_table)


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
