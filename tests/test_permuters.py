"""The routing validator every permuter is checked with."""
import pytest

from qroute.graphs import complete_graph, path_graph
from qroute.perm import PartialPermutation
from qroute.permuters import check_routing

REVERSAL_P3 = PartialPermutation(3, [2, 1, 0])


@pytest.mark.parametrize("graph,pp,steps", [
    (path_graph(3), REVERSAL_P3, [[(0, 1)], [(1, 2)], [(0, 1)]]),
    (complete_graph(3), PartialPermutation(3, [1, 2, 0]), [[(0, 1)], [(0, 2)]]),
    (path_graph(3), PartialPermutation(3, [None, 0, None]), [[(1, 0)]]),
    (path_graph(2), PartialPermutation(2, [0, 1]), []),
], ids=["p3-reversal", "k3-cycle", "partial", "resolved"])
def test_accepts_routing(graph, pp, steps):
    before = pp.key()
    check_routing(graph, pp, steps)
    assert pp.key() == before


@pytest.mark.parametrize("steps,message", [
    ([[(0, 1)], [(0, 2)], [(0, 1)]], r"step 1: \(0, 2\) is not an edge"),
    ([[(0, 1), (1, 2)]], "step 0: vertex 1 is swapped twice"),
    ([[(0, 1)], [(1, 2)]], "2 steps leave .* unresolved"),
    ([], "0 steps leave .* unresolved"),
], ids=["non-edge", "vertex-twice", "unresolved", "no-steps"])
def test_rejects_bad_routing(steps, message):
    with pytest.raises(ValueError, match=message):
        check_routing(path_graph(3), REVERSAL_P3, steps)


# 0.0 == 0, so has_edge alone would accept (0.0, 1.0); each endpoint is read first.
def test_rejects_float_vertices():
    with pytest.raises(ValueError, match="^step 0: vertex 0.0 is not an integer"):
        check_routing(path_graph(3), PartialPermutation(3, [1, 0, 2]), [[(0.0, 1.0)]])


def test_rejects_size_mismatch():
    with pytest.raises(ValueError, match="permutation on 2 vertices, graph on 3"):
        check_routing(path_graph(3), PartialPermutation(2, [1, 0]), [[(0, 1)]])
