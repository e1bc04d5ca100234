"""The routing validator every permuter is checked with."""
import pytest
from hypothesis import given, settings, strategies as st

from oracles import all_matchings, connected_small_graphs, resolved, swap_state
from qroute.graphs import ArchitectureGraph, complete_graph, path_graph
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


# The error counts the tokens left off their destinations and names the first.
def test_unresolved_error_names_first_token():
    with pytest.raises(ValueError, match=r"^2 steps leave 2 tokens unresolved: "
                                         r"vertex 0 holds the token for 1$"):
        check_routing(path_graph(3), REVERSAL_P3, [[(0, 1)], [(1, 2)]])


# 0.0 == 0, so a lax read would accept (0.0, 1.0); each endpoint is read first.
def test_rejects_float_vertices():
    with pytest.raises(ValueError, match="^step 0: vertex 0.0 is not an integer"):
        check_routing(path_graph(3), PartialPermutation(3, [1, 0, 2]), [[(0.0, 1.0)]])


def test_rejects_size_mismatch():
    with pytest.raises(ValueError, match="permutation on 2 vertices, graph on 3"):
        check_routing(path_graph(3), PartialPermutation(2, [1, 0]), [[(0, 1)]])


SMALL_GRAPHS = connected_small_graphs(5)


@st.composite
def routing_cases(draw):
    """(n, edges, forward, steps) on a connected graph of 2..5 vertices.

    ``forward`` is either the start that ``steps`` resolves (the resolved
    state replayed backwards, each step being an involution) or a random
    one; either may hold blanks.  ``steps`` may then be corrupted with a
    non-edge, a vertex used twice in a step, or a dropped last step.
    """
    n, edges = draw(st.sampled_from(SMALL_GRAPHS))
    matchings = draw(st.lists(st.sampled_from(all_matchings(edges)), max_size=6))
    steps = [[(v, u) if draw(st.booleans()) else (u, v) for u, v in m] for m in matchings]
    blank = [False] * n
    if draw(st.booleans()):
        blank = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if draw(st.booleans()):
        state = tuple(None if b else v for v, b in enumerate(blank))
        for m in reversed(steps):
            for u, v in m:
                state = swap_state(state, u, v)
        forward = list(state)
    else:
        perm = draw(st.permutations(range(n)))
        forward = [None if b else t for t, b in zip(perm, blank)]
    corruption = draw(st.sampled_from(["none", "non-edge", "twice", "drop-last"]))
    at = draw(st.integers(0, len(steps)))
    if corruption == "non-edge":
        non_edges = [(u, v) for u in range(n) for v in range(n)
                     if (min(u, v), max(u, v)) not in edges]
        steps.insert(at, [draw(st.sampled_from(non_edges))])
    elif corruption == "twice":
        e = draw(st.sampled_from(edges))
        steps.insert(at, [e, draw(st.sampled_from([f for f in edges if set(e) & set(f)]))])
    elif corruption == "drop-last":
        steps = steps[:-1]
    return n, edges, forward, steps


def oracle_accepts(edges, forward, steps):
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


@given(routing_cases())
@settings(max_examples=300)
def test_check_routing_agrees_with_oracle(case):
    n, edges, forward, steps = case
    graph, pp = ArchitectureGraph(n, edges), PartialPermutation(n, forward)
    if oracle_accepts(edges, forward, steps):
        check_routing(graph, pp, steps)
    else:
        with pytest.raises(ValueError):
            check_routing(graph, pp, steps)
    assert pp.forward == forward
