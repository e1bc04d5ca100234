"""The routing validator every permuter is checked with, and the permuters."""
import itertools
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (all_matchings, connected_small_graphs, reference_edges, resolved,
                     routing_number_table, routing_size_table, swap_state)
from qroute.graphs import ArchitectureGraph, complete_graph, grid_graph, path_graph
from qroute.perm import PartialPermutation
from qroute.permuters import chain, check_routing, route

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


def over_completions(table, n):
    """A total-permutation table of ``routing_number_table`` or
    ``routing_size_table`` extended to every partial request: a partial
    one's value is the least over its completions."""
    exact = {}
    for perm, value in table.items():
        for blank in itertools.product([False, True], repeat=n):
            key = tuple(None if b else t for t, b in zip(perm, blank))
            exact[key] = min(exact.get(key, value), value)
    return exact


def complete_optimum(forward):
    """(steps, swaps) of an optimal routing of ``forward`` on a complete graph.

    Close each chain (a token on a vertex no token is bound for, followed to
    the blank it ends on) into a cycle of its own and leave every other blank
    fixed: a cycle of k vertices takes k - 1 swaps, and one step if k <= 2."""
    n, bound = len(forward), set(forward)
    lengths, seen = [], [False] * n
    for v in [v for v in range(n) if v not in bound] + list(range(n)):
        k = 0
        while v is not None and not seen[v]:
            seen[v], v, k = True, forward[v], k + 1
        lengths.append(k)
    longest = max(lengths, default=0)
    return (0 if longest <= 1 else 1 if longest == 2 else 2), sum(k - 1 for k in lengths if k)


def assert_every_swap_moves_a_token(forward, steps):
    state = tuple(forward)
    for step in steps:
        assert step, (forward, steps)
        for u, v in step:
            assert state[u] is not None or state[v] is not None, (forward, steps)
            state = swap_state(state, u, v)


# Every request on every path and complete graph of at most 6 vertices: the
# routing checks, its steps lie between the exact routing number and the
# kind's bound (n on a path), and every swap moves a token.  A complete graph
# takes exactly rt steps, total or partial, and the fewest swaps.
def test_route_bounds_exhaustively():
    gaps = {(kind, total): [] for kind in ("path", "complete") for total in (True, False)}
    for n, build in itertools.product(range(1, 7), [path_graph, complete_graph]):
        graph = build(n)
        edges = sorted(reference_edges(graph))
        exact_steps = over_completions(routing_number_table(edges, n), n)
        exact_swaps = (over_completions(routing_size_table(edges, n), n)
                       if graph.kind == "complete" else None)
        for forward, exact in exact_steps.items():
            pp = PartialPermutation(n, forward)
            steps = route(graph, pp)
            check_routing(graph, pp, steps)
            assert_every_swap_moves_a_token(forward, steps)
            assert exact <= len(steps) <= n, (graph, forward, steps)
            if exact_swaps is not None:
                assert ((len(steps), sum(map(len, steps))) == complete_optimum(forward)
                        == (exact, exact_swaps[forward])), (forward, steps)
            gaps[graph.kind, None not in forward].append(len(steps) - exact)
    for (kind, total), gap in gaps.items():
        print(f"{kind}, {'total' if total else 'partial'}: {len(gap)} requests, "
              f"gap to rt mean {statistics.mean(gap):.3f}, max {max(gap)}")
    assert max(gaps["complete", True] + gaps["complete", False]) == 0


# 2 -> 0 with 0 and 1 blank is a chain of one token: one step, where a cycle
# through the blank on 1 as well would take two.
def test_route_closes_a_chain_on_its_own():
    assert route(complete_graph(3), PartialPermutation(3, [None, None, 0])) == [[(0, 2)]]


@st.composite
def partial_requests(draw):
    n = draw(st.integers(7, 16))
    blank = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [None if b else t for t, b in zip(draw(st.permutations(range(n))), blank)]


# Beyond the exhaustive range: a path takes at most n steps, a complete graph
# the optimum, and no swap exchanges two blanks.
@given(partial_requests(), st.sampled_from([path_graph, complete_graph]))
@settings(max_examples=200)
def test_route_partial_requests(forward, build):
    graph, pp = build(len(forward)), PartialPermutation(len(forward), forward)
    steps = route(graph, pp)
    check_routing(graph, pp, steps)
    assert_every_swap_moves_a_token(forward, steps)
    if graph.kind == "path":
        assert len(steps) <= graph.n
    else:
        assert (len(steps), sum(map(len, steps))) == complete_optimum(forward)


def test_route_without_router():
    with pytest.raises(NotImplementedError, match="no router for grid graphs"):
        route(grid_graph(2, 2), PartialPermutation(4))


# The chain walks one token along a path of blanks, one SWAP per step.
def test_chain_walks_one_token():
    graph = grid_graph(3, 3)
    pp = PartialPermutation.from_mapping(9, {0: 8, 3: 3})
    steps = chain(graph, pp)
    check_routing(graph, pp, steps)
    assert steps == [[(0, 1)], [(1, 2)], [(2, 5)], [(5, 8)]]
    assert chain(graph, PartialPermutation.from_mapping(9, {3: 3})) == []


@pytest.mark.parametrize("mapping", [{0: 2, 2: 0}, {0: 2, 1: 1}],
                         ids=["two-tokens-off", "walk-through-token"])
def test_chain_refuses_other_requests(mapping):
    with pytest.raises(ValueError, match="the chain routes one token along a path of blanks"):
        chain(path_graph(3), PartialPermutation.from_mapping(3, mapping))
