"""The permuters, each routing checked by the ``is_routing`` oracle."""
import itertools
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (is_routing, reference_edges, routing_number_table, routing_size_table,
                     swap_state)
from qroute.graphs import complete_graph, grid_graph, path_graph
from qroute.perm import PartialPermutation
from qroute.permuters import chain, route


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
            assert pp.forward == list(forward)
            assert is_routing(edges, forward, steps), (graph, forward, steps)
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
    assert pp.forward == forward
    assert is_routing(reference_edges(graph), forward, steps), (graph, forward, steps)
    assert_every_swap_moves_a_token(forward, steps)
    if graph.kind == "path":
        assert len(steps) <= graph.n
    else:
        assert (len(steps), sum(map(len, steps))) == complete_optimum(forward)


def test_route_without_router():
    with pytest.raises(NotImplementedError, match="no router for grid graphs"):
        route(grid_graph(2, 2), PartialPermutation(4))


# A request on another number of vertices than the graph's is refused, not
# routed onto vertices the graph lacks.
@pytest.mark.parametrize("permuter", [route, chain])
def test_permuters_refuse_size_mismatch(permuter):
    with pytest.raises(ValueError, match="^permutation on 4 vertices, graph on 3$"):
        permuter(path_graph(3), PartialPermutation(4, [3, 2, 1, 0]))
    with pytest.raises(ValueError, match="^permutation on 2 vertices, graph on 3$"):
        permuter(path_graph(3), PartialPermutation(2, [1, None]))


# The chain walks one token along a path of blanks, one SWAP per step.
def test_chain_walks_one_token():
    graph = grid_graph(3, 3)
    pp = PartialPermutation.from_mapping(9, {0: 8, 3: 3})
    forward = list(pp.forward)
    steps = chain(graph, pp)
    assert pp.forward == forward
    assert is_routing(reference_edges(graph), forward, steps)
    assert steps == [[(0, 1)], [(1, 2)], [(2, 5)], [(5, 8)]]
    done = PartialPermutation.from_mapping(9, {3: 3})
    assert chain(graph, done) == [] and done.forward == [None] * 3 + [3] + [None] * 5


@pytest.mark.parametrize("mapping", [{0: 2, 2: 0}, {0: 2, 1: 1}],
                         ids=["two-tokens-off", "walk-through-token"])
def test_chain_refuses_other_requests(mapping):
    with pytest.raises(ValueError, match="the chain routes one token along a path of blanks"):
        chain(path_graph(3), PartialPermutation.from_mapping(3, mapping))
