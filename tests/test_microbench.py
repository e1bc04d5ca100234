"""Microbenches of the hot primitives, each asserting its result.

Few rounds keep each one well under a second; run with
``--benchmark-only`` for timings alone.
"""
import random

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from qroute.circuit import GateWeights, layers, random_circuit, weighted_metrics
from qroute.graphs import grid_graph
from qroute.matching import WeightedBipartiteGraph, maximal_matching, min_weight_perfect_matching
from qroute.qasm import emit_qasm, parse_qasm

from oracles import refix_min_weight_pm

_CIRCUIT = random_circuit(16, 60, seed=0)
_TEXT = emit_qasm(_CIRCUIT)


def test_parse_qasm(benchmark):
    circuit, _, _ = benchmark.pedantic(parse_qasm, (_TEXT,), rounds=5, iterations=1)
    assert circuit == _CIRCUIT


def test_parse_qasm_wide(benchmark):
    """64 qubits, as grid1024 and modular256 parse: fewer repeated lines."""
    circuit = random_circuit(64, 10, seed=0)
    got, _, _ = benchmark.pedantic(parse_qasm, (emit_qasm(circuit),), rounds=5, iterations=1)
    assert got == circuit


def test_emit_qasm(benchmark):
    text = benchmark.pedantic(emit_qasm, (_CIRCUIT,), rounds=5, iterations=1)
    assert text == _TEXT


def test_layers(benchmark):
    got = benchmark.pedantic(layers, (_CIRCUIT,), rounds=20, iterations=1)
    assert len(got) == weighted_metrics(_CIRCUIT, GateWeights(1, 1, 1)).weighted_depth


def test_weighted_metrics(benchmark):
    got = benchmark.pedantic(weighted_metrics, (_CIRCUIT,), rounds=20, iterations=1)
    assert (got.weighted_size, got.weighted_depth) == (18240, 2040)


def test_grid_build(benchmark):
    got = benchmark.pedantic(grid_graph, (32, 32), rounds=5, iterations=1).distances()
    i, j = np.divmod(np.arange(32 * 32), 32)
    assert np.array_equal(got, abs(i[:, None] - i) + abs(j[:, None] - j))
    assert got.nbytes == 2 * 1024**2


def _placement(k):
    """A k x k placement-shaped cost with grid-like spread, and its triples."""
    rng = random.Random(k)
    cost = [[rng.randint(0, 60) for _ in range(k)] for _ in range(k)]
    return cost, [(l, r, w) for l, row in enumerate(cost) for r, w in enumerate(row)]


def test_weighted_bipartite_graph_build(benchmark):
    cost, edges = _placement(32)
    got = benchmark.pedantic(WeightedBipartiteGraph, (32, 32, edges), rounds=20, iterations=1)
    assert np.array_equal(got, cost)


@pytest.mark.parametrize("k", [8, 32])
def test_min_weight_perfect_matching(benchmark, k):
    cost, edges = _placement(k)

    def place():
        return min_weight_perfect_matching(WeightedBipartiteGraph(k, k, edges))

    got = benchmark.pedantic(place, rounds=20, iterations=1)
    assert [r for _, r in got] == refix_min_weight_pm(cost)


def test_min_weight_perfect_matching_ties(benchmark):
    """Costs drawn from {0..3}, as on modular256, so most rows tie."""
    rng = random.Random(3)
    cost = np.array([[rng.randint(0, 3) for _ in range(32)] for _ in range(32)], dtype=float)
    got = benchmark.pedantic(min_weight_perfect_matching, (cost,), rounds=20, iterations=1)
    assert [r for _, r in got] == refix_min_weight_pm(cost.tolist())


def test_min_weight_perfect_matching_all_slots(benchmark):
    """ROADMAP item 1's placement: each of the first three two-qubit layers of
    a 64-qubit circuit costed over all 512 slots of grid:32x32, made square
    with 480 zero rows.  The lex-min pass over those equal rows dominates."""
    g = grid_graph(32, 32)
    d, (x, y) = g.distances().astype(np.int64), np.array(maximal_matching(g)).T
    gate_layers = [layer.tg() for layer in layers(random_circuit(64, 10, seed=3)) if layer.tg()]
    costs = []
    for pairs in gate_layers[:3]:
        a, b = np.array(pairs).T
        real = np.minimum(d[a][:, x] + d[b][:, y], d[a][:, y] + d[b][:, x])
        costs.append(np.vstack([real, np.zeros((len(x) - len(real), len(x)))]))
    rounds = iter(costs)
    solved = []

    def place(cost):
        solved.append((cost, min_weight_perfect_matching(cost)))

    benchmark.pedantic(place, setup=lambda: ((next(rounds),), {}), rounds=3, iterations=1)
    assert solved
    for cost, got in solved:
        rows, cols = np.array(got).T
        assert sorted(cols.tolist()) == list(range(len(cost)))
        assert cost[rows, cols].sum() == cost[linear_sum_assignment(cost)].sum()
