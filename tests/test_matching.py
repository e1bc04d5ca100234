"""Matching algorithms against brute-force oracles."""
import math
import random

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from qroute import matching
from qroute.graphs import (ArchitectureGraph, build_architecture, complete_graph, grid_graph,
                           hierarchical_product, modular_graph, parse_hier_file, path_graph)
from qroute.matching import (WeightedBipartiteGraph, _tight_edges, maximal_matching,
                             min_weight_perfect_matching)

from oracles import (HIER_FILES, brute_min_weight_pm, connected_small_graphs,
                     reference_maximal_matching, refix_min_weight_pm)


class TestMaximalMatching:
    def test_path_lexicographic(self):
        assert maximal_matching(path_graph(3)) == [(0, 1)]

    def test_complete_perfect(self):
        assert len(maximal_matching(complete_graph(4))) == 2

    def test_maximality(self):
        rng = random.Random(7)
        for _ in range(50):
            g = grid_graph(rng.randint(2, 4), rng.randint(2, 4))
            m = maximal_matching(g)
            used = {v for e in m for v in e}
            assert len(used) == 2 * len(m)  # vertex-disjoint
            for u, v in g.edges:            # no augmenting edge remains
                assert u in used or v in used

    def test_equals_greedy_over_sorted_edges(self):
        graphs = [build_architecture(spec) for spec in
                  ["path:1", "path:8", "complete:2", "complete:7", "grid:4x5", "modular:4x3"]]
        graphs += [hierarchical_product(path_graph(3), complete_graph(4), (0, 1, 1, 0)),
                   ArchitectureGraph(4, {(0, 1), (1, 2), (1, 3)})]
        graphs += [parse_hier_file(text) for text in HIER_FILES]
        graphs += [ArchitectureGraph(n, edges) for n, edges in connected_small_graphs(6)]
        assert {g.kind for g in graphs} == {"path", "complete", "grid", "modular", "hier",
                                            "generic"}
        for g in graphs:
            assert maximal_matching(g) == reference_maximal_matching(g), g


class TestWeightedBipartiteGraph:
    def test_empty(self):
        for b in (WeightedBipartiteGraph(2, 3), WeightedBipartiteGraph(2, 3, [])):
            assert b.dtype == np.float64
            assert b.tolist() == [[math.inf] * 3] * 2
        assert min_weight_perfect_matching(WeightedBipartiteGraph(0, 0, [])) == []

    def test_parallel_edges_keep_cheapest(self):
        b = WeightedBipartiteGraph(2, 2, [(0, 1, 4.0), (0, 1, -2.0), (0, 1, 7.0),
                                          (1, 0, 1.0)])
        assert b.tolist() == [[math.inf, -2.0], [1.0, math.inf]]

    @pytest.mark.parametrize("n_left,n_right", [(-1, 2), (2, -1), (-3, -3)])
    def test_negative_side_count(self, n_left, n_right):
        with pytest.raises(ValueError, match=f"n_left={n_left}, n_right={n_right}"):
            WeightedBipartiteGraph(n_left, n_right)

    # Each triple is decoded whole: read as one flat run of numbers, the
    # 4-tuple case would pass as the valid triples (0, 0, 1) and (1, 1, 1).
    @pytest.mark.parametrize("edges", [
        [(0, 1, 1.0), (1, 0)],
        [(0, 0, 1.0, 1.0), (1, 1, 1.0)],
        [(0, 0, 1.0), (1, 1, "heavy")],
        [5],
        [(0, 0, 1.0), 1],
        [(0, 0, 1.0), np.float64(1.0)],
        [math.nan],
    ], ids=["2-tuple", "4-tuple", "non-numeric-weight", "bare-number", "bare-number-after-edge",
            "bare-numpy-scalar", "bare-nan"])
    def test_malformed_triple(self, edges):
        with pytest.raises(ValueError):
            WeightedBipartiteGraph(2, 2, edges)

    # Only tuples are decoded; other 3-item sequences are refused unnamed.
    @pytest.mark.parametrize("edge,error", [
        ([1, 0, 2.0], ValueError),
        (np.array([1.0, 0.0, 2.0]), ValueError),
        ({1: 0}, TypeError),
    ], ids=["list", "ndarray-row", "dict"])
    def test_non_tuple_edge_refused(self, edge, error):
        with pytest.raises(error):
            WeightedBipartiteGraph(2, 2, [(0, 1, 1.0), edge])

    @pytest.mark.parametrize("edges,message", [
        ([(0, 0, 1.0), (2, 0, 1.0), (0, 5, math.nan)], r"edge \(2, 0\) out of range"),
        ([(0, -1, 1.0)], r"edge \(0, -1\) out of range"),
        ([(0, 0, 1.0), (1, 1, math.inf), (5, 0, 1.0)], "edge weight inf is not finite"),
        ([(0, 1, math.nan)], "edge weight nan is not finite"),
        ([(1, 0, 1.0), (0.5, 0, 1.0), (9, 0, 1.0)], r"edge \(0.5, 0\) has a non-integer"),
        ([(0, math.nan, 1.0)], r"edge \(0, nan\) has a non-integer"),
    ])
    def test_first_bad_edge_is_named(self, edges, message):
        with pytest.raises(ValueError, match=message):
            WeightedBipartiteGraph(2, 2, edges)


class TestMinWeightPerfect:
    def test_2x2(self):
        b = WeightedBipartiteGraph(2, 2, [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 0)])
        assert min_weight_perfect_matching(b) == [(0, 0), (1, 1)]

    def test_all_zero_lexicographic_tiebreak(self):
        b = WeightedBipartiteGraph(3, 3, [(l, r, 0.0) for l in range(3) for r in range(3)])
        assert min_weight_perfect_matching(b) == [(0, 0), (1, 1), (2, 2)]

    def test_no_perfect_matching(self):
        b = WeightedBipartiteGraph(2, 2, [(0, 0, 1), (1, 0, 1)])
        with pytest.raises(ValueError, match="no perfect matching exists"):
            min_weight_perfect_matching(b)

    def test_hall_violation_with_finite_entry_in_every_row(self):
        # Rows 0 and 1 reach only column 0; row 2 reaches every column.
        b = WeightedBipartiteGraph(3, 3, [(0, 0, 1e18), (1, 0, -3.0), (2, 0, 0.0),
                                          (2, 1, 2.0), (2, 2, 5.0)])
        with pytest.raises(ValueError, match="no perfect matching exists"):
            min_weight_perfect_matching(b)

    def test_side_mismatch(self):
        with pytest.raises(ValueError):
            min_weight_perfect_matching(WeightedBipartiteGraph(2, 3))

    @pytest.mark.parametrize("cost,message", [
        (np.zeros((2, 3)), "sides differ"),
        (np.zeros(3), "sides differ"),
        (np.zeros((2, 2, 2)), "sides differ"),
        (np.array([[0.0, 1.0], [math.nan, 2.0]]), "NaN or -inf"),
        (np.array([[0.0, -math.inf], [1.0, 2.0]]), "NaN or -inf"),
    ], ids=["2x3", "1-d", "3-d", "nan", "minus-inf"])
    def test_rejects_malformed_cost(self, cost, message):
        with pytest.raises(ValueError, match=message):
            min_weight_perfect_matching(cost)

    def test_parallel_edges_use_cheapest(self):
        b = WeightedBipartiteGraph(1, 1, [(0, 0, 5.0), (0, 0, 2.0)])
        m = min_weight_perfect_matching(b)
        assert m == [(0, 0)]

    @pytest.mark.parametrize("n_max,draws", [(4, 120), (6, 60)])
    def test_random_against_brute_force(self, n_max, draws):
        rng = random.Random(23 + n_max)
        for _ in range(draws):
            n = rng.randint(1, n_max)
            cost = [[math.inf] * n for _ in range(n)]
            edges = []
            for l in range(n):
                for r in range(n):
                    if rng.random() < 0.8:
                        w = float(rng.randint(-4, 9))
                        edges.append((l, r, w))
                        cost[l][r] = min(cost[l][r], w)
            b = WeightedBipartiteGraph(n, n, edges)
            expect = brute_min_weight_pm(cost)
            if expect is None:
                with pytest.raises(ValueError, match="no perfect matching exists"):
                    min_weight_perfect_matching(b)
                continue
            got = min_weight_perfect_matching(b)
            total = sum(cost[l][r] for l, r in got)
            assert total == pytest.approx(expect[0])
            assert [r for _, r in got] == expect[1]  # exact lex tie-break

    # Placement costs are hop distances: {0..3} ties like a modular device,
    # {0..60} spreads like a 32x32 grid.
    @pytest.mark.parametrize("weights", ["ties", "spread", "float"])
    def test_random_against_refixing_reference(self, weights):
        rng = random.Random(weights)
        draw = {"ties": lambda: float(rng.randint(0, 3)),
                "spread": lambda: float(rng.randint(0, 60)),
                "float": lambda: rng.uniform(-5.0, 20.0)}[weights]
        for _ in range(10):
            n = rng.randint(6, 40)
            density = rng.choice([1.0, 0.8, 0.5])
            cost = [[draw() if rng.random() < density else math.inf
                     for _ in range(n)] for _ in range(n)]
            b = WeightedBipartiteGraph(n, n, [(l, r, w) for l, row in enumerate(cost)
                                              for r, w in enumerate(row)
                                              if math.isfinite(w)])
            expect = refix_min_weight_pm(cost)
            if expect is None:
                with pytest.raises(ValueError, match="no perfect matching exists"):
                    min_weight_perfect_matching(b)
                continue
            assert [r for _, r in min_weight_perfect_matching(b)] == expect

    def test_one_assignment_solve(self, monkeypatch):
        calls = []

        def counted(cost):
            calls.append(cost.shape)
            return linear_sum_assignment(cost)

        monkeypatch.setattr(matching, "linear_sum_assignment", counted)
        rng = random.Random(20)
        b = WeightedBipartiteGraph(20, 20, [(l, r, float(rng.randint(0, 3)))
                                            for l in range(20) for r in range(20)])
        min_weight_perfect_matching(b)
        assert calls == [(20, 20)]

    # Placement-shaped input: each gate of a front layer is costed against
    # each slot of a maximal matching as the cheaper of its two orientations.
    @pytest.mark.parametrize("graph", [grid_graph(4, 4), modular_graph(4, 4)],
                             ids=["grid4x4", "modular4x4"])
    def test_front_layers_against_refixing_reference(self, graph):
        d = graph.distances().astype(np.int64)
        slots = maximal_matching(graph)
        rng = random.Random(graph.kind)
        for _ in range(150):
            k = rng.randint(1, min(8, len(slots)))
            qubits = rng.sample(range(graph.n), 2 * k)
            a, b = np.array(qubits[0::2]), np.array(qubits[1::2])
            x, y = np.array(slots[:k]).T
            cost = np.minimum(d[a][:, x] + d[b][:, y], d[a][:, y] + d[b][:, x]).astype(float)
            got = min_weight_perfect_matching(cost)
            assert [r for _, r in got] == refix_min_weight_pm(cost.tolist())


def _reference_tight_edges(cost, cols):
    """Tight edges by Bellman-Ford over the unpermuted rows, gathering v[cols]."""
    n = len(cols)
    assigned = cost[np.arange(n), cols]
    step = cost - assigned[:, None]
    v = np.zeros(n)
    for _ in range(n):
        relaxed = np.minimum(v, (v[cols][:, None] + step).min(axis=0))
        if np.array_equal(relaxed, v):
            break
        v = relaxed
    u = assigned - v[cols]
    tol = 1e-9 * max(1.0, float(abs(cost[np.isfinite(cost)]).max()))
    return cost - u[:, None] - v[None, :] <= tol


@pytest.mark.parametrize("weights", ["ties", "spread", "float"])
def test_tight_edges_match_reference(weights):
    rng = np.random.default_rng(len(weights))
    checked = 0
    while checked < 60:
        n = int(rng.integers(1, 24))
        cost = {"ties": lambda: rng.integers(0, 4, (n, n)).astype(float),
                "spread": lambda: rng.integers(-30, 61, (n, n)).astype(float),
                "float": lambda: rng.uniform(-5.0, 20.0, (n, n))}[weights]()
        cost[rng.random((n, n)) < rng.choice([0.0, 0.2, 0.5])] = math.inf
        try:
            cols = linear_sum_assignment(cost)[1]
        except ValueError:  # no perfect matching avoids the holes
            continue
        assert np.array_equal(_tight_edges(cost, cols), _reference_tight_edges(cost, cols))
        checked += 1
