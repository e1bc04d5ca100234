"""Matching algorithms against brute-force oracles."""
import math
import random
import re

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from qroute import matching
from qroute.graphs import (ArchitectureGraph, build_architecture, complete_graph, grid_graph,
                           hierarchical_product, modular_graph, parse_hier_file, path_graph)
from qroute.matching import WeightedBipartiteGraph, maximal_matching, min_weight_perfect_matching

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

    # The fill goes through one flat index per edge, l * n_right + r, which a
    # square cost cannot tell from l * n_left + r.
    @pytest.mark.parametrize("n_left,n_right", [(1, 7), (2, 5), (5, 2), (4, 3)])
    def test_rectangular_against_loop(self, n_left, n_right):
        rng = random.Random(n_left * 10 + n_right)
        edges = [(rng.randrange(n_left), rng.randrange(n_right), rng.randint(-5, 20))
                 for _ in range(3 * n_left * n_right)]
        expect = [[math.inf] * n_right for _ in range(n_left)]
        for l, r, w in edges:
            expect[l][r] = min(expect[l][r], w)
        assert WeightedBipartiteGraph(n_left, n_right, edges).tolist() == expect

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


def _zero_pattern(degrees, seed):
    """A 0/1 cost whose row r holds degrees[r] zeros, one of them on a random
    permutation; under its zero optimum exactly the zeros are tight."""
    n = len(degrees)
    rng = np.random.default_rng(seed)
    cost = np.ones((n, n))
    for r, (c, d) in enumerate(zip(rng.permutation(n), degrees)):
        cost[r, c] = 0.0
        cost[r, rng.choice(np.delete(np.arange(n), c), d - 1, replace=False)] = 0.0
    return cost


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
        with pytest.raises(ValueError, match="sides differ"):
            min_weight_perfect_matching(WeightedBipartiteGraph(3, 2))

    @pytest.mark.parametrize("cost,message", [
        (np.zeros((3, 2)), "sides differ"),
        (np.zeros(3), "sides differ"),
        (np.zeros((2, 2, 2)), "sides differ"),
        (np.array([[0.0, 1.0], [math.nan, 2.0]]), "NaN or -inf"),
        (np.array([[0.0, -math.inf], [1.0, 2.0]]), "NaN or -inf"),
    ], ids=["3x2", "1-d", "3-d", "nan", "minus-inf"])
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

    # A k x m cost leaves m - k columns over; every row still takes the
    # lex-min optimal column sequence, and a row no column is open to fails.
    def test_rectangular_against_brute_force(self):
        rng = random.Random(3000)
        infeasible = 0
        for _ in range(3000):
            m = rng.randint(1, 6)
            k = rng.randint(0, min(4, m))
            cost = [[float(rng.randint(-3, 6)) if rng.random() < 0.8 else math.inf
                     for _ in range(m)] for _ in range(k)]
            expect = brute_min_weight_pm(cost)
            if expect is None:
                infeasible += 1
                with pytest.raises(ValueError, match="no perfect matching exists"):
                    min_weight_perfect_matching(np.array(cost).reshape(k, m))
                continue
            got = min_weight_perfect_matching(np.array(cost).reshape(k, m))
            assert [r for r, _ in got] == list(range(k))
            assert [c for _, c in got] == expect[1]
        assert 0 < infeasible < 300

    # Gates costed against every slot, as the matching placer does: the
    # unpadded solve takes the first rows of the reference's lex-min over the
    # cost padded square with zero rows, which tie on every column.  The
    # grid:8x8 draws take two stages.
    @pytest.mark.parametrize("graph", [grid_graph(8, 8), modular_graph(4, 4)],
                             ids=["grid8x8", "modular4x4"])
    def test_all_slots_against_padded_reference(self, graph):
        d = graph.distances().astype(np.int64)
        x, y = np.array(maximal_matching(graph)).T
        rng = random.Random(graph.n)
        for _ in range(20):
            k = rng.randint(1, len(x))
            qubits = rng.sample(range(graph.n), 2 * k)
            a, b = np.array(qubits[0::2]), np.array(qubits[1::2])
            cost = np.minimum(d[a][:, x] + d[b][:, y], d[a][:, y] + d[b][:, x]).astype(float)
            padded = np.vstack([cost, np.zeros((len(x) - k, len(x)))])
            got = [c for _, c in min_weight_perfect_matching(cost)]
            assert got == refix_min_weight_pm(padded.tolist())[:k]

    # Placement costs are hop distances: {0..3} ties like a modular device,
    # {0..60} spreads like a 32x32 grid.  Float costs on a 1/8 grid, negative
    # ones too, are passed scaled by 8 to integers; the reference reads them raw.
    @pytest.mark.parametrize("weights", ["ties", "spread", "float"])
    def test_random_against_refixing_reference(self, weights):
        rng = random.Random(weights)
        draw = {"ties": lambda: float(rng.randint(0, 3)),
                "spread": lambda: float(rng.randint(0, 60)),
                "float": lambda: round(rng.uniform(-5.0, 20.0) * 8) / 8}[weights]
        scale = 8 if weights == "float" else 1
        for _ in range(10):
            n = rng.randint(6, 40)
            density = rng.choice([1.0, 0.8, 0.5])
            cost = [[draw() if rng.random() < density else math.inf
                     for _ in range(n)] for _ in range(n)]
            b = WeightedBipartiteGraph(n, n, [(l, r, w * scale) for l, row in enumerate(cost)
                                              for r, w in enumerate(row)
                                              if math.isfinite(w)])
            expect = refix_min_weight_pm(cost)
            if expect is None:
                with pytest.raises(ValueError, match="no perfect matching exists"):
                    min_weight_perfect_matching(b)
                continue
            assert [r for _, r in min_weight_perfect_matching(b)] == expect

    # 0/1 costs with a chosen number of zeros per row.  The ids name where
    # these rows fell against a bound on tight degrees that the solve no
    # longer uses; with span 1, 64 rows now stage as 7, 7, 8, 8, 9, 10, 12, 3.
    @pytest.mark.parametrize("degrees", [[8] * 15 + [2] * 49, [8] * 14 + [16] + [2] * 49],
                             ids=["on-bound", "one-row-past"])
    def test_stage_bound_against_refixing_reference(self, degrees):
        cost = _zero_pattern(degrees, seed=0)
        assert [r for _, r in min_weight_perfect_matching(cost)] == refix_min_weight_pm(
            cost.tolist())

    @pytest.mark.parametrize("n", [64, 65])
    def test_all_zero_takes_the_identity(self, n):
        assert min_weight_perfect_matching(np.zeros((n, n))) == [(i, i) for i in range(n)]

    @pytest.mark.parametrize("zero_share", [0.5, 0.8, 0.95])
    def test_random_zero_one_against_refixing_reference(self, zero_share):
        rng = np.random.default_rng(int(100 * zero_share))
        cost = (rng.random((48, 48)) >= zero_share).astype(float)
        assert [r for _, r in min_weight_perfect_matching(cost)] == refix_min_weight_pm(
            cost.tolist())

    # Costs must be integers: k/3 plus up to 1e-12 of noise no longer ties.
    def test_non_integral_cost_refused(self):
        half = np.array([[math.inf, 0.0, 1.0], [2.0, math.inf, 0.5], [0.0, 1.0, math.inf]])
        with pytest.raises(ValueError, match=re.escape("cost[1, 2] = 0.5 is not an integer")):
            min_weight_perfect_matching(half)
        rng = np.random.default_rng(9)
        near = rng.integers(0, 4, (12, 12)) / 3 + rng.uniform(0, 1e-12, (12, 12))
        near[:5] = np.round(near[:5])
        message = f"cost[5, 0] = {float(near[5, 0])!r} is not an integer"
        with pytest.raises(ValueError, match=re.escape(message)):
            min_weight_perfect_matching(near)

    # Entries k/3 apart, each moved by up to 1e-12: the reference, reading
    # them raw under its 1e-9 tolerance, ties what the solve gets from the
    # same cost scaled by 3 and rounded to integers.
    def test_float_near_ties_against_refixing_reference(self):
        rng = np.random.default_rng(9)
        for n in (12, 30, 40):
            cost = rng.integers(0, 4, (n, n)) / 3 + rng.uniform(0, 1e-12, (n, n))
            assert [r for _, r in min_weight_perfect_matching(np.round(cost * 3))] == (
                refix_min_weight_pm(cost.tolist()))

    # With m columns left and span the largest minus the smallest entry, a
    # stage takes the largest k <= m with m**k * (m*span + 1) <= 2**52.  16**13
    # is 2**52 exactly; at span 15 seven rows of 64 fit, and at span 16 the
    # seventh row is past the bound.
    @pytest.mark.parametrize("cost,first_stage", [
        (np.zeros((64, 64)), 8),
        (np.zeros((16, 16)), 13),
        (np.random.default_rng(15).integers(0, 16, (64, 64)).astype(float), 7),
        (np.random.default_rng(16).integers(0, 17, (64, 64)).astype(float), 6),
        (np.random.default_rng(20).integers(0, 4, (20, 20)).astype(float), 10),
    ], ids=["all-zero", "on-bound", "span-15", "one-row-past", "ties"])
    def test_staged_solves_cover_the_rows_left(self, monkeypatch, cost, first_stage):
        solved = []

        def recorded(c):
            solved.append((c.copy(), linear_sum_assignment(c)[1]))
            return np.arange(len(c)), solved[-1][1]

        monkeypatch.setattr(matching, "linear_sum_assignment", recorded)
        got = min_weight_perfect_matching(cost)
        assert [r for _, r in got] == refix_min_weight_pm(cost.tolist())
        lo, span = cost.min(), int(cost.max() - cost.min())
        stages, rows, cols = [], list(range(len(cost))), list(range(len(cost)))
        for stage_cost, picked in solved:
            m = len(rows)
            k = max(k for k in range(1, m + 1) if m**k * (m * span + 1) <= 2**52)
            # Square over the rows left; the k stage rows lead and add their radix.
            expect = (cost[np.ix_(rows, cols)] - lo) * m**k
            expect[:k] += np.outer([m ** (k - 1 - i) for i in range(k)], np.arange(m))
            assert np.array_equal(stage_cost, expect)
            stages.append(k)
            rows, cols = rows[k:], [c for j, c in enumerate(cols) if j not in picked[:k]]
        assert rows == [] and stages[0] == first_stage

    def test_cost_range_too_wide(self):
        # n * (n*span + 1) <= 2**52 is the widest range a solve takes: for
        # n = 8 that is span 2**46 - 1, where each stage holds one row.
        top = 2**46 - 1
        rng = np.random.default_rng(46)
        cost = rng.choice([0.0, 1.0, top - 1.0, float(top)], (8, 8))
        cost[0, :2] = 0.0, top
        assert [r for _, r in min_weight_perfect_matching(cost)] == refix_min_weight_pm(
            cost.tolist())
        cost[0, 1] = top + 1
        with pytest.raises(ValueError, match="cost range too wide"):
            min_weight_perfect_matching(cost)
        # Infeasibility is named first: only column 0 is open to rows 0 and 1.
        wide = np.array([[0.0, math.inf, math.inf], [2.0**60, math.inf, math.inf],
                         [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="no perfect matching exists"):
            min_weight_perfect_matching(wide)

    # float64 rounds 2**53 + 1 to 2**53, so the int64 cost would tie and take
    # the identity, of total 2**54 + 2, over the optimum crossing of 2**54.
    # The same entries given as floats are exact as given, and solve.
    def test_integer_entries_beyond_2_53_refused(self):
        big = 2**53
        with pytest.raises(ValueError, match="cost range too wide"):
            min_weight_perfect_matching(np.array([[big + 1, big], [big, big + 1]]))
        with pytest.raises(ValueError, match="cost range too wide"):
            min_weight_perfect_matching([[-big - 1, 0], [0, 1]])
        assert min_weight_perfect_matching(
            np.array([[big, big - 1], [big - 1, big]])) == [(0, 1), (1, 0)]
        assert min_weight_perfect_matching(
            np.array([[big + 2, big], [big, big + 2]], dtype=float)) == [(0, 1), (1, 0)]

    # Placement-shaped input: each gate of a front layer is costed against
    # each slot of a maximal matching as the cheaper of its two orientations.
    # The 32-gate draws take several stages, as perfbench's grid1024 and
    # modular256 placements do.
    @pytest.mark.parametrize("graph,draws,fewest,most", [
        (grid_graph(4, 4), 150, 1, 8), (modular_graph(4, 4), 150, 1, 8),
        (grid_graph(32, 32), 4, 16, 32), (modular_graph(16, 16), 4, 16, 32),
    ], ids=["grid4x4", "modular4x4", "grid32x32", "modular16x16"])
    def test_front_layers_against_refixing_reference(self, graph, draws, fewest, most):
        d = graph.distances().astype(np.int64)
        slots = maximal_matching(graph)
        rng = random.Random(graph.kind)
        for _ in range(draws):
            k = rng.randint(fewest, min(most, len(slots)))
            qubits = rng.sample(range(graph.n), 2 * k)
            a, b = np.array(qubits[0::2]), np.array(qubits[1::2])
            x, y = np.array(slots[:k]).T
            cost = np.minimum(d[a][:, x] + d[b][:, y], d[a][:, y] + d[b][:, x]).astype(float)
            got = min_weight_perfect_matching(cost)
            assert [r for _, r in got] == refix_min_weight_pm(cost.tolist())


class TestIntegerCosts:
    # The matching placer's cost: the cheaper orientation of int16 hop
    # distances from distances(), each gate against every slot.  An integer
    # cost skips the integrality pass and must solve as its float copy.  Up to
    # 32 slots the reference checks both, reading the cost padded square with
    # zero rows as above; grid:32x32 has 512 slots.
    @pytest.mark.parametrize("graph", [grid_graph(4, 4), grid_graph(8, 8), modular_graph(4, 4),
                                       grid_graph(32, 32)],
                             ids=["grid4x4", "grid8x8", "modular4x4", "grid32x32"])
    def test_int16_cost_solves_as_its_float_copy(self, graph):
        d = graph.distances()
        x, y = np.array(maximal_matching(graph), dtype=np.intp).T
        rng = random.Random(graph.n)
        for _ in range(20):
            k = rng.randint(1, min(32, len(x)))
            a, b = np.array(rng.sample(range(graph.n), 2 * k), dtype=np.intp).reshape(k, 2).T
            cost = np.minimum(d[np.ix_(a, x)] + d[np.ix_(b, y)], d[np.ix_(a, y)] + d[np.ix_(b, x)])
            assert cost.dtype == np.int16
            got = min_weight_perfect_matching(cost)
            assert got == min_weight_perfect_matching(cost.astype(np.float64))
            if len(x) <= 32:
                padded = np.vstack([cost, np.zeros((len(x) - k, len(x)), dtype=np.int16)])
                assert [c for _, c in got] == refix_min_weight_pm(padded.tolist())[:k]

    def test_refusals_still_fire(self):
        big = 2**53
        with pytest.raises(ValueError, match="an integer entry beyond 2\\*\\*53"):
            min_weight_perfect_matching(np.array([[big + 1, big], [big, big + 1]]))
        with pytest.raises(ValueError, match="8 columns spanning 70368744177664 exceed"):
            min_weight_perfect_matching(np.eye(8, dtype=np.int64) * 2**46)
        # Rows 0 and 1 of an int16 placement cost, as floats, may take only column 0.
        d = grid_graph(4, 4).distances()
        cost = (d[:4, :8] + d[4:8, 8:]).astype(np.float64)
        cost[:2, 1:] = math.inf
        with pytest.raises(ValueError, match="no perfect matching exists"):
            min_weight_perfect_matching(cost)


class TestRadixCache:
    # A stage adds the last rows of the table kept for its column count, so a
    # write into one would change every later solve over as many columns.
    def test_tables_are_read_only(self):
        min_weight_perfect_matching(np.zeros((3, 5)))
        table = matching._radix(5)
        for view in (table, table[-2:]):
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0] = 1.0
        assert table.tolist() == [[5.0**p * j for j in range(5)] for p in range(4, -1, -1)]

    def test_cache_stays_within_its_bound(self):
        matching._radix.cache_clear()
        rng = np.random.default_rng(64)
        for m in range(1, 65):
            for k in range(m + 1):
                cost = rng.integers(0, rng.integers(1, 200), (k, m))
                rows, cols = np.array(min_weight_perfect_matching(cost), dtype=int).reshape(-1, 2).T
                assert cost[rows, cols].sum() == cost[linear_sum_assignment(cost)].sum()
        info = matching._radix.cache_info()
        assert info.hits > info.misses > info.maxsize == 32 and info.currsize == 32
        for m in (1, 2, 13, 16, 17, 64):
            depth = max(k for k in range(1, m + 1) if m**k <= 2**52)
            assert matching._radix(m).shape == (depth, m)
