"""Architecture graph construction and distances."""
import itertools
import random
import re

import networkx as nx
import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from qroute import graphs
from qroute.graphs import (MAX_DIST_VERTICES, ArchitectureGraph, build_architecture,
                           complete_graph, grid_graph, hierarchical_product,
                           modular_graph, parse_hier_file, path_graph)

from oracles import HIER_FILES, connected_small_graphs, reference_edges


def csgraph_distances(n, edges):
    """All-pairs hop distances from scipy's shortest paths over ``edges``."""
    u, v = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2).T
    adj = csr_matrix((np.ones(len(u)), (u, v)), shape=(n, n))
    return shortest_path(adj, directed=False, unweighted=True).astype(np.int64)


HIER_FILE_GRAPHS = [parse_hier_file(text) for text in HIER_FILES]


class TestBuilders:
    def test_path(self):
        g = path_graph(3)
        assert g.edges == {(0, 1), (1, 2)}

    def test_hier_two_paths(self):
        # two P3 copies plus vertical links at positions 0 and 2
        g = hierarchical_product(path_graph(2), path_graph(3), (1, 0, 1))
        assert g.edges == {(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (2, 5)}

    def test_modular_2x2(self):
        g = modular_graph(2, 2)
        assert g.edges == {(0, 1), (2, 3), (0, 2)}

    def test_grid_is_cartesian_product(self):
        g = grid_graph(2, 2)
        assert g.edges == {(0, 1), (2, 3), (0, 2), (1, 3)}

    def test_hier_adjacency_matches_definition(self):
        g1, g2, vec = path_graph(3), complete_graph(3), (0, 1, 1)
        g = hierarchical_product(g1, g2, vec)
        n2 = g2.n
        for (i, j), (ip, jp) in itertools.combinations(
                itertools.product(range(g1.n), range(n2)), 2):
            expect = (i == ip and g2.has_edge(j, jp)) or \
                     (j == jp and vec[j] == 1 and g1.has_edge(i, ip))
            assert g.has_edge(i * n2 + j, ip * n2 + jp) == expect

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            hierarchical_product(path_graph(2), path_graph(2), (0, 0))

    @pytest.mark.parametrize("vec", [(2, 0), (-1, 0), (1, 7), (1, 1.0)])
    def test_vector_entries_other_than_0_1_rejected(self, vec):
        with pytest.raises(ValueError, match="0 or 1"):
            hierarchical_product(path_graph(2), path_graph(2), vec)

    def test_vector_entries_read_as_int(self):
        with pytest.raises(ValueError, match=r"got \(1, 1.0\): entry 1.0 is not an integer"):
            hierarchical_product(path_graph(2), path_graph(2), (1, 1.0))
        g = hierarchical_product(path_graph(2), path_graph(2), (True, np.int64(1)))
        assert g.vec == (1, 1) and all(type(x) is int for x in g.vec)
        assert g.kind == "grid"

    def test_hier_file_rejects_vector_entry_2(self):
        with pytest.raises(ValueError, match="0 or 1"):
            parse_hier_file("n1 2\nn2 3\nv 2 0 7\ne1 0 1\ne2 0 1\ne2 1 2\n")

    def test_spec_strings(self):
        assert build_architecture("path:4").kind == "path"
        assert build_architecture("complete:3").kind == "complete"
        assert build_architecture("grid:2x3").n == 6
        assert build_architecture("modular:3x2").kind == "modular"
        with pytest.raises(ValueError):
            build_architecture("ring:5")

    @pytest.mark.parametrize("text,message", [
        ("n1 2\nn2 2\nv 1 1\ne1 0 1 7\ne2 0 1\n", r"line 4: e1 takes 2 value\(s\), got 3"),
        ("n1 2\nn2 2\nv 1 1\ne1 0 1\ne2 0\n", r"line 5: e2 takes 2 value\(s\), got 1"),
        ("n1 2 junk\nn2 2\nv 1 1\ne1 0 1\ne2 0 1\n", r"line 1: n1 takes 1 value\(s\), got 2"),
        ("n1 2\nn2\nv 1 1\ne1 0 1\ne2 0 1\n", r"line 2: n2 takes 1 value\(s\), got 0"),
        ("n1 2\nn2 2\nn1 3\nv 1 1\ne1 0 1\ne2 0 1\n", "line 3: n1 given twice"),
        ("n1 2\nn2 2\nv 1 1\ne1 0 1\nn2 2\ne2 0 1\n", "line 5: n2 given twice"),
        ("n1 2\nn2 2\nv 1 1\ne1 0 1\ne2 0 1\nv 1 0\n", "line 6: v given twice"),
        ("n1 0\nn2 2\nv 1 1\ne2 0 1\n", "line 1: n1 is 0; a factor needs at least one vertex"),
        ("n1 2\nn2 0\nv\ne1 0 1\n", "line 2: n2 is 0; a factor needs at least one vertex"),
        ("n1 -1\nn2 2\nv 1 1\ne2 0 1\n", "line 1: n1 is -1; a factor needs"),
        ("n1 2\nn2 2\nv 1 0 1\ne1 0 1\ne2 0 1\n", "line 3: vec has length 3, expected 2"),
        ("v 1 2\nn1 2\nn2 2\ne1 0 1\ne2 0 1\n", r"line 1: vec entries must be 0 or 1, got \(1, 2\)"),
    ], ids=["e1-extra-token", "e2-missing-token", "n1-extra-token", "n2-missing-value",
            "n1-repeated", "n2-repeated", "v-repeated", "n1-zero", "n2-zero", "n1-negative",
            "v-too-long", "v-entry-2"])
    def test_hier_file_rejects_bad_arity_and_repeats(self, text, message):
        with pytest.raises(ValueError, match=f"hier file {message}"):
            parse_hier_file(text)

    @pytest.mark.parametrize("spec", ["grid:3x", "path:abc", "modular:2xb", "complete:1.5",
                                      "grid:-1x3", "path:2x2"])
    def test_spec_with_bad_sizes_names_them(self, spec):
        kind, _, params = spec.partition(":")
        with pytest.raises(ValueError, match=f"bad {kind} parameters {re.escape(repr(params))}"):
            build_architecture(spec)

    @pytest.mark.parametrize("build,arg,n", [
        (build_architecture, "path:4097", 4097),
        (build_architecture, "grid:65x64", 4160),
        (build_architecture, "modular:200x200", 40000),
        (parse_hier_file, "n1 65\nn2 64\nv" + " 1" * 64 + "\ne1 0 1\ne2 0 1\n", 4160),
    ], ids=["path", "grid", "modular", "hier"])
    def test_architecture_over_the_cap_refused_before_any_graph(self, build, arg, n, monkeypatch):
        assert build_architecture("grid:64x64").n == MAX_DIST_VERTICES

        def no_graph(*args, **kwargs):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(graphs, "ArchitectureGraph", no_graph)
        with pytest.raises(ValueError, match=f"architecture of {n} vertices exceeds the cap of "
                                             f"{MAX_DIST_VERTICES} vertices"):
            build(arg)

    @pytest.mark.parametrize("text,message", [
        ("n1 2\nn2 2\nv 1 1\ne1 0 5\ne2 0 1\n", r"line 4: edge \(0, 5\) out of range"),
        ("n1 2\nn2 2\nv 1 1\ne1 0 1\ne2 1 1\n", "line 5: self-loop at 1"),
        ("e2 0 2\nn1 2\nn2 2\nv 1 1\ne1 0 1\n", r"line 1: edge \(0, 2\) out of range"),
    ], ids=["out-of-range", "self-loop", "edge-before-size"])
    def test_hier_file_edge_errors_name_their_line(self, text, message):
        with pytest.raises(ValueError, match=f"hier file {message}"):
            parse_hier_file(text)

    @pytest.mark.parametrize("edge", [(0, 1.5), (0.0, 1)])
    def test_non_integer_endpoint_rejected(self, edge):
        with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}\) has a non-integer"):
            ArchitectureGraph(3, {edge})

    @pytest.mark.parametrize("n", [2.5, "3"])
    def test_non_integer_vertex_count_rejected(self, n):
        with pytest.raises(ValueError, match=f"vertex count {n!r} is not an integer"):
            ArchitectureGraph(n, {(0, 1), (1, 2)})

    @pytest.mark.parametrize("build,sizes,n", [
        (path_graph, (2.5,), 2.5), (complete_graph, ("3",), "3"),
        (grid_graph, (2.5, 2), 2.5), (modular_graph, (2, "3"), "3"),
    ], ids=["path", "complete", "grid", "modular"])
    def test_builder_non_integer_size_rejected(self, build, sizes, n):
        with pytest.raises(ValueError, match=f"vertex count {n!r} is not an integer"):
            build(*sizes)

    def test_numpy_integer_vertex_count_accepted(self):
        g = ArchitectureGraph(np.int64(3), {(0, 1), (1, 2)})
        assert g.n == 3 and type(g.n) is int and g.distances()[0, 2] == 2

    def test_numpy_integer_endpoints_accepted(self):
        g = ArchitectureGraph(3, {(np.int64(0), np.int32(1)), (2, np.int16(1))})
        assert g.edges == {(0, 1), (1, 2)} and g.distances()[0, 2] == 2

    def test_hier_file(self):
        text = """
        # two rungs
        n1 2
        n2 3
        v 1 0 1
        e1 0 1
        e2 0 1
        e2 1 2
        """
        g = parse_hier_file(text)
        assert g.n == 6 and len(g.edges) == 6
        assert g.factor1.kind == "path" and g.factor2.kind == "path"

    @pytest.mark.parametrize("text,factor", [("n1 2\nn2 3\nv 1 1 1\ne1 0 1\ne2 0 1\n", "e2"),
                                             ("n1 3\nn2 2\nv 1 1\ne1 1 2\ne2 0 1\n", "e1")],
                             ids=["e2", "e1"])
    def test_hier_file_with_a_disconnected_factor_rejected(self, text, factor):
        with pytest.raises(ValueError, match=f"hier file factor {factor}: graph is disconnected"):
            parse_hier_file(text)

    def test_hier_file_factor_kinds(self):
        assert [(g.factor1.kind, g.factor2.kind) for g in HIER_FILE_GRAPHS] == [
            ("path", "complete"), ("complete", "generic"), ("generic", "path")]

    def test_product_kind_is_derived(self):
        grid = parse_hier_file("n1 2\nn2 3\nv 1 1 1\ne1 0 1\ne2 0 1\ne2 1 2\n")
        modular = parse_hier_file("n1 3\nn2 3\nv 1 0 0\ne1 0 1\ne1 0 2\ne1 1 2\n"
                                  "e2 0 1\ne2 0 2\ne2 1 2\n")
        assert (grid.kind, modular.kind) == ("grid", "modular")
        assert [g.kind for g in HIER_FILE_GRAPHS] == ["hier"] * 3
        assert hierarchical_product(path_graph(3), path_graph(2), (1, 0)).kind == "hier"
        assert hierarchical_product(complete_graph(3), complete_graph(2), (1, 1)).kind == "hier"

    def test_equal_graphs_get_equal_kinds(self):
        # Complete modules of 2 qubits joined at position 0, as modular:3x2 builds them.
        g = parse_hier_file("n1 3\nn2 2\nv 1 0\ne1 0 1\ne1 1 2\ne1 0 2\ne2 0 1\n")
        modular = build_architecture("modular:3x2")
        assert g.kind == modular.kind == "modular"
        assert np.array_equal(g.distances(), modular.distances())
        assert hierarchical_product(complete_graph(2), complete_graph(2), (1, 1)).kind == "grid"
        assert complete_graph(2).kind == "path"  # K2 is P2

    def test_kind_of_a_graph_built_from_edges(self):
        assert ArchitectureGraph(5, {(i, i + 1) for i in range(4)}).kind == "path"
        assert ArchitectureGraph(5, set(itertools.combinations(range(5), 2))).kind == "complete"
        assert ArchitectureGraph(5, {(i, (i + 1) % 5) for i in range(5)}).kind == "generic"
        # A path in another vertex order is not 0-1-...-(n-1).
        assert ArchitectureGraph(3, {(0, 2), (1, 2)}).kind == "generic"


def _searched_path(n):
    """The path 0-2-1-3-4-...-(n-1): its edges are not {(i, i+1)}, so csgraph fills it."""
    return ArchitectureGraph(n, {(0, 2), (1, 2), (1, 3)} | {(i, i + 1) for i in range(3, n - 1)})


class TestDistances:
    def test_path_endpoints(self):
        assert path_graph(4).distances()[0, 3] == 3

    def test_complete_all_ones(self):
        d = complete_graph(5).distances()
        for u in range(5):
            for v in range(5):
                assert d[u, v] == (0 if u == v else 1)

    def test_modular_cross_module(self):
        # non-communicator (0,1)=1 to non-communicator (1,1)=3 goes via both hubs
        assert modular_graph(2, 2).distances()[1, 3] == 3

    def test_triangle_inequality(self):
        g = grid_graph(3, 3)
        d = g.distances()
        for u, v, w in itertools.product(range(g.n), repeat=3):
            assert d[u, w] <= d[u, v] + d[v, w]

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="graph is disconnected"):
            ArchitectureGraph(3, {(0, 1)})

    def test_equal_networkx_lengths(self):
        cases = [(ArchitectureGraph(n, set(edges)), set(edges))
                 for n, edges in connected_small_graphs(6)]
        cases += [(ArchitectureGraph(0, set()), set()), (ArchitectureGraph(1, set()), set())]
        cases += [(g, reference_edges(g)) for g in [
            grid_graph(3, 4), modular_graph(3, 4),
            hierarchical_product(path_graph(3), complete_graph(3), (0, 1, 1)),
            hierarchical_product(complete_graph(3), path_graph(4), (1, 0, 0, 1))]]
        for g, edges in cases:
            assert g.edges == edges, g
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(edges)
            expect = np.zeros((g.n, g.n), dtype=np.int64)
            for s, lengths in nx.all_pairs_shortest_path_length(h):
                for t, hops in lengths.items():
                    expect[s, t] = hops
            d = g.distances()
            assert d.dtype == np.int16
            assert np.array_equal(d, expect), g

    @pytest.mark.parametrize("n,edges", [(2, set()), (4, {(0, 1), (2, 3)})])
    def test_more_disconnected_graphs_rejected(self, n, edges):
        with pytest.raises(ValueError, match="graph is disconnected"):
            ArchitectureGraph(n, edges)

    @pytest.mark.parametrize("graph", [path_graph, _searched_path], ids=["closed form", "csgraph"])
    def test_matrix_over_the_cap_rejected(self, graph):
        n = MAX_DIST_VERTICES + 1
        with pytest.raises(ValueError, match=f"distance matrix of {n} vertices exceeds"):
            graph(n).distances()

    @pytest.mark.parametrize("graph", [path_graph, _searched_path], ids=["closed form", "csgraph"])
    def test_matrix_at_the_cap_is_int16(self, graph):
        d = graph(MAX_DIST_VERTICES).distances()
        assert d.dtype == np.int16 and d.max() == MAX_DIST_VERTICES - 1
        assert d[0, -1] == d[-1, 0] == MAX_DIST_VERTICES - 1

    def test_path_and_complete_edge_sets_take_closed_forms(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("csgraph called")

        # The generic branch imports the search when it runs, so it reads this name.
        monkeypatch.setattr("scipy.sparse.csgraph.shortest_path", refused)
        for n in (1, 2, 5, 64):
            # Reversed pairs and a repeated edge still make the set {(i, i+1)}.
            path = ArchitectureGraph(n, [(i + 1, i) for i in range(n - 1)] + [(0, 1)] * (n > 1))
            complete = ArchitectureGraph(n, itertools.combinations(range(n), 2))
            for g, built in ((path, path_graph(n)), (complete, complete_graph(n))):
                assert g.distances().dtype == np.int16
                assert np.array_equal(g.distances(), built.distances())
        # A path in another vertex order still takes the search.
        with pytest.raises(AssertionError, match="csgraph called"):
            ArchitectureGraph(3, {(0, 2), (1, 2)})

    def test_generic_graph_over_several_row_blocks(self):
        rng = random.Random(5)
        n = 700
        edges = {(i, i + 1) for i in range(n - 1)}
        edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(40)}
        g = ArchitectureGraph(n, edges)
        assert np.array_equal(g.distances(), csgraph_distances(n, edges))

    def test_disconnected_past_the_first_row_block_rejected(self):
        # Only the edge between vertices 600 and 601 is missing.
        with pytest.raises(ValueError, match="graph is disconnected"):
            ArchitectureGraph(700, {(i, i + 1) for i in range(699) if i != 600})

    def test_shortest_path_prefers_low_index(self):
        g = grid_graph(2, 2)
        assert g.shortest_path(0, 3) == [0, 1, 3]

    def test_shortest_path_is_lex_smallest_shortest_path(self):
        for n, edges in connected_small_graphs(6):
            g = ArchitectureGraph(n, set(edges))
            h = nx.Graph(edges)
            for s, t in itertools.product(range(n), repeat=2):
                assert g.shortest_path(s, t) == min(nx.all_shortest_paths(h, s, t)), (edges, s, t)

    def test_shortest_path_to_itself(self):
        assert grid_graph(3, 3).shortest_path(4, 4) == [4]

    # numpy would read -1 as the last vertex.
    @pytest.mark.parametrize("s,t,bad", [(-1, 2, -1), (0, -1, -1), (4, 0, 4), (0, 4, 4)])
    def test_shortest_path_vertex_out_of_range_rejected(self, s, t, bad):
        with pytest.raises(ValueError, match=rf"vertex {bad} out of range \[0, 4\)"):
            path_graph(4).shortest_path(s, t)

    @pytest.mark.parametrize("s,t,bad", [(1.5, 2, "1.5"), (0, "2", "'2'"), (None, 1, "None")])
    def test_shortest_path_non_integer_vertex_rejected(self, s, t, bad):
        with pytest.raises(ValueError, match=rf"vertex {re.escape(bad)} is not an integer"):
            path_graph(4).shortest_path(s, t)

    # Vertices are read through operator.index, as edge endpoints are.
    def test_shortest_path_reads_bool_and_numpy_integer_as_int(self):
        g = path_graph(4)
        assert g.shortest_path(True, 3) == [1, 2, 3]
        assert g.shortest_path(np.int64(2), False) == [2, 1, 0]
        assert all(type(v) is int for v in g.shortest_path(True, np.int16(3)))


class TestClosedFormDistances:
    """Distances of path, complete and product graphs come from closed forms."""

    @pytest.mark.parametrize("g", [
        grid_graph(32, 32), modular_graph(16, 16), path_graph(9), complete_graph(6),
        # a generic first factor, and zeros in vec on both sides of its ones
        hierarchical_product(ArchitectureGraph(4, {(0, 1), (1, 2), (1, 3)}), path_graph(6),
                             (0, 1, 0, 0, 1, 0)),
        hierarchical_product(complete_graph(3), ArchitectureGraph(5, {(0, 1), (1, 2), (2, 3),
                                                                      (3, 4), (4, 0), (0, 2)}),
                             (0, 0, 1, 0, 0)),
        *(pytest.param(build_architecture(spec), id=spec)
          for spec in ["path:7", "complete:5", "grid:3x5", "modular:4x3"]),
        *(pytest.param(g, id=f"hier-file-{g.factor1.kind}-{g.factor2.kind}")
          for g in HIER_FILE_GRAPHS),
    ], ids=repr)
    def test_equal_csgraph(self, g):
        edges = reference_edges(g)
        assert g.edges == edges
        d = g.distances()
        assert d.dtype == np.int16
        assert np.array_equal(d, csgraph_distances(g.n, edges))
