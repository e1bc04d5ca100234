"""Partial permutation algebra."""
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qroute.graphs import complete_graph, path_graph
from qroute.perm import PartialPermutation
from qroute.permuters import check_routing


def pp(n, mapping):
    return PartialPermutation.from_mapping(n, mapping)


def random_partial(draw_n=8):
    """Hypothesis strategy: a random partial permutation on up to draw_n vertices."""
    @st.composite
    def strat(draw):
        n = draw(st.integers(min_value=1, max_value=draw_n))
        k = draw(st.integers(min_value=0, max_value=n))
        sources = draw(st.permutations(range(n)))[:k]
        targets = draw(st.permutations(range(n)))[:k]
        return pp(n, dict(zip(sources, targets)))
    return strat()


class TestConstruction:
    def test_rejects_out_of_range_target(self):
        with pytest.raises(ValueError):
            PartialPermutation(2, [0, 5])

    def test_rejects_duplicate_target(self):
        with pytest.raises(ValueError):
            PartialPermutation(3, [1, 1, None])

    @pytest.mark.parametrize("forward,message", [
        ([1.5, None, None], "target 1.5 is not an integer"),
        ([1.0, 0, 2], "target 1.0 is not an integer"),
        (["1", None, None], "target '1' is not an integer"),
    ], ids=["fractional", "integral-float", "string"])
    def test_rejects_non_integer_target(self, forward, message):
        with pytest.raises(ValueError, match=message):
            PartialPermutation(3, forward)

    @pytest.mark.parametrize("mapping,message", [
        ({1.5: 0}, "source 1.5 is not an integer"),
        ({0: 1, 2.0: 0}, "source 2.0 is not an integer"),
        ({0: 0.5}, "target 0.5 is not an integer"),
    ], ids=["fractional-source", "integral-float-source", "fractional-target"])
    def test_from_mapping_rejects_non_integers(self, mapping, message):
        with pytest.raises(ValueError, match=message):
            PartialPermutation.from_mapping(3, mapping)

    @pytest.mark.parametrize("make", [lambda n: PartialPermutation(n, [None, None]),
                                      lambda n: PartialPermutation.from_mapping(n, {})],
                             ids=["constructor", "from_mapping"])
    def test_rejects_non_integer_size(self, make):
        with pytest.raises(ValueError, match=r"vertex count 2\.0 is not an integer"):
            make(2.0)

    def test_accepts_numpy_integers(self):
        p = PartialPermutation(3, [np.int64(2), np.int32(0), None])
        assert p.forward == [2, 0, None]
        assert pp(3, {np.int64(1): np.int16(2)}).forward == [None, 2, None]

    # A list would read -1 as the last vertex.
    @pytest.mark.parametrize("v", [-1, 3])
    def test_call_rejects_vertex_out_of_range(self, v):
        with pytest.raises(ValueError, match=rf"vertex {v} out of range \[0, 3\)"):
            PartialPermutation(3, [1, None, 0])(v)

    @pytest.mark.parametrize("v", [1.5, "1", None])
    def test_call_rejects_non_integer_vertex(self, v):
        with pytest.raises(ValueError, match=rf"vertex {re.escape(repr(v))} is not an integer"):
            PartialPermutation(3, [1, None, 0])(v)

    # Vertices are read through operator.index, so a bool is its integer value.
    def test_call_reads_bool_and_numpy_integer_as_int(self):
        p = PartialPermutation(3, [1, None, 0])
        assert p(False) == 1 and p(True) is None and p(np.int64(2)) == 0

    def test_dom_image_sizes_match(self):
        p = pp(5, {0: 3, 2: 1})
        assert p.dom() == [0, 2]
        assert [t for t in p.forward if t is not None] == [3, 1]


# A partial permutation never moves: swaps happen only in check_routing's
# replay, on its own copy of ``forward``.  These pin that replay.
class TestSwap:
    def test_token_moves(self):
        check_routing(path_graph(2), pp(2, {0: 1}), [[(0, 1)]])

    def test_involution(self):
        p = pp(4, {1: 1, 2: 2})
        check_routing(path_graph(4), p, [[(1, 2)], [(1, 2)]])
        assert p == pp(4, {1: 1, 2: 2})

    def test_both_tokens_delivered(self):
        check_routing(path_graph(2), pp(2, {0: 1, 1: 0}), [[(1, 0)]])

    def test_out_of_range(self):
        with pytest.raises(ValueError, match=r"step 0: vertex 2 out of range \[0, 2\)"):
            check_routing(path_graph(2), pp(2, {}), [[(0, 2)]])

    @pytest.mark.parametrize("u,v,message", [
        (0.5, 1, "vertex 0.5 is not an integer"),
        (0, 1.0, "vertex 1.0 is not an integer"),
        (-1, 0, r"vertex -1 out of range \[0, 2\)"),
    ], ids=["fractional", "integral-float", "negative"])
    def test_rejects_bad_vertex(self, u, v, message):
        p = pp(2, {0: 1})
        with pytest.raises(ValueError, match=message):
            check_routing(path_graph(2), p, [[(u, v)]])
        assert p == pp(2, {0: 1})

    # Selection sort by single swaps on K_n resolves p only if no swap loses
    # or duplicates a token.
    @given(random_partial())
    def test_swap_preserves_target_multiset(self, p):
        tokens, steps = list(p.forward), []
        for t in range(p.n):
            if t in tokens and tokens[t] != t:
                s = tokens.index(t)
                tokens[s], tokens[t] = tokens[t], tokens[s]
                steps.append([(s, t)])
        check_routing(complete_graph(p.n), p, steps)


class TestResolved:
    def test_identity_resolved(self):
        check_routing(path_graph(3), PartialPermutation(3, range(3)), [])

    def test_single_displaced_token(self):
        with pytest.raises(ValueError, match="0 steps leave 1 tokens unresolved"):
            check_routing(path_graph(2), pp(2, {0: 1}), [])

    def test_empty_vacuously_resolved(self):
        check_routing(path_graph(3), PartialPermutation(3), [])


class TestHashing:
    def test_mutable_pp_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(pp(3, {0: 1}))

    def test_key_is_a_set_member_that_tracks_swaps(self):
        p = pp(3, {0: 1, 2: 0})
        seen = {p.key()}
        p.forward[0], p.forward[1] = p.forward[1], p.forward[0]
        assert p.key() not in seen
        p.forward[0], p.forward[1] = p.forward[1], p.forward[0]
        assert p.key() in seen
