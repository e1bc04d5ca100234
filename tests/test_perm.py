"""Partial permutation algebra."""
import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qroute.perm import PartialPermutation


def pp(n, mapping):
    return PartialPermutation.from_mapping(n, mapping)


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

    # Sources are read before targets, and targets in ascending source order,
    # whatever order the mapping lists them in: each mapping's first listed
    # fault is not the one named.
    @pytest.mark.parametrize("mapping,message", [
        ({0: 7, 5: 1}, r"source 5 out of range \[0, 3\)"),
        ({1: 0.5, 0: 1, 2.5: 2}, "source 2.5 is not an integer"),
        ({2: 0.5, 0: 9}, r"target 9 out of range \[0, 3\)"),
        ({2: 1, 0: 1, 1: 5}, r"target 5 out of range \[0, 3\)"),
        ({2: 0, 1: 0, 0: 0.5}, "target 0.5 is not an integer"),
    ], ids=["bad-source-after-bad-target", "non-integer-source-last", "ascending-targets",
            "range-before-repeat", "integer-before-repeat"])
    def test_from_mapping_error_order(self, mapping, message):
        with pytest.raises(ValueError, match=message):
            PartialPermutation.from_mapping(3, mapping)

    def test_accepts_numpy_integers(self):
        p = PartialPermutation(3, [np.int64(2), np.int32(0), None])
        assert p.forward == [2, 0, None]
        assert pp(3, {np.int64(1): np.int16(2)}).forward == [None, 2, None]

    # A target is held as the int it reads as, so key() holds ints alone.
    @pytest.mark.parametrize("make", [lambda: PartialPermutation(3, [True, None, np.int64(2)]),
                                      lambda: pp(3, {0: True, np.int32(2): np.int64(2)})],
                             ids=["constructor", "from_mapping"])
    def test_holds_targets_as_ints(self, make):
        p = make()
        assert [type(t) for t in p.forward] == [int, type(None), int]
        assert json.dumps(p.key()) == "[1, null, 2]"

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


class TestHashing:
    # The second request is the first with its entries on vertices 0 and 1
    # exchanged, as a swap along (0, 1) would leave it.
    def test_key_is_a_set_member_that_tracks_swaps(self):
        seen = {PartialPermutation(3, [1, None, 0]).key()}
        assert PartialPermutation(3, [None, 1, 0]).key() not in seen
        assert PartialPermutation(3, [1, None, 0]).key() in seen


def _entry(draw, v):
    """Vertex v as a request may give it: an int, a numpy integer, or a bool."""
    kinds = [int, np.int64, np.int16] + ([bool] if v in (0, 1) else [])
    return draw(st.sampled_from(kinds))(v)


@st.composite
def mappings(draw):
    """A vertex count and a mapping over it; its targets may repeat or leave
    the range, as the sources, drawn distinct and in range, do not."""
    n = draw(st.integers(0, 10))
    sources = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    if draw(st.booleans()):
        targets = draw(st.permutations(range(n)))
    else:
        targets = draw(st.lists(st.integers(-1, n), min_size=n, max_size=n))
    return n, {_entry(draw, s): _entry(draw, t) if t >= 0 else t
               for s, t in zip(sources, targets)}


# from_mapping checks only the entries given; it must accept, hold and
# refuse exactly what the constructor does with the dense list they fill.
@given(mappings())
def test_from_mapping_agrees_with_constructor(case):
    n, mapping = case
    dense = [None] * n
    for s, t in mapping.items():
        dense[s] = t
    try:
        expect = PartialPermutation(n, dense).forward
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            PartialPermutation.from_mapping(n, mapping)
    else:
        got = PartialPermutation.from_mapping(n, mapping)
        assert got.forward == expect and got.n == n
        assert all(type(t) is int for t in got.forward if t is not None)
