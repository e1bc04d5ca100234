"""Partial permutation algebra."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from qroute.perm import PartialPermutation, compose, union


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

    def test_accepts_numpy_integers(self):
        p = PartialPermutation(3, [np.int64(2), np.int32(0), None])
        assert p.forward == [2, 0, None]
        assert pp(3, {np.int64(1): np.int16(2)}).forward == [None, 2, None]

    # A list would read -1 as the last vertex.
    @pytest.mark.parametrize("v", [-1, 3])
    def test_call_rejects_vertex_out_of_range(self, v):
        with pytest.raises(ValueError, match=rf"vertex {v} out of range \[0, 3\)"):
            PartialPermutation(3, [1, None, 0])(v)

    def test_dom_image_sizes_match(self):
        p = pp(5, {0: 3, 2: 1})
        assert p.dom() == [0, 2]
        assert p.image() == [3, 1]


class TestCompose:
    def test_chains_through_shared_vertex(self):
        g = pp(4, {1: 2})
        f = pp(4, {2: 0})
        assert compose(f, g) == pp(4, {1: 0})

    def test_identity_on_image_of_g(self):
        g = pp(4, {0: 2, 3: 1})
        f = pp(4, {2: 2, 1: 1})
        assert compose(f, g) == g

    def test_empty_when_images_miss_domain(self):
        g = pp(4, {0: 1})
        f = pp(4, {2: 3})
        assert compose(f, g) == PartialPermutation(4)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(pp(3, {}), pp(4, {}))

    @given(random_partial())
    def test_inverse_then_forward_is_identity_on_dom(self, p):
        r = compose(p.inverse(), p)
        for v in p.dom():
            assert r(v) == v
        assert sorted(r.dom()) == sorted(p.dom())


class TestUnion:
    def test_disjoint(self):
        assert union(pp(4, {0: 1}), pp(4, {2: 3})) == pp(4, {0: 1, 2: 3})

    def test_empty_left_identity(self):
        g = pp(4, {1: 3})
        assert union(PartialPermutation(4), g) == g

    def test_image_overlap_rejected(self):
        with pytest.raises(ValueError):
            union(pp(4, {0: 1}), pp(4, {2: 1}))

    def test_domain_overlap_rejected(self):
        with pytest.raises(ValueError):
            union(pp(4, {0: 1}), pp(4, {0: 2}))

    @given(random_partial(), random_partial())
    def test_union_restricted_to_first_argument(self, f, g):
        if f.n != g.n:
            return
        f_dom, f_img = set(f.dom()), set(f.image())
        if f_dom & set(g.dom()) or f_img & set(g.image()):
            return
        u = union(f, g)
        for v in f.dom():
            assert u(v) == f(v)


class TestCompletion:
    def test_total_unchanged(self):
        p = pp(3, {0: 1, 1: 2, 2: 0})
        assert p.complete_arbitrary() == p

    def test_ascending_fill(self):
        assert pp(3, {0: 2}).complete_arbitrary() == pp(3, {0: 2, 1: 0, 2: 1})

    def test_empty_becomes_identity(self):
        assert PartialPermutation(4).complete_arbitrary() == PartialPermutation.identity(4)

    @given(random_partial())
    def test_completion_is_total_bijection_extending_p(self, p):
        c = p.complete_arbitrary()
        assert c.is_total()
        assert sorted(c.image()) == list(range(p.n))
        for v in p.dom():
            assert c(v) == p(v)


class TestSwap:
    def test_token_moves(self):
        p = pp(2, {0: 1})
        p.apply_swap(0, 1)
        assert p == pp(2, {1: 1})

    def test_involution(self):
        p = pp(4, {0: 2, 3: 1})
        q = p.copy()
        q.apply_swap(1, 2)
        q.apply_swap(1, 2)
        assert q == p

    def test_both_tokens_delivered(self):
        p = pp(2, {0: 1, 1: 0})
        p.apply_swap(0, 1)
        assert p.is_resolved()

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            pp(2, {}).apply_swap(0, 2)

    @given(random_partial(), st.integers(0, 7), st.integers(0, 7))
    def test_swap_preserves_target_multiset(self, p, u, v):
        if u >= p.n or v >= p.n or u == v:
            return
        before = sorted(p.image())
        p.apply_swap(u, v)
        assert sorted(p.image()) == before


class TestResolved:
    def test_identity_resolved(self):
        assert PartialPermutation.identity(3).is_resolved()

    def test_single_displaced_token(self):
        assert not pp(2, {0: 1}).is_resolved()

    def test_empty_vacuously_resolved(self):
        assert PartialPermutation(3).is_resolved()


class TestHashing:
    def test_mutable_pp_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(pp(3, {0: 1}))

    def test_key_is_a_set_member_that_tracks_swaps(self):
        p = pp(3, {0: 1, 2: 0})
        seen = {p.key()}
        p.apply_swap(0, 1)
        assert p.key() not in seen
        p.apply_swap(0, 1)
        assert p.key() in seen
