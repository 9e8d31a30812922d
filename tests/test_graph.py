import random

import pytest
from hypothesis import given, strategies as st

from graphmin import (
    Graph,
    UnknownVertexError,
    complete_graph,
    connected_components,
    delete_vertex,
    local_complement,
    measure_x,
    measure_y,
    measure_z,
    path_graph,
)
from graphmin.orbit import lc_equivalent

from conftest import fig2, random_graph


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, chosen)


class TestConstruction:
    def test_count_form_builds_labels_1_to_n(self):
        g = Graph(3, [(1, 2)])
        assert g.vertices == (1, 2, 3)
        assert g.edges() == ((1, 2),)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(1, 1)])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(UnknownVertexError):
            Graph(2, [(1, 3)])

    def test_rejects_label_above_cap(self):
        with pytest.raises(ValueError):
            Graph([65])

    def test_duplicate_edges_merge(self):
        g = Graph(2, [(1, 2), (2, 1)])
        assert g.edges() == ((1, 2),)

    def test_immutable(self):
        g = Graph(2)
        with pytest.raises(AttributeError):
            g.n = 5


class TestLocalComplement:
    def test_four_vertex_example(self):
        assert local_complement(fig2(), 2).edges() == ((1, 2), (1, 4), (2, 3), (2, 4), (3, 4))

    def test_degree_one_is_fixed_point(self):
        g = Graph(2, [(1, 2)])
        assert local_complement(g, 1) == g

    def test_triangle_opens_to_path(self):
        tri = complete_graph(3)
        assert local_complement(tri, 1).edges() == ((1, 2), (1, 3))

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            local_complement(Graph(2), 9)

    @given(graphs())
    def test_involution(self, g):
        for a in g.vertices:
            assert local_complement(local_complement(g, a), a) == g

    @given(graphs())
    def test_preserves_components(self, g):
        comps = connected_components(g)
        for a in g.vertices:
            assert connected_components(local_complement(g, a)) == comps

    @given(graphs())
    def test_result_is_well_formed(self, g):
        for a in g.vertices:
            image = local_complement(g, a)
            for x, y in image.edges():
                assert x in image.neighbors(y) and y in image.neighbors(x)
                assert x != y


class TestDeletion:
    def test_four_vertex_example(self):
        g = delete_vertex(fig2(), 2)
        assert g.vertices == (1, 3, 4)
        assert g.edges() == ((1, 3),)

    def test_last_vertex_leaves_empty_graph(self):
        g = delete_vertex(Graph(1), 1)
        assert g.vertices == ()
        assert g.n == 0

    def test_triangle_any_vertex_leaves_one_edge(self):
        for v in (1, 2, 3):
            assert len(delete_vertex(complete_graph(3), v).edges()) == 1

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertexError):
            delete_vertex(Graph(2), 3)


class TestMeasurements:
    def test_z_on_four_vertex_example(self):
        assert measure_z(fig2(), 2).edges() == ((1, 3),)

    def test_y_on_four_vertex_example(self):
        assert measure_y(fig2(), 2).edges() == ((1, 4), (3, 4))

    def test_x_on_four_vertex_example_any_neighbor(self):
        for b in (1, 3, 4):
            assert measure_x(fig2(), 2, b).edges() == ((1, 3), (1, 4), (3, 4))

    def test_x_on_isolated_vertex_acts_like_z(self):
        g = Graph(3, [(2, 3)])
        assert measure_x(g, 1) == measure_z(g, 1)

    def test_y_contracts_path_interior(self):
        assert measure_y(path_graph(3), 2).edges() == ((1, 3),)

    def test_x_rejects_non_neighbor(self):
        with pytest.raises(ValueError, match="not a neighbor"):
            measure_x(path_graph(3), 1, 3)

    def test_x_rejects_neighbor_for_isolated(self):
        with pytest.raises(ValueError, match="isolated"):
            measure_x(Graph(2), 1, 2)

    @given(graphs())
    def test_x_equals_three_local_complements_then_delete(self, g):
        for a in g.vertices:
            for b in sorted(g.neighbors(a)):
                three = local_complement(local_complement(local_complement(g, b), a), b)
                assert measure_x(g, a, b) == delete_vertex(three, a)

    def test_x_neighbor_choices_agree_up_to_lc(self, rng):
        # every routing choice lands in one LC class
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 8))
            for a in g.vertices:
                nbrs = sorted(g.neighbors(a))
                if len(nbrs) < 2:
                    continue
                images = [measure_x(g, a, b) for b in nbrs]
                assert all(lc_equivalent(images[0], img) for img in images[1:])


class TestSetOperations:
    def test_components(self):
        g = Graph(5, [(1, 2), (4, 5)])
        assert connected_components(g) == [frozenset({1, 2}), frozenset({3}), frozenset({4, 5})]

    def test_components_of_empty_graph(self):
        assert connected_components(delete_vertex(Graph(1), 1)) == []


class TestRewriteInvariants:
    def test_involution_across_random_corpus(self):
        rng = random.Random(99)
        for _ in range(120):
            g = random_graph(rng, rng.randint(1, 10))
            for a in g.vertices:
                assert local_complement(local_complement(g, a), a) == g

    @given(graphs())
    def test_measurements_keep_invariants(self, g):
        for a in g.vertices:
            for image in (measure_z(g, a), measure_y(g, a), measure_x(g, a)):
                assert not image.has_vertex(a)
                for x, y in image.edges():
                    assert image.has_edge(y, x)
