import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from graphmin import (
    Graph,
    UnknownVertexError,
    classify_block,
    complete_graph,
    connected_components,
    decide_vertex_minor,
    delete_vertex,
    foliage_equivalent,
    foliage_graph,
    graph_state,
    lc_path,
    local_complement,
    measure_x,
    measure_y,
    measure_z,
    path_graph,
    replay,
    ring_graph,
)
from graphmin.ops import Step
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

    def test_rejects_bool_count(self):
        for count in (True, False):
            with pytest.raises(ValueError, match="vertex count must be >= 0"):
                Graph(count)

    @pytest.mark.parametrize("labels", [[True, 2], [False, 2], [True]])
    def test_rejects_bool_label(self, labels):
        with pytest.raises(ValueError, match="vertex labels must be integers in 1..64"):
            Graph(labels)

    @pytest.mark.parametrize("labels", [[1, True], [True, 1], [1, 1.0, 2], [2.0], [1, "2"]])
    def test_checks_every_label_before_merging_duplicates(self, labels):
        # ``True`` and ``1.0`` hash as ``1``: a set of the labels once merged
        # them away unchecked
        with pytest.raises(ValueError, match="vertex labels must be integers in 1..64"):
            Graph(labels)

    def test_repeated_int_labels_merge(self):
        assert Graph([2, 1, 2], [(1, 2)]) == Graph(2, [(1, 2)])

    @pytest.mark.parametrize("edge", [(1.0, 2), (2, 1.0), (1, 1.0), (1, "2")])
    def test_rejects_endpoint_that_is_not_an_int(self, edge):
        # ``1.0`` was found in the label dict, then ``1 << 1.0`` raised TypeError
        with pytest.raises(UnknownVertexError, match="unknown vertex label"):
            Graph([1, 2], [edge])

    @pytest.mark.parametrize("edge", [(True, 2), (2, True), (False, 2)])
    def test_rejects_bool_endpoint(self, edge):
        with pytest.raises(UnknownVertexError, match="unknown vertex label"):
            Graph([1, 2], [edge])

    @pytest.mark.parametrize("call", [
        lambda g: g.neighbor_mask(True),
        lambda g: g.neighbors(True),
        lambda g: g.degree(True),
        lambda g: g.has_edge(2, True),
        lambda g: local_complement(g, True),
        lambda g: delete_vertex(g, True),
        lambda g: measure_x(g, True),
        lambda g: measure_x(g, 2, True),
    ], ids=["neighbor_mask", "neighbors", "degree", "has_edge", "local_complement",
            "delete_vertex", "measure_x", "measure_x-neighbor"])
    def test_bool_is_an_unknown_label(self, call):
        with pytest.raises(UnknownVertexError, match="unknown vertex label True"):
            call(path_graph(3))

    def test_has_vertex_is_false_for_bool(self):
        g = path_graph(3)
        assert g.has_vertex(1) and not g.has_vertex(True)

    def test_has_vertex_is_false_for_float(self):
        # ``1.0 == 1``, but a label is an ``int``
        g = path_graph(3)
        assert not g.has_vertex(1.0) and not g.has_vertex(2.0)

    @pytest.mark.parametrize("call", [
        lambda g: local_complement(g, 2.0),
        lambda g: delete_vertex(g, 2.0),
        lambda g: measure_x(g, 2.0),
        lambda g: measure_x(g, 1, 2.0),
        lambda g: foliage_equivalent(g, 2.0, 1),
        lambda g: classify_block(g, [2.0]),
    ], ids=["local_complement", "delete_vertex", "measure_x", "measure_x-neighbor",
            "foliage_equivalent", "classify_block"])
    def test_float_is_an_unknown_label(self, call):
        # a float equal to a label once passed the label check: ``local_complement``
        # returned a graph, and the others raised TypeError from ``1 << 2.0``
        with pytest.raises(UnknownVertexError, match="unknown vertex label 2.0"):
            call(path_graph(3))

    def test_ring_needs_three_vertices(self):
        with pytest.raises(ValueError, match="^ring needs at least 3 vertices, got 2$"):
            ring_graph(2)

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



class TestValueSemantics:
    # graphs on different label sets can share their rows (all zero when
    # edgeless, or with edges whose labels are all kept), so equality and
    # hashing must see the labels as well as the rows
    def test_edgeless_graphs_on_different_labels_differ(self):
        g, h = Graph([1, 2]), Graph([3, 4])
        assert g != h
        assert len({g, h}) == 2

    def test_deletion_equals_graph_built_on_the_labels_left(self):
        g = delete_vertex(path_graph(3), 2)
        assert g == Graph([1, 3])
        assert hash(g) == hash(Graph([1, 3]))
        assert g != Graph([1, 2]) and g != Graph([2, 3])

    def test_rewritten_graph_finds_entry_of_equal_built_graph(self):
        rng = random.Random(5)
        for _ in range(60):
            labels = sorted(rng.sample(range(1, 65), rng.randint(2, 8)))
            g = Graph(labels, [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:] if rng.random() < 0.5])
            for a in rng.sample(labels, 3 if len(labels) > 3 else 1):
                g = local_complement(g, a) if rng.random() < 0.7 else delete_vertex(g, a)
            table = {Graph(g.vertices, g.edges()): "built"}
            assert table[g] == "built"
            assert hash(g) == hash(Graph(g.vertices, g.edges()))


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


def _relabel(g, labels):
    """``g`` with its ``i``-th smallest label renamed to ``labels[i]``."""
    name = dict(zip(g.vertices, labels))
    return Graph(labels, [(name[a], name[b]) for a, b in g.edges()])


class TestLabelIndexedRows:
    """A graph's row for label ``v`` is ``rows[v]``; rows 0 and of labels not alive are 0,
    and the tuple ends at the largest alive label, 64 at most."""

    SCATTERED = (1, 33, 40, 64)
    G = Graph(SCATTERED, [(1, 33), (33, 64), (40, 64)])
    DENSE = _relabel(G, (1, 2, 3, 4))  # the same graph on labels 1..4, 64 as 4

    def test_label_64_is_the_last_row(self):
        assert len(self.G._rows) == 65 and self.G._rows[64] == 1 << 33 | 1 << 40
        assert self.G._rows[0] == self.G._rows[2] == 0 and self.G.neighbors(64) == {33, 40}

    @pytest.mark.parametrize("rewrite", [local_complement, delete_vertex, measure_z, measure_y, measure_x],
                             ids=["lc", "delete", "z", "y", "x"])
    def test_every_rewrite_at_label_64_is_the_rewrite_at_label_4(self, rewrite):
        out, dense = rewrite(self.G, 64), rewrite(self.DENSE, 4)
        labels = [v for v in self.SCATTERED if v in out.vertices]
        assert out == _relabel(dense, labels) and out.vertices == tuple(labels)

    def test_replay_decider_path_quotient_and_state_at_label_64(self):
        steps = [Step("lc", 64), Step("measure_x", 33, 1), Step("lc", 40)]
        assert replay(self.G, steps) == _relabel(replay(self.DENSE, [Step("lc", 4), Step("measure_x", 2, 1),
                                                                  Step("lc", 3)]), (1, 40, 64))
        h = Graph([1, 64], [(1, 64)])
        decision = decide_vertex_minor(self.G, h)
        assert decision.answer == "yes" and replay(self.G, decision.witness) == h
        assert lc_path(self.G, local_complement(self.G, 64)) == (64,)
        fg = foliage_graph(self.G)
        assert fg.graph == _relabel(foliage_graph(self.DENSE).graph, fg.representatives)
        assert graph_state(self.G) == graph_state(self.DENSE)

    @pytest.mark.parametrize("remove", [
        lambda g, v: delete_vertex(g, v),
        lambda g, v: measure_y(g, v),
        lambda g, v: measure_x(g, v),
        lambda g, v: replay(g, [Step("delete", v)]),
    ], ids=["delete_vertex", "measure_y", "measure_x", "replay"])
    def test_removing_the_largest_label_equals_the_graph_built_directly(self, remove):
        for g in (self.G, Graph([5, 9], [(5, 9)]), Graph([2, 7, 64], [(2, 64), (7, 64)])):
            top = g.vertices[-1]
            out = remove(g, top)
            direct = Graph(out.vertices, out.edges())
            assert out == direct and hash(out) == hash(direct) and out._rows == direct._rows
            assert len(out._rows) == max(out.vertices) + 1 and not out.has_vertex(top)

    @pytest.mark.parametrize("label", [0, -1, 65, 2 ** 70])
    def test_has_vertex_is_false_outside_the_labels(self, label):
        assert self.G.has_vertex(label) is False

    def test_a_negative_label_is_unknown(self):
        with pytest.raises(UnknownVertexError, match="^unknown vertex label -1$"):
            self.G.neighbor_mask(-1)

    def test_equal_rows_on_two_label_sets_are_two_graphs(self):
        assert Graph([3])._rows == Graph([1, 3])._rows and Graph([3]) != Graph([1, 3])

    def test_pickle_and_deepcopy_round_trip(self):
        for g in (self.G, delete_vertex(self.G, 64), Graph([])):
            for clone in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
                assert clone == g and hash(clone) == hash(g) and clone._rows == g._rows
                assert clone._alive == g._alive and repr(clone) == repr(g)
