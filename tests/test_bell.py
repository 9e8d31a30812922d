import hashlib
import itertools
import json
import random

import pytest

from graphmin import (
    Graph,
    NotATreeError,
    decide_bell,
    decide_bell_line,
    decide_bell_ring,
    decide_bell_tree,
    decide_vertex_minor,
    line_query,
    path_graph,
    replay,
    ring_graph,
    ring_query,
    tree_query,
)
from graphmin.bell import SIX_CYCLE_FINISH
from graphmin.minor import NO, YES
from graphmin.ops import steps_to_json

from conftest import prufer_tree


def bell_target(pair_a, pair_b):
    return Graph(set(pair_a) | set(pair_b), [tuple(pair_a), tuple(pair_b)])


def pair_placements(n):
    for four in itertools.combinations(range(1, n + 1), 4):
        rest = list(four)
        anchor = rest[0]
        for partner in rest[1:]:
            others = [v for v in rest if v not in (anchor, partner)]
            yield (anchor, partner), tuple(others)


class TestQueryValidation:
    def test_needs_four_distinct_endpoints(self):
        with pytest.raises(ValueError, match="distinct"):
            line_query(6, (1, 2), (2, 4))

    def test_endpoints_within_range(self):
        with pytest.raises(ValueError, match="outside"):
            line_query(5, (1, 2), (4, 6))

    @pytest.mark.parametrize("query, pair_a, pair_b", [
        (line_query, (True, 3), (4, 6)),  # once answered no, as if it were (1, 3)
        (line_query, (1.0, 2), (4, 6)),  # once raised TypeError from ``range``
        (ring_query, (True, 6), (2, 4)),  # once raised UnknownVertexError in the replay
        (line_query, (1, 3), (4, "6")),
    ], ids=["line-bool", "line-float", "ring-bool", "line-str"])
    def test_endpoints_must_be_int_labels(self, query, pair_a, pair_b):
        with pytest.raises(ValueError, match="endpoints must be integer labels"):
            query(6 if query is line_query else 8, pair_a, pair_b)

    def test_tree_endpoints_must_be_int_labels(self):
        with pytest.raises(ValueError, match="endpoints must be integer labels, got True"):
            tree_query(path_graph(6), (True, 3), (4, 6))

    @pytest.mark.parametrize("query, graph", [
        (line_query, 6),  # once accepted, then raised "too many values to unpack" when decided
        (ring_query, 8),  # the same
        (tree_query, path_graph(6)),  # once raised TypeError from ``_tree_path`` when decided
    ], ids=["line", "ring", "tree"])
    def test_each_pair_has_two_endpoints(self, query, graph):
        with pytest.raises(ValueError, match=r"two endpoints, got \(1, 2, 3\) and \(5,\)$"):
            query(graph, (1, 2, 3), (5,))

    @pytest.mark.parametrize("query", [line_query, ring_query])
    def test_size_above_label_cap_rejected(self, query):
        # a "no" placement once answered for a graph that cannot be built
        with pytest.raises(ValueError, match="n <= 64, got 100"):
            query(100, (1, 3), (2, 4))

    def test_ring_needs_four_vertices(self):
        with pytest.raises(ValueError, match="n >= 4"):
            ring_query(3, (1, 2), (3, 4))

    def test_tree_query_rejects_cycles(self):
        with pytest.raises(NotATreeError):
            tree_query(ring_graph(4), (1, 2), (3, 4))

    def test_tree_query_rejects_forest(self):
        with pytest.raises(NotATreeError):
            tree_query(Graph(4, [(1, 2), (3, 4)]), (1, 2), (3, 4))

    def test_tree_query_rejects_disconnected_graph_with_tree_edge_count(self):
        with pytest.raises(NotATreeError, match=r"^graph is not a tree \(disconnected\)$"):
            tree_query(Graph(5, [(1, 2), (2, 3), (3, 1), (4, 5)]), (1, 2), (4, 5))

    @pytest.mark.parametrize("query, size", [
        (line_query, True),  # once a line of 1, so "endpoints [2, 3, 4] outside the graph"
        (line_query, 6.0),  # once raised TypeError from ``range``
        (ring_query, 4.0),  # the same
    ], ids=["line-bool", "line-float", "ring-float"])
    def test_size_must_be_an_int(self, query, size):
        with pytest.raises(ValueError, match=f"^{query.__name__[:4]} size must be an integer, got {size!r}$"):
            query(size, (1, 2), (3, 4))

    @pytest.mark.parametrize("decide, query, message", [
        (decide_bell_line, ring_query(6, (1, 2), (4, 5)), "expected a line query, got ring"),
        (decide_bell_ring, line_query(6, (1, 2), (4, 5)), "expected a ring query, got line"),
        (decide_bell_tree, line_query(6, (1, 2), (4, 5)), "expected a tree query, got line"),
    ], ids=["line", "ring", "tree"])
    def test_decider_refuses_another_topology(self, decide, query, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            decide(query)

    def test_topology_dispatch(self):
        assert decide_bell(line_query(6, (1, 2), (4, 5))).answer == YES


class TestLine:
    def test_side_by_side_with_gap(self):
        d = decide_bell_line(line_query(6, (1, 2), (4, 5)))
        assert d.answer == YES
        assert replay(path_graph(6), d.witness) == bell_target((1, 2), (4, 5))

    def test_nested_pairs_blocked(self):
        d = decide_bell_line(line_query(6, (1, 6), (3, 4)))
        assert d.answer == NO and d.rule == "line-nested"

    def test_adjacent_inner_endpoints_blocked(self):
        d = decide_bell_line(line_query(5, (1, 2), (3, 4)))
        assert d.answer == NO and d.rule == "line-adjacent"

    def test_interleaved_pairs_blocked(self):
        d = decide_bell_line(line_query(6, (2, 4), (3, 6)))
        assert d.answer == NO and d.rule == "line-interleaved"

    def test_pair_order_and_roles_do_not_matter(self):
        for pa, pb in (((4, 5), (1, 2)), ((5, 4), (2, 1))):
            assert decide_bell_line(line_query(6, pa, pb)).answer == YES

    def test_monotone_in_length(self):
        for n in range(4, 9):
            for pair_a, pair_b in pair_placements(n):
                if decide_bell_line(line_query(n, pair_a, pair_b)).answer == YES:
                    assert decide_bell_line(line_query(n + 1, pair_a, pair_b)).answer == YES

    def test_agrees_with_brute_force_n6(self):
        for pair_a, pair_b in pair_placements(6):
            fast = decide_bell_line(line_query(6, pair_a, pair_b)).answer
            slow = decide_vertex_minor(path_graph(6), bell_target(pair_a, pair_b)).answer
            assert fast == slow


class TestTree:
    def test_four_vertex_star_always_blocked(self):
        g = Graph(4, [(1, 2), (1, 3), (1, 4)])
        for pair_a, pair_b in pair_placements(4):
            d = decide_bell_tree(tree_query(g, pair_a, pair_b))
            assert d.answer == NO

    def test_bridge_between_far_edges(self):
        # two pendant edges joined through a long middle path
        g = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
        d = decide_bell_tree(tree_query(g, (1, 2), (5, 6)))
        assert d.answer == YES
        assert replay(g, d.witness) == bell_target((1, 2), (5, 6))

    def test_paths_sharing_a_vertex_blocked(self):
        g = Graph(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
        d = decide_bell_tree(tree_query(g, (1, 4), (2, 5)))
        assert d.answer == NO and d.rule == "tree-adjacent-paths"

    def test_disjoint_paths_with_connecting_edge_blocked(self):
        # the paths {1,2} and {3,4} are vertex-disjoint but edge 2-3 joins them
        g = Graph(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
        d = decide_bell_tree(tree_query(g, (1, 2), (3, 4)))
        assert d.answer == NO and d.rule == "tree-adjacent-paths"
        assert decide_vertex_minor(g, bell_target((1, 2), (3, 4))).answer == NO

    def test_disjoint_paths_without_connecting_edge_pass(self):
        # same shape, but the crossbar hangs off interior bridge vertices
        g = Graph(6, [(1, 2), (3, 4), (2, 5), (5, 6), (6, 3)])
        d = decide_bell_tree(tree_query(g, (1, 2), (3, 4)))
        assert d.answer == YES
        assert replay(g, d.witness) == bell_target((1, 2), (3, 4))

    def test_agrees_with_brute_force_on_random_trees(self, rng):
        for _ in range(60):
            n = rng.randint(4, 7)
            seq = tuple(rng.randint(1, n) for _ in range(n - 2))
            g = prufer_tree(seq, n)
            pair_a, pair_b = next(
                itertools.islice(pair_placements(n), rng.randrange(3 * _c4(n)), None)
            )
            fast = decide_bell_tree(tree_query(g, pair_a, pair_b)).answer
            slow = decide_vertex_minor(g, bell_target(pair_a, pair_b)).answer
            assert fast == slow

    def test_agrees_with_brute_force_on_scattered_labels(self):
        # Prufer trees relabelled into 1..64, so a label's row position is not label - 1;
        # one pair is a tree edge, which makes a yes likely, and every yes witness replays
        rng, answers = random.Random(2201), []
        for _ in range(160):
            n = rng.randint(6, 9)
            tree = prufer_tree(tuple(rng.randint(1, n) for _ in range(n - 2)), n)
            name = dict(zip(range(1, n + 1), rng.sample(range(1, 65), n)))
            g = Graph(name.values(), [(name[a], name[b]) for a, b in tree.edges()])
            pair_a = tuple(rng.sample(rng.choice(g.edges()), 2))
            pair_b = tuple(rng.sample(sorted(set(g.vertices) - set(pair_a)), 2))
            d = decide_bell_tree(tree_query(g, pair_a, pair_b))
            assert d.answer == decide_vertex_minor(g, bell_target(pair_a, pair_b)).answer, (g, pair_a, pair_b)
            if d.answer == YES:
                assert replay(g, d.witness) == bell_target(pair_a, pair_b)
            answers.append(d.answer)
        assert answers.count(YES) >= 20 and answers.count(NO) >= 20


def _c4(n):
    return n * (n - 1) * (n - 2) * (n - 3) // 24


class TestRing:
    def test_eight_ring_witness_replays(self):
        d = decide_bell_ring(ring_query(8, (1, 6), (2, 4)))
        assert d.answer == YES
        assert replay(ring_graph(8), d.witness) == bell_target((1, 6), (2, 4))

    def test_three_consecutive_blocked(self):
        d = decide_bell_ring(ring_query(7, (1, 2), (3, 5)))
        assert d.answer == NO and d.rule == "ring-three-consecutive"

    def test_crossing_pairs_blocked(self):
        d = decide_bell_ring(ring_query(4, (1, 3), (2, 4)))
        assert d.answer == NO and d.rule == "ring-crossing"

    def test_both_separating_arcs_open(self):
        d = decide_bell_ring(ring_query(8, (1, 2), (4, 5)))
        assert d.answer == YES
        assert replay(ring_graph(8), d.witness) == bell_target((1, 2), (4, 5))

    def test_both_separating_arcs_empty(self):
        d = decide_bell_ring(ring_query(6, (1, 3), (4, 6)))
        assert d.answer == YES
        assert replay(ring_graph(6), d.witness) == bell_target((1, 3), (4, 6))

    def test_six_cycle_finish_matches_fresh_derivation(self):
        derived = decide_vertex_minor(ring_graph(6), Graph([1, 3, 4, 6], [(1, 3), (4, 6)]))
        assert derived.answer == YES
        assert derived.witness == SIX_CYCLE_FINISH
        assert replay(ring_graph(6), SIX_CYCLE_FINISH) == Graph([1, 3, 4, 6], [(1, 3), (4, 6)])

    def test_agrees_with_brute_force_n6(self):
        for pair_a, pair_b in pair_placements(6):
            fast = decide_bell_ring(ring_query(6, pair_a, pair_b)).answer
            slow = decide_vertex_minor(ring_graph(6), bell_target(pair_a, pair_b)).answer
            assert fast == slow


def lemma_blockers(topology: str, n: int, pair: tuple[int, int], b: int) -> bool:
    """Flagged configurations for extracting a Bell pair plus an isolated vertex.

    line: ``b`` strictly between the pair endpoints; such instances are
    never extractable. ring: pair and ``b`` on three consecutive positions
    with the second pair endpoint in the middle; that configuration is only
    impossible on the 4-ring (from five vertices up an x measurement
    escapes it), so it marks the flagged shape rather than deciding
    anything. A False says nothing either way.
    """
    if len({pair[0], pair[1], b}) != 3:
        raise ValueError("need three distinct vertices")
    if topology == "line":
        lo, hi = sorted(pair)
        return lo < b < hi
    if topology == "ring":
        a1, a2 = pair
        adjacent = lambda x, y: (x - y) % n in (1, n - 1)
        return adjacent(a1, a2) and adjacent(a2, b)
    raise ValueError(f"no blocker conditions for topology {topology!r}")


class TestLemmaBlockers:
    def test_line_blocked_between_endpoints(self):
        assert lemma_blockers("line", 5, (1, 4), 2)

    def test_line_silent_outside(self):
        assert not lemma_blockers("line", 4, (1, 2), 4)
        # the lemma stays silent and brute force confirms extraction there
        d = decide_vertex_minor(path_graph(4), Graph([1, 2, 4], [(1, 2)]))
        assert d.answer == YES

    def test_ring_consecutive_in_order(self):
        assert lemma_blockers("ring", 5, (1, 2), 3)
        assert lemma_blockers("ring", 5, (3, 2), 1)

    def test_ring_non_consecutive_silent(self):
        assert not lemma_blockers("ring", 6, (1, 3), 5)

    def test_needs_distinct_vertices(self):
        with pytest.raises(ValueError):
            lemma_blockers("line", 5, (1, 1), 2)

    def test_blocked_line_instances_really_fail(self):
        for n in range(3, 7):
            for a1, b, a2 in itertools.permutations(range(1, n + 1), 3):
                if lemma_blockers("line", n, (a1, a2), b):
                    h = Graph({a1, a2, b}, [(a1, a2)])
                    assert decide_vertex_minor(path_graph(n), h).answer == NO

    def test_ring_condition_blocks_only_the_four_ring(self):
        # the flagged three-in-a-row configuration is genuinely impossible on
        # the 4-ring, but from five vertices up an x measurement of the far
        # arc escapes it; the condition must never be used as a decider
        for a1, b, a2 in itertools.permutations(range(1, 5), 3):
            if lemma_blockers("ring", 4, (a1, a2), b):
                h = Graph({a1, a2, b}, [(a1, a2)])
                assert decide_vertex_minor(ring_graph(4), h).answer == NO
        assert lemma_blockers("ring", 5, (1, 2), 3)
        escape = decide_vertex_minor(ring_graph(5), Graph([1, 2, 3], [(1, 2)]))
        assert escape.answer == YES
        assert replay(ring_graph(5), escape.witness) == Graph([1, 2, 3], [(1, 2)])


# SHA-256 of every decision in ``_decision_corpus``: any change to an
# answer, a rule or a witness changes it. Update it only with a change that
# means to alter decisions and says which.
PINNED_DECISIONS_DIGEST = "6eeb97045cf996344ddfff86f2e37cdda768d51cc4297df7db676b14e37e857e"


def _decision_corpus():
    for topology, query in (("line", line_query), ("ring", ring_query)):
        for n in range(4, 11):
            for a1, a2, b1, b2 in itertools.permutations(range(1, n + 1), 4):
                yield topology, n, query(n, (a1, a2), (b1, b2))
    rng = random.Random(20240817)
    for _ in range(300):
        n = rng.randint(4, 11)
        g = prufer_tree(tuple(rng.randint(1, n) for _ in range(n - 2)), n)
        for _ in range(8):
            a1, a2, b1, b2 = rng.sample(range(1, n + 1), 4)
            yield "tree", n, tree_query(g, (a1, a2), (b1, b2))


def _decisions_digest():
    h = hashlib.sha256()
    for topology, n, query in _decision_corpus():
        d = decide_bell(query)
        row = [topology, n, query.pair_a, query.pair_b, d.answer, d.rule,
               steps_to_json(d.witness or ())]
        h.update(json.dumps(row).encode() + b"\n")
    return h.hexdigest()


def test_decisions_match_pinned_digest():
    assert _decisions_digest() == PINNED_DECISIONS_DIGEST
