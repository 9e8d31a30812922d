import random

import pytest

from graphmin import (
    BudgetExceededError,
    Graph,
    canonical_foliage_partition,
    complete_graph,
    connected_components,
    delete_vertex,
    lc_equivalent,
    lc_orbit,
    lc_orbit_paths,
    lc_path,
    local_complement,
    path_graph,
    replay,
    ring_graph,
    Step,
)
from graphmin import orbit
from graphmin.graph import _graph, _pair_ranks
from graphmin.orbit import _closure, _lc_equivalent_rows

from conftest import all_graphs, fig2, prufer_tree, random_graph


def _graph_closure(g, node_budget):
    """Breadth-first LC closure on ``Graph`` values, one graph per member.

    The reference for the rows-tuple closure behind ``lc_orbit_paths`` and
    ``lc_path``: the same members, discovery order, paths and budget rule.
    """
    yield g, ()
    seen = {g}
    frontier = [(g, ())]
    while frontier:
        nxt = []
        for graph, path in frontier:
            for v in graph.vertices:
                image = local_complement(graph, v)
                if image in seen:
                    continue
                over_budget = len(seen) >= node_budget
                seen.add(image)
                found = (image, path + (v,))
                yield found
                if over_budget:
                    raise BudgetExceededError("over budget")
                nxt.append(found)
        frontier = nxt


def _reference_orbit(g, node_budget=1 << 20):
    """The reference's (member, path) pairs, and whether it ran out of budget."""
    found = []
    try:
        found.extend(_graph_closure(g, node_budget))
    except BudgetExceededError:
        return found, True
    return found, False


def test_single_edge_orbit_is_trivial():
    assert lc_orbit(Graph(2, [(1, 2)])) == {Graph(2, [(1, 2)])}


def test_labeled_triangle_orbit_has_four_members():
    orbit = lc_orbit(complete_graph(3))
    expected = {
        complete_graph(3),
        Graph(3, [(1, 2), (1, 3)]),
        Graph(3, [(1, 2), (2, 3)]),
        Graph(3, [(1, 3), (2, 3)]),
    }
    assert orbit == expected


def test_four_vertex_example_pair_in_one_orbit():
    left = fig2()
    right = local_complement(left, 2)
    assert right in lc_orbit(left)
    assert lc_equivalent(left, right)


def test_orbit_of_empty_graph_rejected():
    with pytest.raises(ValueError):
        lc_orbit(delete_vertex(Graph(1), 1))


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExceededError):
        lc_orbit(path_graph(6), node_budget=3)


@pytest.mark.parametrize("budget", [1.5, 2.0, "3", [4]])
def test_explicit_budget_that_is_not_an_int_is_a_value_error(budget):
    # a float once ran as a budget ("orbit exceeds node budget 1.5"), and a
    # string raised TypeError from the comparison
    g = path_graph(4)
    for call in (lambda: lc_orbit(g, budget), lambda: lc_path(g, g, budget),
                 lambda: lc_equivalent(g, g, budget)):
        with pytest.raises(ValueError, match="node budget must be an integer"):
            call()


@pytest.mark.parametrize("budget", [0, -1, True, False])
def test_explicit_budget_below_one_or_bool_is_a_value_error(budget):
    g = path_graph(4)
    with pytest.raises(ValueError, match="node budget must be positive"):
        lc_orbit(g, budget)
    with pytest.raises(ValueError, match="node budget must be positive"):
        lc_path(g, g, budget)  # even when the source is the target


def test_budget_boundary_on_path4():
    g = path_graph(4)
    members = [member for member, _ in lc_orbit_paths(g, 11).values()]
    assert len(members) == 11
    with pytest.raises(BudgetExceededError):
        lc_orbit_paths(g, 10)
    # the member discovered past the budget is still found by lc_path
    assert lc_path(g, members[-1], 10) == (2, 1, 3, 4)
    with pytest.raises(BudgetExceededError):
        lc_path(g, members[-1], 9)


def test_closure_matches_graph_closure_on_random_graphs():
    rng = random.Random(41)
    sizes = set()
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8), p=rng.choice((0.2, 0.4, 0.6)))
        expected, exhausted = _reference_orbit(g)
        assert not exhausted
        assert list(lc_orbit_paths(g).values()) == expected
        member, path = expected[rng.randrange(len(expected))]
        assert lc_path(g, member) == path
        sizes.add(len(expected))
    assert max(sizes) > 500


@pytest.mark.parametrize("budget", [9, 10, 11, 12])
def test_closure_matches_graph_closure_at_the_budget_boundary(budget):
    g = path_graph(4)  # an orbit of 11 members
    expected, exhausted = _reference_orbit(g, budget)
    assert exhausted == (budget < 11)
    if exhausted:
        with pytest.raises(BudgetExceededError):
            lc_orbit_paths(g, budget)
    else:
        assert list(lc_orbit_paths(g, budget).values()) == expected
    for member, path in expected:  # the member found past the budget included
        assert lc_path(g, member, budget) == path
    outside = Graph(4)  # its pair cut-ranks differ from the path's: no closure runs
    assert lc_path(g, outside, budget) is None


@pytest.mark.parametrize("budget", [4, 5])
def test_outsider_with_equal_cut_ranks_is_refuted_without_a_closure(budget, monkeypatch):
    # 3-leaf stars centred at 1, one on 2, 4, 5 and one on 2, 3, 4: equal
    # pair cut-rank tables, not LC-equivalent; the first orbit has 5 members.
    # The exact test refutes the pair, so budget 4 no longer runs out
    g, outside = Graph(5, [(1, 2), (1, 4), (1, 5)]), Graph(5, [(1, 2), (1, 3), (1, 4)])
    assert _pair_ranks(g._rows, g.vertices) == _pair_ranks(outside._rows, outside.vertices)
    assert len(lc_orbit(g)) == 5

    def no_closure(*args):
        raise AssertionError("closure started")

    monkeypatch.setattr(orbit, "_closure", no_closure)
    assert lc_path(g, outside, budget) is None
    assert not lc_equivalent(g, outside, budget)


def test_differing_cut_ranks_refute_before_any_closure(monkeypatch):
    def no_closure(*args):
        raise AssertionError("closure started")

    monkeypatch.setattr(orbit, "_closure", no_closure)
    ring, path = ring_graph(10), path_graph(10)  # ring 10's orbit has 22,484 members
    assert lc_path(ring, path, node_budget=1) is None
    assert lc_path(path, ring, node_budget=1) is None
    assert not lc_equivalent(ring, path, node_budget=1)


def test_lc_path_is_the_closure_path_of_every_member():
    rng = random.Random(16)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 6), p=rng.choice((0.3, 0.5, 0.7)))
        expected, _ = _reference_orbit(g)
        for member, path in expected:
            assert lc_path(g, member) == path


def test_equivalence_needs_same_labels():
    assert not lc_equivalent(Graph(2, [(1, 2)]), Graph(3, [(1, 2)]))


def test_edge_vs_empty_pair_not_equivalent():
    assert not lc_equivalent(Graph(2, [(1, 2)]), Graph(2))


def test_relabeled_paths_are_equivalent():
    assert lc_equivalent(path_graph(3), Graph(3, [(1, 2), (1, 3)]))


def test_paths_replay_to_their_members():
    g = random_graph(random.Random(3), 6)
    for key, (member, path) in lc_orbit_paths(g).items():
        assert member == key
        assert replay(g, [Step("lc", v) for v in path]) == member


def test_expansion_order_is_deterministic():
    g = random_graph(random.Random(5), 6)
    first = {k: p for k, (_, p) in lc_orbit_paths(g).items()}
    second = {k: p for k, (_, p) in lc_orbit_paths(g).items()}
    assert first == second


def test_lc_path_reverses():
    g = fig2()
    h = local_complement(local_complement(g, 3), 1)
    path = lc_path(g, h)
    assert path is not None
    assert replay(h, [Step("lc", v) for v in reversed(path)]) == g


def test_equivalence_relation_on_sampled_triples():
    rng = random.Random(17)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 6))
        h = g
        for _ in range(rng.randint(0, 4)):
            h = local_complement(h, rng.choice(h.vertices))
        k = h
        for _ in range(rng.randint(0, 4)):
            k = local_complement(k, rng.choice(k.vertices))
        assert lc_equivalent(g, g)
        assert lc_equivalent(g, h) and lc_equivalent(h, g)
        assert lc_equivalent(g, h) and lc_equivalent(h, k) and lc_equivalent(g, k)


def test_components_constant_across_orbit():
    rng = random.Random(23)
    for _ in range(10):
        g = random_graph(rng, 6)
        comps = connected_components(g)
        assert all(connected_components(m) == comps for m in lc_orbit(g))


def test_foliage_partition_constant_across_orbit():
    rng = random.Random(29)
    for _ in range(8):
        g = random_graph(rng, 6)
        part = canonical_foliage_partition(g)
        assert all(canonical_foliage_partition(m) == part for m in lc_orbit(g))


def _scattered_graph(rng, n):
    labels = sorted(rng.sample(range(1, 65), n))
    p = rng.choice((0.2, 0.4, 0.6))
    return Graph(labels, [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:] if rng.random() < p])


def _rows_orbit(g, budget):
    """``_closure``'s (member, path) pairs as graphs, and whether it ran out of budget."""
    found = []
    try:
        found.extend((_graph(rows, g._alive), path) for rows, path in _closure(g._rows, budget))
    except BudgetExceededError:
        return found, True
    return found, False


def test_closure_skips_change_nothing_against_plain_bfs():
    # the closure skips the last path vertex and the smaller vertices not
    # adjacent to it; the reference expands every vertex of every member
    rng = random.Random(19)
    exhausted, largest = set(), 0
    for i in range(1500):
        g = _scattered_graph(rng, 7 if i % 50 == 0 else rng.randint(1, 6))
        for budget in (1, 2, 5, 17, 1 << 20):
            expected = _reference_orbit(g, budget)
            assert _rows_orbit(g, budget) == expected, (g, budget)
            exhausted.add(expected[1])
        largest = max(largest, len(expected[0]))
    assert exhausted == {True, False} and largest > 1000


def _graphs_on(labels):
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    return [Graph(labels, [pair for i, pair in enumerate(pairs) if mask >> i & 1])
            for mask in range(1 << len(pairs))]


def test_exact_test_agrees_with_orbit_membership_on_four_vertices():
    graphs = list(all_graphs(4))
    orbits = {g: lc_orbit(g) for g in graphs}
    equivalent = 0
    for g in graphs:
        for h in graphs:
            assert _lc_equivalent_rows(g._rows, h._rows) is (h in orbits[g]), (g, h)
            equivalent += h in orbits[g]
    assert len(graphs) == 64 and 64 < equivalent < 64 * 64


def test_exact_test_agrees_with_orbit_membership_on_five_scattered_labels():
    # every graph on five labels, grouped into orbits; pairs with equal pair
    # cut-rank tables are the ones the decider and ``lc_path`` ask about
    rng = random.Random(7)
    graphs = _graphs_on([3, 17, 40, 41, 64])
    cls = {}
    for g in graphs:
        if g not in cls:
            cls.update(dict.fromkeys(lc_orbit(g), len(cls)))
    tables = {g: _pair_ranks(g._rows, g.vertices) for g in graphs}
    verdicts = set()
    pairs = 0
    while pairs < 3000:
        g, h = rng.choice(graphs), rng.choice(graphs)
        if tables[g] != tables[h]:
            continue
        pairs += 1
        verdict = _lc_equivalent_rows(g._rows, h._rows)
        assert verdict is (cls[g] == cls[h]), (g, h)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_exact_test_never_refutes_an_orbit_member():
    # random pairs with n <= 8, the second a random local-complement walk
    # from the first, so their pair cut-rank tables are equal
    rng = random.Random(23)
    for _ in range(2000):
        g = _scattered_graph(rng, rng.randint(1, 8))
        h = g
        for _ in range(rng.randint(0, 8)):
            h = local_complement(h, rng.choice(h.vertices))
        assert _pair_ranks(g._rows, g.vertices) == _pair_ranks(h._rows, h.vertices)
        assert _lc_equivalent_rows(g._rows, h._rows) is True, (g, h)
        assert _lc_equivalent_rows(h._rows, g._rows) is True, (h, g)


def test_exact_test_cannot_tell_past_its_solution_space_and_the_closure_answers(monkeypatch):
    # the 12-vertex star has 13 free variables, past the 10 the test searches:
    # it answers None, and ``lc_equivalent`` and ``lc_path`` fall back to the closure
    star = Graph(12, [(1, v) for v in range(2, 13)])
    other = Graph(12, [(2, v) for v in range(1, 13) if v != 2])
    assert _lc_equivalent_rows(star._rows, star._rows) is None
    assert _lc_equivalent_rows(star._rows, other._rows) is None
    assert lc_equivalent(star, other) and lc_path(star, other) == (1, 2)
    monkeypatch.setattr(orbit, "_closure", lambda *args: iter(()))
    assert not lc_equivalent(star, other)  # the answer did come from the closure


def test_a_block_it_cannot_tell_keeps_the_verdict_none_after_a_solved_block():
    # an LC-scrambled Pruefer tree on 1..32, a block past the search's cap,
    # then the same path on 33..36 in both graphs, a block solved True: the
    # two blocks together still cannot be told, so the verdict is None
    rng = random.Random(11)
    tree = prufer_tree(tuple(rng.randint(1, 32) for _ in range(30)), 32)
    g = Graph(36, [*tree.edges(), (33, 34), (34, 35), (35, 36)])
    h = g
    for _ in range(30):
        h = local_complement(h, rng.randint(1, 32))
    assert _lc_equivalent_rows(tree._rows, h._rows[:33]) is None
    assert _lc_equivalent_rows(g._rows, h._rows) is None


def test_lc_equivalent_answers_without_a_closure_when_the_exact_test_decides(monkeypatch):
    ring, path = ring_graph(10), path_graph(10)  # ring 10's orbit has 22,484 members
    far = local_complement(local_complement(ring, 3), 7)

    def no_closure(*args):
        raise AssertionError("closure started")

    monkeypatch.setattr(orbit, "_closure", no_closure)
    assert lc_equivalent(ring, far, node_budget=1) and lc_equivalent(far, ring, node_budget=1)
    assert not lc_equivalent(ring, path, node_budget=1)
