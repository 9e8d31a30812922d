import enum
import hashlib
import itertools
import json
import random

import pytest

from graphmin import (
    Graph,
    InvalidPartitionError,
    Partition,
    Step,
    canonical_foliage_partition,
    connected_components,
    decide_vertex_minor,
    delete_vertex,
    extract_foliage_graph,
    foliage_graph,
    foliage_equivalent,
    is_foliage_partition,
    lc_equivalent,
    local_complement,
    measure_x,
    measure_y,
    measure_z,
    path_graph,
    replay,
    ring_graph,
    singletons,
    source_reduce,
    target_reduce,
)
from graphmin.foliage import _any_equivalent, _star_centers
from graphmin.graph import _measure_rows, _pair_ranks
from graphmin.minor import _SHORT_DRAW, NO, UNKNOWN, YES, Decision, _conflict_pairs
from graphmin.ops import DELETE, LC, apply_step, steps_to_json
from graphmin.orbit import BudgetExceededError, _closure, lc_orbit_paths


from conftest import all_graphs, fig4a, fig6, pair_rank_table, prufer_tree, random_graph, random_refinement

BELL_TARGET = Graph([1, 2, 4, 5], [(1, 2), (4, 5)])


def minor_by_oracle(g, h):
    """Independent decider: enumerate bases with measurements in a shuffled
    order and test equivalence member-by-member."""
    surplus = sorted(set(g.vertices) - set(h.vertices))
    if not surplus:
        return lc_equivalent(g, h)
    order = list(surplus)
    random.Random(sum(order)).shuffle(order)
    for bases in itertools.product((measure_z, measure_y, measure_x), repeat=len(order)):
        image = g
        for v, measure in zip(order, bases):
            image = measure(image, v)
        if lc_equivalent(image, h):
            return True
    return False


class TestDecide:
    def test_path_to_far_edge(self):
        d = decide_vertex_minor(path_graph(3), Graph([1, 3], [(1, 3)]))
        assert d.answer == YES
        assert replay(path_graph(3), d.witness) == Graph([1, 3], [(1, 3)])

    def test_reflexive_with_empty_witness(self):
        g = Graph(4, [(1, 2), (3, 4)])
        d = decide_vertex_minor(g, g)
        assert d.answer == YES
        assert d.witness == ()

    def test_two_bell_pairs_not_minor_of_path_four(self):
        d = decide_vertex_minor(path_graph(4), Graph(4, [(1, 2), (3, 4)]))
        assert d.answer == NO

    def test_empty_to_empty(self):
        empty = delete_vertex(Graph(1), 1)
        d = decide_vertex_minor(empty, empty)
        assert d.answer == YES and d.witness == ()

    def test_label_mismatch_raises(self):
        with pytest.raises(ValueError, match="target labels"):
            decide_vertex_minor(Graph(3), Graph(5))

    def test_budget_exhaustion_answers_unknown(self):
        # the member that path 6's 82-member orbit generates last, plus an
        # isolated surplus vertex: the first leaf is that member, found only
        # once the orbit's 81st member past the target is generated
        *_, (far, _) = lc_orbit_paths(path_graph(6)).values()
        g = Graph(7, far.edges())
        d = decide_vertex_minor(g, path_graph(6), node_budget=80)
        assert d.answer == UNKNOWN
        assert d.rule == "budget-exhausted"
        assert d.witness is None
        assert decide_vertex_minor(g, path_graph(6), node_budget=81).answer == YES

    @pytest.mark.parametrize("budget", [0, -1, True])
    def test_explicit_budget_below_one_or_bool_is_a_value_error(self, budget):
        # the star's leaves 2, 3, 4 are twins, so the root persistence check
        # alone refutes the target; the budget is still checked first
        star = Graph(4, [(1, 2), (1, 3), (1, 4)])
        refuted = Graph([2, 3, 4], [(2, 4)])
        assert decide_vertex_minor(star, refuted).answer == NO
        for g, h in ((star, refuted), (ring_graph(7), path_graph(6))):
            with pytest.raises(ValueError, match="node budget must be positive"):
                decide_vertex_minor(g, h, budget)

    @pytest.mark.parametrize("budget", [2.5, 100.0, "5"])
    def test_explicit_budget_that_is_not_an_int_is_a_value_error(self, budget):
        # ``node_budget=2.5`` once ran a search, and ``"5"`` raised TypeError
        with pytest.raises(ValueError, match="node budget must be an integer"):
            decide_vertex_minor(ring_graph(7), path_graph(6), budget)

    def test_agrees_with_shuffled_order_oracle(self, rng):
        # the enumeration fixes the measurement order; a shuffled-order
        # reimplementation must land on the same answers up to seven vertices
        for _ in range(30):
            g = random_graph(rng, rng.randint(2, 7))
            keep = sorted(rng.sample(g.vertices, rng.randint(max(1, g.n - 3), g.n)))
            h = Graph(keep, [(a, b) for a, b in random_graph(rng, max(keep)).edges()
                             if a in keep and b in keep])
            d = decide_vertex_minor(g, h)
            assert (d.answer == YES) == minor_by_oracle(g, h)

    def test_every_yes_witness_replays_exactly(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(2, 6))
            keep = sorted(rng.sample(g.vertices, rng.randint(1, g.n)))
            h = Graph(keep, [(a, b) for a, b in random_graph(rng, max(keep)).edges()
                             if a in keep and b in keep])
            d = decide_vertex_minor(g, h)
            if d.answer == YES:
                assert replay(g, d.witness) == h

    def test_transitive_witness_concatenation(self, rng):
        for _ in range(20):
            g3 = random_graph(rng, rng.randint(3, 6))
            g2 = _random_minor(rng, g3, drop=1)
            g1 = _random_minor(rng, g2, drop=1)
            d32 = decide_vertex_minor(g3, g2)
            d21 = decide_vertex_minor(g2, g1)
            assert d32.answer == YES and d21.answer == YES
            assert replay(g3, d32.witness + d21.witness) == g1


def _reference_decide(g, h):
    """The decider as a plain enumeration: every (z, y, x) assignment to the
    surplus vertices, replayed from the source, first hit wins."""
    surplus = sorted(set(g.vertices) - set(h.vertices))
    orbit = lc_orbit_paths(h)
    for bases in itertools.product("zyx", repeat=len(surplus)):
        image, steps = g, []
        for v, basis in zip(surplus, bases):
            if basis == "x":
                mask = image.neighbor_mask(v)
                step = Step("measure_x", v, (mask & -mask).bit_length() - 1 if mask else None)
            else:
                step = Step("measure_" + basis, v)
            steps.append(step)
            image = apply_step(image, step)
        hit = orbit.get(image)
        if hit is not None:
            back = tuple(Step("lc", v) for v in reversed(hit[1]))
            return Decision(YES, "brute-force", tuple(steps) + back)
    return Decision(NO, "brute-force")


def _graph_keyed_decide(g, h, budget):
    """The decider's memoized search on ``Graph`` values, failed set keyed on
    graphs: the reference for the budget each decision spends, so the rows
    search must reach "unknown" at exactly the same budgets.

    The target's orbit is closed eagerly here, and the decider's lazy rule
    is replayed on the members' discovery ranks. The first two members are
    drawn before the search, none of a one-member orbit. An orbit member not
    drawn yet is drawn up to, which needs its rank to be at most the budget.
    A leaf outside the orbit is a miss once the orbit is finished, when it
    is refuted, or when its pair cut-ranks (``conftest.cut_rank``) differ
    from the target's; otherwise it draws the first ``_SHORT_DRAW`` members
    (finishing a smaller orbit, which needs the orbit to hold at most the
    budget members), and the exact test then refutes it.

    A graph is refuted, at the root, in the search and at a leaf alike, when
    foliage persistence fails on it or when it isolates a target label that
    has neighbours in ``h``.
    """
    def dead(graph):
        return (any(h.degree(v) and not graph.degree(v) for v in h.vertices)
                or _any_equivalent(graph._rows, _conflict_pairs(h)))

    if dead(g):
        return Decision(NO, "brute-force")
    surplus = sorted(set(g.vertices) - set(h.vertices))
    failed, steps = set(), []
    orbit = lc_orbit_paths(h, 1 << 20) if h.n else {h: (h, ())}
    rank = {member: i for i, member in enumerate(orbit)}
    drawn, finished = min(2, len(orbit)), len(orbit) < 2

    def lookup(graph):
        nonlocal drawn, finished
        i = rank.get(graph)
        if i is not None and i < drawn:
            return orbit[graph]
        if finished or dead(graph) or i is None and pair_rank_table(graph) != pair_rank_table(h):
            return None
        if i is not None:  # the closure still yields the member ranked ``budget``
            if i > budget:
                raise BudgetExceededError("orbit budget")
            drawn = i + 1
            return orbit[graph]
        if len(orbit) < _SHORT_DRAW:
            if len(orbit) > budget:
                raise BudgetExceededError("orbit budget")
            drawn, finished = len(orbit), True
        elif drawn < _SHORT_DRAW:
            if _SHORT_DRAW - 1 > budget:
                raise BudgetExceededError("orbit budget")
            drawn = _SHORT_DRAW
        return None

    def search(graph, depth):
        if depth == len(surplus):
            return lookup(graph)
        if graph in failed:
            return None
        if depth and dead(graph):
            failed.add(graph)
            return None
        if len(failed) + depth >= budget:
            raise BudgetExceededError("search budget")
        v = surplus[depth]
        mask = graph.neighbor_mask(v)
        nbr = (mask & -mask).bit_length() - 1 if mask else None
        for step in (Step("measure_z", v), Step("measure_y", v), Step("measure_x", v, nbr)):
            steps.append(step)
            hit = search(apply_step(graph, step), depth + 1)
            if hit is not None:
                return hit
            steps.pop()
        failed.add(graph)
        return None

    try:
        hit = search(g, 0)
    except BudgetExceededError:
        return Decision(UNKNOWN, "budget-exhausted")
    if hit is None:
        return Decision(NO, "brute-force")
    back = tuple(Step("lc", v) for v in reversed(hit[1]))
    return Decision(YES, "brute-force" if surplus else "lc-equivalence", tuple(steps) + back)


def nested_pairs_on_path(n):
    return Graph([1, 2, n - 1, n], [(1, n), (2, n - 1)])


CROSSED_PAIRS_ON_RING_9 = Graph([1, 3, 5, 7], [(1, 5), (3, 7)])


def _count_rewrites(monkeypatch):
    """Record every child the decider's search builds, as (kind, measured
    vertex); returns the live list. A measured graph builds its z child
    first, then y and x as the search reaches them."""
    calls = []

    def counting(rows, v):
        for kind, child in _measure_rows(rows, v):
            calls.append((kind, v))
            yield kind, child

    monkeypatch.setattr("graphmin.minor._measure_rows", counting)
    return calls


class TestMemoizedSearch:
    def test_matches_plain_enumeration_on_random_instances(self):
        rng = random.Random(3)
        answers = set()
        for _ in range(120):
            g = random_graph(rng, rng.randint(2, 9))
            keep = sorted(rng.sample(g.vertices, g.n - rng.randint(1, min(5, g.n - 1))))
            h = Graph(keep, [(a, b) for a, b in random_graph(rng, max(keep)).edges()
                             if a in keep and b in keep])
            d = decide_vertex_minor(g, h)
            assert d == _reference_decide(g, h)
            answers.add(d.answer)
        assert answers == {YES, NO}

    @pytest.mark.parametrize("n", range(9, 14))
    def test_matches_plain_enumeration_on_nested_path_no(self, n, monkeypatch):
        # leaf 1 and its axil 2 are both target labels, in different target
        # blocks: foliage persistence refutes the source before any rewrite
        calls = _count_rewrites(monkeypatch)
        d = decide_vertex_minor(path_graph(n), nested_pairs_on_path(n))
        assert d.answer == NO
        assert calls == []
        assert d == _reference_decide(path_graph(n), nested_pairs_on_path(n))

    def test_path_eleven_no_rewrites_each_distinct_graph_once(self, monkeypatch):
        # now on ring 9, which no root check refutes (path 11 makes no
        # rewrite at all); the plain enumeration performs 1,215 rewrites
        # here, and the search measures once each distinct graph it meets
        # and does not refute (7 graphs, 21 rewrites; 10 graphs when only
        # persistence refuted, 87 when nothing below the source was refuted)
        calls = _count_rewrites(monkeypatch)
        assert decide_vertex_minor(ring_graph(9), CROSSED_PAIRS_ON_RING_9).answer == NO
        assert 0 < len(calls) <= 3 * 7

    def test_a_graph_that_isolates_a_target_vertex_is_not_measured(self, monkeypatch):
        # a measurement that isolates 1, 3, 5 or 8 of the target leaves it
        # isolated below, so the search refutes that child unmeasured: 6
        # graphs measured (each builds its z child first), against 23
        # without the rule; they build 9 children, not 18, as the hit's
        # ancestors stop at it and a vertex with one neighbor has no y child
        calls = _count_rewrites(monkeypatch)
        h = Graph([1, 3, 5, 8], [(1, 3), (5, 8)])
        assert decide_vertex_minor(path_graph(10), h) == _reference_decide(path_graph(10), h)
        assert [kind for kind, _ in calls].count("z") == 6
        assert len(calls) == 9

    def test_a_source_that_isolates_a_target_vertex_is_a_no_at_once(self, monkeypatch):
        # 4 has a neighbour in the target and none in the source
        calls = _count_rewrites(monkeypatch)
        g, h = Graph(5, [(1, 2), (2, 3), (3, 5)]), Graph([1, 4], [(1, 4)])
        assert decide_vertex_minor(g, h, node_budget=1) == Decision(NO, "brute-force")
        assert calls == []

    def test_search_budget_answers_unknown(self):
        # the edgeless target's orbit has one member, so only the search
        # spends budget; the first hit measures ten graphs (z on 2..11)
        g, h = path_graph(12), Graph([1, 12])
        assert decide_vertex_minor(g, h, node_budget=10).answer == YES
        d = decide_vertex_minor(g, h, node_budget=9)
        assert d == Decision(UNKNOWN, "budget-exhausted")

    def test_budgets_match_graph_keyed_search(self):
        # a failed-set key that merges two graphs skips one of them, which
        # moves the budget at which a decision stops being "unknown"
        rng = random.Random(47)
        answers = set()
        for _ in range(60):
            g = random_graph(rng, rng.randint(4, 9), p=rng.choice((0.3, 0.5, 0.7)))
            keep = sorted(rng.sample(g.vertices, rng.randint(2, 4)))
            h = Graph(keep, [(a, b) for a, b in random_graph(rng, max(keep)).edges()
                             if a in keep and b in keep])
            for budget in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89):
                d = decide_vertex_minor(g, h, node_budget=budget)
                assert d == _graph_keyed_decide(g, h, budget)
                answers.add(d.answer)
        assert answers == {YES, NO, UNKNOWN}

    def test_budget_never_turns_into_a_wrong_no(self):
        g, h = ring_graph(9), CROSSED_PAIRS_ON_RING_9
        answers = [decide_vertex_minor(g, h, node_budget=b).answer for b in range(1, 60)]
        first_no = answers.index(NO)
        assert first_no + 1 == 12  # the first "no" needs budget 12
        assert set(answers[:first_no]) == {UNKNOWN} and set(answers[first_no:]) == {NO}



# SHA-256 of every decision in ``_decision_corpus``, recorded before the
# search and ``Graph`` shared one rows representation: unlike the reference
# deciders above, it does not run on the code it checks. Update it only with
# a change that means to alter answers, rules or witnesses and says which.
# Re-pinned when the node budget came to count only the target's orbit
# members the decider generates: 460 budgeted rows that were "unknown" became
# their pair's default-budget decision (374 "no", 86 "yes"); every other row
# is byte-identical (``test_budgeted_rows_are_unknown_or_the_default_decision``
# checks the rule on every row). Re-pinned when the search came to refute a
# graph that isolates a target label with neighbours in the target: 31
# budgeted rows that were "unknown" became their pair's default-budget
# decision (27 "no", 4 "yes"); the 800 default-budget rows, and every other
# budgeted row, are byte-identical. Re-pinned when a leaf of the search came
# to be refuted by the same rules before any orbit member is drawn for it: 1
# budgeted row that was "unknown" became its pair's default-budget "no"; every
# other row is byte-identical.
PINNED_DECISIONS_DIGEST = "b61c6ab5214b6e3a2c79cf8f52e6e7636f92d66ab617df6447300579ea5cb897"


def _decision_corpus():
    """Seeded (source, target, budget) triples: n <= 9 with 1-5 surplus
    vertices, on labels 1..n or scattered in 1..64, at the default budget
    (None), plus every budget 1..30 on every fifth pair."""
    rng = random.Random(20261018)
    for i in range(800):
        n = rng.randint(2, 9)
        labels = list(range(1, n + 1)) if i % 2 else sorted(rng.sample(range(1, 65), n))
        p = rng.choice((0.3, 0.5, 0.7))
        g = Graph(labels, [(a, b) for j, a in enumerate(labels) for b in labels[j + 1:] if rng.random() < p])
        keep = sorted(rng.sample(labels, n - rng.randint(1, min(5, n - 1))))
        h = Graph(keep, [(a, b) for j, a in enumerate(keep) for b in keep[j + 1:] if rng.random() < p])
        for budget in (None, *range(1, 31)) if i % 5 == 0 else (None,):
            yield g, h, budget


def test_decisions_match_pinned_digest():
    digest = hashlib.sha256()
    answers = set()
    for g, h, budget in _decision_corpus():
        d = decide_vertex_minor(g, h, node_budget=budget)
        row = [g.vertices, g.edges(), h.vertices, h.edges(), budget, d.answer, d.rule,
               steps_to_json(d.witness or ())]
        digest.update(json.dumps(row).encode() + b"\n")
        answers.add(d.answer)
    assert answers == {YES, NO, UNKNOWN}
    assert digest.hexdigest() == PINNED_DECISIONS_DIGEST


def test_budgeted_rows_are_unknown_or_the_default_decision():
    # a budget only stops a decision: an answered row has the default
    # budget's answer, rule and witness, and once a budget answers, every
    # larger one does too
    answered = unknown = 0
    for g, h, budget in _decision_corpus():
        if budget is None:
            default = decide_vertex_minor(g, h)
            seen_answer = False
            continue
        d = decide_vertex_minor(g, h, node_budget=budget)
        if d.answer == UNKNOWN:
            assert d == Decision(UNKNOWN, "budget-exhausted") and not seen_answer
            unknown += 1
        else:
            assert d == default
            seen_answer, answered = True, answered + 1
    assert answered > 1000 and unknown > 450  # 4,308 and 492 rows when last counted


def _count_draws(monkeypatch):
    """Count the target orbit members the decider draws from ``orbit._closure``."""
    drawn = []

    def counting(*args):
        for found in _closure(*args):
            drawn.append(found)
            yield found

    monkeypatch.setattr("graphmin.minor._closure", counting)
    return drawn


# the orbit of this target has 30 members; every leaf of the source, which
# no root check refutes, differs from the target in some pair cut-rank
CUT_RANK_NO = (Graph(6, [(1, 3), (1, 4), (1, 5), (2, 4), (2, 6), (4, 6), (5, 6)]),
               Graph([1, 2, 4, 5, 6], [(1, 2), (1, 4), (1, 5), (1, 6), (2, 4), (5, 6)]))


class TestOrbitEntry:
    @pytest.mark.parametrize("g, h, answer, draws", [
        (path_graph(3), Graph([1, 3], [(1, 3)]), YES, 0),
        (ring_graph(9), CROSSED_PAIRS_ON_RING_9, NO, 0),
        (path_graph(4), Graph([1, 4]), YES, 0),
        (ring_graph(7), path_graph(6), YES, 2),
        (*CUT_RANK_NO, NO, 2),
    ], ids=["yes", "no", "edgeless-target", "hit-at-the-root", "cut-rank-refuted"])
    def test_draws_only_the_members_a_leaf_needs(self, g, h, answer, draws, monkeypatch):
        # a target with no vertex of two neighbors is its own orbit and draws
        # nothing; otherwise the root and a second member are drawn before
        # the search, a hit at the root (z on 7 gives path 6 itself) draws
        # no more, and neither does a refuted leaf
        drawn = _count_draws(monkeypatch)
        assert decide_vertex_minor(g, h).answer == answer
        assert len(drawn) == draws
        assert drawn[:1] == [(h._rows, ())][:draws]

    def test_cut_rank_refuted_leaves_would_close_the_orbit(self, monkeypatch):
        # the same "no" with every pair cut-rank table made equal, no
        # conflict pairs (so persistence prunes nothing) and the exact test
        # unable to tell: the first leaf that misses then draws until the
        # orbit ends, so the count above is the filter's doing
        drawn = _count_draws(monkeypatch)
        monkeypatch.setattr("graphmin.minor._pair_ranks", lambda rows, labels: [])
        monkeypatch.setattr("graphmin.minor._conflict_pairs", lambda h: ())
        monkeypatch.setattr("graphmin.minor._lc_equivalent_rows", lambda rows, other: None)
        assert decide_vertex_minor(*CUT_RANK_NO).answer == NO
        assert len(drawn) == len(lc_orbit_paths(CUT_RANK_NO[1])) == 30

    def test_deep_hit_draws_up_to_the_leaf(self, monkeypatch):
        *_, (far, path) = lc_orbit_paths(path_graph(6)).values()
        drawn = _count_draws(monkeypatch)
        d = decide_vertex_minor(Graph(7, far.edges()), path_graph(6))
        assert d.answer == YES and d.witness[1:] == tuple(Step("lc", v) for v in reversed(path))
        assert len(drawn) == 82 and drawn[-1] == (far._rows, path)

    def test_root_refutation_closes_no_orbit(self, monkeypatch):
        drawn = _count_draws(monkeypatch)
        assert decide_vertex_minor(path_graph(11), nested_pairs_on_path(11)).answer == NO
        assert drawn == []

    def test_a_bell_target_draws_no_orbit_and_no_rank_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("asked for a target that no local complement changes")

        monkeypatch.setattr("graphmin.minor._closure", refuse)
        monkeypatch.setattr("graphmin.minor._pair_ranks", refuse)
        answers = {decide_vertex_minor(source, h).answer
                   for source in (path_graph(7), ring_graph(8)) for h in _two_pair_targets(source.vertices)}
        assert answers == {YES, NO}

    def test_a_target_is_its_own_orbit_iff_no_vertex_has_two_neighbors(self):
        # the decider's test for a one-member orbit, against the closure
        for n in range(1, 6):
            for h in all_graphs(n):
                assert (len(lc_orbit_paths(h)) == 1) == all(h.degree(v) < 2 for v in h.vertices), h

    def test_budget_resolved_once_per_decision(self, monkeypatch):
        calls = []

        def counting(node_budget):
            calls.append(node_budget)
            return 1 << 20

        monkeypatch.setattr("graphmin.minor._budget", counting)
        monkeypatch.setattr("graphmin.orbit._budget", counting)
        assert decide_vertex_minor(ring_graph(7), path_graph(6)).answer == YES
        assert calls == [None]


class TestLazyOrbit:
    def test_matches_eager_orbit_reference_on_large_orbits(self):
        # targets with orbits of hundreds of members, on labels 1..n or
        # scattered in 1..64; sources are an orbit member with 1-3 surplus
        # vertices attached (z on each gives the member: a "yes", often deep
        # in the orbit) or random graphs on the same labels (mostly "no")
        rng = random.Random(16)
        answers, deepest, cases = set(), 0, 0
        while cases < 36:
            n = rng.randint(6, 7)
            labels = list(range(1, n + 1)) if cases % 2 else sorted(rng.sample(range(1, 60), n))
            h = Graph(labels, [pair for pair in itertools.combinations(labels, 2) if rng.random() < 0.5])
            members = list(lc_orbit_paths(h))
            if len(members) < 200:
                continue
            cases += 1
            surplus = sorted(rng.sample(sorted(set(range(1, 65)) - set(labels)), rng.randint(1, 3)))
            everyone = sorted(labels + surplus)
            if cases % 3:
                base = list(rng.choice(members).edges())
            else:
                base = [pair for pair in itertools.combinations(labels, 2) if rng.random() < 0.5]
            extra = [(min(s, v), max(s, v)) for s in surplus for v in everyone if v != s and rng.random() < 0.4]
            g = Graph(everyone, base + extra)
            d = decide_vertex_minor(g, h)
            assert d == _reference_decide(g, h)
            answers.add(d.answer)
            if d.answer == YES:
                deepest = max(deepest, len(d.witness) - len(surplus))
        assert answers == {YES, NO} and deepest >= 4


def _constructed_minor(rng, n):
    """A random connected source on 1..n and a target made by three random
    Pauli measurements with no isolated vertex, as the benchmark's
    ``vm_decide`` constructs its known-yes queries."""
    while True:
        p = rng.uniform(0.3, 0.7)
        g = Graph(n, [pair for pair in itertools.combinations(range(1, n + 1), 2) if rng.random() < p])
        if len(connected_components(g)) > 1:
            continue
        h = g
        for v in rng.sample(g.vertices, 3):
            nbrs = sorted(h.neighbors(v))
            op = rng.choice(("measure_z", "measure_y", "measure_x"))
            h = apply_step(h, Step(op, v, rng.choice(nbrs) if op == "measure_x" and nbrs else None))
        if all(h.neighbor_mask(v) for v in h.vertices):
            return g, h


def test_draws_exactly_the_members_its_hits_need_on_a_vm_decide_like_corpus(monkeypatch):
    # a one-member orbit (a target with no vertex of two neighbors) draws
    # nothing; any other decision draws the target's first two members, then
    # up to its hit's rank; a leaf outside the orbit whose pair cut-ranks
    # equal the target's adds the short draw (the first ``_SHORT_DRAW``
    # members), after which the exact test refutes it. No decision draws
    # more, so none closes an orbit its hit does not reach
    drawn = _count_draws(monkeypatch)
    current = {}

    def filtered(rows, labels):  # the decider's call per leaf it cannot look up, and the target's
        table = _pair_ranks(rows, labels)
        if rows not in current["orbit"] and table == current["ranks"]:
            current["passed"] = True
        return table

    monkeypatch.setattr("graphmin.minor._pair_ranks", filtered)
    rng = random.Random(19)
    spared = 0  # decisions that would draw the whole orbit without the exact test
    for i in range(240):
        g, h = _constructed_minor(rng, (7, 8, 9, 8)[i % 4])
        members = lc_orbit_paths(h)
        paths = [path for _, path in members.values()]
        orbit = {member._rows for member in members}
        for source in (g, source_reduce(g, set(h.vertices))[0]):
            del drawn[:]
            current.update(orbit=orbit, ranks=pair_rank_table(h), passed=False)
            d = decide_vertex_minor(source, h)
            assert d.answer == YES
            surplus = source.n - h.n
            need = paths.index(tuple(step.vertex for step in reversed(d.witness[surplus:]))) + 1
            if len(orbit) == 1:
                need = 0
            else:
                need = max(need, 2, min(_SHORT_DRAW, len(orbit)) if current["passed"] else 0)
            assert len(drawn) == need, (source, h)
            spared += current["passed"] and need < len(orbit)
    assert spared >= 20


def _two_pair_targets(labels):
    """Every placement of two pairs on ``labels``, with and without the
    second pair's edge (its ends then isolated in the target)."""
    for a, b, c, d in itertools.combinations(labels, 4):
        for pair_a, pair_b in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
            yield Graph([a, b, c, d], [pair_a, pair_b])
            yield Graph([a, b, c, d], [pair_a])


class ClassFate(enum.Enum):
    EQUIVALENT = "equivalent"
    ALL_ISOLATED = "all-isolated"
    EMPTY = "empty"
    VIOLATION = "violation"


def class_persistence_check(g, h, group):
    """What a foliage-equivalent vertex set became in a minor: the reference
    for the decider's pruning check, which tests the target's conflict pairs
    on the rows instead.

    ``group`` must fit inside one canonical block of ``g``. For a valid
    minor the survivors fit inside one canonical block of ``h``, are all
    isolated, or are gone; VIOLATION is the outcome that valid inputs never
    produce.
    """
    group = frozenset(group)
    if not _inside_one_block(g, group):
        raise ValueError(f"vertices {sorted(group)} are not foliage-equivalent in the source")
    alive = frozenset(v for v in group if h.has_vertex(v))
    if not alive:
        return ClassFate.EMPTY
    if _inside_one_block(h, alive):
        return ClassFate.EQUIVALENT
    if all(h.degree(v) == 0 for v in alive):
        return ClassFate.ALL_ISOLATED
    return ClassFate.VIOLATION


def _inside_one_block(g, vertices):
    return any(vertices <= block for block in canonical_foliage_partition(g))


class TestPersistencePruning:
    def test_conflict_check_agrees_with_class_persistence(self):
        rng = random.Random(23)
        fates = set()
        for _ in range(800):
            g = random_graph(rng, rng.randint(2, 8), p=rng.choice((0.2, 0.35, 0.5)))
            keep = sorted(rng.sample(g.vertices, rng.randint(1, g.n)))
            h = Graph(keep, [(a, b) for a, b in random_graph(rng, max(keep), p=0.3).edges()
                             if a in keep and b in keep])
            block_fates = {class_persistence_check(g, h, block) for block in canonical_foliage_partition(g)}
            conflicts = _conflict_pairs(h)
            assert _any_equivalent(g._rows, conflicts) == (ClassFate.VIOLATION in block_fates)
            fates |= block_fates
        assert fates == set(ClassFate)

    @pytest.mark.parametrize("source", [path_graph(8), ring_graph(8)], ids=["line", "ring"])
    def test_decider_matches_plain_enumeration_on_two_pair_placements(self, source):
        for h in _two_pair_targets(source.vertices):
            assert decide_vertex_minor(source, h) == _reference_decide(source, h)

    def test_decider_matches_plain_enumeration_on_tree_placements(self):
        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(6, 9)
            tree = prufer_tree(tuple(rng.randint(1, n) for _ in range(n - 2)), n)
            for _ in range(3):
                a, b, c, d = rng.sample(tree.vertices, 4)
                for h in (Graph([a, b, c, d], [(a, b), (c, d)]), Graph([a, b, c, d], [(a, b)])):
                    assert decide_vertex_minor(tree, h) == _reference_decide(tree, h)


def _random_minor(rng, g, drop):
    out = g
    for v in rng.sample(g.vertices, min(drop, g.n - 1)):
        out = rng.choice((measure_z, measure_y, measure_x))(out, v)
    return out


def _are_twins(g, v, w):
    shared = g.neighbor_mask(v) & ~(1 << w)
    return bool(shared) and shared == g.neighbor_mask(w) & ~(1 << v)


def _is_leaf_of(g, leaf, axil):
    return g.neighbor_mask(leaf) == 1 << axil


def reference_source_reduce(g, protected):
    """Source reduction as a scan on ``Graph`` accessors, every pair tested
    one at a time and each round starting again: the reference for the
    steps and the graph of ``source_reduce``."""
    out, ops = g, []
    while True:
        candidates = [v for v in out.vertices if v not in protected]
        twin = next((v for v in candidates if any(w != v and _are_twins(out, v, w) for w in out.vertices)), None)
        leaf = next((v for v in candidates if out.degree(v) == 1), None)
        axil = next(((v, w) for v in candidates for w in sorted(out.neighbors(v)) if _is_leaf_of(out, w, v)), None)
        if twin is not None:
            steps = (Step("delete", twin),)
        elif leaf is not None:
            steps = (Step("delete", leaf),)
        elif axil is not None:
            steps = (Step("lc", axil[0]), Step("lc", axil[1]), Step("delete", axil[0]))
        else:
            return out, tuple(ops)
        ops.extend(steps)
        out = replay(out, steps)


def reference_reduce_at(g, v, w):
    """Delete ``v`` from a graph where ``v ~ w``: the reference for each side
    of ``target_reduce``. A leaf or twin ``v`` goes outright; the axil of
    leaf ``w`` is swapped with it first."""
    if _is_leaf_of(g, v, w) or _are_twins(g, v, w):
        return delete_vertex(g, v)
    if _is_leaf_of(g, w, v):
        return delete_vertex(local_complement(local_complement(g, v), w), v)
    raise ValueError(f"vertices {v} and {w} are not foliage-equivalent")


def _assert_target_reduce_matches_the_reference(g):
    for v, w in itertools.permutations(g.vertices, 2):
        if foliage_equivalent(g, v, w):
            expected = reference_reduce_at(g, v, w)
            assert target_reduce(g, g, v, w) == (expected, expected), (g, v, w)


class TestReductionsMatchTheGraphLevelScan:
    def test_seeded_random_corpus(self):
        rng = random.Random(1812)
        for _ in range(1500):
            n = rng.randint(1, 12)
            labels = sorted(rng.sample(range(1, 40), n))
            p = rng.choice((0.15, 0.3, 0.5, 0.8))
            g = Graph(labels, [pair for pair in itertools.combinations(labels, 2) if rng.random() < p])
            protected = set(rng.sample(labels, rng.randint(0, n)))
            assert source_reduce(g, protected) == reference_source_reduce(g, protected), (g, protected)
            _assert_target_reduce_matches_the_reference(g)

    def test_every_graph_on_five_vertices_under_every_protected_set(self):
        for g in all_graphs(5):
            for mask in range(1 << 5):
                protected = {v for v in g.vertices if mask >> v - 1 & 1}
                assert source_reduce(g, protected) == reference_source_reduce(g, protected), (g, protected)
            _assert_target_reduce_matches_the_reference(g)


class TestSourceReduce:
    def test_path_six_reduces_to_protected_edge(self):
        reduced, ops = source_reduce(path_graph(6), {1, 6})
        assert reduced == Graph([1, 6], [(1, 6)])
        assert replay(path_graph(6), ops) == reduced

    def test_no_unprotected_foliage_is_noop(self):
        g = ring_graph(5)
        reduced, ops = source_reduce(g, set())
        assert reduced == g and ops == ()

    def test_path_seven_sheds_trailing_leaf(self):
        reduced, ops = source_reduce(path_graph(7), {1, 2, 5, 6})
        assert ops == (Step("delete", 7),)
        assert reduced == path_graph(6)
        d = decide_vertex_minor(reduced, Graph([1, 2, 5, 6], [(1, 2), (5, 6)]))
        assert d.answer == YES

    def test_unknown_protected_label_raises(self):
        with pytest.raises(ValueError):
            source_reduce(path_graph(3), {9})

    @pytest.mark.parametrize("label", [True, False, 1.0, "1", None], ids=repr)
    def test_non_integer_protected_label_raises(self, label):
        # a set holds ``True`` and ``1.0`` as ``1``; like ``Graph``, refuse them
        with pytest.raises(ValueError, match="protected labels must be integers"):
            source_reduce(path_graph(3), {label})

    def test_preserves_decision_on_random_instances(self, rng):
        agree = 0
        while agree < 60:
            g = random_graph(rng, rng.randint(4, 7))
            keep = sorted(rng.sample(g.vertices, rng.randint(2, 4)))
            h_edges = [(a, b) for a, b in random_graph(rng, max(keep), 0.7).edges()
                       if a in keep and b in keep]
            h = Graph(keep, h_edges)
            if any(h.degree(v) == 0 for v in keep):
                continue
            before = decide_vertex_minor(g, h).answer
            reduced, _ = source_reduce(g, set(keep))
            after = decide_vertex_minor(reduced, h).answer
            assert before == after
            agree += 1


def per_block_collapse_steps(g, w, reps):
    """``extract_foliage_graph``'s steps as it once planned them: each block's star
    centers read on the graph the earlier blocks left, replayed block by block."""
    fg = foliage_graph(g, w, reps)
    out, ops = g, []
    for block, rep in zip(fg.partition.blocks, fg.representatives):
        members = sorted(block)
        centers = _star_centers(out, members)
        steps = [Step(LC, centers[0]), Step(LC, rep)] if centers and rep not in centers else []
        steps += [Step(DELETE, v) for v in members if v != rep]
        out = replay(out, steps)
        ops += steps
    return tuple(ops)


class TestExtractFoliageGraph:
    def test_eleven_edge_example_collapses_to_three_edges(self):
        g = fig6()
        w = canonical_foliage_partition(g)
        reduced, ops = extract_foliage_graph(g, w, (2, 4, 6, 8))
        assert reduced == Graph([2, 4, 6, 8], [(2, 8), (4, 8), (4, 6)])
        assert replay(g, ops) == reduced

    def test_all_singletons_identity(self):
        g = fig4a()
        reduced, ops = extract_foliage_graph(g, singletons(g), g.vertices)
        assert reduced == g and ops == ()

    def test_min_representatives_on_partition_example(self):
        g = fig4a()
        reduced, ops = extract_foliage_graph(g, canonical_foliage_partition(g), (1, 4, 6, 7))
        assert reduced == Graph([1, 4, 6, 7], [(1, 4), (4, 6)])
        assert replay(g, ops) == reduced

    def test_invalid_partition_rejected(self):
        with pytest.raises(Exception):
            extract_foliage_graph(fig4a(), Partition([{5, 6}, {1, 2, 3, 4}, {7, 8}]), (5, 1, 7))

    def test_random_partitions_and_representatives(self, rng):
        # the collapse re-verifies itself against the quotient internally
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 8))
            w = random_refinement(rng, canonical_foliage_partition(g))
            reps = [rng.choice(sorted(b)) for b in w.blocks]
            reduced, ops = extract_foliage_graph(g, w, reps)
            assert reduced.vertices == tuple(sorted(reps))
            assert replay(g, ops) == reduced

    def test_planning_on_the_source_gives_the_per_block_steps(self):
        # collapsing one block moves no star center of another, so reading every
        # block's centers on ``g`` gives the steps the per-block replay gave
        rng = random.Random(3)
        swaps = 0
        for _ in range(1_500):
            g = random_graph(rng, rng.randint(2, 10), rng.choice([0.15, 0.3, 0.5]))
            w = canonical_foliage_partition(g)
            if rng.random() < 0.5:
                w = random_refinement(rng, w)
            reps = [rng.choice(sorted(b)) for b in w.blocks]
            _, ops = extract_foliage_graph(g, w, reps)
            assert ops == per_block_collapse_steps(g, w, reps), (g, w, reps)
            swaps += sum(step.op == LC for step in ops) // 2
        assert swaps > 400

    def test_replays_once(self, monkeypatch):
        import graphmin.ops as ops
        import graphmin.reduction as reduction

        calls = []

        def counted(g, steps):
            calls.append(steps)
            return replay(g, steps)

        monkeypatch.setattr(ops, "replay", counted)  # the witness check's replay
        monkeypatch.setattr(reduction, "replay", counted)
        extract_foliage_graph(fig6(), canonical_foliage_partition(fig6()), (2, 4, 6, 8))
        assert len(calls) == 1


def foliage_source_reduce(g, h, w, reps):
    """Answer-preserving collapse of the source onto representatives.

    Requires every target label among the representatives and no isolated
    target vertices; then deciding ``h`` against the collapsed graph is the
    same as deciding it against ``g``.
    """
    missing = set(h.vertices) - set(reps)
    if missing:
        raise ValueError(f"target labels {sorted(missing)} are not representatives")
    isolated = [v for v in h.vertices if h.degree(v) == 0]
    if isolated:
        raise ValueError(f"target has isolated vertices {isolated}")
    return extract_foliage_graph(g, w, reps)


class TestFoliageSourceReduce:
    def test_collapse_preserves_bell_edge_answer(self):
        g = fig6()
        h = Graph([2, 8], [(2, 8)])
        reduced, _ = foliage_source_reduce(g, h, canonical_foliage_partition(g), (2, 4, 6, 8))
        assert decide_vertex_minor(g, h).answer == decide_vertex_minor(reduced, h).answer == YES

    def test_all_singletons_noop(self):
        g = path_graph(4)
        h = Graph([1, 4], [(1, 4)])
        reduced, ops = foliage_source_reduce(g, h, singletons(g), g.vertices)
        assert reduced == g and ops == ()

    def test_path_five_collapses_to_path_three(self):
        g = path_graph(5)
        h = Graph([1, 5], [(1, 5)])
        w = Partition([{1, 2}, {3}, {4, 5}])
        reduced, _ = foliage_source_reduce(g, h, w, (1, 3, 5))
        assert reduced == Graph([1, 3, 5], [(1, 3), (3, 5)])
        assert decide_vertex_minor(g, h).answer == decide_vertex_minor(reduced, h).answer == YES

    def test_target_outside_representatives_rejected(self):
        g = path_graph(5)
        h = Graph([2, 5], [(2, 5)])
        with pytest.raises(ValueError, match="representatives"):
            foliage_source_reduce(g, h, Partition([{1, 2}, {3}, {4, 5}]), (1, 3, 5))

    def test_isolated_target_vertex_rejected(self):
        g = path_graph(5)
        h = Graph([1, 3, 5], [(1, 5)])
        with pytest.raises(ValueError, match="isolated"):
            foliage_source_reduce(g, h, Partition([{1, 2}, {3}, {4, 5}]), (1, 3, 5))


class TestClassPersistence:
    def test_leaf_axil_pair_survives_as_equivalent(self):
        g = path_graph(4)
        h = measure_z(g, 2)
        assert class_persistence_check(g, h, {3, 4}) is ClassFate.EQUIVALENT

    def test_fully_deleted_class_is_empty(self):
        g = path_graph(4)
        h = measure_z(measure_z(g, 3), 4)
        assert class_persistence_check(g, h, {3, 4}) is ClassFate.EMPTY

    def test_axil_deletion_isolates_leaves(self):
        g = Graph(3, [(1, 2), (1, 3)])
        h = delete_vertex(g, 1)
        assert class_persistence_check(g, h, {2, 3}) is ClassFate.ALL_ISOLATED

    def test_requires_equivalent_input_set(self):
        with pytest.raises(ValueError, match="not foliage-equivalent"):
            class_persistence_check(path_graph(4), path_graph(4), {1, 4})

    def test_no_violation_on_random_minors(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 7))
            part = canonical_foliage_partition(g)
            h = _random_minor(rng, g, drop=rng.randint(1, 2))
            for block in part.blocks:
                assert class_persistence_check(g, h, block) is not ClassFate.VIOLATION


class TestTargetReduce:
    def test_leaf_pair_on_bell_instance(self):
        g = path_graph(5)
        reduced_g, reduced_h = target_reduce(g, BELL_TARGET, 5, 4)
        assert reduced_g == path_graph(4)
        assert reduced_h == Graph([1, 2, 4], [(1, 2)])
        assert decide_vertex_minor(reduced_g, reduced_h).answer == YES

    def test_twin_pair_plain_deletion_both_sides(self):
        g = Graph(3, [(1, 2), (1, 3)])
        reduced_g, reduced_h = target_reduce(g, g, 2, 3)
        assert reduced_g == reduced_h == delete_vertex(g, 2)

    def test_axil_case_swaps_before_deleting(self):
        g = path_graph(3)  # 2 is the axil of leaf 1
        h = Graph([1, 2], [(1, 2)])
        reduced_g, reduced_h = target_reduce(g, h, 2, 1)
        assert reduced_g == Graph([1, 3], [(1, 3)])
        assert reduced_h == Graph([1])

    def test_x_measured_line_reduces_to_blocked_instance(self):
        # measuring the middle of a six-path with nested pairs leaves a
        # leaf-axil pair; reducing it lands on a pair-plus-isolated instance
        # that is impossible
        g = measure_x(path_graph(6), 4, 3)
        h = Graph([1, 3, 5, 6], [(1, 6), (3, 5)])
        assert decide_vertex_minor(g, h).answer == NO
        reduced_g, reduced_h = target_reduce(g, h, 3, 5)
        assert decide_vertex_minor(reduced_g, reduced_h).answer == NO

    def test_inverse_direction_not_claimed(self):
        # reduced relation holds while the original fails
        g = Graph(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
        assert decide_vertex_minor(g, BELL_TARGET).answer == NO
        reduced_g, reduced_h = target_reduce(g, BELL_TARGET, 5, 4)
        assert decide_vertex_minor(reduced_g, reduced_h).answer == YES

    def test_rejects_inequivalent_pair(self):
        with pytest.raises(ValueError, match="not foliage-equivalent"):
            target_reduce(path_graph(5), BELL_TARGET, 5, 1)

    def test_rejects_equal_vertices(self):
        with pytest.raises(ValueError, match="distinct"):
            target_reduce(path_graph(5), BELL_TARGET, 4, 4)

    def test_sound_whenever_minor_holds(self, rng):
        confirmed = 0
        while confirmed < 40:
            g = random_graph(rng, rng.randint(4, 7))
            h = _random_minor(rng, g, drop=rng.randint(1, 2))
            pair = _equivalent_pair_in_both(g, h)
            if pair is None:
                continue
            reduced_g, reduced_h = target_reduce(g, h, *pair)
            assert decide_vertex_minor(reduced_g, reduced_h).answer == YES
            confirmed += 1


def _equivalent_pair_in_both(g, h):
    for v in h.vertices:
        for w in h.vertices:
            if v != w and foliage_equivalent(g, v, w) and foliage_equivalent(h, v, w):
                return v, w
    return None


def foliage_target_reduce(g, h, w_target, reps_target):
    """Collapse matching foliage blocks of a minor pair simultaneously.

    The target's partition, padded with singletons on the surplus source
    vertices, must be a foliage partition of the source (checked); both
    graphs are then collapsed onto the shared representatives, preserving
    the minor relation.
    """
    if not is_foliage_partition(h, w_target):
        raise InvalidPartitionError("not a foliage partition of the target")
    surplus = sorted(set(g.vertices) - set(h.vertices))
    lifted = Partition(list(w_target.blocks) + [{v} for v in surplus])
    if not is_foliage_partition(g, lifted):
        raise InvalidPartitionError("lifted partition is not a foliage partition of the source")
    reduced_g, _ = extract_foliage_graph(g, lifted, list(reps_target) + surplus)
    reduced_h, _ = extract_foliage_graph(h, w_target, list(reps_target))
    return reduced_g, reduced_h


class TestFoliageTargetReduce:
    def test_bell_target_pairs_collapse_together(self):
        g = path_graph(5)
        w_target = Partition([{1, 2}, {4, 5}])
        reduced_g, reduced_h = foliage_target_reduce(g, BELL_TARGET, w_target, (1, 4))
        assert reduced_h == Graph([1, 4])
        assert decide_vertex_minor(reduced_g, reduced_h).answer == YES

    def test_all_singletons_unchanged(self):
        g = path_graph(5)
        reduced_g, reduced_h = foliage_target_reduce(
            g, BELL_TARGET, singletons(BELL_TARGET), BELL_TARGET.vertices
        )
        assert reduced_g == g and reduced_h == BELL_TARGET

    def test_invalid_lift_rejected(self):
        g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 5)])
        h = Graph([1, 2, 5], [(1, 2), (2, 5)])
        w_target = Partition([{1}, {2, 5}])  # equivalent in h only
        with pytest.raises(InvalidPartitionError):
            foliage_target_reduce(g, h, w_target, (1, 2))

    def test_random_minor_pairs_stay_minors(self, rng):
        confirmed = 0
        while confirmed < 25:
            g = random_graph(rng, rng.randint(4, 7))
            h = _random_minor(rng, g, drop=rng.randint(1, 2))
            pair = _equivalent_pair_in_both(g, h)
            if pair is None:
                continue
            v, w = pair
            w_target = Partition([{v, w}] + [{u} for u in h.vertices if u not in (v, w)])
            surplus = set(g.vertices) - set(h.vertices)
            lifted = Partition([{v, w}] + [{u} for u in g.vertices if u not in (v, w)])
            if not is_foliage_partition(g, lifted):
                continue
            reps = tuple(min(b) for b in w_target.blocks)
            reduced_g, reduced_h = foliage_target_reduce(g, h, w_target, reps)
            assert decide_vertex_minor(reduced_g, reduced_h).answer == YES
            confirmed += 1
