import random
import re
from itertools import combinations

import pytest

from graphmin import (Graph, Step, UnknownVertexError, apply_step, delete_vertex, local_complement, measure_x,
                      measure_y, measure_z, path_graph, replay)
from graphmin.graph import _lc_rows, _measure_rows, _x_rows, _z_rows
from graphmin.ops import _witness, steps_from_json, steps_to_json

from conftest import all_graphs, eager_measure_rows


def test_step_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Step("swap", 1)


def test_step_rejects_stray_neighbor():
    with pytest.raises(ValueError):
        Step("lc", 1, 2)


def test_replay_runs_in_order():
    g = path_graph(3)
    out = replay(g, [Step("lc", 2), Step("delete", 2)])
    assert out == Graph([1, 3], [(1, 3)])


def test_replay_rejects_dead_target():
    with pytest.raises(Exception):
        replay(path_graph(3), [Step("delete", 2), Step("lc", 2)])


def test_measure_x_step_needs_recorded_neighbor():
    with pytest.raises(ValueError, match="recorded"):
        apply_step(path_graph(3), Step("measure_x", 2))


def test_measure_x_step_without_neighbor_ok_when_isolated():
    g = Graph(2)
    assert apply_step(g, Step("measure_x", 1)).vertices == (2,)


def test_json_round_trip():
    steps = (Step("measure_x", 2, 1), Step("measure_y", 3), Step("lc", 4), Step("delete", 4))
    objs = steps_to_json(steps)
    assert objs[0] == {"op": "measure_x", "vertex": 2, "neighbor": 1}
    assert "neighbor" not in objs[1]
    assert steps_from_json(objs) == steps


def _reference_step(adj, step):
    """``step`` on a ``{label: set of neighbors}`` copy of ``adj``, written
    from the definitions: a local complement toggles every pair of
    neighbors, a deletion drops the vertex and its edges, y is a local
    complement then a deletion, and x through ``b`` is three local
    complements (b, a, b) then a deletion."""
    adj = {v: set(nbrs) for v, nbrs in adj.items()}

    def lc(a):
        nbrs = sorted(adj[a])
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1:]:
                adj[u] ^= {w}
                adj[w] ^= {u}

    def delete(a):
        for u in adj.pop(a):
            adj[u].discard(a)

    a, b = step.vertex, step.neighbor
    if step.op in ("lc", "measure_y"):
        lc(a)
    elif step.op == "measure_x" and b is not None:
        lc(b)
        lc(a)
        lc(b)
    if step.op != "lc":
        delete(a)
    return adj


def _kernel_step(rows, alive, step):
    """``step`` in the rows kernel of ``graph.py`` on a graph with labels ``alive``:
    a measurement is the search's child from ``_measure_rows`` (x through a
    neighbor other than the smallest by ``_x_rows``) and a deletion is
    ``_z_rows``, the measured row zeroed in place and the tuple then cut after
    the largest label left. A child changes only the rows of the measured
    vertex, its neighbors and, for x, the neighbors of the one measured through."""
    if step.op == "lc":
        return _lc_rows(rows, step.vertex)
    i, mask = step.vertex, rows[step.vertex]
    near = mask | 1 << step.vertex
    if step.op == "measure_x" and step.neighbor is not None:
        near |= rows[step.neighbor]
    if step.op == "delete":
        child = _z_rows(rows, step.vertex)
    elif step.op == "measure_x" and step.neighbor not in (None, (mask & -mask).bit_length() - 1):
        child = _x_rows(rows, step.vertex, step.neighbor)
    else:
        children = dict(_measure_rows(rows, step.vertex))  # no y where it is z, no x where it is z too
        child = children.get(step.op[-1], children["z"])
    assert child[i] == 0 and len(child) == len(rows)
    assert all(new == old or near >> v & 1 for v, (old, new) in enumerate(zip(rows, child)))
    return child[:(alive ^ 1 << i).bit_length()]


def _distinct(children):
    """``(kind, child)`` for each of the eager z, y and x children that ``is`` none before it."""
    return [(kind, child) for i, (kind, child) in enumerate(zip("zyx", children))
            if all(child is not before for before in children[:i])]


def test_measure_rows_shares_children_only_where_the_search_skips_them():
    # the eager reference's y is its z for a vertex with one neighbor, and all
    # three are the rows themselves for an isolated vertex; otherwise each
    # child is its own tuple. The search's generator yields exactly the
    # distinct ones, in z, y, x order
    for n in range(6):
        for g in all_graphs(n):
            rows = g._rows
            for a in g.vertices:
                z, y, x = children = eager_measure_rows(rows, a)
                degree = g.degree(a)
                assert [child is rows for child in children] == [degree == 0] * 3
                assert (y is z) == (degree < 2) and (x is z) == (x is y) == (degree == 0)
                if degree:
                    smallest = min(g.neighbors(a))
                    assert (z, y, x) == (_z_rows(rows, a), _z_rows(rows, a, True),
                                         _x_rows(rows, a, smallest))
                assert list(_measure_rows(rows, a)) == _distinct(children)


def test_measure_rows_yields_the_distinct_eager_children_on_scattered_labels():
    # random graphs on labels scattered in 1..64, sparse enough that many
    # vertices are isolated or have one neighbor
    rng = random.Random(61)
    degrees = set()
    for _ in range(300):
        labels = sorted(rng.sample(range(1, 65), rng.randint(1, 10)))
        p = rng.choice((0.1, 0.3, 0.6))
        g = Graph(labels, [pair for pair in combinations(labels, 2) if rng.random() < p])
        for a in labels:
            assert list(_measure_rows(g._rows, a)) == _distinct(eager_measure_rows(g._rows, a)), (g, a)
            degrees.add(min(g.degree(a), 2))
    assert degrees == {0, 1, 2}


def test_rows_rewrites_match_apply_step():
    # every kind of step on graphs with scattered labels up to 64, through
    # ``apply_step``, through the ``graph`` rewrite it names and through the
    # bare kernel, against the definitions; each rows tuple is indexed by the
    # labels of its graph and ends at the largest one
    rng = random.Random(43)
    kinds = set()
    for _ in range(300):
        labels = sorted(rng.sample(range(1, 65), rng.randint(1, 10)))
        p = rng.choice((0.2, 0.5, 0.8))
        g = Graph(labels, [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]
                           if rng.random() < p])
        adj = {v: g.neighbors(v) for v in g.vertices}
        rows, alive = g._rows, g._alive
        while g.n and rng.random() < 0.9:
            v = rng.choice(g.vertices)
            op = rng.choice(("lc", "delete", "measure_z", "measure_y", "measure_x"))
            nbrs = sorted(g.neighbors(v))
            step = Step(op, v, rng.choice(nbrs) if op == "measure_x" and nbrs else None)
            named = graph_rewrite(g, step)
            g = apply_step(g, step)
            adj = _reference_step(adj, step)
            rows = _kernel_step(rows, alive, step)
            alive = g._alive
            expected = Graph(sorted(adj), [(a, b) for a in adj for b in adj[a] if a < b])
            assert g == expected == named and alive == named._alive == sum(1 << v for v in adj)
            assert rows == g._rows == named._rows == expected._rows
            kinds.add((op, step.neighbor is None))
    assert len(kinds) == 6  # x through a neighbor and x of an isolated vertex among them


# -- ``replay`` on fixed row positions against the definitions, one step at a time ----

_ONE_VERTEX = {"lc": local_complement, "delete": delete_vertex, "measure_z": measure_z, "measure_y": measure_y}


def graph_rewrite(g, step):
    """The ``graph`` rewrite that a good ``step`` names."""
    if step.op == "measure_x":
        return measure_x(g, step.vertex, step.neighbor)
    return _ONE_VERTEX[step.op](g, step.vertex)


def reference_apply_step(g, step):
    """One step on ``g``'s edges by ``_reference_step``, calling no graph rewrite, with
    the checks and error texts of a replayed step written out here."""
    adj = {v: g.neighbors(v) for v in g.vertices}
    a, b = step.vertex, step.neighbor

    def unknown(v):
        return type(v) is not int or v not in adj  # ``True`` and ``2.0`` are found by ``in``

    if unknown(a):
        raise UnknownVertexError(f"unknown vertex label {a!r}")
    if step.op == "measure_x":
        if not adj[a] and b is not None:
            raise ValueError(f"vertex {a} is isolated; no neighbor {b} to route through")
        if adj[a] and b is None:
            raise ValueError(f"x-measurement of non-isolated vertex {a} needs its neighbor recorded")
        if b is not None and unknown(b):
            raise UnknownVertexError(f"unknown vertex label {b!r}")
        if b is not None and b not in adj[a]:
            raise ValueError(f"vertex {b} is not a neighbor of {a}")
    adj = _reference_step(adj, step)
    return Graph(sorted(adj), [(u, v) for u in adj for v in adj[u] if u < v])


def _random_step(rng, g, dead):
    """A step on ``g``, good mostly; ``dead`` holds labels deleted or never there."""
    op = rng.choice(("lc", "delete", "measure_z", "measure_y", "measure_x"))
    roll = rng.random()
    if roll < 0.08 and dead:
        return Step(op, rng.choice(sorted(dead)))
    if roll < 0.12 or not g.n:
        return Step(op, rng.choice((2.0, True)))
    v = rng.choice(g.vertices)
    if op != "measure_x":
        return Step(op, v)
    nbrs = sorted(g.neighbors(v))
    others = sorted(set(g.vertices) - {*nbrs, v})
    choices = [rng.choice(nbrs) if nbrs else None] * 4 + [None]  # None: a missing neighbor, unless isolated
    choices += [rng.choice(sorted(dead))] if dead else []
    choices += [rng.choice(others)] if others else []
    choices += [v, 2.0, True] if not nbrs or rng.random() < 0.3 else []  # a neighbor for an isolated vertex
    return Step(op, v, rng.choice(choices))


def _assert_replay_matches_the_reference(g, rng, seen):
    """Random steps on ``g``: ``replay`` gives the graph that the per-step
    rewrites give, or raises their exception, with its message, at the same step."""
    steps, graphs, error = [], [g], None
    dead = set(range(1, 65)) - set(g.vertices) if rng.random() < 0.5 else set()
    while len(steps) < 8 and error is None and rng.random() < 0.9:
        step = _random_step(rng, graphs[-1], dead)
        steps.append(step)
        try:
            graphs.append(reference_apply_step(graphs[-1], step))
        except (ValueError, TypeError) as exc:
            error = exc
        else:
            dead |= set(graphs[-2].vertices) - set(graphs[-1].vertices)
        seen.add((step.op, error and re.sub(r"[0-9.]+|True", "#", str(error))))
    good = steps[:len(graphs) - 1]
    assert replay(g, good) == graphs[-1], (g, good)
    assert replay(g, good)._alive == graphs[-1]._alive
    if error is not None:
        steps += [_random_step(rng, graphs[-1], dead) for _ in range(rng.randint(0, 2))]  # never reached
        with pytest.raises(type(error)) as caught:
            replay(g, steps)
        assert type(caught.value) is type(error) and str(caught.value) == str(error), (g, steps)


# every kind of step, good or naming an unknown label; and each way an x step's neighbor is wrong
REPLAY_OUTCOMES = {(op, outcome) for op in ("lc", "delete", "measure_z", "measure_y", "measure_x")
                   for outcome in (None, "unknown vertex label #")} | {
    ("measure_x", "x-measurement of non-isolated vertex # needs its neighbor recorded"),
    ("measure_x", "vertex # is not a neighbor of #"),
    ("measure_x", "vertex # is isolated; no neighbor # to route through"),
}


def test_replay_matches_one_rewrite_per_step_on_small_graphs():
    rng, seen = random.Random(2101), set()
    for n in range(6):
        for g in all_graphs(n):
            for _ in range(3):
                _assert_replay_matches_the_reference(g, rng, seen)
    assert seen == REPLAY_OUTCOMES


def test_replay_matches_one_rewrite_per_step_on_scattered_labels():
    rng, seen = random.Random(2102), set()
    for _ in range(1_500):
        labels = rng.sample(range(1, 65), rng.randint(1, 10))
        p = rng.choice((0.2, 0.5, 0.8))
        g = Graph(labels, [(a, b) for a, b in combinations(labels, 2) if rng.random() < p])
        _assert_replay_matches_the_reference(g, rng, seen)
    assert seen == REPLAY_OUTCOMES


@pytest.mark.parametrize("steps, error, message", [
    ([Step("delete", 2), Step("lc", 2)], UnknownVertexError, "unknown vertex label 2"),
    ([Step("measure_y", 2.0)], UnknownVertexError, "unknown vertex label 2.0"),
    ([Step("lc", True)], UnknownVertexError, "unknown vertex label True"),
    ([Step("measure_x", 2)], ValueError, "x-measurement of non-isolated vertex 2 needs its neighbor recorded"),
    ([Step("measure_x", 2, 4)], ValueError, "vertex 4 is not a neighbor of 2"),
    ([Step("measure_z", 3), Step("measure_x", 2, 3)], UnknownVertexError, "unknown vertex label 3"),
    ([Step("measure_x", 2, 2.0)], UnknownVertexError, "unknown vertex label 2.0"),
    ([Step("delete", 2), Step("measure_x", 1, 3)], ValueError,
     "vertex 1 is isolated; no neighbor 3 to route through"),
], ids=["dead", "float", "bool", "no-neighbor", "not-adjacent", "dead-neighbor", "float-neighbor", "isolated"])
def test_replay_errors_name_the_bad_step(steps, error, message):
    g = Graph(4, [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(error) as caught:
        replay(g, steps)
    assert type(caught.value) is error and str(caught.value) == message
    with pytest.raises(error):
        reference_apply_step(replay(g, steps[:-1]), steps[-1])


def test_a_constructed_witness_is_returned_only_if_it_replays_to_its_target():
    g = Graph(4, [(1, 2), (2, 3), (3, 4)])
    steps = [Step("measure_y", 2), Step("delete", 4)]
    assert _witness(g, iter(steps), Graph([1, 3], [(1, 3)])) == tuple(steps)
    with pytest.raises(RuntimeError, match="does not replay to its target; this is a bug$"):
        _witness(g, steps, Graph([1, 3]))


def test_replay_without_deletion_keeps_the_alive_labels():
    g = Graph([3, 9, 40], [(3, 9), (9, 40)])
    out = replay(g, [Step("lc", 9), Step("lc", 3)])
    assert out._alive == g._alive and out == local_complement(local_complement(g, 9), 3)
    assert replay(g, ()) == g and apply_step(g, Step("lc", 9)) == local_complement(g, 9)
