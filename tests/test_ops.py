import pytest

import random

from graphmin import Graph, Step, apply_step, path_graph, replay
from graphmin.graph import _delete_rows, _lc_rows, _measure_rows, _x_rows
from graphmin.ops import steps_from_json, steps_to_json


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


def _kernel_step(rows, at, step):
    """``step`` in the rows kernel of ``graph.py``: a measurement is the
    search's child from ``_measure_rows`` (x through a neighbor other than the
    smallest by ``_x_rows``), the measured row zeroed in place and then dropped.
    A child changes only the rows of the measured vertex, its neighbors and,
    for x, the neighbors of the one measured through."""
    if step.op == "lc":
        return _lc_rows(rows, at, step.vertex)
    if step.op == "delete":
        return _delete_rows(rows, at, step.vertex)
    i, mask = at[step.vertex], rows[at[step.vertex]]
    near = mask | 1 << step.vertex
    if step.op == "measure_x" and step.neighbor is not None:
        near |= rows[at[step.neighbor]]
    if step.op == "measure_x" and step.neighbor not in (None, (mask & -mask).bit_length() - 1):
        child = _x_rows(rows, at, step.vertex, step.neighbor)
    else:
        child = _measure_rows(rows, at, step.vertex)[("measure_z", "measure_y", "measure_x").index(step.op)]
    assert child[i] == 0 and len(child) == len(rows)
    assert all(new == old or near >> v & 1 for v, old, new in zip(at, rows, child))
    return child[:i] + child[i + 1:]


def test_rows_rewrites_match_apply_step():
    # every kind of step on graphs with scattered labels up to 64, through
    # ``apply_step`` and through the bare kernel, against the definitions;
    # each rows tuple stays aligned to the ascending labels of its graph
    rng = random.Random(43)
    kinds = set()
    for _ in range(300):
        labels = sorted(rng.sample(range(1, 65), rng.randint(1, 10)))
        p = rng.choice((0.2, 0.5, 0.8))
        g = Graph(labels, [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]
                           if rng.random() < p])
        adj = {v: g.neighbors(v) for v in g.vertices}
        rows, at = g._rows, g._at
        while g.n and rng.random() < 0.9:
            v = rng.choice(g.vertices)
            op = rng.choice(("lc", "delete", "measure_z", "measure_y", "measure_x"))
            nbrs = sorted(g.neighbors(v))
            step = Step(op, v, rng.choice(nbrs) if op == "measure_x" and nbrs else None)
            g = apply_step(g, step)
            adj = _reference_step(adj, step)
            rows = _kernel_step(rows, at, step)
            at = g._at
            expected = Graph(sorted(adj), [(a, b) for a in adj for b in adj[a] if a < b])
            assert g == expected and list(at) == sorted(adj)
            assert rows == g._rows == expected._rows
            kinds.add((op, step.neighbor is None))
    assert len(kinds) == 6  # x through a neighbor and x of an isolated vertex among them
