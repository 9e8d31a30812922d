"""Replayable rewrite sequences.

A witness for a graph reduction is an ordered list of steps, each a local
complementation, a deletion, or a Pauli-measurement rewrite. Replaying the
list on the source graph must be defined at every step: targets alive, and
an x-measurement's recorded neighbor alive and adjacent (the neighbor is
omitted only when the measured vertex is isolated). ``replay`` is the one
checked path: it rewrites the source's label-indexed bitmask rows and alive
mask and builds one graph, at the end.
"""

from __future__ import annotations

from .graph import Graph, _graph, _lc_rows, _live, _Record, _set, _unknown, _x_neighbor, _x_rows, _z_rows

LC = "lc"
DELETE = "delete"
MEASURE_Z = "measure_z"
MEASURE_Y = "measure_y"
MEASURE_X = "measure_x"

_KINDS = (LC, DELETE, MEASURE_Z, MEASURE_Y, MEASURE_X)

YES = "yes"
NO = "no"
UNKNOWN = "unknown"


class Step(_Record):
    __slots__ = ("op", "vertex", "neighbor")

    def __init__(self, op: str, vertex: int, neighbor: int | None = None):
        if op not in _KINDS:
            raise ValueError(f"unknown op kind {op!r}")
        if neighbor is not None and op != MEASURE_X:
            raise ValueError(f"{op} takes no neighbor")
        _set(self, "op", op)
        _set(self, "vertex", vertex)
        _set(self, "neighbor", neighbor)


class Decision(_Record):
    """Answer plus, for a yes, a replayable witness and the deciding rule."""

    __slots__ = ("answer", "rule", "witness")

    def __init__(self, answer: str, rule: str, witness: tuple[Step, ...] | None = None):
        if (answer == YES) != (witness is not None):
            raise ValueError("witness present iff the answer is yes")
        _set(self, "answer", answer)
        _set(self, "rule", rule)
        _set(self, "witness", witness)


def apply_step(g: Graph, step: Step) -> Graph:
    return replay(g, (step,))


def replay(g: Graph, steps) -> Graph:
    """Apply ``steps`` in order; each raises what its ``graph`` rewrite would raise there.

    As in the search, a deleted or measured row is zeroed in place and its label's
    bit cleared in ``alive``; ``_graph`` wraps the rows at the end."""
    rows, alive = g._rows, g._alive
    for step in steps:
        op, a = step.op, step.vertex
        if not _live(alive, a):
            raise _unknown(a)
        if op == LC:
            rows = _lc_rows(rows, a)
        elif op == MEASURE_X:
            nbrs = rows[a]
            if step.neighbor is None and nbrs:
                raise ValueError(f"x-measurement of non-isolated vertex {a} needs its neighbor recorded")
            b = _x_neighbor(nbrs, a, step.neighbor, alive)
            rows = rows if b is None else _x_rows(rows, a, b)  # an isolated row is zero already
        else:
            rows = _z_rows(rows, a, op == MEASURE_Y)
        alive ^= (op != LC) << a  # every step but a local complement removes its label
    return _graph(rows, alive)


def _witness(g: Graph, steps, target: Graph) -> tuple[Step, ...]:
    """``steps``, a constructed witness, as a tuple once it replays from ``g`` to ``target`` exactly."""
    steps = tuple(steps)
    if replay(g, steps) != target:
        raise RuntimeError("a constructed witness does not replay to its target; this is a bug")
    return steps


def steps_to_json(steps) -> list[dict]:
    out = []
    for s in steps:
        obj = {"op": s.op, "vertex": s.vertex}
        if s.neighbor is not None:
            obj["neighbor"] = s.neighbor
        out.append(obj)
    return out


def steps_from_json(objs) -> tuple[Step, ...]:
    """Parse witness JSON: a list of step objects with integer labels."""
    if not isinstance(objs, list):
        raise ValueError(f"witness must be a list of step objects, got {type(objs).__name__}")
    steps = []
    for i, obj in enumerate(objs):
        if not isinstance(obj, dict):
            raise ValueError(f"witness step {i} must be an object, got {type(obj).__name__}")
        fields = ["vertex"] + (["neighbor"] if "neighbor" in obj else [])
        for field in fields:
            value = obj.get(field)
            if type(value) is not int:  # rejects bools, strings, floats and null
                raise ValueError(f"witness step {i}: {field} must be an integer, got {value!r}")
        steps.append(Step(obj.get("op"), obj["vertex"], obj.get("neighbor")))
    return tuple(steps)
