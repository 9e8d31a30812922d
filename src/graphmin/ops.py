"""Replayable rewrite sequences.

A witness for a graph reduction is an ordered list of steps, each a local
complementation, a deletion, or a Pauli-measurement rewrite. Replaying the
list on the source graph must be defined at every step: targets alive, and
an x-measurement's recorded neighbor alive and adjacent (the neighbor is
omitted only when the measured vertex is isolated).
"""

from __future__ import annotations

from .graph import Graph, _Record, _set, delete_vertex, local_complement, measure_x, measure_y, measure_z

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


_ONE_VERTEX = {LC: local_complement, DELETE: delete_vertex, MEASURE_Z: measure_z, MEASURE_Y: measure_y}


def apply_step(g: Graph, step: Step) -> Graph:
    if step.op in _ONE_VERTEX:
        return _ONE_VERTEX[step.op](g, step.vertex)
    # measure_x: a recorded neighbor is mandatory unless the vertex was isolated
    if step.neighbor is None and g.neighbors(step.vertex):
        raise ValueError(f"x-measurement of non-isolated vertex {step.vertex} needs its neighbor recorded")
    return measure_x(g, step.vertex, step.neighbor)


def replay(g: Graph, steps) -> Graph:
    """Apply ``steps`` in order, validating each against the current graph."""
    out = g
    for step in steps:
        out = apply_step(out, step)
    return out


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
