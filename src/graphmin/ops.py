"""Replayable rewrite sequences.

A witness for a graph reduction is an ordered list of steps, each a local
complementation, a deletion, or a Pauli-measurement rewrite. Replaying the
list on the source graph must be defined at every step: targets alive, and
an x-measurement's recorded neighbor alive and adjacent (the neighbor is
omitted only when the measured vertex is isolated). ``replay`` checks only that
last rule itself; every other check is ``graph._step``'s, the one checked
rewrite, which it runs on the source's label-indexed bitmask rows and alive
mask, building one graph at the end.
"""

from __future__ import annotations

from .graph import Graph, _graph, _is_int, _Record, _step

LC = "lc"
DELETE = "delete"
MEASURE_Z = "measure_z"
MEASURE_Y = "measure_y"
MEASURE_X = "measure_x"

_KINDS = (LC, DELETE, MEASURE_Z, MEASURE_Y, MEASURE_X)  # a tuple: a list op is not in it, not a TypeError
_REWRITE = {LC: "lc", DELETE: "z", MEASURE_Z: "z", MEASURE_Y: "y", MEASURE_X: "x"}  # the kind of ``_step``

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
        self._fill(op, vertex, neighbor)


class Decision(_Record):
    """Answer plus, for a yes, a replayable witness and the deciding rule."""

    __slots__ = ("answer", "rule", "witness")

    def __init__(self, answer: str, rule: str, witness: tuple[Step, ...] | None = None):
        if (answer == YES) != (witness is not None):
            raise ValueError("witness present iff the answer is yes")
        self._fill(answer, rule, witness)


def apply_step(g: Graph, step: Step) -> Graph:
    return replay(g, (step,))


def replay(g: Graph, steps) -> Graph:
    """Apply ``steps`` in order through ``_step``, each raising what its ``graph`` rewrite would raise there;
    an x-measurement of a vertex with neighbors must also have recorded one. ``_graph`` wraps the rows at the end."""
    rows, alive = g._rows, g._alive
    for step in steps:
        new = _step(rows, alive, step.vertex, _REWRITE[step.op], step.neighbor)
        if step.op == MEASURE_X and step.neighbor is None and rows[step.vertex]:  # ``_step`` found it alive
            raise ValueError(f"x-measurement of non-isolated vertex {step.vertex} needs its neighbor recorded")
        rows, alive = new
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
            if not _is_int(value):  # rejects bools, strings, floats and null
                raise ValueError(f"witness step {i}: {field} must be an integer, got {value!r}")
        steps.append(Step(obj.get("op"), obj["vertex"], obj.get("neighbor")))
    return tuple(steps)
