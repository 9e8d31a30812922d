"""Foliage reductions with replayable witnesses; they need no LC-equivalence or decider.

``source_reduce`` and ``target_reduce`` (one-directional) delete foliage vertices by one rule,
``_deletion_steps``; ``extract_foliage_graph`` collapses a foliage partition onto representatives in one replay.
"""

from __future__ import annotations

from .foliage import Partition, _row_groups, _star_centers, foliage_equivalent, foliage_graph
from .graph import Graph, _is_int
from .ops import DELETE, LC, Step, _witness, replay


def _deletion_steps(g: Graph, v: int, w: int) -> tuple[Step, ...]:
    """Steps deleting ``v``, which is foliage-equivalent to ``w`` in ``g``.

    A leaf or twin ``v`` is deleted outright; when ``v`` is the axil of
    leaf ``w`` (and not itself a leaf), the two are swapped first
    (``lc v``, ``lc w``) so ``w`` inherits the adjacency.
    """
    if g.neighbor_mask(w) == 1 << v and g.neighbor_mask(v) != 1 << w:
        return (Step(LC, v), Step(LC, w), Step(DELETE, v))
    return (Step(DELETE, v),)


def source_reduce(g: Graph, protected: set[int] | frozenset[int]) -> tuple[Graph, tuple[Step, ...]]:
    """Greedily remove foliage vertices outside ``protected``.

    Rules, in fixed order for reproducible witnesses: delete a twin, delete
    a leaf, or swap an axil with the smallest of its leaves and delete it.
    Each preserves vertex-minor answers for any target on the protected
    labels that has no isolated vertices (the caller asserts that). Returns
    the reduced graph and the steps applied.
    """
    protected = list(protected)
    for v in protected:  # as given, before a set merges ``True`` and ``1.0`` into ``1``
        if not _is_int(v):
            raise ValueError(f"protected labels must be integers, got {v!r}")
    protected = set(protected)
    unknown = protected - set(g.vertices)
    if unknown:
        raise ValueError(f"protected labels {sorted(unknown)} not in graph")
    out = g
    ops: list[Step] = []
    while steps := _reduction_steps(out, protected):
        ops.extend(steps)
        out = replay(out, steps)
    return out, tuple(ops)


def _reduction_steps(g: Graph, protected: set[int]) -> tuple[Step, ...]:
    """Steps of the first source-reduction rule that applies, else none."""
    by_open, twins = _row_groups(g)
    candidates = [(v, g._rows[v]) for v in g.vertices if v not in protected]
    pair = (next(((v, w) for v, _ in candidates for w in twins[v] if w != v), None)
            or next(((v, row.bit_length() - 1) for v, row in candidates if row.bit_count() == 1), None)
            or next(((v, by_open[1 << v][0]) for v, _ in candidates if 1 << v in by_open), None))
    return _deletion_steps(g, *pair) if pair else ()


def target_reduce(g: Graph, h: Graph, v: int, w: int) -> tuple[Graph, Graph]:
    """Jointly delete ``v`` from source and target, given ``v ~ w`` in both.

    Preserves the minor relation one-directionally: when the target was a
    minor before, the reduced target is a minor of the reduced source. The
    equivalence is recomputed here rather than trusted.
    """
    if v == w:
        raise ValueError("target reduction needs two distinct vertices")
    for graph, name in ((g, "source"), (h, "target")):
        if not foliage_equivalent(graph, v, w):
            raise ValueError(f"vertices {v} and {w} are not foliage-equivalent in the {name}")
    return replay(g, _deletion_steps(g, v, w)), replay(h, _deletion_steps(h, v, w))


def extract_foliage_graph(g: Graph, w: Partition, reps: tuple[int, ...] | list[int]) -> tuple[Graph, tuple[Step, ...]]:
    """Collapse each block of a foliage partition onto its representative.

    Per block: a singleton needs nothing; a star swaps its axil with the
    representative (two local complements, a no-op if they coincide) and
    deletes the remaining leaves; a clique or anticlique of twins deletes
    everyone but the representative. Collapsing a block moves no star center of
    another, so all blocks are planned on ``g`` and replayed once; the result must
    equal the quotient graph labeled by the representatives.
    """
    fg = foliage_graph(g, w, reps)  # validates the partition and representatives
    ops: list[Step] = []
    for block, rep in zip(fg.partition.blocks, fg.representatives):
        members = sorted(block)
        centers = _star_centers(g, members)  # empty for twins; a singleton is its own center
        if centers and rep not in centers:
            ops += [Step(LC, centers[0]), Step(LC, rep)]
        ops += [Step(DELETE, v) for v in members if v != rep]
    return fg.graph, _witness(g, ops, fg.graph)
