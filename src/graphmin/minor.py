"""Vertex-minor decisions with witnesses.

A target H is a vertex-minor of a source G when some sequence of local
complementations and deletions sends G to H; equivalently, some assignment
of x/y/z measurement rewrites to the surplus vertices lands in the target's
LC-orbit. The brute-force decider searches those assignments in canonical
order, so answers and witnesses are deterministic; every yes carries a step
sequence that replays to the target exactly. A call runs on the source's
label-indexed bitmask rows and builds one graph, in the witness check
(``ops._witness``). The reductions are in ``graphmin.reduction``.
"""

from __future__ import annotations

from itertools import combinations, islice

from .foliage import _any_equivalent, _pair
from .graph import Graph, _bits, _measure_rows, _pair_ranks, _x_neighbor
from .ops import LC, MEASURE_X, MEASURE_Y, MEASURE_Z, NO, UNKNOWN, YES, Decision, Step, _witness
# the bench's traced runs wrap ``graphmin.minor.lc_orbit_paths``, so the name stays
from .orbit import BudgetExceededError, _budget, _closure, _lc_equivalent_rows, lc_orbit_paths


def decide_vertex_minor(g: Graph, h: Graph, node_budget: int | None = None) -> Decision:
    """Decide whether ``h`` is a vertex-minor of ``g``, constructively.

    A depth-first search measures the surplus vertices in ascending label
    order, each in bases z, y, x (x through its smallest neighbor); the first
    measured graph in the target's LC-orbit wins, and the witness is those
    measurements plus the local complements back to ``h``. The search runs
    on bare rows tuples, a measured row zeroed (``graph._measure_rows``),
    and builds steps only for the witness. What
    lies below a graph depends on it alone, so one whose three measurements
    all failed is remembered and skipped when reached again. The target's
    orbit is generated only as far as leaves need it: a leaf not among the
    members drawn is a miss when its pair cut-ranks (LC-invariant) differ
    from the target's. Otherwise the orbit's closure advances until the
    leaf appears or ``_SHORT_DRAW`` members are drawn; then a leaf that the
    exact GF(2) test (``orbit._lc_equivalent_rows``) refutes is a miss, and
    the closure goes on until the leaf appears or, where that test cannot
    tell, until the orbit ends.

    Foliage persistence prunes: if ``h`` is a vertex-minor of a graph, each
    foliage class of that graph, cut down to the labels of ``h``, lies inside
    one class of ``h``, is all isolated in ``h``, or is gone. A graph in which
    two target labels are foliage-equivalent, while ``h`` puts them in
    different classes and does not isolate both, has no hit below it: ``g``
    is then a "no" before the orbit is drawn, and a graph in the search is
    remembered as failed. Only failures are remembered or pruned, so the
    first hit, and the witness, are those of enumerating all 3^k assignments.

    ``node_budget`` (default 2^20) bounds the number of the target's orbit
    members generated and, separately, the number of distinct graphs the
    search measures or prunes. Running out of either yields "unknown", never
    a wrong no.
    """
    if h._alive & ~g._alive:
        raise ValueError(f"target labels {[*_bits(h._alive & ~g._alive)]} not in source")
    budget = _budget(node_budget)
    labels = h.vertices
    ranks = _pair_ranks(h._rows, labels)
    conflicts = _conflict_pairs(h, labels, ranks)
    if _any_equivalent(g._rows, conflicts):
        return Decision(NO, "brute-force")
    to_measure = tuple([*_bits(g._alive & ~h._alive)])
    # one failed set per depth: a measured row is zero, like an isolated vertex's
    failed: list[set[tuple[int, ...]]] = [set() for _ in to_measure]
    spent = 0  # graphs in ``failed``
    choices: list[tuple[str, tuple[int, ...]]] = []  # (basis, the rows it measured) down to a node
    width = len(h._rows)  # a leaf's measured rows are zero, so its first ``width`` rows are a graph on ``labels``
    members = _closure(h._rows, budget)  # the target's orbit, drawn as leaves need it
    orbit = dict(islice(members, 2))
    members = members if len(orbit) == 2 else None  # one member (every Bell target): finished

    def lookup(rows: tuple[int, ...]):
        """Orbit path to a leaf, drawing members until it appears; None outside the orbit."""
        nonlocal members
        rows = rows[:width]
        path = orbit.get(rows)
        if path is not None or members is None:
            return path
        if _pair_ranks(rows, labels) != ranks or len(orbit) >= _SHORT_DRAW and refuted(rows):
            return None
        for member, path in members:
            orbit[member] = path
            if member == rows:
                return path
            if len(orbit) == _SHORT_DRAW and refuted(rows):
                return None
        members = None
        return None

    def refuted(rows: tuple[int, ...]) -> bool:
        return _lc_equivalent_rows(rows, h._rows) is False

    def search(rows: tuple[int, ...], depth: int):
        """Orbit path of the first hit below ``rows``; ``choices`` leads to it."""
        nonlocal spent
        if depth == len(to_measure):
            return lookup(rows)
        if rows in failed[depth]:
            return None
        if depth and _any_equivalent(rows, conflicts):  # the root was checked above
            failed[depth].add(rows)
            spent += 1
            return None
        if spent + depth >= budget:  # every failed or pruned graph, ``depth`` above this
            raise BudgetExceededError(f"search exceeds node budget {budget}; refusing to answer")
        tried = None
        for basis, child in zip(_BASES, _measure_rows(rows, to_measure[depth])):
            if child is tried:  # y is z on one neighbor, and x is too on none
                continue
            tried = child
            choices.append((basis, rows))
            hit = search(child, depth + 1)
            if hit is not None:
                return hit
            choices.pop()
        failed[depth].add(rows)
        spent += 1
        return None

    try:
        hit = search(g._rows, 0)
    except BudgetExceededError:
        return Decision(UNKNOWN, "budget-exhausted")
    if hit is None:
        return Decision(NO, "brute-force")
    steps = [Step(basis, v, _x_neighbor(rows[v], v, None, g._alive) if basis == MEASURE_X else None)
             for v, (basis, rows) in zip(to_measure, choices)]
    # each local complement is an involution, so the recorded path from the
    # target reverses into a path back to it
    witness = _witness(g, (*steps, *(Step(LC, v) for v in reversed(hit))), h)
    return Decision(YES, "brute-force" if to_measure else "lc-equivalence", witness)


_BASES = (MEASURE_Z, MEASURE_Y, MEASURE_X)
# target-orbit members drawn before the exact test is asked at a leaf: a
# budget of at most ``_SHORT_DRAW - 2`` runs out at the same leaves as drawing
# the orbit to its end would, so small budgets decide as without the test
_SHORT_DRAW = 32


def _conflict_pairs(h: Graph, labels: tuple[int, ...], ranks: list[int]) -> tuple[tuple[int, int, int, int, int], ...]:
    """Target label pairs that foliage persistence keeps apart.

    These are the pairs u < v of ``h`` (on ``labels``) in different canonical
    blocks, not both isolated: one end isolated, or a pair cut-rank of 2
    (``ranks`` is ``h``'s pair cut-rank table). Each is in ``foliage._pair``
    form, so a search node tests them on its rows.
    """
    rows, pairs = h._rows, combinations(labels, 2)  # in the order of ``ranks``
    return tuple([_pair(u, v) for (u, v), rank in zip(pairs, ranks)
                  if (rank == 2 if rows[u] and rows[v] else rows[u] or rows[v])])
