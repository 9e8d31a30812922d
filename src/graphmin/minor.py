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
    on bare rows tuples, a measured row zeroed, and builds steps only for
    the witness; ``graph._measure_rows`` builds a child only as the search
    visits it. What lies below a graph depends on it alone, so one whose
    children all failed is remembered and skipped when reached again. The
    target's orbit is generated only as far as leaves need it, and not at
    all when no target vertex has two neighbors (every Bell target): a local
    complement toggles only pairs of a neighborhood, so it changes nothing.
    Otherwise the root and one more member are drawn first, and a leaf not
    among the members drawn is a miss when it is refuted as a graph in the
    search is (below), or when its pair cut-ranks (LC-invariant) differ from
    the target's. Otherwise the orbit's closure advances until the leaf
    appears or ``_SHORT_DRAW`` members are drawn; then a leaf that the exact
    GF(2) test (``orbit._lc_equivalent_rows``) refutes is a miss, and the
    closure goes on until the leaf appears or, where that test cannot tell,
    until the orbit ends.

    Foliage persistence prunes: if ``h`` is a vertex-minor of a graph, each
    foliage class of that graph, cut down to the labels of ``h``, lies inside
    one class of ``h``, is all isolated in ``h``, or is gone. A graph in which
    two target labels are foliage-equivalent, while ``h`` puts them in
    different classes and does not isolate both, has no hit below it. Nor
    has a graph in which a label with neighbours in ``h`` is isolated: a
    local complement toggles edges only inside a neighbourhood and every
    measurement ends in a deletion, so it stays isolated (the one-vertex case
    of cut-rank monotonicity, Oum). A ``g`` refuted either way is a "no"
    before the orbit is drawn; a graph in the search is refuted in its
    parent's loop, unmeasured, and remembered as failed. Only failures are
    remembered or pruned, so the first hit, and the witness, are those of
    enumerating all 3^k assignments.

    ``node_budget`` (default 2^20) bounds the number of the target's orbit
    members generated and, separately, the number of distinct graphs the
    search measures or refutes, by either rule. Running out of either yields
    "unknown", never a wrong no.
    """
    if h._alive & ~g._alive:
        raise ValueError(f"target labels {[*_bits(h._alive & ~g._alive)]} not in source")
    budget = _budget(node_budget)
    labels = h.vertices
    conflicts = _conflict_pairs(h)
    wired = [v for v in labels if h._rows[v]]  # an isolated one stays isolated below

    def dead(rows: tuple[int, ...]) -> bool:
        """Whether no hit lies below ``rows``: a label of ``wired`` is isolated, or persistence fails."""
        for v in wired:
            if not rows[v]:
                return True
        return _any_equivalent(rows, conflicts)

    if dead(g._rows):
        return Decision(NO, "brute-force")
    to_measure = tuple([*_bits(g._alive & ~h._alive)])
    # one failed set per depth, None past the last: a measured row is zero, like an isolated vertex's
    failed: list[set[tuple[int, ...]] | None] = [*(set() for _ in to_measure), None]
    spent = 0  # graphs in ``failed``
    choices: list[tuple[str, tuple[int, ...]]] = []  # (kind, the rows it measured) from the hit up
    width = len(h._rows)  # a leaf's measured rows are zero, so its first ``width`` rows are a graph on ``labels``
    ranks = None  # the target's pair cut-ranks, at the first leaf that needs them
    # the target's orbit, drawn as leaves need it; with no vertex of two neighbors, ``h`` alone
    members = _closure(h._rows, budget) if any(row & row - 1 for row in h._rows) else None
    orbit = dict(islice(members, 2)) if members else {h._rows: ()}

    def lookup(rows: tuple[int, ...]):
        """Orbit path to a leaf, drawing members until it appears; None outside the orbit."""
        nonlocal members, ranks
        rows = rows[:width]
        path = orbit.get(rows)
        if path is not None or members is None or dead(rows):
            return path
        if ranks is None:
            ranks = _pair_ranks(h._rows, labels)
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
        """Orbit path of the first hit below ``rows``, each child tested in the loop; ``choices`` gets the way up."""
        nonlocal spent
        if spent + depth >= budget:  # every failed or refuted graph, ``depth`` above this
            raise BudgetExceededError(f"search exceeds node budget {budget}; refusing to answer")
        below = failed[depth + 1]
        for kind, child in _measure_rows(rows, to_measure[depth]):
            if below is None:
                hit = lookup(child)
            elif child in below:
                continue
            elif dead(child):
                below.add(child)
                spent += 1
                continue
            else:
                hit = search(child, depth + 1)
            if hit is not None:
                choices.append((kind, rows))
                return hit
        failed[depth].add(rows)
        spent += 1
        return None

    try:
        hit = search(g._rows, 0) if to_measure else lookup(g._rows)
    except BudgetExceededError:
        return Decision(UNKNOWN, "budget-exhausted")
    if hit is None:
        return Decision(NO, "brute-force")
    steps = [Step(_BASES[kind], v, _x_neighbor(rows[v], v, None, g._alive) if kind == "x" else None)
             for v, (kind, rows) in zip(to_measure, reversed(choices))]
    # each local complement is an involution, so the recorded path from the
    # target reverses into a path back to it
    witness = _witness(g, (*steps, *(Step(LC, v) for v in reversed(hit))), h)
    return Decision(YES, "brute-force" if to_measure else "lc-equivalence", witness)


_BASES = {"z": MEASURE_Z, "y": MEASURE_Y, "x": MEASURE_X}  # the step of each kind of ``_measure_rows``
# target-orbit members drawn before the exact test is asked at a leaf: a
# budget of at most ``_SHORT_DRAW - 2`` runs out at the same leaves as drawing
# the orbit to its end would, so small budgets decide as without the test
_SHORT_DRAW = 32


def _conflict_pairs(h: Graph) -> tuple[tuple[int, int, int, int, int], ...]:
    """Target label pairs that foliage persistence keeps apart.

    These are the pairs u < v of ``h`` in different canonical blocks, not
    both isolated: one end isolated, or neither and not foliage-equivalent
    (``foliage._any_equivalent``, a pair cut-rank of 2). Each is in
    ``foliage._pair`` form, so a search node tests them on its rows.
    """
    pairs = [_pair(u, v) for u, v in combinations(h.vertices, 2) if h._rows[u] or h._rows[v]]
    return tuple([pair for pair in pairs if not _any_equivalent(h._rows, (pair,))])
