"""Exact deciders for simultaneous two-Bell-pair extraction.

Given four marked vertices on a line, tree, or ring, these decide whether
the two disjoint edges on them can be reached by measurements and local
complements, and construct a replayable schedule on every yes. The
characterizations are closed-form:

* line: the pairs must sit side by side, not nested or interleaved, with a
  gap of at least one vertex between the inner endpoints;
* tree: the two endpoint-to-endpoint paths must be vertex-disjoint with no
  edge joining them;
* ring: the pairs must be non-crossing in cyclic order and no three of the
  four endpoints may occupy consecutive ring positions.

Every constructed schedule is replayed before being returned, so a yes
always carries a witness that lands exactly on the two target edges.
"""

from __future__ import annotations

from .graph import MAX_LABEL, Graph, _bits, _Record, _set, connected_components, path_graph, ring_graph
from .ops import MEASURE_X, MEASURE_Y, MEASURE_Z, NO, YES, Decision, Step, _witness


class NotATreeError(ValueError):
    """The supplied graph is not connected and acyclic."""


class BellQuery(_Record):
    """Two disjoint vertex pairs on a named topology.

    ``size`` fixes a line or ring on labels 1..n; ``tree`` supplies an
    explicit graph instead. Each pair has two endpoints, and the four must
    be distinct, alive ``int`` labels (not ``bool``).
    """

    __slots__ = ("topology", "pair_a", "pair_b", "size", "tree")

    def __init__(self, topology: str, pair_a: tuple[int, int], pair_b: tuple[int, int],
                 size: int | None = None, tree: Graph | None = None):
        pair_a, pair_b = tuple(pair_a), tuple(pair_b)  # a list-built query equals and hashes as the tuple-built one
        if topology not in ("line", "ring", "tree"):
            raise ValueError(f"unknown topology {topology!r}")
        if topology == "tree":
            if tree is None:
                raise ValueError("tree topology needs a graph")
            _require_tree(tree)
            alive = set(tree.vertices)
        else:
            if size is None:
                raise ValueError(f"{topology} topology needs a size")
            if not isinstance(size, int) or isinstance(size, bool):  # ``True`` would be a line of 1
                raise ValueError(f"{topology} size must be an integer, got {size!r}")
            if topology == "ring" and size < 4:
                raise ValueError(f"ring queries need n >= 4, got {size}")
            if size > MAX_LABEL:
                raise ValueError(f"{topology} queries need n <= {MAX_LABEL}, got {size}")
            alive = set(range(1, size + 1))
        if len(pair_a) != 2 or len(pair_b) != 2:
            raise ValueError(f"each pair needs exactly two endpoints, got {pair_a!r} and {pair_b!r}")
        for v in (*pair_a, *pair_b):  # ``True`` and ``1.0`` would pass as ``1`` below
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"endpoints must be integer labels, got {v!r}")
        marked = set(pair_a) | set(pair_b)
        if len(marked) != 4:
            raise ValueError("the four endpoints must be distinct")
        if not marked <= alive:
            raise ValueError(f"endpoints {sorted(marked - alive)} outside the graph")
        _set(self, "topology", topology)
        _set(self, "pair_a", pair_a)
        _set(self, "pair_b", pair_b)
        _set(self, "size", size)
        _set(self, "tree", tree)

    def graph(self) -> Graph:
        if self.topology == "line":
            return path_graph(self.size)
        if self.topology == "ring":
            return ring_graph(self.size)
        return self.tree

    def target(self) -> Graph:
        return Graph(set(self.pair_a) | set(self.pair_b), [self.pair_a, self.pair_b])


def line_query(n: int, pair_a, pair_b) -> BellQuery:
    return BellQuery("line", pair_a, pair_b, size=n)


def ring_query(n: int, pair_a, pair_b) -> BellQuery:
    return BellQuery("ring", pair_a, pair_b, size=n)


def tree_query(tree: Graph, pair_a, pair_b) -> BellQuery:
    return BellQuery("tree", pair_a, pair_b, tree=tree)


def _require_tree(g: Graph) -> None:
    n = g.n
    if n == 0 or len(g.edges()) != n - 1:
        raise NotATreeError("graph is not a tree (wrong edge count)")
    if len(connected_components(g)) != 1:
        raise NotATreeError("graph is not a tree (disconnected)")


def _extraction(query: BellQuery, interior: list[int], rule: str) -> Decision:
    """Measure z off both pair paths (ascending), then y along ``interior``
    in the order given, which contracts each path onto its pair."""
    kept = {*query.pair_a, *query.pair_b, *interior}
    steps = [Step(MEASURE_Z, v) for v in query.graph().vertices if v not in kept]
    steps += [Step(MEASURE_Y, v) for v in interior]
    return Decision(YES, rule, _witness(query.graph(), steps, query.target()))


# -- line ---------------------------------------------------------------------


def decide_bell_line(query: BellQuery) -> Decision:
    """Two Bell pairs from a line: side-by-side with a gap, or impossible."""
    if query.topology != "line":
        raise ValueError(f"expected a line query, got {query.topology}")
    a1, a2 = sorted(query.pair_a)
    b1, b2 = sorted(query.pair_b)
    if b1 < a1:
        (a1, a2), (b1, b2) = (b1, b2), (a1, a2)
    if a2 < b1:  # side by side
        if b1 - a2 >= 2:
            return _extraction(query, [*range(a1 + 1, a2), *range(b1 + 1, b2)], "line-extraction")
        return Decision(NO, "line-adjacent")
    if a2 > b2:  # one pair strictly inside the other
        return Decision(NO, "line-nested")
    return Decision(NO, "line-interleaved")


# -- tree ---------------------------------------------------------------------


def _tree_path(g: Graph, start: int, goal: int) -> int:
    """Bitmask of the path from ``start`` to ``goal`` in the tree ``g``: cut
    every leaf but the two ends, round by round, until only the path is left."""
    rows, live, ends = g._rows, g._alive, 1 << start | 1 << goal
    while leaves := sum(1 << v for v in _bits(live & ~ends) if (rows[v] & live).bit_count() < 2):
        live ^= leaves
    return live


def decide_bell_tree(query: BellQuery) -> Decision:
    """Two Bell pairs from a tree: possible iff the endpoint paths are
    vertex-disjoint and no edge of the tree joins them."""
    if query.topology != "tree":
        raise ValueError(f"expected a tree query, got {query.topology}")
    g = query.tree
    path_a, path_b = _tree_path(g, *query.pair_a), _tree_path(g, *query.pair_b)
    if path_a & path_b or any(g.neighbor_mask(v) & path_b for v in _bits(path_a)):
        return Decision(NO, "tree-adjacent-paths")
    ends = sum(1 << v for v in (*query.pair_a, *query.pair_b))
    return _extraction(query, [*_bits(path_a & ~ends), *_bits(path_b & ~ends)], "tree-extraction")


# -- ring ---------------------------------------------------------------------

# Finishing schedule for the irreducible six-cycle: ring 1-2-3-4-5-6 with
# target edges {1,3} and {4,6}. Found once by the brute-force decider
# (measurement enumeration) and frozen; tests re-derive and replay it.
SIX_CYCLE_FINISH = (Step(MEASURE_X, 2, 1), Step(MEASURE_X, 5, 4))


def decide_bell_ring(query: BellQuery) -> Decision:
    """Two Bell pairs from a ring: non-crossing and never three-in-a-row."""
    if query.topology != "ring":
        raise ValueError(f"expected a ring query, got {query.topology}")
    n = query.size
    p1, p2 = query.pair_a
    tour = [(p1 - 1 + k) % n + 1 for k in range(n)]
    before = sum(tour.index(v) < tour.index(p2) for v in query.pair_b)
    if before == 1:
        return Decision(NO, "ring-crossing")

    # Walk from p1 in the direction that meets p2 before the other pair, so
    # the tour reads p1, arc_p, p2, mid, q1, arc_q, q2, wrap.
    if before == 2:
        tour = tour[:1] + tour[:0:-1]
    i, j, k = sorted(tour.index(v) for v in (p2, *query.pair_b))
    q1, q2 = tour[j], tour[k]
    arc_p, mid, arc_q, wrap = gaps = tour[1:i], tour[i + 1:j], tour[j + 1:k], tour[k + 1:]
    if any(not gaps[g - 1] and not gaps[g] for g in range(4)):  # two empty gaps in a row: three endpoints
        return Decision(NO, "ring-three-consecutive")

    if mid and wrap:
        # both separating arcs have interior vertices: cut them out, then
        # contract each pair's own arc
        return _extraction(query, sorted(arc_p + arc_q), "ring-extraction")

    # one separating arc is empty; read the tour from the end that makes it
    # the wrap, contract the other separating arc completely and each pair
    # arc down to one survivor, leaving the six-cycle instance
    if wrap:
        p1, p2, q1, q2, mid = p2, p1, q2, q1, wrap
    keep_p = min(arc_p)
    keep_q = min(arc_q)
    steps = [Step(MEASURE_Y, v) for v in sorted(mid)]
    steps += [Step(MEASURE_Y, v) for v in sorted(set(arc_p) - {keep_p})]
    steps += [Step(MEASURE_Y, v) for v in sorted(set(arc_q) - {keep_q})]
    relabel = dict(zip(range(1, 7), (p1, keep_p, p2, q1, keep_q, q2)))
    steps += [Step(s.op, relabel[s.vertex], relabel[s.neighbor]) for s in SIX_CYCLE_FINISH]
    return Decision(YES, "ring-extraction", _witness(query.graph(), steps, query.target()))


def decide_bell(query: BellQuery) -> Decision:
    if query.topology == "line":
        return decide_bell_line(query)
    if query.topology == "ring":
        return decide_bell_ring(query)
    return decide_bell_tree(query)
