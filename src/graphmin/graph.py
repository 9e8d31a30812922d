"""Labeled simple undirected graphs and the fundamental rewrites.

Vertices carry persistent integer labels in 1..MAX_LABEL. Deleting a vertex
removes its label from the alive set; surviving labels are never renumbered,
so a vertex keeps its identity across arbitrary rewrite sequences.

Adjacency is stored as one bitmask row per alive label (bit ``v`` of row ``a``
set iff ``{a, v}`` is an edge). Local complementation is then a row-masked
XOR over the neighborhood, which keeps orbit enumeration cheap. Graphs are
immutable values: every rewrite returns a new graph, so results can be
shared, hashed, and memoized freely.
"""

from __future__ import annotations

from collections.abc import Iterable

MAX_LABEL = 64


class UnknownVertexError(ValueError):
    """Raised when an operation names a label that is not alive."""


def _bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable labeled simple graph on a subset of labels 1..MAX_LABEL."""

    __slots__ = ("_rows", "_hash")

    def __init__(self, vertices: int | Iterable[int], edges: Iterable[tuple[int, int]] = ()):
        """Build a graph on ``vertices`` (an int n means labels 1..n).

        Edges may be given in any order and orientation; duplicates are
        merged. Self-loops and edges on unknown labels are rejected.
        """
        if isinstance(vertices, int):
            if vertices < 0:
                raise ValueError(f"vertex count must be >= 0, got {vertices}")
            labels = range(1, vertices + 1)
        else:
            labels = sorted(set(vertices))
        rows: dict[int, int] = {}
        for v in labels:
            if not isinstance(v, int) or v < 1 or v > MAX_LABEL:
                raise ValueError(f"vertex labels must be integers in 1..{MAX_LABEL}, got {v!r}")
            rows[v] = 0
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on vertex {a}")
            if a not in rows:
                raise UnknownVertexError(f"unknown vertex label {a}")
            if b not in rows:
                raise UnknownVertexError(f"unknown vertex label {b}")
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _from_rows(cls, rows: dict[int, int]) -> Graph:
        # Trusted fast path for internal rewrites; invariants hold by
        # construction there.
        g = object.__new__(cls)
        object.__setattr__(g, "_rows", rows)
        object.__setattr__(g, "_hash", None)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # -- accessors ---------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of alive vertices."""
        return len(self._rows)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self._rows))

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (min, max) pairs, sorted."""
        out = []
        for a in sorted(self._rows):
            higher = self._rows[a] >> (a + 1) << (a + 1)
            out.extend((a, b) for b in _bits(higher))
        return tuple(out)

    def has_vertex(self, a: int) -> bool:
        return a in self._rows

    def has_edge(self, a: int, b: int) -> bool:
        self._require(a)
        self._require(b)
        return bool(self._rows[a] >> b & 1)

    def neighbors(self, a: int) -> set[int]:
        self._require(a)
        return set(_bits(self._rows[a]))

    def neighbor_mask(self, a: int) -> int:
        """Neighborhood of ``a`` as a bitmask (bit v set iff v adjacent)."""
        self._require(a)
        return self._rows[a]

    def degree(self, a: int) -> int:
        self._require(a)
        return self._rows[a].bit_count()

    def _require(self, a: int) -> None:
        if a not in self._rows:
            raise UnknownVertexError(f"unknown vertex label {a}")

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(tuple(sorted(self._rows.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Graph({list(self.vertices)}, {list(self.edges())})"


# -- builders ----------------------------------------------------------------


def path_graph(n: int) -> Graph:
    """The path 1-2-...-n."""
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def ring_graph(n: int) -> Graph:
    """The cycle 1-2-...-n-1 (requires n >= 3)."""
    if n < 3:
        raise ValueError(f"ring needs at least 3 vertices, got {n}")
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)])


# -- edge-set algebra ---------------------------------------------------------


def edge_set(pairs: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """Normalize pairs to a frozenset of (min, max) edges, rejecting loops."""
    out = set()
    for a, b in pairs:
        if a == b:
            raise ValueError(f"self-loop on vertex {a}")
        out.add((min(a, b), max(a, b)))
    return frozenset(out)


def symmetric_difference(g: Graph, edges: Iterable[tuple[int, int]]) -> Graph:
    """Toggle the given edges (addition mod 2 on the edge set)."""
    rows = dict(g._rows)
    for a, b in edge_set(edges):
        for v in (a, b):
            if v not in rows:
                raise UnknownVertexError(f"unknown vertex label {v}")
        rows[a] ^= 1 << b
        rows[b] ^= 1 << a
    return Graph._from_rows(rows)


def complement(g: Graph) -> Graph:
    """Complement over the alive label set."""
    alive = sum(1 << v for v in g._rows)
    rows = {v: alive & ~(1 << v) & ~g._rows[v] for v in g._rows}
    return Graph._from_rows(rows)


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph on ``keep`` (labels preserved)."""
    keep_set = set(keep)
    mask = 0
    for v in keep_set:
        g._require(v)
        mask |= 1 << v
    rows = {v: g._rows[v] & mask for v in sorted(keep_set)}
    return Graph._from_rows(rows)


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Vertex sets of the connected components, sorted by minimum label."""
    seen = 0
    comps = []
    for start in sorted(g._rows):
        if seen >> start & 1:
            continue
        comp = 1 << start
        frontier = 1 << start
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= g._rows[v]
            frontier = nxt & ~comp
            comp |= nxt
        seen |= comp
        comps.append(frozenset(_bits(comp)))
    return comps


# -- rewrites -----------------------------------------------------------------


def local_complement(g: Graph, a: int) -> Graph:
    """Complement the subgraph induced on the neighborhood of ``a``.

    Involutive: applying twice at the same vertex restores the graph.
    """
    g._require(a)
    rows = dict(g._rows)
    _complement_rows(rows, a)
    return Graph._from_rows(rows)


def _complement_rows(rows: dict[int, int], a: int) -> None:
    # local complementation at ``a``, in place on a private rows dict
    nbrs = rows[a]
    for v in _bits(nbrs):
        rows[v] ^= nbrs & ~(1 << v)


def delete_vertex(g: Graph, a: int) -> Graph:
    """Remove ``a`` and its incident edges; other labels survive unchanged."""
    g._require(a)
    bit = 1 << a
    rows = {v: r & ~bit for v, r in g._rows.items() if v != a}
    return Graph._from_rows(rows)


def measure_z(g: Graph, a: int) -> Graph:
    """z-basis measurement rewrite: plain deletion of ``a``."""
    return delete_vertex(g, a)


def measure_y(g: Graph, a: int) -> Graph:
    """y-basis measurement rewrite: local complement at ``a``, then delete it."""
    return delete_vertex(local_complement(g, a), a)


def measure_x(g: Graph, a: int, b: int | None = None) -> Graph:
    """x-basis measurement rewrite via a chosen neighbor ``b``.

    ``b`` defaults to the smallest neighbor of ``a``; all neighbor choices
    give LC-equivalent results. An isolated ``a`` measures like z.
    """
    g._require(a)
    nbrs = g._rows[a]
    if nbrs == 0:
        if b is not None:
            raise ValueError(f"vertex {a} is isolated; no neighbor {b} to route through")
        return delete_vertex(g, a)
    if b is None:
        b = (nbrs & -nbrs).bit_length() - 1
    else:
        try:
            adjacent = nbrs >> b & 1
        except ValueError:  # a negative shift: ``b`` is no label at all
            adjacent = 0
        if not adjacent:
            g._require(b)
            raise ValueError(f"vertex {b} is not a neighbor of {a}")
    rows = dict(g._rows)
    for c in (b, a, b):  # three local complements on one private copy
        _complement_rows(rows, c)
    return delete_vertex(Graph._from_rows(rows), a)
