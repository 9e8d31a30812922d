"""Labeled simple undirected graphs and the fundamental rewrites.

Vertices carry persistent integer labels in 1..MAX_LABEL. Deleting a vertex
removes its label from the alive set; surviving labels are never renumbered,
so a vertex keeps its identity across arbitrary rewrite sequences.

Adjacency is stored as one bitmask row per alive label (bit ``v`` of row ``a``
set iff ``{a, v}`` is an edge), so local complementation is a masked XOR over
the neighborhood. Graphs are immutable values: every rewrite returns a new
graph, so results can be shared, hashed, and memoized freely. Orbit closure
and the vertex-minor search skip graphs altogether: they rewrite tuples of
rows through the private kernel at the end of this module.
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
        return tuple([(a, b) for a in sorted(self._rows) for b in _bits(self._rows[a] >> a + 1 << a + 1)])

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


# -- builders and components -------------------------------------------------


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
    rows, nbrs = dict(g._rows), g._rows[a]
    for v in _bits(nbrs):
        rows[v] ^= nbrs & ~(1 << v)
    return Graph._from_rows(rows)


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
    elif not (b > 0 and nbrs >> b & 1):  # a label is positive; a negative shift would raise
        g._require(b)
        raise ValueError(f"vertex {b} is not a neighbor of {a}")
    return _graph_of(_x_rows(*_rows_of(g), a, b), [v for v in g.vertices if v != a])


# -- the rows kernel: row ``i`` of a tuple is that of the ``i``-th smallest label,
# with ``Graph``'s label bits, and ``at`` maps labels to positions. On one label
# set, equal tuples are equal graphs. A deletion aligns to the labels left.


def _rows_of(g: Graph) -> tuple[tuple[int, ...], dict[int, int]]:
    labels = g.vertices
    return tuple([g._rows[v] for v in labels]), {v: i for i, v in enumerate(labels)}


def _graph_of(rows: tuple[int, ...], labels) -> Graph:
    return Graph._from_rows(dict(zip(labels, rows)))


def _lc_rows(rows: tuple[int, ...], at: dict[int, int], a: int) -> tuple[int, ...]:
    nbrs = mask = rows[at[a]]
    out = list(rows)
    while mask:
        low = mask & -mask
        out[at[low.bit_length() - 1]] ^= nbrs ^ low
        mask ^= low
    return tuple(out)


def _delete_rows(rows: tuple[int, ...], at: dict[int, int], a: int) -> tuple[int, ...]:
    out = [r & ~(1 << a) for r in rows]
    del out[at[a]]
    return tuple(out)


def _x_rows(rows: tuple[int, ...], at: dict[int, int], a: int, b: int) -> tuple[int, ...]:
    """x-measurement of ``a`` through its neighbor ``b``, in one pass over the rows.

    With Na = N(a) - {b} and Nb = N(b) - {a}, edges between two different sets
    of Na - Nb, Nb - Na and Na & Nb toggle; then each other vertex is adjacent
    to ``b`` iff it was adjacent to ``a``, ``b``'s row becomes Na, ``a`` goes.
    """
    bit_a, bit_b = 1 << a, 1 << b
    na, nb = rows[at[a]] ^ bit_b, rows[at[b]] ^ bit_a
    out = list(rows)
    out[at[b]] = na
    for w in _bits(na | nb):
        r = rows[at[w]]
        toggled = r ^ (nb if r & bit_a else 0) ^ (na if r & bit_b else 0)
        out[at[w]] = toggled & ~(bit_a | bit_b) | (bit_b if r & bit_a else 0)
    del out[at[a]]
    return tuple(out)
