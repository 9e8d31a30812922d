"""Labeled simple undirected graphs and the fundamental rewrites.

Vertices carry persistent integer labels in 1..MAX_LABEL. Deleting a vertex
removes its label from the alive set; surviving labels are never renumbered,
so a vertex keeps its identity across arbitrary rewrite sequences.

A graph is one tuple of bitmask rows, ``rows[v]`` for label ``v`` (bit ``u``
set iff ``{u, v}`` is an edge), plus ``_alive``, the bitmask of the alive
labels. Row 0 and the rows of labels that are not alive are 0, and the tuple
ends at the largest alive label, so equal graphs have equal tuples. Local
complementation is a masked XOR over the neighborhood. Graphs are immutable
values: every rewrite returns a new graph, so results can be shared, hashed,
and memoized freely. Equality is "same labels and same edges": the same rows
and the same alive mask. Each rewrite is written once, on bare rows tuples,
by ``_lc_rows``, ``_z_rows`` (deletion, or y) and ``_x_rows`` at the end of
this module; they zero a removed row in place. ``_step`` is the one checked
rewrite: it checks the labels, then calls one of them. The graph rewrites,
``ops.replay`` and the oracle's images go through it; the orbit closure and
the search's ``_measure_rows`` call the kernel bare, on labels they know are
alive, ``_measure_rows`` building a child only when the search visits it.
``_graph`` wraps the result on the labels left alive.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import attrgetter

MAX_LABEL = 64


class UnknownVertexError(ValueError):
    """Raised when an operation names a label that is not alive."""


def _unknown(v) -> UnknownVertexError:
    """The error for ``v``, a label that is not alive; ``repr`` tells ``"2"`` from ``2``."""
    return UnknownVertexError(f"unknown vertex label {v!r}")


def _bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _is_int(v) -> bool:
    """Whether ``v`` is an ``int`` and not a ``bool``: ``True`` and ``1.0`` equal ``1``, so each check asks this."""
    return isinstance(v, int) and not isinstance(v, bool)


def _live(mask: int, v) -> int:
    """Whether ``v`` is an ``int`` label with its bit in ``mask`` (``v > 0`` first: no shift < 0)."""
    return _is_int(v) and v > 0 and mask >> v & 1


class _Record:
    """Frozen value record: fields in ``__slots__``, each set once, by ``_fill``.

    Like frozen dataclasses, records are equal within one class only, hash as their fields'
    tuple (a lone field as itself), print as ``Class(field=value, ...)``, refuse assignment,
    and copy, deepcopy and pickle by calling the class on the fields.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        cls._values = attrgetter(*cls.__slots__)
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls.__slots__])  # the slot descriptors

    def _fill(self, *values):
        """Set the fields to ``values``, in ``__slots__`` order, and return the record."""
        for set_field, value in zip(self._setters, values):
            set_field(self, value)
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class Graph(_Record):
    """Immutable labeled simple graph on a subset of labels 1..MAX_LABEL."""

    __slots__ = ("_rows", "_alive")

    def __init__(self, vertices: int | Iterable[int], edges: Iterable[tuple[int, int]] = ()):
        """Build a graph on ``vertices`` (an int n means labels 1..n).

        Edges may be in any order and orientation; duplicates are merged.
        Self-loops, edges on unknown labels, and labels or endpoints that are
        not ``int`` (``bool`` and ``1.0`` among them) are rejected.
        """
        if isinstance(vertices, int):
            if not _is_int(vertices) or vertices < 0:
                raise ValueError(f"vertex count must be >= 0, got {vertices}")
            labels = range(1, vertices + 1)
        else:
            labels = list(vertices)
        alive = 0
        for v in labels:  # each label as given: a set would merge ``True`` or ``1.0`` into ``1``
            if not _is_int(v) or v < 1 or v > MAX_LABEL:
                raise ValueError(f"vertex labels must be integers in 1..{MAX_LABEL}, got {v!r}")
            alive |= 1 << v
        rows = [0] * alive.bit_length()
        for a, b in edges:
            for v in (a, b):
                if not _live(alive, v):
                    raise _unknown(v)
            if a == b:
                raise ValueError(f"self-loop on vertex {a}")
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        self._fill(tuple(rows), alive)

    # -- accessors ---------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of alive vertices."""
        return self._alive.bit_count()

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple([*_bits(self._alive)])  # a tuple of a generator resizes on every call

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (min, max) pairs, sorted."""
        return tuple([(a, b) for a, row in enumerate(self._rows) for b in _bits(row >> a + 1 << a + 1)])

    def has_vertex(self, a: int) -> bool:
        return bool(_live(self._alive, a))

    def has_edge(self, a: int, b: int) -> bool:
        row = self.neighbor_mask(a)
        self._require(b)
        return bool(row >> b & 1)

    def neighbors(self, a: int) -> set[int]:
        return set(_bits(self.neighbor_mask(a)))

    def neighbor_mask(self, a: int) -> int:
        """Neighborhood of ``a`` as a bitmask (bit v set iff v adjacent)."""
        self._require(a)
        return self._rows[a]

    def degree(self, a: int) -> int:
        return self.neighbor_mask(a).bit_count()

    def _require(self, a: int) -> None:
        if not _live(self._alive, a):
            raise _unknown(a)

    # -- value semantics: ``_Record``'s equality reads ``_rows`` and ``_alive``, since equal rows on
    # two label sets are two graphs (``Graph([3])`` and ``Graph([1, 3])`` share rows and hash)

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"Graph({list(self.vertices)}, {list(self.edges())})"

    def __reduce__(self):  # copy, deepcopy and pickle
        return _graph, (self._rows, self._alive)


def _graph(rows: tuple[int, ...], alive: int) -> Graph:
    """Wrap ``rows`` as the graph on the labels of ``alive``, trusting both; cut after the largest one."""
    return object.__new__(Graph)._fill(rows[:alive.bit_length()], alive)  # the whole tuple when nothing went


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
    return [frozenset(_bits(comp)) for comp in _components(g._rows, g._alive)]


def _components(rows: tuple[int, ...], live: int):
    """Yield, by minimum label, the bitmask of each component that meets ``live``, grown breadth first."""
    while live:
        comp = frontier = live & -live
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= rows[v]
            frontier = reach & ~comp
            comp |= reach
        live &= ~comp
        yield comp


# -- rewrites -----------------------------------------------------------------


def local_complement(g: Graph, a: int) -> Graph:
    """Complement the subgraph induced on the neighborhood of ``a``.

    Involutive: applying twice at the same vertex restores the graph.
    """
    return _graph(*_step(g._rows, g._alive, a, "lc"))


def delete_vertex(g: Graph, a: int) -> Graph:
    """Remove ``a`` and its incident edges; other labels survive unchanged."""
    return _graph(*_step(g._rows, g._alive, a, "z"))


def measure_z(g: Graph, a: int) -> Graph:
    """z-basis measurement rewrite: plain deletion of ``a``."""
    return delete_vertex(g, a)


def measure_y(g: Graph, a: int) -> Graph:
    """y-basis measurement rewrite: local complement at ``a``, then delete it."""
    return _graph(*_step(g._rows, g._alive, a, "y"))


def measure_x(g: Graph, a: int, b: int | None = None) -> Graph:
    """x-basis measurement rewrite via a chosen neighbor ``b``.

    ``b`` defaults to the smallest neighbor of ``a``; all neighbor choices
    give LC-equivalent results. An isolated ``a`` measures like z.
    """
    return _graph(*_step(g._rows, g._alive, a, "x", b))


def _step(rows: tuple[int, ...], alive: int, a: int, kind: str, b: int | None = None) -> tuple[tuple[int, ...], int]:
    """The one checked rewrite: ``kind`` ("lc", "z", "y" or "x" through ``b``) at ``a`` on the graph of
    ``rows`` and ``alive``, as its new ``(rows, alive)``. A label that is not alive is unknown, and an x
    goes through ``_x_neighbor``; every kind but "lc" removes ``a``."""
    if not _live(alive, a):
        raise _unknown(a)
    if kind == "lc":
        return _lc_rows(rows, a), alive
    if kind == "x":
        return _x_rows(rows, a, _x_neighbor(rows[a], a, b, alive)), alive ^ 1 << a
    return _z_rows(rows, a, kind == "y"), alive ^ 1 << a


def _x_neighbor(nbrs: int, a: int, b: int | None, alive: int) -> int | None:
    """The neighbor, ``b`` checked or else the smallest, that an x-measurement of ``a`` (row ``nbrs``) goes
    through; None if ``a`` is isolated. A ``b`` not in ``alive`` is an unknown label."""
    if nbrs == 0:
        if b is not None:
            raise ValueError(f"vertex {a} is isolated; no neighbor {b} to route through")
        return None
    if b is None:
        return (nbrs & -nbrs).bit_length() - 1
    if not _live(nbrs, b):
        if not _live(alive, b):
            raise _unknown(b)
        raise ValueError(f"vertex {b} is not a neighbor of {a}")
    return b


# -- the rows kernel: a ``Graph``'s ``_rows`` without the wrapper, for ``_step``, the
# orbit closure and the search. On one label set, equal tuples are
# equal graphs. A measured or deleted row is zeroed in place, the tuple kept at its length.


def _lc_rows(rows: tuple[int, ...], a: int) -> tuple[int, ...]:
    nbrs = mask = rows[a]
    out = list(rows)
    while mask:
        low = mask & -mask
        out[low.bit_length() - 1] ^= nbrs ^ low
        mask ^= low
    return tuple(out)


def _z_rows(rows: tuple[int, ...], a: int, y: bool = False) -> tuple[int, ...]:
    """Deletion of ``a``, its row zeroed in place; with ``y``, a local complement at ``a`` first."""
    nbrs = mask = rows[a]
    out, flip = list(rows), 1 << a | (nbrs if y else 0)  # y: a local complement at ``a`` first
    while mask:
        low = mask & -mask
        out[low.bit_length() - 1] ^= flip & ~low
        mask ^= low
    out[a] = 0
    return tuple(out)


def _x_rows(rows: tuple[int, ...], a: int, b: int | None) -> tuple[int, ...]:
    """x-measurement of ``a`` through its neighbor ``b``, ``a``'s row zeroed in place;
    ``rows`` itself when ``b`` is None, as an isolated ``a``'s row is zero already.

    With Na = N(a) - {b} and Nb = N(b) - {a}, edges between two different sets
    of Na - Nb, Nb - Na and Na & Nb toggle; then each other vertex is adjacent
    to ``b`` iff it was adjacent to ``a``, ``b``'s row becomes Na, ``a`` goes.
    """
    if b is None:
        return rows
    bit_a, bit_b = 1 << a, 1 << b
    na, nb = rows[a] ^ bit_b, rows[b] ^ bit_a
    out = list(rows)
    out[a], out[b] = 0, na
    mask, keep = na | nb, ~(bit_a | bit_b)
    while mask:
        low = mask & -mask
        i = low.bit_length() - 1
        r = rows[i]
        if r & bit_a:
            out[i] = (r ^ nb ^ (na if r & bit_b else 0)) & keep | bit_b
        else:  # adjacent to b alone
            out[i] = (r ^ na) & keep
        mask ^= low
    return tuple(out)


def _measure_rows(rows: tuple[int, ...], a: int):
    """Yield ``(kind, child)`` for each distinct child of measuring ``a``, built when asked for:
    "z", then "y" if ``a`` has two or more neighbors (on one, y is z), then "x" through
    ``_x_neighbor`` if it has one or more (on none, x is z, which is ``rows`` itself)."""
    nbrs = rows[a]
    yield "z", _z_rows(rows, a) if nbrs else rows
    if nbrs & nbrs - 1:
        yield "y", _z_rows(rows, a, True)
    if nbrs:
        yield "x", _x_rows(rows, a, _x_neighbor(nbrs, a, None, 0))


def _pair_ranks(rows: tuple[int, ...], labels: tuple[int, ...]) -> list[int]:
    """Cut-rank of every pair of ``labels`` (ascending), pairs in that order.

    That is the GF(2) rank of the pair's rows outside the pair, which local
    complementation keeps (Bouchet; Oum, "Rank-width and vertex-minors").
    Non-isolated u and v are foliage-equivalent iff their rank is below 2.
    """
    own = [(rows[v], ~(1 << v)) for v in labels]  # each row, and the mask clearing its label
    return [2 if a and b and a != b else 1 if a or b else 0
            for i, (row_u, not_u) in enumerate(own) for row_v, not_v in own[i + 1:]
            for a, b in ((row_u & not_v, row_v & not_u),)]
