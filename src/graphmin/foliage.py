"""Foliage structure: leaves, axils, twins, partitions, and quotient graphs.

Two vertices are foliage-equivalent when they are equal, form a leaf-axil
pair in either direction, or are twins (equal neighborhoods outside the
pair, nonempty). The equivalence classes form the canonical foliage
partition, which local complementation never changes; any refinement of it
is itself a usable foliage partition. Quotienting a graph by such a
partition (blocks adjacent iff some cross-edge exists) yields the foliage
graph, on which local complementation lifts blockwise. Partitions and quotients
are read off the rows, not rebuilt through ``Partition`` or an edge-list ``Graph``.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

from .graph import Graph, UnknownVertexError, _bits, _graph, _Record, _set, _unknown


class InvalidPartitionError(ValueError):
    """Blocks fail to partition the alive vertex set."""


class Partition(_Record):
    """Disjoint nonempty vertex blocks covering a label set.

    Blocks are kept sorted by minimum member, so equal partitions compare
    and hash equal regardless of input order.
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable[Iterable[int]]):
        normalized = []
        seen: set[int] = set()
        for members in map(tuple, blocks):
            if not members:
                raise InvalidPartitionError("empty block")
            for v in members:  # as given, before a set merges ``True`` into ``1`` or ``min`` meets "2" and 1
                if not isinstance(v, int) or isinstance(v, bool):
                    raise _unknown(v)
            if (block := frozenset(members)) & seen:
                raise InvalidPartitionError(f"overlapping blocks at {sorted(block & seen)}")
            seen |= block
            normalized.append(block)
        _set(self, "blocks", tuple(sorted(normalized, key=min)))

    def labels(self) -> frozenset[int]:
        return frozenset().union(*self.blocks)

    def block_of(self, v: int) -> frozenset[int]:
        if not isinstance(v, int) or isinstance(v, bool):  # as given: ``True`` and ``3.0`` are found by ``in``
            raise _unknown(v)
        for b in self.blocks:
            if v in b:
                return b
        raise UnknownVertexError(f"vertex {v} not covered by partition")

    def refines(self, other: Partition) -> bool:
        """Every block here sits inside a single block of ``other``."""
        return all(any(mine <= theirs for theirs in other.blocks) for mine in self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __repr__(self) -> str:
        return "Partition(%s)" % ", ".join("{%s}" % ",".join(map(str, sorted(b))) for b in self.blocks)


def singletons(g: Graph) -> Partition:
    return Partition([{v} for v in g.vertices])


def _pair(u: int, v: int) -> tuple[int, int, int, int, int]:
    """A label pair as ``_any_equivalent`` reads it: (u, v, 1 << u, 1 << v, both bits)."""
    return u, v, 1 << u, 1 << v, 1 << u | 1 << v


def _any_equivalent(rows: tuple[int, ...], pairs) -> bool:
    """Whether some pair of ``pairs`` (each from ``_pair``) is foliage-equivalent on ``rows``.

    That is, one row is the other's bit (leaf and axil, either way), or the
    rows agree outside the pair and are not empty there (twins). This is the
    relation's one statement on rows; the decider tests it at every search
    node, so the pairs are read inline, not one call each.
    """
    for i, j, bit_u, bit_v, pair in pairs:
        row_u, row_v = rows[i], rows[j]
        if row_u == bit_v or row_v == bit_u or row_u | pair == row_v | pair != pair:
            return True
    return False


def foliage_equivalent(g: Graph, v: int, w: int) -> bool:
    g._require(v)
    g._require(w)
    return v == w or _any_equivalent(g._rows, (_pair(v, w),))


def _row_groups(g: Graph) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """The labels of each open row, and each vertex's twin class (itself and its twins).

    A one-bit row's labels are the leaves of that bit's axil. Equal non-zero
    open rows are non-adjacent twins; equal closed rows (row | own bit) are
    adjacent twins once the row has a second bit (a mutual leaf-axil pair
    shares its closed row without being twins). Labels are in ascending order.
    """
    by_open: dict[int, list[int]] = {}
    by_closed: dict[int, list[int]] = {}
    labelled = [(v, g._rows[v]) for v in g.vertices]
    for v, row in labelled:
        by_open.setdefault(row, []).append(v)
        by_closed.setdefault(row | 1 << v, []).append(v)
    twins = {v: by_open[row] if row and len(by_open[row]) > 1  # non-adjacent twins
             else by_closed[row | 1 << v] if row & row - 1  # adjacent twins
             else [v] for v, row in labelled}
    return by_open, twins


def canonical_foliage_partition(g: Graph) -> Partition:
    """The foliage-equivalence classes of ``g``, read off the adjacency rows.

    Vertices are grouped by their bitmask rows in one pass (``_row_groups``):
    a degree-1 vertex joins its axil and every other leaf of that axil
    (equal one-bit rows); an axil of degree > 1 collects the vertices whose
    row is its own bit; any other vertex joins its twins, or is alone. The
    relation is transitive and these cases never overlap, so each vertex lands
    in exactly its class, classes by minimum (the tests check this against
    ``Partition`` and against closing the pairwise relation).
    """
    by_open, twins = _row_groups(g)
    blocks = []
    placed: set[int] = set()
    for v in g.vertices:
        row = g._rows[v]
        if v in placed:
            continue
        if row and not row & (row - 1):  # a leaf: its axil and the axil's other leaves
            block = [row.bit_length() - 1] + by_open[row]
        elif 1 << v in by_open:  # an axil of degree > 1 and its leaves
            block = [v] + by_open[1 << v]
        else:  # twins, or v alone
            block = twins[v]
        placed.update(block)
        blocks.append(frozenset(block))
    p = object.__new__(Partition)
    _set(p, "blocks", tuple(blocks))
    return p


def _one_class(g: Graph, block) -> bool:
    """Whether ``block`` lies in one foliage class: each member is equivalent to its minimum."""
    u = min(block)
    return all(_any_equivalent(g._rows, (_pair(u, v),)) for v in block if v != u)


def is_foliage_partition(g: Graph, w: Partition) -> bool:
    """True iff ``w`` partitions the alive set and each block lies inside one foliage
    class, that is iff ``w`` refines the canonical partition."""
    if w.labels() != frozenset(g.vertices):  # ``Partition`` refused ``True`` and ``2.0``, equal to labels
        raise InvalidPartitionError("partition does not cover the alive vertex set")
    return all(_one_class(g, block) for block in w.blocks)


class BlockShape(enum.Enum):
    SINGLETON = "singleton"
    STAR = "star"
    CLIQUE = "clique"
    ANTICLIQUE = "anticlique"


def _star_centers(g: Graph, members: list[int]) -> list[int]:
    """Members holding every other member as a degree-1 leaf of their own."""
    return [a for a in members if all(v == a or g.neighbor_mask(v) == 1 << a for v in members)]


def classify_block(g: Graph, block: Iterable[int]) -> BlockShape:
    """The shape of a set inside one foliage class (else ValueError): singleton, star, clique, or
    anticlique. Twins of one class are all adjacent or all apart, so two members settle the last two.

    Degenerate overlaps resolve in that order: a two-vertex block with an
    edge reports star when both endpoints have degree 1 in ``g`` (a mutual
    leaf-axil pair) and clique (adjacent twins) otherwise; the reduction
    treats both identically, so the tie-break only affects labeling.
    """
    members = list(block)
    for v in members:  # as given, before a set merges ``True`` into ``1`` or ``sorted`` meets "2" and 1
        g._require(v)
    members = sorted(set(members))
    if not members:
        raise InvalidPartitionError("empty block")
    if not _one_class(g, members):
        raise ValueError(f"block {members} is not a valid foliage class shape")
    if len(members) == 1:
        return BlockShape.SINGLETON
    if _star_centers(g, members):
        return BlockShape.STAR
    return BlockShape.CLIQUE if g.has_edge(*members[:2]) else BlockShape.ANTICLIQUE


class FoliageGraph(_Record):
    """A quotient graph together with its blocks and their representatives.

    ``graph`` lives on the representative labels; ``partition.blocks[i]``
    is represented by ``representatives[i]``.
    """

    __slots__ = ("partition", "representatives", "graph")

    def __init__(self, partition: Partition, representatives: tuple[int, ...], graph: Graph):
        _set(self, "partition", partition)
        _set(self, "representatives", representatives)
        _set(self, "graph", graph)


def _check_representatives(w: Partition, reps: Iterable[int] | None) -> tuple[int, ...]:
    if reps is None:
        return tuple(min(b) for b in w.blocks)
    chosen = list(reps)
    if len(chosen) != len(w.blocks):
        raise ValueError(f"expected {len(w.blocks)} representatives, got {len(chosen)}")
    by_block: dict[frozenset[int], int] = {}
    for r in chosen:
        if (block := w.block_of(r)) in by_block:  # ``block_of`` refuses ``True`` and ``2.0``
            raise ValueError(f"two representatives ({by_block[block]}, {r}) for one block")
        by_block[block] = r
    return tuple(by_block[b] for b in w.blocks)


def foliage_graph(g: Graph, w: Partition | None = None, reps: Iterable[int] | None = None) -> FoliageGraph:
    """Quotient ``g`` by a foliage partition (default: the canonical one).

    Blocks become vertices, labeled by their representatives (default: the
    minimum member); two blocks are adjacent iff any cross-edge exists.
    """
    if w is None:
        w = canonical_foliage_partition(g)
    elif not is_foliage_partition(g, w):
        raise InvalidPartitionError("not a foliage partition of this graph")
    chosen = _check_representatives(w, reps)
    rep_of = {v: rep for block, rep in zip(w.blocks, chosen) for v in block}
    alive = sum(1 << rep for rep in chosen)
    rows = [0] * alive.bit_length()
    for block, rep in zip(w.blocks, chosen):
        rows[rep] = sum({1 << rep_of[u] for v in block for u in _bits(g._rows[v])} - {1 << rep})
    return FoliageGraph(w, chosen, _graph(tuple(rows), alive))


def nth_foliage_graph(g: Graph, depth: int) -> FoliageGraph:
    """Iterate canonical-partition quotients ``depth`` times.

    The returned blocks are flattened back to original vertices, so the
    result partitions the alive set of ``g`` no matter how deep it went.
    """
    if not isinstance(depth, int) or isinstance(depth, bool):  # ``True`` would run as 1
        raise ValueError(f"depth must be an integer, got {depth!r}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    members: dict[int, frozenset[int]] = {v: frozenset((v,)) for v in g.vertices}
    current = g
    fg = None
    for _ in range(depth):
        fg = foliage_graph(current)
        members = {
            rep: frozenset().union(*(members[v] for v in block))
            for rep, block in zip(fg.representatives, fg.partition.blocks)
        }
        if fg.graph.n == current.n:
            break  # every block a singleton: each later round returns this quotient
        current = fg.graph
    # each representative is its block's minimum, so the last quotient is
    # already labelled by the minima of the flattened blocks, in block order
    return FoliageGraph(Partition(members.values()), fg.representatives, fg.graph)
