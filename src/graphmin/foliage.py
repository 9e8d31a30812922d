"""Foliage structure: leaves, axils, twins, partitions, and quotient graphs.

Two vertices are foliage-equivalent when they are equal, form a leaf-axil
pair in either direction, or are twins (equal neighborhoods outside the
pair, nonempty). The equivalence classes form the canonical foliage
partition, which local complementation never changes; any refinement of it
is itself a usable foliage partition. Quotienting a graph by such a
partition (blocks adjacent iff some cross-edge exists) yields the foliage
graph, on which local complementation lifts blockwise.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass

from .graph import Graph, UnknownVertexError, local_complement


class InvalidPartitionError(ValueError):
    """Blocks fail to partition the alive vertex set."""


class Partition:
    """Disjoint nonempty vertex blocks covering a label set.

    Blocks are kept sorted by minimum member, so equal partitions compare
    and hash equal regardless of input order.
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks: Iterable[Iterable[int]]):
        normalized = [frozenset(b) for b in blocks]
        seen: set[int] = set()
        for block in normalized:
            if not block:
                raise InvalidPartitionError("empty block")
            if block & seen:
                raise InvalidPartitionError(f"overlapping blocks at {sorted(block & seen)}")
            seen |= block
        object.__setattr__(self, "_blocks", tuple(sorted(normalized, key=min)))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def blocks(self) -> tuple[frozenset[int], ...]:
        return self._blocks

    def labels(self) -> frozenset[int]:
        out: set[int] = set()
        for b in self._blocks:
            out |= b
        return frozenset(out)

    def block_of(self, v: int) -> frozenset[int]:
        for b in self._blocks:
            if v in b:
                return b
        raise UnknownVertexError(f"vertex {v} not covered by partition")

    def refines(self, other: Partition) -> bool:
        """Every block here sits inside a single block of ``other``."""
        return all(any(mine <= theirs for theirs in other._blocks) for mine in self._blocks)

    def __iter__(self):
        return iter(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._blocks == other._blocks

    def __hash__(self) -> int:
        return hash(self._blocks)

    def __repr__(self) -> str:
        return "Partition(%s)" % ", ".join("{%s}" % ",".join(map(str, sorted(b))) for b in self._blocks)


def singletons(g: Graph) -> Partition:
    return Partition([{v} for v in g.vertices])


def are_twins(g: Graph, v: int, w: int) -> bool:
    """Whether ``v`` and ``w`` have equal, nonempty neighborhoods outside the pair."""
    shared = g.neighbor_mask(v) & ~(1 << w)
    return bool(shared) and shared == g.neighbor_mask(w) & ~(1 << v)


def is_leaf_of(g: Graph, leaf: int, axil: int) -> bool:
    """Whether ``axil`` is the only neighbor of ``leaf``."""
    return g.neighbor_mask(leaf) == 1 << axil


def leaves_axils(g: Graph) -> frozenset[tuple[int, int]]:
    """All (leaf, axil) pairs: degree-1 vertices with their unique neighbor."""
    return frozenset((v, w) for v in g.vertices for w in g.neighbors(v) if is_leaf_of(g, v, w))


def twins(g: Graph) -> frozenset[frozenset[int]]:
    """All twin pairs {v, w}: equal neighborhoods outside the pair, nonempty."""
    verts = g.vertices
    return frozenset(
        frozenset((v, w)) for i, v in enumerate(verts) for w in verts[i + 1:] if are_twins(g, v, w)
    )


def foliage_set(g: Graph) -> frozenset[int]:
    """Every vertex that is a leaf, an axil, or a twin."""
    out: set[int] = set()
    for leaf, axil in leaves_axils(g):
        out.add(leaf)
        out.add(axil)
    for pair in twins(g):
        out |= pair
    return frozenset(out)


def foliage_equivalent(g: Graph, v: int, w: int) -> bool:
    g._require(v)
    g._require(w)
    return v == w or is_leaf_of(g, v, w) or is_leaf_of(g, w, v) or are_twins(g, v, w)


def canonical_foliage_partition(g: Graph) -> Partition:
    """The foliage-equivalence classes of ``g``.

    Classes are the connected components of the pairwise relation; since
    the relation is transitive, every pair inside a class is itself
    foliage-equivalent (asserted in the tests, not rechecked per call).
    """
    parent = {v: v for v in g.vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    verts = g.vertices
    for i, v in enumerate(verts):
        for w in verts[i + 1:]:
            if foliage_equivalent(g, v, w):
                parent[find(w)] = find(v)
    classes: dict[int, set[int]] = {}
    for v in verts:
        classes.setdefault(find(v), set()).add(v)
    return Partition(classes.values())


def is_foliage_partition(g: Graph, w: Partition) -> bool:
    """True iff ``w`` partitions the alive set and refines the canonical partition."""
    if w.labels() != frozenset(g.vertices):
        raise InvalidPartitionError("partition does not cover the alive vertex set")
    return w.refines(canonical_foliage_partition(g))


class BlockShape(enum.Enum):
    SINGLETON = "singleton"
    STAR = "star"
    CLIQUE = "clique"
    ANTICLIQUE = "anticlique"


def _star_centers(g: Graph, members: list[int]) -> list[int]:
    """Members holding every other member as a degree-1 leaf of their own."""
    return [a for a in members if all(v == a or is_leaf_of(g, v, a) for v in members)]


def classify_block(g: Graph, block: Iterable[int]) -> BlockShape:
    """The shape of one foliage block: singleton, star, clique, or anticlique.

    Degenerate overlaps resolve in that order: a two-vertex block with an
    edge reports star when both endpoints have degree 1 in ``g`` (a mutual
    leaf-axil pair) and clique (adjacent twins) otherwise; the reduction
    treats both identically, so the tie-break only affects labeling.
    """
    members = sorted(set(block))
    for v in members:
        g._require(v)
    if len(members) == 1:
        return BlockShape.SINGLETON
    if _star_centers(g, members):
        return BlockShape.STAR
    edges_inside = sum(1 for i, v in enumerate(members) for w in members[i + 1:] if g.has_edge(v, w))
    full = len(members) * (len(members) - 1) // 2
    if edges_inside == full:
        return BlockShape.CLIQUE
    if edges_inside == 0:
        return BlockShape.ANTICLIQUE
    raise ValueError(f"block {members} is not a valid foliage class shape")


def star_axil(g: Graph, block: Iterable[int]) -> int:
    """The axil of a star-shaped block (smallest center for a mutual pair)."""
    centers = _star_centers(g, sorted(set(block)))
    if not centers:
        raise ValueError(f"block {sorted(set(block))} is not star-shaped")
    return centers[0]


@dataclass(frozen=True)
class FoliageGraph:
    """A quotient graph together with its blocks and their representatives.

    ``graph`` lives on the representative labels; ``partition.blocks[i]``
    is represented by ``representatives[i]``.
    """

    partition: Partition
    representatives: tuple[int, ...]
    graph: Graph

    def block_for(self, rep: int) -> frozenset[int]:
        return self.partition.blocks[self.representatives.index(rep)]


def _check_representatives(w: Partition, reps: Iterable[int] | None) -> tuple[int, ...]:
    if reps is None:
        return tuple(min(b) for b in w.blocks)
    chosen = list(reps)
    if len(chosen) != len(w.blocks):
        raise ValueError(f"expected {len(w.blocks)} representatives, got {len(chosen)}")
    by_block: dict[frozenset[int], int] = {}
    for r in chosen:
        block = w.block_of(r)
        if block in by_block:
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
    masks = []
    for block in w.blocks:
        m = 0
        for v in block:
            m |= 1 << v
        masks.append(m)
    edges = []
    for i, bi in enumerate(w.blocks):
        hit = 0
        for v in bi:
            hit |= g.neighbor_mask(v)
        for j in range(i + 1, len(w.blocks)):
            if hit & masks[j]:
                edges.append((chosen[i], chosen[j]))
    return FoliageGraph(w, chosen, Graph(chosen, edges))


def nth_foliage_graph(g: Graph, depth: int) -> FoliageGraph:
    """Iterate canonical-partition quotients ``depth`` times.

    The returned blocks are flattened back to original vertices, so the
    result partitions the alive set of ``g`` no matter how deep it went.
    """
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
    flattened = Partition(members.values())
    reps = tuple(min(members[r]) for r in sorted(members, key=lambda r: min(members[r])))
    relabel = {r: min(members[r]) for r in members}
    edges = [(relabel[a], relabel[b]) for a, b in fg.graph.edges()]
    return FoliageGraph(flattened, reps, Graph(reps, edges))


def lifted_local_complement(g: Graph, w: Partition, a: int) -> FoliageGraph:
    """Quotient of the locally-complemented graph, checked blockwise.

    For a vertex of degree > 1, complementing at ``a`` then quotienting
    equals complementing the quotient at the block of ``a``; both sides are
    computed and compared, and the checked quotient is returned. Degree <= 1
    is rejected (the quotient-side complement is not defined there).
    """
    if g.degree(a) <= 1:
        raise ValueError(f"lifted complement needs degree > 1 at vertex {a}, got {g.degree(a)}")
    if not is_foliage_partition(g, w):
        raise InvalidPartitionError("not a foliage partition of this graph")
    lifted = foliage_graph(local_complement(g, a), w)
    block_rep = lifted.representatives[list(w.blocks).index(w.block_of(a))]
    direct = local_complement(foliage_graph(g, w).graph, block_rep)
    if lifted.graph != direct:
        raise RuntimeError(
            f"lifted complement mismatch at vertex {a} (block rep {block_rep}); this is a bug"
        )
    return lifted
