"""Answer references that share no code path with the library under test.

Graphs here are plain adjacency maps ``{label: frozenset(neighbours)}``,
built from a library graph through its public accessors only. Every rewrite,
the GF(2) cut-rank profile, the foliage relation and the edge-list parser
are written out again from their definitions, so a fast wrong answer from
the library cannot also pass its own check. The dense quantum reference lives
with its workload, so that importing this module never imports NumPy.
"""

from __future__ import annotations

Adj = dict  # label -> frozenset of neighbour labels


class CheckFailure(AssertionError):
    """An answer disagreed with its reference; the run is invalid."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


# -- conversions ------------------------------------------------------------------


def adj_of(g) -> Adj:
    return {v: frozenset(g.neighbors(v)) for v in g.vertices}


def adj_from_edges(vertices, edges) -> Adj:
    out = {v: set() for v in vertices}
    for a, b in edges:
        out[a].add(b)
        out[b].add(a)
    return {v: frozenset(s) for v, s in out.items()}


def edges_of(adj: Adj) -> list[tuple[int, int]]:
    return sorted((a, b) for a, s in adj.items() for b in s if a < b)


def relabel(adj: Adj, mapping: dict[int, int]) -> Adj:
    return {mapping[v]: frozenset(mapping[u] for u in s) for v, s in adj.items()}


def toggle(adj: Adj, a: int, b: int) -> Adj:
    out = dict(adj)
    out[a] = adj[a] ^ {b}
    out[b] = adj[b] ^ {a}
    return out


def is_connected(adj: Adj) -> bool:
    if not adj:
        return False
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(adj)


# -- rewrites, from their definitions ----------------------------------------------


def lc(adj: Adj, a: int) -> Adj:
    """Local complementation: toggle every edge between two neighbours of ``a``."""
    nbrs = adj[a]
    out = dict(adj)
    for v in nbrs:
        out[v] = adj[v] ^ (nbrs - {v})
    return out


def delete(adj: Adj, a: int) -> Adj:
    return {v: s - {a} for v, s in adj.items() if v != a}


def apply_step(adj: Adj, op: str, v: int, nbr: int | None = None) -> Adj:
    require(v in adj, f"step {op} on dead vertex {v}")
    if op == "lc":
        require(nbr is None, "lc step carries a neighbour")
        return lc(adj, v)
    if op in ("delete", "measure_z"):
        require(nbr is None, f"{op} step carries a neighbour")
        return delete(adj, v)
    if op == "measure_y":
        require(nbr is None, "measure_y step carries a neighbour")
        return delete(lc(adj, v), v)
    if op == "measure_x":
        if nbr is None:
            require(not adj[v], f"x-measurement of non-isolated {v} without a neighbour")
            return delete(adj, v)
        require(nbr in adj[v], f"x-measurement of {v} routed through non-neighbour {nbr}")
        return delete(lc(lc(lc(adj, nbr), v), nbr), v)
    raise CheckFailure(f"unknown step op {op!r}")


def replay(adj: Adj, steps) -> Adj:
    """Replay library ``Step`` values (read through ``op``/``vertex``/``neighbor``)."""
    for s in steps:
        adj = apply_step(adj, s.op, s.vertex, s.neighbor)
    return adj


def measure(adj: Adj, v: int, basis: str) -> tuple[Adj, tuple[str, int, int | None]]:
    """Measure ``v`` in ``basis``; x routes through the smallest neighbour."""
    if basis == "z":
        step = ("measure_z", v, None)
    elif basis == "y":
        step = ("measure_y", v, None)
    else:
        step = ("measure_x", v, min(adj[v]) if adj[v] else None)
    return apply_step(adj, *step), step


# -- GF(2) cut-rank profile (an LC invariant) -----------------------------------------


def _gf2_rank(rows: list[int]) -> int:
    basis: list[int] = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
    return len(basis)


def cut_rank_profile(adj: Adj) -> tuple[int, ...]:
    """Rank over GF(2) of A[X, V \\ X] for every cut X (indexed by bitmask).

    The cut-rank function is invariant under local complementation, so two
    graphs with different profiles are certainly not LC-equivalent. Cuts
    are enumerated over subsets of all but the largest label, since X and
    its complement have the same rank.
    """
    verts = sorted(adj)
    pos = {v: i for i, v in enumerate(verts)}
    masks = [sum(1 << pos[u] for u in adj[v]) for v in verts]
    n = len(verts)
    full = (1 << n) - 1
    profile = []
    for x in range(1 << (n - 1)):
        outside = full & ~x
        profile.append(_gf2_rank([masks[i] & outside for i in range(n) if x >> i & 1]))
    return tuple(profile)


# -- foliage relation and quotient ------------------------------------------------------


def foliage_pair(adj: Adj, v: int, w: int) -> bool:
    """Leaf-axil pair in either direction, or twins with a nonempty shared neighbourhood."""
    if adj[v] == {w} or adj[w] == {v}:
        return True
    shared = adj[v] - {w}
    return bool(shared) and shared == adj[w] - {v}


def foliage_blocks(adj: Adj) -> list[tuple[int, ...]]:
    """Classes of the foliage relation, closed transitively, sorted by minimum."""
    blocks: list[set[int]] = []
    for v in sorted(adj):
        joined = [b for b in blocks if any(foliage_pair(adj, v, w) for w in b)]
        merged = {v}.union(*joined)
        blocks = [b for b in blocks if b not in joined] + [merged]
    return sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0])


def quotient(adj: Adj, blocks) -> Adj:
    """Blocks as vertices labeled by their minimum, adjacent iff a cross edge exists."""
    rep = {v: b[0] for b in blocks for v in b}
    edges = {(min(rep[a], rep[b]), max(rep[a], rep[b])) for a, s in adj.items() for b in s
             if rep[a] != rep[b]}
    return adj_from_edges([b[0] for b in blocks], edges)


# -- edge-list text ----------------------------------------------------------------------


def parse_edges_text(text: str) -> Adj:
    """Read the edge-list format: a count ``n`` or a ``vertices ...`` header, then ``a b`` lines."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    require(bool(lines), "empty edge list")
    header, body = lines[0], lines[1:]
    if header[0] == "vertices":
        vertices = [int(x) for x in header[1:]]
    else:
        require(len(header) == 1, f"bad edge-list header {header}")
        vertices = list(range(1, int(header[0]) + 1))
    edges = []
    for fields in body:
        require(len(fields) == 2, f"bad edge line {fields}")
        edges.append((int(fields[0]), int(fields[1])))
    return adj_from_edges(vertices, edges)
