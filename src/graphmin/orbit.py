"""LC orbits and LC-equivalence of labeled graphs.

Reachability by local complementations decides local-Clifford equivalence of
the corresponding graph states, so a breadth-first closure, deduplicated by
graph value, is a complete (if exponential) equivalence decider at desk scale.
The exact GF(2) test of Van den Nest, Dehaene and De Moor (quant-ph/0405023),
after Bouchet (Combinatorica 11, 1991), decides it in polynomial time for
all but the widest solution spaces: graphs with adjacency matrices G and T
are LC-equivalent iff T·C·G + T·D + A·G + B = 0 over GF(2) for some
diagonal A, B, C, D with a_v·d_v + b_v·c_v = 1 at every vertex v.
``lc_path``, ``lc_equivalent`` and the vertex-minor decider ask that test
(``_lc_equivalent_rows``) first, and close the orbit only for a path, or
when the test cannot tell. The closure runs on the rows tuples of
``graph.py``'s kernel; a caller that asks for graphs gets each member's
tuple wrapped as it is, on the source's alive mask. Expansion
order is ascending vertex label, which makes orbits, paths, and witnesses
reproducible. A node budget comes only from the caller, else 2^20.
"""

from __future__ import annotations

from .graph import MAX_LABEL, Graph, _bits, _components, _graph, _is_int, _lc_rows, _pair_ranks

DEFAULT_NODE_BUDGET = 1 << 20
_SPAN = MAX_LABEL + 1  # bits per coefficient block of ``_lc_equivalent_rows``' unknowns
_MAX_FREE = 10  # the widest solution space searched, in free variables (2^10 vectors)


class BudgetExceededError(RuntimeError):
    """Orbit closure grew past the node budget; the caller must not guess."""


def _budget(node_budget: int | None) -> int:
    """``node_budget``, else 2^20; not an int, bool or below 1: ValueError."""
    if node_budget is None:
        return DEFAULT_NODE_BUDGET
    if not isinstance(node_budget, int):
        raise ValueError(f"node budget must be an integer, got {node_budget!r}")
    if not _is_int(node_budget) or node_budget < 1:
        raise ValueError(f"node budget must be positive, got {node_budget!r}")
    return node_budget


def _closure(rows: tuple[int, ...], budget: int):
    """Yield ``(member rows, path)`` for the orbit of ``rows`` in discovery order.

    ``rows`` is a graph's rows in ``graph.py``'s kernel; it comes first,
    with the empty path. Members are discovered breadth first,
    expanding vertices in ascending label order, so every path is shortest
    and lexicographically first at its depth. Once the orbit holds
    ``budget`` members (resolved by ``_budget``), the next new member is
    still yielded, and then ``BudgetExceededError`` is raised.
    """
    yield rows, ()
    seen = {rows}
    frontier = [(rows, ())]
    while frontier:
        nxt = []
        for member, path in frontier:
            # skipped, as their images are in ``seen``: the last path vertex
            # (its local complement gives back the parent) and each smaller
            # vertex not adjacent to it (its local complement commutes with
            # the last one, so an earlier member made the image)
            skip = (2 << path[-1]) - 1 & ~member[path[-1]] if path else 0
            for v, row in enumerate(member):
                if row & (row - 1) == 0 or skip >> v & 1:  # under two neighbors, the image is ``member``
                    continue
                image = _lc_rows(member, v)
                if image in seen:
                    continue
                over_budget = len(seen) >= budget
                seen.add(image)
                found = (image, path + (v,))
                yield found
                if over_budget:
                    raise BudgetExceededError(f"orbit exceeds node budget {budget}; refusing to answer")
                nxt.append(found)
        frontier = nxt


def lc_orbit_paths(g: Graph, node_budget: int | None = None) -> dict[Graph, tuple[Graph, tuple[int, ...]]]:
    """Breadth-first closure of ``g`` under local complementation.

    Returns a map from each member graph to (member graph, generating vertex
    sequence), in discovery order. Replaying the sequence of local
    complements on ``g`` yields the member; every sequence is shortest and
    lexicographically first at its depth.
    """
    if g.n == 0:
        raise ValueError("orbit of the empty graph is undefined")
    return {(m := _graph(r, g._alive)): (m, path) for r, path in _closure(g._rows, _budget(node_budget))}


def lc_orbit(g: Graph, node_budget: int | None = None) -> set[Graph]:
    """All graphs reachable from ``g`` by local complementations."""
    return set(lc_orbit_paths(g, node_budget))


def _exact(g: Graph, h: Graph) -> bool | None:
    """LC-equivalence decided without a closure: labels, pair cut-ranks, then the exact test."""
    if g._alive != h._alive or _pair_ranks(g._rows, g.vertices) != _pair_ranks(h._rows, h.vertices):
        return False
    return _lc_equivalent_rows(g._rows, h._rows)


def lc_path(g: Graph, h: Graph, node_budget: int | None = None) -> tuple[int, ...] | None:
    """A vertex sequence of local complements sending ``g`` to ``h``.

    None when the graphs are not LC-equivalent; at once, at any budget, when
    their label sets or pair cut-rank tables (which LC keeps) differ, or the
    exact test refutes them. Otherwise the closure runs, and stops as soon
    as ``h`` appears.
    """
    budget = _budget(node_budget)
    if _exact(g, h) is False:
        return None
    return next((path for r, path in _closure(g._rows, budget) if r == h._rows), None)


def lc_equivalent(g: Graph, h: Graph, node_budget: int | None = None) -> bool:
    """Whether two graphs on the same labels are related by local complements.

    The closure runs only when the exact test cannot tell.
    """
    budget = _budget(node_budget)
    found = _exact(g, h)
    return found if found is not None else any(r == h._rows for r, _ in _closure(g._rows, budget))


# -- the exact test -------------------------------------------------------------


def _lc_equivalent_rows(rows: tuple[int, ...], other: tuple[int, ...]) -> bool | None:
    """Whether G (``rows``) and T (``other``) on one label set are LC-equivalent; None if it cannot tell.

    Vertices isolated in both are dropped (their coefficients are free).
    Local complementation keeps components, so each component of G is a
    block of its own, which T must keep. A block's linear system is solved
    exactly; its solution space is searched for a vector meeting the
    quadratic constraints when it has at most ``_MAX_FREE`` free variables,
    and above that the answer is None, never a guess.
    """
    live = other_live = 0
    for row, row_t in zip(rows, other):
        live |= row
        other_live |= row_t
    if live != other_live:
        return False
    verdict = True
    for block in _components(rows, live):
        solved = _solve_block([(1 << v, rows[v], other[v]) for v in _bits(block)], block)
        if solved is False:
            return False
        verdict = verdict and solved
    return verdict


def _solve_block(cells: list[tuple[int, int, int]], block: int) -> bool | None:
    """``_lc_equivalent_rows`` on one component: ``cells`` holds (bit, G row, T row) per vertex.

    An unknown ``x`` holds c, d, a and b in consecutive ``_SPAN``-bit
    blocks, bit ``v`` of a block for vertex ``v``; so does each equation
    (j, k), as the mask of the unknowns it sums. ``pivots`` keeps the
    equations reduced so far, each under its lowest bit.
    """
    if any(row_t & ~block for _, _, row_t in cells):
        return False  # T joins this component to another
    pivots: dict[int, int] = {}
    for bit_j, _, t_j in cells:
        for bit_k, g_k, _ in cells:
            eq = t_j & g_k | (t_j & bit_k) << _SPAN | (g_k & bit_j) << 2 * _SPAN
            if bit_j == bit_k:
                eq |= bit_j << 3 * _SPAN
            while eq:
                low = eq & -eq
                row = pivots.get(low)
                if row is None:
                    pivots[low] = eq
                    break
                eq ^= row
    free = block | block << _SPAN | block << 2 * _SPAN | block << 3 * _SPAN
    for low in pivots:
        free ^= low
    if free.bit_count() > _MAX_FREE:
        return None
    # one solution per free variable, pivots set from the highest down
    order = sorted(pivots, reverse=True)
    basis = []
    for f in _bits(free):
        x = 1 << f
        for low in order:
            if (pivots[low] & x).bit_count() & 1:
                x |= low
        basis.append(x)
    x = 0
    for i in range(1, 1 << len(basis)):  # every nonzero solution, one basis vector changed per step
        x ^= basis[(i & -i).bit_length() - 1]
        if ((x >> 2 * _SPAN & x >> _SPAN) ^ (x >> 3 * _SPAN & x)) & block == block:
            return True
    return False
