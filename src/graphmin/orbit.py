"""Orbit of a labeled graph under local complementation.

Reachability by local complementations decides local-Clifford equivalence of
the corresponding graph states, so a breadth-first closure, deduplicated by
graph value, is a complete (if exponential) equivalence decider at desk scale.
``lc_path`` and ``lc_equivalent`` ask the polynomial GF(2) test of
``lcequiv._lc_equivalent_rows`` first, and close the orbit only for a path, or when
that test cannot tell. The closure runs on the rows tuples of
``graph.py``'s kernel; a caller that asks for graphs gets each member's
tuple wrapped as it is, sharing the source's label positions. Expansion
order is ascending vertex label, which makes orbits, paths, and witnesses
reproducible.
"""

from __future__ import annotations

import os

from .graph import Graph, _graph, _lc_rows, _pair_ranks

_ENV_BUDGET = "GRAPHMIN_BUDGET"
DEFAULT_NODE_BUDGET = 1 << 20


class BudgetExceededError(RuntimeError):
    """Orbit closure grew past the node budget; the caller must not guess."""


def _budget(node_budget: int | None) -> int:
    """``node_budget``, else ``GRAPHMIN_BUDGET`` (decimal), else 2^20; not an int, bool or below 1: ValueError."""
    name, value = "node budget", node_budget
    if value is None:
        name, raw = _ENV_BUDGET, os.environ.get(_ENV_BUDGET)
        if raw is None:
            return DEFAULT_NODE_BUDGET
        from .io import parse_decimal  # the rule of ``--budget``; io loads only when it is needed
        try:
            value = parse_decimal(raw)
        except ValueError:
            raise ValueError(f"{_ENV_BUDGET} must be an integer, got {raw!r}") from None
    if not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def _closure(rows: tuple[int, ...], at: dict[int, int], budget: int):
    """Yield ``(member rows, path)`` for the orbit of ``rows`` in discovery order.

    ``rows`` and ``at`` are a graph in ``graph.py``'s rows kernel; it comes
    first, with the empty path. Members are discovered breadth first,
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
            skip = (2 << path[-1]) - 1 & ~member[at[path[-1]]] if path else 0
            for v, row in zip(at, member):
                if row & (row - 1) == 0 or skip >> v & 1:  # under two neighbors, the image is ``member``
                    continue
                image = _lc_rows(member, at, v)
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
    return {(m := _graph(r, g._at)): (m, path) for r, path in _closure(g._rows, g._at, _budget(node_budget))}


def lc_orbit(g: Graph, node_budget: int | None = None) -> set[Graph]:
    """All graphs reachable from ``g`` by local complementations."""
    return set(lc_orbit_paths(g, node_budget))


def _exact(g: Graph, h: Graph) -> bool | None:
    """LC-equivalence decided without a closure: labels, pair cut-ranks, then the exact test."""
    if g.vertices != h.vertices or _pair_ranks(g._rows, g._at) != _pair_ranks(h._rows, h._at):
        return False
    from .lcequiv import _lc_equivalent_rows  # compiled only where it runs, not by every command
    return _lc_equivalent_rows(g._rows, h._rows, g._at)


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
    return next((path for r, path in _closure(g._rows, g._at, budget) if r == h._rows), None)


def lc_equivalent(g: Graph, h: Graph, node_budget: int | None = None) -> bool:
    """Whether two graphs on the same labels are related by local complements.

    The closure runs only when the exact test cannot tell.
    """
    budget = _budget(node_budget)
    found = _exact(g, h)
    return found if found is not None else any(r == h._rows for r, _ in _closure(g._rows, g._at, budget))
