"""Exact LC-equivalence of two graphs on bitmask rows, in polynomial time.

Van den Nest, Dehaene and De Moor (quant-ph/0405023), after Bouchet
(Combinatorica 11, 1991): graphs with adjacency matrices G and T are
LC-equivalent iff T·C·G + T·D + A·G + B = 0 over GF(2) for some diagonal
A, B, C, D with a_v·d_v + b_v·c_v = 1 at every vertex v. ``orbit.lc_path``,
``orbit.lc_equivalent`` and the vertex-minor decider ask this test before
closing an orbit. It is a module of its own because the CLI imports
``orbit`` for every command, and most commands never run the test.
"""

from __future__ import annotations

from .graph import MAX_LABEL, _bits

_SPAN = MAX_LABEL + 1  # bits per coefficient block of ``_lc_equivalent_rows``' unknowns
_MAX_FREE = 10  # the widest solution space searched, in free variables (2^10 vectors)


def _lc_equivalent_rows(rows: tuple[int, ...], other: tuple[int, ...], at: dict[int, int]) -> bool | None:
    """Whether G (``rows``) and T (``other``) on the labels of ``at`` are LC-equivalent; None if it cannot tell.

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
    while live:
        block = frontier = live & -live
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= rows[at[v]]
            frontier = reach & ~block
            block |= reach
        live ^= block
        solved = _solve_block([(1 << v, rows[at[v]], other[at[v]]) for v in _bits(block)], block)
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
