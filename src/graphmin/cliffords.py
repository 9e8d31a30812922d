"""Single-qubit Clifford matrices and the rewrite-tracking conventions.

The local-complement unitary below is one fixed choice among the phase
conventions that work: a square root of -iX on the complemented vertex and
a square root of +iZ on each of its neighbors (Hein, Eisert and Briegel,
"Multiparty entanglement in graph states", PRA 69, 062311,
quant-ph/0307130).

The measurement byproducts are that paper's closed forms for Pauli
measurements: after measuring vertex a, the projected state equals the
measured graph's state up to a product of single-qubit Cliffords on the
old neighborhood (for x, also on the routing neighbor's neighbors), fixed
by the basis and the outcome; it is the identity for z+ and at an isolated
vertex. Each gate carries its name as a word over H and S, the leftmost
letter applied last, with global phase dropped. Each matrix drops a scalar
(powers of sqrt(2) and e^{i pi/4}) to leave entries in {0, 1, -1, 1j, -1j};
the oracle compares states only up to such a scalar.
"""

from __future__ import annotations

# local complement at a: exp(-i pi/4 X) = (1 - iX)/sqrt(2) on a ...
LC_AT_VERTEX = ((1, -1j), (-1j, 1))
# ... and exp(+i pi/4 Z) = e^{i pi/4} diag(1, -i) on each neighbor of a
LC_AT_NEIGHBOR = ((1, 0), (0, -1j))

# the closed-form byproducts as (word, matrix)
_Z = ("SS", ((1, 0), (0, -1)))
_ROOT_MINUS_IZ = ("S", ((1, 0), (0, 1j)))  # exp(-i pi/4 Z) = e^{-i pi/4} diag(1, i)
_ROOT_PLUS_IZ = ("SSS", LC_AT_NEIGHBOR)
_ROOT_MINUS_IY = ("HSS", ((1, -1), (1, 1)))  # exp(-i pi/4 Y), times sqrt(2)
_ROOT_PLUS_IY = ("SSH", ((1, 1), (-1, 1)))  # exp(+i pi/4 Y), times sqrt(2)


def measurement_byproduct(basis: str, outcome: int, neighbors: tuple[int, ...],
                          special: int | None, special_nbrs: tuple[int, ...]) -> dict:
    """The closed-form byproduct of one outcome, as a {vertex: (word, 2x2 matrix)} map.

    ``special`` is the routing neighbor of an x measurement; ``special_nbrs``
    are its neighbors in the pre-measurement graph. The map is empty for z+
    and at an isolated vertex, and only there does the identity match.
    """
    if basis == "z":
        return dict.fromkeys(neighbors, _Z) if outcome == -1 else {}
    if basis == "y":
        return dict.fromkeys(neighbors, _ROOT_MINUS_IZ if outcome == +1 else _ROOT_PLUS_IZ)
    if special is None:
        return {}
    if outcome == +1:
        return {special: _ROOT_PLUS_IY, **{b: _Z for b in neighbors if b != special and b not in special_nbrs}}
    return {special: _ROOT_MINUS_IY, **{b: _Z for b in special_nbrs if b not in neighbors}}
