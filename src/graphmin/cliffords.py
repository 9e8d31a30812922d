"""Single-qubit Clifford matrices and the rewrite-tracking conventions.

The local-complement unitary below is one fixed choice among the phase
conventions that work: a square root of -iX on the complemented vertex and
a square root of +iZ on each of its neighbors. Any consistent choice passes
the oracle up to global phase; this one was pinned by checking that
sqrt(-iX) (x) sqrt(+iZ) maps the two-vertex graph state exactly to itself
(the degree-1 fixed point) and then sweeping random graphs.

Measurement byproduct corrections follow the same validate-then-freeze
route: the candidate patterns below were confirmed against the dense
state-vector oracle over exhaustive small-graph sweeps before being frozen.
"""

from __future__ import annotations

import numpy as np

_S2 = 1 / np.sqrt(2)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = _S2 * np.array([[1, 1], [1, -1]], dtype=complex)
S = np.array([[1, 0], [0, 1j]], dtype=complex)

# principal square roots of +-i times each Pauli, as exponentials
SQRT_MINUS_IX = _S2 * np.array([[1, -1j], [-1j, 1]], dtype=complex)  # exp(-i pi/4 X)
SQRT_PLUS_IX = _S2 * np.array([[1, 1j], [1j, 1]], dtype=complex)  # exp(+i pi/4 X)
SQRT_MINUS_IZ = np.array([[np.exp(-1j * np.pi / 4), 0], [0, np.exp(1j * np.pi / 4)]])
SQRT_PLUS_IZ = np.array([[np.exp(1j * np.pi / 4), 0], [0, np.exp(-1j * np.pi / 4)]])
SQRT_MINUS_IY = _S2 * np.array([[1, -1], [1, 1]], dtype=complex)  # exp(-i pi/4 Y)
SQRT_PLUS_IY = _S2 * np.array([[1, 1], [-1, 1]], dtype=complex)  # exp(+i pi/4 Y)

# local complement at a: this on a ...
LC_AT_VERTEX = SQRT_MINUS_IX
# ... and this on each neighbor of a
LC_AT_NEIGHBOR = SQRT_PLUS_IZ


def _phase_free_key(m: np.ndarray) -> tuple:
    """Canonical bytes of a 2x2 unitary with global phase stripped."""
    flat = m.ravel()
    pivot = flat[np.argmax(np.abs(flat) > 1e-9)]
    normalized = np.round(flat / pivot, 9)
    return tuple(normalized.tolist())


def _clifford_group() -> tuple[tuple[str, np.ndarray], ...]:
    """The 24 single-qubit Cliffords (phase-free), as <H,S> words."""
    found: dict[tuple, tuple[str, np.ndarray]] = {_phase_free_key(I2): ("I", I2)}
    frontier = [("I", I2)]
    while frontier:
        nxt = []
        for word, m in frontier:
            for gate_name, gate in (("H", H), ("S", S)):
                prod = gate @ m
                key = _phase_free_key(prod)
                if key not in found:
                    name = gate_name if word == "I" else gate_name + word
                    found[key] = (name, prod)
                    nxt.append((name, prod))
        frontier = nxt
    members = sorted(found.values(), key=lambda kv: (len(kv[0]), kv[0]))
    assert len(members) == 24
    return tuple(members)


CLIFFORD_1 = _clifford_group()


# the closed-form byproducts as (word, matrix), each word looked up once in CLIFFORD_1
_WORDS = {_phase_free_key(m): word for word, m in CLIFFORD_1}
_Z, _ROOT_MINUS_IZ, _ROOT_PLUS_IZ, _ROOT_MINUS_IY, _ROOT_PLUS_IY = (
    (_WORDS[_phase_free_key(m)], m) for m in (Z, SQRT_MINUS_IZ, SQRT_PLUS_IZ, SQRT_MINUS_IY, SQRT_PLUS_IY)
)


def measurement_correction_candidates(basis: str, outcome: int, neighbors: tuple[int, ...],
                                      special: int | None, special_nbrs: tuple[int, ...]):
    """Closed-form byproduct candidates per basis and outcome.

    Yields {vertex: (word, 2x2 matrix)} maps, the word being the matrix's
    name in CLIFFORD_1. ``special`` is the routing neighbor of an x
    measurement; ``special_nbrs`` are its neighbors in the pre-measurement
    graph. Identity is always tried first by the caller.
    """
    if basis == "z":
        if outcome == -1:
            yield {b: _Z for b in neighbors}
        return
    if basis == "y":
        root = _ROOT_MINUS_IZ if outcome == +1 else _ROOT_PLUS_IZ
        yield {b: root for b in neighbors}
        return
    if basis == "x" and special is not None:
        if outcome == +1:
            corr = {special: _ROOT_PLUS_IY}
            for b in neighbors:
                if b != special and b not in special_nbrs:
                    corr[b] = _Z
            yield corr
        else:
            corr = {special: _ROOT_MINUS_IY}
            for b in special_nbrs:
                if b not in neighbors:
                    corr[b] = _Z
            yield corr
