"""Dense state-vector oracle for the combinatorial rewrites.

Builds actual graph states (plus state with a controlled-Z per edge) and
checks that local complementation and the measurement rewrites track the
real quantum operations: the complemented graph's state equals a local
Clifford applied to the original, and each Pauli measurement outcome leaves
the measured graph's state up to the identity or the closed-form byproduct
of ``cliffords``, nothing else. A check builds the state of the graph and
that of its rewrite once each, from one Python int of sign bits, and applies
a diagonal gate as one multiply. Two states match, up to global phase, at
one fixed threshold. Dense vectors keep the oracle maximally trustworthy;
the cap on qubit count keeps it affordable.

Qubit order is ascending vertex label; the smallest label is the most
significant bit of the amplitude index.
"""

from __future__ import annotations

import functools

import numpy as np

from . import cliffords
from .graph import Graph, _bits, local_complement, measure_x, measure_y, measure_z

STATE_CAP = 12
# Two states match when their overlap is within TOLERANCE of 1. Float rounding
# moves it by about 1e-16, and two distinct stabilizer states overlap by at
# most 1/sqrt(2), so any threshold far between the two gives the same answers.
TOLERANCE = 1e-10


class StateCapError(ValueError):
    """Too many qubits for the dense oracle."""


@functools.cache
def _row_masks(n: int) -> tuple[int, ...]:
    """Per row ``i``, the 2^n-bit int whose bit ``x`` is index ``x``'s bit ``n - 1 - i``."""
    full = (1 << (1 << n)) - 1
    # bit k of the index: 2^k clear bits then 2^k set ones, repeated to 2^n bits
    return tuple(full // ((1 << (2 << k)) - 1) * ((1 << (1 << k)) - 1 << (1 << k))
                 for k in reversed(range(n)))


def graph_state(g: Graph) -> np.ndarray:
    """State vector of ``g``: CZ per edge applied to the uniform plus state.

    Every amplitude has magnitude 2^(-n/2); the sign at index ``x`` is the
    parity of edges whose two endpoint bits are both set in ``x``. The 2^n
    sign bits are one Python int: per vertex, its ``_row_masks`` mask AND
    the XOR of its larger-labelled neighbors' masks is XORed in. One unpack
    turns the int into the signs; no NumPy call is made per vertex or edge.
    """
    n = g.n
    if n > STATE_CAP:
        raise StateCapError(f"{n} qubits exceeds the dense-state cap of {STATE_CAP}")
    masks, at, signs = _row_masks(n), g._at, 0
    for v, row, mask in zip(at, g._rows, masks):
        up = 0
        for u in _bits(row >> v + 1 << v + 1):
            up ^= masks[at[u]]
        signs ^= up & mask
    size = 1 << n
    bits = np.unpackbits(np.frombuffer(signs.to_bytes(size + 7 >> 3, "little"), np.uint8),
                         count=size, bitorder="little")
    amp = 1 / np.sqrt(size)
    return np.array([amp, -amp], dtype=complex).take(bits)


def apply_single(psi: np.ndarray, n: int, bit: int, gate: np.ndarray) -> np.ndarray:
    """Apply a 2x2 gate to the qubit at ``bit`` (from the LSB); a diagonal one is a multiply."""
    shaped = psi.reshape(1 << (n - 1 - bit), 2, 1 << bit)
    if gate[0, 1] == 0 and gate[1, 0] == 0:
        return (shaped * gate.diagonal()[:, None]).reshape(psi.shape)
    return np.einsum("ab,ibj->iaj", gate, shaped).reshape(psi.shape)


def _overlap_is_unit(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(abs(abs(np.vdot(a, b)) - 1.0) <= TOLERANCE)


def verify_lc_unitary(g: Graph, a: int) -> bool:
    """Check that complementing at ``a`` is a local Clifford on the state.

    Applies the pinned convention (root of -iX at ``a``, root of +iZ on each
    neighbor) to the state of ``g`` and compares with the state of the
    complemented graph, up to global phase.
    """
    g._require(a)
    n = g.n
    pos = {v: n - 1 - i for i, v in enumerate(g.vertices)}
    psi = graph_state(g)
    psi = apply_single(psi, n, pos[a], cliffords.LC_AT_VERTEX)
    for b in sorted(g.neighbors(a)):
        psi = apply_single(psi, n, pos[b], cliffords.LC_AT_NEIGHBOR)
    return _overlap_is_unit(psi, graph_state(local_complement(g, a)))


_EIGENVECTORS = {
    ("z", +1): np.array([1, 0], dtype=complex),
    ("z", -1): np.array([0, 1], dtype=complex),
    ("x", +1): np.array([1, 1], dtype=complex) / np.sqrt(2),
    ("x", -1): np.array([1, -1], dtype=complex) / np.sqrt(2),
    ("y", +1): np.array([1, 1j], dtype=complex) / np.sqrt(2),
    ("y", -1): np.array([1, -1j], dtype=complex) / np.sqrt(2),
}


class CorrectionSearchExhausted(RuntimeError):
    """Neither the identity nor the closed-form byproduct matched an outcome.

    The rule covers every realizable outcome, so this means the pinned
    conventions are inconsistent.
    """


def _project_out(psi: np.ndarray, n: int, bit: int, basis: str, outcome: int) -> np.ndarray | None:
    """Post-measurement state on the remaining qubits, or None for probability 0."""
    vec = _EIGENVECTORS[(basis, outcome)]
    shaped = psi.reshape(1 << (n - 1 - bit), 2, 1 << bit)
    reduced = np.einsum("b,ibj->ij", vec.conj(), shaped).reshape(-1)
    norm = np.linalg.norm(reduced)
    if norm < 1e-12:
        return None
    return reduced / norm


def _corrections(g: Graph, a: int, basis: str, outcomes: tuple[int, ...]) -> list[dict[int, str] | None]:
    """Byproduct per outcome, from one state of ``g`` and one of its image.

    The measured graph's state is built only when some outcome asked for
    has nonzero probability.
    """
    if basis not in ("x", "y", "z"):
        raise ValueError(f"unknown basis {basis!r}")
    for outcome in outcomes:
        if outcome not in (+1, -1):
            raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    n = g.n
    pos = {v: n - 1 - i for i, v in enumerate(g.vertices)}
    neighbors = tuple(sorted(g.neighbors(a)))
    special = None
    special_nbrs: tuple[int, ...] = ()
    if basis == "x" and neighbors:
        special = neighbors[0]
        special_nbrs = tuple(sorted(g.neighbors(special) - {a}))

    psi = graph_state(g)
    posts = [_project_out(psi, n, pos[a], basis, outcome) for outcome in outcomes]
    if all(post is None for post in posts):
        return posts

    if basis == "z":
        image = measure_z(g, a)
    elif basis == "y":
        image = measure_y(g, a)
    else:
        image = measure_x(g, a, special)
    target = graph_state(image)
    m = image.n
    pos_rest = {v: m - 1 - i for i, v in enumerate(image.vertices)}

    def correction(post: np.ndarray, outcome: int) -> dict[int, str]:
        for candidate in cliffords.measurement_correction_candidates(
            basis, outcome, neighbors, special, special_nbrs
        ):
            phi = target
            for v, (_, gate) in candidate.items():
                phi = apply_single(phi, m, pos_rest[v], gate)
            if _overlap_is_unit(post, phi):
                return {v: word for v, (word, _) in candidate.items()}
        raise CorrectionSearchExhausted(
            f"neither the identity nor the closed-form byproduct matches the "
            f"{basis}{'+' if outcome > 0 else '-'} outcome at vertex {a}"
        )

    return [None if post is None else correction(post, outcome) for post, outcome in zip(posts, outcomes)]


def find_measurement_correction(g: Graph, a: int, basis: str, outcome: int) -> dict[int, str] | None:
    """Byproduct correction making the measured state match the rewrite.

    Returns a {vertex: clifford-word} map (empty when none is needed), or
    None when the outcome has probability zero. The identity is tried
    first, then the closed form for the basis and outcome (see
    ``cliffords``), so a closed form is reported even when a lighter
    correction exists. Raises CorrectionSearchExhausted when neither
    matches.
    """
    return _corrections(g, a, basis, (outcome,))[0]


def verify_measurement(g: Graph, a: int, basis: str) -> bool:
    """Check both outcomes of a Pauli measurement against the graph rewrite.

    Every realizable outcome must match the measured graph's state up to
    the identity or the closed-form byproduct; zero-probability outcomes
    are vacuous. Returns False when an outcome matches neither candidate.
    """
    try:
        _corrections(g, a, basis, (+1, -1))
    except CorrectionSearchExhausted:
        return False
    return True
