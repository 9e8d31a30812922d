"""Dense state-vector oracle for the combinatorial rewrites.

Builds actual graph states (plus state with a controlled-Z per edge) and
checks that local complementation and the measurement rewrites track the
real quantum operations: the complemented graph's state equals a local
Clifford applied to the original, and each Pauli measurement outcome leaves
the measured graph's state up to the one closed-form byproduct of
``cliffords`` (empty for z+ and at an isolated vertex), nothing else.

The arithmetic is exact. With the global scalar (powers of sqrt(2) and of
e^{i pi/4}) dropped, every gate is a matrix over {0, +-1, +-i} and every
amplitude a small Gaussian integer. A state is a pair of Python ints, real
and imaginary part, each the sum of ``a_x * 256**x`` over the amplitude
indices ``x``: one signed byte-wide field per amplitude, so a gate is a few
mask, shift and add operations on the whole int. No field a check forms
exceeds 4 in magnitude (the tests measure it), far inside a byte. States
match up to global phase iff they are proportional over Z[i], and a
zero-probability outcome is exactly zero. The qubit of label ``v`` is the
number of alive labels below it (``_qubit``, a popcount; graphmin keeps no
label-to-index map), so the smallest label is the index's most significant bit.

Each state is built once while it is recent: ``_build`` is a memo of the 16
most recently used states, keyed by the graph (its rows and label set, as
``Graph`` compares) and the alive mask of the labels it is built on. The
mask matters because a measured image is built on its parent's qubits.
Every check on one (graph, vertex) pair draws on five states: the graph,
its local complement and its z, y and x images. ``STATE_CAP`` is
checked on every call, before the lookup.
"""

from __future__ import annotations

import functools
import math

from . import cliffords
from .graph import Graph, _bits, _x_neighbor, local_complement, measure_x, measure_y, measure_z

STATE_CAP = 12


class StateCapError(ValueError):
    """Too many qubits for the dense oracle."""


_SPREAD = bytes.maketrans(b"01b", b"\0\1\0")


def _spread(bits: int) -> int:
    """The int whose field ``x`` is bit ``x`` of ``bits``: one bytes translation of ``bin(bits)``."""
    return int.from_bytes(bin(bits).encode().translate(_SPREAD), "big")


@functools.cache
def _masks(n: int) -> tuple[tuple[int, ...], int, int, tuple[tuple[int, int], ...]]:
    """``(bits, ones, bias, rows)``: ``bits[i]`` has bit ``x`` set iff index ``x`` has
    row ``i``'s bit ``n - 1 - i``; ``ones`` and ``bias`` are 1 and 128 in every
    field; ``rows[i]`` is ``(high, high & bias)``, ``high`` 0xFF where ``bits[i]`` is 1."""
    full = (1 << (1 << n)) - 1
    # bit k of the index: 2^k clear bits then 2^k set ones, repeated to 2^n bits
    bits = tuple(full // ((1 << (2 << k)) - 1) * ((1 << (1 << k)) - 1 << (1 << k)) for k in reversed(range(n)))
    ones = _spread(full)
    return bits, ones, ones << 7, tuple((high, high & ones << 7) for high in (_spread(b) * 0xFF for b in bits))


def _qubit(alive: int, v: int) -> int:
    """The qubit of label ``v`` of ``alive``: the alive labels below it, so ascending labels go to 0..n-1."""
    return (alive & (1 << v) - 1).bit_count()


def _state(g: Graph, alive: int) -> int:
    """Real part of ``g``'s state (the imaginary part is 0) on the qubits of ``alive``,
    where a label ``g`` lacks (it was measured) has its bit clear in every nonzero
    field. The cap is checked on every call, then the state is looked up in the memo."""
    if (n := alive.bit_count()) > STATE_CAP:
        raise StateCapError(f"{n} qubits exceeds the dense-state cap of {STATE_CAP}")
    return _build(g, alive)


@functools.lru_cache(maxsize=16)
def _build(g: Graph, alive: int) -> int:
    """``_state`` on the qubits of ``alive``. Per vertex, its ``bits`` AND the XOR of
    its larger-labelled neighbors' ``bits`` is XORed into one int of 2^n sign bits,
    which ``_spread`` makes fields."""
    (masks, keep, _, rows), signs = _masks(alive.bit_count()), 0
    for v in _bits(g._alive):
        up = 0
        for u in _bits(g._rows[v] >> v + 1 << v + 1):
            up ^= masks[_qubit(alive, u)]
        signs ^= up & masks[_qubit(alive, v)]
    for v in _bits(alive & ~g._alive):
        keep &= ~rows[_qubit(alive, v)][0]
    return keep - 2 * (_spread(signs) & keep)


def graph_state(g: Graph) -> tuple[complex, ...]:
    """State vector of ``g``, CZ per edge on the plus state: every amplitude is
    ``+-2^(-n/2)``, negative iff an odd number of edges have both endpoint bits set."""
    n, amp = g.n, 1 / math.sqrt(1 << g.n)
    fields = (_state(g, g._alive) + _masks(n)[2]).to_bytes(1 << n, "little")
    return tuple([complex((byte - 128) * amp) for byte in fields])


@functools.cache
def _gaussian(gate) -> tuple[tuple[int, int], ...]:
    """The entries of a 2x2 matrix over Z[i], row by row, as (real, imaginary) int pairs."""
    return tuple((int(z.real), int(z.imag)) for row in gate for z in row)


def _apply(state: tuple[int, int], n: int, i: int, gate) -> tuple[int, int]:
    """A 2x2 matrix over Z[i] on the qubit of row ``i``: the fields whose index has
    its bit set sit ``8 * 2^(n-1-i)`` bits above their partners, whose bit is clear."""
    (ar, ai), (br, bi), (cr, ci), (dr, di) = _gaussian(gate)
    re, im = state
    _, _, bias, rows = _masks(n)
    high, high_bias = rows[i]
    re1 = (re + bias & high) - high_bias
    im1 = (im + bias & high) - high_bias if im else 0
    if br == bi == cr == ci == 0:  # a on the whole state, then d - a on the set half
        dr, di = dr - ar, di - ai
        return (ar * re - ai * im + dr * re1 - di * im1,
                ar * im + ai * re + dr * im1 + di * re1)
    re0, im0 = re - re1, im - im1
    lift = 8 << n - 1 - i
    re1, im1 = re1 >> lift, im1 >> lift  # exact: the set half sits at least ``lift`` bits up
    return (ar * re0 - ai * im0 + br * re1 - bi * im1 + (cr * re0 - ci * im0 + dr * re1 - di * im1 << lift),
            ar * im0 + ai * re0 + br * im1 + bi * re1 + (cr * im0 + ci * re0 + dr * im1 + di * re1 << lift))


def _same_ray(u: tuple[int, int], v: tuple[int, int], n: int) -> bool:
    """Whether ``v`` is a multiple of the nonzero ``u`` over Z[i]: ``u * v_f == v * u_f``
    at the first nonzero field ``f`` of ``u``."""
    (ur, ui), (vr, vi) = u, v
    low, bias = ur | ui, _masks(n)[2]
    shift = (low & -low).bit_length() - 1 & ~7
    ufr, ufi, vfr, vfi = ((part + bias >> shift & 0xFF) - 128 for part in (ur, ui, vr, vi))
    return (ur * vfr - ui * vfi == vr * ufr - vi * ufi
            and ur * vfi + ui * vfr == vr * ufi + vi * ufr)


def verify_lc_unitary(g: Graph, a: int) -> bool:
    """Check that complementing at ``a`` is a local Clifford on the state.

    Applies the pinned convention (root of -iX at ``a``, root of +iZ on each
    neighbor) to the state of ``g`` and compares with the state of the
    complemented graph, up to global phase.
    """
    g._require(a)
    n, alive = g.n, g._alive
    psi = _apply((_state(g, alive), 0), n, _qubit(alive, a), cliffords.LC_AT_VERTEX)
    for b in _bits(g._rows[a]):
        psi = _apply(psi, n, _qubit(alive, b), cliffords.LC_AT_NEIGHBOR)
    return _same_ray(psi, (_state(local_complement(g, a), alive), 0), n)


# |0><e| for the eigenvector e of each outcome: the measured qubit's bit stays 0
_PROJECTORS = {("z", 1): ((1, 0), (0, 0)), ("z", -1): ((0, 1), (0, 0)), ("x", 1): ((1, 1), (0, 0)),
               ("x", -1): ((1, -1), (0, 0)), ("y", 1): ((1, -1j), (0, 0)), ("y", -1): ((1, 1j), (0, 0))}


class CorrectionSearchExhausted(RuntimeError):
    """The closed-form byproduct did not match an outcome.

    The rule covers every realizable outcome, so this means the pinned
    conventions are inconsistent.
    """


def _corrections(g: Graph, a: int, basis: str, outcomes: tuple[int, ...]) -> list[dict[int, str] | None]:
    """Byproduct per outcome, from one state of ``g`` and one of its image on the
    same indices. The image is built only when some outcome asked for is possible."""
    if basis not in ("x", "y", "z"):
        raise ValueError(f"unknown basis {basis!r}")
    for outcome in outcomes:  # an ``int`` only: ``True`` and ``1.0`` equal ``1``
        if not isinstance(outcome, int) or isinstance(outcome, bool) or outcome not in (+1, -1):
            raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    g._require(a)
    n, alive, rows = g.n, g._alive, g._rows
    neighbors = tuple(_bits(rows[a]))
    special = _x_neighbor(rows[a], a, None, alive) if basis == "x" else None  # x routes through it
    special_nbrs = () if special is None else tuple(_bits(rows[special] & ~(1 << a)))

    psi = (_state(g, alive), 0)
    posts = [_apply(psi, n, _qubit(alive, a), _PROJECTORS[basis, outcome]) for outcome in outcomes]
    posts = [None if post == (0, 0) else post for post in posts]
    if all(post is None for post in posts):
        return posts

    image = measure_x(g, a, special) if basis == "x" else measure_y(g, a) if basis == "y" else measure_z(g, a)
    target = (_state(image, alive), 0)

    def correction(post: tuple[int, int], outcome: int) -> dict[int, str]:
        byproduct = cliffords.measurement_byproduct(basis, outcome, neighbors, special, special_nbrs)
        phi = target
        for v, (_, gate) in byproduct.items():
            phi = _apply(phi, n, _qubit(alive, v), gate)
        if not _same_ray(post, phi, n):
            raise CorrectionSearchExhausted(f"the closed-form byproduct does not match the "
                                            f"{basis}{'+' if outcome > 0 else '-'} outcome at vertex {a}")
        return {v: word for v, (word, _) in byproduct.items()}

    return [None if post is None else correction(post, outcome) for post, outcome in zip(posts, outcomes)]


def find_measurement_correction(g: Graph, a: int, basis: str, outcome: int) -> dict[int, str] | None:
    """Byproduct correction making the measured state match the rewrite.

    Returns a {vertex: clifford-word} map (empty when none is needed), or
    None when the outcome has probability zero. Only the closed form for the
    basis and outcome (see ``cliffords``) is checked, so it is reported even
    when a lighter correction exists. Raises CorrectionSearchExhausted when
    it does not match.
    """
    return _corrections(g, a, basis, (outcome,))[0]


def verify_measurement(g: Graph, a: int, basis: str) -> bool:
    """Check both outcomes of a Pauli measurement against the graph rewrite.

    Every realizable outcome must match the measured graph's state up to
    the closed-form byproduct; zero-probability outcomes are vacuous.
    Returns False when an outcome does not match it.
    """
    try:
        _corrections(g, a, basis, (+1, -1))
    except CorrectionSearchExhausted:
        return False
    return True
