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
mask, shift and add operations on the whole int; ``diag(1, d)``, most gates of
a check, touches only the set half and, on a real state, no imaginary part. No
field a check forms exceeds 4 in magnitude (the tests measure it). States match
up to global phase iff they are proportional over Z[i], read at the first
nonzero field of one state with no bias, as it is 0 below; a zero-probability
outcome is exactly zero. The qubit of label ``v`` is the number of alive labels
below it (``_qubit``), so the smallest label is the index's most significant bit.

A check runs on label-indexed rows and builds no ``Graph``: the local
complement comes from the rows kernel (``_lc_rows``), the z, y and x images from
``graph._step``, the checked rewrite, each on its parent's qubits. ``_build`` keeps the
16 most recently used states, keyed by rows and live mask (what ``Graph``
equality reads) and by the alive mask of the qubits, the layout; each label's
sign plane comes from one table per layout (``_planes``). A (graph, vertex)
sweep draws on five states: the graph, its local complement and its three
images. ``STATE_CAP`` is checked on every call, before the lookup.
"""

from __future__ import annotations

import functools
import math

from . import cliffords
from .graph import Graph, _bits, _is_int, _lc_rows, _step, _x_neighbor

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


@functools.lru_cache(maxsize=16)
def _planes(alive: int) -> tuple[int, ...]:
    """The sign plane of each label of ``alive``, by label: ``_masks``' ``bits`` of its qubit, 0 off ``alive``."""
    bits, planes = _masks(alive.bit_count())[0], [0] * alive.bit_length()
    for v in _bits(alive):
        planes[v] = bits[_qubit(alive, v)]
    return tuple(planes)


def _state(rows: tuple[int, ...], live: int, alive: int) -> int:
    """Real part (the imaginary part is 0) of the state of ``rows`` on the labels of ``live``, on the qubits
    of ``alive``: a label of ``alive`` not in ``live`` (it was measured) has its bit clear in every nonzero
    field. The cap is checked on every call, then the state is looked up in the memo."""
    if (n := alive.bit_count()) > STATE_CAP:
        raise StateCapError(f"{n} qubits exceeds the dense-state cap of {STATE_CAP}")
    return _build(rows, live, alive)


@functools.lru_cache(maxsize=16)
def _build(rows: tuple[int, ...], live: int, alive: int) -> int:
    """``_state`` on the qubits of ``alive``. Per vertex, its plane AND the XOR of its
    larger-labelled neighbors' planes is XORed into one int of 2^n sign bits, which
    ``_spread`` makes fields."""
    planes, (_, keep, _, masks), signs = _planes(alive), _masks(alive.bit_count()), 0
    for v in _bits(live):
        up, mask = 0, rows[v] >> v + 1 << v + 1
        while mask:  # ``_bits`` inline: a generator per vertex costs more than the loop
            low = mask & -mask
            up ^= planes[low.bit_length() - 1]
            mask ^= low
        signs ^= up & planes[v]
    for v in _bits(alive & ~live):
        keep &= ~masks[_qubit(alive, v)][0]
    return keep - 2 * (_spread(signs) & keep)


def graph_state(g: Graph) -> tuple[complex, ...]:
    """State vector of ``g``, CZ per edge on the plus state: every amplitude is
    ``+-2^(-n/2)``, negative iff an odd number of edges have both endpoint bits set."""
    n, amp = g.n, 1 / math.sqrt(1 << g.n)
    fields = (_state(g._rows, g._alive, g._alive) + _masks(n)[2]).to_bytes(1 << n, "little")
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
    if ar == 1 and ai == br == bi == cr == ci == 0:  # diag(1, d): d - 1 on the set half, no unit or zero product
        if not im:  # a real state: only Im(d) times the set half is imaginary
            return re + (dr - 1) * re1, di * re1
        im1 = (im + bias & high) - high_bias
        return re + (dr - 1) * re1 - di * im1, im + (dr - 1) * im1 + di * re1
    im1 = (im + bias & high) - high_bias if im else 0
    re0, im0 = re - re1, im - im1
    lift = 8 << n - 1 - i
    re1, im1 = re1 >> lift, im1 >> lift  # exact: the set half sits at least ``lift`` bits up
    return (ar * re0 - ai * im0 + br * re1 - bi * im1 + (cr * re0 - ci * im0 + dr * re1 - di * im1 << lift),
            ar * im0 + ai * re0 + br * im1 + bi * re1 + (cr * im0 + ci * re0 + dr * im1 + di * re1 << lift))


def _same_ray(u: tuple[int, int], v: tuple[int, int]) -> bool:
    """Whether ``v`` is a multiple of the nonzero ``u`` over Z[i]: ``u * v_f == v * u_f``
    at the first nonzero field ``f`` of ``u``, each part cut to fields 0..f and read with no
    bias. ``u`` is 0 below ``f``; a ``v`` that is not may read ``v_f`` one low, but is off the ray."""
    (ur, ui), (vr, vi) = u, v
    low = ur | ui
    shift = (low & -low).bit_length() - 1 & ~7
    top = (256 << shift) - 1
    ufr, ufi = ((ur & top) >> shift ^ 128) - 128, ((ui & top) >> shift ^ 128) - 128
    vfr, vfi = ((vr & top) >> shift ^ 128) - 128, ((vi & top) >> shift ^ 128) - 128
    return (ur * vfr - ui * vfi == vr * ufr - vi * ufi
            and ur * vfi + ui * vfr == vr * ufi + vi * ufr)


def verify_lc_unitary(g: Graph, a: int) -> bool:
    """Check that complementing at ``a`` is a local Clifford on the state.

    Applies the pinned convention (root of -iX at ``a``, root of +iZ on each
    neighbor) to the state of ``g`` and compares with the state of the
    complemented graph, up to global phase.
    """
    g._require(a)
    n, alive, rows = g.n, g._alive, g._rows
    psi = _apply((_state(rows, alive, alive), 0), n, _qubit(alive, a), cliffords.LC_AT_VERTEX)
    for b in _bits(rows[a]):
        psi = _apply(psi, n, _qubit(alive, b), cliffords.LC_AT_NEIGHBOR)
    return _same_ray(psi, (_state(_lc_rows(rows, a), alive, alive), 0))


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
        if not _is_int(outcome) or outcome not in (+1, -1):
            raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    g._require(a)
    n, alive, rows = g.n, g._alive, g._rows
    neighbors = tuple(_bits(rows[a]))
    special = _x_neighbor(rows[a], a, None, alive) if basis == "x" else None  # x routes through it
    special_nbrs = () if special is None else tuple(_bits(rows[special] & ~(1 << a)))

    psi = (_state(rows, alive, alive), 0)
    posts = [_apply(psi, n, _qubit(alive, a), _PROJECTORS[basis, outcome]) for outcome in outcomes]
    posts = [None if post == (0, 0) else post for post in posts]
    if all(post is None for post in posts):
        return posts

    target = (_state(*_step(rows, alive, a, basis, special), alive), 0)  # the image on the same qubits

    def correction(post: tuple[int, int], outcome: int) -> dict[int, str]:
        byproduct = cliffords.measurement_byproduct(basis, outcome, neighbors, special, special_nbrs)
        phi = target
        for v, (_, gate) in byproduct.items():
            phi = _apply(phi, n, _qubit(alive, v), gate)
        if not _same_ray(post, phi):
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
