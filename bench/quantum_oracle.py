"""Workload ``quantum_oracle``: the dense state-vector oracle.

One query is one (graph, vertex) pair on a seeded random connected graph
(n = 5..10, one per size in a fixed cycle): ``verify_lc_unitary``, then
``find_measurement_correction`` for x, y and z with outcomes +1 and -1. This
is the only workload where ``quantum`` and ``cliffords`` do the work; it
barely touches the rewrite kernel.

The reference below rebuilds every state with its own NumPy code, applies
the reported byproduct (a word over H and S) to the rewritten graph's state
and compares it with the measured state up to global phase.
"""

from __future__ import annotations

import numpy as np

from graphmin import Graph, find_measurement_correction, verify_lc_unitary

import refs
from common import Query, random_connected, rng_for
from refs import require

NAME = "quantum_oracle"
OUTCOMES = tuple((basis, outcome) for basis in "xyz" for outcome in (1, -1))

_S2 = 1 / np.sqrt(2)
_LETTERS = {
    "I": np.eye(2, dtype=complex),
    "H": _S2 * np.array([[1, 1], [1, -1]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
}
_EIGEN = {
    ("z", 1): np.array([1, 0], dtype=complex),
    ("z", -1): np.array([0, 1], dtype=complex),
    ("x", 1): _S2 * np.array([1, 1], dtype=complex),
    ("x", -1): _S2 * np.array([1, -1], dtype=complex),
    ("y", 1): _S2 * np.array([1, 1j], dtype=complex),
    ("y", -1): _S2 * np.array([1, -1j], dtype=complex),
}
_ROOT_MINUS_IX = _S2 * np.array([[1, -1j], [-1j, 1]], dtype=complex)  # exp(-i pi/4 X)
_ROOT_PLUS_IZ = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])  # exp(+i pi/4 Z)


def word_matrix(word: str) -> np.ndarray:
    """A Clifford named as a word over H and S, the leftmost letter applied last."""
    out = np.eye(2, dtype=complex)
    for letter in word:
        require(letter in _LETTERS, f"unknown Clifford letter in {word!r}")
        out = out @ _LETTERS[letter]
    return out


def state_tensor(adj) -> np.ndarray:
    """Graph state as an n-axis tensor, axes in ascending label order."""
    verts = sorted(adj)
    n = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    bits = (np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1  # column i: qubit i
    parity = np.zeros(1 << n, dtype=np.int64)
    for a, b in refs.edges_of(adj):
        parity ^= bits[:, pos[a]] & bits[:, pos[b]]
    amp = (1 - 2 * parity) / np.sqrt(1 << n)
    return amp.astype(complex).reshape((2,) * n)


def _apply(psi: np.ndarray, axis: int, gate: np.ndarray) -> np.ndarray:
    return np.moveaxis(np.tensordot(gate, psi, axes=([1], [axis])), 0, axis)


def _same_ray(a: np.ndarray, b: np.ndarray) -> bool:
    return abs(abs(np.vdot(a.ravel(), b.ravel())) - 1.0) < 1e-8


def check_lc_unitary(adj, psi, a: int) -> bool:
    """exp(-i pi/4 X) on ``a`` and exp(+i pi/4 Z) on each neighbour give lc(a)'s state."""
    verts = sorted(adj)
    psi = _apply(psi, verts.index(a), _ROOT_MINUS_IX)
    for b in adj[a]:
        psi = _apply(psi, verts.index(b), _ROOT_PLUS_IZ)
    return _same_ray(psi, state_tensor(refs.lc(adj, a)))


def check_correction(post: np.ndarray, image, phi: np.ndarray, tag: str, correction) -> None:
    """A reported byproduct must map the rewritten graph's state ``phi`` onto ``post``.

    ``post`` is the unnormalized state left after projecting the measured qubit.
    """
    norm = np.linalg.norm(post)
    if correction is None:
        require(norm < 1e-12, f"{tag}: outcome of probability {norm ** 2:.3g} reported impossible")
        return
    require(norm > 1e-12, f"{tag}: impossible outcome got a correction")
    rest = sorted(image)
    for v, word in correction.items():
        require(v in image, f"{tag}: correction on dead vertex {v}")
        phi = _apply(phi, rest.index(v), word_matrix(word))
    require(_same_ray(post / norm, phi), f"{tag}: correction {correction} misses the measured state")


class Workload:
    name = NAME
    host_probe = "cpu"  # host-speed probe (hostspeed.py) for this workload's latencies

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.schedule = [5, 6] if tiny else [5, 6, 7, 8, 9, 10]

    def query(self, i: int, stream: str = "main") -> Query:
        n = self.schedule[i % len(self.schedule)]
        rng = rng_for(NAME, self.seed, stream, i)
        vertices, edges = random_connected(rng, n)
        return Query(i, f"n{n}", (Graph(vertices, edges), rng.randint(1, n)),
                     {"adj": refs.adj_from_edges(vertices, edges)})

    def warmup(self, tr) -> None:
        for i in range(len(set(self.schedule))):  # one query per size
            self.run(self.query(i, "warmup"), tr)

    def run(self, q: Query, tr):
        g, a = q.payload
        lc_ok = tr.call("quantum.verify_lc_unitary", verify_lc_unitary, g, a)
        corrections = tuple(
            tr.call("quantum.find_measurement_correction", find_measurement_correction,
                    g, a, basis, outcome)
            for basis, outcome in OUTCOMES)
        return lc_ok, corrections

    def failed(self, answer) -> str | None:
        return None

    def digest(self, q: Query, answer):
        return answer

    def check(self, records, tr) -> dict:
        counters = {"quantum.checks": 0, "quantum.nonempty_corrections": 0}
        for q, (lc_ok, corrections) in records:
            adj = q.info["adj"]
            a = q.payload[1]
            psi = state_tensor(adj)
            require(lc_ok is True, f"q{q.qid}: lc at {a} reported as no local Clifford")
            require(check_lc_unitary(adj, psi, a), f"q{q.qid}: reference lc check failed at {a}")
            images = {basis: refs.measure(adj, a, basis)[0] for basis in "xyz"}
            states = {basis: state_tensor(image) for basis, image in images.items()}
            axis = sorted(adj).index(a)
            for (basis, outcome), correction in zip(OUTCOMES, corrections):
                tag = f"q{q.qid}: {basis}{outcome:+d} at {a}"
                if (basis, outcome) == ("z", 1):
                    require(correction == {}, f"{tag}: needs no byproduct")
                post = np.tensordot(_EIGEN[(basis, outcome)].conj(), psi, axes=([0], [axis]))
                check_correction(post, images[basis], states[basis], tag, correction)
                counters["quantum.nonempty_corrections"] += bool(correction)
            counters["quantum.checks"] += 1 + len(OUTCOMES)
        return counters

    def corrupt(self, records) -> None:
        """Change one answer on the benchmark side; the checker must reject the run."""
        for k, (q, (lc_ok, corrections)) in enumerate(records):
            for j, correction in enumerate(corrections):
                if correction:  # the library tried the identity first, so {} must fail
                    wrong = corrections[:j] + ({},) + corrections[j + 1:]
                    records[k] = (q, (lc_ok, wrong))
                    return

    def layer_metrics(self, tr, records, counters, failures) -> dict:
        return {
            "quantum.checks": (counters["quantum.checks"], "count"),
            "quantum.lc_s": (tr.total("quantum.verify_lc_unitary"), "s"),
            "quantum.correction_s": (tr.total("quantum.find_measurement_correction"), "s"),
            "quantum.nonempty_corrections": (counters["quantum.nonempty_corrections"], "count"),
        }
