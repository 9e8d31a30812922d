import hashlib
import json
import random

import numpy as np
import pytest

from graphmin import (
    Graph,
    cliffords,
    complete_graph,
    connected_components,
    delete_vertex,
    graph_state,
    measure_x,
    path_graph,
    verify_lc_unitary,
    verify_measurement,
)
from graphmin import quantum
from graphmin.quantum import (
    MAX_TOLERANCE,
    CorrectionSearchExhausted,
    StateCapError,
    _project_out,
    apply_single,
    find_measurement_correction,
)

from conftest import all_graphs, fig2, random_graph


def per_edge_graph_state(g):
    """Reference builder: four passes over all 2^n amplitudes per edge."""
    n = g.n
    pos = {v: n - 1 - i for i, v in enumerate(g.vertices)}  # label -> bit position
    idx = np.arange(1 << n)
    signs = np.zeros(1 << n, dtype=np.int64)
    for a, b in g.edges():
        signs += (idx >> pos[a] & 1) & (idx >> pos[b] & 1)
    psi = np.where(signs & 1, -1.0, 1.0).astype(complex)
    return psi / np.sqrt(1 << n)


def assert_bit_identical(g):
    psi, ref = graph_state(g), per_edge_graph_state(g)
    assert psi.dtype == ref.dtype and np.array_equal(psi, ref), g.edges()


def kron_oracle(g):
    """Independent construction: explicit CZ matrices on the plus state."""
    n = g.n
    order = {v: i for i, v in enumerate(g.vertices)}
    psi = np.ones(2 ** n, dtype=complex) / np.sqrt(2 ** n)
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    for a, b in g.edges():
        full = _two_qubit_gate(cz, order[a], order[b], n)
        psi = full @ psi
    return psi


def _two_qubit_gate(gate, qa, qb, n):
    """Embed a two-qubit gate acting on qubit positions qa < qb (qubit 0 is
    the most significant index bit)."""
    dim = 2 ** n
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n - 1 - k)) & 1 for k in range(n)]
        sub_in = bits[qa] * 2 + bits[qb]
        for sub_out in range(4):
            amp = gate[sub_out, sub_in]
            if amp == 0:
                continue
            out_bits = list(bits)
            out_bits[qa], out_bits[qb] = sub_out >> 1, sub_out & 1
            row = sum(bit << (n - 1 - k) for k, bit in enumerate(out_bits))
            full[row, col] += amp
    return full


class TestGraphState:
    def test_single_vertex_is_plus(self):
        np.testing.assert_allclose(graph_state(Graph(1)), [1, 1] / np.sqrt(2))

    def test_two_vertex_edge(self):
        np.testing.assert_allclose(graph_state(Graph(2, [(1, 2)])), [0.5, 0.5, 0.5, -0.5])

    def test_four_vertex_example_against_kron_oracle(self):
        g = Graph(4, [(1, 2), (2, 3), (2, 4)])
        psi = graph_state(g)
        assert psi.shape == (16,)
        np.testing.assert_allclose(np.abs(psi), 0.25)
        np.testing.assert_allclose(psi, kron_oracle(g), atol=1e-12)

    def test_matches_kron_oracle_on_random_graphs(self, rng):
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 6))
            np.testing.assert_allclose(graph_state(g), kron_oracle(g), atol=1e-12)

    def test_empty_graph_scalar(self):
        empty = delete_vertex(Graph(1), 1)
        np.testing.assert_allclose(graph_state(empty), [1.0])

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(quantum, "STATE_CAP", 4)
        with pytest.raises(StateCapError):
            graph_state(complete_graph(5))

    def test_bit_identical_to_per_edge_reference_on_all_small_graphs(self):
        for n in range(6):  # n = 0 is Graph(0), the one-amplitude state
            for g in all_graphs(n):
                assert_bit_identical(g)

    def test_bit_identical_on_scattered_labels(self):
        rng = random.Random(8)
        for _ in range(500):
            labels = rng.sample(range(1, 65), rng.randint(1, 12))
            g = random_graph(rng, len(labels), rng.uniform(0.1, 0.9))
            g = Graph(labels, [(labels[a - 1], labels[b - 1]) for a, b in g.edges()])
            assert_bit_identical(g)

    def test_bit_identical_above_the_default_cap(self, monkeypatch):
        monkeypatch.setattr(quantum, "STATE_CAP", 13)
        assert_bit_identical(random_graph(random.Random(13), 13))

    def test_normalized(self, rng):
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 7))
            assert abs(np.linalg.norm(graph_state(g)) - 1.0) < 1e-10


class TestLcUnitary:
    def test_four_vertex_example(self):
        assert verify_lc_unitary(fig2(), 2)

    def test_isolated_vertex_trivial(self):
        g = Graph(3, [(2, 3)])
        assert verify_lc_unitary(g, 1)

    def test_exhaustive_small_graphs(self):
        for n in range(1, 5):
            for g in all_graphs(n):
                for a in g.vertices:
                    assert verify_lc_unitary(g, a)

    def test_random_graphs_n6(self, rng):
        for _ in range(20):
            g = random_graph(rng, 6)
            for a in g.vertices:
                assert verify_lc_unitary(g, a)


class TestMeasurements:
    def test_z_plus_is_exact_on_example(self):
        g = fig2()
        assert find_measurement_correction(g, 2, "z", +1) == {}

    def test_z_minus_needs_neighborhood_flips(self):
        corr = find_measurement_correction(fig2(), 2, "z", -1)
        assert corr is not None and set(corr) <= {1, 3, 4}

    def test_single_vertex_z(self):
        assert verify_measurement(Graph(1), 1, "z")

    def test_example_all_bases(self):
        g = fig2()
        for basis in ("x", "y", "z"):
            assert verify_measurement(g, 2, basis)

    def test_x_on_isolated_vertex(self):
        g = Graph(2)
        assert verify_measurement(g, 1, "x")
        # the minus outcome on an isolated plus state never fires
        assert find_measurement_correction(g, 1, "x", -1) is None

    def test_rejects_bad_basis(self):
        with pytest.raises(ValueError):
            find_measurement_correction(Graph(2), 1, "w", +1)

    def test_exhaustive_small_graphs_both_outcomes(self):
        for n in range(1, 5):
            for g in all_graphs(n):
                for a in g.vertices:
                    for basis in ("x", "y", "z"):
                        assert verify_measurement(g, a, basis)

    def test_random_graphs_n6(self, rng):
        for _ in range(8):
            g = random_graph(rng, 6)
            for a in g.vertices:
                for basis in ("x", "y", "z"):
                    assert verify_measurement(g, a, basis)


class TestApplySingle:
    def test_single_qubit_gate_on_known_position(self):
        psi = np.array([1, 0, 0, 0], dtype=complex)  # |00>
        flipped = apply_single(psi, 2, 0, np.array([[0, 1], [1, 0]], dtype=complex))
        np.testing.assert_allclose(flipped, [0, 1, 0, 0])  # LSB qubit flipped
        flipped = apply_single(psi, 2, 1, np.array([[0, 1], [1, 0]], dtype=complex))
        np.testing.assert_allclose(flipped, [0, 0, 1, 0])  # MSB qubit flipped


_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)


def _phase_free_key(m):
    """Canonical entries of a 2x2 unitary with global phase stripped."""
    flat = m.ravel()
    pivot = flat[np.argmax(np.abs(flat) > 1e-9)]
    return tuple(np.round(flat / pivot, 9).tolist())


def clifford_group():
    """The 24 single-qubit Cliffords (phase-free) by breadth-first search over
    <H, S>, keyed by matrix; each named by the first word that reaches it,
    H tried before S, the leftmost letter applied last."""
    found = {_phase_free_key(np.eye(2)): ("I", np.eye(2, dtype=complex))}
    frontier = [("I", np.eye(2, dtype=complex))]
    while frontier:
        nxt = []
        for word, m in frontier:
            for letter, gate in (("H", _H), ("S", _S)):
                prod = gate @ m
                key = _phase_free_key(prod)
                if key not in found:
                    found[key] = (letter if word == "I" else letter + word, prod)
                    nxt.append(found[key])
        frontier = nxt
    return {key: word for key, (word, _) in found.items()}


class TestClosedFormNames:
    def test_group_has_24_members(self):
        assert len(clifford_group()) == 24

    def test_carried_word_is_the_phase_free_name_of_the_matrix(self):
        by_key = clifford_group()
        seen = set()
        for basis in "xyz":
            for outcome in (+1, -1):
                for candidate in cliffords.measurement_correction_candidates(
                    basis, outcome, (1, 2, 3), 1, (4,)
                ):
                    for word, m in candidate.values():
                        assert word == by_key[_phase_free_key(m)]
                        seen.add(word)
        assert len(seen) == 5  # Z, both roots of iZ and both roots of iY


class TestByproductRule:
    def test_closed_form_is_reported_though_a_lighter_correction_matches(self):
        g = path_graph(3)
        assert find_measurement_correction(g, 2, "x", +1) == {1: "SSH", 3: "SS"}
        # H on vertex 1 alone also maps the measured graph's state to the projection
        post = _project_out(graph_state(g), 3, 1, "x", +1)
        image = graph_state(measure_x(g, 2, 1))
        assert abs(abs(np.vdot(post, apply_single(image, 2, 1, _H))) - 1) < 1e-10

    def test_no_match_raises(self, monkeypatch):
        monkeypatch.setattr(cliffords, "measurement_correction_candidates", lambda *args: iter([{}]))
        assert find_measurement_correction(fig2(), 2, "z", +1) == {}
        with pytest.raises(CorrectionSearchExhausted, match="z- outcome at vertex 2"):
            find_measurement_correction(fig2(), 2, "z", -1)
        assert verify_measurement(fig2(), 2, "z") is False


class TestStatesPerCheck:
    @pytest.fixture
    def built(self, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g)
            return graph_state(g)

        monkeypatch.setattr(quantum, "graph_state", counting)
        return calls

    @pytest.mark.parametrize("basis", "xyz")
    def test_verify_measurement_builds_two_states(self, built, basis):
        assert verify_measurement(fig2(), 2, basis)
        assert len(built) == 2

    @pytest.mark.parametrize("basis", "xyz")
    @pytest.mark.parametrize("outcome", (+1, -1))
    def test_find_measurement_correction_builds_two_states(self, built, basis, outcome):
        assert find_measurement_correction(fig2(), 2, basis, outcome) is not None
        assert len(built) == 2


def _correction_corpus():
    for n in range(1, 6):
        for g in all_graphs(n):
            if len(connected_components(g)) == 1:
                yield g
    rng = random.Random(806)
    for _ in range(200):
        yield random_graph(rng, rng.randint(6, 9), rng.uniform(0.3, 0.7))


def _corrections_digest():
    h = hashlib.sha256()
    for g in _correction_corpus():
        for a in g.vertices:
            for basis in "xyz":
                for outcome in (+1, -1):
                    found = find_measurement_correction(g, a, basis, outcome)
                    correction = None if found is None else list(found.items())
                    row = [g.vertices, g.edges(), a, basis, outcome, correction]
                    h.update(json.dumps(row).encode() + b"\n")
    return h.hexdigest()


# SHA-256 of every correction over ``_correction_corpus``, in the order the
# entries are reported: any change to a byproduct, its word or its order
# changes it. Update it only with a change that means to alter corrections.
PINNED_CORRECTIONS_DIGEST = "0471e991ffdc68df4ec8521338d245c4f63281b608de26314cb7d784449533f3"


def test_corrections_match_pinned_digest():
    assert _corrections_digest() == PINNED_CORRECTIONS_DIGEST


class TestTolerance:
    @pytest.mark.parametrize("tol", [-1e-9, MAX_TOLERANCE, 0.5, 1.0, float("inf"), float("nan")])
    def test_out_of_range_is_a_value_error(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            verify_lc_unitary(fig2(), 2, tol)
        with pytest.raises(ValueError, match="tolerance"):
            find_measurement_correction(fig2(), 2, "z", -1, tol)
        with pytest.raises(ValueError, match="tolerance"):
            verify_measurement(fig2(), 2, "x", tol)

    def test_largest_accepted_tolerance_gives_the_default_answers(self, rng):
        tol = float(np.nextafter(MAX_TOLERANCE, 0))
        for g in [fig2()] + [random_graph(rng, rng.randint(2, 7)) for _ in range(20)]:
            for a in g.vertices:
                assert verify_lc_unitary(g, a, tol)
                for basis in "xyz":
                    for outcome in (+1, -1):
                        assert find_measurement_correction(g, a, basis, outcome, tol) == \
                            find_measurement_correction(g, a, basis, outcome)
