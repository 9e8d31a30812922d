import numpy as np
import pytest

from graphmin import (
    Graph,
    cliffords,
    complete_graph,
    delete_vertex,
    graph_state,
    path_graph,
    verify_lc_unitary,
    verify_measurement,
)
from graphmin.quantum import (
    StateCapError,
    apply_single,
    find_measurement_correction,
)

from conftest import all_graphs, fig2, random_graph


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

    def test_cap_enforced(self):
        with pytest.raises(StateCapError):
            graph_state(complete_graph(5), cap=4)

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


class TestExhaustiveCorrectionSearch:
    @pytest.fixture(autouse=True)
    def no_closed_forms(self, monkeypatch):
        monkeypatch.setattr(cliffords, "measurement_correction_candidates", lambda *args: iter(()))

    @pytest.mark.parametrize("g", [path_graph(3), complete_graph(3)])
    def test_finds_every_correction(self, g):
        for a in g.vertices:
            for basis in "xyz":
                for outcome in (+1, -1):
                    assert find_measurement_correction(g, a, basis, outcome) is not None

    def test_tries_hadamard(self):
        assert find_measurement_correction(path_graph(3), 2, "x", +1) == {1: "H"}


class TestApplySingle:
    def test_single_qubit_gate_on_known_position(self):
        psi = np.array([1, 0, 0, 0], dtype=complex)  # |00>
        flipped = apply_single(psi, 2, 0, np.array([[0, 1], [1, 0]], dtype=complex))
        np.testing.assert_allclose(flipped, [0, 1, 0, 0])  # LSB qubit flipped
        flipped = apply_single(psi, 2, 1, np.array([[0, 1], [1, 0]], dtype=complex))
        np.testing.assert_allclose(flipped, [0, 0, 1, 0])  # MSB qubit flipped
