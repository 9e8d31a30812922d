import functools
import hashlib
import json
import random

import numpy as np
import pytest

from graphmin import (
    Graph,
    UnknownVertexError,
    cliffords,
    complete_graph,
    connected_components,
    delete_vertex,
    graph_state,
    measure_x,
    measure_y,
    measure_z,
    path_graph,
    verify_lc_unitary,
    verify_measurement,
)
from graphmin import graph, quantum
from graphmin.quantum import CorrectionSearchExhausted, StateCapError, find_measurement_correction

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
    psi, ref = np.array(graph_state(g)), per_edge_graph_state(g)
    assert psi.dtype == ref.dtype and np.array_equal(psi, ref), g.edges()


def state(g, alive):
    """The real part of ``g``'s state on the qubits of ``alive``, through the oracle's memo."""
    return quantum._state(g._rows, g._alive, alive)


def _relabel(g, labels):
    """``g`` on 1..n moved onto ``labels``, vertex i becoming labels[i - 1]."""
    return Graph(labels, [(labels[a - 1], labels[b - 1]) for a, b in g.edges()])


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
        psi = graph_state(Graph(1))
        assert type(psi) is tuple and all(type(amp) is complex for amp in psi)
        np.testing.assert_allclose(psi, [1, 1] / np.sqrt(2))

    def test_two_vertex_edge(self):
        np.testing.assert_allclose(graph_state(Graph(2, [(1, 2)])), [0.5, 0.5, 0.5, -0.5])

    def test_four_vertex_example_against_kron_oracle(self):
        g = Graph(4, [(1, 2), (2, 3), (2, 4)])
        psi = graph_state(g)
        assert len(psi) == 16
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

    @pytest.mark.parametrize("build", [Graph, complete_graph], ids=["edgeless", "complete"])
    def test_bit_identical_at_the_cap(self, build):
        assert_bit_identical(build(quantum.STATE_CAP))

    @pytest.mark.parametrize("labels", [(64,), (7, 64), (3, 40, 64)])
    def test_bit_identical_when_the_signs_fit_in_one_byte(self, labels):
        for g in all_graphs(len(labels)):  # 2, 4 or 8 sign bits
            assert_bit_identical(_relabel(g, labels))

    def test_bit_identical_on_labels_scattered_within_one_graph(self):
        labels = (1, 2, 8, 9, 31, 32, 33, 63, 64)  # both sides of byte and word boundaries
        rng = random.Random(64)
        for _ in range(60):
            assert_bit_identical(_relabel(random_graph(rng, len(labels), rng.uniform(0.1, 0.9)), labels))

    def test_normalized(self, rng):
        for _ in range(10):
            g = random_graph(rng, rng.randint(1, 7))
            assert abs(np.linalg.norm(np.array(graph_state(g))) - 1.0) < 1e-10


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

    @pytest.mark.parametrize("name, wrong", [
        ("LC_AT_VERTEX", ((1, 1j), (1j, 1))),  # the root of +iX
        ("LC_AT_NEIGHBOR", ((1, 0), (0, 1j))),  # the root of -iZ
    ])
    def test_a_root_with_the_wrong_sign_fails(self, monkeypatch, name, wrong):
        monkeypatch.setattr(cliffords, name, wrong)
        assert verify_lc_unitary(fig2(), 2) is False
        for n in range(2, 5):
            for g in all_graphs(n):
                for a in g.vertices:
                    if g.degree(a):  # an isolated vertex's root only moves the global phase
                        assert verify_lc_unitary(g, a) is False, (g, a)


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

    @pytest.mark.parametrize("outcome", [True, False, 1.0, -1.0, 0, 2])
    def test_rejects_an_outcome_that_is_not_an_int_of_plus_or_minus_one(self, outcome):
        with pytest.raises(ValueError, match=r"outcome must be \+1 or -1"):
            find_measurement_correction(fig2(), 2, "z", outcome)

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


class TestScatteredLabels:
    """The checks on labels spread over 1..64 against the same graph relabelled in order to 1..n."""

    def test_x_at_a_vertex_of_four_scattered_labels(self):
        g = Graph([3, 17, 40, 64], [(3, 17), (17, 40), (17, 64), (40, 64)])
        assert find_measurement_correction(g, 17, "x", +1) == {3: "SSH", 40: "SS", 64: "SS"}
        assert find_measurement_correction(g, 17, "x", -1) == {3: "HSS"}

    def test_verdicts_and_corrections_match_the_graph_on_one_to_n(self):
        rng, nonempty = random.Random(64), 0
        for _ in range(40):
            labels = sorted(rng.sample(range(1, 65), rng.randint(2, 7)))
            g = random_graph(rng, len(labels), rng.uniform(0.2, 0.8))
            spread = _relabel(g, labels)
            for a in g.vertices:
                v = labels[a - 1]
                assert verify_lc_unitary(spread, v) == verify_lc_unitary(g, a), (spread, v)
                for basis in "xyz":
                    assert verify_measurement(spread, v, basis) == verify_measurement(g, a, basis), (spread, v)
                    for outcome in (+1, -1):
                        found = find_measurement_correction(spread, v, basis, outcome)
                        back = None if found is None else {labels.index(u) + 1: w for u, w in found.items()}
                        assert back == find_measurement_correction(g, a, basis, outcome), (spread, v, basis)
                        nonempty += bool(found)
        assert nonempty > 200


def offset_fields(state, n):
    """Both parts of a packed state as bytes: byte x is field x plus 128."""
    size = 1 << n
    bias = int.from_bytes(b"\x80" * size, "little")
    return [(part + bias).to_bytes(size, "little") for part in state]


def unpack(state, n):
    """A packed state as a complex NumPy vector."""
    re, im = (np.frombuffer(raw, np.uint8) - 128.0 for raw in offset_fields(state, n))
    return re + 1j * im


def pack(vector, n):
    """A vector of small Gaussian integers as a packed state."""
    return tuple(sum(int(part) << 8 * x for x, part in enumerate(parts))
                 for parts in (np.real(vector), np.imag(vector)))


# every matrix the oracle applies: the local-complement roots, the closed-form
# byproducts and the projections onto the measured qubit's eigenvectors, plus
# the Paulis X and Y, so that each shape of matrix has members, and a diagonal
# whose first entry is not 1, which takes the general formula, not diag(1, d)'s
KERNEL_MATRICES = {
    "LC_AT_VERTEX": cliffords.LC_AT_VERTEX,
    "LC_AT_NEIGHBOR": cliffords.LC_AT_NEIGHBOR,
    **{word: m for word, m in (cliffords._Z, cliffords._ROOT_MINUS_IZ, cliffords._ROOT_PLUS_IZ,
                               cliffords._ROOT_MINUS_IY, cliffords._ROOT_PLUS_IY)},
    **{f"project {basis}{outcome:+d}": m for (basis, outcome), m in quantum._PROJECTORS.items()},
    "X": ((0, 1), (1, 0)),
    "Y": ((0, -1j), (1j, 0)),
    "diag(i, -1)": ((1j, 0), (0, -1)),
}


def _shape(m):
    (a, b), (c, d) = m
    return "diagonal" if b == c == 0 else "anti-diagonal" if a == d == 0 else "general"


class TestGateKernel:
    def test_single_qubit_gate_on_known_position(self):
        x = ((0, 1), (1, 0))
        state = pack([1, 0, 0, 0], 2)  # |00>
        np.testing.assert_array_equal(unpack(quantum._apply(state, 2, 1, x), 2), [0, 1, 0, 0])  # LSB flipped
        np.testing.assert_array_equal(unpack(quantum._apply(state, 2, 0, x), 2), [0, 0, 1, 0])  # MSB flipped

    def test_pack_round_trips(self):
        vector = np.array([3, -3j, -1 + 2j, 0, -128, 127j, 1, -1])
        np.testing.assert_array_equal(unpack(pack(vector, 3), 3), vector)

    @pytest.mark.parametrize("shape", ["diagonal", "anti-diagonal", "general"])
    def test_matches_kronecker_operator_at_every_bit(self, shape):
        matrices = {name: m for name, m in KERNEL_MATRICES.items() if _shape(m) == shape}
        assert len(matrices) >= 2
        rng = np.random.default_rng(7)
        for name, m in matrices.items():
            gate = np.array(m, dtype=complex)
            for n in range(1, 8):
                for i in range(n):  # row i is index bit n - 1 - i
                    psi = rng.integers(-3, 4, 1 << n) + 1j * rng.integers(-3, 4, 1 << n)
                    full = np.kron(np.kron(np.eye(1 << i), gate), np.eye(1 << (n - 1 - i)))
                    got = unpack(quantum._apply(pack(psi, n), n, i, m), n)
                    np.testing.assert_array_equal(got, full @ psi, err_msg=f"{name} on row {i} of {n}")

    @pytest.mark.parametrize("name", [name for name, m in KERNEL_MATRICES.items() if _shape(m) == "diagonal"])
    def test_diagonal_on_a_real_state_matches_kronecker_operator_at_every_bit(self, name):
        # graph states are real, so most diagonal gates of a check meet an imaginary part of exactly 0
        m, rng = KERNEL_MATRICES[name], np.random.default_rng(11)
        gate = np.array(m, dtype=complex)
        for n in range(1, 8):
            for i in range(n):
                psi = rng.integers(-3, 4, 1 << n).astype(complex)
                packed = pack(psi, n)
                assert packed[1] == 0
                full = np.kron(np.kron(np.eye(1 << i), gate), np.eye(1 << (n - 1 - i)))
                got = quantum._apply(packed, n, i, m)
                np.testing.assert_array_equal(unpack(got, n), full @ psi, err_msg=f"{name} on row {i} of {n}")
                if not gate.imag.any():
                    assert got[1] == 0  # a real gate keeps the state real


def rank_one(u, v):
    """Whether ``v`` is a multiple of the nonzero ``u``: every 2x2 minor ``u_x v_y - u_y v_x`` is 0."""
    return bool(np.all(np.outer(u, v) == np.outer(v, u)))


class TestSameRay:
    """``quantum._same_ray`` against the rank of the two states stacked, with NumPy."""

    # u is 0 below its first nonzero field, which is negative (field 2) or purely imaginary (field 1)
    U = {"negative first field": [0, 0, -1, 2j, 1 - 1j, 0, -3, 1],
         "imaginary first field": [0, -1j, 1, 0, 2, -1 + 1j, 0, -2j]}
    LAMBDAS = (1, -1, 1j, -1j, 1 + 1j)

    @pytest.mark.parametrize("name", U)
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_a_multiple_is_on_the_ray(self, name, lam):
        u = np.array(self.U[name])
        v = lam * u
        assert rank_one(u, v)
        assert quantum._same_ray(pack(u, 3), pack(v, 3))

    @pytest.mark.parametrize("name", U)
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_a_negative_field_below_the_first_field_of_u_is_off_the_ray(self, name, lam):
        u = np.array(self.U[name])
        v = lam * u
        v[0] = -1  # u is 0 there, so v leaves the ray, and the field borrows from the ones above
        assert not rank_one(u, v)
        assert not quantum._same_ray(pack(u, 3), pack(v, 3))

    def test_random_pairs_match_the_rank(self):
        rng, hits = np.random.default_rng(29), 0
        for _ in range(3000):
            n = int(rng.integers(1, 6))
            u = rng.integers(-3, 4, 1 << n) + 1j * rng.integers(-3, 4, 1 << n)
            u[:rng.integers(0, 1 << n)] = 0  # u's first nonzero field anywhere
            if not u.any():
                continue
            lam = complex(*rng.integers(-1, 2, 2))
            v = lam * u
            v[rng.integers(0, 1 << n)] += complex(*rng.integers(-1, 2, 2)) * rng.integers(0, 2)
            assert quantum._same_ray(pack(u, n), pack(v, n)) is rank_one(u, v), (u, v)
            hits += rank_one(u, v)
        assert 1000 < hits < 2500


_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)


def _phase_free_key(m):
    """Canonical entries of a 2x2 matrix with its scalar stripped."""
    flat = np.array(m, dtype=complex).ravel()
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
                for word, m in cliffords.measurement_byproduct(basis, outcome, (1, 2, 3), 1, (4,)).values():
                    assert word == by_key[_phase_free_key(m)]
                    seen.add(word)
        assert len(seen) == 5  # Z, both roots of iZ and both roots of iY


class TestByproductRule:
    def test_closed_form_is_reported_though_a_lighter_correction_matches(self):
        g = path_graph(3)
        assert find_measurement_correction(g, 2, "x", +1) == {1: "SSH", 3: "SS"}
        # H on vertex 1 alone also maps the measured graph's state to the projection
        post = quantum._apply((state(g, g._alive), 0), 3, quantum._qubit(g._alive, 2), quantum._PROJECTORS["x", +1])
        image = (state(measure_x(g, 2, 1), g._alive), 0)
        assert quantum._same_ray(post, quantum._apply(image, 3, quantum._qubit(g._alive, 1), ((1, 1), (1, -1))))

    def test_no_match_raises(self, monkeypatch):
        monkeypatch.setattr(cliffords, "measurement_byproduct", lambda *args: {})
        assert find_measurement_correction(fig2(), 2, "z", +1) == {}
        with pytest.raises(CorrectionSearchExhausted, match="z- outcome at vertex 2"):
            find_measurement_correction(fig2(), 2, "z", -1)
        assert verify_measurement(fig2(), 2, "z") is False

    def test_a_wrong_z_plus_byproduct_is_caught(self, monkeypatch):
        # the identity is not tried first, so it cannot mask a wrong rule for z+
        rule = cliffords.measurement_byproduct

        def z_on_the_neighbors(basis, outcome, neighbors, *rest):
            return dict.fromkeys(neighbors, cliffords._Z) if basis == "z" else rule(basis, outcome, neighbors, *rest)

        monkeypatch.setattr(cliffords, "measurement_byproduct", z_on_the_neighbors)
        assert verify_measurement(fig2(), 2, "z") is False

    def test_identity_matches_exactly_where_the_closed_form_is_empty(self):
        # graph-state amplitudes are nonzero and of one size, so no non-empty
        # closed form fixes the measured state: one byproduct per outcome suffices
        checked = nonempty = 0
        for n in range(1, 6):
            for g in all_graphs(n):
                psi = (state(g, g._alive), 0)
                for a in g.vertices:
                    neighbors = tuple(sorted(g.neighbors(a)))
                    for basis in "xyz":
                        special = neighbors[0] if basis == "x" and neighbors else None
                        special_nbrs = () if special is None else tuple(sorted(g.neighbors(special) - {a}))
                        image = (measure_x(g, a, special) if basis == "x" else measure_y(g, a) if basis == "y"
                                 else measure_z(g, a))
                        target = (state(image, g._alive), 0)
                        for outcome in (+1, -1):
                            post = quantum._apply(psi, n, quantum._qubit(g._alive, a),
                                                  quantum._PROJECTORS[basis, outcome])
                            if post == (0, 0):
                                continue
                            byproduct = cliffords.measurement_byproduct(basis, outcome, neighbors,
                                                                        special, special_nbrs)
                            assert quantum._same_ray(post, target) is not bool(byproduct), (g, a, basis, outcome)
                            checked += 1
                            nonempty += bool(byproduct)
        assert checked == 32069 and nonempty > checked // 2


def test_a_check_builds_no_graph(monkeypatch):
    # images are rows from the rewrite kernel, never wrapped as a ``Graph``
    g, calls, wrap = fig2(), [], graph._graph
    monkeypatch.setattr(graph, "_graph", lambda *args: calls.append(args) or wrap(*args))
    assert verify_lc_unitary(g, 2)
    for basis in "xyz":
        for outcome in (+1, -1):
            assert find_measurement_correction(g, 2, basis, outcome) is not None
    assert calls == []


class TestStatesPerCheck:
    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        build = quantum._state

        def counting(rows, live, alive):
            calls.append(rows)
            return build(rows, live, alive)

        monkeypatch.setattr(quantum, "_state", counting)
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


class TestStateMemo:
    """``quantum._build`` keeps the recent states, keyed by rows, live mask and the alive mask of its qubits."""

    @staticmethod
    def build(g, alive):
        return quantum._build.__wrapped__(g._rows, g._alive, alive)  # the same code without the memo

    def test_the_cap_is_checked_on_a_cached_state(self, monkeypatch):
        g = complete_graph(5)
        graph_state(g)
        monkeypatch.setattr(quantum, "STATE_CAP", 4)
        with pytest.raises(StateCapError):
            graph_state(g)
        with pytest.raises(StateCapError):
            verify_lc_unitary(g, 1)
        with pytest.raises(UnknownVertexError):  # an unknown vertex is reported before the cap
            verify_lc_unitary(g, 9)
        with pytest.raises(UnknownVertexError):
            find_measurement_correction(g, 9, "z", +1)

    def test_equal_rows_on_two_label_sets_are_two_states(self):
        one, other, alive = Graph([3]), Graph([1, 3]), Graph([1, 3])._alive
        assert one._rows == other._rows  # the live masks alone tell them apart
        assert state(one, alive) == self.build(one, alive)
        assert state(other, alive) == self.build(other, alive)
        assert state(one, alive) != state(other, alive)

    def test_an_image_has_one_state_per_layout(self):
        g = path_graph(3)
        image = measure_z(g, 2)
        assert find_measurement_correction(g, 2, "z", -1) == {1: "SS", 3: "SS"}  # image on g's layout
        assert_bit_identical(image)  # image on its own layout
        assert state(image, g._alive) == self.build(image, g._alive)
        assert state(image, image._alive) == self.build(image, image._alive)
        assert state(image, g._alive) != state(image, image._alive)

    def test_a_cached_graph_state_is_bit_identical(self):
        quantum._build.cache_clear()
        for _ in range(2):
            assert_bit_identical(fig2())
        assert quantum._build.cache_info()[:2] == (1, 1)  # hits, misses

    def test_one_vertex_sweep_builds_five_states(self):
        # fig2 at 2: the graph, its local complement and three distinct images
        quantum._build.cache_clear()
        assert verify_lc_unitary(fig2(), 2)
        for basis in "xyz":
            for outcome in (+1, -1):
                assert find_measurement_correction(fig2(), 2, basis, outcome) is not None
        assert quantum._build.cache_info().misses == 5


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


# per bound, the offset fields -bound..bound
_WITHIN = [bytes(range(128 - bound, min(129 + bound, 256))) for bound in range(129)]


@functools.cache  # the corpus repeats most states
def peak(raw):
    """The largest field magnitude in one part given by ``offset_fields``."""
    return next(bound for bound, within in enumerate(_WITHIN) if not raw.translate(None, within))


def test_fields_stay_within_the_documented_bound(monkeypatch):
    """Every field a check forms is at most 4 in real and imaginary part, as
    ``quantum``'s docstring states: far inside the -128..127 that the masks
    need. The cross-multiplied fields are bounded from their factors."""
    largest, qubits = [0], [0]
    apply, same_ray = quantum._apply, quantum._same_ray

    def recording_apply(state, n, i, gate):
        out = apply(state, n, i, gate)
        largest[0], qubits[0] = max(largest[0], *map(peak, offset_fields(state, n) + offset_fields(out, n))), n
        return out

    def recording_same_ray(u, v):
        n = qubits[0]  # a check compares a state it has just applied a matrix to
        uu, vv = offset_fields(u, n), offset_fields(v, n)
        f = min(len(raw) - len(raw.lstrip(b"\x80")) for raw in uu)  # u's first nonzero field
        for (ar, ai), (br, bi) in ((uu, vv), (vv, uu)):  # the fields of a * b_f
            fr, fi = abs(br[f] - 128), abs(bi[f] - 128)
            largest[0] = max(largest[0], peak(ar) * fr + peak(ai) * fi, peak(ar) * fi + peak(ai) * fr)
        return same_ray(u, v)

    monkeypatch.setattr(quantum, "_apply", recording_apply)
    monkeypatch.setattr(quantum, "_same_ray", recording_same_ray)
    for g in _correction_corpus():  # every connected graph on n <= 5, then 200 on n = 6..9
        for a in g.vertices:
            assert verify_lc_unitary(g, a)
            for basis in "xyz":
                assert verify_measurement(g, a, basis)
    assert largest[0] == 4


def test_bool_vertex_is_an_unknown_label():
    with pytest.raises(UnknownVertexError):
        verify_lc_unitary(path_graph(3), True)
    with pytest.raises(UnknownVertexError):
        find_measurement_correction(path_graph(3), True, "z", +1)


def test_the_match_threshold_takes_no_argument():
    with pytest.raises(TypeError):
        verify_lc_unitary(fig2(), 2, 1e-10)
    with pytest.raises(TypeError):
        find_measurement_correction(fig2(), 2, "z", -1, tol=1e-10)
