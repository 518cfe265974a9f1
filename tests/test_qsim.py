"""Statevector core: states, gates, circuits, sampling, evolution."""
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchkit.qsim import (
    CNOT,
    GATES_1Q,
    PAULI,
    Circuit,
    GateOp,
    Hamiltonian,
    QuantumState,
    apply_circuit,
    apply_gate_block,
    apply_pauli_string,
    evolve,
    expectation,
    haar_random_state,
    inner_product,
    random_circuit,
)

SQ2 = 1 / math.sqrt(2)


def bell_circuit():
    return Circuit(2, (GateOp((0,), GATES_1Q["H"], "H"),
                       GateOp((0, 1), CNOT, "CNOT")))


class TestStates:
    def test_basis_and_zero(self):
        s = QuantumState.basis(3, 5)
        assert s.amplitudes[5] == 1.0
        assert np.count_nonzero(s.amplitudes) == 1
        assert QuantumState.zero(2).amplitudes[0] == 1.0

    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            QuantumState(1, np.array([1.0, 1.0]))

    def test_length_must_match_qubits(self):
        with pytest.raises(ValueError):
            QuantumState(2, np.array([1.0, 0.0]))

    def test_amplitudes_frozen(self):
        s = QuantumState.zero(1)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0


class TestGatesAndCircuits:
    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            GateOp((0,), np.array([[1, 0], [0, 2]], dtype=complex))

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            GateOp((1, 1), CNOT)

    def test_out_of_range_target_rejected(self):
        with pytest.raises(ValueError, match="range"):
            Circuit(1, (GateOp((0, 1), CNOT),))

    def test_empty_circuit_is_identity(self):
        s = haar_random_state(3, 11)
        out = apply_circuit(s, Circuit(3))
        assert np.allclose(out.amplitudes, s.amplitudes)

    def test_x_flips(self):
        out = apply_circuit(QuantumState.zero(1),
                            Circuit(1, (GateOp((0,), GATES_1Q["X"]),)))
        assert np.allclose(out.amplitudes, [0, 1])

    def test_bell_construction(self):
        # CNOT(0,1) on (|00> + |10>)/sqrt(2) gives (|00> + |11>)/sqrt(2)
        out = apply_circuit(QuantumState.zero(2), bell_circuit())
        assert np.allclose(out.amplitudes, [SQ2, 0, 0, SQ2])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="qubits"):
            apply_circuit(QuantumState.zero(3), bell_circuit())

    def test_inverse_restores(self):
        c = random_circuit(4, 3, seed=5)
        s = haar_random_state(4, 17)
        back = apply_circuit(apply_circuit(s, c), c.inverse())
        assert abs(inner_product(back, s)) ** 2 >= 1 - 1e-8

    def test_norm_preserved_by_random_circuits(self):
        for seed in range(5):
            c = random_circuit(5, 4, seed)
            out = apply_circuit(haar_random_state(5, seed + 50), c)
            assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-8

    def test_to_matrix_matches_application(self):
        c = random_circuit(3, 2, seed=9)
        s = haar_random_state(3, 21)
        assert np.allclose(c.to_matrix() @ s.amplitudes,
                           apply_circuit(s, c).amplitudes)

    def test_gate_block_on_matrix_columns(self):
        block = np.column_stack([QuantumState.zero(2).amplitudes,
                                 QuantumState.basis(2, 3).amplitudes])
        out = apply_gate_block(block, 2, (0,), GATES_1Q["X"])
        assert np.allclose(out[:, 0], QuantumState.basis(2, 2).amplitudes)
        assert np.allclose(out[:, 1], QuantumState.basis(2, 1).amplitudes)


class TestInnerProduct:
    def test_orthonormal_basis(self):
        z, o = QuantumState.basis(1, 0), QuantumState.basis(1, 1)
        assert inner_product(z, z) == pytest.approx(1)
        assert inner_product(z, o) == pytest.approx(0)

    def test_hadamard_column(self):
        h = Circuit(1, (GateOp((0,), GATES_1Q["H"]),))
        out = apply_circuit(QuantumState.zero(1), h)
        assert abs(inner_product(QuantumState.zero(1), out)) == pytest.approx(SQ2)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(QuantumState.zero(1), QuantumState.zero(2))


class TestHaar:
    def test_deterministic(self):
        assert np.array_equal(haar_random_state(1, 3).amplitudes,
                              haar_random_state(1, 3).amplitudes)

    def test_normalized(self):
        assert abs(np.linalg.norm(haar_random_state(6, 0).amplitudes) - 1) < 1e-10

    def test_range(self):
        with pytest.raises(ValueError):
            haar_random_state(0, 1)
        with pytest.raises(ValueError):
            haar_random_state(15, 1)

    def test_zero_overlap_moment(self):
        # mean of |<0...0|eta>|^2 over many seeds approaches 1/2^n
        n, trials = 6, 10_000
        vals = np.array([abs(haar_random_state(n, s).amplitudes[0]) ** 2
                         for s in range(trials)])
        mean, se = vals.mean(), vals.std(ddof=1) / math.sqrt(trials)
        assert abs(mean - 1 / 2**n) <= 3 * se


class TestRandomCircuit:
    def test_depth_zero_empty(self):
        assert random_circuit(4, 0, 1).gate_count == 0

    def test_gate_count(self):
        assert random_circuit(4, 3, 7).gate_count == 6
        assert random_circuit(5, 3, 7).gate_count == 6  # odd qubit idles

    def test_deterministic(self):
        c1, c2 = random_circuit(4, 3, 13), random_circuit(4, 3, 13)
        assert all(np.array_equal(g1.matrix, g2.matrix)
                   and g1.targets == g2.targets
                   for g1, g2 in zip(c1.gates, c2.gates))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            random_circuit(1, 2, 0)
        with pytest.raises(ValueError):
            random_circuit(3, -1, 0)


class TestEvolution:
    def field(self, n=1):
        return Hamiltonian(n, ((1.0, "Z" + "I" * (n - 1)),))

    def test_t_zero_identity(self):
        s = haar_random_state(2, 4)
        out = evolve(s, Hamiltonian(2, ((0.5, "XZ"),)), 0.0)
        assert np.allclose(out.amplitudes, s.amplitudes)

    def test_global_phase_on_eigenstate(self):
        out = evolve(QuantumState.zero(1), self.field(), math.pi)
        assert abs(inner_product(out, QuantumState.zero(1))) == pytest.approx(1)
        assert out.amplitudes[0] == pytest.approx(-1)  # e^{-i pi}

    def test_energy_conserved(self):
        h = Hamiltonian(3, ((1.0, "ZZI"), (0.7, "XII"), (-0.4, "IYZ")))
        s = haar_random_state(3, 8)
        before = expectation(h, s)
        after = expectation(h, evolve(s, h, 2.3))
        assert abs(before - after) <= 1e-8

    def test_oversize_exact_rejected(self):
        h = Hamiltonian(13, ((1.0, "Z" * 13),))
        with pytest.raises(ValueError, match="trotter"):
            evolve(QuantumState.zero(13), h, 0.1)

    def test_trotter_matches_exact(self):
        h = Hamiltonian(3, ((1.0, "ZZI"), (0.9, "IXX"), (0.5, "YIZ")))
        s = haar_random_state(3, 2)
        exact = evolve(s, h, 0.8)
        trot = evolve(s, h, 0.8, method="trotter", steps=400)
        assert abs(inner_product(exact, trot)) ** 2 > 1 - 1e-6

    def test_trotter_second_order_scaling(self):
        # halving the step size should cut the error roughly fourfold
        h = Hamiltonian(2, ((1.0, "ZZ"), (0.8, "XI"), (0.3, "IY")))
        s = haar_random_state(2, 6)
        exact = evolve(s, h, 1.0)

        def err(steps):
            t = evolve(s, h, 1.0, method="trotter", steps=steps)
            return np.linalg.norm(t.amplitudes - exact.amplitudes)

        assert err(40) / err(80) > 2.5

    def test_trotter_needs_steps(self):
        with pytest.raises(ValueError, match="steps"):
            evolve(QuantumState.zero(1), self.field(), 1.0, method="trotter")

    def test_bad_pauli_rejected(self):
        with pytest.raises(ValueError):
            Hamiltonian(2, ((1.0, "ZA"),))


def kron_matrix(h: Hamiltonian) -> np.ndarray:
    """The dense sum of Kronecker products, term by term in order."""
    out = np.zeros((2**h.n_qubits,) * 2, dtype=complex)
    for coeff, pauli in h.terms:
        out += coeff * reduce(np.kron, (PAULI[ch] for ch in pauli))
    return out


@st.composite
def pauli_sums(draw):
    n = draw(st.integers(1, 6))
    strings = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n),
                            min_size=1, max_size=4))
    coeffs = (st.floats(-3, 3, allow_nan=False)
              | st.sampled_from([0.0, -0.0, -1.0, 1.0]))
    terms = draw(st.lists(st.tuples(coeffs, st.sampled_from(strings)),
                          min_size=1, max_size=8))
    return Hamiltonian(n, tuple(terms))


@settings(max_examples=200, deadline=None)
@given(pauli_sums())
def test_to_matrix_is_bitwise_the_kron_sum(h):
    got, want = h.to_matrix().view(float), kron_matrix(h).view(float)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def oracle_pauli(amps: np.ndarray, n: int, pauli: str) -> np.ndarray:
    """A Pauli string applied letter by letter as single-qubit gates."""
    for q, ch in enumerate(pauli):
        if ch != "I":
            amps = apply_gate_block(amps, n, (q,), PAULI[ch])
    return amps


def oracle_trotter(state: QuantumState, h: Hamiltonian, t: float,
                   steps: int) -> np.ndarray:
    """Strang splitting over the terms, each exp(-i theta P) from oracle_pauli."""
    dt, amps = t / steps, state.amplitudes
    for _ in range(steps):
        for coeff, pauli in h.terms + h.terms[::-1]:
            theta = coeff * dt / 2
            amps = (np.cos(theta) * amps - 1j * np.sin(theta)
                    * oracle_pauli(amps, h.n_qubits, pauli))
    return amps / np.linalg.norm(amps)


@st.composite
def pauli_blocks(draw):
    """A Pauli string with a vector or (2**n, k) block, some entries zeroed."""
    n = draw(st.integers(1, 6))
    pauli = draw(st.text("IXYZ", min_size=n, max_size=n))
    k = draw(st.sampled_from([None, 1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (2**n,) if k is None else (2**n, k)
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    amps[rng.random(shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    return n, pauli, amps


@settings(max_examples=300, deadline=None)
@given(pauli_blocks())
def test_apply_pauli_string_matches_the_letter_loop(case):
    # equal values; the sign of a zero amplitude may differ
    n, pauli, amps = case
    got = apply_pauli_string(amps, n, pauli)
    assert got.shape == amps.shape
    assert np.array_equal(got, oracle_pauli(amps, n, pauli))


@st.composite
def trotter_cases(draw):
    n = draw(st.integers(3, 4))
    terms = draw(st.lists(
        st.tuples(st.floats(-2, 2, allow_nan=False),
                  st.text("IXYZ", min_size=n, max_size=n)),
        min_size=1, max_size=5))
    t = draw(st.floats(-2, 2, allow_nan=False))
    return (haar_random_state(n, draw(st.integers(0, 1000))),
            Hamiltonian(n, tuple(terms)), t, draw(st.integers(1, 4)))


@settings(max_examples=60, deadline=None)
@given(trotter_cases())
def test_trotter_evolve_matches_the_oracle_loop(case):
    state, h, t, steps = case
    got = evolve(state, h, t, method="trotter", steps=steps).amplitudes
    assert np.array_equal(got, oracle_trotter(state, h, t, steps))


@pytest.mark.parametrize("pauli", ["XX", "XXXX", "xii", "IAI"])
def test_bad_pauli_string_named(pauli):
    with pytest.raises(ValueError, match=repr(pauli)):
        apply_pauli_string(QuantumState.zero(3).amplitudes, 3, pauli)
    with pytest.raises(ValueError, match=repr(pauli)):
        Hamiltonian(3, ((1.0, pauli),))


@pytest.mark.parametrize("length", [4, 16])
def test_amplitude_count_must_match_qubits(length):
    with pytest.raises(ValueError, match="amplitudes"):
        apply_pauli_string(np.ones(length, dtype=complex), 3, "XII")
