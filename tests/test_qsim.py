"""Statevector core: states, gates, circuits, sampling, evolution."""
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from branchkit.complexity import _enumeration
from branchkit.dynamics import mixed_field_ising, xxz_chain
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
    _sector_block,
    _trotter_sweep,
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

    @pytest.mark.parametrize("amps", [[np.nan, 0], [1, np.nan],
                                      [complex(0, np.nan), 0]])
    def test_nan_amplitude_rejected(self, amps):
        with pytest.raises(ValueError, match="state norm .*nan"):
            QuantumState(1, np.array(amps))

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

    @pytest.mark.parametrize("targets", [(0,), (0, 1)])
    def test_nan_matrix_rejected(self, targets):
        mat = np.eye(2 ** len(targets), dtype=complex)
        mat[0, -1] = np.nan
        with pytest.raises(ValueError, match="unitary"):
            GateOp(targets, mat)

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


def tensordot_gate_block(block, n_qubits, targets, matrix):
    """apply_gate_block as np.tensordot and np.moveaxis write it."""
    single = block.ndim == 1
    cols = 1 if single else block.shape[1]
    k = len(targets)
    psi = block.reshape((2,) * n_qubits + (cols,))
    psi = np.tensordot(matrix.reshape((2,) * (2 * k)), psi,
                       axes=(tuple(range(k, 2 * k)), targets))
    out = np.moveaxis(psi, tuple(range(k)), targets).reshape(2**n_qubits, cols)
    return out[:, 0] if single else out


@pytest.mark.parametrize("n", [3, 8])
def test_gate_kernel_is_bitwise_the_tensordot_product(n):
    """Every alphabet gate and its adjoint (a Fortran-ordered matrix), and a
    random 4x4 on (0, n-1) in both target orders, on 1-D and 2-D blocks."""
    rng = np.random.default_rng(n)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4))
                        + 1j * rng.standard_normal((4, 4)))
    gates = [(g.targets, g.matrix) for g in _enumeration(n).gates]
    gates += [((0, n - 1), u), ((n - 1, 0), u)]
    for shape in ((2**n,), (2**n, 1), (2**n, 3)):
        block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for targets, matrix in gates:
            for m in (matrix, matrix.conj().T):
                assert np.array_equal(
                    apply_gate_block(block, n, targets, m),
                    tensordot_gate_block(block, n, targets, m))


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
        assert len(random_circuit(4, 0, 1).gates) == 0

    def test_gate_count(self):
        assert len(random_circuit(4, 3, 7).gates) == 6
        assert len(random_circuit(5, 3, 7).gates) == 6  # odd qubit idles

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

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, coeff):
        with pytest.raises(ValueError, match="'XZ'.*non-finite"):
            Hamiltonian(2, ((1.0, "ZZ"), (coeff, "XZ")))

    @pytest.mark.parametrize("method,steps", [("exact", None), ("trotter", 4)])
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, method, steps, t):
        h = Hamiltonian(2, ((1.0, "ZZ"), (0.5, "XI")))
        with pytest.raises(ValueError, match="time t must be finite"):
            evolve(QuantumState.zero(2), h, t, method=method, steps=steps)

    @pytest.mark.parametrize("method", ["exact", "trotter"])
    @pytest.mark.parametrize("steps", [2.5, 0, -3, "4", 4.0])
    def test_steps_must_be_a_positive_int(self, method, steps):
        with pytest.raises(ValueError, match="steps must be an int >= 1"):
            evolve(QuantumState.zero(1), self.field(), 1.0, method=method,
                   steps=steps)


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


def is_even_y(h: Hamiltonian) -> bool:
    return all(p.count("Y") % 2 == 0 for _, p in h.terms)


def even_y(h: Hamiltonian) -> Hamiltonian:
    """h with the first Y of every odd-Y term read as X: a real Hamiltonian."""
    return Hamiltonian(h.n_qubits, tuple(
        (c, p.replace("Y", "X", 1) if p.count("Y") % 2 else p)
        for c, p in h.terms))


def spectral_scale(h: Hamiltonian) -> float:
    """An upper bound on the operator norm, at least 1."""
    return max(1.0, sum(abs(c) for c, _ in h.terms))


@settings(max_examples=100, deadline=None)
@given(pauli_sums().map(even_y))
@example(Hamiltonian(3, ((-1.5, "XII"), (1e-160, "YYI"), (7.72e-162, "ZZZ"),
                         (1.5, "XZZ"))))
def test_even_y_sums_take_a_real_eigh(h):
    mat, scale = h.to_matrix(), spectral_scale(h)
    vals, vecs = h.eigensystem()
    assert vecs.dtype == np.float64
    # eigh's eigenvalues: eigvalsh reads +-2.98067 for +-3 on the example
    assert np.allclose(vals, np.linalg.eigh(mat)[0], rtol=0, atol=1e-10 * scale)
    assert np.allclose(vecs.T @ vecs, np.eye(len(vals)), rtol=0, atol=1e-10)
    assert np.allclose((vecs * vals) @ vecs.T, mat, rtol=0, atol=1e-10 * scale)


def assert_merged_block_eigh(h: Hamiltonian, mat: np.ndarray, vals, vecs):
    """vals and vecs are each sector block's eigh, bit for bit: the block
    eigenvalues merged by a stable sort, the block eigenvectors written on
    the sector's basis states, and exact zeros on every other state."""
    sectors = h._sectors(mat)
    eigs = [np.linalg.eigh(_sector_block(mat, *s)) for s in sectors]
    order = np.argsort(np.concatenate([w for w, _ in eigs]), kind="stable")
    column, start = np.argsort(order), 0
    for (a, b, sign), (w, v) in zip(sectors, eigs):
        cols = column[start:start + len(w)]
        start += len(w)
        assert np.array_equal(vals[cols], w)
        v = v / np.where(a == b, 1.0, np.sqrt(2.0))[:, None]
        assert np.array_equal(vecs[np.ix_(a, cols)], v)
        assert np.array_equal(vecs[np.ix_(b, cols)], sign * v)
        rest = np.setdiff1d(np.arange(len(mat)), np.union1d(a, b))
        assert not vecs[np.ix_(rest, cols)].any()


@settings(max_examples=100, deadline=None)
@given(pauli_sums().filter(lambda h: not is_even_y(h)))
def test_odd_y_sums_keep_the_complex_eigh(h):
    mat, scale = h.to_matrix(), spectral_scale(h)
    vals, vecs = h.eigensystem()
    assert vecs.dtype == np.complex128
    assert np.allclose((vecs * vals) @ vecs.conj().T, mat, rtol=0,
                       atol=1e-10 * scale)
    if len(h._sectors(mat)) == 1:
        # one sector: a plain eigh of the dense matrix, bit for bit
        assert all(map(np.array_equal, (vals, vecs), np.linalg.eigh(mat)))
    else:
        assert_merged_block_eigh(h, mat, vals, vecs)
    state = haar_random_state(h.n_qubits, 3)
    want = vecs @ (np.exp(-0.9j * vals) * (vecs.conj().T @ state.amplitudes))
    assert np.array_equal(evolve(state, h, 0.9).amplitudes, want)


def symmetries(h: Hamiltonian) -> tuple[bool, bool]:
    """(commutes with qubit reversal, conserves popcount), from the plain
    definitions: the reversed terms are the terms, and H has no entry
    between states of different popcount."""
    count = np.bitwise_count(np.arange(2**h.n_qubits))
    reversed_terms = sorted((c, p[::-1]) for c, p in h.terms)
    return (sorted(h.terms) == reversed_terms,
            not h.to_matrix()[count[:, None] != count].any())


@st.composite
def mirrored_sums(draw, even: bool):
    """Sums on 2 or more qubits that commute with qubit reversal: each drawn
    term next to its reversed string at the same coefficient, in a drawn
    order."""
    sums = pauli_sums().filter(lambda h: h.n_qubits > 1)
    base = draw(sums.map(even_y) if even else
                sums.filter(lambda h: not is_even_y(h)))
    terms = [t for c, p in base.terms for t in ((c, p), (c, p[::-1]))]
    return Hamiltonian(base.n_qubits, tuple(draw(st.permutations(terms))))


@st.composite
def hopping_sums(draw, even: bool):
    """Sums that conserve popcount: XX + YY hops (or XY - YX ones, odd in
    Y), ZZ and Z, each hop's two terms adjacent so that they cancel exactly
    between states of different popcount."""
    n = draw(st.integers(2, 6))
    coeffs = st.floats(-3, 3, allow_nan=False)

    def word(i, j, x, y):
        letters = ["I"] * n
        letters[i], letters[j] = x, y
        return "".join(letters)

    terms = []
    for _ in range(draw(st.integers(1, 5))):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(coeffs)
        terms += draw(st.sampled_from([
            [(c, word(i, j, "X", "X")), (c, word(i, j, "Y", "Y"))],
            [(c, word(i, j, "Z", "Z"))],
            [(c, word(i, j, "Z", "I"))],
        ] + ([] if even else
             [[(c, word(i, j, "X", "Y")), (-c, word(i, j, "Y", "X"))]])))
    if not even and is_even_y(Hamiltonian(n, tuple(terms))):
        c = draw(coeffs)
        terms += [(c, "I" * (n - 2) + "XY"), (-c, "I" * (n - 2) + "YX")]
    return Hamiltonian(n, tuple(terms))


def symmetric_sums():
    return st.one_of(*(family(even) for family in (mirrored_sums, hopping_sums)
                       for even in (True, False)))


@settings(max_examples=200, deadline=None)
@given(symmetric_sums())
@example(Hamiltonian(3, ((1.5, "XXI"), (1.5, "YYI"), (7.72147750711234e-162, "IXY"),
                         (-7.72147750711234e-162, "IYX"))))
def test_symmetric_sums_split_and_match_the_plain_spectrum(h):
    mat, scale = h.to_matrix(), spectral_scale(h)
    assert any(symmetries(h)) and len(h._sectors(mat)) > 1
    vals, vecs = h.eigensystem()
    assert vecs.dtype == (np.float64 if is_even_y(h) else np.complex128)
    assert np.all(np.diff(vals) >= 0)
    # eigh's, not eigvalsh's, eigenvalues: LAPACK's eigenvalue-only path
    # works with squared entries, and a coefficient near 1e-162 underflows
    # there (1.5 (XXI + YYI) + 7.7e-162 (IXY - IYX) reads +-3.098 for +-3)
    want = np.linalg.eigh(mat)[0]
    assert np.allclose(vals, want, rtol=0, atol=1e-10 * scale)
    eye = np.eye(len(vals))
    assert np.allclose(vecs.conj().T @ vecs, eye, rtol=0, atol=1e-10)
    assert np.allclose((vecs * vals) @ vecs.conj().T, mat, rtol=0,
                       atol=1e-10 * scale)
    assert_merged_block_eigh(h, mat.real if is_even_y(h) else mat, vals, vecs)


def assert_plain_eigh(h: Hamiltonian):
    mat = h.to_matrix()
    want = np.linalg.eigh(mat.real if is_even_y(h) else mat)
    assert all(map(np.array_equal, h.eigensystem(), want))


@settings(max_examples=200, deadline=None)
@given(pauli_sums().filter(lambda h: not any(symmetries(h))))
def test_sums_without_a_symmetry_are_a_plain_eigh(h):
    assert_plain_eigh(h)


@settings(max_examples=200, deadline=None)
@given(symmetric_sums(), st.data())
def test_one_ulp_off_a_symmetry_is_a_plain_eigh(h, data):
    k = data.draw(st.integers(0, len(h.terms) - 1))
    terms = list(h.terms)
    c, p = terms[k]
    terms[k] = (np.nextafter(c, np.inf), p)
    nudged = Hamiltonian(h.n_qubits, tuple(terms))
    assume(not any(symmetries(nudged)))
    assert_plain_eigh(nudged)


@pytest.mark.parametrize("chain", [mixed_field_ising, xxz_chain])
def test_one_ulp_off_a_chain_is_a_plain_eigh(chain):
    # a nudged ZZ (Ising) or XX (XXZ) bond breaks reversal and popcount
    h = chain(5)
    (c, p), *rest = h.terms
    assert_plain_eigh(Hamiltonian(5, ((np.nextafter(c, 2.0), p), *rest)))


def test_real_chains_keep_real_arithmetic():
    # the real eigh is about 8x faster at n=10: a complex dtype here means
    # the real path was lost
    for h in (mixed_field_ising(6), xxz_chain(6)):
        assert h.eigensystem()[1].dtype == np.float64
    one_y = Hamiltonian(2, ((0.5, "ZZ"), (1.0, "YI")))
    assert one_y.eigensystem()[1].dtype == np.complex128
    block = np.random.default_rng(2).standard_normal((8, 3))
    assert apply_pauli_string(block, 3, "YZY").dtype == np.float64
    assert apply_pauli_string(block, 3, "XYZ").dtype == np.complex128


@pytest.mark.parametrize("chain", [mixed_field_ising, xxz_chain])
def test_exact_evolve_on_real_eigenvectors_matches_the_complex_formula(chain):
    h, state = chain(6), haar_random_state(6, 11)
    vals, vecs = np.linalg.eigh(h.to_matrix())
    for t in (0.0, 0.7, -2.5):
        want = vecs @ (np.exp(-1j * vals * t) * (vecs.conj().T @ state.amplitudes))
        got = evolve(state, h, t).amplitudes
        assert np.allclose(got, want, rtol=0, atol=1e-10)


def oracle_pauli(amps: np.ndarray, n: int, pauli: str) -> np.ndarray:
    """A Pauli string applied letter by letter as single-qubit gates."""
    for q, ch in enumerate(pauli):
        if ch != "I":
            amps = apply_gate_block(amps, n, (q,), PAULI[ch])
    return amps


def oracle_trotter(state: QuantumState, h: Hamiltonian, t: float,
                   steps: int, pauli_op=oracle_pauli) -> np.ndarray:
    """Strang splitting over the terms, each exp(-i theta P) with P applied by
    `pauli_op` afresh for every term of every half step."""
    dt, amps = t / steps, state.amplitudes
    for _ in range(steps):
        for coeff, pauli in h.terms + h.terms[::-1]:
            theta = coeff * dt / 2
            amps = (np.cos(theta) * amps - 1j * np.sin(theta)
                    * pauli_op(amps, h.n_qubits, pauli))
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


def assert_matches_the_oracle(got: np.ndarray, want: np.ndarray,
                              h: Hamiltonian):
    """The oracle's bits when every term has an X or Y letter. A run of
    adjacent I/Z-only terms is one phase, exp(-i sum theta_k d_k), whose
    summed angle moves the result at rounding level only."""
    if any(set(p) <= set("IZ") for _, p in h.terms):
        assert np.max(np.abs(got - want)) <= 1e-12
    else:
        assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(trotter_cases())
def test_trotter_evolve_matches_the_oracle_loop(case):
    state, h, t, steps = case
    got = evolve(state, h, t, method="trotter", steps=steps).amplitudes
    assert_matches_the_oracle(got, oracle_trotter(state, h, t, steps), h)


@pytest.mark.parametrize("steps", [1, 3, 20])
@pytest.mark.parametrize("chain", [mixed_field_ising, xxz_chain])
def test_trotter_evolve_matches_per_term_pauli_strings(chain, steps):
    # XXZ carries Y letters; each term's action is built once per call, and
    # the result matches applying every term's string afresh
    state, h = haar_random_state(6, 5), chain(6)
    got = evolve(state, h, 0.7, method="trotter", steps=steps).amplitudes
    assert_matches_the_oracle(
        got, oracle_trotter(state, h, 0.7, steps, apply_pauli_string), h)


@st.composite
def iz_sums(draw):
    """Sums of I/Z-only strings, whose Trotter factors are all diagonal."""
    n = draw(st.integers(1, 5))
    terms = draw(st.lists(
        st.tuples(st.floats(-3, 3, allow_nan=False),
                  st.text("IZ", min_size=n, max_size=n)),
        min_size=1, max_size=6))
    return Hamiltonian(n, tuple(terms))


@settings(max_examples=100, deadline=None)
@given(iz_sums(), st.floats(-2, 2, allow_nan=False), st.integers(1, 5),
       st.integers(0, 1000))
def test_trotter_evolve_of_an_iz_sum_is_its_diagonal_phase(h, t, steps, seed):
    # every factor is diagonal, so the slices are exact: one phase per slice
    state = haar_random_state(h.n_qubits, seed)
    got = evolve(state, h, t, method="trotter", steps=steps).amplitudes
    want = np.exp(-1j * t * np.diagonal(h.to_matrix()).real) * state.amplitudes
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("chain, factors, gathers", [
    (mixed_field_ising, 49, 24), (xxz_chain, 65, 44)])
def test_trotter_sweep_merges_adjacent_iz_runs(chain, factors, gathers):
    # Ising: the ZZ bonds make one run at each end, and the two Z fields on
    # the last qubit meet in the middle; XXZ: only the last ZZ bond meets
    # itself. Every X/Y factor keeps its gather.
    sweep = _trotter_sweep(chain(12), 0.02)
    assert len(sweep) == factors
    assert sum(src is not None for _, src, _ in sweep) == gathers


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
