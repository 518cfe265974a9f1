"""Worked-example constructors: validity, determinism, known witnesses."""
import math

import numpy as np
import pytest

from branchkit import fixtures as fx
from branchkit.branches import validate_decomposition
from branchkit.complexity import (
    ComplexityKind,
    ComplexityQuery,
    brute_force_estimate,
    constructive_estimate,
    objective_value,
)
from branchkit.qsim import QuantumState, haar_random_state, inner_product

K_D = ComplexityKind.DISTINGUISHABILITY
K_I = ComplexityKind.INTERFERENCE
SQ2 = 1 / math.sqrt(2)


class TestGhz:
    def test_standard_cat(self):
        f = fx.ghz(3)
        assert np.allclose(f.decomposition.parent.amplitudes[[0, 7]],
                           [SQ2, SQ2])
        assert validate_decomposition(f.decomposition).ok

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError, match="zero-weight"):
            fx.ghz(3, alpha=1.0, beta=0.0)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="equal 1"):
            fx.ghz(3, alpha=0.9, beta=0.9)

    def test_bell_interference_cost_one(self):
        f = fx.ghz(2)
        a, b = f.pair()
        est = brute_force_estimate(ComplexityQuery(K_I, a, b, 0.1, max_size=2))
        assert (est.lower_bound, est.upper_bound) == (1, 1)

    def test_witnesses_verify(self):
        f = fx.ghz(4)
        a, b = f.pair()
        xw = f.known_witnesses[K_I][0]
        zw = f.known_witnesses[K_D][0]
        assert objective_value(K_I, xw, a, b) == pytest.approx(2)
        assert objective_value(K_D, zw, a, b) == pytest.approx(2)


class TestProductPlusRandom:
    def test_orthogonalized_component(self):
        f = fx.product_plus_random(5, seed=3)
        zero, eta = f.pair()
        assert abs(inner_product(zero, eta)) <= 1e-12
        assert abs(eta.amplitudes[0]) <= 1e-12

    def test_deterministic(self):
        f1 = fx.product_plus_random(5, seed=9)
        f2 = fx.product_plus_random(5, seed=9)
        assert np.array_equal(f1.decomposition.parent.amplitudes,
                              f2.decomposition.parent.amplitudes)

    def test_full_weight_rejected(self):
        with pytest.raises(ValueError, match="zero-weight"):
            fx.product_plus_random(4, alpha=1.0, beta=0.0, seed=0)

    def test_z_marker_distinguishes_at_moderate_accuracy(self):
        # the product arm is pinned to +1 while the random arm averages to
        # roughly zero, so the single-gate marker reaches about half of the
        # objective range
        f = fx.product_plus_random(6, seed=6)
        a, b = f.pair()
        q = ComplexityQuery(K_D, a, b, 0.45)
        est = constructive_estimate(q, f.known_witnesses[K_D])
        assert est.upper_bound == 1
        assert est.achieved_value >= 0.9


class TestTwoRandomCircuits:
    def test_depth_zero_first_arm_is_product(self):
        f = fx.two_random_circuits(4, 0, 4, seed=0)
        first, _ = f.pair()
        assert abs(first.amplitudes[0]) == pytest.approx(1)

    def test_deterministic_and_overlap_recorded(self):
        f1 = fx.two_random_circuits(4, 2, 3, seed=5)
        f2 = fx.two_random_circuits(4, 2, 3, seed=5)
        assert np.array_equal(f1.decomposition.parent.amplitudes,
                              f2.decomposition.parent.amplitudes)
        assert "raw_overlap" in f1.expected

    def test_identical_shallow_circuits_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            fx.two_random_circuits(4, 0, 0, seed=1)
        with pytest.raises(ValueError, match="overlap"):
            fx.two_random_circuits(4, 0, 4, seed=2)  # seeded near-miss

    def test_inverse_then_forward_witness_interferes(self):
        f = fx.two_random_circuits(4, 2, 2, seed=11)
        a, b = f.pair()
        est = constructive_estimate(ComplexityQuery(K_I, a, b, 0.2),
                                    f.known_witnesses[K_I])
        assert est.upper_bound is not None


class TestParity:
    def test_single_block_is_plus_minus(self):
        pc = fx.parity_codewords(1, 1)
        assert np.allclose(pc.state0.amplitudes, [SQ2, SQ2])
        assert np.allclose(pc.state1.amplitudes, [SQ2, -SQ2])

    def test_nine_qubit_blocks(self):
        pc = fx.parity_codewords(3, 3)
        assert pc.state0.n_qubits == 9
        assert abs(inner_product(pc.state0, pc.state1)) <= 1e-12
        a, b = pc.fixture.pair()
        assert objective_value(
            K_I, pc.fixture.known_witnesses[K_I][0], a, b) == pytest.approx(2)
        assert objective_value(
            K_D, pc.fixture.known_witnesses[K_D][0], a, b) == pytest.approx(2)

    def test_oversize_rejected(self):
        with pytest.raises(ValueError, match="12"):
            fx.parity_codewords(4, 4)


class TestTensor:
    def test_entangled_with_equal_right_collapses_to_separable(self):
        left = (QuantumState.basis(1, 0), QuantumState.basis(1, 1))
        r = haar_random_state(2, 8)
        sep = fx.tensor_branches("separable", left, r)
        ent = fx.tensor_branches("entangled", left, (r, r))
        assert np.allclose(sep.decomposition.parent.amplitudes,
                           ent.decomposition.parent.amplitudes)

    def test_bell_like_entangled_equals_cat(self):
        left = (QuantumState.basis(1, 0), QuantumState.basis(1, 1))
        right = (QuantumState.basis(1, 0), QuantumState.basis(1, 1))
        ent = fx.tensor_branches("entangled", left, right)
        cat = fx.ghz(2)
        assert np.allclose(ent.decomposition.parent.amplitudes,
                           cat.decomposition.parent.amplitudes)

    def test_nonorthogonal_left_rejected(self):
        plus = QuantumState.from_vector(np.array([SQ2, SQ2]))
        with pytest.raises(ValueError, match="orthogonal"):
            fx.tensor_branches("separable",
                               (QuantumState.basis(1, 0), plus),
                               QuantumState.basis(1, 0))


class TestDistinguishingQubit:
    def test_both_bases_share_the_parent(self):
        e0, e1 = fx.deep_random_registers(3, 4, seed=21)
        comp = fx.distinguishing_qubit_state(e0, e1, "computational")
        conj = fx.distinguishing_qubit_state(e0, e1, "conjugate")
        assert np.allclose(comp.decomposition.parent.amplitudes,
                           conj.decomposition.parent.amplitudes)
        assert validate_decomposition(comp.decomposition).ok
        assert validate_decomposition(conj.decomposition).ok

    def test_nonorthogonal_registers_rejected(self):
        e0 = haar_random_state(3, 1)
        with pytest.raises(ValueError, match="orthogonal"):
            fx.distinguishing_qubit_state(e0, e0)

    def test_mixed_register_sizes_rejected(self):
        with pytest.raises(ValueError, match="qubit counts"):
            fx.distinguishing_qubit_state(haar_random_state(3, 1),
                                          haar_random_state(2, 1))

    def test_marker_gates_distinguish(self):
        e0, e1 = fx.deep_random_registers(3, 4, seed=22)
        for basis in ("computational", "conjugate"):
            f = fx.distinguishing_qubit_state(e0, e1, basis)
            a, b = f.pair()
            w = f.known_witnesses[K_D][0]
            assert objective_value(K_D, w, a, b) == pytest.approx(2)

    def test_interference_floors_match_within_one_gate(self):
        # the two labelings of the same parent have matching pairwise
        # interference estimates (here exactly, at one fused gate)
        e0, e1 = fx.deep_random_registers(4, 4, seed=23)
        sizes = []
        for basis in ("computational", "conjugate"):
            f = fx.distinguishing_qubit_state(e0, e1, basis)
            a, b = f.pair()
            est = brute_force_estimate(
                ComplexityQuery(K_I, a, b, 0.1, max_size=2))
            sizes.append(est.lower_bound)
        assert abs(sizes[0] - sizes[1]) <= 1
