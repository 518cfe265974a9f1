"""Complexity objectives, certified enumeration, and witness searches."""
import numpy as np
import pytest

from branchkit.complexity import (
    Channel,
    ComplexityKind,
    ComplexityQuery,
    _enumeration,
    brute_force_estimate,
    combine_estimates,
    constructive_estimate,
    fused_cost,
    objective_value,
    pair_blocks,
    round_robin_pairs,
    survey,
    variational_upper_bound,
)
from branchkit.qsim import (
    GATES_1Q,
    Circuit,
    GateOp,
    QuantumState,
    haar_random_state,
)

K_R = ComplexityKind.RELATIVE
K_D = ComplexityKind.DISTINGUISHABILITY
K_I = ComplexityKind.INTERFERENCE


def x_on(n, *qubits):
    return Circuit(n, tuple(GateOp((q,), GATES_1Q["X"], "X") for q in qubits))


class TestObjective:
    def test_identity_orthogonal_interference_zero(self):
        a, b = QuantumState.basis(2, 0), QuantumState.basis(2, 3)
        assert objective_value(K_I, Circuit(2), a, b) == pytest.approx(0)

    def test_x_string_flips_all(self):
        a, b = QuantumState.basis(3, 0), QuantumState.basis(3, 7)
        assert objective_value(K_I, x_on(3, 0, 1, 2), a, b) == pytest.approx(2)

    def test_z_distinguishes_cat_arms(self):
        a, b = QuantumState.basis(3, 0), QuantumState.basis(3, 7)
        z0 = Circuit(3, (GateOp((0,), GATES_1Q["Z"], "Z"),))
        assert objective_value(K_D, z0, a, b) == pytest.approx(2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            objective_value(K_R, Circuit(2), QuantumState.zero(2),
                            QuantumState.zero(3))


class TestFusedCost:
    def test_empty(self):
        assert fused_cost(()) == 0

    def test_same_pair_absorbs(self):
        gates = (GateOp((0,), GATES_1Q["X"]), GateOp((1,), GATES_1Q["Y"]),
                 GateOp((0,), GATES_1Q["H"]))
        assert fused_cost(gates) == 1

    def test_new_block_on_third_qubit(self):
        gates = (GateOp((0,), GATES_1Q["X"]), GateOp((1,), GATES_1Q["Y"]),
                 GateOp((2,), GATES_1Q["Z"]))
        assert fused_cost(gates) == 2

    def test_nonadjacent_pair_is_one_block(self):
        gates = (GateOp((0,), GATES_1Q["Z"]), GateOp((2,), GATES_1Q["Z"]))
        assert fused_cost(gates) == 1


class TestAlphabet:
    def test_canonical_order_and_size(self):
        gates = _enumeration(3).gates
        assert len(gates) == 8 * 3 + 6
        assert [g.label for g in gates[:6]] == ["X"] * 3 + ["Y"] * 3

    def test_inverse_table(self):
        walk = _enumeration(2)
        gates = walk.gates
        # the empty sequence's entry excludes no gate
        assert walk.inverse[-1] == len(gates)
        for i, j in enumerate(walk.inverse[:-1]):
            assert gates[j].targets == gates[i].targets
            prod = gates[j].matrix @ gates[i].matrix
            assert np.allclose(prod, np.eye(prod.shape[0]))


class TestBruteForce:
    def test_bit_flip_pair_interference(self):
        q = ComplexityQuery(K_I, QuantumState.basis(2, 0),
                            QuantumState.basis(2, 3), 0.9, max_size=2)
        est = brute_force_estimate(q)
        assert (est.lower_bound, est.upper_bound) == (1, 1)
        assert est.achieved_value == pytest.approx(2)
        assert fused_cost(est.witness.gates) == 1
        assert est.lower_bound_scope == "alphabet:default"

    def test_identity_query(self):
        s = QuantumState.zero(1)
        est = brute_force_estimate(ComplexityQuery(K_R, s, s, 1.0, max_size=1))
        assert (est.lower_bound, est.upper_bound) == (0, 0)
        assert est.witness.gate_count == 0

    def test_cat_distinguisher_is_single_z(self):
        q = ComplexityQuery(K_D, QuantumState.basis(3, 0),
                            QuantumState.basis(3, 7), 0.9, max_size=2)
        est = brute_force_estimate(q)
        assert est.upper_bound == 1
        assert [g.label for g in est.witness.gates] == ["Z"]
        assert est.achieved_value == pytest.approx(2)

    def test_nothing_found_reports_scoped_floor(self):
        # no length<=2 sequence interferes the 4-qubit cat arms
        q = ComplexityQuery(K_I, QuantumState.basis(4, 0),
                            QuantumState.basis(4, 15), 0.1, max_size=2)
        est = brute_force_estimate(q)
        assert est.lower_bound == 3
        assert est.upper_bound is None
        assert not est.truncated

    def test_deterministic(self):
        a, b = haar_random_state(2, 1), haar_random_state(2, 2)
        q = ComplexityQuery(K_R, a, b, 0.5, max_size=2)
        e1, e2 = brute_force_estimate(q), brute_force_estimate(q)
        assert (e1.lower_bound, e1.upper_bound, e1.achieved_value) == \
               (e2.lower_bound, e2.upper_bound, e2.achieved_value)

    def test_budget_truncation_flagged(self):
        q = ComplexityQuery(K_I, QuantumState.basis(3, 0),
                            QuantumState.basis(3, 7), 0.9, max_size=3)
        est = brute_force_estimate(q, node_budget=10)
        assert est.truncated
        assert est.lower_bound == 0

    def test_monotone_in_delta(self):
        a, b = haar_random_state(2, 5), haar_random_state(2, 6)
        prev_lower, prev_upper = 0, 0
        for delta in (0.1, 0.5, 0.9):
            est = brute_force_estimate(
                ComplexityQuery(K_R, a, b, delta, max_size=3))
            assert est.lower_bound >= prev_lower
            up = est.upper_bound if est.upper_bound is not None else 10**9
            assert up >= prev_upper
            prev_lower, prev_upper = est.lower_bound, up

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            ComplexityQuery(K_R, QuantumState.zero(1), QuantumState.zero(1),
                            1.5)


class TestSurveyEngine:
    def test_matches_single_query(self):
        a, b = haar_random_state(2, 31), haar_random_state(2, 32)
        channel = Channel(K_I, 0, 1)
        res = survey([a.amplitudes, b.amplitudes], 2, [channel], max_len=2)
        for delta in (0.1, 0.5):
            lower, upper, witness, achieved = res.bounds(channel,
                                                         K_I.threshold(delta))
            est = brute_force_estimate(ComplexityQuery(K_I, a, b, delta,
                                                       max_size=2))
            assert (lower, upper) == (est.lower_bound, est.upper_bound)
            if witness is not None:
                assert achieved == pytest.approx(est.achieved_value)

    def test_symmetry_channels_agree(self):
        a, b = haar_random_state(2, 41), haar_random_state(2, 42)
        fwd, rev = Channel(K_R, 0, 1), Channel(K_R, 1, 0)
        res = survey([a.amplitudes, b.amplitudes], 2, [fwd, rev], max_len=2)
        for delta in (0.1, 0.5, 0.9):
            thr = K_R.threshold(delta)
            assert res.bounds(fwd, thr)[0] == res.bounds(rev, thr)[0]

    def test_unsurveyed_channel_rejected(self):
        a, b = haar_random_state(2, 41), haar_random_state(2, 42)
        res = survey([a.amplitudes, b.amplitudes], 2, [Channel(K_R, 0, 1)],
                     max_len=1)
        for missing in (Channel(K_R, 1, 0), Channel(K_I, 0, 1)):
            with pytest.raises(ValueError):
                res.bounds(missing, K_R.threshold(0.5))
            with pytest.raises(ValueError):
                res.size(missing, 0.5)


class TestConstructive:
    def test_candidate_accepted(self):
        a, b = QuantumState.basis(4, 0), QuantumState.basis(4, 15)
        q = ComplexityQuery(K_I, a, b, 0.9)
        cand = pair_blocks([0, 1, 2, 3], 4, GATES_1Q["X"], "X")
        est = constructive_estimate(q, [cand])
        assert est.upper_bound == 2
        assert est.method == "constructive"
        assert est.achieved_value == pytest.approx(2)

    def test_failing_candidates_yield_unknown(self):
        a, b = QuantumState.basis(2, 0), QuantumState.basis(2, 3)
        q = ComplexityQuery(K_I, a, b, 0.9)
        est = constructive_estimate(q, [Circuit(2)])
        assert est.upper_bound is None

    def test_pair_blocks_odd_count(self):
        c = pair_blocks([0, 1, 2], 4, GATES_1Q["Z"], "Z")
        assert fused_cost(c.gates) == 2
        assert c.gates[-1].targets == (2,)


class TestCombine:
    def test_witness_clips_scoped_lower(self):
        a, b = QuantumState.basis(4, 0), QuantumState.basis(4, 15)
        enum = brute_force_estimate(ComplexityQuery(K_I, a, b, 0.1, max_size=2))
        cons = constructive_estimate(
            ComplexityQuery(K_I, a, b, 0.1),
            [pair_blocks([0, 1, 2, 3], 4, GATES_1Q["X"], "X")])
        merged = combine_estimates(enum, cons)
        assert (merged.lower_bound, merged.upper_bound) == (2, 2)
        assert "enumeration" in merged.method and "constructive" in merged.method


class TestVariational:
    def test_round_robin_covers_all_pairs(self):
        pairs = round_robin_pairs(4)
        assert set(pairs) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
        assert pairs[:2] == [(0, 3), (1, 2)]  # first round is a perfect matching

    def test_single_block_swap(self):
        # one general 2-qubit block suffices to swap |00> and |11> nearly
        # perfectly; the optimizer must reach objective >= 1.98
        q = ComplexityQuery(K_I, QuantumState.basis(2, 0),
                            QuantumState.basis(2, 3), 0.99, max_size=1, seed=1)
        est = variational_upper_bound(q, restarts=4, max_blocks=1, sweeps=80)
        assert est.upper_bound == 1
        assert est.achieved_value >= 1.98

    def test_relative_state_preparation(self):
        q = ComplexityQuery(K_R, QuantumState.zero(4), haar_random_state(4, 3),
                            0.9, max_size=6, seed=2)
        est = variational_upper_bound(q, restarts=3, max_blocks=6)
        assert est.upper_bound is not None
        assert objective_value(K_R, est.witness, q.a, q.b) >= 0.9 - 1e-9

    def test_deterministic(self):
        q = ComplexityQuery(K_R, QuantumState.zero(3), haar_random_state(3, 9),
                            0.7, max_size=4, seed=5)
        e1 = variational_upper_bound(q, restarts=2, max_blocks=4, sweeps=40)
        e2 = variational_upper_bound(q, restarts=2, max_blocks=4, sweeps=40)
        assert e1.upper_bound == e2.upper_bound
        assert e1.achieved_value == e2.achieved_value

    def test_certifies_nothing(self):
        q = ComplexityQuery(K_I, QuantumState.basis(2, 0),
                            QuantumState.basis(2, 3), 0.5, max_size=2, seed=0)
        est = variational_upper_bound(q, restarts=1, max_blocks=2, sweeps=30)
        assert est.lower_bound == 0
