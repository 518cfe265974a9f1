"""Flow integration, empirical tracking, symmetry freezing, eigenstate stats."""
import math
import warnings

import numpy as np
import pytest

from branchkit.branches import EstimatorConfig
from branchkit.complexity import ComplexityKind, pair_blocks
from branchkit.dynamics import (
    FlowParams,
    RATE_FUNCTIONS,
    eth_diagnostic,
    eth_size_sweep,
    integrate_flow,
    magnetization_sector_state,
    mixed_field_ising,
    phase_rotation_circuit,
    symmetry_freeze_check,
    track_complexity_under_evolution,
    xxz_chain,
)
from branchkit.fixtures import ghz
from branchkit.qsim import (
    GATES_1Q,
    Circuit,
    GateOp,
    Hamiltonian,
    QuantumState,
    expectation,
)


class TestFlow:
    def test_zero_start_stays_zero(self):
        traj = integrate_flow(0.0, 1.0, FlowParams(t_end=1.0, dt=0.01))
        assert all(s.c_i == 0.0 for s in traj.samples)
        assert all(s.at_fixed_point for s in traj.samples)

    def test_invariant_conserved(self):
        traj = integrate_flow(5.0, 1.0, FlowParams(k=1.0, rate=1.0,
                                                   dt=1e-3, t_end=10.0))
        assert max(s.invariant_drift for s in traj.samples) <= 1e-6

    def test_gap_nondecreasing(self):
        traj = integrate_flow(10.0, 1.0, FlowParams(k=1.0, rate=1.0,
                                                    dt=1e-3, t_end=10.0))
        gaps = [s.c_i - s.c_d for s in traj.samples]
        assert all(g2 >= g1 - 1e-12 for g1, g2 in zip(gaps, gaps[1:]))

    def test_saturation_rate(self):
        k = 2.0
        assert RATE_FUNCTIONS["saturating"](100 * k, k) >= 1 - 0.015

    def test_fast_scrambling_variant(self):
        traj = integrate_flow(0.5, 0.5, FlowParams(rate_function="fast_scrambling",
                                                   dt=1e-3, t_end=1.0))
        assert traj.samples[-1].c_i > 0.5
        assert all(s.invariant_drift == 0.0 for s in traj.samples)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FlowParams(k=0.0)
        with pytest.raises(ValueError):
            FlowParams(rate_function="nope")
        with pytest.raises(ValueError):
            integrate_flow(-1.0, 0.0, FlowParams())


class TestTracking:
    def test_zero_hamiltonian_constant_witness(self):
        f = ghz(3)
        a, b = f.pair()
        h = Hamiltonian(3, ())
        witness = f.known_witnesses[ComplexityKind.INTERFERENCE][0]
        traj = track_complexity_under_evolution(
            a, b, h, witness, [0.0, 1.0, 2.0],
            EstimatorConfig(max_len=1, use_variational=False))
        objs = [s.witness_objective for s in traj.samples]
        assert all(abs(o - objs[0]) < 1e-10 for o in objs)

    def test_time_zero_matches_static(self):
        f = ghz(4)
        a, b = f.pair()
        h = mixed_field_ising(4)
        witness = f.known_witnesses[ComplexityKind.INTERFERENCE][0]
        traj = track_complexity_under_evolution(
            a, b, h, witness, [0.0],
            EstimatorConfig(max_len=2, use_variational=False))
        s0 = traj.samples[0]
        assert s0.witness_objective == pytest.approx(2.0)
        assert s0.ci_lower == 3  # nothing within the cap at t = 0
        assert s0.cd_upper == 1

    def test_stale_witness_decays_under_chaotic_evolution(self):
        f = ghz(6)
        a, b = f.pair()
        h = mixed_field_ising(6)
        witness = pair_blocks(list(range(6)), 6, GATES_1Q["X"], "X")
        traj = track_complexity_under_evolution(
            a, b, h, witness, [0.0, 2.0],
            EstimatorConfig(max_len=1, use_variational=False))
        t0, t2 = traj.samples
        assert t0.witness_objective == pytest.approx(2.0)
        assert t2.witness_objective < t0.witness_objective


class TestSymmetryFreeze:
    def setup_pair(self, n=4, seed=3):
        return (magnetization_sector_state(n, 1, seed),
                magnetization_sector_state(n, 2, seed + 1))

    def test_sector_pair_freezes(self):
        n = 4
        a, b = self.setup_pair(n)
        rep = symmetry_freeze_check(a, b, xxz_chain(n),
                                    phase_rotation_circuit(n),
                                    [0.0, 1.0, 2.0, 5.0])
        assert rep.commutator_norm <= 1e-8
        assert rep.total_variation <= 1e-5
        assert rep.ok
        assert max(rep.interference) <= 1e-8
        # sectors one and two apart under exp(i pi Z / 2) rotations
        assert abs(rep.phase_a - rep.phase_b) == pytest.approx(math.pi)

    def test_unsorted_grid_reports_sorted_grid(self):
        n = 6
        a, b = self.setup_pair(n)
        h, u = xxz_chain(n), phase_rotation_circuit(n)
        assert (symmetry_freeze_check(a, b, h, u, [7.0, 0.0, 2.5, 1.0])
                == symmetry_freeze_check(a, b, h, u, [0.0, 1.0, 2.5, 7.0]))

    def test_identity_symmetry_trivial(self):
        n = 3
        a = magnetization_sector_state(n, 0, 1)
        b = magnetization_sector_state(n, 1, 2)
        rep = symmetry_freeze_check(a, b, xxz_chain(n), Circuit(n),
                                    [0.0, 1.0])
        assert all(v == pytest.approx(0.0) for v in rep.distinguishability)
        assert rep.ok

    def test_equal_states_never_distinguished(self):
        n = 4
        a, _ = self.setup_pair(n)
        rep = symmetry_freeze_check(a, a, xxz_chain(n),
                                    phase_rotation_circuit(n), [0.0, 1.0])
        assert all(v <= 1e-10 for v in rep.distinguishability)

    def test_noncommuting_rejected(self):
        n = 3
        a = magnetization_sector_state(n, 1, 5)
        b = magnetization_sector_state(n, 2, 6)
        x0 = Circuit(n, (GateOp((0,), GATES_1Q["X"], "X"),))
        with pytest.raises(ValueError, match="commute"):
            symmetry_freeze_check(a, b, xxz_chain(n), x0, [0.0, 1.0])

    def test_non_eigenstate_rejected(self):
        n = 3
        plus = QuantumState.from_vector(
            np.kron(np.array([1, 1]) / math.sqrt(2),
                    QuantumState.zero(n - 1).amplitudes))
        b = magnetization_sector_state(n, 1, 9)
        with pytest.raises(ValueError, match="eigenstate"):
            symmetry_freeze_check(plus, b, xxz_chain(n),
                                  phase_rotation_circuit(n), [0.0])


class TestEth:
    def test_identity_observable(self):
        rep = eth_diagnostic(mixed_field_ising(4), ["IIII"], 1 / 3)
        stats = rep.per_observable[0]
        assert stats.max_diag_gap <= 1e-12
        assert stats.max_offdiag <= 1e-12

    def test_hamiltonian_as_its_own_observable(self):
        h = mixed_field_ising(4)
        rep = eth_diagnostic(h, [h], 1 / 3)
        stats = rep.per_observable[0]
        vals, _ = h.eigensystem()
        lo, hi = rep.window
        expected = float(np.max(np.abs(np.diff(vals[lo:hi]))))
        assert stats.max_offdiag <= 1e-10
        assert stats.max_diag_gap == pytest.approx(expected)

    def test_median_gap_shrinks_with_size(self):
        sweep = eth_size_sweep(
            [mixed_field_ising(n) for n in (6, 8)],
            lambda n: ["I" * (n // 2) + "Z" + "I" * (n - n // 2 - 1)],
            1 / 3)
        gaps = [r.per_observable[0].median_diag_gap for r in sweep.reports]
        assert gaps[1] < gaps[0]
        assert sweep.diag_decay_rate is not None

    def test_repeated_size_fits_no_rate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = eth_size_sweep([mixed_field_ising(4) for _ in range(2)],
                                   lambda n: ["IIZI"], 1 / 3)
        assert sweep.diag_decay_rate is None
        assert sweep.offdiag_decay_rate is None

    def test_window_validation(self):
        with pytest.raises(ValueError):
            eth_diagnostic(mixed_field_ising(3), ["ZII"], 0.0)


class TestChains:
    def test_ising_terms(self):
        h = mixed_field_ising(4)
        assert len(h.terms) == 3 + 4 + 4
        assert expectation(h, QuantumState.zero(4)) == pytest.approx(
            3 * 1.0 + 4 * 0.5)  # ZZ bonds plus longitudinal field

    def test_xxz_conserves_magnetization(self):
        n = 4
        h = xxz_chain(n)
        z_total = Hamiltonian(n, tuple(
            (1.0, "I" * q + "Z" + "I" * (n - q - 1)) for q in range(n)))
        hm, zm = h.to_matrix(), z_total.to_matrix()
        assert np.max(np.abs(hm @ zm - zm @ hm)) <= 1e-12

    def test_sector_state_support(self):
        s = magnetization_sector_state(4, 2, 7)
        for idx in range(16):
            if bin(idx).count("1") != 2:
                assert s.amplitudes[idx] == 0.0
