"""The depth-first sequence walker against a breadth-first replay oracle."""
import math

import numpy as np
import pytest

from branchkit import branches, fixtures as fx
from branchkit.branches import BranchDecomposition, rho_vs_diag_gap
from branchkit.complexity import default_alphabet, fused_cost, walk_sequences
from branchkit.qsim import (
    Circuit,
    QuantumState,
    apply_circuit,
    apply_gate_block,
    haar_random_state,
)

SQ2 = 1 / math.sqrt(2.0)


def _all_sequences(gates, inverse, max_len):
    """All gate-index sequences of length <= max_len, adjacent inverses
    pruned, breadth-first."""
    frontier: list[tuple[int, ...]] = [()]
    yield ()
    for _ in range(max_len):
        nxt = []
        for seq in frontier:
            for gi in range(len(gates)):
                if seq and inverse[seq[-1]] == gi:
                    continue
                child = seq + (gi,)
                yield child
                nxt.append(child)
        frontier = nxt


def oracle_walk(block, n_qubits, gates, inverse, max_len):
    """Same nodes as walk_sequences, each replayed from scratch."""
    for seq in _all_sequences(gates, inverse, max_len):
        out = block
        for gi in seq:
            out = apply_gate_block(out, n_qubits, gates[gi].targets,
                                   gates[gi].matrix)
        yield out, seq, fused_cost([gates[gi] for gi in seq])


def _setup(n):
    alphabet = default_alphabet()
    gates = alphabet.instantiate(n)
    return gates, alphabet.inverse_indices(gates)


def test_same_sequences_as_oracle():
    gates, inv = _setup(2)
    block = np.column_stack([haar_random_state(2, s).amplitudes
                             for s in (1, 2)])
    walked = [seq for _, seq, _ in walk_sequences(block, 2, gates, inv, 2)]
    oracle = list(_all_sequences(gates, inv, 2))
    g = len(gates)
    assert len(walked) == len(set(walked)) == 1 + g + g * (g - 1)
    assert set(walked) == set(oracle)


def test_blocks_and_costs_match_replay():
    n = 3
    gates, inv = _setup(n)
    states = [haar_random_state(n, s) for s in (3, 4)]
    block = np.column_stack([s.amplitudes for s in states])
    for out, seq, cost in walk_sequences(block, n, gates, inv, 2):
        circuit = Circuit(n, tuple(gates[gi] for gi in seq))
        assert cost == fused_cost(circuit.gates)
        for col, state in enumerate(states):
            replay = apply_circuit(state, circuit).amplitudes
            assert np.array_equal(out[:, col], replay)


def _criterion_07_decompositions():
    cat = fx.ghz(3).decomposition
    a, b = QuantumState.basis(3, 0), QuantumState.basis(3, 3)
    parent = QuantumState.from_vector(SQ2 * (a.amplitudes + b.amplitudes))
    two = BranchDecomposition(parent, ((SQ2, a), (SQ2, b)))
    thirds = [QuantumState.basis(3, i) for i in (0, 3, 5)]
    w3 = 1 / math.sqrt(3)
    parent3 = QuantumState.from_vector(w3 * sum(s.amplitudes for s in thirds))
    three = BranchDecomposition(parent3, tuple((w3, s) for s in thirds))
    return {"cat": cat, "two-branch": two, "three-branch": three}


@pytest.mark.parametrize("name", ["cat", "two-branch", "three-branch"])
def test_gap_report_matches_oracle_walk(name, monkeypatch):
    d = _criterion_07_decompositions()[name]
    walked = rho_vs_diag_gap(d, circuit_budget=2, phase_points=8)
    monkeypatch.setattr(branches, "walk_sequences", oracle_walk)
    replayed = rho_vs_diag_gap(d, circuit_budget=2, phase_points=8)
    assert walked == replayed
