"""The level-ordered enumeration engine against replay oracles.

`walk_sequences` is the depth-first walker the engine replaced: one gate
application and one overlap matrix per node, recorded with its streaming
tie rule. `_all_sequences` lists the same sequences breadth-first, which is
level order. `depth_first_gap` is the outcome-probability gap check as it
ran on that walker.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchkit import branches, complexity, fixtures as fx
from branchkit.branches import BranchDecomposition, GapReport, rho_vs_diag_gap
from branchkit.complexity import (
    Channel,
    ComplexityKind,
    Frontier,
    _enumeration,
    fused_cost,
    level_frontiers,
    sequence_at,
    sequence_count,
    survey,
)
from branchkit.properties import random_orthogonal_states
from branchkit.qsim import (
    Circuit,
    GateOp,
    QuantumState,
    apply_circuit,
    apply_gate_block,
    haar_random_state,
)

SQ2 = 1 / math.sqrt(2.0)


def walk_sequences(block, n_qubits, gates, inverse, max_len):
    """Depth-first walk over every gate sequence of length <= max_len, never
    placing a gate right after its inverse. Yields (block, seq, cost) per
    node, the empty sequence first: `block` with the sequence applied to
    every column, the gate-index tuple, and its fused cost. Each node costs
    one gate application on its parent's block."""
    mats = [g.matrix for g in gates]
    targs = [g.targets for g in gates]
    supports = [frozenset(t) for t in targs]

    def children(block, seq, cost, support):
        skip = inverse[seq[-1]] if seq else None
        for gi in range(len(gates)):
            if gi == skip:
                continue
            child = apply_gate_block(block, n_qubits, targs[gi], mats[gi])
            if seq and len(support | supports[gi]) <= 2:
                ccost, csup = cost, support | supports[gi]
            else:
                ccost, csup = cost + 1, supports[gi]
            cseq = seq + (gi,)
            yield child, cseq, ccost
            if len(cseq) < max_len:
                yield from children(child, cseq, ccost, csup)

    yield block, (), 0
    if max_len > 0:
        yield from children(block, (), 0, frozenset())


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


def _setup(n):
    """The engine's gate list, and each gate's inverse found by matrix search
    (not read from the engine's table)."""
    gates = _enumeration(n).gates
    inverse = [next(j for j, h in enumerate(gates) if h.targets == g.targets
                    and np.allclose(h.matrix @ g.matrix, np.eye(len(g.matrix))))
               for g in gates]
    return gates, inverse


def oracle_survey(states, n, channels, max_len, node_budget=None):
    """(nodes, truncated, best) of the depth-first survey over the first
    node_budget sequences in level order (the empty one always counts)."""
    gates, inv = _setup(n)
    block0 = np.column_stack(states)
    bras = block0.conj().T
    total = sequence_count(n, max_len)
    cap = total if node_budget is None else max(node_budget, 1)
    kept = set(list(_all_sequences(gates, inv, max_len))[:cap])
    best = [[None] * (max_len + 1) for _ in channels]
    for block, seq, cost in walk_sequences(block0, n, gates, inv, max_len):
        if seq not in kept:
            continue
        g = bras @ block
        for ci, ch in enumerate(channels):
            v = ch.kind.objective(g, ch.a, ch.b)
            slot = best[ci][cost]
            if slot is None or v > slot[0] + 1e-12:
                best[ci][cost] = (v, seq)
            elif (v > slot[0] - 1e-12
                  and (len(seq), seq) < (len(slot[1]), slot[1])):
                # value tie: prefer the shorter, then canonically earlier
                best[ci][cost] = (v, seq)
    return len(kept), len(kept) < total, best


def assert_same_survey(states, n, channels, max_len, node_budget=None):
    res = survey(states, n, channels, max_len, node_budget)
    nodes, truncated, best = oracle_survey(states, n, channels, max_len,
                                           node_budget)
    assert (res.nodes, res.truncated) == (nodes, truncated)
    for got_row, want_row in zip(res.best, best):
        for got, want in zip(got_row, want_row):
            assert (got is None) == (want is None)
            if want is not None:
                assert got[1] == want[1]
                assert abs(got[0] - want[0]) <= 1e-12


def _states(style, n, k, seed):
    rng = np.random.default_rng(seed)
    dim = 2**n
    if style == "random":
        return [haar_random_state(n, int(s)).amplitudes
                for s in rng.integers(0, 2**31, size=k)]
    basis = [np.eye(dim, dtype=complex)[i] for i in rng.integers(0, dim, size=k)]
    if style == "basis":
        return basis
    phase = np.exp(1j * np.pi / 4 * rng.integers(0, 8))
    ghz = (np.eye(dim, dtype=complex)[0] + phase * np.eye(dim)[-1]) * SQ2
    return [ghz] + basis[1:]


@st.composite
def survey_cases(draw):
    n, max_len = draw(st.sampled_from(
        [(n, length) for n in (1, 2, 3) for length in range(4)
         if (n, length) != (3, 3)]))
    k = draw(st.integers(2, 4))
    states = _states(draw(st.sampled_from(["basis", "ghz", "random"])), n, k,
                     draw(st.integers(0, 2**32 - 1)))
    channels = draw(st.lists(st.builds(
        Channel, st.sampled_from(list(ComplexityKind)),
        st.integers(0, k - 1), st.integers(0, k - 1)), min_size=1, max_size=5))
    budget = draw(st.none() | st.integers(0, sequence_count(n, max_len) + 3))
    return states, n, channels, max_len, budget


@settings(max_examples=40, deadline=None)
@given(survey_cases())
def test_survey_matches_depth_first_oracle(case):
    assert_same_survey(*case)


@pytest.mark.parametrize("style", ["ghz", "basis"])
def test_survey_ties_match_oracle_at_depth_3(style):
    states = _states(style, 3, 3, 11)
    channels = [Channel(kind, a, b) for kind in ComplexityKind
                for a, b in ((0, 1), (1, 2), (2, 0))]
    assert_same_survey(states, 3, channels, 3)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from([(0,), (1,), (2,), (3,), (0, 1), (1, 0),
                                 (1, 2), (2, 3), (0, 3), (3, 1)]),
                max_size=8))
def test_fused_cost_reversal_invariant(targets):
    one, two = np.eye(2), np.eye(4)
    gates = [GateOp(t, one if len(t) == 1 else two) for t in targets]
    assert fused_cost(gates) == fused_cost(gates[::-1])


def _walk(block, n, max_len, limit=None):
    for level in range(max_len + 1):
        yield from level_frontiers(block, n, level, limit)


def _walked(limit=None):
    gates, inv = _setup(2)
    block = np.column_stack([haar_random_state(2, s).amplitudes
                             for s in (1, 2)])
    ranks = [int(r) for f in _walk(block, 2, 2, limit) for r in f.rank]
    return ranks, list(_all_sequences(gates, inv, 2)), len(gates)


def test_same_sequences_as_oracle():
    ranks, oracle, g = _walked()
    assert len(oracle) == sequence_count(2, 2) == 1 + g + g * (g - 1)
    assert ranks == list(range(len(oracle)))
    assert [sequence_at(2, r) for r in ranks] == oracle


@pytest.mark.parametrize("limit", [0, 1, 7, 40, 200])
def test_truncated_walk_covers_level_order_prefix(limit):
    ranks, oracle, _ = _walked(limit)
    assert [sequence_at(2, r) for r in ranks] == oracle[:limit]


def test_blocks_and_costs_match_replay():
    n = 3
    gates, _ = _setup(n)
    states = [haar_random_state(n, s) for s in (3, 4)]
    block = np.column_stack([s.amplitudes for s in states])
    for f in _walk(block, n, 2):
        for i, rank in enumerate(f.rank):
            seq = sequence_at(n, int(rank))
            circuit = Circuit(n, tuple(gates[gi] for gi in seq))
            assert f.cost[i] == fused_cost(circuit.gates)
            for col, state in enumerate(states):
                replay = apply_circuit(state, circuit).amplitudes
                assert np.array_equal(f.kets[:, i, col], replay)


def oracle_frontiers(block, n_qubits, level, limit=None):
    """The sequences of level_frontiers, one frontier each, replayed from
    scratch (support is not replayed: the gap check does not read it)."""
    gates, inv = _setup(n_qubits)
    first = sequence_count(n_qubits, level - 1) if level else 0
    seqs = [s for s in _all_sequences(gates, inv, level) if len(s) == level]
    for rank, seq in enumerate(seqs, start=first):
        if limit is not None and rank >= limit:
            return
        out = block
        for gi in seq:
            out = apply_gate_block(out, n_qubits, gates[gi].targets,
                                   gates[gi].matrix)
        yield Frontier(out[:, None, :],
                       np.array([fused_cost([gates[gi] for gi in seq])]),
                       np.zeros(1, dtype=int),
                       np.array([seq[-1] if seq else len(gates)]),
                       np.array([rank]))


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
    monkeypatch.setattr(branches, "level_frontiers", oracle_frontiers)
    replayed = rho_vs_diag_gap(d, circuit_budget=2, phase_points=8)
    assert walked == replayed


def depth_first_gap(d, circuit_budget, phase_points):
    """The gap check as it ran on the depth-first walker: one circuit at a
    time in tuple order, the first circuit at the largest gap kept."""
    n, k = d.parent.n_qubits, len(d.components)
    gates, inv = _setup(n)
    sqrtw = np.array([abs(w) for w, _ in d.components])
    base = np.column_stack([s.amplitudes for _, s in d.components])
    grid = 2.0 * np.pi * np.arange(phase_points) / phase_points
    combos = np.array(list(itertools.product(*([grid] * (k - 1)))))
    phases = np.hstack([np.zeros((len(combos), 1)), combos])
    phase_mat = np.exp(1j * phases).T
    pairs = list(itertools.combinations(range(k), 2))
    best, count, max_eq, max_viol = (-1.0, 0.0, ()), 0, 0.0, -np.inf
    for block, _, _ in walk_sequences(base, n, gates, inv, circuit_budget):
        count += 1
        amp_w = block * sqrtw
        p_theta = np.abs(amp_w @ phase_mat) ** 2
        p_diag = (np.abs(block) ** 2) @ sqrtw**2
        lhs = np.abs(p_theta - p_diag[:, None])
        rhs = np.zeros_like(lhs)
        terms = []
        for i, j in pairs:
            cij = np.conj(amp_w[:, i]) * amp_w[:, j]
            rel = np.exp(1j * (phases[:, j] - phases[:, i]))
            terms.append(2.0 * np.abs(np.real(cij[:, None] * rel[None, :])))
            rhs += terms[-1]
        max_viol = max(max_viol, float((lhs - rhs).max()))
        max_eq = max(max_eq, float(np.abs(lhs - rhs).max()))
        flat = int(lhs.argmax())
        if lhs.flat[flat] > best[0]:
            best = (float(lhs.flat[flat]), float(rhs.flat[flat]),
                    tuple(float(t.flat[flat]) for t in terms))
    return GapReport(*best, max_eq if k == 2 else None, max_viol, count,
                     phase_points, False)


@pytest.mark.parametrize("name", ["cat", "two-branch", "three-branch"])
def test_gap_report_matches_depth_first_gap(name):
    d = _criterion_07_decompositions()[name]
    assert rho_vs_diag_gap(d, 2, 8) == depth_first_gap(d, 2, 8)


def _chunk_cases():
    """(states, n, channels, max_len, node_budget) for every kind, at the
    sizes where the default chunk never splits the gate list."""
    cases = []
    for n, max_len, k, budget in ((3, 3, 3, None), (3, 3, 5, None),
                                  (4, 2, 3, None), (3, 3, 3, 5000)):
        states = [s.amplitudes for s in random_orthogonal_states(n, k, 7 + k)]
        channels = [Channel(kind, a, b) for kind in ComplexityKind
                    for a, b in itertools.permutations(range(k), 2)]
        cases.append((states, n, channels, max_len, budget))
    return cases


@pytest.mark.parametrize("chunk", [1024, 4096, 32 * 1024])
def test_results_do_not_depend_on_chunk_size(chunk, monkeypatch):
    cases = _chunk_cases()
    ghz3 = fx.ghz(3).decomposition
    default = [survey(*case) for case in cases]
    default_gap = rho_vs_diag_gap(ghz3, 2, 8)
    monkeypatch.setattr(complexity, "CHUNK_BYTES", chunk)
    monkeypatch.setattr(branches, "CHUNK_BYTES", chunk)
    for case, want in zip(cases, default):
        got = survey(*case)
        assert (got.nodes, got.truncated) == (want.nodes, want.truncated)
        for got_row, want_row in zip(got.best, want.best):
            for g, w in zip(got_row, want_row):
                assert (g is None) == (w is None)
                if w is not None:
                    assert g[1] == w[1]
                    assert abs(g[0] - w[0]) <= 1e-12
    assert rho_vs_diag_gap(ghz3, 2, 8) == default_gap


@pytest.mark.parametrize("chunk", [1024, 4096, 32 * 1024,
                                   complexity.CHUNK_BYTES])
def test_survey_scores_in_rank_order(chunk, monkeypatch):
    """The slots keep their winners only if every sequence reaches them once,
    in strictly rising rank."""
    ranks = []
    add = complexity._Slots.add

    def recording_add(self, values, cost, rank):
        ranks.extend(int(r) for r in rank)
        add(self, values, cost, rank)

    monkeypatch.setattr(complexity._Slots, "add", recording_add)
    monkeypatch.setattr(complexity, "CHUNK_BYTES", chunk)
    for case in _chunk_cases():
        ranks.clear()
        res = survey(*case)
        assert ranks == list(range(res.nodes))


def test_walk_stops_at_the_node_budget(monkeypatch):
    """A budget that ends at a level boundary costs no more gate
    applications than a length cap at that boundary."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return apply_gate_block(*args, **kwargs)

    def applications(run):
        calls.clear()
        return run(), len(calls)

    monkeypatch.setattr(complexity, "apply_gate_block", counting)
    a, b = fx.product_plus_random(8, seed=0).pair()
    states = [a.amplitudes, b.amplitudes]
    channels = [Channel(ComplexityKind.DISTINGUISHABILITY, 0, 1)]
    cut, cut_calls = applications(
        lambda: survey(states, 8, channels, 3, sequence_count(8, 2)))
    capped, capped_calls = applications(lambda: survey(states, 8, channels, 2))
    assert cut_calls == capped_calls
    assert (cut.nodes, cut.truncated) == (capped.nodes, True)
    assert cut.best[0] == capped.best[0] + [None]

    ghz3 = fx.ghz(3).decomposition
    cut, cut_calls = applications(lambda: rho_vs_diag_gap(
        ghz3, 2, 8, max_circuits=sequence_count(3, 1)))
    capped, capped_calls = applications(lambda: rho_vs_diag_gap(ghz3, 1, 8))
    assert cut_calls == capped_calls
    assert cut.circuits_checked == capped.circuits_checked
