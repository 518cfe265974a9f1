"""The enumeration engine against replay oracles.

The engine walks frontiers depth first (`walk_frontiers`), grows each level
once, and scores each level's sequences in rising rank, skipping twins.
`walk_sequences` is the depth-first walker it replaced: one gate application
and one overlap matrix per node, recorded with its streaming tie rule, and
no sequence skipped (`oracle_survey` is the unpruned reference). `_all_sequences`
lists the same sequences breadth-first, which is level order.
`depth_first_gap` is the outcome-probability gap check as it ran on that
walker.
"""
import functools
import gc
import itertools
import math
import tracemalloc

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
    sequence_count,
    survey,
    walk_frontiers,
)
from branchkit.properties import (
    random_orthogonal_states,
    run_pair_properties,
    run_triple_properties,
)
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


@st.composite
def span_cases(draw):
    """Up to 8 states in a span of at most 3 dimensions: random complex
    combinations of 1-3 random states, exact repeats and phase multiples."""
    n, max_len = draw(st.sampled_from(
        [(n, length) for n in (1, 2, 3) for length in range(4)
         if (n, length) != (3, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = draw(st.integers(1, 3))
    base = np.column_stack([haar_random_state(n, int(s)).amplitudes
                            for s in rng.integers(0, 2**31, size=q)])
    k = draw(st.integers(q + 1, 8))
    states = []
    for _ in range(k):
        how = draw(st.sampled_from(["combination", "repeat", "phase"])
                   if states else st.just("combination"))
        if how == "combination":
            v = base @ (rng.standard_normal(q) + 1j * rng.standard_normal(q))
            states.append(v / np.linalg.norm(v))
            continue
        earlier = states[draw(st.integers(0, len(states) - 1))]
        if how == "repeat":
            states.append(earlier)
        else:
            states.append(np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
                          * earlier)
    channels = draw(st.lists(st.builds(
        Channel, st.sampled_from(list(ComplexityKind)),
        st.integers(0, k - 1), st.integers(0, k - 1)), min_size=1, max_size=6))
    budget = draw(st.none() | st.integers(0, sequence_count(n, max_len) + 3))
    return states, n, channels, max_len, budget


@settings(max_examples=40, deadline=None)
@given(span_cases())
def test_span_survey_matches_depth_first_oracle(case):
    """Linearly dependent states take the span path, and it scores what the
    oracle scores on the states themselves."""
    basis, coef = complexity._span(np.column_stack(case[0]))
    assert coef.shape == (basis.shape[1], len(case[0]))
    assert basis.shape[1] < len(case[0])
    assert_same_survey(*case)


@st.composite
def deep_cases(draw):
    """n=3, L=3, where twins are skipped at both levels that have them: two
    or three random states, alone (the independent-states path) or with
    complex combinations of them (the span path), and a node budget or none."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = draw(st.integers(2, 3))
    states = [haar_random_state(3, int(s)).amplitudes
              for s in rng.integers(0, 2**31, size=q)]
    span = draw(st.booleans())
    if span:
        for _ in range(draw(st.integers(1, 3))):
            v = np.column_stack(states[:q]) @ (rng.standard_normal(q)
                                               + 1j * rng.standard_normal(q))
            states.append(v / np.linalg.norm(v))
    k = len(states)
    channels = draw(st.lists(st.builds(
        Channel, st.sampled_from(list(ComplexityKind)),
        st.integers(0, k - 1), st.integers(0, k - 1)), min_size=1, max_size=6))
    budget = draw(st.none() | st.integers(0, sequence_count(3, 3) + 3))
    return span, (states, 3, channels, 3, budget)


@settings(max_examples=10, deadline=None)
@given(deep_cases())
def test_twin_free_survey_matches_depth_first_oracle(drawn):
    """Every best entry of a survey that skips twins, on either path, equals
    the unpruned oracle's: the same sequence, the value within 1e-12."""
    span, case = drawn
    basis, _ = complexity._span(np.column_stack(case[0]))
    assert (basis.shape[1] < len(case[0])) == span
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
    """walk_frontiers over every sequence of at most max_len gates, unless a
    limit is given."""
    return walk_frontiers(block, n, max_len, sequence_count(n, max_len)
                          if limit is None else limit)


def _walked(limit=None):
    """The ranks walked, level after level, each level's in walk order."""
    gates, inv = _setup(2)
    block = np.column_stack([haar_random_state(2, s).amplitudes
                             for s in (1, 2)])
    levels = {}
    for level, f in _walk(block, 2, 2, limit):
        levels.setdefault(level, []).extend(int(r) for r in f.rank)
    ranks = [r for level in sorted(levels) for r in levels[level]]
    return ranks, list(_all_sequences(gates, inv, 2)), len(gates)


def test_same_sequences_as_oracle():
    """Every sequence once, and each level's in rising rank."""
    ranks, oracle, g = _walked()
    assert len(oracle) == sequence_count(2, 2) == 1 + g + g * (g - 1)
    assert ranks == list(range(len(oracle)))
    assert [_enumeration(2).sequence(r) for r in ranks] == oracle


@pytest.mark.parametrize("limit", [0, 1, 7, 40, 200])
def test_truncated_walk_covers_level_order_prefix(limit):
    ranks, oracle, _ = _walked(limit)
    assert [_enumeration(2).sequence(r) for r in ranks] == oracle[:limit]


def test_blocks_and_costs_match_replay():
    n = 3
    gates, _ = _setup(n)
    states = [haar_random_state(n, s) for s in (3, 4)]
    block = np.column_stack([s.amplitudes for s in states])
    for _, f in _walk(block, n, 2):
        for i, rank in enumerate(f.rank):
            seq = _enumeration(n).sequence(int(rank))
            circuit = Circuit(n, tuple(gates[gi] for gi in seq))
            assert f.cost[i] == fused_cost(circuit.gates)
            for col, state in enumerate(states):
                replay = apply_circuit(state, circuit).amplitudes
                assert np.array_equal(f.kets[:, i, col], replay)


def oracle_frontiers(block, n_qubits, level, limit=None):
    """The sequences of `level` gates ranked below the limit, one frontier
    each, replayed from scratch (the supports and the gate before the last
    are not replayed: the gap check does not read them)."""
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
        zero = np.zeros(1, dtype=int)
        yield Frontier(out[:, None, :],
                       np.array([fused_cost([gates[gi] for gi in seq])]),
                       zero, np.array([seq[-1] if seq else len(gates)]),
                       np.array([rank]), zero, zero)


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


def oracle_walk(block, n_qubits, max_len, limit):
    """walk_frontiers' (level, frontier) pairs from every level's oracle
    frontiers, level after level: the level order, where the walk it stands
    in for goes depth first."""
    for level in range(max_len + 1):
        for f in oracle_frontiers(block, n_qubits, level, limit):
            yield level, f


@pytest.mark.parametrize("name", ["cat", "two-branch", "three-branch"])
def test_gap_report_matches_oracle_walk(name, monkeypatch):
    d = _criterion_07_decompositions()[name]
    walked = rho_vs_diag_gap(d, circuit_budget=2, phase_points=8)
    monkeypatch.setattr(branches, "walk_frontiers", oracle_walk)
    replayed = rho_vs_diag_gap(d, circuit_budget=2, phase_points=8)
    assert walked == replayed


def _counting_gate_applications(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return apply_gate_block(*args, **kwargs)

    monkeypatch.setattr(complexity, "apply_gate_block", counting)
    return calls


@pytest.mark.parametrize("n, budget, applications", [(3, 3, 840), (4, 2, 220)])
def test_gap_check_grows_each_level_once(n, budget, applications, monkeypatch):
    """The gap check grows every level once: as many gate applications as
    growing its top level alone, which passes through every level below."""
    calls = _counting_gate_applications(monkeypatch)
    rho_vs_diag_gap(fx.ghz(n).decomposition, budget, 8)
    assert len(calls) == applications


def _gate_count_checks():
    a, b, c = random_orthogonal_states(3, 3, 5)
    cat = fx.ghz(3).decomposition
    return {
        "three-branch": lambda: branches.three_branch_compatibility(
            a, b, c, 0.1, 3),
        "merge": lambda: branches.merge_bound_check(a, b, c, 0.5, 0.1, 3),
        "pair-suite": lambda: run_pair_properties(3, 1, 1, 3),
        "irreversibility": lambda: branches.irreversibility_check(
            QuantumState.zero(3), cat, max_len=3),
        "triple-suite": lambda: run_triple_properties(3, 5, 1),
    }


@pytest.mark.parametrize("name, applications", [
    ("three-branch", 119), ("merge", 119), ("pair-suite", 119),
    ("irreversibility", 90), ("triple-suite", 595)])
def test_surveys_grow_each_level_once(name, applications, monkeypatch):
    """A survey grows each level below its last once. At n=3, L=3 that is
    the 30 bra rows, 30 applications for level 1 and up to 30 per run of
    level-1 parents for level 2. In the first of two runs every child that
    ends in X on qubit 0 is a kin parent or puts X right after X, so that
    gate is not applied: 119 for the three-branch, merge and pair-suite
    surveys, 90 for the irreversibility survey (one run), and 595 for the
    5 surveys of five triples."""
    calls = _counting_gate_applications(monkeypatch)
    _gate_count_checks()[name]()
    assert len(calls) == applications


def test_survey_gathers_no_kin_parent(monkeypatch):
    """The three-state n=3, L=3 survey gathers the kets of 552 level-2
    parents: of the 870 with a child to score, those whose children all have
    kin twins are dropped before their kets are gathered."""
    gathered = []
    grow = complexity._Enumeration.grow

    def counting(self, f, level, *args):
        for child in grow(self, f, level, *args):
            if level == 1:
                gathered.append(child.kets.shape[1])
            yield child

    monkeypatch.setattr(complexity._Enumeration, "grow", counting)
    res = survey(_three_states(), 3,
                 [Channel(ComplexityKind.INTERFERENCE, 0, 1)], 3)
    assert (res.nodes, res.scored) == (26131, 9324)
    assert sum(gathered) == 552


def test_survey_frees_its_arrays_without_the_garbage_collector():
    """Nothing a survey allocates outlives it in a reference cycle: its bra
    rows alone, 78 gates x 2 columns x 64 amplitudes, take 160 KB at n=6."""
    states = [haar_random_state(6, s).amplitudes for s in (1, 2)]
    channels = [Channel(ComplexityKind.INTERFERENCE, 0, 1)]
    survey(states, 6, channels, 2)  # builds the alphabet's cached tables
    gc.disable()
    tracemalloc.start()
    try:
        survey(states, 6, channels, 2)
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left < 16 * 1024


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
    sizes where the default chunk never splits the gate list. The last case
    surveys six states in a three-dimensional span: (a+b)/sqrt2, a phase
    multiple of c and a repeat of a join a, b and c."""
    cases = []
    for n, max_len, k, budget in ((3, 3, 3, None), (3, 3, 5, None),
                                  (4, 2, 3, None), (3, 3, 3, 5000)):
        states = [s.amplitudes for s in random_orthogonal_states(n, k, 7 + k)]
        channels = [Channel(kind, a, b) for kind in ComplexityKind
                    for a, b in itertools.permutations(range(k), 2)]
        cases.append((states, n, channels, max_len, budget))
    a, b, c = (s.amplitudes for s in random_orthogonal_states(3, 3, 17))
    states = [a, b, c, (a + b) * SQ2, np.exp(0.7j) * c, a]
    channels = [Channel(kind, i, (i + 1) % 6) for kind in ComplexityKind
                for i in range(6)]
    cases.append((states, 3, channels, 3, None))
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


@functools.cache
def _products(n, max_len):
    """Per rank of the sequences of at most max_len gates on n qubits: a key
    equal for sequences whose Circuit.to_matrix products are equal up to a
    global phase, and the fused cost."""
    walk = _enumeration(n)
    keys, costs = [], []
    for rank in range(sequence_count(n, max_len)):
        gates = tuple(walk.gates[i] for i in walk.sequence(rank))
        u = Circuit(n, gates).to_matrix().ravel()
        lead = u[np.argmax(np.abs(u) > 1e-6)]
        keys.append((np.round(u * abs(lead) / lead, 9) + 0.0).tobytes())
        costs.append(fused_cost(gates))
    return keys, costs


@pytest.mark.parametrize("chunk", [1024, 4096, 32 * 1024,
                                   complexity.CHUNK_BYTES])
def test_survey_scores_in_rank_order(chunk, monkeypatch):
    """The slots keep their winners only if every sequence they score
    reaches them once, in strictly rising rank within its level, and every
    sequence the walk covers but does not score has a scored, earlier-ranked
    twin: the same product up to phase and the same fused cost. Levels may
    interleave: when a level is grown in several frontiers, the walk scores
    everything below one of them before the children of the next."""
    added = []
    add = complexity._Slots.add

    def recording_add(self, values, cost, rank, level):
        added.extend((level, int(r)) for r in rank)
        add(self, values, cost, rank, level)

    monkeypatch.setattr(complexity._Slots, "add", recording_add)
    monkeypatch.setattr(complexity, "CHUNK_BYTES", chunk)
    for case in _chunk_cases():
        added.clear()
        res = survey(*case)
        n, max_len = case[1], case[3]
        offsets = _enumeration(n).offsets
        scored = {r for _, r in added}
        assert len(scored) == len(added) == res.scored
        for level in range(max_len + 1):
            ranks = [r for at, r in added if at == level]
            assert all(offsets[level] <= r < offsets[level + 1] for r in ranks)
            assert all(a < b for a, b in zip(ranks, ranks[1:]))
        keys, costs = _products(n, max_len)
        first = {}
        for r in sorted(scored):
            first.setdefault((keys[r], costs[r]), r)
        assert max(scored) < res.nodes
        for r in set(range(res.nodes)) - scored:
            assert first.get((keys[r], costs[r]), r) < r


def test_span_surveys_make_few_runs_within_chunk_bytes(monkeypatch):
    """The three-branch survey (19 states) and the merge survey (10 states)
    span span{a, b, c}. Walked over that basis, they record a tenth of the
    runs they made over the states themselves (902 and 183 at n=3, L=3),
    and every per-child working array of a run, the read entries included,
    stays within CHUNK_BYTES."""
    adds, arrays = [], []
    add, values = complexity._Slots.add, complexity._Slots.values
    read = complexity._SpanOverlaps.__getitem__

    def counting_add(self, *args):
        adds.append(1)
        add(self, *args)

    def sized_values(self, overlaps):
        out = values(self, overlaps)
        arrays.extend((overlaps.g.nbytes, out.nbytes))
        return out

    def sized_read(self, index):
        out = read(self, index)
        arrays.append(out.nbytes)
        return out

    monkeypatch.setattr(complexity._Slots, "add", counting_add)
    monkeypatch.setattr(complexity._Slots, "values", sized_values)
    monkeypatch.setattr(complexity._SpanOverlaps, "__getitem__", sized_read)
    a, b, c = random_orthogonal_states(3, 3, 5)
    three = lambda: branches.three_branch_compatibility(a, b, c, 0.1, 3)
    merge = lambda: branches.merge_bound_check(a, b, c, 0.5, 0.1, 3)
    for check, parent_runs in ((three, 902), (merge, 183)):
        adds.clear()
        arrays.clear()
        check()
        assert len(adds) <= parent_runs / 10
        assert max(arrays) <= complexity.CHUNK_BYTES


def _three_states():
    return [s.amplitudes for s in random_orthogonal_states(3, 3, 5)]


def test_scored_counts_the_sequences_scored():
    """nodes counts the ranks covered, scored the sequences scored: at n=3,
    L=3, 9,324 of 26,131 once twins are skipped; below level 2 no sequence
    has a twin."""
    channels = [Channel(ComplexityKind.INTERFERENCE, 0, 1)]
    res = survey(_three_states(), 3, channels, 3)
    assert (res.nodes, res.scored, res.truncated) == (26131, 9324, False)
    for max_len in (0, 1):
        for budget in (None, 0, 5, 40):
            res = survey(_three_states(), 3, channels, max_len, budget)
            assert res.scored == res.nodes


@pytest.mark.parametrize("max_len, budget, applications", [
    (0, None, 0), (3, 0, 0), (3, 1, 0), (3, 2, 1), (3, 12, 11), (3, 30, 29)])
def test_survey_builds_only_the_bras_it_reads(max_len, budget, applications,
                                              monkeypatch):
    """A survey that scores the empty sequence alone applies no gate, and a
    node budget that ends inside level 1 builds the bras of the level-1
    children it scores and no others."""
    calls = _counting_gate_applications(monkeypatch)
    res = survey(_three_states(), 3,
                 [Channel(ComplexityKind.RELATIVE, 0, 1)], max_len, budget)
    assert res.scored == res.nodes == max(budget or 1, 1)
    assert len(calls) == applications


def test_walk_stops_at_the_node_budget(monkeypatch):
    """A budget that ends at a level boundary costs no more gate
    applications than a length cap at that boundary."""
    calls = _counting_gate_applications(monkeypatch)

    def applications(run):
        calls.clear()
        return run(), len(calls)

    a, b = fx.product_plus_random(8, seed=0).pair()
    states = [a.amplitudes, b.amplitudes]
    channels = [Channel(ComplexityKind.DISTINGUISHABILITY, 0, 1)]
    cut, cut_calls = applications(
        lambda: survey(states, 8, channels, 3, sequence_count(8, 2)))
    capped, capped_calls = applications(lambda: survey(states, 8, channels, 2))
    assert cut_calls == capped_calls
    assert (cut.nodes, cut.truncated) == (capped.nodes, True)
    assert cut.best[0] == capped.best[0] + [None]
    # one sequence past the boundary grows only that sequence's parent
    past, past_calls = applications(
        lambda: survey(states, 8, channels, 3, sequence_count(8, 2) + 1))
    assert past_calls == capped_calls + 1
    assert (past.nodes, past.truncated) == (capped.nodes + 1, True)


@pytest.mark.parametrize("n", [2, 3])
def test_parents_keep_the_sequences_with_a_child_below_the_limit(n):
    """parents(level, limit), clipped to its level, against the parents of
    the children ranked below the limit, decoded by the walk's sequence."""
    walk = _enumeration(n)
    for level in range(3):
        first, end = walk.offsets[level], walk.offsets[level + 1]
        rank_of = {walk.sequence(r): r for r in range(first, end)}
        seen = set()
        for limit in range(walk.offsets[level + 2] + 1):
            if limit > end:  # the child ranked limit - 1 is now below it
                seen.add(rank_of[walk.sequence(limit - 1)[:-1]])
            kept = min(max(walk.parents(level, limit), first), end) - first
            # seen is a subset of the level: its size and maximum pin it
            assert len(seen) == kept
            assert max(seen, default=first - 1) == first + kept - 1


@st.composite
def slot_cases(draw):
    """Values (channels, m), each offset by k * 0.4e-12 so that near-ties
    fall on both sides of _TIE; costs; distinct ranks of at most max_len
    gates; and the chunks they are added in, as (level, indices): each
    level's sequences cut into chunks in rising rank, and the chunks of the
    levels interleaved."""
    channels, max_len = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    offsets = _enumeration(2).offsets
    rank = sorted(draw(st.lists(st.integers(0, offsets[max_len + 1] - 1),
                                min_size=1, max_size=40, unique=True)))
    m = len(rank)
    values = [[draw(st.sampled_from([0.0, 0.3, 1.0]))
               + draw(st.integers(0, 5)) * 0.4e-12 for _ in range(m)]
              for _ in range(channels)]
    cost = draw(st.lists(st.integers(0, max_len), min_size=m, max_size=m))
    level = np.searchsorted(offsets, rank, side="right") - 1
    chunks = []
    for at in (np.flatnonzero(level == lv) for lv in range(max_len + 1)):
        cuts = (sorted(draw(st.sets(st.integers(1, len(at) - 1))))
                if len(at) > 1 else [])
        chunks.append(np.split(at, cuts) if len(at) else [])
    # the levels interleave; each level's chunks keep their order
    order = draw(st.permutations([lv for lv, parts in enumerate(chunks)
                                  for _ in parts]))
    queues = [iter(parts) for parts in chunks]
    return (np.array(values), np.array(cost), np.array(rank), max_len,
            [(lv, next(queues[lv])) for lv in order])


@settings(max_examples=200, deadline=None)
@given(slot_cases())
def test_slots_keep_the_first_sequence_within_tie_of_the_maximum(case):
    values, cost, rank, max_len, chunks = case
    walk = _enumeration(2)
    slots = complexity._Slots(
        [Channel(ComplexityKind.RELATIVE, 0, 1)] * len(values), max_len)
    for level, part in chunks:
        slots.add(values[:, part], cost[part], rank[part], level)
    for i, row in enumerate(slots.best(walk)):
        for c, got in enumerate(row):
            at = np.flatnonzero(cost == c)
            if not len(at):
                assert got is None
                continue
            v = values[i, at]
            j = at[v >= v.max() - complexity._TIE][0]
            assert got == (values[i, j], walk.sequence(int(rank[j])))
