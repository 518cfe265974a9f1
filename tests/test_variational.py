"""The environment-contracted variational search against a replay oracle.

`replay_upper_bound` is the search as it ran before block environments: every
coordinate probe rebuilds its block's unitary with 15 scalar adds and replays
the whole circuit on the (a, b) block. Moving theta by the same exact steps,
the two searches accept the same probes unless a candidate lands within
rounding of the acceptance margin, so on the pinned queries below they must
agree bit for bit.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchkit import fixtures as fx
from branchkit.complexity import (
    _GENS,
    _THRESHOLD_SLACK,
    ComplexityKind,
    ComplexityQuery,
    _block_unitary,
    _environment,
    _verify_witness,
    _witness_only,
    round_robin_pairs,
    variational_upper_bound,
)
from branchkit.qsim import (
    Circuit,
    GateOp,
    QuantumState,
    apply_gate_block,
    haar_random_state,
)

K_I = ComplexityKind.INTERFERENCE
K_D = ComplexityKind.DISTINGUISHABILITY
K_R = ComplexityKind.RELATIVE


def loop_block_unitary(theta):
    h = np.zeros((4, 4), dtype=complex)
    for t, g in zip(theta, _GENS):
        h += t * g
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


def replay_upper_bound(q, restarts=3, max_blocks=None, sweeps=60):
    """The search with every probe scored by replaying all m blocks."""
    n = q.a.n_qubits
    if max_blocks is None:
        max_blocks = q.max_size
    schedule = round_robin_pairs(n)
    rng = np.random.default_rng(q.seed)
    block0 = np.column_stack([q.a.amplitudes, q.b.amplitudes])
    bras = block0.conj().T

    def objective(units, pairs):
        block = block0
        for u, pair in zip(units, pairs):
            block = apply_gate_block(block, n, pair, u)
        return float(q.kind.objective(bras @ block))

    for m in range(max_blocks + 1):
        pairs = [schedule[i % len(schedule)] for i in range(m)]
        if m == 0:
            best_val, best_theta = objective([], []), np.zeros(0)
        else:
            best_val, best_theta = -1.0, None
            for _ in range(restarts):
                theta = rng.uniform(-np.pi, np.pi, size=15 * m)
                units = [loop_block_unitary(theta[15 * i:15 * (i + 1)])
                         for i in range(m)]
                val = objective(units, pairs)
                step = 0.8
                for _ in range(sweeps):
                    improved = False
                    for i in range(theta.size):
                        b, start, kept = i // 15, theta[i], units[i // 15]
                        for delta in (step, -step):
                            theta[i] += delta
                            units[b] = loop_block_unitary(theta[15 * b:15 * (b + 1)])
                            cand = objective(units, pairs)
                            if cand > val + 1e-12:
                                val = cand
                                improved = True
                                break
                            theta[i] -= delta
                            units[b] = kept if theta[i] == start else \
                                loop_block_unitary(theta[15 * b:15 * (b + 1)])
                    if val >= q.threshold + 1e-9:
                        break
                    if not improved:
                        step *= 0.5
                        if step < 1e-4:
                            break
                if val > best_val:
                    best_val, best_theta = val, theta.copy()
                if best_val >= q.threshold + 1e-9:
                    break
        if best_val >= q.threshold - _THRESHOLD_SLACK:
            witness = Circuit(n, tuple(
                GateOp(pairs[i], loop_block_unitary(best_theta[15 * i:15 * (i + 1)]),
                       "var2")
                for i in range(m)))
            return _witness_only(q, "variational", m, witness,
                                 _verify_witness(q, witness, None))
    return _witness_only(q, "variational")


def _pairs(fixture):
    comps = [s for _, s in fixture.decomposition.components]
    return [(comps[i], comps[j]) for i in range(len(comps))
            for j in range(i + 1, len(comps))]


def _perfbench_queries():
    """Every pair and both verdict kinds of the benchmark's variational
    instances, searched as its verdict pipeline configures them."""
    cases = []
    instances = [(fx.product_plus_random(n, seed=0), 1) for n in (4, 5, 6)]
    instances.append((fx.two_random_circuits(4, 1, 3, seed=0), 2))
    for fixture, max_len in instances:
        for a, b in _pairs(fixture):
            for kind, delta in ((K_I, 0.1), (K_D, 0.9)):
                cases.append((ComplexityQuery(kind, a, b, delta, max_len), 1, 2, 60))
    return cases


def _product_random_queries():
    cases = []
    for seed in range(6):
        (a, b), = _pairs(fx.product_plus_random(4, seed=seed))
        for kind, delta in ((K_I, 0.1), (K_I, 0.3), (K_D, 0.9), (K_D, 0.6)):
            cases.append((ComplexityQuery(kind, a, b, delta, 3, seed), 1, 3, 30))
    return cases


QUERIES = {
    "perfbench": _perfbench_queries,
    "product-random-4": _product_random_queries,
    "relative-preparation": lambda: [(ComplexityQuery(
        K_R, QuantumState.zero(4), haar_random_state(4, 3), 0.9, 6, 2), 3, 6, 60)],
}


def _same(got, want):
    assert got.upper_bound == want.upper_bound
    assert got.achieved_value == want.achieved_value
    assert (got.witness is None) == (want.witness is None)
    if want.witness is not None:
        assert [g.targets for g in got.witness.gates] == \
            [g.targets for g in want.witness.gates]
        for g, w in zip(got.witness.gates, want.witness.gates):
            assert g.matrix.tobytes() == w.matrix.tobytes()


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_search_matches_replay_oracle(name):
    for q, restarts, blocks, sweeps in QUERIES[name]():
        _same(variational_upper_bound(q, restarts, blocks, sweeps),
              replay_upper_bound(q, restarts, blocks, sweeps))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_block_unitary_is_the_fifteen_add_loop(seed):
    theta = np.random.default_rng(seed).uniform(-4, 4, size=15)
    assert _block_unitary(theta).tobytes() == loop_block_unitary(theta).tobytes()


@st.composite
def contraction_cases(draw):
    n = draw(st.integers(2, 5))
    q0, q1 = draw(st.permutations(range(n)))[:2]
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def block(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    return n, (q0, q1), block(2**n, k), block(2**n, k), block(4, 4)


@settings(max_examples=60, deadline=None)
@given(contraction_cases())
def test_environment_contracts_the_gate(case):
    n, pair, kets, bras, u = case
    k = kets.shape[1]
    got = (u.reshape(16) @ _environment(kets, bras, n, pair)).reshape(k, k)
    want = bras.conj().T @ apply_gate_block(kets, n, pair, u)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1, abs(want).max()))
