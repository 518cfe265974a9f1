"""Complexity objectives, certified enumeration, and witness searches."""
import hashlib
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchkit import branches
from branchkit.branches import EstimatorConfig, estimate_pair
from branchkit.complexity import (
    MAX_WALK,
    Channel,
    ComplexityEstimate,
    ComplexityKind,
    ComplexityQuery,
    _enumeration,
    _fuse,
    _light_cone,
    brute_force_estimate,
    constructive_estimate,
    fused_cost,
    node_limit,
    objective_value,
    pair_blocks,
    round_robin_pairs,
    sequence_count,
    survey,
    variational_upper_bound,
)
from branchkit.qsim import (
    GATES_1Q,
    Circuit,
    GateOp,
    QuantumState,
    apply_gate_block,
    haar_random_state,
    haar_unitary,
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


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True),
    max_size=8)))
def test_fuse_folds_to_fused_cost(targets):
    """The engine's block-fusing rule, folded over a sequence from no block,
    counts the blocks of fused_cost's greedy packing."""
    cost, last = 0, 0
    for t in targets:
        added, last = _fuse(last, sum(1 << q for q in t))
        cost += added
    one, two = np.eye(2), np.eye(4)
    gates = [GateOp(tuple(t), one if len(t) == 1 else two) for t in targets]
    assert cost == fused_cost(gates)


class TestAlphabet:
    def test_canonical_order_and_size(self):
        gates = _enumeration(3).gates
        assert len(gates) == 8 * 3 + 6
        assert [g.label for g in gates[:6]] == ["X"] * 3 + ["Y"] * 3

    def test_twin_words_are_pinned(self):
        # SHA-256 prefixes of the twin words the twin tables are built from
        digests = [hashlib.sha256(_enumeration(n).twin_words.tobytes())
                   .hexdigest()[:16] for n in range(1, 9)]
        assert digests == [
            "b61527bd36f90a65", "8ce07daa61988ebd", "381370fec4fb006c",
            "f9d4ec3ddb2778f2", "155ba5c211cf8e16", "1ab1979c05f6c359",
            "d9e2fc88457a5e00", "c60425b7fbe23ae8"]

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
        assert len(est.witness.gates) == 0

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
        config = EstimatorConfig(max_len=3, node_budget=10,
                                 use_variational=False)
        est, = estimate_pair(QuantumState.basis(3, 0), QuantumState.basis(3, 7),
                             ((K_I, 0.9),), config)
        assert est.truncated
        assert est.lower_bound == 0

    def test_planned_walk_is_capped(self):
        # GHZ(8) at five gates plans 24,268,003,321 sequences
        assert sequence_count(8, 5) > MAX_WALK
        with pytest.raises(ValueError, match="node_budget"):
            node_limit(8, 5, None, "node_budget")
        # a caller without a budget is pointed at the length cap alone
        with pytest.raises(ValueError, match="; lower the sequence-length cap$"):
            node_limit(8, 5, None, None)
        assert node_limit(8, 5, MAX_WALK, "node_budget") == (
            MAX_WALK, sequence_count(8, 5))

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


def combine_estimates(primary, *others):
    """The rule that merged a query's estimates before estimate_pair built
    its merge with complexity._estimate, kept as the reference: the
    cheapest witness, the earliest on ties, and the primary's lower bound,
    scope and truncation, the lower bound clipped to the witness cost."""
    ests = (primary, *others)
    best = min((e for e in ests if e.upper_bound is not None),
               key=lambda e: e.upper_bound, default=primary)
    lower = primary.lower_bound
    if best.upper_bound is not None:
        lower = min(lower, best.upper_bound)
    return replace(primary, lower_bound=lower, upper_bound=best.upper_bound,
                   witness=best.witness, achieved_value=best.achieved_value,
                   method="+".join(e.method for e in ests))


@st.composite
def merge_sources(draw):
    """Whether estimate_pair enumerates, has candidates and may search
    variationally, and the estimate each of its sources returns:
    enumeration-like, with a drawn lower bound, scope and truncation, or
    witness-only. Each has a witness or none, at costs 0..2, so that ties
    are common; every witness is a distinct object."""
    sources = {}
    for i, method in enumerate(("enumeration", "constructive", "variational")):
        cost = draw(st.none() | st.integers(0, 2))
        lower, scope, truncated = 0, "none", False
        if method == "enumeration":
            lower = draw(st.integers(0, 4 if cost is None else cost))
            scope = draw(st.sampled_from(["alphabet:default", "alphabet:other"]))
            truncated = draw(st.booleans())
        sources[method] = ComplexityEstimate(
            K_I, 0.1, lower, scope, cost,
            None if cost is None else 0.5 + i / 10,
            None if cost is None else Circuit(2), method, truncated=truncated)
    return draw(st.tuples(st.booleans(), st.booleans(), st.booleans())), sources


class TestCombine:
    def test_witness_clips_scoped_lower(self):
        a, b = QuantumState.basis(4, 0), QuantumState.basis(4, 15)
        cons = pair_blocks([0, 1, 2, 3], 4, GATES_1Q["X"], "X")
        merged, = estimate_pair(a, b, ((K_I, 0.1),), EstimatorConfig(max_len=2),
                                {K_I: [cons]})
        assert (merged.lower_bound, merged.upper_bound) == (2, 2)
        assert merged.method == "enumeration+constructive"

    @settings(max_examples=300, deadline=None)
    @given(merge_sources())
    def test_merge_matches_the_rule_it_replaced(self, drawn):
        """estimate_pair's merge of whatever estimates its sources return
        equals combine_estimates of them, down to which witness wins a tie,
        and never puts the lower bound above the upper."""
        (enumerate_lower, has_candidates, use_variational), sources = drawn
        called = []

        def source(method):
            def produce(*args):
                called.append(sources[method])
                return sources[method]
            return produce

        config = EstimatorConfig(enumerate_lower=enumerate_lower,
                                 use_variational=use_variational)
        with mock.patch.multiple(
                branches, survey=lambda *args: None,
                enumeration_estimate=source("enumeration"),
                constructive_estimate=source("constructive"),
                variational_upper_bound=source("variational")):
            merged, = estimate_pair(
                QuantumState.basis(2, 0), QuantumState.basis(2, 3),
                ((K_I, 0.1),), config,
                {K_I: [Circuit(2)]} if has_candidates else None)
        ref = combine_estimates(*called)
        fields = ("method", "lower_bound", "upper_bound", "lower_bound_scope",
                  "truncated", "achieved_value")
        assert ([getattr(merged, f) for f in fields]
                == [getattr(ref, f) for f in fields])
        assert merged.witness is ref.witness
        assert merged.upper_bound is None or merged.lower_bound <= merged.upper_bound


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

    @pytest.mark.parametrize("restarts, max_blocks, name", [
        (-1, 2, "restarts"), (0, 2, "restarts"), (1, -3, "max_blocks")])
    def test_a_search_that_cannot_run_is_refused(self, restarts, max_blocks,
                                                 name):
        q = ComplexityQuery(K_I, QuantumState.basis(2, 0),
                            QuantumState.basis(2, 3), 0.5)
        with pytest.raises(ValueError, match=name):
            variational_upper_bound(q, restarts, max_blocks)


@st.composite
def light_cones(draw):
    """A query on n = 2..5 random qubits, a random qubit set Q of at least
    two, and one to three pairs inside Q."""
    n = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    a, b = haar_random_state(n, seed), haar_random_state(n, seed + 1)
    q = ComplexityQuery(draw(st.sampled_from(ComplexityKind)), a, b,
                        draw(st.sampled_from([0.3, 0.6, 0.9])), seed=seed % 7)
    qubits = draw(st.permutations(range(n)))[:draw(st.integers(2, n))]
    pairs = draw(st.lists(st.permutations(qubits).map(lambda p: tuple(p[:2])),
                          min_size=1, max_size=3))
    return q, qubits, pairs, np.random.default_rng(seed)


@settings(max_examples=60, deadline=None)
@given(light_cones())
def test_light_cone_bounds_any_blocks_inside_it(case):
    q, qubits, pairs, rng = case
    cone = _light_cone(q, qubits)
    for _ in range(3):
        circuit = Circuit(q.a.n_qubits, tuple(
            GateOp(pair, haar_unitary(4, rng), "haar") for pair in pairs))
        assert objective_value(q.kind, circuit, q.a, q.b) <= cone + 1e-12
    est = variational_upper_bound(q, restarts=1, max_blocks=2, sweeps=4)
    if est.witness is not None:
        support = [i for g in est.witness.gates for i in g.targets]
        assert est.achieved_value <= _light_cone(q, support) + 1e-12


def _reduced(n, pair, ket, bra):
    """tr over the other qubits of |ket><bra|, entry by entry: M[i, j] is
    <bra| (|j><i| on pair) |ket>, since tr(|i><j| M) = M[j, i]."""
    m = np.empty((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            unit = np.zeros((4, 4))
            unit[j, i] = 1.0
            m[i, j] = np.vdot(bra, apply_gate_block(ket[:, None], n, pair,
                                                    unit)[:, 0])
    return m


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.sampled_from([K_R, K_D]),
       st.integers(0, 2**32 - 1), st.data())
def test_the_polar_factor_reaches_the_one_block_light_cone(n, kind, seed,
                                                           data):
    pair = tuple(data.draw(st.permutations(range(n)))[:2])
    a, b = haar_random_state(n, seed), haar_random_state(n, seed + 1)
    if kind is K_R:
        m = _reduced(n, pair, a.amplitudes, b.amplitudes)
    else:
        m = (_reduced(n, pair, a.amplitudes, a.amplitudes)
             - _reduced(n, pair, b.amplitudes, b.amplitudes))
    w, _, vh = np.linalg.svd(m)
    polar = Circuit(n, (GateOp(pair, (w @ vh).conj().T, "polar"),))
    q = ComplexityQuery(kind, a, b, 0.5)
    assert objective_value(kind, polar, a, b) == \
        pytest.approx(_light_cone(q, pair), abs=1e-12)
