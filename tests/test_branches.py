"""Decomposition validation, verdicts, and the probability/inequality checks."""
import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchkit import branches
from branchkit.branches import (
    CLASS_RANK,
    BranchDecomposition,
    EstimatorConfig,
    IrreversibilityEntry,
    IrreversibilityReport,
    assess_branches,
    estimate_pair,
    grade,
    irreversibility_check,
    merge_bound_check,
    resolve_lambda,
    rho_vs_diag_gap,
    three_branch_compatibility,
    validate_decomposition,
)
from branchkit.codes import classify_region
from branchkit.complexity import (
    ComplexityEstimate,
    ComplexityKind,
    ComplexityQuery,
    brute_force_estimate,
    sequence_count,
    survey,
)
from branchkit.properties import random_orthogonal_states
from branchkit import fixtures as fx
from branchkit.qsim import QuantumState, haar_random_state, random_circuit

K_D = ComplexityKind.DISTINGUISHABILITY
K_I = ComplexityKind.INTERFERENCE
SQ2 = 1 / math.sqrt(2)


def cat_decomposition(n, w0=SQ2, w1=SQ2):
    parent = QuantumState.from_vector(
        w0 * QuantumState.basis(n, 0).amplitudes
        + w1 * QuantumState.basis(n, 2**n - 1).amplitudes)
    return BranchDecomposition(parent, ((w0, QuantumState.basis(n, 0)),
                                        (w1, QuantumState.basis(n, 2**n - 1))))


def three_basis_split():
    """Equal weights on |000>, |011> and |101>."""
    states = [QuantumState.basis(3, i) for i in (0, 3, 5)]
    w = 1 / math.sqrt(3)
    parent = QuantumState.from_vector(w * sum(s.amplitudes for s in states))
    return BranchDecomposition(parent, tuple((w, s) for s in states))


class TestValidation:
    def test_cat_split_is_ok(self):
        assert validate_decomposition(cat_decomposition(3)).ok

    def test_orthogonality_violation_reported(self):
        plus = QuantumState.from_vector(np.array([SQ2, SQ2]))
        parent = QuantumState.from_vector(
            np.array([math.sqrt(0.8), math.sqrt(0.2)]))
        d = BranchDecomposition(parent, ((SQ2, QuantumState.zero(1)),
                                         (SQ2, plus)))
        rep = validate_decomposition(d)
        assert not rep.ok
        worst = [v for v in rep.violations if v.kind == "orthogonality"][0]
        assert worst.magnitude == pytest.approx(SQ2)
        assert worst.pair == (0, 1)

    def test_normalization_violation_reported(self):
        d = BranchDecomposition(
            QuantumState.basis(1, 0),
            ((0.6, QuantumState.basis(1, 0)), (0.6, QuantumState.basis(1, 1))))
        rep = validate_decomposition(d)
        kinds = {v.kind for v in rep.violations}
        assert "normalization" in kinds
        norm_violation = [v for v in rep.violations if v.kind == "normalization"][0]
        assert norm_violation.magnitude == pytest.approx(abs(0.72 - 1.0))

    def test_single_component_rejected(self):
        d = BranchDecomposition(QuantumState.zero(1),
                                ((1.0, QuantumState.zero(1)),))
        with pytest.raises(ValueError, match="2 components"):
            validate_decomposition(d)

    @pytest.mark.parametrize("field, value", [
        ("restarts", -1), ("restarts", 0), ("variational_blocks", -3)])
    def test_a_search_that_cannot_run_is_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            EstimatorConfig(**{field: value})
        EstimatorConfig(use_variational=False, **{field: value})  # no search

    def test_a_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="seed must be at least 0, got -1"):
            EstimatorConfig(seed=-1)


class TestAssessment:
    def test_cat4_margin_good_at_threshold_one(self):
        v = assess_branches(cat_decomposition(4), epsilon=0.1,
                            config=EstimatorConfig(max_len=2),
                            good_threshold=1)
        pair = v.pairwise[0]
        assert pair.cd.upper_bound == 1
        assert pair.ci.lower_bound == 2
        assert pair.margin == 1
        assert pair.classification == "Good"
        assert v.overall == "Good"

    def test_single_qubit_pair_not_branch(self):
        d = BranchDecomposition(
            QuantumState.from_vector(np.array([SQ2, SQ2])),
            ((SQ2, QuantumState.basis(1, 0)), (SQ2, QuantumState.basis(1, 1))))
        v = assess_branches(d, epsilon=0.1, config=EstimatorConfig(max_len=1),
                            good_threshold=1)
        pair = v.pairwise[0]
        assert pair.ci.upper_bound == 1
        assert pair.cd.upper_bound == 1
        assert pair.margin == 0
        assert pair.classification == "NotBranch"

    def test_cat6_is_robust(self):
        # interference floor 3 exceeds e^(lambda * 1) at lambda = 1
        v = assess_branches(cat_decomposition(6), epsilon=0.1,
                            config=EstimatorConfig(max_len=2,
                                                   variational_blocks=3),
                            good_threshold=1, robustness_lambda=1.0)
        assert v.pairwise[0].classification == "Robust"
        assert v.overall == "Robust"

    def test_classification_soundness(self):
        for n, lam in ((4, 1.0), (6, 1.0)):
            v = assess_branches(cat_decomposition(n), epsilon=0.1,
                                config=EstimatorConfig(max_len=2,
                                                       variational_blocks=3),
                                good_threshold=1, robustness_lambda=lam)
            for p in v.pairwise:
                if p.classification == "Robust":
                    assert p.margin >= v.good_threshold
                if p.classification == "Good":
                    assert p.margin >= v.good_threshold

    def test_epsilon_monotonicity_of_interference_floor(self):
        lowers = []
        for eps in (0.05, 0.1, 0.25):
            v = assess_branches(cat_decomposition(3), epsilon=eps,
                                config=EstimatorConfig(max_len=2),
                                good_threshold=1)
            lowers.append(v.pairwise[0].ci.lower_bound)
        assert lowers == sorted(lowers)

    def test_epsilon_range_enforced(self):
        with pytest.raises(ValueError, match="epsilon"):
            assess_branches(cat_decomposition(2), epsilon=0.3)

    def test_invalid_decomposition_rejected(self):
        d = BranchDecomposition(
            QuantumState.zero(2),
            ((0.6, QuantumState.basis(2, 0)), (0.6, QuantumState.basis(2, 3))))
        with pytest.raises(ValueError, match="validate"):
            assess_branches(d)

    def test_ratio_reported(self):
        v = assess_branches(cat_decomposition(4), epsilon=0.1,
                            config=EstimatorConfig(max_len=2),
                            good_threshold=1)
        assert v.pairwise[0].ratio == pytest.approx(2.0)

    @pytest.mark.parametrize("classes", [
        c for r in range(1, 5) for c in itertools.combinations(CLASS_RANK, r)])
    def test_overall_is_the_worst_pair_class(self, classes, monkeypatch):
        """The rank order gives the four-way rule it replaced on every
        non-empty set of pair classes."""
        def four_way(found):
            if found <= {"Robust"}:
                return "Robust"
            if found <= {"Robust", "Good"}:
                return "Good"
            return "NotBranch" if "NotBranch" in found else "Inconclusive"

        # six pairs of four components take every class at least once
        cycle = itertools.cycle(classes)

        monkeypatch.setattr(branches, "grade", lambda *args: next(cycle))
        states = [QuantumState.basis(2, i) for i in range(4)]
        parent = QuantumState.from_vector(0.5 * sum(s.amplitudes for s in states))
        d = BranchDecomposition(parent, tuple((0.5, s) for s in states))
        v = assess_branches(d, config=EstimatorConfig(
            enumerate_lower=False, use_variational=False))
        assert {p.classification for p in v.pairwise} == set(classes)
        assert v.overall == four_way(set(classes))

    def test_resolve_lambda_from_noise_rate(self):
        assert resolve_lambda(noise_rate=math.exp(-3)) == pytest.approx(3.0)
        assert resolve_lambda(robustness_lambda=2.5) == 2.5
        assert resolve_lambda() == 1.0
        with pytest.raises(ValueError):
            resolve_lambda(noise_rate=1.5)
        for lam in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="robustness_lambda"):
                resolve_lambda(robustness_lambda=lam)

    def test_resolve_lambda_finite_for_every_noise_rate(self):
        # ln(1/p) bit for bit wherever 1/p is finite, -ln p where it is not
        for p in (0.5, 1e-3, math.exp(-3), 1e-300):
            assert resolve_lambda(noise_rate=p) == math.log(1.0 / p)
        assert resolve_lambda(noise_rate=1e-320) == 736.8272408909739
        assert math.isfinite(resolve_lambda(noise_rate=5e-324))

    def test_grades_are_checked_before_any_estimate(self, monkeypatch):
        monkeypatch.setattr(branches, "estimate_pair",
                            lambda *args: pytest.fail("a pair was estimated"))
        d = cat_decomposition(3)
        with pytest.raises(ValueError, match="good_threshold"):
            assess_branches(d, good_threshold=0)
        with pytest.raises(ValueError, match="robustness_lambda"):
            assess_branches(d, robustness_lambda=math.nan)


class TestSeparableAndEntangled:
    """Tensoring both components with a shared state leaves the estimates
    unchanged; entangled products bound them one-sidedly."""

    def grid_estimates(self, a, b, max_len=2):
        out = {}
        for kind in (K_D, K_I):
            for delta in (0.1, 0.5, 0.9):
                est = brute_force_estimate(
                    ComplexityQuery(kind, a, b, delta, max_size=max_len))
                out[(kind, delta)] = (est.lower_bound, est.upper_bound)
        return out

    def test_separable_extension_invariance(self):
        for seed in (0, 1):
            left = random_orthogonal_states(2, 2, seed + 400)
            shared = haar_random_state(2, seed + 410)
            fixture = fx.tensor_branches("separable", (left[0], left[1]),
                                         shared)
            ext0, ext1 = fixture.pair()
            assert self.grid_estimates(left[0], left[1]) == \
                   self.grid_estimates(ext0, ext1)

    def test_entangled_directional_bounds(self):
        psi_l, phi_l = QuantumState.basis(1, 0), QuantumState.basis(1, 1)
        psi_r, phi_r = random_orthogonal_states(2, 2, 93)
        fixture = fx.tensor_branches("entangled", (psi_l, phi_l),
                                     (psi_r, phi_r))
        comp0, comp1 = fixture.pair()
        for delta in (0.1, 0.5):
            comp_d = brute_force_estimate(
                ComplexityQuery(K_D, comp0, comp1, delta, max_size=2))
            comp_i = brute_force_estimate(
                ComplexityQuery(K_I, comp0, comp1, delta, max_size=2))
            sides_d, sides_i = [], []
            for x, y in ((psi_l, phi_l), (psi_r, phi_r)):
                sides_d.append(brute_force_estimate(
                    ComplexityQuery(K_D, x, y, delta, max_size=2)).lower_bound)
                sides_i.append(brute_force_estimate(
                    ComplexityQuery(K_I, x, y, delta, max_size=2)).lower_bound)
            assert comp_d.lower_bound <= min(sides_d)
            assert comp_i.lower_bound >= min(sides_i)


class TestGap:
    def overlap_split(self):
        a, b = QuantumState.basis(3, 0), QuantumState.basis(3, 3)
        parent = QuantumState.from_vector(SQ2 * (a.amplitudes + b.amplitudes))
        return BranchDecomposition(parent, ((SQ2, a), (SQ2, b)))

    @pytest.mark.parametrize("budget", range(4))
    def test_identity_only_budget_zero_gap(self, budget):
        rep = rho_vs_diag_gap(cat_decomposition(3), circuit_budget=budget)
        # the branches lie three bit flips apart: only three gates interfere them
        assert (rep.max_gap_found > 1e-12) == (budget == 3)
        assert rep.circuits_checked == sequence_count(3, budget)
        assert not rep.truncated

    def test_two_branch_equality(self):
        rep = rho_vs_diag_gap(self.overlap_split(), circuit_budget=2,
                              phase_points=8)
        assert rep.max_equality_residual <= 1e-10
        assert rep.max_gap_found > 0.1  # the check is not vacuous

    def test_three_branch_bound_holds(self):
        states = [QuantumState.basis(2, i) for i in range(3)]
        w = 1 / math.sqrt(3)
        parent = QuantumState.from_vector(
            w * sum(s.amplitudes for s in states))
        d = BranchDecomposition(parent, tuple((w, s) for s in states))
        rep = rho_vs_diag_gap(d, circuit_budget=2, phase_points=8)
        assert rep.max_bound_violation <= 1e-10
        assert rep.max_equality_residual is None


class TestMergeBounds:
    def test_half_weight_thresholds(self):
        a, b, c = random_orthogonal_states(3, 3, 77)
        rep = merge_bound_check(a, b, c, p=0.5, epsilon=0.1, max_len=2)
        assert rep.d_delta_lhs == pytest.approx(1 - 2 * 0.1)
        assert rep.i_delta_lhs == pytest.approx(math.sqrt(2) * 0.1)
        assert rep.d_ok and rep.i_ok

    def test_degenerate_component_rejected(self):
        a, b, _ = random_orthogonal_states(3, 3, 78)
        with pytest.raises(ValueError, match="orthogonal"):
            merge_bound_check(a, b, b, p=0.5)

    @pytest.mark.parametrize("eps", [-0.1, 0.0])
    def test_nonpositive_epsilon_rejected(self, eps):
        a, b, c = random_orthogonal_states(3, 3, 78)
        with pytest.raises(ValueError, match="epsilon"):
            merge_bound_check(a, b, c, p=0.5, epsilon=eps)

    def test_seeded_triples_hold(self):
        for seed in range(5):
            a, b, c = random_orthogonal_states(3, 3, 500 + seed)
            for p in (0.5, 0.3):
                rep = merge_bound_check(a, b, c, p=p, epsilon=0.1, max_len=2)
                assert rep.d_ok and rep.i_ok


class TestThreeBranch:
    def test_single_gate_interferable_vacuous(self):
        states = [QuantumState.basis(2, i) for i in range(3)]
        rep = three_branch_compatibility(*states, epsilon=0.1, max_len=2)
        assert rep.b1 <= 0 and rep.b2 <= 0
        assert rep.ok

    def test_structured_triple(self):
        a, b = QuantumState.basis(3, 0), QuantumState.basis(3, 7)
        vec = haar_random_state(3, 991).amplitudes.copy()
        vec[0] = vec[7] = 0.0
        c = QuantumState.from_vector(vec / np.linalg.norm(vec))
        rep = three_branch_compatibility(a, b, c, epsilon=0.1, max_len=2)
        assert rep.ok

    def test_relabeling_symmetry(self):
        a, b, c = random_orthogonal_states(3, 3, 313)
        fwd = three_branch_compatibility(a, b, c, epsilon=0.1, max_len=2)
        rev = three_branch_compatibility(c, b, a, epsilon=0.1, max_len=2)
        # relabeled margins swap roles but the verdict is identical
        assert fwd.ok == rev.ok
        assert fwd.margin_ab == rev.margin_ca or fwd.margin_ab == rev.margin_ab

    @pytest.mark.parametrize("eps", [-0.1, 0.0])
    def test_nonpositive_epsilon_rejected(self, eps):
        a, b, c = random_orthogonal_states(2, 3, 1)
        with pytest.raises(ValueError, match="epsilon"):
            three_branch_compatibility(a, b, c, epsilon=eps)


class TestIrreversibility:
    def test_bell_exact_values(self):
        f = fx.ghz(2)
        rep = irreversibility_check(QuantumState.zero(2), f.decomposition,
                                    max_len=3)
        at_09 = [e for e in rep.entries if e.delta == 0.9][0]
        assert (at_09.interference_lower, at_09.reverse_upper) == (1, 1)
        assert rep.status_at(0.9) == "ok"

    def test_cat3_exact_values(self):
        f = fx.ghz(3)
        rep = irreversibility_check(QuantumState.zero(3), f.decomposition,
                                    max_len=3)
        at_09 = [e for e in rep.entries if e.delta == 0.9][0]
        assert (at_09.interference_lower, at_09.reverse_upper) == (2, 2)
        assert rep.status_at(0.9) == "ok"

    def test_low_accuracy_reported_not_enforced(self):
        # at low accuracy the empty circuit already meets the mapping side,
        # so the comparison flips; it must be reported, not raised
        f = fx.ghz(2)
        rep = irreversibility_check(QuantumState.zero(2), f.decomposition,
                                    max_len=3)
        assert rep.status_at(0.1) in ("ok", "violated", "inconclusive")

    @pytest.mark.parametrize("found", [
        c for r in range(4)
        for c in itertools.combinations(("violated", "inconclusive", "ok"), r)])
    def test_status_at_is_the_worst_status(self, found):
        """The rank order gives the if-chain it replaced on every nonempty
        set of statuses at one accuracy, and an accuracy with no entry is
        refused, naming the accuracies held; a status at another accuracy
        does not count."""
        def if_chain(stats):
            if "violated" in stats:
                return "violated"
            return "inconclusive" if "inconclusive" in stats else "ok"

        entries = [IrreversibilityEntry((0, 1), 0.9, 1, 1, 0, status)
                   for status in found]
        entries.append(IrreversibilityEntry((0, 1), 0.1, 1, 0, 0, "violated"))
        rep = IrreversibilityReport(tuple(entries))
        if not found:
            with pytest.raises(ValueError, match=r"holds \[0\.1\]"):
                rep.status_at(0.9)
        else:
            assert rep.status_at(0.9) == if_chain(set(found))

    def test_preparation_cost_added(self):
        f = fx.ghz(2)
        rep = irreversibility_check(QuantumState.zero(2), f.decomposition,
                                    preparation_cost=5, max_len=1)
        assert all(e.status != "violated" for e in rep.entries
                   if e.reverse_upper is not None)


class TestMultiComponentVerdict:
    def test_three_component_cat_overall(self):
        v = assess_branches(three_basis_split(), epsilon=0.1,
                            config=EstimatorConfig(max_len=2,
                                                   use_variational=False),
                            good_threshold=1)
        assert len(v.pairwise) == 3
        # every pair of basis arms differs on two qubits: one block swaps them
        assert all(p.classification == "NotBranch" for p in v.pairwise)
        assert v.overall == "NotBranch"


def test_one_walk_per_pair(monkeypatch):
    """Both costs of a pair come from one survey: three pairs, three walks."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return survey(*args, **kwargs)

    monkeypatch.setattr(branches, "survey", counted)
    v = assess_branches(three_basis_split(), config=EstimatorConfig(
        max_len=1, use_variational=False))
    assert len(v.pairwise) == len(calls) == 3


def assert_same_estimate(e1, e2):
    for field in dataclasses.fields(e1):
        x, y = getattr(e1, field.name), getattr(e2, field.name)
        if field.name == "witness" and x is not None and y is not None:
            x, y = ([(g.targets, g.label, g.matrix.tobytes()) for g in w.gates]
                    for w in (x, y))
        assert x == y, field.name


@st.composite
def pair_questions(draw):
    """(a, b, targets, config, candidates) on 2-3 qubits: two targets of any
    kinds, a node budget or none, each search on or off, and structural
    candidates for some kinds."""
    n = draw(st.integers(2, 3))
    seed = draw(st.integers(0, 2**16))
    a, b = haar_random_state(n, seed), haar_random_state(n, seed + 1)
    targets = tuple(
        (draw(st.sampled_from(list(ComplexityKind))),
         draw(st.sampled_from([None, 0.1, 0.5, 0.9, 1.0])))
        for _ in range(2))
    enumerate_lower = draw(st.booleans())
    # a node budget cuts the enumeration walk, so only a walk takes one
    budget = draw(st.none() | st.integers(0, 60)) if enumerate_lower else None
    config = EstimatorConfig(
        max_len=draw(st.integers(0, 2)), node_budget=budget,
        enumerate_lower=enumerate_lower,
        use_variational=draw(st.booleans()),
        variational_blocks=draw(st.integers(0, 2)), restarts=1, seed=seed)
    kinds = draw(st.sets(st.sampled_from(list(ComplexityKind))))
    candidates = {kind: [random_circuit(n, depth, seed + depth)
                         for depth in (1, 2)] for kind in kinds}
    return a, b, targets, config, candidates


@settings(max_examples=40, deadline=None)
@given(pair_questions())
def test_two_targets_equal_two_single_target_calls(question):
    a, b, targets, config, candidates = question
    both = estimate_pair(a, b, targets, config, candidates)
    assert len(both) == 2
    for target, est in zip(targets, both):
        alone, = estimate_pair(a, b, (target,), config, candidates)
        assert_same_estimate(est, alone)


def reference_quality(ci_lower, cd_upper, threshold, lam):
    """(good, robust) as graded before branches.grade: good when the margin
    reaches the threshold, robust when good and ci > exp(lam * cd), and
    not robust when exp(lam * cd) overflows."""
    good = ci_lower - cd_upper >= threshold
    try:
        return good, good and ci_lower > math.exp(lam * cd_upper)
    except OverflowError:
        return good, False


def reference_class(ci_lower, ci_truncated, cd_upper, threshold, lam):
    """A pair's (class, margin) as graded before branches.grade."""
    if cd_upper is None or (ci_truncated and ci_lower == 0):
        return "Inconclusive", None
    good, robust = reference_quality(ci_lower, cd_upper, threshold, lam)
    return ("Robust" if robust else "Good" if good else "NotBranch",
            ci_lower - cd_upper)


def reference_region(ci_lower, cd_upper, floor, threshold, lam):
    """classify_region's map as graded before branches.grade."""
    is_code = min(ci_lower, cd_upper) >= floor
    good, robust = reference_quality(ci_lower, cd_upper, threshold, lam)
    if is_code and good:
        return "Both"
    if robust:
        return "RobustBranch"
    if good:
        return "GoodBranch"
    return "GoodCode" if is_code else "Neither"


BOUNDS = st.none() | st.integers(0, 8)


@settings(max_examples=300, deadline=None)
@given(ci=BOUNDS, cd=BOUNDS, truncated=st.booleans(),
       threshold=st.integers(1, 4), lam=st.floats(0, 1000, exclude_min=True),
       floor=st.integers(0, 8))
def test_grade_matches_the_two_function_rule(ci, cd, truncated, threshold,
                                             lam, floor):
    """grade, classify_region and assess_branches' pair class and margin
    agree with the rule grade replaced. A ci of None stands for a truncated
    walk whose lower bound fell to 0; assess_branches reads any truncated ci
    that way, as a truncated walk reports no other lower bound;
    exp(lam * cd) overflows for lam up to 1000."""
    ci_lower, ci_truncated = (0, True) if ci is None else (ci, truncated)
    assert grade(ci, cd, threshold, lam) == reference_class(
        ci_lower, ci is None, cd, threshold, lam)[0]

    ci_est = ComplexityEstimate(K_I, 0.1, ci_lower, "", None, None, None,
                                "test", truncated=ci_truncated)
    cd_est = ComplexityEstimate(K_D, 0.9, 0, "", cd, None, None, "test")
    with mock.patch.object(branches, "estimate_pair",
                           lambda *args: (ci_est, cd_est)):
        pair, = assess_branches(cat_decomposition(2), good_threshold=threshold,
                                robustness_lambda=lam).pairwise
    assert (pair.classification, pair.margin) == reference_class(
        0 if ci_truncated else ci_lower, ci_truncated, cd, threshold, lam)

    if ci is not None and cd is not None:
        assert (classify_region(ci, cd, floor, threshold, lam)
                == reference_region(ci, cd, floor, threshold, lam))
