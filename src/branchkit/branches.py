"""Branch decompositions and their verdicts.

A decomposition splits a parent state into weighted orthogonal components.
A pair of components counts as a good branch pair when certified
interference cost exceeds the witnessed distinguishability cost by a
configurable margin, and as adversarially robust when the interference cost
clears an exponential of the distinguishability cost; one enumeration walk
serves both costs of a pair (estimate_pair). The module also hosts the
runnable checks tying decompositions to outcome probabilities (pure state
versus dephased mixture), the merge bounds for grouped components,
three-branch compatibility, and the irreversibility comparison.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .complexity import (
    CHUNK_BYTES,
    Channel,
    ComplexityEstimate,
    ComplexityKind,
    ComplexityQuery,
    _estimate,
    constructive_estimate,
    enumeration_estimate,
    node_limit,
    survey,
    variational_upper_bound,
    walk_frontiers,
)
from .qsim import Circuit, QuantumState, _require_orthogonal, inner_product

GAP_ATOL = 1e-10
# the accuracies of the irreversibility comparison and the pair properties,
# and the full-circle phase grid of the merge and three-branch checks
DELTAS = (0.1, 0.5, 0.9)
PHASE_POINTS = 8
# the most phase assignments T per gap-check circuit: its four complex
# (2^n, T) working arrays stay within 64 MiB at n = 6 whatever phase_points is
MAX_PHASE_GRID = 2**14
# the pair classes, worst first: a decomposition is as good as its worst pair
CLASS_RANK = ("NotBranch", "Inconclusive", "Good", "Robust")


@dataclass(frozen=True)
class BranchDecomposition:
    """parent ≈ sum_i weight_i * component_i with orthonormal components."""

    parent: QuantumState
    components: tuple[tuple[complex, QuantumState], ...]
    tolerance: float = 1e-8

    def __post_init__(self):
        comps = tuple((complex(w), s) for w, s in self.components)
        for _, s in comps:
            if s.n_qubits != self.parent.n_qubits:
                raise ValueError("component qubit count differs from parent")
        object.__setattr__(self, "components", comps)

    @property
    def weights(self) -> np.ndarray:
        return np.array([abs(w) ** 2 for w, _ in self.components])

    def reconstruction(self) -> np.ndarray:
        vec = np.zeros_like(self.parent.amplitudes)
        for w, s in self.components:
            vec = vec + w * s.amplitudes
        return vec


@dataclass(frozen=True)
class Violation:
    kind: str
    magnitude: float
    detail: str
    pair: tuple[int, int] | None = None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    @property
    def worst(self) -> Violation | None:
        return max(self.violations, key=lambda v: v.magnitude, default=None)


def validate_decomposition(d: BranchDecomposition) -> ValidationReport:
    """Check reconstruction, pairwise orthogonality, and weight normalization."""
    if len(d.components) < 2:
        raise ValueError("a branch decomposition needs at least 2 components")
    tol = d.tolerance
    issues: list[Violation] = []

    recon = d.reconstruction()
    nrm = np.linalg.norm(recon)
    fid = abs(np.vdot(d.parent.amplitudes, recon)) ** 2 if nrm > 0 else 0.0
    if fid < 1.0 - tol:
        issues.append(Violation(
            "reconstruction", 1.0 - fid,
            f"weighted component sum rebuilds parent with fidelity {fid:.12f}",
        ))

    for i, j in itertools.combinations(range(len(d.components)), 2):
        ov = abs(inner_product(d.components[i][1], d.components[j][1]))
        if ov > tol:
            issues.append(Violation(
                "orthogonality", ov,
                f"|<psi_{i}|psi_{j}>| = {ov:.3e} exceeds tolerance {tol:.1e}",
                pair=(i, j),
            ))

    total = float(d.weights.sum())
    if abs(total - 1.0) > tol:
        issues.append(Violation(
            "normalization", abs(total - 1.0),
            f"sum of |weight|^2 is {total:.12f}, expected 1",
        ))

    return ValidationReport(ok=not issues, violations=tuple(issues))


def _require_valid(d: BranchDecomposition):
    report = validate_decomposition(d)
    if not report.ok:
        raise ValueError(f"decomposition does not validate: {report.worst.detail}")


# ---------------------------------------------------------------------------
# Pairwise assessment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatorConfig:
    """How pairwise complexity estimates are produced.

    Enumeration gives certified (alphabet-scoped) lower bounds; constructive
    candidates and the variational search add witness upper bounds. With
    enumerate_lower=False the assessment runs in witness-only mode, and a
    node_budget, which only cuts the enumeration walk, is refused.
    """

    max_len: int = 2
    node_budget: int | None = None
    enumerate_lower: bool = True
    use_variational: bool = True
    variational_blocks: int = 4
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.node_budget is not None and not self.enumerate_lower:
            raise ValueError("node_budget cuts the enumeration walk, which "
                             "enumerate_lower=False skips; got node_budget="
                             f"{self.node_budget}")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        if self.use_variational and self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.use_variational and self.variational_blocks < 0:
            raise ValueError("variational_blocks must be at least 0, got "
                             f"{self.variational_blocks}")


def estimate_pair(a: QuantumState, b: QuantumState, targets: tuple,
                  config: EstimatorConfig,
                  candidates: dict[ComplexityKind, list[Circuit]] | None = None,
                  ) -> tuple[ComplexityEstimate, ...]:
    """One estimate per (kind, delta) target of the pair (a, b). One
    enumeration walk, a survey with a channel per kind, serves every target;
    then, per target, the structural candidates of its kind, and variational
    search if no witness has been found yet; one _estimate call merges them,
    from the first estimate's lower bound, scope and truncation."""
    queries = [ComplexityQuery(kind, a, b, delta, config.max_len, config.seed)
               for kind, delta in targets]
    if config.enumerate_lower:
        channels = dict.fromkeys(Channel(q.kind, 0, 1) for q in queries)
        res = survey([a.amplitudes, b.amplitudes], a.n_qubits, list(channels),
                     config.max_len, config.node_budget)
    candidates = candidates or {}
    out = []
    for query in queries:
        ests = [enumeration_estimate(query, res)] if config.enumerate_lower else []
        if candidates.get(query.kind):
            ests.append(constructive_estimate(query, candidates[query.kind]))
        if config.use_variational and all(e.upper_bound is None for e in ests):
            ests.append(variational_upper_bound(
                query, config.restarts, config.variational_blocks))
        # no search configured: an empty candidate list knows nothing
        ests = ests or [constructive_estimate(query, [])]
        out.append(_estimate(
            query, "+".join(e.method for e in ests),
            [(e.upper_bound, e.witness, e.achieved_value) for e in ests],
            ests[0].lower_bound, ests[0].lower_bound_scope, ests[0].truncated))
    return tuple(out)


@dataclass(frozen=True)
class PairAssessment:
    i: int
    j: int
    ci: ComplexityEstimate
    cd: ComplexityEstimate
    margin: int | None
    witness_margin: int | None
    ratio: float | None
    classification: str


@dataclass(frozen=True)
class BranchVerdict:
    pairwise: tuple[PairAssessment, ...]
    overall: str
    epsilon: float
    good_threshold: int
    robustness_lambda: float


def grade(ci_lower: int | None, cd_upper: int | None, good_threshold: int,
          lam: float) -> str:
    """The class of a pair from its bounds: Inconclusive when either bound
    is missing, NotBranch when the margin ci - cd misses good_threshold,
    Robust when ci > exp(lam * cd) as well, Good otherwise (also when
    exp(lam * cd) is past the float range)."""
    if ci_lower is None or cd_upper is None:
        return "Inconclusive"
    if ci_lower - cd_upper < good_threshold:
        return "NotBranch"
    try:
        return "Robust" if ci_lower > math.exp(lam * cd_upper) else "Good"
    except OverflowError:
        return "Good"


def _require_threshold(good_threshold: int) -> None:
    """Refuse a branch threshold below 1: it would grade a margin of 0, or
    a negative one, a good branch."""
    if good_threshold < 1:
        raise ValueError(f"good_threshold must be >= 1, got {good_threshold}")


def resolve_lambda(robustness_lambda: float | None = None,
                   noise_rate: float | None = None) -> float:
    """Robustness exponent: lambda = ln(1/p) for noise rate p (-ln p when
    1/p overflows), or an explicit value, finite and > 0 as ln(1/p) is;
    defaults to 1 when neither is given."""
    if robustness_lambda is not None:
        if not (math.isfinite(robustness_lambda) and robustness_lambda > 0):
            raise ValueError("robustness_lambda must be finite and > 0, "
                             f"got {robustness_lambda}")
        return float(robustness_lambda)
    if noise_rate is not None:
        if not 0.0 < noise_rate < 1.0:
            raise ValueError("noise rate must lie in (0, 1)")
        inverse = 1.0 / noise_rate  # inf for p below about 5.6e-309
        return (math.log(inverse) if inverse < math.inf
                else -math.log(noise_rate))
    return 1.0


def assess_branches(d: BranchDecomposition, epsilon: float = 0.1,
                    config: EstimatorConfig | None = None,
                    good_threshold: int = 2,
                    robustness_lambda: float | None = None,
                    noise_rate: float | None = None,
                    candidates: dict[ComplexityKind, list[Circuit]] | None = None,
                    ) -> BranchVerdict:
    """Render the pairwise interference-vs-distinguishability verdict.

    For every unordered component pair this computes the interference
    estimate at accuracy epsilon and the distinguishability estimate at
    1 - epsilon, the margin (certified interference lower bound minus
    witnessed distinguishability upper bound), and the classification.
    The decomposition is Good/Robust only when every pair is.
    """
    if not 0.0 < epsilon <= 0.25:
        raise ValueError("epsilon must lie in (0, 0.25]")
    _require_valid(d)
    _require_threshold(good_threshold)
    config = config or EstimatorConfig()
    lam = resolve_lambda(robustness_lambda, noise_rate)
    targets = ((ComplexityKind.INTERFERENCE, epsilon),
               (ComplexityKind.DISTINGUISHABILITY, 1.0 - epsilon))

    pairs = []
    for i, j in itertools.combinations(range(len(d.components)), 2):
        ci, cd = estimate_pair(d.components[i][1], d.components[j][1],
                               targets, config, candidates)
        # a truncated walk certifies nothing from below
        ci_lower = None if ci.truncated else ci.lower_bound
        classification = grade(ci_lower, cd.upper_bound, good_threshold, lam)
        margin = None
        if ci_lower is not None and cd.upper_bound is not None:
            margin = ci_lower - cd.upper_bound
        witness_margin = None
        if ci.upper_bound is not None and cd.upper_bound is not None:
            witness_margin = ci.upper_bound - cd.upper_bound
        ratio = None
        if cd.upper_bound and margin is not None:
            ratio = ci.lower_bound / cd.upper_bound
        pairs.append(PairAssessment(i, j, ci, cd, margin, witness_margin,
                                    ratio, classification))

    overall = min((p.classification for p in pairs), key=CLASS_RANK.index)
    return BranchVerdict(tuple(pairs), overall, epsilon, good_threshold, lam)


# ---------------------------------------------------------------------------
# Outcome-probability gap between the pure state and its dephased mixture
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapReport:
    """The gap over every circuit up to the cap; truncated is always false."""

    max_gap_found: float
    bound_rhs_at_max: float
    per_pair_terms_at_max: tuple[float, ...]
    max_equality_residual: float | None
    max_bound_violation: float
    circuits_checked: int
    phase_points: int
    truncated: bool


def rho_vs_diag_gap(d: BranchDecomposition, circuit_budget: int = 2,
                    phase_points: int = 8) -> GapReport:
    """Exhaustively compare outcome probabilities of the pure parent (at every
    relative phase on a grid) against the dephased mixture of components.

    For every enumerated alphabet circuit, every computational outcome, and
    every phase assignment, the probability gap must stay below the pairwise
    sum bound (checked to 1e-10; a violation is raised as an implementation
    bug). With exactly two components the gap equals its single pair term
    identically, and the worst equality residual is reported. Every circuit
    of at most circuit_budget gates is checked, in one walk that grows each
    level once, so truncated is false; the largest gap is reported at the
    lowest-ranked circuit that reaches it.
    """
    _require_valid(d)
    if (phase_points < 1
            or phase_points ** (len(d.components) - 1) > MAX_PHASE_GRID):
        raise ValueError(f"phase_points must be >= 1 with phase_points ** "
                         f"(components - 1) <= {MAX_PHASE_GRID}, got {phase_points}")
    n = d.parent.n_qubits
    if n > 6:
        raise ValueError("exhaustive gap check is limited to 6 qubits")
    _, total = node_limit(n, circuit_budget, None, None)

    k = len(d.components)
    sqrtw = np.array([abs(w) for w, _ in d.components])
    probs = sqrtw**2
    base = np.column_stack([s.amplitudes for _, s in d.components])  # (dim, k)
    dim = base.shape[0]

    grid = 2.0 * np.pi * np.arange(phase_points) / phase_points
    combos = np.array(list(itertools.product(*([grid] * (k - 1)))))
    phases = np.hstack([np.zeros((len(combos), 1)), combos])  # (T, k), theta_1 = 0
    phase_mat = np.exp(1j * phases).T  # (k, T)
    # about four complex (dim, T) arrays per circuit are alive at once
    step = max(1, CHUNK_BYTES // (4 * dim * len(phases) * 16))

    pair_list = list(itertools.combinations(range(k), 2))
    rels = [np.exp(1j * (phases[:, j] - phases[:, i])) for i, j in pair_list]
    max_gap = -1.0
    rhs_at_max = 0.0
    terms_at_max: tuple[float, ...] = ()
    max_eq_res = 0.0 if k == 2 else None
    max_violation = -np.inf
    rank_at_max = -1

    for _, f in walk_frontiers(base, n, circuit_budget, total):
        for p0 in range(0, len(f.rank), step):
            # (m, dim, k), contiguous so each product runs as the same
            # BLAS call per circuit whatever the chunk size
            block = np.ascontiguousarray(
                f.kets[:, p0:p0 + step].transpose(1, 0, 2))
            m = len(block)
            amp_w = block * sqrtw  # columns scaled by sqrt(p_i)
            p_diag = (np.abs(block) ** 2).reshape(-1, k) @ probs
            # |p_theta - p_diag| in place, p_theta = |amp_w @ phases|^2
            lhs = np.abs(amp_w.reshape(-1, k) @ phase_mat) ** 2
            lhs -= p_diag[:, None]
            lhs = np.abs(lhs, out=lhs).reshape(m, -1)

            rhs = np.zeros_like(lhs)
            pair_terms = []
            for (i, j), rel in zip(pair_list, rels):
                cij = np.conj(amp_w[..., i]) * amp_w[..., j]  # (m, dim)
                term = np.abs(np.real(cij[..., None] * rel)).reshape(m, -1)
                term *= 2.0
                pair_terms.append(term)
                rhs += term
            viol = float((lhs - rhs).max())
            max_violation = max(max_violation, viol)
            if viol > GAP_ATOL:
                raise AssertionError(
                    f"outcome-probability sum bound violated by {viol:.3e}; "
                    "this indicates an implementation bug"
                )
            if k == 2:
                max_eq_res = max(max_eq_res, float(np.abs(lhs - rhs).max()))
            # ranks rise within a chunk, so its first maximum is its
            # lowest-ranked circuit at the maximum; across chunks a tie at
            # the maximum goes to the lower rank
            node = int(lhs.max(axis=1).argmax())
            flat = int(lhs[node].argmax())
            gap = float(lhs[node, flat])
            rank = int(f.rank[p0 + node])
            if gap > max_gap or (gap == max_gap and rank < rank_at_max):
                max_gap, rank_at_max = gap, rank
                rhs_at_max = float(rhs[node, flat])
                terms_at_max = tuple(float(t[node, flat]) for t in pair_terms)

    return GapReport(max_gap, rhs_at_max, terms_at_max, max_eq_res,
                     max_violation, total, phase_points, False)


# ---------------------------------------------------------------------------
# Merge bounds and three-branch compatibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MergeBoundReport:
    p: float
    epsilon: float
    d_lhs: int
    d_rhs: int
    i_lhs: int
    i_rhs_min: int
    d_delta_lhs: float
    i_delta_lhs: float
    d_ok: bool
    i_ok: bool
    max_len: int


def _merge_bounds(states: list, a, b, c, p: float, epsilon: float):
    """merge_bound_check's part of a survey: appends its states to `states`
    and returns its channels, indices into `states`, and its report's reader."""
    _require_orthogonal([a, b, c])
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if epsilon >= p:
        raise ValueError("the shifted accuracy 1 - eps/p requires eps < p, "
                         f"got eps = {epsilon} and p = {p}")

    grid = 2.0 * np.pi * np.arange(PHASE_POINTS) / PHASE_POINTS
    merged = [
        math.sqrt(p) * b.amplitudes + np.exp(1j * t) * math.sqrt(1 - p) * c.amplitudes
        for t in grid
    ]
    ia, ib = len(states), len(states) + 1
    states += [a.amplitudes, b.amplitudes] + merged
    kD, kI = ComplexityKind.DISTINGUISHABILITY, ComplexityKind.INTERFERENCE
    d_ab, i_ab = Channel(kD, ia, ib), Channel(kI, ia, ib)
    d_merged = Channel(kD, ia, ib + 1)  # theta = 0 entry
    i_merged = [Channel(kI, ia, ib + 1 + t) for t in range(PHASE_POINTS)]

    def read(res) -> MergeBoundReport:
        d_delta_lhs = 1.0 - epsilon / p
        i_delta_lhs = epsilon / math.sqrt(p)
        d_lhs = res.size(d_ab, d_delta_lhs)
        i_lhs = res.size(i_ab, i_delta_lhs)
        d_rhs = res.size(d_merged, 1.0 - epsilon)
        i_rhs_min = min(res.size(ch, epsilon) for ch in i_merged)
        return MergeBoundReport(
            p=p, epsilon=epsilon, d_lhs=d_lhs, d_rhs=d_rhs, i_lhs=i_lhs,
            i_rhs_min=i_rhs_min, d_delta_lhs=d_delta_lhs,
            i_delta_lhs=i_delta_lhs, d_ok=d_lhs <= d_rhs,
            i_ok=i_lhs >= i_rhs_min, max_len=res.max_len)
    return [d_ab, i_ab, d_merged] + i_merged, read


def merge_bound_check(a: QuantumState, b: QuantumState, c: QuantumState,
                      p: float, epsilon: float = 0.1,
                      max_len: int = 3) -> MergeBoundReport:
    """Distinguishing/interfering against a merged component bounds the
    single-component quantities at shifted accuracies:

      size_D(a, b, 1 - eps/p)      <= size_D(a, sqrt(p) b + sqrt(1-p) c, 1 - eps)
      size_I(a, b, eps / sqrt(p))  >= min over a phase grid of
                                      size_I(a, sqrt(p) b + e^{i t} sqrt(1-p) c, eps)

    Sizes are enumerated minimal fused costs, with cap+1 standing in for
    "not found within the cap". The phase grid is PHASE_POINTS equally
    spaced points of the full circle, as the averaged witness argument
    needs; p must exceed eps > 0, which keeps eps/sqrt(p) within (0, 1).
    """
    states: list[np.ndarray] = []
    channels, read = _merge_bounds(states, a, b, c, p, epsilon)
    return read(survey(states, a.n_qubits, channels, max_len))


@dataclass(frozen=True)
class ThreeBranchReport:
    b1: int
    b2: int
    margin_ab: int
    margin_bc: int
    margin_ca: int
    ok_ab: bool
    ok_bc: bool
    ok_ca: bool
    epsilon: float
    phase_points: int
    max_len: int

    @property
    def ok(self) -> bool:
        return self.ok_ab and self.ok_bc and self.ok_ca


def _three_branches(states: list, a, b, c, epsilon: float):
    """three_branch_compatibility's part of a survey (see _merge_bounds)."""
    _require_orthogonal([a, b, c])
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")

    grid = 2.0 * np.pi * np.arange(PHASE_POINTS) / PHASE_POINTS
    rt2 = math.sqrt(2.0)
    bc = [(b.amplitudes + np.exp(1j * t) * c.amplitudes) / rt2 for t in grid]
    ab = [(a.amplitudes + np.exp(1j * t) * b.amplitudes) / rt2 for t in grid]
    ia, ib, ic = range(len(states), len(states) + 3)
    states += [a.amplitudes, b.amplitudes, c.amplitudes] + bc + ab
    kD, kI = ComplexityKind.DISTINGUISHABILITY, ComplexityKind.INTERFERENCE

    pairs = [(ia, ib), (ib, ic), (ic, ia)]
    i_pairs = [Channel(kI, i, j) for i, j in pairs]
    d_pairs = [Channel(kD, i, j) for i, j in pairs]
    # (a, (b+c)/sqrt2) and ((a+b)/sqrt2, c), interference over the grid
    bc0, ab0 = ic + 1, ic + 1 + PHASE_POINTS  # their theta = 0 states
    i_bc = [Channel(kI, ia, bc0 + t) for t in range(PHASE_POINTS)]
    d_bc = Channel(kD, ia, bc0)
    i_ab = [Channel(kI, ab0 + t, ic) for t in range(PHASE_POINTS)]
    d_ab = Channel(kD, ab0, ic)

    def read(res) -> ThreeBranchReport:
        b1 = min(res.size(ch, epsilon) for ch in i_bc) \
            - res.size(d_bc, 1.0 - epsilon)
        b2 = min(res.size(ch, epsilon) for ch in i_ab) \
            - res.size(d_ab, 1.0 - epsilon)
        d_i, d_d = rt2 * epsilon, 1.0 - 2.0 * epsilon
        m_ab, m_bc, m_ca = (res.size(ci, d_i) - res.size(cd, d_d)
                            for ci, cd in zip(i_pairs, d_pairs))
        return ThreeBranchReport(
            b1=b1, b2=b2, margin_ab=m_ab, margin_bc=m_bc, margin_ca=m_ca,
            ok_ab=m_ab >= b1, ok_bc=m_bc >= b2, ok_ca=m_ca >= max(b1, b2),
            epsilon=epsilon, phase_points=PHASE_POINTS, max_len=res.max_len)
    return i_pairs + d_pairs + i_bc + [d_bc] + i_ab + [d_ab], read


def three_branch_compatibility(a: QuantumState, b: QuantumState,
                               c: QuantumState, epsilon: float = 0.1,
                               max_len: int = 3) -> ThreeBranchReport:
    """Compatibility of the two bipartite splittings of an equal-weight
    three-component state: the branchiness of [a | b+c] and [a+b | c],
    minimized over a PHASE_POINTS grid of relative phases, lower bounds the
    pairwise margins at shifted accuracies (sqrt(2) eps and 1 - 2 eps)."""
    states: list[np.ndarray] = []
    channels, read = _three_branches(states, a, b, c, epsilon)
    return read(survey(states, a.n_qubits, channels, max_len))


# ---------------------------------------------------------------------------
# Irreversibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IrreversibilityEntry:
    pair: tuple[int, int]
    delta: float
    interference_lower: int
    reverse_upper: int | None
    preparation_cost: int
    status: str  # ok | violated | inconclusive


@dataclass(frozen=True)
class IrreversibilityReport:
    entries: tuple[IrreversibilityEntry, ...]

    def status_at(self, delta: float) -> str:
        """The worst status at accuracy delta; refuses one never compared."""
        stats = {e.status for e in self.entries if abs(e.delta - delta) < 1e-12}
        if not stats:
            raise ValueError(f"no comparison at accuracy {delta}; the report "
                             f"holds {sorted({e.delta for e in self.entries})}")
        return min(stats, key=("violated", "inconclusive", "ok").index)


def irreversibility_check(psi0: QuantumState, d: BranchDecomposition,
                          preparation_cost: int = 0,
                          max_len: int = 3) -> IrreversibilityReport:
    """Compare, per component pair and accuracy in DELTAS, the certified
    interference cost against the witnessed cost of mapping the parent back
    to psi0 plus psi0's preparation cost. Each comparison is reported rather
    than enforced: at small accuracy the mapping side can already be met by
    the empty circuit while swapping two orthogonal components cannot, so
    the comparison carries information only near accuracy 1.
    """
    _require_valid(d)
    if psi0.n_qubits != d.parent.n_qubits:
        raise ValueError("psi0 must match the decomposition width")

    states = [s.amplitudes for _, s in d.components]
    states += [d.parent.amplitudes, psi0.amplitudes]
    ip, i0 = len(states) - 2, len(states) - 1
    pairs = list(itertools.combinations(range(len(d.components)), 2))
    interference = [Channel(ComplexityKind.INTERFERENCE, i, j)
                    for i, j in pairs]
    reverse = Channel(ComplexityKind.RELATIVE, ip, i0)  # parent -> psi0
    res = survey(states, psi0.n_qubits, interference + [reverse], max_len)

    entries = []
    for delta in DELTAS:
        _, rev_upper, _, _ = res.bounds(reverse,
                                        reverse.kind.threshold(delta))
        for (i, j), channel in zip(pairs, interference):
            lower = res.size(channel, delta)
            if rev_upper is None:
                status = "inconclusive"
            elif lower <= rev_upper + preparation_cost:
                status = "ok"
            else:
                status = "violated"
            entries.append(IrreversibilityEntry(
                (i, j), delta, lower, rev_upper, preparation_cost, status))
    return IrreversibilityReport(tuple(entries))
