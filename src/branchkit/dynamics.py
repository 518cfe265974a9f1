"""Complexity-growth dynamics: the saturating flow model with its conserved
combination, empirical tracking of estimates under Hamiltonian evolution,
the conserved-quantity freezing demonstration, and eigenstate statistics of
local observables for chaotic chains.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branches import EstimatorConfig, estimate_pair
from .complexity import ComplexityKind, objective_value
from .qsim import (
    Circuit,
    GateOp,
    Hamiltonian,
    QuantumState,
    apply_circuit,
    evolve,
    inner_product,
)

# dC/dt = rate * f(C, k); the saturating form is the default, the
# fast-scrambling variant grows exponentially at early times instead
RATE_FUNCTIONS = {
    "saturating": lambda c, k: c / (c + k),
    "fast_scrambling": lambda c, k: -math.expm1(-c / k),
}


@dataclass(frozen=True)
class FlowParams:
    k: float = 1.0
    rate: float = 1.0
    dt: float = 1e-3
    t_end: float = 10.0
    rate_function: str = "saturating"

    def __post_init__(self):
        if self.k <= 0 or self.rate <= 0 or self.dt <= 0:
            raise ValueError("k, rate, and dt must be positive")
        if self.rate_function not in RATE_FUNCTIONS:
            raise ValueError(f"unknown rate function {self.rate_function!r}")


@dataclass(frozen=True)
class FlowSample:
    t: float
    c_i: float
    c_d: float
    invariant_drift: float
    at_fixed_point: bool


@dataclass(frozen=True)
class TrackSample:
    t: float
    witness_objective: float
    ci_lower: int
    ci_upper: int | None
    cd_lower: int
    cd_upper: int | None
    truncated: bool


@dataclass(frozen=True)
class Trajectory:
    samples: tuple
    mode: str  # "flow" | "empirical"


def _flow_invariant(c: float, k: float, rate: float, t: float) -> float:
    # conserved along dC/dt = rate*C/(C+k):  C + k ln(C/k) - rate*t
    return c + k * math.log(c / k) - rate * t


def integrate_flow(ci0: float, cd0: float, p: FlowParams) -> Trajectory:
    """Fixed-step fourth-order integration of both complexity tracks.

    Each sample carries the drift of the conserved combination
    C + k ln(C/k) - rate*t relative to its initial value (for the default
    saturating model; zero-start tracks are exact fixed points and flagged).
    """
    if ci0 < 0 or cd0 < 0:
        raise ValueError("initial complexities must be nonnegative")
    f = RATE_FUNCTIONS[p.rate_function]

    def deriv(c: float) -> float:
        return p.rate * f(c, p.k)

    def rk4(c: float) -> float:
        k1 = deriv(c)
        k2 = deriv(c + 0.5 * p.dt * k1)
        k3 = deriv(c + 0.5 * p.dt * k2)
        k4 = deriv(c + p.dt * k3)
        return c + (p.dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    has_invariant = p.rate_function == "saturating"
    n_steps = int(round(p.t_end / p.dt))
    ci, cd = float(ci0), float(cd0)
    ref = {}
    for name, c0 in (("i", ci0), ("d", cd0)):
        if has_invariant and c0 > 0:
            ref[name] = _flow_invariant(c0, p.k, p.rate, 0.0)
    samples = []
    for step in range(n_steps + 1):
        t = step * p.dt
        drifts = []
        for name, c in (("i", ci), ("d", cd)):
            if name in ref:
                drifts.append(abs(_flow_invariant(c, p.k, p.rate, t) - ref[name]))
        fixed = ci0 == 0.0 or cd0 == 0.0
        samples.append(FlowSample(t, ci, cd, max(drifts, default=0.0), fixed))
        if step < n_steps:
            ci = rk4(ci) if ci > 0 else 0.0
            cd = rk4(cd) if cd > 0 else 0.0
    return Trajectory(tuple(samples), "flow")


def track_complexity_under_evolution(a0: QuantumState, b0: QuantumState,
                                     h: Hamiltonian, witness0: Circuit,
                                     t_grid: list[float],
                                     config: EstimatorConfig | None = None,
                                     epsilon: float = 0.1) -> Trajectory:
    """Evolve the pair and record (i) the interference objective of the fixed
    initial witness, showing how a stale witness decays, and (ii) fresh
    enumerated estimates at each time within the configured budget."""
    if a0.n_qubits > 10:
        raise ValueError("empirical tracking is limited to 10 qubits")
    config = config or EstimatorConfig()
    samples = []
    for t in sorted(t_grid):
        at = evolve(a0, h, t)
        bt = evolve(b0, h, t)
        objective = objective_value(ComplexityKind.INTERFERENCE, witness0, at, bt)
        ci = estimate_pair(ComplexityKind.INTERFERENCE, at, bt, epsilon, config)
        cd = estimate_pair(ComplexityKind.DISTINGUISHABILITY, at, bt,
                           1.0 - epsilon, config)
        samples.append(TrackSample(
            t, float(objective), ci.lower_bound, ci.upper_bound,
            cd.lower_bound, cd.upper_bound, ci.truncated or cd.truncated))
    return Trajectory(tuple(samples), "empirical")


@dataclass(frozen=True)
class FreezeReport:
    commutator_norm: float
    phase_a: float
    phase_b: float
    t_grid: tuple[float, ...]
    distinguishability: tuple[float, ...]
    interference: tuple[float, ...]
    total_variation: float
    ok: bool


def symmetry_freeze_check(a: QuantumState, b: QuantumState, h: Hamiltonian,
                          u_sym: Circuit, t_grid: list[float],
                          tol: float = 1e-6) -> FreezeReport:
    """A circuit commuting with the Hamiltonian keeps distinguishing power
    between its eigenstates at all times: the distinguishability objective of
    u_sym on the evolved pair must stay constant across the grid, while its
    interference objective is reported (it cannot map between distinct
    eigenphase sectors, so it stays near zero)."""
    u_mat = u_sym.to_matrix()
    h_mat = h.to_matrix()
    comm = float(np.linalg.norm(u_mat @ h_mat - h_mat @ u_mat, 2))
    if comm > 1e-8:
        raise ValueError(
            f"u_sym does not commute with the Hamiltonian (norm {comm:.3e})"
        )

    def eigenphase(state: QuantumState) -> float:
        image = apply_circuit(state, u_sym)
        ov = inner_product(state, image)
        resid = np.linalg.norm(image.amplitudes
                               - ov / abs(ov) * state.amplitudes)
        if abs(abs(ov) - 1.0) > 1e-6 or resid > 1e-6:
            raise ValueError(
                "states must be eigenstates of u_sym within 1e-6 "
                f"(|overlap| = {abs(ov):.8f}, residual = {resid:.2e})"
            )
        return float(np.angle(ov))

    phase_a, phase_b = eigenphase(a), eigenphase(b)
    grid = tuple(sorted(t_grid))
    dvals, ivals = [], []
    for t in grid:
        at = evolve(a, h, t)
        bt = evolve(b, h, t)
        dvals.append(objective_value(ComplexityKind.DISTINGUISHABILITY,
                                     u_sym, at, bt))
        ivals.append(objective_value(ComplexityKind.INTERFERENCE,
                                     u_sym, at, bt))
    tv = float(max(dvals) - min(dvals)) if dvals else 0.0
    return FreezeReport(comm, phase_a, phase_b, grid,
                        tuple(dvals), tuple(ivals), tv, tv <= tol)


# ---------------------------------------------------------------------------
# Eigenstate statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservableStats:
    name: str
    max_diag_gap: float
    median_diag_gap: float
    max_offdiag: float


@dataclass(frozen=True)
class EthReport:
    n_qubits: int
    window: tuple[int, int]
    per_observable: tuple[ObservableStats, ...]


def _observable_matrix(obs, n: int) -> tuple[str, np.ndarray]:
    if isinstance(obs, str):
        h = Hamiltonian(n, ((1.0, obs),))
        return obs, h.to_matrix()
    if isinstance(obs, Circuit):
        return "circuit", obs.to_matrix()
    if isinstance(obs, Hamiltonian):
        return "hamiltonian", obs.to_matrix()
    raise TypeError("observables must be Pauli strings, circuits, or Hamiltonians")


def eth_diagnostic(h: Hamiltonian, observables: list,
                   window_fraction: float = 1 / 3) -> EthReport:
    """Adjacent-eigenstate diagonal gaps and off-diagonal magnitudes of the
    given observables over the middle fraction of the spectrum."""
    if h.n_qubits > 12:
        raise ValueError("full diagonalization is limited to 12 qubits")
    if not 0.0 < window_fraction <= 1.0:
        raise ValueError("window fraction must lie in (0, 1]")
    vals, vecs = h.eigensystem()
    dim = vals.shape[0]
    lo = int(round(dim * (1 - window_fraction) / 2))
    hi = min(dim, lo + max(2, int(round(dim * window_fraction))))
    basis = vecs[:, lo:hi]

    stats = []
    for obs in observables:
        name, mat = _observable_matrix(obs, h.n_qubits)
        inw = basis.conj().T @ mat @ basis
        diag = np.real(np.diagonal(inw))
        gaps = np.abs(np.diff(diag))
        off = np.abs(inw - np.diag(np.diagonal(inw)))
        stats.append(ObservableStats(
            name, float(gaps.max()), float(np.median(gaps)),
            float(off.max())))
    return EthReport(h.n_qubits, (lo, hi), tuple(stats))


@dataclass(frozen=True)
class EthSweepReport:
    sizes: tuple[int, ...]
    reports: tuple[EthReport, ...]
    diag_decay_rate: float | None
    offdiag_decay_rate: float | None


def eth_size_sweep(hamiltonians: list[Hamiltonian], observables_for,
                   window_fraction: float = 1 / 3) -> EthSweepReport:
    """Run the diagnostic across system sizes and report fitted exponential
    decay rates of the first observable's statistics (reported, not asserted)."""
    sizes = tuple(h.n_qubits for h in hamiltonians)
    reports = tuple(
        eth_diagnostic(h, observables_for(h.n_qubits), window_fraction)
        for h in hamiltonians
    )
    diag = [r.per_observable[0].median_diag_gap for r in reports]
    off = [r.per_observable[0].max_offdiag for r in reports]

    def fit(ys):
        # a slope needs two distinct sizes
        if len(set(sizes)) < 2 or any(y <= 0 for y in ys):
            return None
        slope = np.polyfit(sizes, np.log(ys), 1)[0]
        return float(-slope)

    return EthSweepReport(sizes, reports, fit(diag), fit(off))


# ---------------------------------------------------------------------------
# Standard chains
# ---------------------------------------------------------------------------

def mixed_field_ising(n: int, j: float = 1.0, g: float = -1.05,
                      h: float = 0.5) -> Hamiltonian:
    """Open mixed-field Ising chain, a standard strongly nonintegrable choice:
    sum_i j Z_i Z_{i+1} + g X_i + h Z_i."""
    terms = []
    for i in range(n - 1):
        terms.append((j, "I" * i + "ZZ" + "I" * (n - i - 2)))
    for i in range(n):
        terms.append((g, "I" * i + "X" + "I" * (n - i - 1)))
        terms.append((h, "I" * i + "Z" + "I" * (n - i - 1)))
    return Hamiltonian(n, tuple(terms))


def xxz_chain(n: int, jxy: float = 1.0, jz: float = 0.5) -> Hamiltonian:
    """Open XXZ chain; conserves total Z magnetization."""
    terms = []
    for i in range(n - 1):
        pad = "I" * i, "I" * (n - i - 2)
        terms.append((jxy, pad[0] + "XX" + pad[1]))
        terms.append((jxy, pad[0] + "YY" + pad[1]))
        terms.append((jz, pad[0] + "ZZ" + pad[1]))
    return Hamiltonian(n, tuple(terms))


def magnetization_sector_state(n: int, n_down: int, seed: int) -> QuantumState:
    """Seeded random state supported on the fixed Hamming-weight sector."""
    if not 0 <= n_down <= n:
        raise ValueError("n_down out of range")
    rng = np.random.default_rng(seed)
    vec = np.zeros(2**n, dtype=complex)
    idx = [i for i in range(2**n) if bin(i).count("1") == n_down]
    vec[idx] = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
    return QuantumState(n, vec / np.linalg.norm(vec))


def phase_rotation_circuit(n: int, angle: float = np.pi / 2) -> Circuit:
    """Product of single-qubit phase rotations exp(i * angle * Z) on every qubit."""
    mat = np.array([[np.exp(1j * angle), 0], [0, np.exp(-1j * angle)]],
                   dtype=complex)
    return Circuit(n, tuple(GateOp((q,), mat, "PHZ") for q in range(n)))
