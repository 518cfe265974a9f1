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
    _require_width,
    apply_circuit,
    apply_pauli_string,
    evolve,
    inner_product,
)

# dC/dt = rate * f(C, k); the saturating form is the default, the
# fast-scrambling variant grows exponentially at early times instead
RATE_FUNCTIONS = {
    "saturating": lambda c, k: c / (c + k),
    "fast_scrambling": lambda c, k: -math.expm1(-c / k),
}

# Fixed for every check: the Ising chain's (J, g, h), the XXZ chain's
# (J_xy, J_z), the rotation commuting with it, the accuracy of the tracked
# estimates and the distinguishability drift a frozen pair may show
ISING_J, ISING_G, ISING_H = 1.0, -1.05, 0.5
XXZ_JXY, XXZ_JZ = 1.0, 0.5
PHASE_ANGLE = np.pi / 2
TRACK_EPSILON = 0.1
FREEZE_TOL = 1e-6
# the most steps one flow integration may take, 100x the default run's 10,001
FLOW_MAX_STEPS = 10**6


@dataclass(frozen=True)
class FlowParams:
    k: float = 1.0
    rate: float = 1.0
    dt: float = 1e-3
    t_end: float = 10.0
    rate_function: str = "saturating"

    def __post_init__(self):
        for name in ("k", "rate", "dt"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if self.rate_function not in RATE_FUNCTIONS:
            raise ValueError(f"unknown rate function {self.rate_function!r}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end}")
        steps = self.t_end / self.dt
        if math.isinf(steps) or round(steps) > FLOW_MAX_STEPS:
            raise ValueError(
                f"t_end / dt = {self.t_end} / {self.dt} plans {steps:.3g} steps, "
                f"above FLOW_MAX_STEPS = {FLOW_MAX_STEPS:,}; lower t_end or "
                "raise dt")


@dataclass(frozen=True)
class FlowSample:
    t: float
    c_i: float
    c_d: float
    invariant_drift: float


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
    saturating model; a zero-start track is an exact fixed point and stays 0).
    """
    for name, c0 in (("ci0", ci0), ("cd0", cd0)):
        if not (math.isfinite(c0) and c0 >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {c0}")
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
        samples.append(FlowSample(t, ci, cd, max(drifts, default=0.0)))
        if step < n_steps:
            ci = rk4(ci) if ci > 0 else 0.0
            cd = rk4(cd) if cd > 0 else 0.0
    return Trajectory(tuple(samples), "flow")


def _time_grid(t_grid: list[float], check: str) -> tuple[float, ...]:
    """The sorted times of t_grid; refuses an empty grid and a time that is
    not finite, before anything is evolved."""
    if not t_grid:
        raise ValueError(f"{check} needs at least one time in t_grid")
    for t in t_grid:
        if not math.isfinite(t):
            raise ValueError(f"t_grid times must be finite, got {t}")
    return tuple(sorted(t_grid))


def track_complexity_under_evolution(a0: QuantumState, b0: QuantumState,
                                     h: Hamiltonian, witness0: Circuit,
                                     t_grid: list[float],
                                     config: EstimatorConfig | None = None,
                                     ) -> Trajectory:
    """Evolve the pair and record (i) the interference objective of the fixed
    initial witness, showing how a stale witness decays, and (ii) fresh
    enumerated estimates at each time within the configured budget, at
    accuracy TRACK_EPSILON, both costs from one estimate_pair call."""
    if a0.n_qubits > 10:
        raise ValueError("empirical tracking is limited to 10 qubits")
    grid = _time_grid(t_grid, "tracking")
    config = config or EstimatorConfig()
    targets = ((ComplexityKind.INTERFERENCE, TRACK_EPSILON),
               (ComplexityKind.DISTINGUISHABILITY, 1.0 - TRACK_EPSILON))
    samples = []
    for t in grid:
        at = evolve(a0, h, t)
        bt = evolve(b0, h, t)
        objective = objective_value(ComplexityKind.INTERFERENCE, witness0, at, bt)
        ci, cd = estimate_pair(at, bt, targets, config)
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
                          u_sym: Circuit, t_grid: list[float]) -> FreezeReport:
    """A circuit commuting with the Hamiltonian keeps distinguishing power
    between its eigenstates at all times: the distinguishability objective of
    u_sym on the evolved pair must stay constant across the grid (within
    FREEZE_TOL), while its interference objective is reported (it cannot map
    between distinct eigenphase sectors, so it stays near zero)."""
    if h.n_qubits > 12:
        raise ValueError("the freeze check evolves exactly, which is limited "
                         f"to 12 qubits, got {h.n_qubits}")
    grid = _time_grid(t_grid, "the freeze check")
    u_mat = u_sym.to_matrix()
    h_mat = h.to_matrix()
    # ||UH - HU|| = ||H - U^dag H U|| for unitary U, and the right side is
    # Hermitian, so its norm is its largest |eigenvalue|
    comm = float(np.max(np.abs(np.linalg.eigvalsh(
        h_mat - u_mat.conj().T @ h_mat @ u_mat))))
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
    dvals, ivals = [], []
    for t in grid:
        at = evolve(a, h, t)
        bt = evolve(b, h, t)
        dvals.append(objective_value(ComplexityKind.DISTINGUISHABILITY,
                                     u_sym, at, bt))
        ivals.append(objective_value(ComplexityKind.INTERFERENCE,
                                     u_sym, at, bt))
    tv = float(max(dvals) - min(dvals))
    return FreezeReport(comm, phase_a, phase_b, grid,
                        tuple(dvals), tuple(ivals), tv, tv <= FREEZE_TOL)


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


def eth_diagnostic(h: Hamiltonian, observables: list,
                   window_fraction: float = 1 / 3) -> EthReport:
    """Adjacent-eigenstate diagonal gaps and off-diagonal magnitudes of the
    given observables over the middle fraction of the spectrum. Each
    observable's Pauli terms act on the window's eigenvectors; no dense
    observable matrix is built."""
    if h.n_qubits > 12:
        raise ValueError("full diagonalization is limited to 12 qubits")
    if not 0.0 < window_fraction <= 1.0:
        raise ValueError("window fraction must lie in (0, 1]")
    dim = 2**h.n_qubits
    lo = int(round(dim * (1 - window_fraction) / 2))
    hi = min(dim, lo + max(2, int(round(dim * window_fraction))))
    if hi - lo < 2:
        raise ValueError(
            f"the window fraction {window_fraction} holds {hi - lo} eigenstate "
            f"of {h.n_qubits} qubits; adjacent gaps need at least 2")
    basis = h.eigensystem()[1][:, lo:hi]

    stats = []
    for obs in observables:
        if isinstance(obs, str):
            name, terms = obs, ((1.0, obs),)
        elif isinstance(obs, Hamiltonian):
            name, terms = "hamiltonian", obs.terms
        else:
            raise TypeError("observables must be Pauli strings or Hamiltonians")
        image = sum((c * apply_pauli_string(basis, h.n_qubits, p)
                     for c, p in terms), np.zeros_like(basis))
        inw = basis.conj().T @ image
        diag = np.real(np.diagonal(inw))
        gaps = np.abs(np.diff(diag))
        off = np.abs(inw - np.diag(np.diagonal(inw)))
        stats.append(ObservableStats(
            name, float(gaps.max()), float(np.median(gaps)),
            float(off.max())))
    return EthReport(h.n_qubits, (lo, hi), tuple(stats))


# ---------------------------------------------------------------------------
# Standard chains
# ---------------------------------------------------------------------------

def mixed_field_ising(n: int) -> Hamiltonian:
    """Open mixed-field Ising chain, a standard strongly nonintegrable choice:
    sum_i J Z_i Z_{i+1} + g X_i + h Z_i at (J, g, h) = (1, -1.05, 0.5)."""
    terms = []
    for i in range(n - 1):
        terms.append((ISING_J, "I" * i + "ZZ" + "I" * (n - i - 2)))
    for i in range(n):
        terms.append((ISING_G, "I" * i + "X" + "I" * (n - i - 1)))
        terms.append((ISING_H, "I" * i + "Z" + "I" * (n - i - 1)))
    return Hamiltonian(n, tuple(terms))


def xxz_chain(n: int) -> Hamiltonian:
    """Open XXZ chain at (J_xy, J_z) = (1, 0.5); conserves total Z
    magnetization."""
    terms = []
    for i in range(n - 1):
        pad = "I" * i, "I" * (n - i - 2)
        terms.append((XXZ_JXY, pad[0] + "XX" + pad[1]))
        terms.append((XXZ_JXY, pad[0] + "YY" + pad[1]))
        terms.append((XXZ_JZ, pad[0] + "ZZ" + pad[1]))
    return Hamiltonian(n, tuple(terms))


def magnetization_sector_state(n: int, n_down: int, seed: int) -> QuantumState:
    """Seeded random state supported on the fixed Hamming-weight sector."""
    _require_width(n, "magnetization_sector_state")
    if not 0 <= n_down <= n:
        raise ValueError(f"n_down must lie in [0, n], got {n_down}")
    rng = np.random.default_rng(seed)
    vec = np.zeros(2**n, dtype=complex)
    idx = np.flatnonzero(np.bitwise_count(np.arange(2**n)) == n_down)
    vec[idx] = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
    return QuantumState(n, vec / np.linalg.norm(vec))


def phase_rotation_circuit(n: int) -> Circuit:
    """Product of single-qubit phase rotations exp(i * PHASE_ANGLE * Z) on
    every qubit."""
    mat = np.array([[np.exp(1j * PHASE_ANGLE), 0],
                    [0, np.exp(-1j * PHASE_ANGLE)]], dtype=complex)
    return Circuit(n, tuple(GateOp((q,), mat, "PHZ") for q in range(n)))
