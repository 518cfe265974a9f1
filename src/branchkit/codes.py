"""Approximate error-correction conditions and their complexity consequences.

Codewords are orthonormal states; errors are Pauli strings whose cost is the
Pauli weight in 2-qubit-gate units, ceil(weight/2). The residual tensor
eps[m,n,i,j] = <i|Em†En|j> - lambda[m,n] delta_ij vanishes exactly for an
exactly correctable error set; its maximum is the approximateness of the
code. A code correcting everything up to cost c forces both interference and
distinguishability costs between codewords above 2c, the floor that makes
good codes and good branches mutually exclusive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .branches import _branch_quality
from .qsim import (QuantumState, _require_orthogonal, _require_pauli,
                   apply_pauli_string)

EXACT_TOL = 1e-9


def pauli_weight(label: str) -> int:
    return sum(1 for ch in label if ch != "I")


def pauli_cost(label: str) -> int:
    """Pauli-string complexity in 2-qubit-gate units."""
    return math.ceil(pauli_weight(label) / 2)


@dataclass(frozen=True)
class CodeSpec:
    codewords: tuple[QuantumState, ...]
    errors: tuple[str, ...]

    def __post_init__(self):
        if len(self.codewords) < 2:
            raise ValueError("a code needs at least 2 codewords")
        n = self.codewords[0].n_qubits
        _require_orthogonal(self.codewords)
        errors = tuple(str(e).upper() for e in self.errors)
        for e in errors:
            _require_pauli(n, e)
        object.__setattr__(self, "errors", errors)

    @property
    def n_qubits(self) -> int:
        return self.codewords[0].n_qubits


@dataclass(frozen=True)
class ResidualReport:
    lambda_mn: np.ndarray
    eps_mnij: np.ndarray
    max_eps: float
    correctable_to: int
    error_costs: tuple[int, ...]
    level_pass: tuple[tuple[int, bool], ...]
    exact_tol: float

    def max_eps_up_to_cost(self, cost: int) -> float:
        idx = [m for m, c in enumerate(self.error_costs) if c <= cost]
        if not idx:
            return 0.0
        sub = self.eps_mnij[np.ix_(idx, idx)]
        return float(np.max(np.abs(sub)))


def beny_oreshkov_residuals(code: CodeSpec,
                            exact_tol: float = EXACT_TOL) -> ResidualReport:
    """Fit lambda[m,n] and the residual tensor for the supplied error set.

    lambda[m,n] is the mean over codewords of <i|Em†En|i>, the least-squares
    fit of the delta_ij structure, so max|eps| is an honest approximateness
    measure rather than an assumed one. correctable_to is the largest error
    cost L such that every pair of supplied errors of cost <= L passes at
    exact_tol; the statement is about the supplied set, so it certifies a
    complexity floor only when the set is complete for each cost level.
    """
    n = code.n_qubits
    k = len(code.codewords)
    m_err = len(code.errors)
    block = np.stack([w.amplitudes for w in code.codewords], axis=1)
    acted = np.empty((m_err, k, 2**n), dtype=complex)
    for m, err in enumerate(code.errors):
        acted[m] = apply_pauli_string(block, n, err).T
    gram = np.einsum("mid,njd->mnij", acted.conj(), acted)
    lam = np.einsum("mnii->mn", gram) / k
    eps = gram - lam[:, :, None, None] * np.eye(k)[None, None]
    max_eps = float(np.max(np.abs(eps))) if m_err else 0.0

    herm_err = float(np.max(np.abs(lam - lam.conj().T))) if m_err else 0.0
    if herm_err > 1e-10:
        raise AssertionError(f"fitted lambda is not Hermitian ({herm_err:.3e})")

    costs = tuple(pauli_cost(e) for e in code.errors)
    levels = sorted(set(costs))
    level_pass = []
    correctable_to = 0
    for lvl in levels:
        idx = [m for m, c in enumerate(costs) if c <= lvl]
        sub = eps[np.ix_(idx, idx)]
        ok = bool(np.max(np.abs(sub)) <= exact_tol)
        level_pass.append((lvl, ok))
        if ok and all(p for _, p in level_pass):
            correctable_to = lvl
    return ResidualReport(lam, eps, max_eps, correctable_to, costs,
                          tuple(level_pass), exact_tol)


@dataclass(frozen=True)
class FloorStatement:
    c: int
    floor: int
    epsilon: float


def code_complexity_floor(report: ResidualReport) -> FloorStatement:
    """The complexity floor implied by the residuals: if every error of cost
    up to c is correctable (residuals within exact_tol), then for any accuracy
    at or above the passing subset's epsilon, both distinguishability and
    interference costs between codewords are at least floor = 2c."""
    c = report.correctable_to
    return FloorStatement(c=c, floor=2 * c,
                          epsilon=report.max_eps_up_to_cost(c))


@dataclass(frozen=True)
class SurfaceCodeModel:
    """Rectangular code with a long cycle of length L and short cycle l."""

    long_cycle: int
    short_cycle: int
    p: float

    def __post_init__(self):
        if not self.long_cycle >= self.short_cycle >= 1:
            raise ValueError("need long_cycle >= short_cycle >= 1")
        if not 0.0 < self.p < 0.5:
            raise ValueError("the rate formula holds for 0 < p < 1/2")

    def robust_l_min(self, c_const: float) -> float:
        """Long-cycle length above which interference stays infeasible even
        under active correction: e^{c * l * ln(1/p)}."""
        return math.exp(c_const * self.short_cycle * math.log(1.0 / self.p))


@dataclass(frozen=True)
class SurfaceRateReport:
    logical_rate: float
    asymptotic_form: float | None
    robust_l_min: float | None
    model: SurfaceCodeModel


def surface_logical_rate(model: SurfaceCodeModel,
                         c_const: float | None = None) -> SurfaceRateReport:
    """Leading-order logical relative-phase error rate per round:
    P = l! * L * p^ceil(l/2) / (ceil(l/2)! * floor(l/2)!), with the cruder
    closed asymptotic form reported alongside for comparison (undefined at
    l = 1)."""
    big_l, l, p = model.long_cycle, model.short_cycle, model.p
    half_up, half_dn = math.ceil(l / 2), math.floor(l / 2)
    rate = (math.factorial(l) * big_l * p**half_up
            / (math.factorial(half_up) * math.factorial(half_dn)))
    if l > 1:
        asym = (big_l * math.sqrt(2 * l / (math.pi * (l + 1) ** 2))
                * (4 * l**2 / (l**2 - 1) * p) ** (l / 2 + 1))
    else:
        asym = None
    robust = model.robust_l_min(c_const) if c_const is not None else None
    return SurfaceRateReport(rate, asym, robust, model)


def exact_binomial_tail_rate(model: SurfaceCodeModel) -> float:
    """Independent oracle for the leading-order rate: L times the exact
    binomial tail of at least ceil(l/2) flips among l sites."""
    big_l, l, p = model.long_cycle, model.short_cycle, model.p
    tail = sum(math.comb(l, w) * p**w * (1 - p) ** (l - w)
               for w in range(math.ceil(l / 2), l + 1))
    return big_l * tail


def classify_region(ci_lower: int, cd_upper: int, code_floor_threshold: int,
                    good_threshold: int, robustness_lambda: float) -> str:
    """Place a (interference, distinguishability) cost pair on the map of
    code-like versus branch-like regimes. The branch grades are those of
    `assess_branches`: a robust branch is a good branch first."""
    if min(ci_lower, cd_upper) < 0:
        raise ValueError("complexity bounds must be nonnegative")
    is_code = min(ci_lower, cd_upper) >= code_floor_threshold
    is_branch, is_robust = _branch_quality(ci_lower, cd_upper, good_threshold,
                                           robustness_lambda)
    if is_code and is_branch:
        return "Both"
    if is_robust:
        return "RobustBranch"
    if is_branch:
        return "GoodBranch"
    if is_code:
        return "GoodCode"
    return "Neither"
