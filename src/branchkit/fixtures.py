"""Deterministic constructors for the standard worked examples.

Every constructor returns an ExampleFixture: a validated branch
decomposition, descriptive expected-scaling metadata (never used in any
computation), and structural witness circuits that the estimators may use
as constructive candidates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .branches import BranchDecomposition, validate_decomposition
from .complexity import ComplexityKind, pair_blocks
from .qsim import (
    GATES_1Q,
    Circuit,
    GateOp,
    QuantumState,
    _require_orthogonal,
    _require_width,
    apply_circuit,
    haar_random_state,
    random_circuit,
)

_RT2 = math.sqrt(2.0)


@dataclass(frozen=True, kw_only=True)
class ExampleFixture:
    name: str
    source_section: str
    seed: int | None = None
    expected: dict
    decomposition: BranchDecomposition
    known_witnesses: dict = field(default_factory=dict)

    def pair(self) -> tuple[QuantumState, QuantumState]:
        (_, s0), (_, s1) = self.decomposition.components  # two branches
        return s0, s1


def _two_branches(name: str, section: str, expected: dict, branches,
                  witnesses: dict | None = None, seed: int | None = None
                  ) -> ExampleFixture:
    """The validated fixture for w0|s0> + w1|s1>, split into its two
    branches ((w0, s0), (w1, s1))."""
    (w0, s0), (w1, s1) = branches
    parent = QuantumState.from_vector(w0 * s0.amplitudes + w1 * s1.amplitudes)
    fixture = ExampleFixture(
        name=name, source_section=section, seed=seed, expected=expected,
        decomposition=BranchDecomposition(parent, tuple(branches)),
        known_witnesses=witnesses or {})
    report = validate_decomposition(fixture.decomposition)
    if not report.ok:
        raise ValueError(
            f"fixture {name!r} failed validation: {report.worst.detail}"
        )
    return fixture


def _marker(n: int, label: str) -> Circuit:
    """One `label` gate on qubit 0."""
    return Circuit(n, (GateOp((0,), GATES_1Q[label], label),))


def _circuit_pair(n: int, d0: int, d1: int, seed: int):
    """Random circuits c0, c1 of depths d0, d1 on two seeds spawned from
    `seed`; returns them with g0 = c0|0..0>, the overlap <g0|c1|0..0>, and
    the part of c1|0..0> orthogonal to g0, unnormalized (zero when the two
    states coincide)."""
    _require_width(n, "a random-circuit register")
    ss = np.random.SeedSequence(seed).spawn(2)
    c0 = random_circuit(n, d0, int(ss[0].generate_state(1)[0]))
    c1 = random_circuit(n, d1, int(ss[1].generate_state(1)[0]))
    zero = QuantumState.zero(n)
    g0 = apply_circuit(zero, c0)
    v1 = apply_circuit(zero, c1).amplitudes
    overlap = complex(np.vdot(g0.amplitudes, v1))
    return c0, c1, g0, overlap, v1 - overlap * g0.amplitudes


def _weights_ok(alpha: complex, beta: complex):
    for name, weight in (("alpha", alpha), ("beta", beta)):
        if not abs(weight) <= 1 + 1e-10:  # NaN fails too; squares stay finite
            raise ValueError(f"|{name}| must be finite, at most 1: {weight}")
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-10:
        raise ValueError("|alpha|^2 + |beta|^2 must equal 1")
    if abs(alpha) < 1e-12 or abs(beta) < 1e-12:
        raise ValueError("zero-weight branches are degenerate; both weights must be nonzero")


def ghz(n: int, alpha: complex = 1 / _RT2, beta: complex = 1 / _RT2
        ) -> ExampleFixture:
    """Cat state alpha|0...0> + beta|1...1> split into its two basis arms."""
    if not 2 <= n <= 12:
        raise ValueError("ghz supports 2..12 qubits")
    _weights_ok(alpha, beta)
    return _two_branches(
        "ghz", "ghz", {"ci_scaling": "O(N)", "cd_scaling": "1"},
        ((alpha, QuantumState.basis(n, 0)),
         (beta, QuantumState.basis(n, 2**n - 1))),
        {ComplexityKind.INTERFERENCE: [pair_blocks(list(range(n)), n,
                                                   GATES_1Q["X"], "X")],
         ComplexityKind.DISTINGUISHABILITY: [_marker(n, "Z")]})


def product_plus_random(n: int, alpha: complex = 1 / _RT2,
                        beta: complex = 1 / _RT2, seed: int = 0
                        ) -> ExampleFixture:
    """Product state plus a seeded random state orthogonalized against it."""
    if n < 3:
        raise ValueError("product_plus_random needs at least 3 qubits")
    _weights_ok(alpha, beta)
    eta = haar_random_state(n, seed).amplitudes
    zero = QuantumState.basis(n, 0)
    eta = eta - eta[0] * zero.amplitudes
    return _two_branches(
        "product_plus_random", "product-plus-random",
        {"ci_scaling": "O(exp N)", "cd_scaling": "O(1)"},
        ((alpha, zero), (beta, QuantumState(n, eta / np.linalg.norm(eta)))),
        {ComplexityKind.DISTINGUISHABILITY: [_marker(n, "Z")]}, seed=seed)


def two_random_circuits(n: int, d1: int, d2: int, seed: int
                        ) -> ExampleFixture:
    """Superposition of two seeded random-circuit states (second component
    orthogonalized; the raw overlap is recorded in the metadata)."""
    if n < 4 or n % 2:
        raise ValueError("two_random_circuits needs even n >= 4")
    c1, c2, g1, raw_overlap, vec = _circuit_pair(n, d1, d2, seed)
    if abs(raw_overlap) > 0.5:
        raise ValueError(
            f"circuit states overlap too strongly (|overlap| = {abs(raw_overlap):.3f})"
        )
    w = 1 / _RT2
    return _two_branches(
        "two_random_circuits", "two-random-circuits",
        {"ci_scaling": "O((D1+D2) N)",
         "cd_scaling": "O(min(D1,D2) N)",
         "good_when": "max(D1,D2)*N large",
         "raw_overlap": [raw_overlap.real, raw_overlap.imag],
         "d1": d1, "d2": d2},
        ((w, g1), (w, QuantumState(n, vec / np.linalg.norm(vec)))),
        {ComplexityKind.INTERFERENCE: [c1.inverse().then(c2)],
         ComplexityKind.DISTINGUISHABILITY: [
             c1.inverse().then(_marker(n, "Z")).then(c1)]},
        seed=seed)


@dataclass(frozen=True)
class ParityCode:
    state0: QuantumState
    state1: QuantumState
    fixture: ExampleFixture


def parity_codewords(m1: int, m2: int) -> ParityCode:
    """Codewords of the block parity code: m2 blocks of m1 qubits, each block
    (|0..0> +/- |1..1>)/sqrt(2); returns both codewords plus the fixture for
    their equal superposition."""
    n = m1 * m2
    if n > 12:
        raise ValueError("parity_codewords is limited to 12 physical qubits")
    if m1 < 1 or m2 < 1:
        raise ValueError("block sizes must be positive")
    plus = np.zeros(2**m1, dtype=complex)
    minus = np.zeros(2**m1, dtype=complex)
    plus[0] = plus[-1] = 1 / _RT2
    minus[0], minus[-1] = 1 / _RT2, -1 / _RT2
    v0 = np.array([1.0 + 0j])
    v1 = np.array([1.0 + 0j])
    for _ in range(m2):
        v0 = np.kron(v0, plus)
        v1 = np.kron(v1, minus)
    s0, s1 = QuantumState(n, v0), QuantumState(n, v1)
    # one Z on any qubit per block swaps the codewords; X across one block
    # distinguishes them
    z_sites = [b * m1 for b in range(m2)]
    x_sites = list(range(m1))
    w = 1 / _RT2
    fixture = _two_branches(
        "parity_codewords", "parity-code",
        {"ci_scaling": f"m2 = {m2} (single-qubit-gate units)",
         "cd_scaling": f"m1 = {m1} (single-qubit-gate units)",
         "m1": m1, "m2": m2},
        ((w, s0), (w, s1)),
        {ComplexityKind.INTERFERENCE: [pair_blocks(z_sites, n, GATES_1Q["Z"], "Z")],
         ComplexityKind.DISTINGUISHABILITY: [
             pair_blocks(x_sites, n, GATES_1Q["X"], "X")]})
    return ParityCode(s0, s1, fixture)


def tensor_branches(mode: str, left: tuple[QuantumState, QuantumState],
                    right) -> ExampleFixture:
    """Separable mode: (psi_L + phi_L) x R with branches [psi_L x R, phi_L x R].
    Entangled mode: psi_L x psi_R + phi_L x phi_R with product branches."""
    _require_orthogonal(left)
    if mode == "separable":
        right = (right, right)
    elif mode == "entangled":
        if right[0].n_qubits != right[1].n_qubits:
            raise ValueError("right states must share a qubit count")
    else:
        raise ValueError(f"unknown mode {mode!r}")
    n = left[0].n_qubits + right[0].n_qubits
    if n > 10:
        raise ValueError("tensor_branches is limited to 10 total qubits")
    w = 1 / _RT2
    return _two_branches(
        f"tensor_{mode}", f"tensor-{mode}",
        {"ci_scaling": "inherited from the left pair",
         "cd_scaling": "inherited from the left pair",
         "left_qubits": left[0].n_qubits},
        tuple((w, QuantumState(n, np.kron(lt.amplitudes, rt.amplitudes)))
              for lt, rt in zip(left, right)))


def distinguishing_qubit_state(eta0: QuantumState, eta1: QuantumState,
                               basis: str = "computational") -> ExampleFixture:
    """One extra qubit labels two orthogonal register states; the same parent
    decomposes in the computational or the conjugate labeling."""
    _require_orthogonal((eta0, eta1))
    n = eta0.n_qubits + 1
    up = np.array([1, 0], dtype=complex)
    dn = np.array([0, 1], dtype=complex)
    if basis == "computational":
        comp0 = np.kron(up, eta0.amplitudes)
        comp1 = np.kron(dn, eta1.amplitudes)
        label = "Z"
    elif basis == "conjugate":
        plus = (up + dn) / _RT2
        minus = (up - dn) / _RT2
        eta_p = (eta0.amplitudes + eta1.amplitudes) / _RT2
        eta_m = (eta0.amplitudes - eta1.amplitudes) / _RT2
        comp0 = np.kron(plus, eta_p)
        comp1 = np.kron(minus, eta_m)
        label = "X"
    else:
        raise ValueError(f"unknown basis {basis!r}")
    w = 1 / _RT2
    return _two_branches(
        "distinguishing_qubit", "distinguishing-qubit",
        {"ci_scaling": "set by the register pair",
         "cd_scaling": "1", "basis": basis},
        ((w, QuantumState(n, comp0)), (w, QuantumState(n, comp1))),
        {ComplexityKind.DISTINGUISHABILITY: [_marker(n, label)]})


def deep_random_registers(n_register: int, depth: int, seed: int
                          ) -> tuple[QuantumState, QuantumState]:
    """Two orthogonal register states prepared by seeded random circuits."""
    _, _, e0, _, v1 = _circuit_pair(n_register, depth, depth, seed)
    norm = np.linalg.norm(v1)
    if norm < 1e-8:
        raise ValueError(f"register states coincide: both depth-{depth} "
                         f"circuits (seed {seed}) prepare the same state")
    return e0, QuantumState(n_register, v1 / norm)
