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

    def pair(self, i: int = 0, j: int = 1) -> tuple[QuantumState, QuantumState]:
        return self.decomposition.components[i][1], self.decomposition.components[j][1]


def _checked(fixture: ExampleFixture) -> ExampleFixture:
    report = validate_decomposition(fixture.decomposition)
    if not report.ok:
        raise ValueError(
            f"fixture {fixture.name!r} failed validation: {report.worst.detail}"
        )
    return fixture


def _weights_ok(alpha: complex, beta: complex):
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
    zero = QuantumState.basis(n, 0)
    ones = QuantumState.basis(n, 2**n - 1)
    parent = QuantumState.from_vector(
        alpha * zero.amplitudes + beta * ones.amplitudes)
    dec = BranchDecomposition(parent, ((alpha, zero), (beta, ones)))
    witnesses = {
        ComplexityKind.INTERFERENCE: [pair_blocks(list(range(n)), n,
                                                  GATES_1Q["X"], "X")],
        ComplexityKind.DISTINGUISHABILITY: [
            Circuit(n, (GateOp((0,), GATES_1Q["Z"], "Z"),))],
    }
    return _checked(ExampleFixture(
        name="ghz", source_section="ghz",
        expected={"ci_scaling": "O(N)", "cd_scaling": "1"},
        decomposition=dec, known_witnesses=witnesses))


def product_plus_random(n: int, alpha: complex = 1 / _RT2,
                        beta: complex = 1 / _RT2, seed: int = 0
                        ) -> ExampleFixture:
    """Product state plus a seeded random state orthogonalized against it."""
    if n < 3:
        raise ValueError("product_plus_random needs at least 3 qubits")
    _weights_ok(alpha, beta)
    zero = QuantumState.basis(n, 0)
    eta = haar_random_state(n, seed).amplitudes
    eta = eta - eta[0] * zero.amplitudes
    eta_perp = QuantumState(n, eta / np.linalg.norm(eta))
    parent = QuantumState.from_vector(
        alpha * zero.amplitudes + beta * eta_perp.amplitudes)
    dec = BranchDecomposition(parent, ((alpha, zero), (beta, eta_perp)))
    witnesses = {
        ComplexityKind.DISTINGUISHABILITY: [
            Circuit(n, (GateOp((0,), GATES_1Q["Z"], "Z"),))],
    }
    return _checked(ExampleFixture(
        name="product_plus_random", source_section="product-plus-random",
        seed=seed, expected={"ci_scaling": "O(exp N)", "cd_scaling": "O(1)"},
        decomposition=dec, known_witnesses=witnesses))


def two_random_circuits(n: int, d1: int, d2: int, seed: int
                        ) -> ExampleFixture:
    """Superposition of two seeded random-circuit states (second component
    orthogonalized; the raw overlap is recorded in the metadata)."""
    if n < 4 or n % 2:
        raise ValueError("two_random_circuits needs even n >= 4")
    ss = np.random.SeedSequence(seed).spawn(2)
    c1 = random_circuit(n, d1, int(ss[0].generate_state(1)[0]))
    c2 = random_circuit(n, d2, int(ss[1].generate_state(1)[0]))
    zero = QuantumState.zero(n)
    g1 = apply_circuit(zero, c1)
    g2 = apply_circuit(zero, c2)
    raw_overlap = complex(np.vdot(g1.amplitudes, g2.amplitudes))
    if abs(raw_overlap) > 0.5:
        raise ValueError(
            f"circuit states overlap too strongly (|overlap| = {abs(raw_overlap):.3f})"
        )
    vec = g2.amplitudes - raw_overlap * g1.amplitudes
    g2p = QuantumState(n, vec / np.linalg.norm(vec))
    w = 1 / _RT2
    parent = QuantumState.from_vector(w * g1.amplitudes + w * g2p.amplitudes)
    dec = BranchDecomposition(parent, ((w, g1), (w, g2p)))
    z0 = Circuit(n, (GateOp((0,), GATES_1Q["Z"], "Z"),))
    witnesses = {
        ComplexityKind.INTERFERENCE: [c1.inverse().then(c2)],
        ComplexityKind.DISTINGUISHABILITY: [c1.inverse().then(z0).then(c1)],
    }
    return _checked(ExampleFixture(
        name="two_random_circuits", source_section="two-random-circuits",
        seed=seed,
        expected={"ci_scaling": "O((D1+D2) N)",
                  "cd_scaling": "O(min(D1,D2) N)",
                  "good_when": "max(D1,D2)*N large",
                  "raw_overlap": [raw_overlap.real, raw_overlap.imag],
                  "d1": d1, "d2": d2},
        decomposition=dec, known_witnesses=witnesses))


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
    w = 1 / _RT2
    parent = QuantumState.from_vector(w * v0 + w * v1)
    dec = BranchDecomposition(parent, ((w, s0), (w, s1)))
    # one Z on any qubit per block swaps the codewords; X across one block
    # distinguishes them
    z_sites = [b * m1 for b in range(m2)]
    x_sites = list(range(m1))
    witnesses = {
        ComplexityKind.INTERFERENCE: [pair_blocks(z_sites, n, GATES_1Q["Z"], "Z")],
        ComplexityKind.DISTINGUISHABILITY: [
            pair_blocks(x_sites, n, GATES_1Q["X"], "X")],
    }
    fixture = _checked(ExampleFixture(
        name="parity_codewords", source_section="parity-code",
        expected={"ci_scaling": f"m2 = {m2} (single-qubit-gate units)",
                  "cd_scaling": f"m1 = {m1} (single-qubit-gate units)",
                  "m1": m1, "m2": m2},
        decomposition=dec, known_witnesses=witnesses))
    return ParityCode(s0, s1, fixture)


def tensor_branches(mode: str, left: tuple[QuantumState, QuantumState],
                    right) -> ExampleFixture:
    """Separable mode: (psi_L + phi_L) x R with branches [psi_L x R, phi_L x R].
    Entangled mode: psi_L x psi_R + phi_L x phi_R with product branches."""
    psi_l, phi_l = left
    _require_orthogonal(left)
    if mode == "separable":
        r = right if isinstance(right, QuantumState) else right[0]
        comp0 = np.kron(psi_l.amplitudes, r.amplitudes)
        comp1 = np.kron(phi_l.amplitudes, r.amplitudes)
    elif mode == "entangled":
        psi_r, phi_r = right
        if psi_r.n_qubits != phi_r.n_qubits:
            raise ValueError("right states must share a qubit count")
        comp0 = np.kron(psi_l.amplitudes, psi_r.amplitudes)
        comp1 = np.kron(phi_l.amplitudes, phi_r.amplitudes)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    n = int(round(np.log2(comp0.shape[0])))
    if n > 10:
        raise ValueError("tensor_branches is limited to 10 total qubits")
    w = 1 / _RT2
    parent = QuantumState.from_vector(w * comp0 + w * comp1)
    dec = BranchDecomposition(parent, ((w, QuantumState(n, comp0)),
                                       (w, QuantumState(n, comp1))))
    return _checked(ExampleFixture(
        name=f"tensor_{mode}", source_section=f"tensor-{mode}",
        expected={"ci_scaling": "inherited from the left pair",
                  "cd_scaling": "inherited from the left pair",
                  "left_qubits": psi_l.n_qubits},
        decomposition=dec))


def distinguishing_qubit_state(eta0: QuantumState, eta1: QuantumState,
                               basis: str = "computational") -> ExampleFixture:
    """One extra qubit labels two orthogonal register states; the same parent
    decomposes in the computational or the conjugate labeling."""
    _require_orthogonal((eta0, eta1))
    n = eta0.n_qubits + 1
    up = np.array([1, 0], dtype=complex)
    dn = np.array([0, 1], dtype=complex)
    w = 1 / _RT2
    if basis == "computational":
        comp0 = np.kron(up, eta0.amplitudes)
        comp1 = np.kron(dn, eta1.amplitudes)
        marker = GATES_1Q["Z"]
        label = "Z"
    elif basis == "conjugate":
        plus = (up + dn) / _RT2
        minus = (up - dn) / _RT2
        eta_p = (eta0.amplitudes + eta1.amplitudes) / _RT2
        eta_m = (eta0.amplitudes - eta1.amplitudes) / _RT2
        comp0 = np.kron(plus, eta_p)
        comp1 = np.kron(minus, eta_m)
        marker = GATES_1Q["X"]
        label = "X"
    else:
        raise ValueError(f"unknown basis {basis!r}")
    parent = QuantumState.from_vector(w * comp0 + w * comp1)
    dec = BranchDecomposition(parent, ((w, QuantumState(n, comp0)),
                                       (w, QuantumState(n, comp1))))
    witnesses = {
        ComplexityKind.DISTINGUISHABILITY: [
            Circuit(n, (GateOp((0,), marker, label),))],
    }
    return _checked(ExampleFixture(
        name="distinguishing_qubit", source_section="distinguishing-qubit",
        expected={"ci_scaling": "set by the register pair",
                  "cd_scaling": "1", "basis": basis},
        decomposition=dec, known_witnesses=witnesses))


def deep_random_registers(n_register: int, depth: int, seed: int
                          ) -> tuple[QuantumState, QuantumState]:
    """Two orthogonal register states prepared by seeded random circuits."""
    ss = np.random.SeedSequence(seed).spawn(2)
    c0 = random_circuit(n_register, depth, int(ss[0].generate_state(1)[0]))
    c1 = random_circuit(n_register, depth, int(ss[1].generate_state(1)[0]))
    zero = QuantumState.zero(n_register)
    e0 = apply_circuit(zero, c0)
    v1 = apply_circuit(zero, c1).amplitudes
    v1 = v1 - np.vdot(e0.amplitudes, v1) * e0.amplitudes
    return e0, QuantumState(n_register, v1 / np.linalg.norm(v1))
