"""Dense statevector core: states, gates, circuits, Hamiltonians, time evolution.

Conventions used throughout the package:
  - qubit 0 is the most significant bit of the computational basis index,
    so basis state |q0 q1 ... q_{n-1}> lives at index sum(q_k << (n-1-k));
  - a gate acts on 1 or 2 qubits, arbitrary (non-adjacent) pairs allowed;
  - a Pauli string such as "IXZ" names one letter per qubit, and acts as
    P|c> = i^{#Y} (-1)^{popcount(c & zy)} |c ^ flip>, with flip the mask of
    its X/Y letters and zy the mask of its Z/Y letters (`_pauli_action`);
  - every object is immutable after construction and all operations are
    pure functions returning new objects, so values are safe to share
    between concurrent workers.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

NORM_ATOL = 1e-10
UNITARY_ATOL = 1e-10

_SQ2 = 1.0 / np.sqrt(2.0)

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

GATES_1Q = {
    "X": PAULI["X"],
    "Y": PAULI["Y"],
    "Z": PAULI["Z"],
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2,
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "TDG": np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=complex),
}

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class QuantumState:
    """Normalized pure state of n qubits as a dense amplitude vector."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen(self.amplitudes)
        if amps.ndim != 1 or amps.shape[0] != 2**self.n_qubits:
            raise ValueError(
                f"amplitude vector of length {amps.shape} does not match "
                f"{self.n_qubits} qubits"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_ATOL}")
        object.__setattr__(self, "amplitudes", amps)

    @staticmethod
    def from_vector(vec: np.ndarray, normalize: bool = False) -> "QuantumState":
        vec = np.asarray(vec, dtype=complex)
        n = int(round(np.log2(vec.shape[0])))
        if 2**n != vec.shape[0]:
            raise ValueError("vector length is not a power of two")
        if normalize:
            nrm = np.linalg.norm(vec)
            if nrm == 0:
                raise ValueError("cannot normalize the zero vector")
            vec = vec / nrm
        return QuantumState(n, vec)

    @staticmethod
    def basis(n_qubits: int, index: int) -> "QuantumState":
        vec = np.zeros(2**n_qubits, dtype=complex)
        vec[index] = 1.0
        return QuantumState(n_qubits, vec)

    @staticmethod
    def zero(n_qubits: int) -> "QuantumState":
        return QuantumState.basis(n_qubits, 0)


@dataclass(frozen=True)
class GateOp:
    """A unitary on 1 or 2 qubits; `targets` in tensor order (first = row-major MSB)."""

    targets: tuple[int, ...]
    matrix: np.ndarray
    label: str | None = None

    def __post_init__(self):
        targets = tuple(int(t) for t in self.targets)
        object.__setattr__(self, "targets", targets)
        if len(targets) not in (1, 2):
            raise ValueError("a gate acts on 1 or 2 qubits")
        if len(set(targets)) != len(targets):
            raise ValueError(f"gate targets {targets} are not pairwise distinct")
        if any(t < 0 for t in targets):
            raise ValueError(f"negative qubit index in {targets}")
        mat = _frozen(self.matrix)
        dim = 2 ** len(targets)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match targets {targets}")
        err = np.max(np.abs(mat.conj().T @ mat - np.eye(dim)))
        if err > UNITARY_ATOL:
            raise ValueError(f"gate matrix is not unitary (max |U†U - I| = {err:.3e})")
        object.__setattr__(self, "matrix", mat)

    def inverse(self) -> "GateOp":
        lbl = None if self.label is None else self.label + "†"
        return GateOp(self.targets, self.matrix.conj().T, lbl)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence; the gate count is the raw length of the sequence."""

    n_qubits: int
    gates: tuple[GateOp, ...] = ()

    def __post_init__(self):
        gates = tuple(self.gates)
        for g in gates:
            if any(t >= self.n_qubits for t in g.targets):
                raise ValueError(
                    f"gate on {g.targets} out of range for {self.n_qubits} qubits"
                )
        object.__setattr__(self, "gates", gates)

    @property
    def gate_count(self) -> int:
        return len(self.gates)

    def inverse(self) -> "Circuit":
        return Circuit(self.n_qubits, tuple(g.inverse() for g in reversed(self.gates)))

    def then(self, other: "Circuit") -> "Circuit":
        if other.n_qubits != self.n_qubits:
            raise ValueError("cannot concatenate circuits of different widths")
        return Circuit(self.n_qubits, self.gates + other.gates)

    def to_matrix(self) -> np.ndarray:
        """Dense unitary of the whole circuit. Intended for small n only."""
        dim = 2**self.n_qubits
        u = np.eye(dim, dtype=complex)
        for g in self.gates:
            u = apply_gate_block(u, self.n_qubits, g.targets, g.matrix)
        return u


def apply_gate_block(block: np.ndarray, n_qubits: int, targets: tuple[int, ...],
                     matrix: np.ndarray) -> np.ndarray:
    """Apply a 1- or 2-qubit matrix to every column of `block` (shape (2**n, k) or (2**n,))."""
    single = block.ndim == 1
    cols = 1 if single else block.shape[1]
    k = len(targets)
    psi = block.reshape((2,) * n_qubits + (cols,))
    mat = matrix.reshape((2,) * (2 * k))
    psi = np.tensordot(mat, psi, axes=(tuple(range(k, 2 * k)), targets))
    psi = np.moveaxis(psi, tuple(range(k)), targets)
    out = psi.reshape(2**n_qubits, cols)
    return out[:, 0] if single else out


def apply_circuit(state: QuantumState, circuit: Circuit) -> QuantumState:
    """Return U|state> for the circuit's unitary U; the input is unmodified."""
    if circuit.n_qubits != state.n_qubits:
        raise ValueError(
            f"circuit on {circuit.n_qubits} qubits cannot act on a "
            f"{state.n_qubits}-qubit state"
        )
    amps = state.amplitudes
    for g in circuit.gates:
        amps = apply_gate_block(amps, state.n_qubits, g.targets, g.matrix)
    return QuantumState(state.n_qubits, amps)


def inner_product(a: QuantumState, b: QuantumState) -> complex:
    """<a|b> with conjugation on a."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("inner product requires equal qubit counts")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def _require_orthogonal(states) -> None:
    """Raise ValueError unless the states share a qubit count and every pair
    overlaps by at most 1e-8."""
    for i, j in itertools.combinations(range(len(states)), 2):
        ov = abs(inner_product(states[i], states[j]))
        if ov > 1e-8:
            raise ValueError(f"states {i} and {j} are not orthogonal "
                             f"(|overlap| = {ov:.3e})")


def haar_random_state(n: int, seed: int) -> QuantumState:
    """Haar-random n-qubit state: normalized vector of iid standard complex Gaussians."""
    if not 1 <= n <= 14:
        raise ValueError(f"haar_random_state supports 1..14 qubits, got {n}")
    rng = np.random.default_rng(seed)
    vec = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return QuantumState(n, vec / np.linalg.norm(vec))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fixing."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) * _SQ2
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_circuit(n: int, depth: int, seed: int) -> Circuit:
    """Depth layers of a seeded random qubit matching with Haar 4x4 unitaries per pair."""
    if n < 2:
        raise ValueError("random_circuit needs at least 2 qubits")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(depth):
        order = rng.permutation(n)
        for i in range(n // 2):
            pair = (int(order[2 * i]), int(order[2 * i + 1]))
            gates.append(GateOp(pair, haar_unitary(4, rng), "haar2"))
    return Circuit(n, tuple(gates))


@dataclass(frozen=True)
class Hamiltonian:
    """Real linear combination of Pauli strings; Hermitian by construction."""

    n_qubits: int
    terms: tuple[tuple[float, str], ...]

    def __post_init__(self):
        terms = tuple((float(c), str(p)) for c, p in self.terms)
        for _, p in terms:
            _require_pauli(self.n_qubits, p)
        object.__setattr__(self, "terms", terms)

    def to_matrix(self) -> np.ndarray:
        cached = getattr(self, "_matrix", None)
        if cached is None:
            dim = 2**self.n_qubits
            cached = np.zeros((dim, dim), dtype=complex)
            rows = np.arange(dim)
            for coeff, pauli in self.terms:
                src, phase = _pauli_action(self.n_qubits, pauli)
                cached[rows, src] += coeff * phase
            cached.setflags(write=False)
            object.__setattr__(self, "_matrix", cached)
        return cached

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors), computed once and cached per Hamiltonian."""
        cached = getattr(self, "_eig", None)
        if cached is None:
            vals, vecs = np.linalg.eigh(self.to_matrix())
            vals.setflags(write=False)
            vecs.setflags(write=False)
            cached = (vals, vecs)
            object.__setattr__(self, "_eig", cached)
        return cached


def _require_pauli(n_qubits: int, pauli: str) -> None:
    """Raise ValueError unless `pauli` is n_qubits letters from IXYZ."""
    if len(pauli) != n_qubits or not set(pauli) <= set("IXYZ"):
        raise ValueError(f"bad Pauli string {pauli!r} for {n_qubits} qubits")


def _pauli_action(n_qubits: int, pauli: str) -> tuple[np.ndarray, np.ndarray]:
    """(src, phase) with (P psi)[r] = phase[r] * psi[src[r]] for the string P."""
    flip = sum(1 << q for q, ch in enumerate(reversed(pauli)) if ch in "XY")
    zy = sum(1 << q for q, ch in enumerate(reversed(pauli)) if ch in "ZY")
    src = np.arange(2**n_qubits) ^ flip
    sign = np.where(np.bitwise_count(src & zy) & 1, -1.0, 1.0)
    return src, 1j ** pauli.count("Y") * sign


def apply_pauli_string(amps: np.ndarray, n_qubits: int, pauli: str) -> np.ndarray:
    """Apply a Pauli string (e.g. "IXZ") to an amplitude vector or (2**n, k) block."""
    _require_pauli(n_qubits, pauli)
    if amps.shape[0] != 2**n_qubits:
        raise ValueError(f"{amps.shape[0]} amplitudes do not match {n_qubits} qubits")
    src, phase = _pauli_action(n_qubits, pauli)
    return (phase if amps.ndim == 1 else phase[:, None]) * amps[src]


def expectation(h: Hamiltonian, state: QuantumState) -> float:
    """<state|H|state>, real for the Hermitian-by-construction Hamiltonian."""
    if h.n_qubits != state.n_qubits:
        raise ValueError("Hamiltonian and state sizes differ")
    acc = 0.0
    for coeff, pauli in h.terms:
        acc += coeff * np.vdot(
            state.amplitudes, apply_pauli_string(state.amplitudes, h.n_qubits, pauli)
        ).real
    return float(acc)


def evolve(state: QuantumState, h: Hamiltonian, t: float, method: str = "exact",
           steps: int | None = None) -> QuantumState:
    """e^{-iHt}|state>.

    method="exact" diagonalizes H once (cached) and is limited to n <= 12.
    method="trotter" uses second-order (Strang) splitting over the Pauli terms
    with `steps` slices; the splitting error is O((t/steps)^3) per slice, i.e.
    O(t^3/steps^2) in total.
    """
    if h.n_qubits != state.n_qubits:
        raise ValueError("Hamiltonian and state sizes differ")
    if method == "exact":
        if h.n_qubits > 12:
            raise ValueError(
                "exact evolution is limited to 12 qubits; use method='trotter'"
            )
        vals, vecs = h.eigensystem()
        coeffs = vecs.conj().T @ state.amplitudes
        amps = vecs @ (np.exp(-1j * vals * t) * coeffs)
        return QuantumState(state.n_qubits, amps)
    if method == "trotter":
        if steps is None or steps < 1:
            raise ValueError("trotter evolution requires steps >= 1")
        dt = t / steps
        amps = state.amplitudes
        for _ in range(steps):
            for coeff, pauli in h.terms:
                amps = _pauli_exp(amps, h.n_qubits, pauli, coeff * dt / 2)
            for coeff, pauli in reversed(h.terms):
                amps = _pauli_exp(amps, h.n_qubits, pauli, coeff * dt / 2)
        amps = amps / np.linalg.norm(amps)
        return QuantumState(state.n_qubits, amps)
    raise ValueError(f"unknown evolution method {method!r}")


def _pauli_exp(amps: np.ndarray, n_qubits: int, pauli: str, theta: float) -> np.ndarray:
    # exp(-i theta P)|psi> = cos(theta)|psi> - i sin(theta) P|psi>, P a Pauli string
    return np.cos(theta) * amps - 1j * np.sin(theta) * apply_pauli_string(
        amps, n_qubits, pauli
    )
