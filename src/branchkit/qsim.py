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

import functools
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
        if not abs(norm - 1.0) <= NORM_ATOL:  # NaN fails too
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_ATOL}")
        object.__setattr__(self, "amplitudes", amps)

    @staticmethod
    def from_vector(vec: np.ndarray) -> "QuantumState":
        vec = np.asarray(vec, dtype=complex)
        n = int(round(np.log2(vec.shape[0])))
        if 2**n != vec.shape[0]:
            raise ValueError("vector length is not a power of two")
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
        if not err <= UNITARY_ATOL:  # NaN fails too
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


@functools.cache
def _gate_axes(n_qubits: int, targets: tuple[int, ...]):
    """(perm, inverse): perm brings the target axes of a (2,)*n + (cols,)
    block to the front, the other axes after them in order; inverse undoes it."""
    perm = targets + tuple(a for a in range(n_qubits + 1) if a not in targets)
    return perm, tuple(perm.index(a) for a in range(n_qubits + 1))


def apply_gate_block(block: np.ndarray, n_qubits: int, targets: tuple[int, ...],
                     matrix: np.ndarray) -> np.ndarray:
    """Apply a 1- or 2-qubit matrix to every column of `block` (shape (2**n, k) or (2**n,))."""
    single = block.ndim == 1
    cols = 1 if single else block.shape[1]
    perm, inverse = _gate_axes(n_qubits, tuple(targets))
    psi = block.reshape((2,) * n_qubits + (cols,)).transpose(perm)
    # the 2-D product np.tensordot(matrix, psi) makes, without its bookkeeping
    psi = np.dot(matrix, psi.reshape(len(matrix), -1)).reshape(psi.shape)
    out = psi.transpose(inverse).reshape(2**n_qubits, cols)
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


def _require_width(n: int, what: str) -> None:
    """Refuse n outside 1..14 before `what` builds 2**n amplitudes."""
    if not 1 <= n <= 14:
        raise ValueError(f"{what} supports 1..14 qubits, got {n}")


def haar_random_state(n: int, seed: int) -> QuantumState:
    """Haar-random n-qubit state: normalized vector of iid standard complex Gaussians."""
    _require_width(n, "haar_random_state")
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
        _require_width(self.n_qubits, "Hamiltonian")
        terms = tuple((float(c), str(p)) for c, p in self.terms)
        for c, p in terms:
            _require_pauli(self.n_qubits, p)
            if not np.isfinite(c):
                raise ValueError(f"term {p!r} has a non-finite coefficient {c}")
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
        """(eigenvalues, eigenvectors), computed once and cached per Hamiltonian.

        A Hamiltonian is real when every term has an even number of Y letters
        (i^{#Y} is then +-1, so every matrix element is real). Its spectrum is
        taken by real-symmetric `eigh`s and the eigenvectors are float64; any
        odd-Y term makes them complex128, from complex Hermitian `eigh`s, one
        per `_sectors` block. A stable sort merges the eigenvalues; with one
        sector this is `np.linalg.eigh`, bit for bit.
        """
        cached = getattr(self, "_eig", None)
        if cached is None:
            mat = self.to_matrix()
            if all(p.count("Y") % 2 == 0 for _, p in self.terms):
                mat = mat.real
            eigs = [(s, *np.linalg.eigh(_sector_block(mat, *s))) for s in self._sectors(mat)]
            vals = np.concatenate([w for _, w, _ in eigs])
            order = np.argsort(vals, kind="stable")
            columns = np.split(np.argsort(order), np.cumsum([len(w) for _, w, _ in eigs]))
            vecs = np.zeros(mat.shape, mat.dtype)
            for ((a, b, sign), _, v), cols in zip(eigs, columns):
                v = v / np.where(a == b, 1.0, np.sqrt(2.0))[:, None]
                vecs[np.ix_(b, cols)] = sign * v
                vecs[np.ix_(a, cols)] = v
            cached = (vals[order], vecs)
            for arr in cached:
                arr.setflags(write=False)
            object.__setattr__(self, "_eig", cached)
        return cached

    def _sectors(self, mat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, float]]:
        """(a, b, sign) per sector, of basis states |a_p> where b_p = a_p, else
        (|a_p> + sign |b_p>)/sqrt2. Popcount is conserved when each flip mask's
        summed action, mat[x, x ^ mask], is exactly 0 wherever it moves the
        popcount. Reversal R commutes when the reversed terms are the terms; it
        splits a sector into (|x> + |Rx>)/sqrt2 and |x> = |Rx>, and (|x> - |Rx>)/sqrt2."""
        n, x = self.n_qubits, np.arange(len(mat))
        count, groups = np.bitwise_count(x), [x]
        masks = {int("".join("01"[ch in "XY"] for ch in p), 2) for _, p in self.terms}
        moved = [(x[count != count[x ^ m]], m) for m in masks]
        if not any(mat[rows, rows ^ m].any() for rows, m in moved):
            groups = [x[count == k] for k in range(n + 1)]
        if sorted(self.terms) != sorted((c, p[::-1]) for c, p in self.terms):
            return [(g, g, 1.0) for g in groups]
        rev = sum(((x >> q) & 1) << (n - 1 - q) for q in range(n))
        return [(a, rev[a], sign) for g in groups
                for a, sign in ((g[g <= rev[g]], 1.0), (g[g < rev[g]], -1.0))
                if len(a)]


def _sector_block(mat: np.ndarray, a, b, sign: float) -> np.ndarray:
    """H on one `Hamiltonian._sectors` basis. H commutes with the reversal
    swapping a_p and b_p, so <v_p|H|v_q> = m_p m_q (<a_p|H|a_q> + sign
    <a_p|H|b_q>), with m = 1 for a pair and 1/sqrt2 for a fixed point."""
    block = mat[np.ix_(a, a)]
    if (pair := a != b).any():
        m = np.where(pair, 1.0, _SQ2)
        block = np.outer(m, m) * (block + sign * mat[np.ix_(a, b)])
    return block


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
    ys = pauli.count("Y")
    # i^{#Y} is real for an even count: a real block then stays real
    return src, (1j ** ys if ys % 2 else (-1.0) ** (ys // 2)) * sign


def apply_pauli_string(amps: np.ndarray, n_qubits: int, pauli: str) -> np.ndarray:
    """Apply a Pauli string (e.g. "IXZ") to an amplitude vector or (2**n, k) block.

    A real block stays real under a string with an even number of Y letters."""
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


def _eigvec_product(mat: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """mat @ amps. A real mat multiplies the complex amps viewed as (2**n, 2)
    [re, im] rows, one real GEMM; casting mat to complex would be slower."""
    if np.iscomplexobj(mat):
        return mat @ amps
    pairs = np.ascontiguousarray(amps).view(np.float64).reshape(-1, 2)
    return (mat @ pairs).view(np.complex128).ravel()


def _trotter_sweep(h: Hamiltonian, dt: float) -> list[tuple]:
    """One Strang slice as factors (c, src, w) in product order: exp(-i theta P)
    = cos theta - i sin theta P per term, theta = coeff dt/2, over the terms and
    back. A term with an X or Y letter is applied as c * amps + w * amps[src]; a
    maximal run of adjacent I/Z-only terms commutes: one phase vector c, src None."""
    half = [(c * dt / 2, *_pauli_action(h.n_qubits, p)) for c, p in h.terms]
    sweep = []
    # src[0] is a term's X/Y flip mask, 0 for an I/Z-only term
    for diagonal, run in itertools.groupby(half + half[::-1], lambda f: not f[1][0]):
        if diagonal:
            angle = sum(theta * phase for theta, _, phase in run)
            sweep.append((np.exp(-1j * angle), None, None))
        else:
            sweep += [(np.cos(theta), src, -1j * np.sin(theta) * phase)
                      for theta, src, phase in run]
    return sweep


def evolve(state: QuantumState, h: Hamiltonian, t: float, method: str = "exact",
           steps: int | None = None) -> QuantumState:
    """e^{-iHt}|state>.

    method="exact" diagonalizes H once (cached) and is limited to n <= 12.
    method="trotter" uses second-order (Strang) splitting over the Pauli terms
    with `steps` slices; the splitting error is O((t/steps)^3) per slice, i.e.
    O(t^3/steps^2) in total. A run of adjacent I/Z-only terms is one phase,
    and each factor is built once per call (`_trotter_sweep`).
    """
    if h.n_qubits != state.n_qubits:
        raise ValueError("Hamiltonian and state sizes differ")
    if not np.isfinite(t):
        raise ValueError(f"evolution time t must be finite, got {t}")
    if (method == "trotter" or steps is not None) and not (
            isinstance(steps, (int, np.integer)) and steps >= 1):
        raise ValueError(f"steps must be an int >= 1 (trotter needs it), got {steps!r}")
    if method == "exact":
        if h.n_qubits > 12:
            raise ValueError(
                "exact evolution is limited to 12 qubits; use method='trotter'"
            )
        vals, vecs = h.eigensystem()
        coeffs = _eigvec_product(vecs.conj().T, state.amplitudes)
        amps = _eigvec_product(vecs, np.exp(-1j * vals * t) * coeffs)
        return QuantumState(state.n_qubits, amps)
    if method == "trotter":
        sweep, amps = _trotter_sweep(h, t / steps), state.amplitudes
        for _ in range(steps):
            for c, src, w in sweep:
                amps = c * amps if src is None else c * amps + w * amps[src]
        return QuantumState(state.n_qubits, amps / np.linalg.norm(amps))
    raise ValueError(f"unknown evolution method {method!r}")
