"""Complexity measures between pure states.

Three objectives are estimated, all minimized over circuits U:
  - relative:          |<b|U|a>|            >= delta
  - distinguishability |<a|U|a> - <b|U|b>|  >= 2*delta
  - interference       |<a|U|b>| + |<b|U|a>| >= 2*delta

Costs are counted in 2-qubit-gate units: a gate sequence is packed greedily
left-to-right into blocks whose combined support stays within two qubits, and
the cost is the number of blocks. (Greedy packing is optimal for contiguous
partitions and reversal-invariant, which keeps the certified bounds symmetric
under (a, b) swaps.) Lower bounds come from exhaustive iterative-deepening
enumeration over a discrete gate alphabet and are certified only relative to
that alphabet up to the enumerated sequence length; upper bounds come from
enumeration witnesses, user-supplied constructive circuits, or a
derivative-free variational search over general 2-qubit blocks.
"""
from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .qsim import (
    CNOT,
    GATES_1Q,
    PAULI,
    Circuit,
    GateOp,
    QuantumState,
    apply_circuit,
    apply_gate_block,
)

WITNESS_ATOL = 1e-9
_THRESHOLD_SLACK = 1e-12


class ComplexityKind(enum.Enum):
    RELATIVE = "relative"
    DISTINGUISHABILITY = "distinguishability"
    INTERFERENCE = "interference"

    def threshold(self, delta: float) -> float:
        """Objective value a circuit must reach to count at accuracy delta."""
        return delta if self is ComplexityKind.RELATIVE else 2.0 * delta

    def default_delta(self) -> float:
        # interference queries probe tiny leakage, distinguishability near-certainty
        return 0.1 if self is ComplexityKind.INTERFERENCE else 0.9

    def objective(self, g: np.ndarray, a: int = 0, b: int = 1) -> float:
        """The objective between states a and b, read off the overlap matrix
        g[r, c] = <s_r|U|s_c> of one circuit U."""
        if self is ComplexityKind.RELATIVE:
            return abs(g[b, a])
        if self is ComplexityKind.DISTINGUISHABILITY:
            return abs(g[a, a] - g[b, b])
        return abs(g[a, b]) + abs(g[b, a])


@dataclass(frozen=True)
class GateAlphabet:
    """Discrete, canonically ordered gate set for certified enumeration."""

    name: str
    one_qubit: tuple[tuple[str, np.ndarray], ...]
    two_qubit: tuple[tuple[str, np.ndarray], ...]

    def instantiate(self, n_qubits: int) -> list[GateOp]:
        """All placements in canonical order: 1q label-major then qubit, 2q label-major then ordered pair."""
        gates: list[GateOp] = []
        for label, mat in self.one_qubit:
            for q in range(n_qubits):
                gates.append(GateOp((q,), mat, label))
        for label, mat in self.two_qubit:
            for q0, q1 in itertools.permutations(range(n_qubits), 2):
                gates.append(GateOp((q0, q1), mat, label))
        return gates

    def inverse_indices(self, gates: list[GateOp]) -> list[int | None]:
        """inverse_indices[i] = j when gates[j] is the exact inverse of gates[i]."""
        inv: list[int | None] = [None] * len(gates)
        by_targets: dict[tuple[int, ...], list[int]] = {}
        for i, g in enumerate(gates):
            by_targets.setdefault(g.targets, []).append(i)
        for i, g in enumerate(gates):
            want = g.matrix.conj().T
            for j in by_targets[g.targets]:
                if np.allclose(gates[j].matrix, want, atol=1e-12):
                    inv[i] = j
                    break
        return inv


@functools.cache
def default_alphabet() -> GateAlphabet:
    """{X, Y, Z, H, S, S†, T, T†} on every qubit plus CNOT on every ordered pair."""
    one = tuple((label, GATES_1Q[label]) for label in
                ("X", "Y", "Z", "H", "S", "SDG", "T", "TDG"))
    return GateAlphabet("default", one, (("CNOT", CNOT),))


def fused_cost(gates: tuple[GateOp, ...] | list[GateOp]) -> int:
    """Cost in 2-qubit-gate units: greedy left-to-right packing into <=2-qubit blocks."""
    cost = 0
    support: set[int] = set()
    started = False
    for g in gates:
        s = set(g.targets)
        if started and len(support | s) <= 2:
            support |= s
        else:
            cost += 1
            support = s
            started = True
    return cost


def objective_value(kind: ComplexityKind, u: Circuit, a: QuantumState,
                    b: QuantumState) -> float:
    """Evaluate the kind's objective for circuit u on the state pair (a, b)."""
    if a.n_qubits != b.n_qubits or u.n_qubits != a.n_qubits:
        raise ValueError("objective_value requires matching qubit counts")
    kets = [apply_circuit(a, u).amplitudes, apply_circuit(b, u).amplitudes]
    g = np.array([[np.vdot(s.amplitudes, k) for k in kets] for s in (a, b)])
    return float(kind.objective(g))


@dataclass(frozen=True)
class ComplexityQuery:
    kind: ComplexityKind
    a: QuantumState
    b: QuantumState
    delta: float | None = None
    max_size: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.a.n_qubits != self.b.n_qubits:
            raise ValueError("query states must have equal qubit counts")
        if self.delta is None:
            object.__setattr__(self, "delta", self.kind.default_delta())
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")

    @property
    def threshold(self) -> float:
        return self.kind.threshold(self.delta)


@dataclass(frozen=True)
class ComplexityEstimate:
    kind: ComplexityKind
    delta: float
    lower_bound: int
    lower_bound_scope: str
    upper_bound: int | None
    achieved_value: float | None
    witness: Circuit | None
    method: str
    seed: int = 0
    truncated: bool = False

    def __post_init__(self):
        if self.upper_bound is not None and self.lower_bound > self.upper_bound:
            raise ValueError("certified lower bound exceeds witness upper bound")


# ---------------------------------------------------------------------------
# Enumeration engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Channel:
    """One tracked objective inside a survey: kind plus column indices of (a, b)."""

    kind: ComplexityKind
    a: int
    b: int


class SurveyResult:
    """Best objective per fused cost for every channel of one enumeration walk."""

    def __init__(self, n_qubits: int, channels: list[Channel],
                 gates: list[GateOp], max_len: int):
        self.n_qubits = n_qubits
        self.channels = list(channels)
        self.gates = gates
        self.max_len = max_len
        self.truncated = False
        self.nodes = 0
        # best[ch][c] = (value, gate-index tuple) for fused cost c
        self.best: list[list[tuple[float, tuple[int, ...]] | None]] = [
            [None] * (max_len + 1) for _ in channels
        ]

    def record(self, values: list[float], cost: int, seq: tuple[int, ...]):
        for ci, v in enumerate(values):
            slot = self.best[ci][cost]
            if slot is None or v > slot[0] + 1e-12:
                self.best[ci][cost] = (v, seq)
            elif v > slot[0] - 1e-12 and (len(seq), seq) < (len(slot[1]), slot[1]):
                # value tie: prefer the shorter, then canonically earlier sequence
                self.best[ci][cost] = (v, seq)

    def circuit(self, seq: tuple[int, ...]) -> Circuit:
        return Circuit(self.n_qubits, tuple(self.gates[i] for i in seq))

    def bounds(self, channel_index: int, threshold: float
               ) -> tuple[int, int | None, Circuit | None, float | None]:
        """(lower, upper, witness, achieved) for one channel at a threshold."""
        table = self.best[channel_index]
        for cost in range(self.max_len + 1):
            slot = table[cost]
            if slot is not None and slot[0] >= threshold - _THRESHOLD_SLACK:
                # a truncated walk still yields a sound witness, but its
                # minimality is no longer certified
                lower = 0 if self.truncated else cost
                return lower, cost, self.circuit(slot[1]), slot[0]
        if self.truncated:
            return 0, None, None, None
        return self.max_len + 1, None, None, None

    def size(self, channel_index: int, delta: float) -> int:
        """Enumerated minimal fused size of one channel at accuracy delta (the
        channel's kind sets the threshold), or cap+1 when nothing met it."""
        kind = self.channels[channel_index].kind
        return self.bounds(channel_index, kind.threshold(delta))[0]


def walk_sequences(block: np.ndarray, n_qubits: int, gates: list[GateOp],
                   inverse: list[int | None], max_len: int):
    """Depth-first walk over every gate sequence of length <= max_len, never
    placing a gate right after its inverse. Yields (block, seq, cost) per
    node, the empty sequence first: `block` with the sequence applied to
    every column, the gate-index tuple, and its fused cost. Each node costs
    one gate application on its parent's block."""
    mats = [g.matrix for g in gates]
    targs = [g.targets for g in gates]
    supports = [frozenset(t) for t in targs]

    def children(block, seq, cost, support):
        skip = inverse[seq[-1]] if seq else None
        for gi in range(len(gates)):
            if gi == skip:
                continue
            child = apply_gate_block(block, n_qubits, targs[gi], mats[gi])
            if seq and len(support | supports[gi]) <= 2:
                ccost, csup = cost, support | supports[gi]
            else:
                ccost, csup = cost + 1, supports[gi]
            cseq = seq + (gi,)
            yield child, cseq, ccost
            if len(cseq) < max_len:
                yield from children(child, cseq, ccost, csup)

    yield block, (), 0
    if max_len > 0:
        yield from children(block, (), 0, frozenset())


def survey(states: list[np.ndarray], n_qubits: int, channels: list[Channel],
           max_len: int = 2, node_budget: int | None = None) -> SurveyResult:
    """Walk every alphabet gate sequence of length <= max_len once (pruning
    adjacent inverse pairs) and record, per channel, the best objective at
    each fused cost. One walk serves any number of thresholds afterwards."""
    alphabet = default_alphabet()
    gates = alphabet.instantiate(n_qubits)
    result = SurveyResult(n_qubits, channels, gates, max_len)
    block0 = np.column_stack(states)  # (2**n, k)
    bras = block0.conj().T  # fixed <s_i| rows
    for block, seq, cost in walk_sequences(block0, n_qubits, gates,
                                           alphabet.inverse_indices(gates),
                                           max_len):
        # the empty sequence is always recorded, whatever the budget
        if seq and node_budget is not None and result.nodes >= node_budget:
            result.truncated = True
            break
        g = bras @ block
        result.record([ch.kind.objective(g, ch.a, ch.b) for ch in channels],
                      cost, seq)
        result.nodes += 1
    return result


def brute_force_estimate(q: ComplexityQuery,
                         node_budget: int | None = None) -> ComplexityEstimate:
    """Exhaustive iterative-deepening enumeration over the default alphabet.

    Returns lower = upper = the smallest fused cost at which any enumerated
    sequence meets the threshold (the enumeration itself certifies that no
    cheaper enumerated circuit does); if nothing meets it, lower = max_size+1
    and the upper bound is unknown. On budget truncation the result is
    flagged and the lower bound degrades to 0, never silently wrong.
    """
    res = survey(
        [q.a.amplitudes, q.b.amplitudes], q.a.n_qubits,
        [Channel(q.kind, 0, 1)], q.max_size, node_budget,
    )
    lower, upper, witness, achieved = res.bounds(0, q.threshold)
    scope = f"alphabet:{default_alphabet().name}"
    if witness is not None:
        _verify_witness(q, witness, achieved)
    return ComplexityEstimate(
        kind=q.kind, delta=q.delta, lower_bound=lower, lower_bound_scope=scope,
        upper_bound=upper, witness=witness, achieved_value=achieved,
        method="enumeration", seed=q.seed, truncated=res.truncated,
    )


def combine_estimates(primary: ComplexityEstimate,
                      *others: ComplexityEstimate) -> ComplexityEstimate:
    """Merge an enumeration estimate with witness-only estimates.

    Enumeration lower bounds are certified only up to the enumerated sequence
    length; a witness from a stronger method (general 2-qubit blocks, or a
    structural circuit longer than the cap) can legitimately undercut that
    scoped claim, in which case the combined lower bound clips to the witness
    cost so the pair stays sound. The cheapest witness wins, the earliest on
    ties.
    """
    ests = (primary, *others)
    best = min((e for e in ests if e.upper_bound is not None),
               key=lambda e: e.upper_bound, default=primary)
    lower = primary.lower_bound
    if best.upper_bound is not None:
        lower = min(lower, best.upper_bound)
    return replace(primary, lower_bound=lower, upper_bound=best.upper_bound,
                   witness=best.witness, achieved_value=best.achieved_value,
                   method="+".join(e.method for e in ests))


def _verify_witness(q: ComplexityQuery, witness: Circuit,
                    claimed: float | None) -> float:
    """Re-evaluate a witness from scratch; returns its objective value."""
    val = objective_value(q.kind, witness, q.a, q.b)
    if val < q.threshold - WITNESS_ATOL:
        raise AssertionError(
            f"witness re-verification failed: objective {val} < {q.threshold}"
        )
    if claimed is not None and abs(val - claimed) > 1e-8:
        raise AssertionError("witness objective drifted between search and re-check")
    return val


def _witness_only(q: ComplexityQuery, method: str, upper: int | None = None,
                  witness: Circuit | None = None,
                  achieved: float | None = None) -> ComplexityEstimate:
    """An estimate that certifies nothing from below: only a witness, if any."""
    return ComplexityEstimate(
        kind=q.kind, delta=q.delta, lower_bound=0, lower_bound_scope="none",
        upper_bound=upper, witness=witness, achieved_value=achieved,
        method=method, seed=q.seed,
    )


# ---------------------------------------------------------------------------
# Constructive witnesses
# ---------------------------------------------------------------------------

def constructive_estimate(q: ComplexityQuery,
                          candidates: list[Circuit]) -> ComplexityEstimate:
    """Evaluate structural candidate circuits (cheapest first); the first one
    meeting the threshold becomes the witness. Certifies nothing from below."""
    ranked = sorted(candidates, key=lambda c: fused_cost(c.gates))
    for cand in ranked:
        val = objective_value(q.kind, cand, q.a, q.b)
        if val >= q.threshold - _THRESHOLD_SLACK:
            return _witness_only(q, "constructive", fused_cost(cand.gates),
                                 cand, val)
    return _witness_only(q, "constructive")


def pair_blocks(indices: list[int], n_qubits: int, matrix: np.ndarray,
                label: str) -> Circuit:
    """Pack one single-qubit matrix applied on each listed qubit into
    ceil(len/2) two-qubit blocks (plus one single if the count is odd)."""
    gates = []
    it = iter(indices)
    for q0 in it:
        q1 = next(it, None)
        if q1 is None:
            gates.append(GateOp((q0,), matrix, label))
        else:
            gates.append(GateOp((q0, q1), np.kron(matrix, matrix), label * 2))
    return Circuit(n_qubits, tuple(gates))


# ---------------------------------------------------------------------------
# Variational witness search
# ---------------------------------------------------------------------------

@functools.cache
def _two_qubit_generators() -> tuple[np.ndarray, ...]:
    labels = [p + q for p in "IXYZ" for q in "IXYZ"][1:]  # skip II
    return tuple(np.kron(PAULI[l[0]], PAULI[l[1]]) for l in labels)


def _block_unitary(theta: np.ndarray) -> np.ndarray:
    gens = _two_qubit_generators()
    h = np.zeros((4, 4), dtype=complex)
    for t, g in zip(theta, gens):
        h += t * g
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


def round_robin_pairs(n: int) -> list[tuple[int, int]]:
    """Circle-method round-robin schedule of qubit pairs, flattened by round."""
    players = list(range(n)) + ([n] if n % 2 else [])  # n = bye marker
    m = len(players)
    pairs = []
    for _ in range(m - 1):
        for i in range(m // 2):
            p, qq = players[i], players[m - 1 - i]
            if p != n and qq != n:
                pairs.append((min(p, qq), max(p, qq)))
        players = [players[0]] + [players[-1]] + players[1:-1]
    return pairs


def variational_upper_bound(q: ComplexityQuery, restarts: int = 3,
                            max_blocks: int | None = None,
                            sweeps: int = 60) -> ComplexityEstimate:
    """Witness search over m = 0, 1, ... general 2-qubit unitaries (15 free
    parameters each) on a round-robin pair schedule, optimized by
    derivative-free coordinate descent with seeded restarts. Returns the
    smallest m whose best objective reaches the threshold; certifies nothing
    from below. Deterministic for a fixed query seed."""
    n = q.a.n_qubits
    if max_blocks is None:
        max_blocks = q.max_size
    schedule = round_robin_pairs(n)
    if not schedule:
        raise ValueError("variational search needs at least 2 qubits")
    rng = np.random.default_rng(q.seed)
    block0 = np.column_stack([q.a.amplitudes, q.b.amplitudes])
    bras = block0.conj().T

    def objective(theta: np.ndarray, pairs: list[tuple[int, int]]) -> float:
        block = block0
        for i, pair in enumerate(pairs):
            block = apply_gate_block(block, n, pair,
                                     _block_unitary(theta[15 * i:15 * (i + 1)]))
        return float(q.kind.objective(bras @ block))

    for m in range(max_blocks + 1):
        pairs = [schedule[i % len(schedule)] for i in range(m)]
        if m == 0:
            best_val, best_theta = objective(np.zeros(0), []), np.zeros(0)
        else:
            best_val, best_theta = -1.0, None
            for _ in range(restarts):
                theta = rng.uniform(-np.pi, np.pi, size=15 * m)
                val = objective(theta, pairs)
                step = 0.8
                for _ in range(sweeps):
                    improved = False
                    for i in range(theta.size):
                        for delta in (step, -step):
                            theta[i] += delta
                            cand = objective(theta, pairs)
                            if cand > val + 1e-12:
                                val = cand
                                improved = True
                                break
                            theta[i] -= delta
                    if val >= q.threshold + 1e-9:
                        break
                    if not improved:
                        step *= 0.5
                        if step < 1e-4:
                            break
                if val > best_val:
                    best_val, best_theta = val, theta.copy()
                if best_val >= q.threshold + 1e-9:
                    break
        if best_val >= q.threshold - _THRESHOLD_SLACK:
            gates = tuple(
                GateOp(pairs[i], _block_unitary(best_theta[15 * i:15 * (i + 1)]),
                       "var2")
                for i in range(m)
            )
            witness = Circuit(n, gates)
            return _witness_only(q, "variational", m, witness,
                                 _verify_witness(q, witness, None))
    return _witness_only(q, "variational")
