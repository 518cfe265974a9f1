"""Complexity measures between pure states.

Three objectives are estimated, all minimized over circuits U:
  - relative:          |<b|U|a>|            >= delta
  - distinguishability |<a|U|a> - <b|U|b>|  >= 2*delta
  - interference       |<a|U|b>| + |<b|U|a>| >= 2*delta

Costs are counted in 2-qubit-gate units: a gate sequence is packed greedily
left-to-right into blocks whose combined support stays within two qubits, and
the cost is the number of blocks. (Greedy packing is optimal for contiguous
partitions and reversal-invariant, which keeps the certified bounds symmetric
under (a, b) swaps.) Lower bounds come from exhaustive enumeration over a
discrete gate alphabet, walked level by level in chunks of parent sequences
whose children are all scored by one GEMM against precomputed g†|s> rows, and
are certified only relative to that alphabet up to the enumerated sequence
length; upper bounds come from enumeration witnesses, user-supplied
constructive circuits, or a derivative-free variational search over general
2-qubit blocks.
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

    def objective(self, g: np.ndarray, a: int | np.ndarray = 0,
                  b: int | np.ndarray = 1):
        """The objective between states a and b, read off the overlaps
        g[r, c, ...] = <s_r|U|s_c> (trailing axes index circuits U). a and b
        are column indices, or equal-length index arrays, one pair per
        channel, which put a channel axis first."""
        if self is ComplexityKind.RELATIVE:
            return abs(g[b, a])
        if self is ComplexityKind.DISTINGUISHABILITY:
            return abs(g[a, a] - g[b, b])
        return abs(g[a, b]) + abs(g[b, a])


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

# Every working array of a run of children (the kets it grows, or the
# overlaps of one GEMM) stays under this many bytes, so peak memory does not
# grow with the size of a level. A frontier's child table (rank, kept mask,
# fused cost and last-block support) is (m, gates) for its m sequences; grow
# makes frontiers whose kets fit this bound, which keeps m, and the table,
# small.
CHUNK_BYTES = 256 * 1024
_TIE = 1e-12


@dataclass(frozen=True)
class Channel:
    """One tracked objective inside a survey: kind plus column indices of (a, b)."""

    kind: ComplexityKind
    a: int
    b: int


@dataclass(frozen=True)
class Frontier:
    """A run of consecutive same-length gate sequences in level order.

    kets[:, i, c] is sequence i applied to input column c, shape (2**n, m, k).
    Per sequence: fused cost, qubit bitmask of its last fused block, last gate
    index (the gate count for the empty sequence) and level-order rank.
    """

    kets: np.ndarray
    cost: np.ndarray
    support: np.ndarray
    last: np.ndarray
    rank: np.ndarray


# The enumeration alphabet: these gates on every qubit, label-major, then
# CNOT on every ordered pair. S, T and their adjoints invert each other;
# every other gate is its own inverse.
_ONE_QUBIT = ("X", "Y", "Z", "H", "S", "SDG", "T", "TDG")
_ADJOINT = {"S": "SDG", "SDG": "S", "T": "TDG", "TDG": "T"}
_SCOPE = "alphabet:default"
_MAX_LEN = 63  # the longest sequences the rank table counts


class _Enumeration:
    """The enumeration alphabet on n qubits, laid out for level-order walks.

    Level L holds the G * (G - 1)**(L - 1) sequences of L gates (G gates, and
    every gate's inverse is excluded right after it); ranks count the empty
    sequence first, then by length, then in tuple order.
    """

    def __init__(self, n_qubits: int):
        self.n_qubits = n_qubits
        self.gates = [GateOp((q,), GATES_1Q[label], label)
                      for label in _ONE_QUBIT for q in range(n_qubits)]
        self.gates += [GateOp(pair, CNOT, "CNOT")
                       for pair in itertools.permutations(range(n_qubits), 2)]
        index = {(g.label, g.targets): i for i, g in enumerate(self.gates)}
        # the empty sequence's last gate is len(gates), which excludes nothing
        self.inverse = np.array([index[_ADJOINT.get(g.label, g.label), g.targets]
                                 for g in self.gates] + [len(self.gates)])
        self.support = np.array([sum(1 << q for q in g.targets) for g in self.gates])
        self.popcount = np.array([bin(s).count("1") for s in range(2**n_qubits)])
        g = len(self.gates)
        # offsets[L] is the rank of the first sequence of L gates
        self.offsets = list(itertools.accumulate(
            (g * (g - 1) ** (length - 1) if length else 1
             for length in range(_MAX_LEN + 1)), initial=0))

    def sequence(self, rank: int) -> tuple[int, ...]:
        """The gate-index tuple at a level-order rank."""
        level = 0
        while self.offsets[level + 1] <= rank:
            level += 1
        if level == 0:
            return ()
        index, digits = rank - self.offsets[level], []
        for _ in range(level - 1):
            index, d = divmod(index, len(self.gates) - 1)
            digits.append(d)
        seq = [index]
        for d in reversed(digits):
            seq.append(d + int(d >= self.inverse[seq[-1]]))
        return tuple(seq)

    def runs(self, f: Frontier, level: int, limit: int, child_bytes: int):
        """The children of a frontier at `level` ranked below `limit`, in runs
        of parents x gate slice sized so that child_bytes per child stay
        within CHUNK_BYTES. Runs come in rank order, and so do the children
        within a run: a run that slices the gates has one parent. Per run:
        the parents' kets as columns (2**n, m * k), the gate slice, the mask
        (m, gates in the slice) of the children walked, and their rank,
        fused cost and last-block support in rank order."""
        dim, m, _ = f.kets.shape
        g = len(self.gates)
        gates = max(1, min(g, CHUNK_BYTES // child_bytes))
        parents = max(1, CHUNK_BYTES // (gates * child_bytes))
        gate = np.arange(g)
        skip = self.inverse[f.last][:, None]
        rank = (self.offsets[level + 1] + gate - (gate > skip)
                + (f.rank - self.offsets[level])[:, None] * (g - 1))
        keep = (gate != skip) & (rank < limit)
        union = f.support[:, None] | self.support
        fused = (self.popcount[union] <= 2) & (level > 0)
        cost = f.cost[:, None] + ~fused
        support = np.where(fused, union, self.support)
        for p0 in range(0, m, parents):
            rows = slice(p0, p0 + parents)
            cols = f.kets[:, rows].reshape(dim, -1)
            for g0 in range(0, g, gates):
                part = slice(g0, g0 + gates)
                sel = keep[rows, part]
                if sel.any():
                    yield (cols, part, sel, rank[rows, part][sel],
                           cost[rows, part][sel], support[rows, part][sel])

    def grow(self, f: Frontier, level: int, limit: int):
        """The children of a frontier at `level` ranked below `limit`, as
        frontiers in rank order; one gate application per gate and run."""
        dim, _, k = f.kets.shape
        for cols, part, sel, rank, cost, support in self.runs(
                f, level, limit, dim * k * 16):
            pj, gj = np.nonzero(sel)
            gj += part.start
            kets = np.empty((dim, len(pj), k), dtype=complex)
            for j in range(gj.min(), gj.max() + 1):
                at = gj == j
                gate = self.gates[j]
                kets[:, at] = apply_gate_block(
                    cols, self.n_qubits, gate.targets, gate.matrix
                ).reshape(dim, -1, k)[:, pj[at]]
            yield Frontier(kets, cost, support, gj, rank)


_enumeration = functools.cache(_Enumeration)


def level_frontiers(block: np.ndarray, n_qubits: int, level: int,
                    limit: int | None = None):
    """Every alphabet gate sequence of `level` gates (never a gate right after
    its inverse) applied to the columns of `block` (2**n, k), as frontiers in
    level order: ranks rise by one from each sequence to the next. With a
    limit, only the sequences ranked below it; when no sequence of this level
    is, nothing is walked."""
    walk = _enumeration(n_qubits)
    if limit is None:
        limit = walk.offsets[level + 1]
    if limit <= walk.offsets[level]:
        return
    if level == 0:
        zero = np.zeros(1, dtype=int)
        yield Frontier(block[:, None, :], zero, zero,
                       np.array([len(walk.gates)]), zero)
        return
    for parent in level_frontiers(block, n_qubits, level - 1, limit):
        yield from walk.grow(parent, level - 1, limit)


def sequence_at(n_qubits: int, rank: int) -> tuple[int, ...]:
    """The gate-index tuple of the sequence at a level-order rank."""
    return _enumeration(n_qubits).sequence(rank)


def sequence_count(n_qubits: int, max_len: int) -> int:
    """How many alphabet gate sequences have at most max_len gates."""
    if not 0 <= max_len <= _MAX_LEN:
        raise ValueError(f"sequence-length cap must lie in [0, {_MAX_LEN}], "
                         f"got {max_len}")
    return _enumeration(n_qubits).offsets[max_len + 1]


def _offer(cands: list[tuple[int, float]], rank: int, value: float,
           floor: float):
    """Add a candidate that outranks every kept one to one slot. Candidates
    stay sorted by rank with strictly rising values, none below floor: one
    with an earlier rank and at least the value wins whenever the other
    could."""
    if cands and cands[-1][1] >= value:
        return
    cands.append((rank, value))
    while cands[0][1] < floor:
        del cands[0]


class _Slots:
    """Per (channel, fused cost): the maximum objective seen, and the ranks
    that can still be the slot's winner, the lowest-ranked sequence within
    _TIE of the maximum. Sequences must be added in strictly rising rank
    order, which is the order the walk scores them in; every kept candidate
    then stays within _TIE of the maximum, and the first one wins."""

    def __init__(self, channels: list[Channel], max_len: int):
        self.count = len(channels)
        self.groups = []
        for kind in ComplexityKind:
            rows = [i for i, ch in enumerate(channels) if ch.kind is kind]
            if rows:
                self.groups.append((kind, np.array(rows),
                                    np.array([channels[i].a for i in rows]),
                                    np.array([channels[i].b for i in rows])))
        self.top = np.full((self.count, max_len + 1), -np.inf)
        self.cands = [[[] for _ in range(max_len + 1)] for _ in channels]

    def values(self, overlaps: np.ndarray) -> np.ndarray:
        """Objectives (channels, ...) of overlaps[r, c, ...] = <s_r|U|s_c>."""
        out = np.empty((self.count,) + overlaps.shape[2:])
        for kind, rows, a, b in self.groups:
            out[rows] = kind.objective(overlaps, a, b)
        return out

    def add(self, values: np.ndarray, cost: np.ndarray, rank: np.ndarray):
        """Record values (channels, m) of m sequences given in rank order,
        all ranked above every sequence added before."""
        for c in range(cost.min(), cost.max() + 1):
            at = cost == c
            if not at.any():
                continue
            v = values[:, at]
            most = v.max(axis=1)
            top = np.maximum(self.top[:, c], most)
            self.top[:, c] = top
            live = np.flatnonzero(most >= top - _TIE)
            if not len(live):
                continue
            floor = top[live] - _TIE
            v = np.where(v[live] >= floor[:, None], v[live], -np.inf)
            # within one call ranks rise, so only running maxima can win
            record = np.empty(v.shape, dtype=bool)
            record[:, 0] = v[:, 0] > -np.inf
            record[:, 1:] = v[:, 1:] > np.maximum.accumulate(v, axis=1)[:, :-1]
            ranks = rank[at]
            for i, j in zip(*np.nonzero(record)):
                _offer(self.cands[live[i]][c], int(ranks[j]), float(v[i, j]),
                       floor[i])

    def best(self, walk: _Enumeration):
        """best[channel][cost] = (value, gate-index tuple), or None."""
        return [[(cands[0][1], walk.sequence(cands[0][0])) if cands else None
                 for cands in row] for row in self.cands]


@dataclass(frozen=True)
class SurveyResult:
    """Best objective per fused cost for every channel of one enumeration.

    Results are read by channel: bounds() and size() look it up in
    `channels` and raise ValueError for one that was not surveyed.
    best[i][cost] is channels[i]'s (value, gate-index tuple), or None when
    no enumerated sequence has that cost. `nodes` counts the sequences
    scored, the empty one included; `truncated` says a node budget cut them
    short.
    """

    n_qubits: int
    channels: list[Channel]
    gates: list[GateOp]
    max_len: int
    nodes: int
    truncated: bool
    best: list[list[tuple[float, tuple[int, ...]] | None]]

    def circuit(self, seq: tuple[int, ...]) -> Circuit:
        return Circuit(self.n_qubits, tuple(self.gates[i] for i in seq))

    def bounds(self, channel: Channel, threshold: float
               ) -> tuple[int, int | None, Circuit | None, float | None]:
        """(lower, upper, witness, achieved) for one channel at a threshold."""
        table = self.best[self.channels.index(channel)]
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

    def size(self, channel: Channel, delta: float) -> int:
        """Enumerated minimal fused size of one channel at accuracy delta (the
        channel's kind sets the threshold), or cap+1 when nothing met it."""
        return self.bounds(channel, channel.kind.threshold(delta))[0]


def survey(states: list[np.ndarray], n_qubits: int, channels: list[Channel],
           max_len: int = 2, node_budget: int | None = None) -> SurveyResult:
    """Score every alphabet gate sequence of length <= max_len (never a gate
    right after its inverse) and keep, per channel and fused cost, the best
    objective: on ties within 1e-12, the shortest, then tuple-earliest
    sequence. One walk serves any number of thresholds afterwards.

    Levels are walked in chunks of parents, and all children of a chunk are
    scored by one GEMM, <s_r|g p|s_c> = <g† s_r|p s_c>, so the kets of the
    last level are never built. node_budget keeps the first N sequences in
    level order (shorter first, tuple order within a length); the empty
    sequence always counts, so node_budget = 0 walks the empty sequence only.
    """
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node_budget must be >= 0, got {node_budget}")
    walk = _enumeration(n_qubits)
    total = sequence_count(n_qubits, max_len)
    limit = total if node_budget is None else min(total, max(node_budget, 1))
    block = np.column_stack(states)  # (2**n, k)
    dim, k = block.shape
    slots = _Slots(channels, max_len)
    zero = np.zeros(1, dtype=int)
    slots.add(slots.values((block.conj().T @ block)[:, :, None]), zero, zero)
    # rows[g] holds the bras <s_r| g = (g†|s_r>)†, shape (gates, k, 2**n)
    rows = np.empty((len(walk.gates), k, dim), dtype=complex)
    for j, gate in enumerate(walk.gates):
        rows[j] = apply_gate_block(block, n_qubits, gate.targets,
                                   gate.matrix.conj().T).conj().T
    for level in range(max_len):
        if limit <= walk.offsets[level + 1]:
            break  # every child of this level ranks at or past the limit
        for f in level_frontiers(block, n_qubits, level, limit):
            for cols, part, sel, rank, cost, _ in walk.runs(
                    f, level, limit, k * k * 16):
                r = rows[part]
                overlaps = (r.reshape(-1, dim) @ cols).reshape(
                    len(r), k, -1, k).transpose(1, 3, 2, 0)
                slots.add(slots.values(overlaps)[:, sel], cost, rank)
    return SurveyResult(n_qubits, list(channels), list(walk.gates), max_len,
                        limit, limit < total, slots.best(walk))


def brute_force_estimate(q: ComplexityQuery,
                         node_budget: int | None = None) -> ComplexityEstimate:
    """Exhaustive level-ordered enumeration over the default alphabet.

    Returns lower = upper = the smallest fused cost at which any enumerated
    sequence meets the threshold (the enumeration itself certifies that no
    cheaper enumerated circuit does); if nothing meets it, lower = max_size+1
    and the upper bound is unknown. On budget truncation the result is
    flagged and the lower bound degrades to 0, never silently wrong.
    """
    channel = Channel(q.kind, 0, 1)
    res = survey([q.a.amplitudes, q.b.amplitudes], q.a.n_qubits, [channel],
                 q.max_size, node_budget)
    lower, upper, witness, achieved = res.bounds(channel, q.threshold)
    if witness is not None:
        _verify_witness(q, witness, achieved)
    return ComplexityEstimate(
        kind=q.kind, delta=q.delta, lower_bound=lower, lower_bound_scope=_SCOPE,
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

# the 15 non-identity two-qubit Paulis P (x) Q, stacked (15, 4, 4)
_GENS = np.array([np.kron(PAULI[p], PAULI[q]) for p in "IXYZ" for q in "IXYZ"][1:])


def _block_unitary(theta: np.ndarray) -> np.ndarray:
    # one term at a time in generator order: the witnesses depend on these bits
    h = np.add.reduce(theta[:, None, None] * _GENS, axis=0, initial=0.0)
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


def _environment(kets: np.ndarray, bras: np.ndarray, n_qubits: int,
                 pair: tuple[int, int]) -> np.ndarray:
    """The (16, k*k) matrix E with (u.reshape(16) @ E).reshape(k, k) equal to
    bras† apply_gate_block(kets, n_qubits, pair, u) for every 4x4 u."""
    k = kets.shape[1]

    def front(block):
        psi = block.reshape((2,) * n_qubits + (k,))
        return np.moveaxis(psi, pair, (0, 1)).reshape(4, -1, k)

    e = np.tensordot(front(bras).conj(), front(kets), axes=(1, 1))  # (i, r, j, c)
    return e.transpose(0, 2, 1, 3).reshape(16, k * k)


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
    from below. Deterministic for a fixed query seed.

    On reaching block b, a sweep applies the earlier blocks to |a>, |b> and
    the later ones' adjoints to the bras, m - 1 gate applications, and
    contracts both into b's (16, 4) environment; each of b's 30 coordinate
    probes then costs one 4x4 exponential and one 16x4 contraction, for any n."""
    n = q.a.n_qubits
    if max_blocks is None:
        max_blocks = q.max_size
    schedule = round_robin_pairs(n)
    if not schedule:
        raise ValueError("variational search needs at least 2 qubits")
    rng = np.random.default_rng(q.seed)
    block0 = np.column_stack([q.a.amplitudes, q.b.amplitudes])

    def environment(theta: np.ndarray, pairs: list[tuple[int, int]],
                    b: int) -> np.ndarray:
        kets = bras = block0
        for t, pair in zip(theta[:b], pairs):
            kets = apply_gate_block(kets, n, pair, _block_unitary(t))
        for t, pair in zip(theta[:b:-1], pairs[:b:-1]):
            bras = apply_gate_block(bras, n, pair, _block_unitary(t).conj().T)
        return _environment(kets, bras, n, pairs[b])

    def probe(theta_b: np.ndarray, env: np.ndarray) -> float:
        g = (_block_unitary(theta_b).reshape(16) @ env).reshape(2, 2)
        return float(q.kind.objective(g))

    for m in range(max_blocks + 1):
        pairs = [schedule[i % len(schedule)] for i in range(m)]
        if m == 0:
            best_val = float(q.kind.objective(block0.conj().T @ block0))
            best_theta = ()
        else:
            best_val, best_theta = -1.0, None
            for _ in range(restarts):
                theta = rng.uniform(-np.pi, np.pi, size=(m, 15))
                val = probe(theta[0], environment(theta, pairs, 0))
                step = 0.8
                for _ in range(sweeps):
                    improved = False
                    for b in range(m):
                        env, theta_b = environment(theta, pairs, b), theta[b]
                        for i in range(15):
                            for delta in (step, -step):
                                theta_b[i] += delta
                                cand = probe(theta_b, env)
                                if cand > val + 1e-12:
                                    val = cand
                                    improved = True
                                    break
                                # subtract, not restore: the ulp this can leave
                                # is part of the pinned search path
                                theta_b[i] -= delta
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
            witness = Circuit(n, tuple(
                GateOp(pair, _block_unitary(t), "var2")
                for pair, t in zip(pairs, best_theta)))
            return _witness_only(q, "variational", m, witness,
                                 _verify_witness(q, witness, best_val))
    return _witness_only(q, "variational")
