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
discrete gate alphabet, walked depth first so that each level is grown once,
in chunks of parent sequences whose children are all scored by one GEMM
against precomputed g†|q> rows of an orthonormal basis |q> of the surveyed
states' span (the states themselves when they are linearly independent), and
are certified only relative to that alphabet up to the enumerated sequence
length. A sequence whose product, up to a global phase, an earlier-ranked
sequence of the same fused cost already gives (gates on disjoint qubits in
the other order, SS = Z, XZ ∝ ZX, ...) scores what that twin scores, so
the survey skips it: it covers every rank but scores about a third of the
sequences at n=3, L=3. Upper bounds come from enumeration witnesses,
user-supplied constructive circuits, or a derivative-free variational
search over general 2-qubit blocks.
"""
from __future__ import annotations

import bisect
import enum
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .qsim import (
    CNOT,
    GATES_1Q,
    PAULI,
    Circuit,
    GateOp,
    QuantumState,
    _gate_axes,
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


def _fuse(last, gate):
    """(blocks added, last-block support) when a gate on the qubit bitmask
    `gate` follows a last fused block on the bitmask `last` (0: no block
    yet): the gate joins the block when their union spans at most two
    qubits, and opens a new block otherwise."""
    union = last | gate
    fused = (last != 0) & (np.bitwise_count(union) <= 2)
    return 1 - fused, np.where(fused, union, gate)


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


def _estimate(q: ComplexityQuery, method: str, witnesses=(), lower: int = 0,
              scope: str = "none", truncated: bool = False) -> ComplexityEstimate:
    """The one builder of q's estimates, from (fused cost, circuit,
    objective) witnesses, a cost of None for none: the cheapest, the first
    on ties, is the witness and upper bound, and the lower bound clips to
    its cost (a witness over general blocks, or past the cap, can undercut
    a scoped bound)."""
    upper, witness, achieved = min((w for w in witnesses if w[0] is not None),
                                   key=lambda w: w[0], default=(None, None, None))
    if upper is not None:
        lower = min(lower, upper)
    return ComplexityEstimate(q.kind, q.delta, lower, scope, upper, achieved,
                              witness, method, q.seed, truncated)


# ---------------------------------------------------------------------------
# Enumeration engine
# ---------------------------------------------------------------------------

# Every working array of a run of children (the kets it grows, the overlaps
# of one GEMM, or the objectives read off them) stays under this many bytes,
# so peak memory does not grow with the size of a level. A frontier's child
# table (rank, kept mask, fused cost and last-block support) is (m, gates)
# for its m sequences; grow makes frontiers whose kets fit this bound, which
# keeps m, and the table, small.
CHUNK_BYTES = 256 * 1024
_TIE = 1e-12
# the surveyed states span the dimensions whose singular values exceed
# max(2**n, k) * _RANK_EPS times the largest
_RANK_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Channel:
    """One tracked objective inside a survey: kind plus column indices of (a, b)."""

    kind: ComplexityKind
    a: int
    b: int


@dataclass(frozen=True)
class Frontier:
    """A run of same-length gate sequences with consecutive level-order ranks.

    kets[:, i, c] is sequence i applied to basis column c, shape (2**n, m, r):
    the columns of the walked block, which a survey takes from an orthonormal
    basis of its states' span. Per sequence: fused cost, qubit bitmask of its
    last fused block, last gate index (the gate count for the empty sequence)
    and level-order rank; and, for the twin tables, the bitmask of the last
    fused block before the last gate (0 when there is none) and the gate
    before the last (the gate count when there is none).
    """

    kets: np.ndarray
    cost: np.ndarray
    support: np.ndarray
    last: np.ndarray
    rank: np.ndarray
    before: np.ndarray
    prev: np.ndarray


# The enumeration alphabet: these gates on every qubit, label-major, then
# CNOT on every ordered pair. S, T and their adjoints invert each other;
# every other gate is its own inverse.
_ONE_QUBIT = ("X", "Y", "Z", "H", "S", "SDG", "T", "TDG")
_ADJOINT = {"S": "SDG", "SDG": "S", "T": "TDG", "TDG": "T"}
_SCOPE = "alphabet:default"
_MAX_LEN = 63  # the longest sequences the rank table counts
# the most sequences one walk may plan; the largest walk of the tests and
# the benchmark plans 26,131
MAX_WALK = 10**7
# twin-table entries other than a gate index (see _Enumeration.twin_table)
_NO_TWIN, _ANY = -2, -1


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
        self.index = {(g.label, g.targets): i for i, g in enumerate(self.gates)}
        # the empty sequence's last gate is len(gates), which excludes nothing
        self.inverse = np.array([self.index[_ADJOINT.get(g.label, g.label), g.targets]
                                 for g in self.gates] + [len(self.gates)])
        self.support = np.array([sum(1 << q for q in g.targets) for g in self.gates])
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

    def parents(self, level: int, limit: int) -> int:
        """The rank limit of the sequences at `level` with a child ranked
        below `limit`: each has `fan` children, right after the previous's."""
        fan = len(self.gates) - (level > 0)
        return self.offsets[level] - (self.offsets[level + 1] - limit) // fan

    def children(self, f: Frontier, level: int, limit: int):
        """Per sequence of a frontier at `level` and per gate, arrays (m,
        gates): the child's level-order rank, whether the walk keeps it (it
        is ranked below `limit` and puts no gate right after its inverse),
        its fused cost and its last-block support."""
        g = len(self.gates)
        gate = np.arange(g)
        skip = self.inverse[f.last][:, None]
        rank = (self.offsets[level + 1] + gate - (gate > skip)
                + (f.rank - self.offsets[level])[:, None] * (g - 1))
        keep = (gate != skip) & (rank < limit)
        added, support = _fuse(f.support[:, None], self.support)
        return rank, keep, f.cost[:, None] + added, support

    def runs(self, f: Frontier, child_bytes: int, keep: np.ndarray):
        """The children of a frontier in runs of parents x gate slice, sized
        so that child_bytes per child stay within CHUNK_BYTES. Runs come in
        rank order, and so do the children within a run: a run that slices
        the gate list has one parent. Only runs with a child that `keep` (m,
        gates) marks come, each gate slice cut to run from the first such
        child's gate to the last's. Per run: the parents' slice, the gate
        slice and the parents' kets as columns (2**n, m * k)."""
        dim, m, _ = f.kets.shape
        g = len(self.gates)
        gates = max(1, min(g, CHUNK_BYTES // child_bytes))
        parents = max(1, CHUNK_BYTES // (gates * child_bytes))
        for p0 in range(0, m, parents):
            rows = slice(p0, p0 + parents)
            cols = f.kets[:, rows].reshape(dim, -1)
            for g0 in range(0, g, gates):
                kept = np.flatnonzero(keep[rows, g0:g0 + gates].any(axis=0)) + g0
                if len(kept):
                    yield rows, slice(kept[0], kept[-1] + 1), cols

    def grow(self, f: Frontier, level: int, limit: int, skip: np.ndarray):
        """The children of a frontier at `level` ranked below `limit`, less
        those `skip` (m, gates) marks (a survey's kin parents, see survey), as
        frontiers in rank order; one gate application per gate of a run,
        gathered into the children in one step."""
        dim, _, k = f.kets.shape
        rank, keep, cost, support = self.children(f, level, limit)
        keep &= ~skip
        for rows, part, cols in self.runs(f, dim * k * 16, keep):
            sel = keep[rows, part]
            pj, gj = np.nonzero(sel)
            applied = np.stack([
                apply_gate_block(cols, self.n_qubits, gate.targets, gate.matrix
                                 ).reshape(dim, -1, k)
                for gate in self.gates[part]], axis=1)
            parent = pj + rows.start
            yield Frontier(applied[:, gj, pj], cost[rows, part][sel],
                           support[rows, part][sel], gj + part.start,
                           rank[rows, part][sel], f.support[parent], f.last[parent])

    @functools.cached_property
    def twin_words(self) -> np.ndarray:
        """Rows (l, g, w0, w1) of _local_twins on every set of at most four
        of the n qubits, in this alphabet's gate indices (w1 = the gate count
        for one-gate words)."""
        parts = []
        for k in range(1, min(self.n_qubits, 4) + 1):
            # per k-subset of the qubits: each k-qubit gate there, then "no gate"
            glob = np.array([[self.index[g.label, tuple(qubits[t] for t in g.targets)]
                              for g in _enumeration(k).gates] + [len(self.gates)]
                             for qubits in itertools.combinations(
                                 range(self.n_qubits), k)])
            parts.append(glob[:, _local_twins(k)].reshape(-1, 4))
        return np.concatenate(parts)

    @functools.cache
    def twin_table(self, before: int) -> np.ndarray:
        """(twin, kin) stacked (2, gates, gates), for the children p·l·g of a
        sequence p·l whose p ends in a fused block on the qubit bitmask
        `before` (0 when p is empty); built once per bitmask.

        twin[l, g] says when an earlier-ranked sequence p·w of the walk, w of
        at most two gates on the qubits of l and g, has the product of p·l·g
        up to a global phase and the same fused cost: never (_NO_TWIN),
        always (_ANY), or unless p ends in the gate it holds (p·w would then
        put a gate right after its inverse). kin[l, g] says when such a p·w
        also has the same last-block support, so that every child p·l·g·x
        has the twin p·w·x, and the one child that p·w·x leaves out, x the
        inverse of w's last gate, has the twin p·w less that gate at the same
        fused cost."""
        gates = len(self.gates)
        l, g, w0, w1 = self.twin_words.T
        support = np.append(self.support, 0)  # w1 == gates: no gate
        # fused costs over p's, and last-block supports, of p·l·g and p·w
        add_l, s_l = _fuse(before, support[l])
        add_g, s_lg = _fuse(s_l, support[g])
        add_w0, s_w0 = _fuse(before, support[w0])
        add_w1, s_w = _fuse(s_w0, support[w1])
        cost = add_l + add_g
        twin = cost == add_w0 + add_w1
        undo = self.inverse[np.where(w1 == gates, w0, w1)]
        add_undo, _ = _fuse(s_lg, support[undo])
        kin = twin & (s_lg == s_w) & (
            (undo == self.inverse[g])
            | (cost + add_undo == np.where(w1 == gates, 0, add_w0)))
        key = l * gates + g
        tables = np.empty((2, gates * gates), dtype=np.int16)
        for table, match in zip(tables, (twin, kin)):
            # a twin p·w that starts with l is in the walk whatever p
            # ends in; any other only unless p ends in w0's inverse.
            # `some` keeps one such w0 per (l, g); where another twin
            # starts differently, p's last gate cannot refuse both
            tied = match & (w0 != l)
            some = np.full(gates * gates, -1)
            some[key[tied]] = w0[tied]
            table[:] = np.where(some >= 0, self.inverse[some], _NO_TWIN)
            table[key[tied & (w0 != some[key])]] = _ANY
            table[key[match & (w0 == l)]] = _ANY
        return tables.reshape(2, gates, gates)

    def twins(self, f: Frontier) -> np.ndarray:
        """(twin, kin) masks stacked (2, m, gates) over the children of a
        frontier, from twin_table: the child has an earlier-ranked twin of
        the same fused cost in the walk, and (kin) so has each of its
        children. Children of the empty sequence have none."""
        m, gates = len(f.rank), len(self.gates)
        masks = np.zeros((2, m, gates), dtype=bool)
        grown = f.last < gates
        for before in set(f.before[grown].tolist()):
            rows = grown & (f.before == before)
            entry = self.twin_table(before)[:, f.last[rows]]
            masks[:, rows] = (entry != f.prev[rows, None]) & (entry != _NO_TWIN)
        return masks


_enumeration = functools.cache(_Enumeration)


def _phase_free(ops: np.ndarray) -> list[bytes]:
    """One key per matrix of ops (m, d, d), equal for matrices equal up to a
    global phase: each is turned to make its first nonzero entry real and
    positive, then rounded."""
    flat = ops.reshape(len(ops), -1)
    lead = flat[np.arange(len(flat)), np.argmax(np.abs(flat) > 1e-6, axis=1)]
    flat = np.round(flat * (np.abs(lead) / lead)[:, None], 8) + 0.0  # no -0.0
    return [row.tobytes() for row in flat]


@functools.cache
def _local_twins(k: int) -> np.ndarray:
    """Rows (l, g, w0, w1) over the k-qubit alphabet: each two-gate word
    (l, g) on all k qubits, once per word w = (w0, w1), or w = (w0,) with w1
    the gate count, that is ranked before it, acts on all k qubits too, and
    whose product equals g·l up to a global phase. (A product of two of
    these gates acts on every qubit of its gates, unless it is the identity,
    so no twin acts on fewer.) Putting these gates on any k of n qubits
    keeps qubit order, and so gate order and rank order: the rows hold
    there too."""
    walk = _enumeration(k)
    g, full = len(walk.gates), 2**k - 1
    ops = [Circuit(k, (gate,)).to_matrix() for gate in walk.gates]
    words = [(a,) for a in range(g) if walk.support[a] == full]
    words += [(a, b) for a in range(g) for b in range(g)
              if b != walk.inverse[a] and walk.support[a] | walk.support[b] == full]
    keys = _phase_free(np.array([ops[w[-1]] @ ops[w[0]] if len(w) == 2
                                 else ops[w[0]] for w in words]))
    earlier, rows = {}, []
    for word, key in zip(words, keys):  # in rank order
        same = earlier.setdefault(key, [])
        if len(word) == 2:
            rows += [word + (w + (g,))[:2] for w in same]
        same.append(word)
    return np.array(rows, dtype=int).reshape(-1, 4)


def walk_frontiers(block: np.ndarray, n_qubits: int, max_len: int,
                   limit: int, visit=lambda f, level: np.False_):
    """Every alphabet gate sequence of at most max_len gates (never a gate
    right after its inverse) ranked below `limit`, applied to the columns of
    `block` (2**n, k), as (level, frontier) pairs. The walk is depth first,
    every frontier right before the frontiers grown from it, so ranks rise
    within a level but not from one level to the next. Each level is grown
    once, and nothing past the limit: only the sequences with a child ranked
    below it are grown. visit(frontier, level) sees each frontier once it is
    yielded and returns the children (m, gates) not to grow (survey's kin
    parents), or np.False_ for none."""
    walk = _enumeration(n_qubits)
    zero, none = np.zeros(1, dtype=int), np.array([len(walk.gates)])
    # the frontiers still to walk on each level, the block's level 0 first
    levels = [iter([Frontier(block[:, None, :], zero, zero, none, zero, zero,
                             none)] if limit > 0 else [])]
    while levels:
        level, f = len(levels) - 1, next(levels[-1], None)
        if f is None:
            levels.pop()
            continue
        yield level, f
        skip = visit(f, level)
        if level < max_len:
            levels.append(walk.grow(f, level, limit, skip))


def sequence_count(n_qubits: int, max_len: int) -> int:
    """How many alphabet gate sequences have at most max_len gates."""
    if not 0 <= max_len <= _MAX_LEN:
        raise ValueError(f"sequence-length cap must lie in [0, {_MAX_LEN}], "
                         f"got {max_len}")
    return _enumeration(n_qubits).offsets[max_len + 1]


def node_limit(n_qubits: int, max_len: int, budget: int | None,
               name: str | None) -> tuple[int, int]:
    """(limit, total): a walk of the `total` sequences of at most max_len gates
    covers the first `limit` in level order (shorter first, tuple order within
    a length). The empty one always counts, so a budget of 0 walks it alone.
    A walk above MAX_WALK is refused, naming the budget `name` unless None."""
    if budget is not None and budget < 0:
        raise ValueError(f"{name} must be >= 0, got {budget}")
    total = sequence_count(n_qubits, max_len)
    limit = total if budget is None else min(total, max(budget, 1))
    if limit > MAX_WALK:
        way = f"set {name} to at most {MAX_WALK:,} or " if name else ""
        raise ValueError(
            f"the walk plans {limit:,} sequences of at most {max_len} gates on "
            f"{n_qubits} qubits, above MAX_WALK = {MAX_WALK:,}; {way}lower the "
            "sequence-length cap")
    return limit, total


class _Slots:
    """Per (channel, fused cost, level): the maximum objective seen, and the
    records (sequences valued above every earlier one of their level) from
    the first one within _TIE of the latest. Within a level, sequences must
    arrive in strictly rising rank; levels may interleave. The winner, the
    lowest-ranked sequence within _TIE of the maximum over all levels, is a
    record of its level that no later record drops; lower levels rank first,
    so best takes the first record within _TIE of the maximum, lowest level
    first."""

    def __init__(self, channels: list[Channel], max_len: int):
        self.count = len(channels)
        self.groups = []
        for kind in ComplexityKind:
            rows = [i for i, ch in enumerate(channels) if ch.kind is kind]
            if rows:
                self.groups.append((kind, np.array(rows),
                                    np.array([channels[i].a for i in rows]),
                                    np.array([channels[i].b for i in rows])))
        self.top = np.full((self.count, max_len + 1, max_len + 1), -np.inf)
        self.records = [[[[] for _ in range(max_len + 1)]
                         for _ in range(max_len + 1)] for _ in channels]

    def values(self, overlaps: np.ndarray) -> np.ndarray:
        """Objectives (channels, ...) of the overlaps[r, c, ...] =
        <s_r|U|s_c> that a _SpanOverlaps reads."""
        out = np.empty((self.count,) + overlaps.shape[2:])
        for kind, rows, a, b in self.groups:
            out[rows] = kind.objective(overlaps, a, b)
        return out

    def add(self, values: np.ndarray, cost: np.ndarray, rank: np.ndarray,
            level: int):
        """Record values (channels, m) of m sequences of `level` gates given
        in rank order, all ranked above every sequence of that level added
        before."""
        for c in range(cost.min(), cost.max() + 1):
            at = cost == c
            v = values[:, at]
            # run[:, j] is the largest value of the level scored before v[:, j]
            run = np.maximum.accumulate(
                np.column_stack([self.top[:, c, level], v]), axis=1)
            self.top[:, c, level] = run[:, -1]
            ranks = rank[at]
            for i, j in zip(*np.nonzero(v > run[:, :-1])):
                records = self.records[i][c][level]
                records.append((int(ranks[j]), float(v[i, j])))
                while records[0][1] < records[-1][1] - _TIE:
                    del records[0]

    def best(self, walk: _Enumeration):
        """best[channel][cost] = (value, gate-index tuple), or None."""
        return [[next(((v, walk.sequence(r)) for records in levels
                       for r, v in records if v >= top.max() - _TIE), None)
                 for top, levels in zip(tops, row)]
                for tops, row in zip(self.top, self.records)]


@dataclass(frozen=True)
class SurveyResult:
    """Best objective per fused cost for every channel of one enumeration.

    Results are read by channel: bounds() and size() look it up in
    `channels` and raise ValueError for one that was not surveyed.
    best[i][cost] is channels[i]'s (value, gate-index tuple), or None when
    no enumerated sequence has that cost. `nodes` counts the sequences the
    walk covers, the empty one included, and `scored` those it scored: the
    others have a scored twin (see survey). `truncated` says a node budget
    cut the walk short.
    """

    n_qubits: int
    channels: list[Channel]
    gates: list[GateOp]
    max_len: int
    nodes: int
    scored: int
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


class _SpanOverlaps:
    """The overlaps <s_i|U|s_j> = C[:, i]† G C[:, j] of states s = QC, read
    for index arrays i and j (one product per read) off the basis overlaps
    G[p * r + q, ...] = <q_p|U|q_q> of a basis Q (2**n, r) (see _span)."""

    def __init__(self, coef: np.ndarray, g: np.ndarray):
        self.coef, self.g = coef, g
        self.shape = coef.shape[1:] * 2 + g.shape[1:]

    def __getitem__(self, index):
        i, j = index
        rows = self.coef[:, i].conj()[:, None] * self.coef[:, j][None]
        return rows.reshape(self.g.shape[0], -1).T @ self.g


def _span(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, C) with S = QC: the states S (2**n, k) themselves and C = I when
    they are linearly independent, else an orthonormal basis Q (2**n, r) of
    their span, r < k, and their coordinates C = Q†S (r, k)."""
    dim, k = states.shape
    u, sigma, _ = np.linalg.svd(states, full_matrices=False)
    cut = max(dim, k) * _RANK_EPS * sigma[0]
    r = max(1, int(np.count_nonzero(sigma > cut)))
    if r == k:
        return states, np.eye(k)
    basis = np.ascontiguousarray(u[:, :r])
    return basis, basis.conj().T @ states


def survey(states: list[np.ndarray], n_qubits: int, channels: list[Channel],
           max_len: int = 2, node_budget: int | None = None) -> SurveyResult:
    """Score every alphabet gate sequence of length <= max_len (never a gate
    right after its inverse) and keep, per channel and fused cost, the best
    objective: on ties within 1e-12, the shortest, then tuple-earliest
    sequence. One walk serves any number of thresholds afterwards.

    The walk runs on an orthonormal basis Q of the states' span, r columns
    (the states themselves when they are linearly independent, r = k).
    node_budget keeps the first N sequences in level order (see node_limit);
    the sequences with a child ranked below it are grown once each, and
    nothing past them. Their children are scored in runs, each by
    one GEMM, <q_p|g u|q_q> = <g† q_p|u q_q>, so the kets of the last level
    are never built, and each bra row g†|q_p> is built when a run first
    reads it. Each channel's entries then come from the r x r basis
    overlaps G as C[:, i]† G C[:, j], for the states' coordinates S = QC;
    with r == k, C = I, and each entry is one overlap plus terms of ±0, so
    exactly that overlap.

    Twins are skipped (_Enumeration.twin_table): a child p·l·g is not
    scored when an earlier-ranked sequence p·w of the walk, w of at most
    two gates, has its product up to phase and its fused cost, since the
    twin then wins any tie. A parent of the last level whose twin also has
    its last-block support, and whose children all have twins that way (a
    kin parent), is never grown: the survey's visitor to walk_frontiers
    returns the kin mask on the last parents' level. `nodes` still counts
    every rank covered; `scored` counts the sequences scored.
    """
    limit, total = node_limit(n_qubits, max_len, node_budget, "node_budget")
    walk = _enumeration(n_qubits)
    basis, coef = _span(np.column_stack(states))
    dim, r = basis.shape
    slots = _Slots(channels, max_len)
    # per child, the largest working array of a run: the basis overlaps, one
    # kind's read of them, or the objectives
    child_bytes = max(16 * r * r, 8 * slots.count,
                      16 * max((len(rows) for _, rows, _, _ in slots.groups),
                               default=0))

    def score(g: np.ndarray, cost: np.ndarray, rank: np.ndarray, level: int):
        """Record the children of basis overlaps g (r, r, children)."""
        nonlocal scored
        scored += g.shape[2]
        slots.add(slots.values(_SpanOverlaps(coef, g.reshape(r * r, -1))),
                  cost, rank, level)

    def score_children(f: Frontier, level: int) -> np.ndarray:
        """Score the children of a frontier at `level` that have no twin;
        return, on the last parents' level, the kin mask (m, gates):
        children whose children all have twins."""
        rank, keep, cost, _ = walk.children(f, level, limit)
        twin, kin = walk.twins(f)
        for run, part, cols in walk.runs(f, child_bytes, keep):
            sel = keep[run, part] & ~twin[run, part]
            if not sel.any():
                continue
            for j in np.flatnonzero(~built[part]) + part.start:
                gate = walk.gates[j]
                rows[j] = apply_gate_block(basis, n_qubits, gate.targets,
                                           gate.matrix.conj().T).conj().T
            built[part] = True
            bras = rows[part]
            g = (bras.reshape(-1, dim) @ cols).reshape(len(bras), r, -1, r)
            # (r, r, parents * gates), the children in rank order; each
            # step drops the array before it
            g = np.ascontiguousarray(g.transpose(1, 3, 2, 0))
            g = g.reshape(r, r, -1)[:, :, sel.ravel()]
            score(g, cost[run, part][sel], rank[run, part][sel], level + 1)
        return kin if level == max_len - 2 else np.False_

    scored = 0
    zero = np.zeros(1, dtype=int)
    score((basis.conj().T @ basis)[:, :, None], zero, zero, 0)
    # rows[g] holds the bras <q_p| g = (g†|q_p>)†, shape (gates, r, 2**n),
    # each built when a scored run first reads it
    rows = np.empty((len(walk.gates), r, dim), dtype=complex)
    built = np.zeros(len(walk.gates), dtype=bool)
    # the limit's last sequence has `top` gates; the parents of the children
    # ranked below the limit end inside the level below it
    top = bisect.bisect_left(walk.offsets, limit) - 1
    parents = walk.parents(top - 1, limit) if top else 0
    for _ in walk_frontiers(basis, n_qubits, max(max_len - 1, 0), parents,
                            score_children):
        pass
    return SurveyResult(n_qubits, list(channels), list(walk.gates), max_len,
                        limit, scored, limit < total, slots.best(walk))


def enumeration_estimate(q: ComplexityQuery,
                         res: SurveyResult) -> ComplexityEstimate:
    """q's certified estimate from a survey of its pair as columns (0, 1):
    lower = upper = the smallest fused cost at which any enumerated sequence
    meets the threshold (the enumeration itself certifies that no cheaper
    enumerated circuit does); if nothing meets it, lower = max_len+1 and the
    upper bound is unknown. On budget truncation the result is flagged and
    the lower bound degrades to 0, never silently wrong."""
    lower, upper, witness, achieved = res.bounds(Channel(q.kind, 0, 1), q.threshold)
    if witness is not None:
        _verify_witness(q, witness, achieved)
    return _estimate(q, "enumeration", [(upper, witness, achieved)], lower,
                     _SCOPE, res.truncated)


def brute_force_estimate(q: ComplexityQuery) -> ComplexityEstimate:
    """Exhaustive enumeration over the default alphabet for one query."""
    res = survey([q.a.amplitudes, q.b.amplitudes], q.a.n_qubits,
                 [Channel(q.kind, 0, 1)], q.max_size)
    return enumeration_estimate(q, res)


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
            return _estimate(q, "constructive",
                             [(fused_cost(cand.gates), cand, val)])
    return _estimate(q, "constructive")


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
# the same as real (15, 32) rows: thetas @ _GEN_ROWS, viewed complex, is h
_GEN_ROWS = np.ascontiguousarray(_GENS.reshape(15, 16)).view(float)
_RUN = 4  # coordinates whose +/- probes _scan_block scores in one batch
# _PICK[r, j] says what coordinate j of a run holds in probe r: 0 its start,
# 1 the + step, 2 the - step, 3 the value a rejected coordinate is left at
_PICK = np.array([[0 if r < 2 * j else min(r - 2 * j + 1, 3)
                   for j in range(_RUN)] for r in range(2 * _RUN)])


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
    perm, _ = _gate_axes(n_qubits, tuple(pair))
    bra, ket = (block.reshape((2,) * n_qubits + (k,)).transpose(perm)
                .reshape(4, -1, k) for block in (bras, kets))
    e = np.tensordot(bra.conj(), ket, axes=(1, 1))  # (i, r, j, c)
    return e.transpose(0, 2, 1, 3).reshape(16, k * k)


def _scan_block(theta_b: np.ndarray, env: np.ndarray, kind: ComplexityKind,
                val: float, step: float) -> tuple[float, int]:
    """One coordinate-descent visit to a block: try theta_b[i] + step, then
    - step, for i = 0..14, and keep the first probe that beats val by 1e-12.
    Returns the final value and the number of accepted probes; theta_b is
    updated in place. The probes of the next _RUN coordinates are scored in
    one batch, each assuming the ones before it were rejected, and the scan
    resumes after the first accepted one. A rejected coordinate is left at
    t + s - s - s + s, as subtracting each step again leaves it: the ulp
    that can leave is part of the pinned search path."""
    accepts, i = 0, 0
    while i < 15:
        t = theta_b[i:i + _RUN]
        k = t.size
        up = t + step
        down = up - step - step
        probes = np.empty((2 * k, 15))
        probes[:] = theta_b
        probes[:, i:i + k] = np.choose(_PICK[:2 * k, :k],
                                       (t, up, down, down + step))
        h = (probes @ _GEN_ROWS).view(complex).reshape(-1, 4, 4)
        vals, vecs = np.linalg.eigh(h)
        u = (vecs * np.exp(-1j * vals)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
        scores = kind.objective((u.reshape(-1, 16) @ env).T.reshape(2, 2, -1))
        better = scores > val + 1e-12
        if better.any():
            r = int(better.argmax())  # the first, in probe order
            theta_b[:] = probes[r]
            val = float(scores[r])
            accepts += 1
            i += r // 2 + 1
        else:
            theta_b[i:i + k] = down + step
            i += k
    return val, accepts


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


def _light_cone(q: ComplexityQuery, qubits) -> float:
    """The largest value of q's objective that any unitary on `qubits` (Q)
    can reach. Such a unitary sees only the reduced operators on Q, so by
    Hoelder's inequality relative <= ||tr_Qbar |a><b| ||_1,
    distinguishability <= ||rho_a^Q - rho_b^Q||_1 and interference <=
    2 ||tr_Qbar |a><b| ||_1, for any gate set."""
    n, qubits = q.a.n_qubits, tuple(dict.fromkeys(qubits))
    perm, _ = _gate_axes(n, qubits)
    a, b = (state.amplitudes.reshape((2,) * n + (1,)).transpose(perm)
            .reshape(2 ** len(qubits), -1) for state in (q.a, q.b))
    if q.kind is ComplexityKind.DISTINGUISHABILITY:
        op = np.hstack([a, b]) @ np.hstack([a, -b]).conj().T
    else:
        op = a @ b.conj().T
    norm = float(np.linalg.svd(op, compute_uv=False).sum())
    return 2.0 * norm if q.kind is ComplexityKind.INTERFERENCE else norm


def variational_upper_bound(q: ComplexityQuery, restarts: int, max_blocks: int,
                            sweeps: int = 60) -> ComplexityEstimate:
    """Witness search over m = 0, 1, ..., max_blocks general 2-qubit unitaries
    (15 free parameters each) on a round-robin pair schedule, optimized by
    derivative-free coordinate descent with seeded restarts. Returns the
    smallest m whose best objective reaches the threshold; certifies nothing
    from below. Deterministic for a fixed query seed.

    On reaching block b, a sweep applies the earlier blocks to |a>, |b> and
    the later ones' adjoints to the bras, m - 1 gate applications, and
    contracts both into b's (16, 4) environment. b's 30 coordinate probes are
    then scored in runs from the last accepted point (see _scan_block): the
    8 probes of a run cost one stacked 4x4 exponential and one GEMM against
    the environment, for any n, and change no accept decision of scoring
    them one at a time.

    A stage whose light-cone ceiling (_light_cone on the union of its pairs)
    lies below the threshold cannot succeed with any gates, so its sweeps
    are skipped. Its starting angles are still drawn, in one call, so every
    later stage starts from the same bits as an unpruned search."""
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if max_blocks < 0:
        raise ValueError(f"max_blocks must be at least 0, got {max_blocks}")
    n = q.a.n_qubits
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

    for m in range(max_blocks + 1):
        pairs = [schedule[i % len(schedule)] for i in range(m)]
        if m == 0:
            best_val = float(q.kind.objective(block0.conj().T @ block0))
            best_theta = ()
        else:
            starts = rng.uniform(-np.pi, np.pi, size=(restarts, m, 15))
            cone = _light_cone(q, [i for pair in pairs for i in pair])
            if cone < q.threshold - _THRESHOLD_SLACK - WITNESS_ATOL:
                continue
            best_val, best_theta = -1.0, None
            for theta in starts:
                g = (_block_unitary(theta[0]).reshape(16)
                     @ environment(theta, pairs, 0)).reshape(2, 2)
                val = float(q.kind.objective(g))
                step = 0.8
                for _ in range(sweeps):
                    improved = False
                    for b in range(m):
                        val, accepts = _scan_block(
                            theta[b], environment(theta, pairs, b), q.kind,
                            val, step)
                        improved |= accepts > 0
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
            return _estimate(q, "variational", [
                (m, witness, _verify_witness(q, witness, best_val))])
    return _estimate(q, "variational")
