"""Runnable inequality suite over seeded random state pairs and triples.

Each property compares enumerated minimal fused sizes (cap+1 when nothing
within the cap meets a threshold). A comparison is counted as vacuous when
both sides sit at the cap, violated when the inequality fails, and checked
otherwise. The pair properties of one instance share one enumeration walk
and run at the accuracies DELTAS; the merge-bound checks (one per p value in
MERGE_P) and three-branch compatibility of one triple share one walk, and the
irreversibility check walks once per cat size (two walks).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fixtures
from .branches import (
    DELTAS,
    _merge_bounds,
    _three_branches,
    irreversibility_check,
)
from .complexity import (
    Channel,
    ComplexityKind,
    fused_cost,
    node_limit,
    objective_value,
    survey,
)
from .qsim import QuantumState, _require_width

K_R = ComplexityKind.RELATIVE
K_D = ComplexityKind.DISTINGUISHABILITY
K_I = ComplexityKind.INTERFERENCE
# the weights p of the merged component in the merge-bound checks
MERGE_P = (0.5, 0.3)
# the most sequences one suite may plan; the README's 100 pairs (150 walks of
# 901 and cat walks of 325 and 901) plan 136,376, and 50 pairs and 50 triples
# at n=3, L=3 plan 2,644,758
MAX_PLANNED = 10**8


@dataclass
class PropertyStats:
    checked: int = 0
    violations: int = 0
    vacuous: int = 0
    examples: list[str] = field(default_factory=list)

    def note(self, ok: bool, vacuous: bool = False, detail: str = ""):
        if vacuous:
            self.vacuous += 1
            return
        self.checked += 1
        if not ok:
            self.violations += 1
            if len(self.examples) < 5:
                self.examples.append(detail)


@dataclass
class PropertySuiteReport:
    properties: dict[str, PropertyStats]


def random_orthogonal_states(n: int, count: int, seed: int
                             ) -> list[QuantumState]:
    """`count` mutually orthogonal Haar-seeded states via Gram-Schmidt."""
    _require_width(n, "random_orthogonal_states")
    if count > 2**n:
        raise ValueError(f"count must be <= 2**n = {2**n}, got {count}")
    rng_seed = np.random.SeedSequence(seed).spawn(count)
    vecs: list[np.ndarray] = []
    for ss in rng_seed:
        rng = np.random.default_rng(ss)
        v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        for u in vecs:
            v = v - np.vdot(u, v) * u
        v /= np.linalg.norm(v)
        vecs.append(v)
    return [QuantumState(n, v) for v in vecs]


def run_pair_properties(n: int, instances: int, seed: int,
                        max_len: int = 3) -> PropertySuiteReport:
    """Monotonicity, symmetry, phase invariance, the interference sandwich,
    the product-state ceiling, the conjugate-basis relation, and the triangle
    inequality, over seeded random orthogonal pairs (plus one extra random
    state per instance for the triangle)."""
    if instances < 0:
        raise ValueError(f"instances must be >= 0, got {instances}")
    cap = max_len + 1
    stats = {name: PropertyStats() for name in (
        "monotonicity", "symmetry", "phase_invariance", "ci_sandwich",
        "cd_ceiling", "conjugate_basis", "triangle",
    )}

    for inst in range(instances):
        a, b, c = random_orthogonal_states(n, 3, seed * 100003 + inst)
        rt2 = math.sqrt(2.0)
        cols = [a.amplitudes, b.amplitudes, c.amplitudes,
                QuantumState.zero(n).amplitudes,
                (a.amplitudes + b.amplitudes) / rt2,
                (a.amplitudes - b.amplitudes) / rt2,
                np.exp(1.7j) * b.amplitudes]
        A, B, C, Z, PP, PM, BPH = range(7)
        # per kind: (a, b), (b, a) and (a, e^{1.7i} b)
        fwd, rev, phased = (
            {kind: Channel(kind, i, j) for kind in (K_R, K_D, K_I)}
            for i, j in ((A, B), (B, A), (A, BPH)))
        conj = Channel(K_I, PP, PM)
        r_za, r_zb = Channel(K_R, Z, A), Channel(K_R, Z, B)
        r_bc = Channel(K_R, B, C)
        channels = [fwd[K_R], rev[K_R], fwd[K_D], rev[K_D], fwd[K_I],
                    rev[K_I], *phased.values(), conj, r_za, r_zb, r_bc]
        res = survey(cols, n, channels, max_len)

        for d in DELTAS:
            # symmetry and phase invariance, all three kinds
            for kind in (K_R, K_D, K_I):
                s_fwd, s_rev = res.size(fwd[kind], d), res.size(rev[kind], d)
                stats["symmetry"].note(
                    s_fwd == s_rev,
                    detail=f"inst={inst} {kind.value} d={d}: {s_fwd} != {s_rev}")
                s_ph = res.size(phased[kind], d)
                stats["phase_invariance"].note(
                    s_fwd == s_ph,
                    detail=f"inst={inst} {kind.value} d={d}: {s_fwd} != {s_ph}")

            # interference sandwich: R(d/2) <= I at accuracy d/2 <= R(d)
            s_r_half = res.size(fwd[K_R], d / 2)
            s_i_half = res.size(fwd[K_I], d / 2)
            s_r_full = res.size(fwd[K_R], d)
            low_ok = s_r_half <= s_i_half
            up_ok = s_i_half <= s_r_full
            stats["ci_sandwich"].note(
                low_ok and up_ok,
                vacuous=(s_r_half >= cap and s_i_half >= cap
                         and s_r_full >= cap),
                detail=f"inst={inst} d={d}: R({d/2})={s_r_half} "
                       f"I={s_i_half} R({d})={s_r_full}")

            # product-state ceiling: D(a,b) <= min(R(0->a), R(0->b))
            s_d = res.size(fwd[K_D], d)
            ceiling = min(res.size(r_za, d), res.size(r_zb, d))
            stats["cd_ceiling"].note(
                s_d <= ceiling,
                vacuous=(s_d >= cap and ceiling >= cap),
                detail=f"inst={inst} d={d}: D={s_d} > min(R)={ceiling}")

            # conjugate-basis: I((a+b)/rt2,(a-b)/rt2) <= D(a,b)
            s_i_pm = res.size(conj, d)
            stats["conjugate_basis"].note(
                s_i_pm <= s_d,
                vacuous=(s_i_pm >= cap and s_d >= cap),
                detail=f"inst={inst} d={d}: I(conj)={s_i_pm} > D={s_d}")

        # monotonicity over the delta grid, all three kinds
        for kind, ch in fwd.items():
            sizes = [res.size(ch, d) for d in DELTAS]
            stats["monotonicity"].note(
                all(x <= y for x, y in zip(sizes, sizes[1:])),
                detail=f"inst={inst} {kind.value}: sizes {sizes}")

        # triangle at delta = 0.9 via the concatenated witness
        d_tri = 0.9
        thr = K_R.threshold(d_tri)
        _, up1, w1, v1 = res.bounds(fwd[K_R], thr)  # a -> b
        _, up2, w2, v2 = res.bounds(r_bc, thr)      # b -> c
        if up1 is None or up2 is None:
            stats["triangle"].note(True, vacuous=True)
        else:
            concat = w1.then(w2)
            val = objective_value(K_R, concat, a, c)
            floor = v1 * v2 - math.sqrt(max(0.0, 1 - v1**2) * max(0.0, 1 - v2**2))
            cost_ok = fused_cost(concat.gates) <= up1 + up2
            stats["triangle"].note(
                val >= floor - 1e-9 and cost_ok,
                detail=f"inst={inst}: concat objective {val:.4f} < floor "
                       f"{floor:.4f} or cost {fused_cost(concat.gates)} > "
                       f"{up1}+{up2}")

    return PropertySuiteReport(stats)


@dataclass
class TripleSuiteReport:
    merge: PropertyStats
    three_branch: PropertyStats


def run_triple_properties(n: int, triples: int, seed: int,
                          epsilon: float = 0.1, max_len: int = 3,
                          ) -> TripleSuiteReport:
    """Merge bounds and three-branch compatibility over seeded orthogonal triples."""
    if triples < 0:
        raise ValueError(f"triples must be >= 0, got {triples}")
    merge = PropertyStats()
    three = PropertyStats()
    for inst in range(triples):
        a, b, c = random_orthogonal_states(n, 3, seed * 7919 + inst)
        # the three checks' states all lie in span{a, b, c}: one survey
        states: list[np.ndarray] = []
        parts = [_merge_bounds(states, a, b, c, p, epsilon) for p in MERGE_P]
        parts.append(_three_branches(states, a, b, c, epsilon))
        res = survey(states, n, [ch for cs, _ in parts for ch in cs], max_len)
        *merge_reps, rep3 = (read(res) for _, read in parts)
        for p, rep in zip(MERGE_P, merge_reps):
            merge.note(rep.d_ok and rep.i_ok,
                       detail=f"inst={inst} p={p}: D {rep.d_lhs}<={rep.d_rhs} "
                              f"I {rep.i_lhs}>={rep.i_rhs_min}")
        three.note(rep3.ok,
                   detail=f"inst={inst}: margins ({rep3.margin_ab},"
                          f"{rep3.margin_bc},{rep3.margin_ca}) vs "
                          f"B1={rep3.b1} B2={rep3.b2}")
    return TripleSuiteReport(merge, three)


@dataclass
class FullSuiteReport:
    pair_report: PropertySuiteReport
    triple_report: TripleSuiteReport
    irreversibility: PropertyStats

    def violation_counts(self) -> dict[str, int]:
        counts = {name: st.violations
                  for name, st in self.pair_report.properties.items()}
        counts["merge_bounds"] = self.triple_report.merge.violations
        counts["three_branch"] = self.triple_report.three_branch.violations
        counts["irreversibility"] = self.irreversibility.violations
        return counts


def run_property_suite(n: int, instances: int, seed: int,
                       max_len: int = 3, triples: int | None = None,
                       epsilon: float = 0.1) -> FullSuiteReport:
    """The full inequality suite: pair properties on random orthogonal pairs,
    merge/three-branch bounds on random triples, and the irreversibility
    comparison on the standard cat-state instances. The triple suite runs
    first: it alone reads epsilon, and the suites are seeded apart. A suite
    that plans more than MAX_PLANNED sequences, in its instances + triples
    n-qubit walks and the 2- and 3-qubit cat walks, is refused before the
    first walk."""
    _require_width(n, "run_property_suite")
    _, count = node_limit(n, max_len, None, None)
    cats = sum(node_limit(m, max_len, None, None)[1] for m in (2, 3))
    triple_count = max(1, instances // 2) if triples is None else triples
    walks = max(instances, 0) + max(triple_count, 0)
    planned = walks * count + cats
    if planned > MAX_PLANNED:
        room = (MAX_PLANNED - cats) // count  # pair and triple walks
        if triples is None:  # the most i with i + max(1, i // 2) <= room
            name, most = "instances", min((2 * room + 1) // 3, room - 1)
        elif triples <= room:
            name, most = "instances", room - triples
        else:
            name, most = "triples", room - max(instances, 0)
        way = f"set {name} to at most {most:,} or " if most >= 0 else ""
        raise ValueError(
            f"the suite plans {planned:,} sequences, {count:,} in each of "
            f"{walks:,} pair and triple walks, above MAX_PLANNED = "
            f"{MAX_PLANNED:,}; {way}lower the sequence-length cap")
    triple_rep = run_triple_properties(n, triple_count, seed, epsilon,
                                       max_len=max_len)
    pair_rep = run_pair_properties(n, instances, seed, max_len)

    irr = PropertyStats()
    for m in (2, 3):
        rep = irreversibility_check(QuantumState.zero(m),
                                    fixtures.ghz(m).decomposition,
                                    max_len=max_len)
        status = rep.status_at(0.9)
        irr.note(status == "ok", vacuous=status == "inconclusive",
                 detail=f"cat n={m}: status {status}")
    return FullSuiteReport(pair_rep, triple_rep, irr)
