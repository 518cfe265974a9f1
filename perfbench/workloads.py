"""The benchmark's three workloads, as fixed lists of timed items.

Each workload is a closed loop: one caller, one process, and the next item
starts only when the previous one has returned. `build(workload, seed)`
derives every input from the seed; branchkit only sees the generated
inputs. Items are cold, as users pay them: fixtures and Hamiltonians are
built inside the timed call, because `Hamiltonian` caches its matrix and
eigensystem on the instance. Only raw seeded states are built in set-up.

Every item returns its raw result. `summary()` turns it into plain JSON
values, compared against the recorded reference (for the default seed, and
for items whose inputs do not depend on the seed); `invariants()` checks
what holds for any seed without a reference.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from branchkit import (branches, cli, complexity, dynamics, fixtures,
                       properties, qsim, serialize)
from branchkit.complexity import Channel, ComplexityKind, ComplexityQuery

DEFAULT_SEED = 1

# floats in summaries (eth gaps, residual max_eps, flow drift, objective
# values) are compared to this tolerance; everything else exactly
FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-9
WITNESS_ATOL = 1e-9

K_I = ComplexityKind.INTERFERENCE
K_D = ComplexityKind.DISTINGUISHABILITY
# pair properties that are theorems for any seed (criterion 08); the
# product-state ceiling (08x) is intentionally not among them
SOUND_PROPERTIES = ("monotonicity", "symmetry", "phase_invariance",
                    "ci_sandwich", "conjugate_basis", "triangle")


@dataclass(frozen=True)
class Item:
    name: str
    run: Callable[[], Any]
    summary: Callable[[Any], Any]
    invariants: Callable[[Any], list[str]]
    seeded: bool = True


def derive(seed: int, k: int) -> int:
    """The k-th instance seed of a workload seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def plain(obj) -> Any:
    """JSON-native copy (tuples become lists, numpy scalars Python numbers)."""
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    return json.loads(json.dumps(obj, default=lambda o: o.item()))


def compare(expected, actual, path: str = "") -> list[str]:
    """Differences between two summaries: floats to the stated tolerance,
    everything else exactly."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [p for k in expected
                for p in compare(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual))
                for p in compare(e, a, f"{path}[{i}]")]
    if (isinstance(expected, float) and isinstance(actual, (int, float))
            and not isinstance(actual, bool)):
        if math.isclose(actual, expected, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def _no_checks(raw) -> list[str]:
    return []


# ---------------------------------------------------------------------------
# props-n3: the certification sweep at n = 3, depth 3
# ---------------------------------------------------------------------------

def _pair_props_summary(rep):
    return {name: [st.checked, st.violations, st.vacuous]
            for name, st in rep.properties.items()}


def _pair_props_invariants(rep):
    out = [f"{name}: {rep.properties[name].violations} violations"
           for name in SOUND_PROPERTIES if rep.properties[name].violations]
    # symmetry, phase invariance: 3 kinds x 3 deltas; the rest per delta/kind
    expected = {"monotonicity": 3, "symmetry": 9, "phase_invariance": 9,
                "ci_sandwich": 3, "cd_ceiling": 3, "conjugate_basis": 3,
                "triangle": 1}
    for name, want in expected.items():
        st = rep.properties[name]
        if st.checked + st.vacuous != want:
            out.append(f"{name}: {st.checked + st.vacuous} comparisons, want {want}")
    return out


def _range_invariants(names, lo, hi):
    def check(rep):
        return [f"{n}={getattr(rep, n)} outside [{lo}, {hi}]" for n in names
                if not lo <= getattr(rep, n) <= hi]
    return check


def _merge_invariants(rep):
    out = _range_invariants(("d_lhs", "d_rhs", "i_lhs", "i_rhs_min"),
                            0, rep.max_len + 1)(rep)
    if not (rep.d_ok and rep.i_ok):
        out.append(f"merge bound violated: {plain(rep)}")
    return out


def _gap_invariants(rep):
    out = []
    if rep.max_equality_residual > 1e-10 or rep.max_bound_violation > 1e-10:
        out.append(f"gap bound violated: {plain(rep)}")
    if rep.truncated:
        out.append("gap check truncated")
    return out


def _props(seed: int) -> list[Item]:
    pair_seed = derive(seed, 0)
    merge_abc = properties.random_orthogonal_states(3, 3, derive(seed, 1))
    triple_abc = properties.random_orthogonal_states(3, 3, derive(seed, 2))
    # sizes lie in [0, max_len + 1], so their differences in [-4, 4]
    three_range = _range_invariants(
        ("b1", "b2", "margin_ab", "margin_bc", "margin_ca"), -4, 4)
    return [
        # 14 channels over 7 states, one instance
        Item("pair_properties",
             lambda: properties.run_pair_properties(3, 1, pair_seed, max_len=3),
             _pair_props_summary, _pair_props_invariants),
        # 18 channels over 10 states
        Item("merge_bound",
             lambda: branches.merge_bound_check(*merge_abc, p=0.5, epsilon=0.1,
                                                max_len=3),
             plain, _merge_invariants),
        # 24 channels over 19 states; a seeded triple may hit the 09x corner,
        # so only the value ranges are invariants
        Item("three_branch",
             lambda: branches.three_branch_compatibility(*triple_abc,
                                                         epsilon=0.1, max_len=3),
             plain, three_range),
        Item("gap_ghz3",
             lambda: branches.rho_vs_diag_gap(fixtures.ghz(3).decomposition, 2, 8),
             plain, _gap_invariants, seeded=False),
        Item("irreversibility_ghz3",
             lambda: branches.irreversibility_check(
                 qsim.QuantumState.zero(3), fixtures.ghz(3).decomposition,
                 max_len=3),
             plain, _no_checks, seeded=False),
    ]


# ---------------------------------------------------------------------------
# verdicts-n4to8: variational half and wide-enumeration half
# ---------------------------------------------------------------------------

def _estimate_summary(e):
    return {"lower": e.lower_bound, "upper": e.upper_bound, "method": e.method,
            "scope": e.lower_bound_scope, "truncated": e.truncated,
            "achieved": e.achieved_value}


def _verdict_summary(raw):
    _, verdict, _ = raw
    return plain({
        "overall": verdict.overall,
        "pairs": [{"ci": _estimate_summary(p.ci), "cd": _estimate_summary(p.cd),
                   "margin": p.margin, "witness_margin": p.witness_margin,
                   "class": p.classification} for p in verdict.pairwise],
    })


def _estimate_invariants(est, kind, delta, a, b, where):
    out = []
    if est.upper_bound is None:
        return out
    if est.lower_bound > est.upper_bound:
        out.append(f"{where}: lower {est.lower_bound} > upper {est.upper_bound}")
    if est.witness is None:
        return out + [f"{where}: upper bound without a witness"]
    value = complexity.objective_value(kind, est.witness, a, b)
    if value < kind.threshold(delta) - WITNESS_ATOL:
        out.append(f"{where}: witness reaches {value}, threshold "
                   f"{kind.threshold(delta)}")
    if complexity.fused_cost(est.witness.gates) > est.upper_bound:
        out.append(f"{where}: witness costs more than upper {est.upper_bound}")
    return out


def _verdict_invariants(max_len):
    def check(raw):
        fixture, verdict, _ = raw
        comps = fixture.decomposition.components
        out = []
        for p in verdict.pairwise:
            a, b = comps[p.i][1], comps[p.j][1]
            for est, kind, delta in ((p.ci, K_I, verdict.epsilon),
                                     (p.cd, K_D, 1.0 - verdict.epsilon)):
                where = f"pair ({p.i},{p.j}) {kind.value}"
                out += _estimate_invariants(est, kind, delta, a, b, where)
                fwd = complexity.brute_force_estimate(
                    ComplexityQuery(kind, a, b, delta, max_size=max_len))
                rev = complexity.brute_force_estimate(
                    ComplexityQuery(kind, b, a, delta, max_size=max_len))
                if fwd.lower_bound != rev.lower_bound:
                    out.append(f"{where}: size(a,b)={fwd.lower_bound} != "
                               f"size(b,a)={rev.lower_bound}")
        return out
    return check


def _verdict_item(name, make_fixture, config, seeded=True):
    def run():
        fixture = make_fixture()
        verdict = branches.assess_branches(
            fixture.decomposition, epsilon=0.1, config=config,
            candidates=fixture.known_witnesses)
        return fixture, verdict, serialize.verdict_to_json(verdict)
    return Item(name, run, _verdict_summary,
                _verdict_invariants(config.max_len), seeded)


def _scan_summary(raw):
    _, res = raw
    return plain({"nodes": res.nodes, "truncated": res.truncated,
                  "best": [[s[0], list(s[1])] for s in res.best[0]]})


def _scan_invariants(raw):
    (a, b), res = raw
    g = len(res.gates)
    want = 1 + g + g * (g - 1)  # every gate has its inverse in the alphabet
    out = [] if res.nodes == want else [f"{res.nodes} nodes, want {want}"]
    for cost, (value, seq) in enumerate(res.best[0]):
        check = complexity.objective_value(K_D, res.circuit(seq), a, b)
        if abs(check - value) > WITNESS_ATOL:
            out.append(f"cost {cost}: recorded {value}, re-evaluated {check}")
    return out


def _scan_03a(seed):
    def run():
        a, b = fixtures.product_plus_random(8, seed=seed).pair()
        res = complexity.survey([a.amplitudes, b.amplitudes], 8,
                                [Channel(K_D, 0, 1)], max_len=2)
        return (a, b), res
    return run


def _floor_03b():
    a, b = fixtures.product_plus_random(8, seed=1355).pair()
    est = complexity.brute_force_estimate(ComplexityQuery(K_I, a, b, 0.1, max_size=2))
    return (a, b), est


def _floor_invariants(raw):
    (a, b), est = raw
    return _estimate_invariants(est, K_I, 0.1, a, b, "03b")


def _verdicts(seed: int) -> list[Item]:
    EC = branches.EstimatorConfig
    # The variational half runs fixed instances (the fixtures' default seed
    # 0): whether a search finds its witness early or exhausts its budget
    # depends on the instance, and that swings a pass by 2x between seeds.
    # One restart keeps this half near half of the pass.
    var_config = EC(max_len=1, variational_blocks=2, restarts=1)
    dq_seed = derive(seed, 3)

    def distinguishing():
        e0, e1 = fixtures.deep_random_registers(4, 4, dq_seed)
        config = EC(max_len=2, use_variational=False)
        out = []
        for basis in ("computational", "conjugate"):
            f = fixtures.distinguishing_qubit_state(e0, e1, basis)
            v = branches.assess_branches(f.decomposition, epsilon=0.1,
                                         config=config,
                                         candidates=f.known_witnesses)
            out.append((f, v, serialize.verdict_to_json(v)))
        return out

    check_dq = _verdict_invariants(2)
    return [
        *(_verdict_item(f"product_random_n{n}",
                        lambda n=n: fixtures.product_plus_random(n, seed=0),
                        var_config, seeded=False)
          for n in (4, 5, 6)),
        _verdict_item("two_random_n4",
                      lambda: fixtures.two_random_circuits(4, 1, 3, seed=0),
                      EC(max_len=2, variational_blocks=2, restarts=1),
                      seeded=False),
        _verdict_item("ghz_n8", lambda: fixtures.ghz(8), EC(max_len=2),
                      seeded=False),
        Item("scan_03a_n8", _scan_03a(derive(seed, 4)), _scan_summary,
             _scan_invariants),
        Item("floor_03b_n8", _floor_03b,
             lambda raw: plain(_estimate_summary(raw[1])), _floor_invariants,
             seeded=False),
        # both labelings of the criterion-13 instance, 5 qubits
        Item("distinguishing_n5", distinguishing,
             lambda raw: [_verdict_summary(r) for r in raw],
             lambda raw: [p for r in raw for p in check_dq(r)]),
        _verdict_item("parity_2x2", lambda: fixtures.parity_codewords(2, 2).fixture,
                      EC(max_len=2, use_variational=False), seeded=False),
    ]


# ---------------------------------------------------------------------------
# spectrum-codes: Hamiltonians, codes, dynamics, serialization, CLI
# ---------------------------------------------------------------------------

def run_cli(argv: list[str]) -> str:
    """`branchkit <argv>` in-process; returns its stdout, raises on failure."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"branchkit {' '.join(argv[:3])} exited {code}")
    return buf.getvalue()


def _weight2_paulis(n: int) -> list[str]:
    out = ["I" * n]
    for q in range(n):
        for p in "XYZ":
            out.append("I" * q + p + "I" * (n - q - 1))
    for q0 in range(n):
        for q1 in range(q0 + 1, n):
            for p0 in "XYZ":
                for p1 in "XYZ":
                    s = ["I"] * n
                    s[q0], s[q1] = p0, p1
                    out.append("".join(s))
    return out


def _eth_summary(text):
    return [{"n": r["n_qubits"], "window": r["window"],
             **{k: r["observables"][0][k] for k in
                ("max_diag_gap", "median_diag_gap", "max_offdiag")}}
            for r in json.loads(text)["sweep"]]


def _qec_summary(text):
    doc = json.loads(text)
    res = doc["residuals"]
    return {"max_eps": res["max_eps"], "correctable_to": res["correctable_to"],
            "level_pass": res["level_pass"], "errors": len(res["error_costs"]),
            "floor": doc["floor"], "stdout_bytes": len(text)}


def _qec_invariants(text):
    doc = json.loads(text)
    n_err = len(doc["residuals"]["error_costs"])
    return [] if n_err == 352 else [f"{n_err} errors, want 352"]


def _freeze_invariants(text):
    doc = json.loads(text)
    if doc["ok"] and doc["commutator_norm"] <= 1e-8:
        return []
    return [f"freeze check failed: ok={doc['ok']} "
            f"commutator={doc['commutator_norm']}"]


def _flow_summary(text):
    rows = [[float(x) for x in line.split(",")]
            for line in text.strip().splitlines()[1:]]
    return {"rows": len(rows), "last": rows[-1],
            "max_drift": max(r[3] for r in rows)}


def _flow_invariants(text):
    s = _flow_summary(text)
    out = [] if s["rows"] == 10001 else [f"{s['rows']} flow rows, want 10001"]
    if s["max_drift"] > 1e-6:
        out.append(f"flow invariant drift {s['max_drift']:.2e} > 1e-6")
    return out


def _surface_invariants(text):
    doc = json.loads(text)
    rate = doc["logical_rate"]
    return [] if rate > 0 and math.isfinite(rate) else [f"logical rate {rate}"]


def _trotter(seed):
    def run():
        h = dynamics.mixed_field_ising(12)
        psi = qsim.haar_random_state(12, seed)
        e0 = qsim.expectation(h, psi)
        out = qsim.evolve(psi, h, 0.5, method="trotter", steps=50)
        return e0, qsim.expectation(h, out), float(np.linalg.norm(out.amplitudes))
    return run


def _trotter_invariants(raw):
    e0, e1, norm = raw
    out = [] if abs(norm - 1.0) < 1e-9 else [f"norm {norm}"]
    # second-order splitting at dt = 0.01 keeps the energy to far better than this
    if abs(e1 - e0) > 1e-3:
        out.append(f"energy drift {e1 - e0:.3e}")
    return out


def _exact_xxz(seed):
    def run():
        h = dynamics.xxz_chain(9)
        psi = qsim.haar_random_state(9, seed)
        out = qsim.evolve(psi, h, 1.0)
        return qsim.expectation(h, psi), qsim.expectation(h, out)
    return run


def _exact_invariants(raw):
    e0, e1 = raw
    return [] if abs(e1 - e0) < 1e-9 else [f"energy drift {e1 - e0:.3e}"]


def _spectrum(seed: int) -> list[Item]:
    rng = np.random.default_rng(derive(seed, 0))
    ci0, cd0 = (round(float(x), 3) for x in rng.uniform(0.5, 5.0, size=2))
    short = int(rng.integers(2, 6))
    long_ = short + int(rng.integers(0, 8))
    p = round(float(rng.uniform(0.001, 0.05)), 5)
    freeze_seed = derive(seed, 1) % 1_000_000
    errors = ",".join(_weight2_paulis(9))
    return [
        Item("cli_evolve_eth",
             lambda: run_cli(["evolve", "--mode", "eth", "--sizes", "6,8,10"]),
             _eth_summary, _no_checks, seeded=False),
        Item("cli_evolve_freeze",
             lambda: run_cli(["evolve", "--mode", "freeze", "--n", "8",
                              "--seed", str(freeze_seed)]),
             json.loads, _freeze_invariants),
        # all 352 Pauli errors of weight <= 2 on the 3x3 parity code
        Item("cli_qec_parity_3x3",
             lambda: run_cli(["qec", "--code", "parity", "--m1", "3",
                              "--m2", "3", "--errors", errors]),
             _qec_summary, _qec_invariants, seeded=False),
        Item("cli_flow",
             lambda: run_cli(["flow", "--ci0", str(ci0), "--cd0", str(cd0)]),
             _flow_summary, _flow_invariants),
        Item("cli_surface",
             lambda: run_cli(["surface", "-L", str(long_), "-l", str(short),
                              "--p", str(p), "--c-const", "0.5"]),
             json.loads, _surface_invariants),
        Item("trotter_ising_n12", _trotter(derive(seed, 2)),
             list, _trotter_invariants),
        Item("exact_evolve_xxz_n9", _exact_xxz(derive(seed, 3)),
             list, _exact_invariants),
    ]


BUILDERS = {"props-n3": _props, "verdicts-n4to8": _verdicts,
            "spectrum-codes": _spectrum}


def build(workload: str, seed: int, only: list[str] | None = None) -> list[Item]:
    """The workload's item list for a seed, optionally cut to named items."""
    items = BUILDERS[workload](seed)
    if only:
        unknown = set(only) - {it.name for it in items}
        if unknown:
            raise ValueError(f"unknown items for {workload}: {sorted(unknown)}")
        items = [it for it in items if it.name in only]
    return items
