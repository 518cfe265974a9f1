"""Command-line front end.

Subcommands: example, estimate, verdict, qec, surface, flow, evolve, props,
gap; each takes --output. estimate, verdict and evolve --mode track also
take --budget, --node-budget and --strict; props and gap take --budget only.
evolve accepts only the options its --mode reads (EVOLVE_READS).
Everything stochastic takes an explicit --seed; identical command lines
produce byte-identical output. Exit codes: 0 success, 2 validation failure
(structured JSON on stderr), 3 budget truncation under --strict (estimate,
verdict, evolve --mode track), 64 usage.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from . import fixtures as fx
from .branches import (
    EstimatorConfig,
    assess_branches,
    estimate_pair,
    rho_vs_diag_gap,
)
from .codes import (
    CodeSpec,
    SurfaceCodeModel,
    beny_oreshkov_residuals,
    code_complexity_floor,
    exact_binomial_tail_rate,
    surface_logical_rate,
)
from .complexity import ComplexityKind
from .dynamics import (
    FlowParams,
    eth_size_sweep,
    integrate_flow,
    magnetization_sector_state,
    mixed_field_ising,
    phase_rotation_circuit,
    symmetry_freeze_check,
    track_complexity_under_evolution,
    xxz_chain,
)
from .properties import run_property_suite
from .qsim import QuantumState, haar_random_state
from . import serialize as ser

USAGE_EXIT = 64
VALIDATION_EXIT = 2
TRUNCATION_EXIT = 3
DEFAULT_BUDGET = 2

KIND_BY_NAME = {k.value: k for k in ComplexityKind}


def _usage_error(message: str):
    sys.stderr.write(f"error: {message}\n")
    sys.exit(USAGE_EXIT)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        _usage_error(message)


def _add_budget(p: argparse.ArgumentParser, truncating: bool = True):
    """--budget, plus --node-budget and --strict for commands whose
    enumeration can be truncated."""
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max enumeration sequence length")
    if truncating:
        p.add_argument("--node-budget", type=int, default=None,
                       help="cap on enumeration nodes; exceeding it flags "
                            "the result as truncated")
        p.add_argument("--strict", action="store_true",
                       help="exit 3 when any result is budget-truncated")


FIXTURE_OPTIONS = ("example", "n", "seed", "alpha", "beta", "d1", "d2", "m1",
                   "m2", "depth", "basis")


def _add_fixture_args(p: argparse.ArgumentParser, required: bool = True):
    """The FIXTURE_OPTIONS that build_fixture reads."""
    p.add_argument("--example", required=required,
                   choices=("ghz", "product-random", "two-random", "parity",
                            "distinguishing", "tensor-separable",
                            "tensor-entangled"))
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--alpha", type=float, default=1 / math.sqrt(2))
    p.add_argument("--beta", type=float, default=1 / math.sqrt(2))
    p.add_argument("--d1", type=int, default=2)
    p.add_argument("--d2", type=int, default=4)
    p.add_argument("--m1", type=int, default=2)
    p.add_argument("--m2", type=int, default=2)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--basis", choices=("computational", "conjugate"),
                   default="computational")


def _need_seed(args, name):
    if args.seed is None:
        raise ValueError(f"--seed is required for the stochastic example {name!r}")
    return args.seed


def build_fixture(args) -> fx.ExampleFixture:
    name = args.example
    if name == "ghz":
        return fx.ghz(args.n, args.alpha, args.beta)
    if name == "product-random":
        return fx.product_plus_random(args.n, args.alpha, args.beta,
                                      _need_seed(args, name))
    if name == "two-random":
        return fx.two_random_circuits(args.n, args.d1, args.d2,
                                      _need_seed(args, name))
    if name == "parity":
        return fx.parity_codewords(args.m1, args.m2).fixture
    if name not in ("distinguishing", "tensor-separable", "tensor-entangled"):
        raise ValueError(f"unknown example {name!r}")
    # these constructors take states drawn here, so the seed is recorded here
    seed = _need_seed(args, name)
    left = (QuantumState.basis(1, 0), QuantumState.basis(1, 1))
    if name == "distinguishing":
        e0, e1 = fx.deep_random_registers(args.n - 1, args.depth, seed)
        fixture = fx.distinguishing_qubit_state(e0, e1, args.basis)
    elif name == "tensor-separable":
        fixture = fx.tensor_branches(
            "separable", left, haar_random_state(args.n - 1, seed))
    else:
        fixture = fx.tensor_branches("entangled", left, (
            haar_random_state(args.n - 1, seed),
            haar_random_state(args.n - 1, seed + 1)))
    return replace(fixture, seed=seed)


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_example(args) -> int:
    fixture = build_fixture(args)
    _emit(args, ser.dumps(ser.to_json(fixture)))
    return 0


def cmd_estimate(args) -> int:
    kind = KIND_BY_NAME[args.kind]
    files = (args.a_file, args.b_file)
    if any(files) if args.example else not all(files):
        raise ValueError("estimate takes either --example or both --a-file "
                         "and --b-file")
    if args.example is None:
        with open(args.a_file) as fh:
            a = ser.state_from_json(json.load(fh))
        with open(args.b_file) as fh:
            b = ser.state_from_json(json.load(fh))
        candidates = None
    else:
        fixture = build_fixture(args)
        a, b = fixture.pair()
        candidates = fixture.known_witnesses.get(kind)
    config = EstimatorConfig(
        max_len=args.budget,
        node_budget=args.node_budget,
        enumerate_lower=args.method in ("enumeration", "auto"),
        use_variational=args.method in ("variational", "auto"),
        seed=args.seed or 0,
    )
    est = estimate_pair(kind, a, b, args.delta, config, candidates)
    _emit(args, ser.dumps(ser.to_json(est)))
    return TRUNCATION_EXIT if args.strict and est.truncated else 0


def cmd_verdict(args) -> int:
    fixture = build_fixture(args)
    verdict = assess_branches(
        fixture.decomposition, epsilon=args.epsilon,
        config=EstimatorConfig(max_len=args.budget, seed=args.seed or 0,
                               node_budget=args.node_budget),
        good_threshold=args.threshold,
        robustness_lambda=args.robustness_lambda,
        noise_rate=args.noise_rate,
        candidates=fixture.known_witnesses,
    )
    _emit(args, ser.dumps(ser.verdict_to_json(verdict)))
    truncated = any(p.ci.truncated or p.cd.truncated for p in verdict.pairwise)
    return TRUNCATION_EXIT if args.strict and truncated else 0


def _expand_errors(tokens: list[str], n: int) -> tuple[str, ...]:
    out: list[str] = []
    for tok in tokens:
        tok = tok.strip()
        if tok == "identity":
            out.append("I" * n)
        elif tok.startswith("single-"):
            kinds = "XYZ" if tok == "single-pauli" else tok[-1].upper()
            for ch in kinds:
                for q in range(n):
                    out.append("I" * q + ch + "I" * (n - q - 1))
        else:
            out.append(tok.upper())
    return tuple(out)


def cmd_qec(args) -> int:
    if args.code_file:
        with open(args.code_file) as fh:
            spec = ser.code_spec_from_json(json.load(fh))
    else:
        if args.code == "repetition":
            n = args.m1
            if not 1 <= n <= 12:
                raise ValueError(f"the repetition code's m1 must lie in 1..12, "
                                 f"got {n}")
            words = (QuantumState.basis(n, 0), QuantumState.basis(n, 2**n - 1))
        elif args.code == "parity":
            pc = fx.parity_codewords(args.m1, args.m2)
            words = (pc.state0, pc.state1)
            n = args.m1 * args.m2
        else:
            raise ValueError("qec needs --code or --code-file")
        spec = CodeSpec(words, _expand_errors(args.errors.split(","), n))
    report = beny_oreshkov_residuals(spec)
    _emit(args, ser.dumps(ser.document(
        code="file" if args.code_file else args.code,
        n_qubits=spec.n_qubits,
        residuals=ser.residual_report_to_json(report),
        floor=code_complexity_floor(report))))
    return 0


def cmd_surface(args) -> int:
    model = SurfaceCodeModel(args.long_cycle, args.short_cycle, args.p)
    report = surface_logical_rate(model, args.c_const)
    oracle = exact_binomial_tail_rate(model)
    _emit(args, ser.dumps(ser.document(
        **ser.to_json(report), binomial_tail_oracle=oracle,
        formula_over_oracle=report.logical_rate / oracle)))
    return 0


def cmd_flow(args) -> int:
    params = FlowParams(k=args.k, rate=args.rate, dt=args.dt,
                        t_end=args.t_end, rate_function=args.rate_function)
    traj = integrate_flow(args.ci0, args.cd0, params)
    _emit(args, ser.trajectory_to_csv(traj))
    return 0


def _parse_grid(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


# The options each evolve mode reads; giving any other one exits 64.
EVOLVE_READS = {
    "track": ("t_grid", "hamiltonian", "budget", "node_budget", "strict",
              *FIXTURE_OPTIONS),
    "freeze": ("t_grid", "n", "seed"),
    "eth": ("sizes", "window"),
}


def cmd_evolve(args) -> int:
    reads = EVOLVE_READS[args.mode]
    stray = [dest for dest in args.evolve_defaults
             if dest not in reads and getattr(args, dest) is not None]
    if stray:
        given = ", ".join("--" + dest.replace("_", "-") for dest in stray)
        _usage_error(f"{given}: --mode {args.mode} does not read these")
    for dest in reads:
        if getattr(args, dest) is None:
            setattr(args, dest, args.evolve_defaults[dest])
    if args.mode == "track":
        if args.example is None:
            raise ValueError("evolve --mode track needs --example")
        fixture = build_fixture(args)
        n = fixture.decomposition.parent.n_qubits
        h = xxz_chain(n) if args.hamiltonian == "xxz" else mixed_field_ising(n)
        a, b = fixture.pair()
        witnesses = fixture.known_witnesses.get(ComplexityKind.INTERFERENCE)
        if not witnesses:
            raise ValueError("this example carries no interference witness to track")
        config = EstimatorConfig(max_len=args.budget, seed=args.seed or 0,
                                 node_budget=args.node_budget)
        traj = track_complexity_under_evolution(
            a, b, h, witnesses[0], _parse_grid(args.t_grid), config)
        _emit(args, ser.trajectory_to_csv(traj))
        truncated = any(s.truncated for s in traj.samples)
        return TRUNCATION_EXIT if args.strict and truncated else 0
    if args.mode == "freeze":
        n = args.n
        h = xxz_chain(n)
        seed = args.seed if args.seed is not None else 0
        a = magnetization_sector_state(n, 1, seed)
        b = magnetization_sector_state(n, 2, seed + 1)
        rep = symmetry_freeze_check(a, b, h, phase_rotation_circuit(n),
                                    _parse_grid(args.t_grid))
        _emit(args, ser.dumps(ser.to_json(rep)))
        return 0
    if args.mode == "eth":
        sweep = eth_size_sweep(
            [mixed_field_ising(int(x)) for x in args.sizes.split(",")],
            lambda n: ["I" * (n // 2) + "Z" + "I" * (n - n // 2 - 1)],
            args.window)
        _emit(args, ser.dumps(ser.document(sweep=sweep.reports)))
        return 0
    raise ValueError(f"unknown mode {args.mode!r}")


def cmd_props(args) -> int:
    report = run_property_suite(args.n, args.instances, args.seed,
                                max_len=args.budget,
                                triples=args.triples, epsilon=args.epsilon)
    counts = report.violation_counts()
    _emit(args, ser.dumps(ser.document(
        n=args.n, instances=args.instances, seed=args.seed,
        max_len=args.budget, violations=counts,
        total_violations=sum(counts.values()),
        properties=report.pair_report.properties)))
    return 0


def cmd_gap(args) -> int:
    fixture = build_fixture(args)
    report = rho_vs_diag_gap(fixture.decomposition, args.budget, args.phases)
    _emit(args, ser.dumps(ser.to_json(report, example=args.example)))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="branchkit",
                     description="complexity-based branch analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="build a fixture")
    _add_fixture_args(p)
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("estimate", help="run a complexity query")
    p.add_argument("--kind", choices=tuple(KIND_BY_NAME), required=True)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--method", choices=("enumeration", "variational", "auto"),
                   default="auto")
    p.add_argument("--a-file")
    p.add_argument("--b-file")
    _add_fixture_args(p, required=False)
    _add_budget(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("verdict", help="assess a branch decomposition")
    _add_fixture_args(p)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--threshold", type=int, default=2)
    lam = p.add_mutually_exclusive_group()
    lam.add_argument("--lambda", dest="robustness_lambda", type=float,
                     default=None)
    lam.add_argument("--noise-rate", type=float, default=None)
    _add_budget(p)
    p.set_defaults(func=cmd_verdict)

    p = sub.add_parser("qec", help="residuals, floor, and classification")
    p.add_argument("--code", choices=("repetition", "parity"))
    p.add_argument("--code-file", help="JSON file with {codewords, errors}")
    p.add_argument("--m1", type=int, default=3)
    p.add_argument("--m2", type=int, default=1)
    p.add_argument("--errors", default="identity,single-x")
    p.set_defaults(func=cmd_qec)

    p = sub.add_parser("surface", help="rectangular-code logical rate model")
    p.add_argument("--long-cycle", "-L", type=int, required=True)
    p.add_argument("--short-cycle", "-l", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--c-const", type=float, default=None)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("flow", help="integrate the growth flow model")
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--ci0", type=float, required=True)
    p.add_argument("--cd0", type=float, required=True)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--rate-function", default="saturating")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("evolve", help="track, freeze, or eigenstate sweeps")
    p.add_argument("--mode", choices=tuple(EVOLVE_READS), required=True)
    p.add_argument("--t-grid", default="0,1,2")
    p.add_argument("--hamiltonian", choices=("ising", "xxz"), default="ising",
                   help="evolving Hamiltonian")
    p.add_argument("--sizes", default="6,8")
    p.add_argument("--window", type=float, default=1 / 3)
    _add_fixture_args(p, required=False)
    _add_budget(p)
    # every option is unset unless given, so that cmd_evolve can reject the
    # ones the chosen mode does not read; it fills in these defaults
    defaults = {a.dest: a.default for a in p._actions
                if a.option_strings and a.dest not in ("help", "mode")}
    p.set_defaults(func=cmd_evolve, evolve_defaults=defaults,
                   **dict.fromkeys(defaults))

    p = sub.add_parser("props", help="run the inequality property suite")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--triples", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=0.1)
    _add_budget(p, truncating=False)
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("gap", help="pure-vs-dephased outcome probability gap")
    _add_fixture_args(p)
    p.add_argument("--phases", type=int, default=8)
    _add_budget(p, truncating=False)
    p.set_defaults(func=cmd_gap)

    for p in sub.choices.values():
        p.add_argument("--output", default=None,
                       help="output path (default stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, AssertionError, OSError) as exc:
        sys.stderr.write(ser.dumps(ser.document(
            error=str(exc), type=type(exc).__name__)))
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
