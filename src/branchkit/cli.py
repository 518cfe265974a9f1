"""Command-line front end.

Subcommands: example, estimate, verdict, qec, surface, flow, evolve, props,
gap; each takes --output. estimate, verdict and evolve --mode track also
take --budget, --node-budget and --strict; props and gap take --budget only.
READS lists the options each command line reads: any other is a usage error.
Everything stochastic takes an explicit --seed, at least 0; identical command
lines produce byte-identical output. Exit codes: 0 success, 2 validation
failure (structured JSON on stderr), 3 budget truncation under --strict
(estimate, verdict, evolve --mode track), 64 usage.
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
    eth_diagnostic,
    integrate_flow,
    magnetization_sector_state,
    mixed_field_ising,
    phase_rotation_circuit,
    symmetry_freeze_check,
    track_complexity_under_evolution,
    xxz_chain,
)
from .properties import run_property_suite
from .qsim import QuantumState, _require_pauli, haar_random_state
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


def _add_fixture_args(p: argparse.ArgumentParser, required: bool = True):
    """--example, a worked example of READS, and the options they read."""
    p.add_argument("--example", required=required,
                   choices=tuple(s for c, s in READS if c == "example"))
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


# What each command line reads, keyed by (command, selection); see _unread.
# A worked example, the selection of `example`, maps to the fixture options
# it reads and to its constructor, called with them by build_fixture; every
# command that builds it reads the same. An evolve --mode, qec --code or
# estimate input maps to the options it reads; (command, None) applies to all.
READS = {
    ("example", "ghz"): (("n", "alpha", "beta"), fx.ghz),
    ("example", "product-random"): (("n", "alpha", "beta", "seed"),
                                    fx.product_plus_random),
    ("example", "two-random"): (("n", "d1", "d2", "seed"),
                                fx.two_random_circuits),
    ("example", "parity"): (("m1", "m2"), lambda m1, m2:
                            fx.parity_codewords(m1, m2).fixture),
    ("example", "distinguishing"): (
        ("n", "depth", "seed", "basis"),
        lambda n, depth, seed, basis: fx.distinguishing_qubit_state(
            *fx.deep_random_registers(n - 1, depth, seed), basis)),
    ("example", "tensor-separable"): (("n", "seed"), lambda n, seed:
                                      fx.tensor_branches(
        "separable", (QuantumState.basis(1, 0), QuantumState.basis(1, 1)),
        haar_random_state(n - 1, seed))),
    ("example", "tensor-entangled"): (("n", "seed"), lambda n, seed:
                                      fx.tensor_branches(
        "entangled", (QuantumState.basis(1, 0), QuantumState.basis(1, 1)),
        (haar_random_state(n - 1, seed), haar_random_state(n - 1, seed + 1)))),
    ("estimate", None): (("seed",), None),  # --seed seeds the search
    ("estimate", "file"): (("a_file", "b_file"), None),
    ("verdict", None): (("seed",), None),
    ("evolve", "track"): (("example", "seed", "t_grid", "hamiltonian",
                           "budget", "node_budget", "strict"), None),
    ("evolve", "freeze"): (("n", "seed", "t_grid"), None),
    ("evolve", "eth"): (("sizes", "window"), None),
    ("qec", "repetition"): (("m1", "errors"), None),
    ("qec", "parity"): (("m1", "m2", "errors"), None),
    ("qec", "file"): ((), None),
}


def build_fixture(args) -> fx.ExampleFixture:
    """The worked example --example; a seeded one needs --seed and keeps it."""
    reads, build = READS["example", args.example]
    if "seed" in reads and args.seed is None:
        raise ValueError(f"--seed is required for the stochastic example "
                         f"{args.example!r}")
    fixture = build(**{dest: getattr(args, dest) for dest in reads})
    return replace(fixture, seed=args.seed) if "seed" in reads else fixture


def _emit(args, text: str, truncated: bool = False) -> int:
    """Write `text` to --output or stdout; the exit code is TRUNCATION_EXIT
    for a truncated result under --strict, else 0."""
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return TRUNCATION_EXIT if truncated and args.strict else 0


def _read_json(path: str, parse):
    """parse(doc) of the JSON document doc in the file at `path`; a file
    that is not JSON, or whose document parse refuses, is refused naming
    the file."""
    with open(path) as fh:
        try:
            return parse(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def cmd_example(args) -> int:
    return _emit(args, ser.dumps(ser.to_json(build_fixture(args))))


def _config(args, **methods) -> EstimatorConfig:
    """The estimator settings of the enumeration options and --seed."""
    return EstimatorConfig(max_len=args.budget, node_budget=args.node_budget,
                           seed=args.seed or 0, **methods)


def cmd_estimate(args) -> int:
    kind = KIND_BY_NAME[args.kind]
    if args.example is not None:
        fixture = build_fixture(args)
        a, b = fixture.pair()
        candidates = fixture.known_witnesses
    elif args.a_file and args.b_file:
        a = _read_json(args.a_file, ser.state_from_json)
        b = _read_json(args.b_file, ser.state_from_json)
        candidates = None
    else:
        raise ValueError("estimate takes either --example or both --a-file "
                         "and --b-file")
    config = _config(args,
                     enumerate_lower=args.method in ("enumeration", "auto"),
                     use_variational=args.method in ("variational", "auto"))
    est, = estimate_pair(a, b, ((kind, args.delta),), config, candidates)
    return _emit(args, ser.dumps(ser.to_json(est)), est.truncated)


def cmd_verdict(args) -> int:
    fixture = build_fixture(args)
    verdict = assess_branches(
        fixture.decomposition, epsilon=args.epsilon,
        config=_config(args),
        good_threshold=args.threshold,
        robustness_lambda=args.robustness_lambda,
        noise_rate=args.noise_rate,
        candidates=fixture.known_witnesses,
    )
    return _emit(args, ser.dumps(ser.verdict_to_json(verdict)), any(
        p.ci.truncated or p.cd.truncated for p in verdict.pairwise))


def _comma_list(dest: str, text: str, read) -> list:
    """Option `dest`'s comma-separated entries, each read by `read`; an empty
    entry, or one that `read` refuses, is refused naming option and entry."""
    out = []
    for entry in text.split(","):
        try:
            out.append(read(entry))  # float and int refuse '' as well
        except ValueError as exc:
            raise ValueError(f"cannot read {dest} entry {entry!r} of --"
                             f"{dest.replace('_', '-')}: {exc}") from None
    return out


def _expand_error(token: str, n: int) -> list[str]:
    """The Pauli strings of one --errors entry: identity, one Pauli string,
    or single-x, -y, -z or -pauli (X, Y and Z), each Pauli on each qubit."""
    token = token.strip()
    if token in ("single-x", "single-y", "single-z", "single-pauli"):
        kinds = "XYZ" if token == "single-pauli" else token[-1].upper()
        return ["I" * q + ch + "I" * (n - q - 1)
                for ch in kinds for q in range(n)]
    pauli = "I" * n if token == "identity" else token.upper()
    _require_pauli(n, pauli)
    return [pauli]


def cmd_qec(args) -> int:
    if args.code is None:
        spec = _read_json(args.code_file, ser.code_spec_from_json)
    else:
        if args.code == "repetition":
            n = args.m1
            if not 1 <= n <= 12:
                raise ValueError(f"the repetition code's m1 must lie in 1..12, "
                                 f"got {n}")
            words = (QuantumState.basis(n, 0), QuantumState.basis(n, 2**n - 1))
        else:
            pc = fx.parity_codewords(args.m1, args.m2)
            words = (pc.state0, pc.state1)
            n = args.m1 * args.m2
        groups = _comma_list("errors", args.errors,
                             lambda tok: _expand_error(tok, n))
        spec = CodeSpec(words, tuple(e for group in groups for e in group))
    report = beny_oreshkov_residuals(spec)
    return _emit(args, ser.dumps(ser.document(
        code=args.code or "file",
        n_qubits=spec.n_qubits,
        residuals=ser.residual_report_to_json(report),
        floor=code_complexity_floor(report))))


def cmd_surface(args) -> int:
    model = SurfaceCodeModel(args.long_cycle, args.short_cycle, args.p)
    report = surface_logical_rate(model, args.c_const)
    oracle = exact_binomial_tail_rate(model)
    return _emit(args, ser.dumps(ser.document(
        **ser.to_json(report), binomial_tail_oracle=oracle,
        formula_over_oracle=report.logical_rate / oracle)))


def cmd_flow(args) -> int:
    params = FlowParams(k=args.k, rate=args.rate, dt=args.dt,
                        t_end=args.t_end, rate_function=args.rate_function)
    traj = integrate_flow(args.ci0, args.cd0, params)
    return _emit(args, ser.trajectory_to_csv(traj))


def cmd_evolve(args) -> int:
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
        traj = track_complexity_under_evolution(
            a, b, h, witnesses[0],
            _comma_list("t_grid", args.t_grid, float), _config(args))
        return _emit(args, ser.trajectory_to_csv(traj),
                     any(s.truncated for s in traj.samples))
    if args.mode == "freeze":
        n = args.n
        if n < 2:  # the pair has one and two flipped spins
            raise ValueError(f"evolve --mode freeze needs --n of at least 2, got {n}")
        h = xxz_chain(n)
        seed = args.seed if args.seed is not None else 0
        a = magnetization_sector_state(n, 1, seed)
        b = magnetization_sector_state(n, 2, seed + 1)
        rep = symmetry_freeze_check(a, b, h, phase_rotation_circuit(n),
                                    _comma_list("t_grid", args.t_grid, float))
        return _emit(args, ser.dumps(ser.to_json(rep)))
    # --mode eth: every size is built, and so checked, before any is
    # diagonalized; the observable is Z on the middle qubit
    sizes = _comma_list("sizes", args.sizes, int)
    chains = [mixed_field_ising(n) for n in sizes]
    return _emit(args, ser.dumps(ser.document(sweep=[
        eth_diagnostic(h, ["I" * (n // 2) + "Z" + "I" * ((n - 1) // 2)],
                       args.window)
        for n, h in zip(sizes, chains)])))


def cmd_props(args) -> int:
    report = run_property_suite(args.n, args.instances, args.seed,
                                max_len=args.budget,
                                triples=args.triples, epsilon=args.epsilon)
    counts = report.violation_counts()
    return _emit(args, ser.dumps(ser.document(
        n=args.n, instances=args.instances, seed=args.seed,
        max_len=args.budget, violations=counts,
        total_violations=sum(counts.values()),
        properties=report.pair_report.properties)))


def cmd_gap(args) -> int:
    fixture = build_fixture(args)
    report = rho_vs_diag_gap(fixture.decomposition, args.budget, args.phases)
    return _emit(args, ser.dumps(ser.to_json(report, example=args.example)))


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
    code = p.add_mutually_exclusive_group(required=True)
    code.add_argument("--code", choices=("repetition", "parity"))
    code.add_argument("--code-file", help="JSON file with {codewords, errors}")
    p.add_argument("--m1", type=int, default=3)
    p.add_argument("--m2", type=int, default=1)
    p.add_argument("--errors", default="identity,single-x",
                   help="comma-separated errors")
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
    p.add_argument("--mode", required=True,
                   choices=tuple(s for c, s in READS if c == "evolve"))
    p.add_argument("--t-grid", default="0,1,2")
    p.add_argument("--hamiltonian", choices=("ising", "xxz"), default="ising",
                   help="evolving Hamiltonian")
    p.add_argument("--sizes", default="6,8")
    p.add_argument("--window", type=float, default=1 / 3)
    _add_fixture_args(p, required=False)
    _add_budget(p)
    p.set_defaults(func=cmd_evolve)

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
        # every option is unset unless given, so that main can refuse the
        # ones the command line does not read; it fills in these defaults
        defaults = {a.dest: a.default for a in p._actions
                    if a.option_strings and a.dest != "help"}
        p.set_defaults(defaults=defaults, **dict.fromkeys(defaults))
    return parser


def _unread(args) -> set[str]:
    """The options that READS lists for this command or an example but not
    under (command, None), (command, selection) or its --example: the --mode,
    --code or --example given, else "file" for an input file. Without one
    (estimate without input) nothing is unread."""
    given = [getattr(args, dest, None) for dest in ("mode", "code", "example")]
    files = any(v for d, v in vars(args).items() if d.endswith("file"))
    selection = next((g for g in given if g), "file" if files else None)
    if selection is None:
        return set()
    picked = {(args.command, None), (args.command, selection),
              ("example", given[2])}
    listed = {dest for (c, _), (reads, _) in READS.items()
              if c in (args.command, "example") for dest in reads
              if dest in args.defaults}
    return listed.difference(*(READS[key][0] for key in picked & READS.keys()))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    unread = _unread(args)
    stray = [dest for dest in args.defaults
             if dest in unread and getattr(args, dest) is not None]
    if stray:
        given = ", ".join("--" + dest.replace("_", "-") for dest in stray)
        _usage_error(f"{given}: not read by this {args.command} command line")
    for dest, default in args.defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    try:
        if (getattr(args, "seed", None) or 0) < 0:
            raise ValueError(f"--seed must be at least 0, got {args.seed}")
        return args.func(args)
    except (ValueError, AssertionError, OSError) as exc:
        sys.stderr.write(ser.dumps(ser.document(
            error=str(exc), type=type(exc).__name__)))
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
