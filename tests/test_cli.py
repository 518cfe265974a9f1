"""CLI contract: schemas, reproducibility, exit codes, serialization."""
import argparse
import inspect
import json
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from branchkit import cli, properties
from branchkit import serialize as ser
from branchkit import fixtures as fx
from branchkit.cli import build_parser, main
from branchkit.codes import CodeSpec
from branchkit.complexity import ComplexityKind, ComplexityQuery, brute_force_estimate
from branchkit.qsim import QuantumState, haar_random_state


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _subparsers() -> dict:
    """Each subcommand's parser, by name."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


EXAMPLE_NAMES = next(a for a in _subparsers()["example"]._actions
                     if a.dest == "example").choices


class TestSerialization:
    def test_state_roundtrip(self):
        s = haar_random_state(3, 44)
        doc = ser.to_json(s)
        back = ser.state_from_json(doc)
        assert np.allclose(back.amplitudes, s.amplitudes)

    def test_estimate_schema_fields(self):
        est = brute_force_estimate(ComplexityQuery(
            ComplexityKind.INTERFERENCE, QuantumState.basis(2, 0),
            QuantumState.basis(2, 3), 0.9, max_size=2))
        doc = ser.to_json(est)
        for key in ("kind", "delta", "lower_bound", "lower_bound_scope",
                    "upper_bound", "achieved_value", "witness", "method",
                    "seed", "truncated", "schema_version"):
            assert key in doc
        assert doc["lower_bound_scope"] == "alphabet:default"

    def test_fixture_export_carries_source_tag(self):
        doc = ser.to_json(fx.ghz(3))
        assert doc["source_section"] == "ghz"
        assert doc["expected"]["cd_scaling"] == "1"


class TestCommands:
    def test_verdict_ghz_margin(self, capsys):
        code, out, _ = run_cli(["verdict", "--example", "ghz", "--n", "4",
                                "--seed", "1", "--threshold", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["overall_class"] == "Good"
        assert doc["pairs"][0]["margin"] >= 1
        assert doc["schema_version"] == "1"

    @pytest.mark.parametrize("lam", ["1000", "1e308"])
    def test_verdict_exponent_past_float_range_is_not_robust(self, lam,
                                                             capsys):
        # exp(lambda * cd) overflows a float: no ci exceeds it, so the good
        # pair is graded Good, not Robust
        code, out, _ = run_cli(["verdict", "--example", "ghz", "--n", "4",
                                "--seed", "1", "--threshold", "1",
                                "--lambda", lam], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["overall_class"] == "Good"
        assert [p["class"] for p in doc["pairs"]] == ["Good"]

    def test_verdict_subnormal_noise_rate_gives_finite_lambda(self, capsys):
        # 1 / 1e-320 overflows to inf; lambda is -ln p instead
        code, out, _ = run_cli(["verdict", "--example", "parity", "--m1", "2",
                                "--m2", "1", "--noise-rate", "1e-320"], capsys)
        assert code == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(out, parse_constant=refuse)
        assert doc["lambda"] == 736.8272408909739

    def test_flow_invariant_column(self, capsys):
        code, out, _ = run_cli(["flow", "--k", "1", "--rate", "1",
                                "--ci0", "5", "--cd0", "1",
                                "--t-end", "10"], capsys)
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "t,c_i,c_d,invariant_drift"
        drift = max(float(r.split(",")[3]) for r in rows[1:])
        assert drift <= 1e-6

    def test_props_summary(self, capsys):
        code, out, _ = run_cli(["props", "--n", "2", "--instances", "3",
                                "--seed", "7", "--triples", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert "violations" in doc and "total_violations" in doc

    def test_estimate_from_files(self, capsys, tmp_path):
        for name, state in (("a", QuantumState.basis(2, 0)),
                            ("b", QuantumState.basis(2, 3))):
            (tmp_path / f"{name}.json").write_text(
                ser.dumps(ser.to_json(state)))
        code, out, _ = run_cli(
            ["estimate", "--kind", "interference", "--delta", "0.9",
             "--a-file", str(tmp_path / "a.json"),
             "--b-file", str(tmp_path / "b.json")], capsys)
        assert code == 0
        doc = json.loads(out)
        assert (doc["lower_bound"], doc["upper_bound"]) == (1, 1)

    def test_nan_state_file_fails_validation(self, capsys, tmp_path):
        # a NaN amplitude gets no certificate, whatever the method
        amps = [[float("nan"), 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        (tmp_path / "a.json").write_text(json.dumps(
            {"n_qubits": 2, "amplitudes": amps}))
        (tmp_path / "b.json").write_text(
            ser.dumps(ser.to_json(QuantumState.basis(2, 3))))
        code, out, err = run_cli(
            ["estimate", "--kind", "relative", "--budget", "1",
             "--method", "enumeration",
             "--a-file", str(tmp_path / "a.json"),
             "--b-file", str(tmp_path / "b.json")], capsys)
        assert (code, out) == (2, "")
        assert "nan" in json.loads(err)["error"]

    def test_gap_report(self, capsys):
        code, out, _ = run_cli(["gap", "--example", "ghz", "--n", "3",
                                "--budget", "2", "--phases", "8"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["max_bound_violation"] <= 1e-10

    def test_surface_report(self, capsys):
        code, out, _ = run_cli(["surface", "--long-cycle", "100",
                                "--short-cycle", "3", "--p", "1e-3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["logical_rate"] == pytest.approx(3e-4, abs=1e-12)
        assert 0.95 <= doc["formula_over_oracle"] <= 1.05

    def test_qec_report(self, capsys):
        code, out, _ = run_cli(["qec", "--code", "repetition", "--m1", "3",
                                "--errors", "identity,single-x"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["residuals"]["max_eps"] <= 1e-12
        assert doc["floor"]["floor"] == 2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "fixture.json"
        code, out, _ = run_cli(["example", "--example", "ghz", "--n", "3",
                                "--output", str(target)], capsys)
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert doc["name"] == "ghz"


class TestDeterminismAndExitCodes:
    def test_byte_identical_reruns(self, capsys):
        argv = ["verdict", "--example", "product-random", "--n", "4",
                "--seed", "5", "--threshold", "1"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_validation_failure_exit_2(self, capsys):
        code, _, err = run_cli(["verdict", "--example", "ghz", "--n", "1",
                                "--seed", "1"], capsys)
        assert code == 2
        doc = json.loads(err)
        assert "error" in doc and doc["type"] == "ValueError"

    def test_missing_seed_for_stochastic_example(self, capsys):
        code, _, err = run_cli(["example", "--example", "product-random",
                                "--n", "4"], capsys)
        assert code == 2
        assert "--seed" in json.loads(err)["error"]

    def test_usage_error_exit_64(self):
        proc = subprocess.run(
            [sys.executable, "-m", "branchkit.cli", "definitely-not-a-command"],
            capture_output=True, text=True)
        assert proc.returncode == 64

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "branchkit.cli", "surface",
             "--long-cycle", "10", "--short-cycle", "2", "--p", "0.01"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["short_cycle"] == 2


class TestExtendedCommands:
    def test_witness_only_method_names_searches_that_ran(self, capsys):
        # without enumeration only the candidate search runs, and the ghz
        # candidates already witness the query, so no variational search
        code, out, _ = run_cli(
            ["estimate", "--kind", "interference", "--example", "ghz",
             "--n", "2", "--delta", "0.9", "--method", "variational"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == "constructive"
        assert (doc["lower_bound_scope"], doc["upper_bound"]) == ("none", 1)

    def test_qec_from_code_file(self, capsys, tmp_path):
        spec = CodeSpec((QuantumState.basis(3, 0), QuantumState.basis(3, 7)),
                        ("III", "XII", "IXI", "IIX"))
        path = tmp_path / "code.json"
        path.write_text(ser.dumps(ser.to_json(spec)))
        code, out, _ = run_cli(["qec", "--code-file", str(path)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["residuals"]["max_eps"] <= 1e-12
        assert doc["n_qubits"] == 3

    def test_evolve_track_csv(self, capsys):
        code, out, _ = run_cli(
            ["evolve", "--mode", "track", "--example", "ghz", "--n", "4",
             "--seed", "1", "--t-grid", "0,0.5", "--budget", "2"], capsys)
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == ("t,witness_objective,ci_lower,ci_upper,cd_lower,"
                           "cd_upper,truncated")
        assert len(rows) == 3
        assert float(rows[1].split(",")[1]) == pytest.approx(2.0)

    def test_evolve_freeze_json(self, capsys):
        code, out, _ = run_cli(
            ["evolve", "--mode", "freeze", "--n", "4", "--seed", "3",
             "--t-grid", "0,1,2,5"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["commutator_norm"] <= 1e-8
        assert doc["total_variation"] <= 1e-5

    # a grid with no times checks nothing, so it certifies nothing; a time
    # that is not finite is refused before anything is evolved
    @pytest.mark.parametrize("argv, value", [
        pytest.param("--mode freeze --n 4 --seed 1 --t-grid ,", "",
                     id="freeze-empty"),
        pytest.param("--mode track --example ghz --n 4 --seed 1 --t-grid ,",
                     "", id="track-empty"),
        pytest.param("--mode freeze --n 4 --seed 1 --t-grid nan", "nan",
                     id="freeze-nan"),
        pytest.param("--mode track --example ghz --n 4 --seed 1 --t-grid inf",
                     "inf", id="track-inf"),
    ])
    def test_evolve_refuses_a_grid_without_finite_times(self, argv, value,
                                                        capsys):
        code, out, err = run_cli(["evolve", *argv.split()], capsys)
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert doc["type"] == "ValueError"
        assert "t_grid" in doc["error"] and value in doc["error"]

    # the freeze pair has one and two flipped spins, so it needs two qubits
    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_evolve_freeze_names_the_least_n(self, n, capsys):
        code, out, err = run_cli(
            ["evolve", "--mode", "freeze", "--n", n, "--t-grid", "0"], capsys)
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert doc["type"] == "ValueError"
        assert "--n of at least 2" in doc["error"] and n in doc["error"]

    # a comma list refuses an empty entry and one it cannot read, naming the
    # option and the entry, rather than dropping or misreading it
    @pytest.mark.parametrize("argv, option, entry", [
        ("evolve --mode freeze --n 4 --seed 1 --t-grid 0,abc", "--t-grid",
         "abc"),
        ("evolve --mode freeze --n 4 --seed 1 --t-grid 1,,2", "--t-grid", ""),
        ("evolve --mode eth --sizes 6,,8", "--sizes", ""),
        ("qec --code repetition --m1 3 --errors identity,single-xz",
         "--errors", "single-xz"),
        ("qec --code repetition --m1 3 --errors identity,", "--errors", ""),
        ("qec --code repetition --m1 3 --errors single-q", "--errors",
         "single-q"),
    ])
    def test_comma_lists_refuse_unreadable_entries(self, argv, option, entry,
                                                   capsys):
        code, out, err = run_cli(argv.split(), capsys)
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert doc["type"] == "ValueError"
        assert option in doc["error"] and repr(entry) in doc["error"]

    def test_qec_error_families(self, capsys):
        def errors(spec):
            code, out, _ = run_cli(["qec", "--code", "repetition", "--m1",
                                    "2", "--errors", spec], capsys)
            assert code == 0
            return json.loads(out)["residuals"]["lambda_mn"]

        assert errors("single-pauli") == errors(
            "single-x,single-y,single-z") == errors("xi,ix,yi,iy,zi,iz")

    def test_evolve_eth_json(self, capsys):
        code, out, _ = run_cli(
            ["evolve", "--mode", "eth", "--sizes", "6", "--window", "0.34"],
            capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["sweep"][0]["observables"][0]["median_diag_gap"] > 0


class TestOptionsAreRead:
    # one cheap, valid command line per subcommand
    BASE = {
        "example": "example --example ghz --n 2",
        "estimate": "estimate --kind interference --example ghz --n 2 "
                    "--delta 0.9",
        "verdict": "verdict --example ghz --n 2",
        "qec": "qec --code repetition --m1 3",
        "surface": "surface --long-cycle 10 --short-cycle 2 --p 0.01",
        "flow": "flow --ci0 1 --cd0 1 --t-end 0.01",
        "evolve": "evolve --mode eth --sizes 4",
        "evolve-freeze": "evolve --mode freeze --n 2 --t-grid 0",
        "evolve-track": "evolve --mode track --example ghz --n 2 --t-grid 0",
        "props": "props --n 2 --instances 1 --seed 1 --triples 0",
        "gap": "gap --example ghz --n 2 --budget 1",
    }
    REMOVED = {
        "example": ("--format", "--budget", "--node-budget", "--strict"),
        "qec": ("--format", "--budget", "--node-budget", "--strict"),
        "surface": ("--format", "--budget", "--node-budget", "--strict"),
        "flow": ("--format", "--budget", "--node-budget", "--strict"),
        "estimate": ("--format",),
        "verdict": ("--format",),
        "evolve": ("--format", "--budget", "--node-budget", "--strict",
                   "--hamiltonian", "--t-grid", "--example", "--n", "--seed",
                   "--d1"),
        "evolve-freeze": ("--sizes", "--window", "--example", "--alpha",
                          "--budget"),
        "evolve-track": ("--sizes", "--window"),
        "props": ("--format", "--node-budget", "--strict"),
        "gap": ("--format", "--node-budget", "--strict"),
    }
    VALUES = {"--format": ["csv"], "--budget": ["2"], "--node-budget": ["1"],
              "--strict": [], "--hamiltonian": ["ising"], "--t-grid": ["9,9"],
              "--example": ["ghz"], "--n": ["7"], "--seed": ["3"],
              "--d1": ["5"], "--sizes": ["99"], "--window": ["0.9"],
              "--alpha": ["3"]}

    @pytest.mark.parametrize("command,option", [
        (c, o) for c, opts in REMOVED.items() for o in opts])
    def test_removed_option_is_a_usage_error(self, command, option, capsys):
        base = self.BASE[command].split()
        build_parser().parse_args(base)  # the base line alone is valid
        with pytest.raises(SystemExit) as exc:
            main(base + [option, *self.VALUES[option]])
        assert exc.value.code == 64

    @staticmethod
    def _source_read_by(func) -> str:
        """Source of a cmd_* function and of every cli helper it calls,
        transitively. build_fixture calls each example constructor of
        cli.READS with keyword arguments args.<name>, one per parameter name,
        so those reads are added as `args.<name>` text."""
        helpers = {name: fn for name, fn in vars(cli).items()
                   if inspect.isfunction(fn) and fn.__module__ == cli.__name__}
        seen = {func.__name__}
        todo, text = [func], ""
        while todo:
            src = inspect.getsource(todo.pop())
            text += src
            for name, fn in helpers.items():
                if name not in seen and f"{name}(" in src:
                    seen.add(name)
                    todo.append(fn)
        if "build_fixture" in seen:
            text += "".join(f" args.{name}"
                            for (c, _), (_, build) in cli.READS.items()
                            if c == "example"
                            for name in inspect.signature(build).parameters)
        return text

    # every selection of a command whose command line leaves options unread,
    # each example among them
    SELECTIONS = {
        "example": tuple(f"--example {x}" for x in EXAMPLE_NAMES),
        "gap": tuple(f"--example {x}" for x in EXAMPLE_NAMES),
        "verdict": tuple(f"--example {x}" for x in EXAMPLE_NAMES),
        "evolve": ("--mode freeze", "--mode eth", "--mode track",
                   *(f"--mode track --example {x}" for x in EXAMPLE_NAMES)),
        "qec": ("--code repetition", "--code parity", "--code-file F"),
        "estimate": ("--kind relative --a-file A --b-file B",
                     *(f"--kind relative --example {x}"
                       for x in EXAMPLE_NAMES)),
    }

    @pytest.mark.parametrize("command", SELECTIONS)
    def test_every_option_is_read_under_some_selection(self, command):
        parser = build_parser()
        options = {a.dest for a in _subparsers()[command]._actions
                   if a.option_strings} - {"help"}
        unread = [cli._unread(parser.parse_args([command, *line.split()]))
                  for line in self.SELECTIONS[command]]
        assert all(u <= options for u in unread)
        # an option no selection reads, such as an evolve option that no
        # entry of cli.READS lists, is unread under every one
        assert set.intersection(*unread) == set()

    def test_every_option_is_read(self):
        unread = []
        for command, sp in _subparsers().items():
            text = self._source_read_by(sp.get_default("func"))
            unread += [f"{command} {a.option_strings[0]}" for a in sp._actions
                       if not isinstance(a, argparse._HelpAction)
                       and f"args.{a.dest}" not in text]
        assert unread == []


class TestContradictoryInputs:
    def test_lambda_and_noise_rate_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verdict", "--example", "ghz", "--n", "2",
                  "--lambda", "2", "--noise-rate", "0.5"])
        assert exc.value.code == 64

    # a file given with --example is not read (usage error); one file
    # alone, or no input at all, is not enough (validation failure)
    @pytest.mark.parametrize("inputs, exit_code, named", [
        pytest.param(inputs, code, named, id=inputs) for inputs, code, named in (
            ("--example ghz --n 2 --a-file A", 64, "--a-file"),
            ("--example ghz --n 2 --b-file B", 64, "--b-file"),
            ("--example ghz --n 2 --a-file A --b-file B", 64,
             "--a-file, --b-file"),
            ("--a-file A", 2, "--a-file"),
            ("--n 7", 2, "--example"))])
    def test_estimate_mixed_inputs_rejected(self, inputs, exit_code, named,
                                            capsys, tmp_path):
        paths = _write_pair(tmp_path)
        argv = ["estimate", "--kind", "interference", "--delta", "0.9",
                *[str(paths.get(tok, tok)) for tok in inputs.split()]]
        code, out, err = _exit_of(argv, capsys)
        assert (code, out) == (exit_code, "")
        assert named in err

    # options the selected code, input or example would not read
    @pytest.mark.parametrize("options, named", [
        ("example --example ghz --n 3 --d1 9 --m1 4 --depth 7",
         "--d1, --m1, --depth"),
        ("example --example parity --m1 2 --m2 1 --n 4", "--n"),
        ("gap --example ghz --n 3 --seed 2", "--seed"),
        ("qec --code-file F --m1 5", "--m1"),
        ("qec --code-file F --m2 7", "--m2"),
        ("qec --code repetition --m1 3 --m2 4", "--m2"),
        ("estimate --kind relative --a-file A --b-file B --n 7", "--n"),
        ("estimate --kind relative --a-file A --b-file B --alpha 3",
         "--alpha"),
        ("estimate --kind relative --a-file A --b-file B --d1 9", "--d1"),
    ])
    def test_unread_option_is_a_usage_error(self, options, named, capsys,
                                            tmp_path):
        paths = _write_pair(tmp_path)
        paths["F"] = tmp_path / "code.json"
        paths["F"].write_text(ser.dumps(ser.to_json(CodeSpec(
            (QuantumState.basis(3, 0), QuantumState.basis(3, 7)), ("XII",)))))
        code, out, err = _exit_of([str(paths.get(tok, tok))
                                   for tok in options.split()], capsys)
        assert (code, out) == (64, "")
        assert err.startswith(f"error: {named}:")


def _write_pair(tmp_path) -> dict:
    """Paths A and B of two written 2-qubit state files."""
    paths = {}
    for name, state in (("A", QuantumState.basis(2, 0)),
                        ("B", QuantumState.basis(2, 3))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(ser.dumps(ser.to_json(state)))
    return paths


def _exit_of(argv, capsys):
    """(exit code, stdout, the error message) of a command line, whether it
    exits (usage error) or returns (its message is the JSON error field)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        return exc.code, *capsys.readouterr()
    out, err = capsys.readouterr()
    return code, out, json.loads(err)["error"] if code else err


@pytest.mark.parametrize("argv, shows_the_cut", [
    ("estimate --kind interference --example ghz --n 3 --delta 0.9 "
     "--budget 3 --method enumeration",
     lambda out: json.loads(out)["truncated"] is True),
    ("verdict --example ghz --n 4 --seed 1 --threshold 1", None),
    # every enumeration is cut, so no interference lower bound survives
    ("evolve --mode track --example ghz --n 4 --seed 1 --t-grid 0,1 "
     "--budget 2",
     lambda out: [r.split(",")[2] for r in out.splitlines()[1:]] == ["0", "0"]),
], ids=["estimate", "verdict", "evolve-track"])
def test_strict_exits_3_exactly_when_the_run_is_cut(argv, shows_the_cut,
                                                    capsys):
    cut = argv.split() + ["--node-budget", "5"]
    code, out, _ = run_cli(cut, capsys)
    assert code == 0
    assert shows_the_cut is None or shows_the_cut(out)
    # --strict changes the exit code of a cut run, not its bytes
    assert run_cli(cut + ["--strict"], capsys)[:2] == (3, out)
    assert run_cli(argv.split() + ["--strict"], capsys)[0] == 0


def test_evolve_eth_refuses_a_bad_size_before_diagonalizing(capsys):
    # 13 is too wide to diagonalize, but every chain is built first, so the
    # refusal names the size that no Hamiltonian takes
    code, out, err = _exit_of(["evolve", "--mode", "eth", "--sizes", "13,20"],
                              capsys)
    assert (code, out) == (2, "")
    assert "got 20" in err


def test_evolve_track_csv_flags_truncation(capsys):
    argv = ["evolve", "--mode", "track", "--example", "ghz", "--n", "4",
            "--seed", "1", "--t-grid", "0,1", "--budget", "2"]
    _, cut, _ = run_cli(argv + ["--node-budget", "5"], capsys)
    _, full, _ = run_cli(argv, capsys)
    # a cut enumeration's lower bound of 0 is not a certified 0
    assert [r.split(",")[-1] for r in cut.splitlines()[1:]] == ["true", "true"]
    assert [r.split(",")[-1] for r in full.splitlines()[1:]] == ["false", "false"]


@pytest.mark.parametrize("argv", [
    "estimate --kind interference --example ghz --n 2 --budget -1",
    "estimate --kind interference --example ghz --n 2 --budget 70",
    "verdict --example ghz --n 2 --budget -1",
    "props --n 2 --instances 1 --seed 1 --triples 0 --budget -1",
    "gap --example ghz --n 3 --budget -1",
    "gap --example ghz --n 3 --budget 70",
])
def test_out_of_range_budget_fails_validation(argv, capsys):
    code, out, err = run_cli(argv.split(), capsys)
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["type"] == "ValueError" and "cap" in doc["error"]


@pytest.mark.parametrize("argv, name", [
    ("estimate --kind interference --example ghz --n 2 --node-budget -3",
     "node_budget"),
    ("verdict --example ghz --n 2 --node-budget -1", "node_budget"),
    ("gap --example ghz --n 3 --phases 0", "phase_points"),
    ("gap --example ghz --n 3 --phases -2", "phase_points"),
    # 10^5 phase points: the grid is refused before it is built
    ("gap --example ghz --n 3 --phases 100000", "phase_points"),
    # l! * L and e^(c l ln(1/p)) are refused before they overflow a float
    ("surface -l 170 --p 0.1 -L 1000", "long_cycle"),
    ("surface -l 171 --p 0.1 -L 1000", "long_cycle"),
    ("surface -L 5 -l 3 --p 0.1 --c-const 1000000.0", "c_const"),
    ("surface -L 5 -l 3 --p 0.1 --c-const nan", "c_const"),
    # and p^ceil(l/2) before the rate and its oracle underflow to 0
    ("surface -L 5 -l 3 --p 1e-200", "underflow"),
    # parity_codewords stops at 12 qubits; the repetition code has the same cap
    ("qec --code repetition --m1 -1", "m1"),
    ("qec --code repetition --m1 13", "m1"),
    ("props --n 2 --instances 2 --seed 1 --triples 1 --budget 1 "
     "--epsilon -0.1", "epsilon"),
    ("props --n 2 --instances 2 --seed 1 --triples 1 --budget 1 "
     "--epsilon 0.0", "epsilon"),
    ("props --n 3 --seed 1 --budget 1 --instances -1", "instances"),
    ("props --n 3 --instances 1 --seed 1 --budget 1 --triples -1", "triples"),
    ("flow --ci0 1 --cd0 1 --t-end -1.0", "t_end"),
    # NaN passes every comparison, and infinities overflow the step count
    ("flow --ci0 1 --cd0 1 --k nan", "k"),
    ("flow --ci0 1 --cd0 1 --k inf", "k"),
    ("flow --ci0 1 --cd0 1 --rate nan", "rate"),
    ("flow --ci0 1 --cd0 1 --rate inf", "rate"),
    ("flow --ci0 1 --cd0 1 --dt nan", "dt"),
    ("flow --ci0 1 --cd0 1 --dt inf", "dt"),
    ("flow --ci0 1 --cd0 1 --t-end inf", "t_end"),
    ("flow --cd0 1 --ci0 nan", "ci0"),
    ("flow --cd0 1 --ci0 inf", "ci0"),
    ("flow --ci0 1 --cd0 nan", "cd0"),
    ("flow --ci0 1 --cd0 inf", "cd0"),
    # a threshold below 1 grades a margin of 0 Good
    ("verdict --example parity --m1 2 --m2 1 --threshold 0", "threshold"),
    ("verdict --example parity --m1 2 --m2 1 --threshold -4", "threshold"),
    ("verdict --example parity --m1 2 --m2 1 --lambda -1.0", "lambda"),
    ("verdict --example parity --m1 2 --m2 1 --lambda 0.0", "lambda"),
    ("verdict --example parity --m1 2 --m2 1 --lambda nan", "lambda"),
    ("verdict --example parity --m1 2 --m2 1 --lambda inf", "lambda"),
])
def test_negative_count_fails_validation(argv, name, capsys):
    code, out, err = run_cli(argv.split(), capsys)
    assert (code, out) == (2, "")
    doc = json.loads(err)
    bad = argv.split()[-1]
    assert doc["type"] == "ValueError"
    assert name in doc["error"] and doc["error"].endswith(f"got {bad}")


@pytest.mark.parametrize("argv", [
    "example --example product-random --n 3 --seed -1",
    "estimate --kind interference --example ghz --n 2 --seed -1",
    # the search never runs here, so the seed was written out unchecked
    "verdict --example ghz --n 4 --seed -1",
    "evolve --mode track --example ghz --n 4 --seed -1",
    "evolve --mode freeze --n 4 --seed -1",
    "props --n 2 --instances 1 --seed -1",
    "gap --example product-random --n 3 --seed -1",
])
def test_a_negative_seed_is_refused_by_name(argv, capsys):
    code, out, err = run_cli(argv.split(), capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"schema_version": "1", "type": "ValueError",
                               "error": "--seed must be at least 0, got -1"}


@pytest.mark.parametrize("argv, cut", [
    # 10^10 RK4 steps, and 24,268,003,321 and 36,078,121 enumerated sequences
    ("flow --ci0 1 --cd0 1 --t-end 1e7", "dt"),
    ("estimate --kind interference --example ghz --n 8 --budget 5",
     "node_budget"),
    ("gap --example ghz --n 6 --budget 4", "sequence-length cap"),
    # (10^9 + 5 * 10^8) * 901 + 1,226 and (1 + 10^9) * 901 + 1,226 planned
    # sequences, the 1,226 in the 2- and 3-qubit cat walks
    ("props --n 3 --seed 1 --instances 1000000000", "MAX_PLANNED"),
    ("props --n 3 --seed 1 --instances 1 --triples 1000000000", "MAX_PLANNED"),
    ("props --n 3 --seed 1 --budget 3 --instances 5000", "MAX_PLANNED"),
    # 21,976,231 sequences in one walk: props has no node budget to offer
    ("props --n 3 --seed 1 --budget 5 --instances 1", "MAX_WALK"),
    # the 2-qubit walks fit, the 3-qubit cat walk does not
    ("props --n 2 --seed 1 --budget 5 --instances 1 --triples 0", "MAX_WALK"),
])
def test_planned_work_above_the_cap_fails_validation(argv, cut, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(argv.split(), capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["type"] == "ValueError" and cut in doc["error"]
    # every setting the message offers is one the command has
    offered = re.findall(r"set (\w+) to", doc["error"])
    assert set(offered) <= vars(build_parser().parse_args(argv.split())).keys()


@pytest.mark.parametrize("argv, width", [
    ("example --example two-random --n 40 --seed 1", 40),
    ("example --example product-random --n 40 --seed 1", 40),
    # the distinguishing example's register is one qubit narrower
    ("example --example distinguishing --n 41 --seed 1", 40),
    ("props --n 40 --seed 1 --instances 1", 40),
    ("evolve --mode freeze --n 40 --seed 1", 40),
    ("evolve --mode eth --sizes -1", -1),
    ("evolve --mode eth --sizes 40", 40),
])
def test_width_is_checked_before_allocation(argv, width, capsys):
    # 2**40 amplitudes take 16 TiB
    code, out, err = run_cli(argv.split(), capsys)
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["type"] == "ValueError"
    assert doc["error"].endswith(f"supports 1..14 qubits, got {width}")


def test_merge_accuracy_is_checked_before_the_pair_suite(capsys,
                                                        monkeypatch):
    # epsilon 0.4 passes p = 0.5 and fails p = 0.3, the second MERGE_P
    monkeypatch.setattr(properties, "run_pair_properties",
                        lambda *args: pytest.fail("the pair suite ran"))
    code, out, err = run_cli("props --n 3 --seed 1 --instances 2 "
                             "--epsilon 0.4".split(), capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].endswith("got eps = 0.4 and p = 0.3")


def test_eth_window_without_a_gap_fails_validation(capsys):
    # one qubit has two eigenstates, and the default 1/3 window holds one
    code, out, err = run_cli("evolve --mode eth --sizes 1".split(), capsys)
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["type"] == "ValueError"
    assert "window" in doc["error"] and "of 1 qubits" in doc["error"]


@pytest.mark.parametrize("example", ["distinguishing", "tensor-separable",
                                     "tensor-entangled"])
def test_seeded_example_records_its_seed(example, capsys):
    code, out, _ = run_cli(f"example --example {example} --n 3 --seed 3"
                           .split(), capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 3


def test_coinciding_registers_fail_validation(capsys):
    # at depth 0 both register circuits are empty, so both states are |000>
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli("example --example distinguishing --n 4 "
                                 "--depth 0 --seed 1".split(), capsys)
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["type"] == "ValueError"
    assert "register states coincide" in doc["error"]


def test_node_budget_needs_enumeration(capsys):
    argv = ("estimate --kind interference --example ghz --n 2 --strict "
            "--node-budget").split()
    code, out, err = run_cli(argv + ["0", "--method", "variational"], capsys)
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["type"] == "ValueError" and "node_budget" in doc["error"]
    code, out, _ = run_cli(argv + ["5", "--method", "enumeration"], capsys)
    assert code == 3
    assert json.loads(out)["truncated"] is True


def test_zero_node_budget_walks_the_empty_sequence(capsys):
    code, out, _ = run_cli("estimate --kind interference --example ghz --n 2 "
                           "--node-budget 0".split(), capsys)
    assert code == 0
    assert json.loads(out)["truncated"] is True


_QUBIT = [json.loads(ser.dumps(ser.to_json(QuantumState.basis(1, i))))
          for i in (0, 1)]


@pytest.mark.parametrize("command, doc, field", [
    ("estimate", {"n_qubits": 2}, "missing field 'amplitudes'"),
    ("estimate", [], "expected a JSON object with field 'n_qubits'"),
    ("estimate", {"n_qubits": 1, "amplitudes": [1, 0]},
     "field 'amplitudes' must hold [re, im] number pairs"),
    ("qec", {"codewords": []}, "missing field 'errors'"),
    ("qec", {"codewords": [{"n_qubits": 1}], "errors": []},
     "codewords[0]: missing field 'amplitudes'"),
    # a string is not split into one error per letter
    ("qec", {"codewords": _QUBIT, "errors": "XZ"},
     "field 'errors' must be an array"),
], ids=["no-amplitudes", "not-an-object", "unpaired-amplitudes", "no-errors",
        "bad-codeword", "errors-string"])
def test_malformed_input_file_fails_validation(command, doc, field, capsys,
                                               tmp_path):
    path, other = tmp_path / "in.json", tmp_path / "b.json"
    path.write_text(json.dumps(doc))
    other.write_text(ser.dumps(ser.to_json(QuantumState.basis(2, 3))))
    argv = (["estimate", "--kind", "relative", "--a-file", str(path),
             "--b-file", str(other)] if command == "estimate"
            else ["qec", "--code-file", str(path)])
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["type"] == "ValueError"
    assert error["error"] == f"{path}: {field}"


@pytest.mark.parametrize("options, named", [
    ("", "--code"),
    ("--code parity --code-file FILE --errors ZZZ", "--code-file"),
    ("--code repetition --code-file FILE", "--code-file"),
    ("--code-file FILE --errors ZZZ", "--errors"),
    ("--code-file FILE --errors identity,single-x", "--errors"),
], ids=["neither", "both-with-errors", "both", "file-and-errors",
        "file-and-default-errors"])
def test_qec_refuses_options_it_would_ignore(options, named, capsys,
                                             tmp_path):
    path = tmp_path / "code.json"
    path.write_text(ser.dumps(ser.to_json(CodeSpec(
        (QuantumState.basis(3, 0), QuantumState.basis(3, 7)), ("XII",)))))
    argv = ["qec", *[str(path) if tok == "FILE" else tok
                     for tok in options.split()]]
    code, out, err = _exit_of(argv, capsys)
    assert (code, out) == (64, "")
    assert named in err


class _Recording(argparse.Namespace):
    """A namespace that records the name of every attribute read from it."""

    def __getattribute__(self, name):
        vars_ = object.__getattribute__(self, "__dict__")
        vars_.setdefault("_read", set()).add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("example", EXAMPLE_NAMES)
def test_reads_table_lists_the_options_each_constructor_reads(example):
    parser = _subparsers()["example"]
    defaults = parser.parse_args(["--example", example]).defaults
    args = _Recording(**defaults)
    args.example, args.seed = example, 3
    cli.build_fixture(args)
    options = set(defaults) - {"example", "output"}
    assert vars(args)["_read"] & options == set(
        cli.READS["example", example][0])


def test_readme_lists_the_options_each_example_reads():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z][a-z-]*)` \| (.*) \|$", readme,
                      re.MULTILINE)
    assert {name: tuple(re.findall(r"`--([a-z0-9-]+)`", reads))
            for name, reads in rows} == {
        name: reads for (command, name), (reads, _) in cli.READS.items()
        if command == "example"}


# a weight past the unit modulus, infinite or NaN fails validation naming
# the weight, and before it is squared (1e308 ** 2 overflows a float)
@pytest.mark.parametrize("value", ["1e308", "inf", "nan"])
@pytest.mark.parametrize("option", ["--alpha", "--beta"])
@pytest.mark.parametrize("line", [
    "example --example ghz --n 3",
    "verdict --example ghz --n 3 --seed 1",
    "estimate --kind interference --example ghz --n 2 --delta 0.9",
    "evolve --mode track --example product-random --n 3 --seed 1 --t-grid 0",
], ids=["example", "verdict", "estimate", "evolve-track"])
def test_weight_off_the_unit_disc_fails_validation(line, option, value,
                                                   capsys):
    code, out, err = run_cli([*line.split(), option, value], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == (f"|{option[2:]}| must be finite, "
                                        f"at most 1: {float(value)}")
