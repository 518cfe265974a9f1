"""CLI contract: schemas, reproducibility, exit codes, serialization."""
import argparse
import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

from branchkit import cli
from branchkit import serialize as ser
from branchkit import fixtures as fx
from branchkit.cli import build_parser, main
from branchkit.complexity import ComplexityKind, ComplexityQuery, brute_force_estimate
from branchkit.qsim import QuantumState, haar_random_state, random_circuit


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSerialization:
    def test_state_roundtrip(self):
        s = haar_random_state(3, 44)
        doc = ser.to_json(s)
        back = ser.state_from_json(doc)
        assert np.allclose(back.amplitudes, s.amplitudes)

    def test_circuit_roundtrip(self):
        c = random_circuit(3, 2, seed=15)
        back = ser.circuit_from_json(ser.to_json(c))
        assert back.gate_count == c.gate_count
        for g1, g2 in zip(back.gates, c.gates):
            assert g1.targets == g2.targets
            assert np.allclose(g1.matrix, g2.matrix)

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

    def test_decomposition_roundtrip(self):
        f = fx.ghz(3)
        doc = ser.to_json(f.decomposition)
        back = ser.decomposition_from_json(doc)
        assert np.allclose(back.parent.amplitudes,
                           f.decomposition.parent.amplitudes)

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
    def test_strict_truncation_exit_3(self, capsys):
        code, out, _ = run_cli(
            ["estimate", "--kind", "interference", "--example", "ghz",
             "--n", "3", "--delta", "0.9", "--budget", "3",
             "--node-budget", "5", "--method", "enumeration", "--strict"],
            capsys)
        assert code == 3
        assert json.loads(out)["truncated"] is True

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
        from branchkit.codes import CodeSpec
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
        transitively."""
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
        return text

    def test_every_evolve_option_is_read_by_a_mode(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        options = {a.dest for a in sub.choices["evolve"]._actions
                   if a.option_strings} - {"help", "mode", "output"}
        assert options == {d for dests in cli.EVOLVE_READS.values()
                           for d in dests}

    def test_every_option_is_read(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        unread = []
        for command, sp in sub.choices.items():
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

    @pytest.mark.parametrize("inputs", [
        "--example ghz --n 2 --a-file A",
        "--example ghz --n 2 --b-file B",
        "--example ghz --n 2 --a-file A --b-file B",
        "--a-file A",
    ])
    def test_estimate_mixed_inputs_rejected(self, inputs, capsys, tmp_path):
        paths = {}
        for name, state in (("A", QuantumState.basis(2, 0)),
                            ("B", QuantumState.basis(2, 3))):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(ser.dumps(ser.to_json(state)))
        argv = [str(paths.get(tok, tok)) for tok in inputs.split()]
        code, out, err = run_cli(["estimate", "--kind", "interference",
                                  "--delta", "0.9", *argv], capsys)
        assert (code, out) == (2, "")
        assert "--a-file" in json.loads(err)["error"]


def test_evolve_track_strict_exit_3(capsys):
    argv = ["evolve", "--mode", "track", "--example", "ghz", "--n", "4",
            "--seed", "1", "--t-grid", "0,1", "--budget", "2",
            "--node-budget", "5"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    strict_code, strict_out, _ = run_cli(argv + ["--strict"], capsys)
    assert strict_code == 3
    assert strict_out == out
    # every enumeration was cut, so no interference lower bound survives
    assert [r.split(",")[2] for r in out.splitlines()[1:]] == ["0", "0"]


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
    # parity_codewords stops at 12 qubits; the repetition code has the same cap
    ("qec --code repetition --m1 -1", "m1"),
    ("qec --code repetition --m1 13", "m1"),
    ("props --n 2 --instances 2 --seed 1 --triples 1 --budget 1 "
     "--epsilon -0.1", "epsilon"),
    ("props --n 2 --instances 2 --seed 1 --triples 1 --budget 1 "
     "--epsilon 0.0", "epsilon"),
])
def test_negative_count_fails_validation(argv, name, capsys):
    code, out, err = run_cli(argv.split(), capsys)
    assert (code, out) == (2, "")
    doc = json.loads(err)
    bad = argv.split()[-1]
    assert doc["type"] == "ValueError"
    assert name in doc["error"] and doc["error"].endswith(f"got {bad}")


@pytest.mark.parametrize("example", ["distinguishing", "tensor-separable",
                                     "tensor-entangled"])
def test_seeded_example_records_its_seed(example, capsys):
    code, out, _ = run_cli(f"example --example {example} --n 3 --seed 3"
                           .split(), capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 3


def test_zero_node_budget_walks_the_empty_sequence(capsys):
    code, out, _ = run_cli("estimate --kind interference --example ghz --n 2 "
                           "--node-budget 0".split(), capsys)
    assert code == 0
    assert json.loads(out)["truncated"] is True
