"""Tests of the benchmark itself: python3 -m pytest perfbench/tests

They run perfbench/run.py as a subprocess, on short item lists.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# cheap items of each workload
SMOKE_ITEMS = {
    "props-n3": "gap_ghz3",
    "verdicts-n4to8": "parity_2x2,floor_03b_n8",
    "spectrum-codes": "cli_surface,cli_flow,cli_evolve_freeze",
}


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def last_json(lines):
    return json.loads(lines[-1])


def test_workload_names_match():
    assert set(SMOKE_ITEMS) == {w["name"] for w in SPEC["workloads"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SMOKE_ITEMS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc, lines = bench("--workload", workload, "--seed", "7", "--seconds", "0",
                        "--trace", str(trace), "--items", SMOKE_ITEMS[workload])
    assert proc.returncode == 0, proc.stderr
    result = last_json(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_default_seed_checks_the_reference():
    proc, lines = bench("--workload", "props-n3", "--seed", "1", "--seconds", "0",
                        "--trace", "0", "--items", "gap_ghz3,irreversibility_ghz3")
    assert proc.returncode == 0, proc.stderr
    assert last_json(lines)["correct"] is True


def test_corrupted_reference_fails_the_run(tmp_path):
    ref = json.loads((ROOT / "perfbench/reference/props-n3.json").read_text())
    ref["gap_ghz3"]["circuits_checked"] += 1
    bad = tmp_path / "props-n3.json"
    bad.write_text(json.dumps(ref))
    proc, lines = bench("--workload", "props-n3", "--seed", "1", "--seconds", "0",
                        "--trace", "0", "--items", "gap_ghz3",
                        "--reference", str(bad))
    assert proc.returncode != 0
    result = last_json(lines)
    assert result["correct"] is False and result["failed"] == 1
    assert "circuits_checked" in proc.stderr


def test_corrupted_float_reference_fails_beyond_tolerance(tmp_path):
    ref = json.loads((ROOT / "perfbench/reference/spectrum-codes.json").read_text())
    ref["cli_evolve_eth"][0]["median_diag_gap"] *= 1.001
    bad = tmp_path / "spectrum-codes.json"
    bad.write_text(json.dumps(ref))
    proc, lines = bench("--workload", "spectrum-codes", "--seed", "3",
                        "--seconds", "0", "--trace", "0",
                        "--items", "cli_evolve_eth", "--reference", str(bad))
    assert proc.returncode != 0
    assert last_json(lines)["correct"] is False


def test_traced_self_times_never_exceed_inclusive():
    proc, _ = bench("--workload", "verdicts-n4to8", "--seed", "5", "--seconds", "0",
                    "--trace", "1", "--items", "parity_2x2,floor_03b_n8")
    assert proc.returncode == 0, proc.stderr
    spans = np.load(ROOT / "perfbench/out/trace-verdicts-n4to8.npz")
    dur = spans["end"] - spans["start"]
    assert len(dur) > 0 and (dur >= 0).all()
    child = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(child, spans["parent"][has_parent], dur[has_parent])
    self_time = dur - child
    assert (self_time >= -1e-12).all()
    assert (self_time <= dur + 1e-12).all()
    # children lie inside their parent span
    p = spans["parent"][has_parent]
    assert (spans["start"][has_parent] >= spans["start"][p]).all()
    assert (spans["end"][has_parent] <= spans["end"][p]).all()


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, lines = bench("--workload", "props-n3", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def test_predictions_cover_every_layer_metric_once():
    pred = json.loads((ROOT / "perfbench/predictions.json").read_text())
    named = [m for layer in pred["layers"] for m in layer["metrics"]]
    assert sorted(named) == sorted(m["name"] for m in SPEC["per_layer"])
    workloads = {w["name"] for w in SPEC["workloads"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for layer in pred["layers"]:
        assert set(layer["on"]) | set(layer["no_change_on"]) <= workloads
        assert set(layer["moves"]) <= e2e
