"""One workload run in its own process; started by run.py, not by hand.

Protocol on stdout: a line `@@READY` once set-up (imports, BLAS start-up,
seeded inputs) is done, then one line `@@RESULT <json>` at the end. The
parent times set-up from process start to `@@READY`. Branchkit's own stdout
(the CLI items) is captured in memory and never reaches this stream.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import branchkit  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "branchkit": branchkit.__version__,
    }


# The shared machine's speed drifts by up to 2x over seconds to minutes, in
# pure-Python bytecode and small numpy calls alike. A fixed kernel of both,
# timed between items, measures the drift; an item's reference seconds are
# its wall seconds scaled by CALIBRATION_REF_S over the kernel's time.
CALIBRATION_REF_S = 0.030


def _calibrate() -> float:
    """Seconds the calibration kernel takes now."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(150_000):
        acc += k * k
    block = np.ones((2,) * 6 + (1,), dtype=complex)
    gate = np.eye(4, dtype=complex).reshape(2, 2, 2, 2)
    for _ in range(1500):
        np.tensordot(gate, block, axes=((2, 3), (0, 1)))
    return time.perf_counter() - t0


class Runner:
    """Runs passes over the item list and checks every result.

    The first result of each item is checked against its invariants and,
    where one applies, the recorded reference; every later result of the
    same item must equal the first.
    """

    def __init__(self, items, seed: int, reference: dict | None):
        self.items = items
        self.seed = seed
        self.reference = reference
        self.first: dict[str, object] = {}
        self.latencies: list[tuple[str, float]] = []
        self.ref_latencies: list[tuple[str, float]] = []
        self.calibration: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _check(self, item, raw) -> list[str]:
        summary = item.summary(raw)
        if item.name in self.first:
            return workloads.compare(self.first[item.name], summary,
                                     f"{item.name} (repeat)")
        self.first[item.name] = summary
        out = [f"{item.name}: {p}" for p in item.invariants(raw)]
        if self.reference is not None and (
                self.seed == workloads.DEFAULT_SEED or not item.seeded):
            if item.name not in self.reference:
                out.append(f"{item.name}: no reference recorded")
            else:
                out += workloads.compare(self.reference[item.name], summary,
                                         item.name)
        return out

    def by_item(self, reference: bool = False) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for name, dt in self.ref_latencies if reference else self.latencies:
            out.setdefault(name, []).append(dt)
        return out

    def run_pass(self, tracer=None) -> tuple[float, float]:
        """One pass over every item; returns its summed wall and reference
        item times."""
        lat, cal = [], [_calibrate()]
        for idx, item in enumerate(self.items):
            if tracer is not None:
                tracer.item = idx
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                raw, error = item.run(), None
            except Exception:  # a failing item is counted, the run goes on
                raw, error = None, traceback.format_exc()
            dt = time.perf_counter() - t0
            cal.append(_calibrate())
            lat.append((item.name, dt))
            problems = ([f"{item.name} raised:\n{error}"] if error
                        else self._check(item, raw))
            if problems:
                self.failed += 1
                self.problems += problems
        # each item against the mean of the calibrations just before and after it
        ref = [(name, dt * 2 * CALIBRATION_REF_S / (cal[i] + cal[i + 1]))
               for i, (name, dt) in enumerate(lat)]
        self.latencies += lat
        self.ref_latencies += ref
        self.calibration += cal
        return sum(dt for _, dt in lat), sum(dt for _, dt in ref)


def layer_metrics(tracer: tracing.Tracer, item_time: float) -> dict:
    tot = tracer.totals()
    c = tracer.counts
    out = {}
    for name, t in tot.items():
        out[f"{name}.calls"] = t["calls"]
        out[f"{name}.self_s"] = t["self_s"]

    def ratio(num, den):
        return num / den if den else 0.0

    survey = tot["complexity.survey"]
    out["complexity.survey.nodes"] = c["complexity.survey.nodes"]
    out["complexity.survey.channel_evals"] = c["complexity.survey.channel_evals"]
    out["complexity.survey.truncated"] = c["complexity.survey.truncated"]
    out["complexity.survey.nodes_per_s"] = ratio(c["complexity.survey.nodes"],
                                                 survey["incl_s"])
    out["complexity.survey.item_share"] = ratio(survey["incl_s"], item_time)
    gate = tot["qsim.apply_gate_block"]
    out["qsim.apply_gate_block.us_per_call"] = ratio(1e6 * gate["incl_s"],
                                                     gate["calls"])
    out["qsim.apply_gate_block.computed_bytes"] = c["qsim.apply_gate_block.computed_bytes"]
    var = tracing.VARIATIONAL
    out[f"{var}.witness_rate"] = ratio(c[f"{var}.witnesses"], tot[var]["calls"])
    out[f"{var}.gate_applications"] = c[f"{var}.gate_applications"]
    out[f"{var}.item_share"] = ratio(tot[var]["incl_s"], item_time)
    out["branches.assess_branches.conclusive_rate"] = ratio(
        c["branches.assess_branches.conclusive"],
        tot["branches.assess_branches"]["calls"])
    out["branches.rho_vs_diag_gap.circuits_checked"] = c["branches.rho_vs_diag_gap.circuits_checked"]
    checked = c["properties.run_pair_properties.checked"]
    vacuous = c["properties.run_pair_properties.vacuous"]
    out["properties.run_pair_properties.checked"] = checked
    out["properties.run_pair_properties.vacuous_rate"] = ratio(vacuous, checked + vacuous)
    for name in ("serialize.dumps.bytes", "serialize.trajectory_to_csv.bytes",
                 "cli.main.stdout_bytes"):
        out[name] = c[name]
    out["trace.spans"] = len(tracer.span_start)
    return out


# counts that depend only on the inputs; they must repeat exactly
EXACT_COUNTS = ("complexity.survey.nodes", "complexity.survey.channel_evals",
                "qsim.apply_gate_block.calls",
                "complexity.variational_upper_bound.witness_rate")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--items", default="")
    ap.add_argument("--reference", default=None)
    ap.add_argument("--record", action="store_true",
                    help="check invariants only; the caller records the summaries")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if args.record and args.seed != workloads.DEFAULT_SEED:
        ap.error(f"references are recorded for seed {workloads.DEFAULT_SEED} only")
    np.linalg.eigh(np.eye(4))  # BLAS and LAPACK start-up belong to set-up
    only = [s for s in args.items.split(",") if s]
    items = workloads.build(args.workload, args.seed, only)
    reference = None
    if args.reference:
        with open(args.reference) as fh:
            reference = json.load(fh)
    print("@@READY", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(items, args.seed, reference)
    result = {"env": environment()}
    if not args.trace:
        # whole passes, so every run weighs the items alike; at least two,
        # and no pass that would end past the time budget
        start, passes = time.perf_counter(), 0
        while True:
            runner.run_pass()
            passes += 1
            elapsed = time.perf_counter() - start
            if passes >= 2 and elapsed * (passes + 1) / passes > args.seconds:
                break
        # each item at its median over the passes, so one slow pass weighs
        # little: throughput of one pass over the fixed list, and the median
        # item of the list
        ref_item = [statistics.median(v) for v in runner.by_item(True).values()]
        result["metrics"] = {
            "items_per_ref_s": len(items) / sum(ref_item),
            "item_p50_ref_s": statistics.median(ref_item),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        wall_item = [statistics.median(v) for v in runner.by_item().values()]
        result["wall"] = {
            "items_per_s": len(items) / sum(wall_item),
            "item_p50_s": statistics.median(wall_item),
            "calibration_s": statistics.median(runner.calibration),
        }
    else:
        # untraced and traced passes alternate, so the cold first pass and
        # slow stretches of the machine weigh on both sides; the two traced
        # passes' exact counts must agree
        tracer = tracing.Tracer()
        untraced, traced, passes = [], [], []
        for _ in range(2):
            untraced.append(runner.run_pass()[1])
            tracer.reset()
            tracer.install()
            try:
                wall, ref = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced.append(ref)
            passes.append(layer_metrics(tracer, wall))
        for key in EXACT_COUNTS:
            if passes[0][key] != passes[1][key]:
                runner.failed += 1
                runner.problems.append(
                    f"{key} differs between traced passes: "
                    f"{passes[0][key]} != {passes[1][key]}")
        for name, t in tracer.totals().items():
            if not 0.0 <= t["self_s"] <= t["incl_s"] + 1e-12:
                runner.failed += 1
                runner.problems.append(f"{name}: self time outside [0, inclusive]")
        metrics = passes[1]
        metrics["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
        result["metrics"] = metrics
        (HERE / "out").mkdir(exist_ok=True)
        tracer.save(HERE / "out" / f"trace-{args.workload}.npz",
                    {"workload": args.workload, "seed": args.seed,
                     "items": [it.name for it in items]})
    result.update(
        attempted=runner.attempted, failed=runner.failed,
        problems=runner.problems[:20],
        item_latency_s=runner.by_item(),
        summaries=runner.first,
    )
    print("@@RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
