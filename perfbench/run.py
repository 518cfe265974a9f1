"""branchkit benchmark: three seeded workloads, checked results, one JSON line.

    python3 perfbench/run.py --workload props-n3 --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a source checkout; it imports branchkit from the
checkout's `src/` and nothing else. Workloads and metrics are declared in
BENCHMARK.json at the checkout root; which layer metric should move which
end-to-end metric on which workload is recorded in perfbench/predictions.json.

Each run starts fresh worker processes (perfbench/worker.py) with the BLAS
thread count pinned, so module-level caches and peak memory never leak
between workloads. Set-up is timed from process start to the end of set-up,
several times, and reported as the median. With `--trace 0` the worker runs
whole passes over the item list for about `--seconds` (at least two) and
reports the end-to-end metrics; with `--trace 1` it alternates two untraced
and two traced passes (see tracing.py), reports the per-layer metrics and
the tracing overhead, and writes the spans to perfbench/out/.

Item times are reported in reference seconds (`ref_s`): wall seconds scaled
by a fixed calibration kernel timed between items (worker.py), because the
speed of a shared machine drifts by up to 2x within minutes. Wall-clock
figures are printed on `wall` lines but carry no bound.

Every item's result is checked (see workloads.py). Any failed check makes
`correct` false and the exit code 1. The last line of stdout is always
`{"correct", "attempted", "failed", "metrics"}`. Other options:
`--items a,b` runs only the named items; `--reference PATH` checks against
another reference file; `--record-reference` rewrites the reference for the
default seed from the current program.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# one BLAS thread: the eigh floor at n=10 halves between 1 and 2 threads, and
# a fixed count no higher than any machine's core count keeps runs comparable
BLAS_THREADS = 1
SETUP_SAMPLES = 7
DEADLINE_S = 170.0


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"  # same set and dict layouts in every run
    return env


def _provenance() -> dict:
    """The git commit when there is one, and always a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "branchkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16]}


def _start(worker_args: list[str], deadline: float):
    """Start a worker and wait for its `@@READY`; returns (proc, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *worker_args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_worker_env(), cwd=ROOT)
    for line in proc.stdout:
        if line.startswith("@@READY"):
            return proc, time.perf_counter() - t0
        sys.stderr.write(line)
        if time.perf_counter() > deadline:
            break
    _stop(proc)
    raise RuntimeError("worker ended before finishing set-up")


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def _finish(proc, deadline: float) -> dict | None:
    """Wait for the worker; returns its `@@RESULT` object, if it sent one."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise RuntimeError("worker exceeded the run deadline")
    result = None
    for line in out.splitlines():
        if line.startswith("@@RESULT "):
            result = json.loads(line[len("@@RESULT "):])
        else:
            sys.stderr.write(line + "\n")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return result


def main(argv=None) -> int:
    if not (ROOT / "src" / "branchkit" / "__init__.py").is_file():
        sys.stderr.write(f"no branchkit sources under {ROOT / 'src'}\n")
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", default="", help="comma-separated item names")
    ap.add_argument("--reference", default=None)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    reference = Path(args.reference or HERE / "reference" / f"{args.workload}.json")
    if args.record_reference and (args.trace or args.items):
        sys.stderr.write("--record-reference needs --trace 0 and all items\n")
        return 2
    if not args.record_reference and not reference.is_file():
        sys.stderr.write(f"reference file {reference} is missing\n")
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--items", args.items]
    worker_args += (["--record"] if args.record_reference
                    else ["--reference", str(reference)])
    try:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, dt = _start([*worker_args, "--setup-only"], deadline)
            _finish(proc, deadline)
            setups.append(dt)
        proc, dt = _start(worker_args, deadline)
        setups.append(dt)
        result = _finish(proc, deadline)
        if result is None:
            raise RuntimeError("worker sent no result")
    except RuntimeError as exc:
        sys.stderr.write(f"benchmark run failed: {exc}\n")
        return 1

    values = dict(result["metrics"])
    values["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in declared if m["name"] not in values]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    attempted, failed = result["attempted"], result["failed"]

    print("env " + json.dumps({**result["env"], **_provenance()}, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, lat in result["item_latency_s"].items():
        print(f"item {name} median {statistics.median(lat):.4f} s "
              f"min {min(lat):.4f} s n {len(lat)}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    for name, value in result.get("wall", {}).items():
        unit = "1/s" if name.endswith("per_s") else "s"
        print(f"wall {name} {value:.6g} {unit}")
    print(f"metric failed_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} items)")
    for problem in result["problems"]:
        sys.stderr.write(f"check failed: {problem}\n")
    if missing:
        sys.stderr.write(f"metrics not produced: {missing}\n")
    if args.record_reference and failed == 0:
        reference.parent.mkdir(exist_ok=True)
        with open(reference, "w") as fh:
            json.dump(result["summaries"], fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {reference}")

    correct = failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
