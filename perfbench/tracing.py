"""Span tracer for branchkit, applied from outside the package.

`Tracer.install()` re-binds each listed public function wherever a branchkit
module (or the package namespace) holds a reference to it, and replaces the
listed `Hamiltonian` methods on the class, so calls made from inside the
package are traced as well. Every call becomes a span: name, start, end,
parent span and the benchmark item it ran under. Spans stay in memory as
flat arrays until `save()`; calls, inclusive and self time per name are
accumulated as the spans close. Self time is a span's duration minus the
durations of its direct children, which never overlap, so it lies between 0
and the span's inclusive time.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# (module, qualified name) of every traced callable, grouped by layer
TRACED = (
    ("qsim", "apply_gate_block"),
    ("qsim", "Hamiltonian.to_matrix"),
    ("qsim", "Hamiltonian.eigensystem"),
    ("qsim", "evolve"),
    ("qsim", "apply_pauli_string"),
    ("qsim", "expectation"),
    ("complexity", "survey"),
    ("complexity", "brute_force_estimate"),
    ("complexity", "constructive_estimate"),
    ("complexity", "objective_value"),
    ("complexity", "variational_upper_bound"),
    ("branches", "assess_branches"),
    ("branches", "estimate_pair"),
    ("branches", "merge_bound_check"),
    ("branches", "three_branch_compatibility"),
    ("branches", "irreversibility_check"),
    ("branches", "rho_vs_diag_gap"),
    ("properties", "run_pair_properties"),
    ("codes", "beny_oreshkov_residuals"),
    ("dynamics", "eth_diagnostic"),
    ("dynamics", "symmetry_freeze_check"),
    ("dynamics", "integrate_flow"),
    ("serialize", "dumps"),
    ("serialize", "residual_report_to_json"),
    ("serialize", "trajectory_to_csv"),
    ("serialize", "verdict_to_json"),
    ("cli", "main"),
    ("fixtures", "ghz"),
    ("fixtures", "product_plus_random"),
    ("fixtures", "two_random_circuits"),
    ("fixtures", "parity_codewords"),
    ("fixtures", "distinguishing_qubit_state"),
    ("fixtures", "deep_random_registers"),
)

VARIATIONAL = "complexity.variational_upper_bound"


def _gate_block_counts(tracer, args, kwargs, result):
    block, n_qubits = args[0], args[1]
    cols = 1 if block.ndim == 1 else block.shape[1]
    # read and write of every complex128 amplitude: computed, not measured
    tracer.counts["qsim.apply_gate_block.computed_bytes"] += 2 * 16 * 2**n_qubits * cols
    if tracer.is_open(VARIATIONAL):
        tracer.counts[VARIATIONAL + ".gate_applications"] += 1


def _survey_counts(tracer, args, kwargs, result):
    tracer.counts["complexity.survey.nodes"] += result.nodes
    tracer.counts["complexity.survey.channel_evals"] += result.nodes * len(result.channels)
    tracer.counts["complexity.survey.truncated"] += int(result.truncated)


def _variational_counts(tracer, args, kwargs, result):
    tracer.counts[VARIATIONAL + ".witnesses"] += int(result.upper_bound is not None)


def _verdict_counts(tracer, args, kwargs, result):
    tracer.counts["branches.assess_branches.conclusive"] += int(result.overall != "Inconclusive")


def _gap_counts(tracer, args, kwargs, result):
    tracer.counts["branches.rho_vs_diag_gap.circuits_checked"] += result.circuits_checked


def _property_counts(tracer, args, kwargs, result):
    stats = result.properties.values()
    tracer.counts["properties.run_pair_properties.checked"] += sum(s.checked for s in stats)
    tracer.counts["properties.run_pair_properties.vacuous"] += sum(s.vacuous for s in stats)


def _text_bytes(name):
    # branchkit's JSON and CSV text is ASCII, so characters are bytes
    def hook(tracer, args, kwargs, result):
        tracer.counts[name + ".bytes"] += len(result)
    return hook


def _cli_counts(tracer, args, kwargs, result):
    # the benchmark hands every cli.main call a fresh in-memory stdout
    tell = getattr(sys.stdout, "tell", None)
    if tell is not None:
        tracer.counts["cli.main.stdout_bytes"] += tell()


HOOKS = {
    "qsim.apply_gate_block": _gate_block_counts,
    "complexity.survey": _survey_counts,
    VARIATIONAL: _variational_counts,
    "branches.assess_branches": _verdict_counts,
    "branches.rho_vs_diag_gap": _gap_counts,
    "properties.run_pair_properties": _property_counts,
    "serialize.dumps": _text_bytes("serialize.dumps"),
    "serialize.trajectory_to_csv": _text_bytes("serialize.trajectory_to_csv"),
    "cli.main": _cli_counts,
}


class Tracer:
    def __init__(self):
        self.names = [f"{mod}.{qual}" for mod, qual in TRACED]
        self._id = {name: i for i, name in enumerate(self.names)}
        self.item = -1
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        """Drop all spans and totals (open spans must not exist)."""
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        k = len(self.names)
        self.calls = [0] * k
        self.incl = [0.0] * k
        self.self_time = [0.0] * k
        self._open = [0] * k
        self._stack: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)

    def is_open(self, name: str) -> bool:
        return self._open[self._id[name]] > 0

    def _wrap(self, name: str, fn):
        nid = self._id[name]
        hook = HOOKS.get(name)
        perf = time.perf_counter
        tracer = self

        # reset() swaps the arrays and lists, so look them up on every call
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_item.append(tracer.item)
            tracer.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            tracer._open[nid] += 1
            start = perf()
            tracer.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                tracer._open[nid] -= 1
                stack.pop()
                tracer.span_end[idx] = end
                incl = end - start
                tracer.calls[nid] += 1
                tracer.incl[nid] += incl
                tracer.self_time[nid] += incl - frame[1]
                if stack:
                    stack[-1][1] += incl
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Re-bind every traced callable where branchkit code looks it up."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if key == "branchkit" or key.startswith("branchkit.")]
        for mod_name, qual in TRACED:
            mod = importlib.import_module(f"branchkit.{mod_name}")
            name = f"{mod_name}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                owner = getattr(mod, cls_name)
                orig = owner.__dict__[attr]
                self._undo.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig))
                continue
            orig = getattr(mod, qual)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is orig]:
                    self._undo.append((m, key, orig))
                    setattr(m, key, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo = []

    def totals(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, inclusive seconds and self seconds."""
        return {name: {"calls": self.calls[i], "incl_s": self.incl[i],
                       "self_s": self.self_time[i]}
                for i, name in enumerate(self.names)}

    def save(self, path, meta: dict):
        """Write every span (and the name table) as one .npz file."""
        np.savez(path, name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 item=np.frombuffer(self.span_item, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 names=np.array(self.names),
                 meta=np.array(json.dumps(meta)))
