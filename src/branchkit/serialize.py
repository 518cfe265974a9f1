"""JSON and CSV serialization for every exported object.

One rule encodes every JSON document. A dataclass becomes an object of its
fields in declaration order, under their own names except for the keys in
RENAMED, and opens with schema_version unless it is one of the inner parts in
UNVERSIONED. Complex numbers become [re, im] pairs and complex arrays flat,
row-major lists of such pairs; real arrays and tuples become lists, enums
their value. Three shapes are spelled out in `_parts`. Floats are emitted via
Python's shortest round-trip repr, so identical inputs produce byte-identical
output.
"""
from __future__ import annotations

import dataclasses
import enum
import json

import numpy as np

from .branches import BranchDecomposition, BranchVerdict, PairAssessment
from .codes import CodeSpec, ResidualReport, SurfaceRateReport
from .dynamics import ObservableStats, Trajectory
from .properties import PropertyStats
from .qsim import Circuit, GateOp, QuantumState

SCHEMA_VERSION = "1"

RENAMED = {"pairwise": "pairs", "overall": "overall_class",
           "robustness_lambda": "lambda", "classification": "class",
           "per_observable": "observables", "robust_l_min": "robust_L_min"}
UNVERSIONED = (GateOp, PairAssessment, ObservableStats, PropertyStats)


def _parts(obj) -> dict:
    """A dataclass's fields by name, in declaration order, with the three
    shapes the generic rule would not give written out."""
    parts = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, BranchDecomposition):
        parts["components"] = [{"weight": w, "state": s}
                               for w, s in obj.components]
    elif isinstance(obj, ResidualReport):
        parts["lambda_mn"] = list(obj.lambda_mn)  # an m x m grid of pairs
        parts["eps_mnij"] = np.abs(obj.eps_mnij)
    elif isinstance(obj, SurfaceRateReport):
        model = parts.pop("model")
        parts = {**_parts(model), **parts}
    return parts


def _encode(obj):
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if isinstance(obj, dict):
        return {_encode(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return np.stack((obj.real, obj.imag), -1).reshape(-1, 2).tolist()
        return obj.tolist()
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        head = {} if isinstance(obj, UNVERSIONED) else {
            "schema_version": SCHEMA_VERSION}
        return {**head, **{RENAMED.get(k, k): _encode(v)
                           for k, v in _parts(obj).items()}}
    raise TypeError(f"cannot encode {type(obj).__name__} as JSON")


def document(**parts) -> dict:
    """A JSON document: schema_version, then `parts` in order, encoded. A
    part that is already a document (it has a schema_version) is kept as
    is, so residual_report_to_json's large output is not walked twice."""
    return {"schema_version": SCHEMA_VERSION, **{
        k: v if isinstance(v, dict) and "schema_version" in v else _encode(v)
        for k, v in parts.items()}}


def to_json(obj, **head) -> dict:
    """The JSON document of a dataclass, with `head` right after
    schema_version."""
    return {**document(**head), **_encode(obj)}


# named entry points, not aliases of to_json: perfbench calls and traces them
def verdict_to_json(v: BranchVerdict) -> dict:
    return _encode(v)


def residual_report_to_json(r: ResidualReport) -> dict:
    return _encode(r)


def state_from_json(doc: dict) -> QuantumState:
    amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    return QuantumState(int(doc["n_qubits"]), amps)


def circuit_from_json(doc: dict) -> Circuit:
    gates = []
    for g in doc["gates"]:
        dim = 2 ** len(g["targets"])
        mat = np.array([complex(re, im) for re, im in g["matrix"]]).reshape(dim, dim)
        gates.append(GateOp(tuple(g["targets"]), mat, g.get("label")))
    return Circuit(int(doc["n_qubits"]), tuple(gates))


def decomposition_from_json(doc: dict) -> BranchDecomposition:
    comps = tuple(
        (complex(c["weight"][0], c["weight"][1]), state_from_json(c["state"]))
        for c in doc["components"]
    )
    return BranchDecomposition(state_from_json(doc["parent"]), comps,
                               doc.get("tolerance", 1e-8))


def code_spec_from_json(doc: dict) -> CodeSpec:
    words = tuple(state_from_json(w) for w in doc["codewords"])
    return CodeSpec(words, tuple(doc["errors"]))


def trajectory_to_csv(traj: Trajectory) -> str:
    lines = []
    if traj.mode == "flow":
        lines.append("t,c_i,c_d,invariant_drift")
        for s in traj.samples:
            lines.append(f"{s.t!r},{s.c_i!r},{s.c_d!r},{s.invariant_drift!r}")
    elif traj.mode == "empirical":
        lines.append("t,witness_objective,ci_lower,ci_upper,cd_lower,cd_upper,"
                     "truncated")
        for s in traj.samples:
            up_i = "" if s.ci_upper is None else s.ci_upper
            up_d = "" if s.cd_upper is None else s.cd_upper
            lines.append(f"{s.t!r},{s.witness_objective!r},{s.ci_lower},"
                         f"{up_i},{s.cd_lower},{up_d},"
                         f"{str(s.truncated).lower()}")
    else:
        raise ValueError(f"unknown trajectory mode {traj.mode!r}")
    return "\n".join(lines) + "\n"


def dumps(doc: dict) -> str:
    """Canonical JSON text: fixed key order as built, 2-space indent."""
    return json.dumps(doc, indent=2, allow_nan=True) + "\n"
