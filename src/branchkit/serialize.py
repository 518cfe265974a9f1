"""JSON and CSV serialization for every exported object.

One rule encodes every JSON document. A dataclass becomes an object of its
fields in declaration order, under their own names except for the keys in
RENAMED, and opens with schema_version unless it is one of the inner parts in
UNVERSIONED. Complex numbers become [re, im] pairs and complex arrays flat,
row-major lists of such pairs; real arrays and tuples become lists, enums
their value. Three shapes are spelled out in `_parts`. Floats are emitted via
Python's shortest round-trip repr, so identical inputs produce byte-identical
output.

`dumps` writes the text itself, in exactly the layout, byte for byte, of
`json.dumps(doc, indent=2, allow_nan=True)` plus a newline. The standard
library encodes indented output in pure Python; here a regular nested list of
floats, such as a residual tensor, is written in one join.
"""
from __future__ import annotations

import dataclasses
import enum
import json
import math
from itertools import chain

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
    """Canonical JSON text: fixed key order as built, 2-space indent, the
    bytes of `json.dumps(doc, indent=2, allow_nan=True) + "\\n"`."""
    out: list[str] = []
    _write(doc, 0, out)
    out.append("\n")
    return "".join(out)


_escape = json.encoder.encode_basestring_ascii
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _key(k) -> str:
    """A key as `json` writes it: other scalars as their JSON text, quoted."""
    if isinstance(k, str):
        return _escape(k)
    if k is None or isinstance(k, (int, float)):
        return _escape(json.dumps(k))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {k.__class__.__name__}")


def _write(o, level: int, out: list[str]) -> None:
    if isinstance(o, (list, tuple)):
        if type(o) is list and o and _write_tensor(o, level, out):
            return
        brackets, items = "[]", (("", v) for v in o)
    elif isinstance(o, dict):
        brackets, items = "{}", ((_key(k) + ": ", v) for k, v in o.items())
    else:
        out.append(json.dumps(o))  # a leaf, through json's own C encoder
        return
    if not o:
        out.append(brackets)
        return
    inner = "\n" + "  " * (level + 1)
    sep = brackets[0] + inner
    for head, v in items:
        out.append(sep + head)
        _write(v, level + 1, out)
        sep = "," + inner
    out.append("\n" + "  " * level + brackets[1])


def _write_tensor(o: list, level: int, out: list[str]) -> bool:
    """Write `o` if it is a regular nested list whose leaves are all exactly
    float, and say whether it was."""
    dims, flat = [len(o)], o
    while True:
        kinds = set(map(type, flat))
        if kinds == {float}:
            break
        if kinds != {list}:
            return False
        lengths = set(map(len, flat))
        if len(lengths) != 1 or 0 in lengths:
            return False
        dims.append(lengths.pop())
        flat = list(chain.from_iterable(flat))
    depth = len(dims)
    texts = list(map(float.__repr__, flat))
    if not math.isfinite(sum(flat)):
        texts = [_NONFINITE.get(t, t) for t in texts]
    ind = ["\n" + "  " * (level + d) for d in range(depth + 1)]
    # seps[r] closes the r innermost lists, writes the comma, opens r again
    seps = ["".join(ind[depth - j] + "]" for j in range(1, r + 1)) + ","
            + ind[depth - r]
            + "".join("[" + ind[d] for d in range(depth - r + 1, depth + 1))
            for r in range(depth)]
    # before leaf i > 0, r counts the trailing axes whose index rolls over
    index = np.arange(1, len(flat))
    rolls = np.zeros(len(flat) - 1, dtype=np.intp)
    stride = 1
    for size in dims[:0:-1]:
        stride *= size
        rolls += index % stride == 0
    parts = [""] * (2 * len(flat) - 1)
    parts[::2] = texts
    parts[1::2] = np.array(seps, dtype=object)[rolls].tolist()
    out.append("".join("[" + ind[d] for d in range(1, depth + 1)))
    out.extend(parts)
    out.append("".join(ind[d] + "]" for d in range(depth - 1, -1, -1)))
    return True
