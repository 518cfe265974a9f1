"""JSON and CSV serialization for every exported object, and the two
documents the CLI reads: a state (`--a-file`, `--b-file`) and a code
(`--code-file`).

One rule encodes every JSON document. A dataclass becomes an object of its
fields in declaration order, under their own names except for the keys in
RENAMED, and opens with schema_version unless it is one of the inner parts in
UNVERSIONED. Complex numbers become [re, im] pairs and complex arrays real
(-1, 2) arrays of such pairs; other arrays stay arrays, tuples become lists,
enums their value. Three shapes are spelled out in `_parts`. Floats are
emitted via Python's shortest round-trip repr, so identical inputs produce
byte-identical output.

`dumps` lets `json.dumps(doc, indent=2, allow_nan=True)` write each document,
an array as its `tolist()`. It encodes indented output one Python call per
value, so `_write_tensor` splices in only the non-empty float64 arrays, such
as a residual tensor, with the same bytes. It formats each distinct bit
pattern once, so -0.0 stays apart from 0.0. Then, innermost axis first, while
at most half the rows along an axis are distinct, it writes each distinct row
once and takes it as one leaf; the axes left are written in one join.
"""
from __future__ import annotations

import dataclasses
import enum
import itertools
import json

import numpy as np

from .branches import BranchDecomposition, BranchVerdict, PairAssessment
from .codes import CodeSpec, ResidualReport, SurfaceRateReport
from .dynamics import ObservableStats, Trajectory
from .properties import PropertyStats
from .qsim import GateOp, QuantumState

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
        lam = obj.lambda_mn  # an m x m grid of [re, im] pairs
        parts["lambda_mn"] = np.stack((lam.real, lam.imag), -1)
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
            return np.stack((obj.real, obj.imag), -1).reshape(-1, 2)
        return obj
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
    """A JSON document: schema_version, then `parts` in order, encoded."""
    return {"schema_version": SCHEMA_VERSION, **_encode(parts)}


def to_json(obj, **head) -> dict:
    """The JSON document of a dataclass, with `head` right after
    schema_version."""
    return {**document(**head), **_encode(obj)}


# named entry points, not aliases of to_json: perfbench calls and traces them
def verdict_to_json(v: BranchVerdict) -> dict:
    return _encode(v)


def residual_report_to_json(r: ResidualReport) -> dict:
    return _encode(r)


def _field(doc, name: str, kind, what: str):
    """doc[name], refused with a ValueError naming the field unless doc is a
    JSON object whose field `name` holds `what`: a `kind`, not true or false."""
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object with field {name!r}")
    if name not in doc:
        raise ValueError(f"missing field {name!r}")
    if not isinstance(doc[name], kind) or isinstance(doc[name], bool):
        raise ValueError(f"field {name!r} must be {what}")
    return doc[name]


def state_from_json(doc: dict) -> QuantumState:
    n = _field(doc, "n_qubits", int, "an integer")
    pairs = _field(doc, "amplitudes", (list, np.ndarray), "an array")
    if not all(isinstance(p, (list, np.ndarray)) and len(p) == 2
               and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in p) for p in pairs):
        raise ValueError("field 'amplitudes' must hold [re, im] number pairs")
    return QuantumState(n, np.array([complex(re, im) for re, im in pairs]))


def code_spec_from_json(doc: dict) -> CodeSpec:
    words = []
    for i, word in enumerate(_field(doc, "codewords", list, "an array")):
        try:
            words.append(state_from_json(word))
        except ValueError as exc:
            raise ValueError(f"codewords[{i}]: {exc}") from None
    return CodeSpec(tuple(words), tuple(_field(doc, "errors", list, "an array")))


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
    tensors: list[np.ndarray] = []

    def park(o):
        if not isinstance(o, np.ndarray):
            raise TypeError(f"Object of type {type(o).__name__} "
                            "is not JSON serializable")
        if o.dtype != np.float64 or not o.size:
            return o.tolist()
        tensors.append(o)
        return _TENSOR

    pieces = json.dumps(doc, indent=2, allow_nan=True,
                        default=park).split(_QUOTED_TENSOR)
    if len(pieces) != len(tensors) + 1:
        raise ValueError(f"the document holds the string {_TENSOR!r}, "
                         "which stands in for a float64 array")
    out = [pieces[0]]
    for a, piece in zip(tensors, pieces[1:]):
        line = out[-1].rpartition("\n")[2]
        _write_tensor(a, (len(line) - len(line.lstrip(" "))) // 2, out)
        out.append(piece)
    out.append("\n")
    return "".join(out)


# what json.dumps writes in place of a float64 array, for _write_tensor
_TENSOR = "branchkit.serialize: float64 array"
_QUOTED_TENSOR = json.dumps(_TENSOR)
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of int64 `keys`, and each key's index among
    them: by sort, as np.unique's hash path is slower on int64."""
    s = np.sort(keys, axis=None)
    s = s[np.concatenate(([True], s[1:] != s[:-1]))]
    return s, np.searchsorted(s, keys)


def _write_tensor(a: np.ndarray, level: int, out: list[str]) -> None:
    """Write a non-empty float64 array."""
    ind = ["\n" + "  " * (level + d) for d in range(a.ndim + 1)]
    # each distinct bit pattern is formatted once: -0.0 stays apart from 0.0
    distinct, codes = _distinct(a.ravel().view(np.int64).reshape(a.shape))
    texts = [_NONFINITE.get(t, t)
             for t in map(float.__repr__, distinct.view(np.float64).tolist())]
    # while at most half the rows along an axis, innermost first, are
    # distinct, each distinct row is written once and becomes one leaf
    for k in range(a.ndim - 1, 0, -1):
        rows = keys = codes.reshape(-1, a.shape[k])
        n = len(texts)
        # halve the columns (an odd middle one twice): keys < n*n <= a.size**2
        while keys.shape[1] > 1:
            h = (keys.shape[1] + 1) // 2
            distinct, keys = _distinct(keys[:, :h] * n + keys[:, -h:])
            n = len(distinct)
        if 2 * n > len(rows):
            break
        pick = np.empty(n, dtype=np.intp)  # a row of each distinct code
        pick[keys[:, 0]] = np.arange(len(rows))
        sep = "," + ind[k + 1]
        texts = [f"[{ind[k + 1]}{sep.join(map(texts.__getitem__, row))}"
                 f"{ind[k]}]" for row in rows[pick].tolist()]
        codes = keys[:, 0].reshape(a.shape[:k])
    dims, depth = codes.shape, codes.ndim
    out.append("".join("[" + ind[d] for d in range(1, depth + 1)))
    # the slots of the leaves, each followed by its separator; taken before
    # the temporaries below, so that those are freed as one block
    start = len(out)
    out.extend(itertools.repeat("", 2 * codes.size - 1))
    # seps[r] closes the r innermost lists, writes the comma, opens r again
    seps = ["".join(ind[depth - j] + "]" for j in range(1, r + 1)) + ","
            + ind[depth - r]
            + "".join("[" + ind[d] for d in range(depth - r + 1, depth + 1))
            for r in range(depth)]
    # before leaf i > 0, r counts the trailing axes whose index rolls over
    index = np.arange(1, codes.size)
    rolls = np.zeros(codes.size - 1, dtype=np.intp)
    stride = 1
    for size in dims[:0:-1]:
        stride *= size
        rolls += index % stride == 0
    out[start::2] = map(texts.__getitem__, codes.ravel().tolist())
    out[start + 1::2] = map(seps.__getitem__, rolls.tolist())
    out.append("".join(ind[d] + "]" for d in range(depth - 1, -1, -1)))
