"""`serialize.dumps` against the standard library's indent-2 JSON layout.

The writer walks the document itself and writes regular nested float lists
in one step, so every tree shape it can meet is checked against
`json.dumps(doc, indent=2, allow_nan=True) + "\\n"`, byte for byte.
"""
import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from branchkit import serialize as ser
from branchkit.cli import main


def reference(doc) -> str:
    return json.dumps(doc, indent=2, allow_nan=True) + "\n"


SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7]
floats = st.floats() | st.sampled_from(SPECIAL)
scalars = (floats | floats.map(np.float64) | st.integers() | st.booleans()
           | st.none() | st.text())
keys = st.text() | st.integers() | floats | st.booleans() | st.none()


@st.composite
def tensors(draw):
    """A regular nested float list, sometimes spoiled: one leaf made an int
    or a bool, or one innermost list shortened (ragged) or emptied."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    size = math.prod(shape)
    leaves = draw(st.lists(floats, min_size=size, max_size=size))
    tree = np.array(leaves, dtype=float).reshape(shape).tolist()
    spoil = draw(st.sampled_from(["none", "int", "bool", "ragged", "empty"]))
    inner = tree
    while isinstance(inner[0], list):
        inner = inner[draw(st.integers(0, len(inner) - 1))]
    if spoil == "int":
        inner[0] = draw(st.integers())
    elif spoil == "bool":
        inner[-1] = draw(st.booleans())
    elif spoil == "ragged" and len(inner) > 1:
        inner.pop()
    elif spoil == "empty":
        inner.clear()
    return tree


trees = st.recursive(
    scalars | tensors(),
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(keys, children, max_size=4)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_dumps_matches_json_indent_2(doc):
    assert ser.dumps(doc) == reference(doc)


def test_qec_parity_document_matches_json(monkeypatch, capsys):
    written, write = [], ser.dumps

    def dumps(doc):
        written.append(doc)
        return write(doc)

    monkeypatch.setattr(ser, "dumps", dumps)
    code = main("qec --code parity --m1 2 --m2 2 --errors identity,single-x"
                .split())
    out = capsys.readouterr().out
    assert code == 0
    (doc,) = written
    assert np.asarray(doc["residuals"]["eps_mnij"]).ndim == 4
    assert out == reference(doc)
