"""`serialize.dumps` against the standard library's indent-2 JSON layout.

`json.dumps` writes each document, and `_write_tensor` splices every
non-empty float64 array in at the indentation of the line that holds it, so
every tree shape it can meet is checked against
`json.dumps(doc, indent=2, allow_nan=True) + "\\n"`, byte for byte, with an
array taken as its `tolist()`.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchkit import serialize as ser
from branchkit.cli import main


def reference(doc) -> str:
    return json.dumps(doc, indent=2, allow_nan=True,
                      default=np.ndarray.tolist) + "\n"


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


@st.composite
def arrays(draw):
    """A numpy array: float64 with 0-4 axes, maybe a transposed or strided
    view or heavy repeats of -0.0, 0.0, NaN and one other float; one with a
    zero-length axis, an int or a bool array, or a complex array as
    `_encode` gives it."""
    shape = draw(st.lists(st.integers(1, 3), max_size=4))
    size = math.prod(shape)
    kind = draw(st.sampled_from(["float", "transposed", "strided", "repeats",
                                 "empty", "int", "bool", "complex"]))
    if kind == "empty":
        shape.insert(draw(st.integers(0, len(shape))), 0)
        return np.zeros(shape)
    if kind == "int":
        ints = st.integers(-2**63, 2**63 - 1)
        return np.array(draw(st.lists(ints, min_size=size, max_size=size)),
                        dtype=np.int64).reshape(shape)
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=size,
                                      max_size=size))).reshape(shape)
    if kind == "repeats":
        pool = st.sampled_from([-0.0, 0.0, math.nan, draw(floats)])
        return np.array(draw(st.lists(pool, min_size=size, max_size=size)),
                        dtype=float).reshape(shape)
    if kind == "transposed":
        leaves = draw(st.lists(floats, min_size=size, max_size=size))
        return np.array(leaves, dtype=float).reshape(shape[::-1]).T
    if kind == "strided":
        leaves = draw(st.lists(floats, min_size=2 * size, max_size=2 * size))
        return np.array(leaves, dtype=float)[::2].reshape(shape)
    leaves = st.lists(floats, min_size=size, max_size=size)
    re = np.array(draw(leaves), dtype=float).reshape(shape)
    if kind == "float":
        return re
    z = np.array(list(map(complex, re.ravel(), draw(leaves)))).reshape(shape)
    return ser._encode(z)


trees = st.recursive(
    scalars | tensors() | arrays(),
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


TENSOR = np.array([[1.5, -0.0], [math.nan, 1e-7]])
PLACEHOLDER = "branchkit.serialize: float64 array"  # stands in for a TENSOR


@pytest.mark.parametrize("doc", [
    TENSOR,
    (1, TENSOR, [TENSOR[0]]),
    {"\u03b5\u2081": TENSOR, "k": {"\U0001d4c8": [np.float64(2.0), TENSOR]}},
    [np.zeros((2, 0)), np.arange(3), np.array(7.0), np.array([True])],
], ids=["top-level", "in-a-tuple", "non-ascii-key", "0d-empty-int-bool"])
def test_dumps_places_each_float64_array(doc):
    assert ser.dumps(doc) == reference(doc)


# innermost rows to build arrays from: the first two differ only in the sign
# of a zero
ROWS = np.array([[0.0, 1.5], [-0.0, 1.5], [math.nan, math.inf],
                 [-math.inf, math.nan], [1e-7, -0.0]])


@pytest.mark.parametrize("index, leaves", [
    # patterns of rows, the first two apart only in the sign of one zero:
    # in the first column, and in the middle one of an odd count
    (np.array([[0, 2, 3, 4, 0, 1, 2, 3, 4, 0], [1, 2, 3, 4, 0, 1, 2, 3, 4, 0],
               [4, 3, 2, 1, 0, 4, 3, 2, 1, 0]])[np.arange(12) % 3], 12),
    (np.array([[[0, 1], [2, 3], [4, 0], [1, 1], [2, 2]],
               [[0, 1], [2, 3], [4, 1], [1, 1], [2, 2]]])[np.arange(6) % 2], 6),
    (np.array([[0, 1, 2], [2, 1, 0], [3, 4, 0], [1, 0, 2]]), 12),
], ids=["12x10x2", "6x5x2x2", "innermost-only"])
def test_dumps_folds_the_axes_whose_rows_repeat(index, leaves):
    a = ROWS[index]
    out = []
    ser._write_tensor(a, 2, out)
    # every axis but the outermost, or only the innermost, was folded: what
    # is left is written flat, an opening, leaves, separators and a closing
    assert len(out) == 2 * leaves + 1
    doc = {"t": [a, a[0]]}
    assert ser.dumps(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    {"a": PLACEHOLDER},
    {PLACEHOLDER: 1.0, "b": TENSOR},
], ids=["string-value", "dict-key"])
def test_dumps_refuses_the_array_placeholder(doc):
    with pytest.raises(ValueError, match="float64 array"):
        ser.dumps(doc)


def test_dumps_refuses_what_json_cannot_write():
    with pytest.raises(TypeError, match="Object of type complex is not JSON"):
        ser.dumps({"z": 1j})
