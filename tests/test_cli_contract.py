"""Generated CLI contract: command lines drawn from build_parser()'s actions.

Every option of every subcommand is drawn from its action, so an option
added to the parser is covered without editing this file. Sizes are
bounded so that every draw is cheap: --n at most 5, --budget at most 2,
--instances at most 3 and every other integer option at most 3; a comma
list (such as --sizes or --t-grid) takes its entries from the same numbers
as a float option, with empty ones. Any command line must exit 0, 2, 3 or
64; exit 2 writes the JSON error document; exit 0 writes JSON with
schema_version or a documented CSV header; and the same argv gives the same
bytes twice.
"""
import argparse
import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from branchkit import serialize as ser
from branchkit.cli import build_parser, main
from branchkit.codes import CodeSpec
from branchkit.qsim import QuantumState

NUMBERS = ("0", "-0", "1", "2", "3", "-1", "0.0", "-0.0", "1e-300", "1e308",
           "inf", "-inf", "nan")
INT_TOP = {"n": 5, "budget": 2, "instances": 3}
CSV_HEADERS = ("t,c_i,c_d,invariant_drift\n",
               "t,witness_objective,ci_lower,ci_upper,cd_lower,cd_upper,"
               "truncated\n")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Input files of every kind: a state, a code, malformed JSON, a missing
    path, and the path that --output writes."""
    root = tmp_path_factory.mktemp("contract")
    state, code, bad = root / "state.json", root / "code.json", root / "bad.json"
    state.write_text(ser.dumps(ser.to_json(QuantumState.basis(2, 3))))
    code.write_text(ser.dumps(ser.to_json(CodeSpec(
        (QuantumState.basis(3, 0), QuantumState.basis(3, 7)), ("XII",)))))
    bad.write_text("{")
    return {"inputs": [str(state), str(code), str(bad), str(root / "none")],
            "output": root / "out"}


def _text(paths):
    """A free-text value: a comma list of numbers with empty entries, or
    one of the input paths."""
    entry = st.sampled_from(NUMBERS + ("",))
    commas = st.lists(entry, min_size=1, max_size=3).map(",".join)
    return st.one_of(commas, st.sampled_from(paths))


def _option(action, files):
    """The tokens of one option, drawn from its action."""
    flag = action.option_strings[0]
    if action.nargs == 0:
        return st.just([flag])
    if action.dest == "output":
        return st.just([f"{flag}={files['output']}"])
    if action.choices:
        values = st.sampled_from(sorted(action.choices))
    elif action.type is int:
        values = st.integers(-1, INT_TOP.get(action.dest, 3)).map(str)
    elif action.type is float:
        values = st.sampled_from(NUMBERS)
    else:
        values = _text(files["inputs"])
    return values.map(lambda v: [f"{flag}={v}"])


@st.composite
def command_lines(draw, files):
    """A subcommand with its required options (one member of a required
    group) and up to three other options."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    command = draw(st.sampled_from(sorted(sub.choices)))
    parser = sub.choices[command]
    actions = [a for a in parser._actions
               if a.option_strings and a.dest != "help"]
    given = [a for a in actions if a.required] + [
        draw(st.sampled_from(group._group_actions))
        for group in parser._mutually_exclusive_groups if group.required]
    given += draw(st.lists(st.sampled_from([a for a in actions
                                            if a not in given]),
                           max_size=3, unique=True))
    argv = [command]
    for action in sorted(given, key=actions.index):
        argv += draw(_option(action, files))
    return argv


def run(argv, output):
    """(exit code, output text, stderr text) of one in-process run."""
    output.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    text = output.read_text() if output.exists() else out.getvalue()
    return code, text, err.getvalue()


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_command_line_keeps_the_contract(files, data):
    argv = data.draw(command_lines(files), label="argv")
    code, out, err = run(argv, files["output"])
    assert code in (0, 2, 3, 64)
    if code == 2:
        doc = json.loads(err)
        assert isinstance(doc["error"], str) and doc["type"]
    if code == 0:
        assert (out.startswith(CSV_HEADERS)
                or "schema_version" in json.loads(out))
    assert run(argv, files["output"]) == (code, out, err)
