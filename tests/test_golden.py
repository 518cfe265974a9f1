"""Byte-exact stdout of every CLI example in the README.

Each golden file under tests/golden/ holds the stdout of one command line;
the flow CSV (about 665 KB) is pinned by its SHA-256 and byte count instead,
and so is the 23 MB qec document of the 3x3 parity code, which is not a
README example.
"""
import hashlib
from pathlib import Path

import pytest

from branchkit.cli import main

GOLDEN = Path(__file__).parent / "golden"

README = Path(__file__).parent.parent / "README.md"

README_EXAMPLES = {
    "example": "example --example two-random --n 4 --seed 1",
    "verdict": "verdict --example ghz --n 4 --seed 1 --threshold 1",
    "estimate": "estimate --kind interference --example ghz --n 2 --delta 0.9",
    "qec": "qec --code repetition --m1 3 --errors identity,single-x",
    "surface": "surface --long-cycle 100 --short-cycle 3 --p 1e-3 --c-const 1",
    "flow": "flow --k 1 --rate 1 --ci0 5 --cd0 1 --t-end 10",
    "evolve_track": "evolve --mode track --example ghz --n 4 --seed 1 "
                    "--t-grid 0,1,2",
    "evolve_freeze": "evolve --mode freeze --n 4 --seed 3 --t-grid 0,1,2,5",
    "evolve_eth": "evolve --mode eth --sizes 6,8,10",
    "props": "props --n 3 --instances 100 --seed 7",
    "gap": "gap --example ghz --n 3 --budget 2 --phases 8",
}


@pytest.mark.parametrize("name", sorted(README_EXAMPLES))
def test_readme_example_stdout(name, capsys):
    code = main(README_EXAMPLES[name].split())
    out = capsys.readouterr().out.encode()
    assert code == 0
    digest = GOLDEN / f"{name}.sha256"
    if digest.exists():
        sha, size = digest.read_text().split()
        assert (hashlib.sha256(out).hexdigest(), len(out)) == (sha, int(size))
    else:
        assert out == (GOLDEN / f"{name}.out").read_bytes()


def test_readme_lists_exactly_the_pinned_examples():
    lines = [line.split("#")[0].split()[1:]
             for line in README.read_text().splitlines()
             if line.startswith("branchkit ")]
    assert [" ".join(words) for words in lines] == list(README_EXAMPLES.values())


def weight_two_paulis(n: int) -> list[str]:
    """The identity, every weight-1 Pauli string, then every weight-2 one."""
    out = ["I" * n]
    for q in range(n):
        for p in "XYZ":
            out.append("I" * q + p + "I" * (n - q - 1))
    for q0 in range(n):
        for q1 in range(q0 + 1, n):
            for p0 in "XYZ":
                for p1 in "XYZ":
                    s = ["I"] * n
                    s[q0], s[q1] = p0, p1
                    out.append("".join(s))
    return out


def test_parity_3x3_qec_document(capsys):
    errors = weight_two_paulis(9)
    assert len(errors) == 352
    code = main(["qec", "--code", "parity", "--m1", "3", "--m2", "3",
                 "--errors", ",".join(errors)])
    out = capsys.readouterr().out.encode()
    assert code == 0
    sha, size = (GOLDEN / "qec_parity_3x3.sha256").read_text().split()
    assert (hashlib.sha256(out).hexdigest(), len(out)) == (sha, int(size))
