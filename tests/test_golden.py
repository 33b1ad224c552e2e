"""Byte-exact golden outputs of the CLI.

Each case runs ``qcb`` in-process and compares the bytes it writes with the
file of the same name under ``tests/golden/``; each ``canonical`` case is
compared twice, written with ``--output`` and printed on standard output.  The ``marsh`` and ``apath``
cases pin the order in which vector terms are printed, and how each format
writes their coefficients; the ``canonical``
cases pin whole-module and single-weight matrices (JSON, CSV and TeX),
including a weight outside the module (empty lists); the
``crystal`` cases pin the vertex and edge lists of two spin modules.  The
two ``_string`` cases run B2 (2,3), whose raising walks take crystal-string
steps (``canonical._string_step``).

Regenerate the files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import sys

import pytest

from qcb.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = {
    "marsh_B3.json": ["--type", "B", "--rank", "3", "marsh", "--column", "0,0,0"],
    "marsh_B3.csv": ["--type", "B", "--rank", "3", "marsh", "--column", "0,0,0", "--format", "csv"],
    "marsh_D4.json": ["--type", "D", "--rank", "4", "marsh", "--column", "4,-4,4,-4"],
    "marsh_D4.tex": ["--type", "D", "--rank", "4", "marsh", "--column", "4,-4,4,-4", "--format", "tex"],
    "apath_B3.json": ["--type", "B", "--rank", "3", "apath", "--tabloid", "2,0,0/2,-3/3"],
    "apath_B3.csv": ["--type", "B", "--rank", "3", "apath", "--tabloid", "2,0,0/2,-3/3", "--format", "csv"],
    "apath_B3.tex": ["--type", "B", "--rank", "3", "apath", "--tabloid", "2,0,0/2,-3/3", "--format", "tex"],
    "apath_B3_spin.json": ["--type", "B", "--rank", "3", "apath", "--tabloid", "s:-1,2,3/-2"],
    "apath_B4_spin.json": ["--type", "B", "--rank", "4", "apath", "--tabloid", "s:-1,-2,3,-4/4,-2"],
    "apath_D4.json": ["--type", "D", "--rank", "4", "apath", "--tabloid", "2,-2/-2"],
    "apath_D4_spin.json": ["--type", "D", "--rank", "4", "apath", "--tabloid", "s:-1,-2,-3,4/2,-4"],
    "apath_B2_string.json": ["--type", "B", "--rank", "2", "apath", "--tabloid", "s:1,-2/1,0/1/-2"],
    "canonical_B2.json": ["--type", "B", "--rank", "2", "canonical", "--lambda", "1,1"],
    "canonical_B2.csv": ["--type", "B", "--rank", "2", "canonical", "--lambda", "1,1", "--format", "csv"],
    "canonical_B2_outside_weight.json": [
        "--type", "B", "--rank", "2", "canonical", "--lambda", "1,1", "--weight", "3,0",
    ],
    "canonical_D3.json": ["--type", "D", "--rank", "3", "canonical", "--lambda", "0,1,1"],
    "canonical_D3.tex": ["--type", "D", "--rank", "3", "canonical", "--lambda", "0,1,1", "--format", "tex"],
    "canonical_B3_weight.json": [
        "--type", "B", "--rank", "3", "canonical", "--lambda", "1,1,2", "--weight", "0,2,-1",
    ],
    "canonical_B3_spin.json": ["--type", "B", "--rank", "3", "canonical", "--lambda", "0,1,1"],
    "canonical_B2_string_weight.json": [
        "--type", "B", "--rank", "2", "canonical", "--lambda", "2,3", "--weight", "5/2,-3/2",
    ],
    "canonical_D4_spin.json": ["--type", "D", "--rank", "4", "canonical", "--lambda", "0,1,0,1"],
    "canonical_B4_spin_weight.json": [
        "--type", "B", "--rank", "4", "canonical", "--lambda", "1,1,0,1", "--weight", "1/2,1/2,1/2,1/2",
    ],
    "canonical_D4_weight.json": [
        "--type", "D", "--rank", "4", "canonical", "--lambda", "0,1,1,1", "--weight", "1,0,0,0",
    ],
    "canonical_D4_minus.json": ["--type", "D", "--rank", "4", "canonical", "--lambda", "0,0,3,0"],
    "canonical_D4_spin_weight.json": [
        "--type", "D", "--rank", "4", "canonical", "--lambda", "1,0,2,1", "--weight", "3/2,1/2,1/2,1/2",
    ],
    "crystal_B3_spin.json": ["--type", "B", "--rank", "3", "crystal", "--lambda", "0,1,1"],
    "crystal_D4_spin.json": ["--type", "D", "--rank", "4", "crystal", "--lambda", "0,1,0,1"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    out = tmp_path / name
    assert main(CASES[name] + ["--output", str(out)]) == 0
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        assert out.read_bytes() == fh.read()


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.startswith("canonical_")))
def test_golden_output_on_stdout(name, capsys):
    """Without ``--output`` the same bytes go to standard output."""
    assert main(CASES[name]) == 0
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        assert capsys.readouterr().out.encode() == fh.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, argv in sorted(CASES.items()):
        code = main(argv + ["--output", os.path.join(GOLDEN_DIR, name)])
        if code:
            sys.exit(f"{name}: exit code {code}")
