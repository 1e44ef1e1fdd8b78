"""CLI outputs against committed golden files.

The files under tests/data/golden were written by the CLI at commit 1976df0,
before the mesh became array-native, except verify_basis_p2.json, written at
commit 93a905c, before one evaluator replaced the per-polynomial one, and
conv_h_planewave_p2_l3.* and singular_p2_l3*, written at commit 0f709ac, before
the mesh kept only its grid lines, and conv_p_planewave_l3.*, written at commit
06325ac, before march assembled and screened one slab operator ahead of its loop:
its cond2 column is that operator's SVD cond2.
Numeric cells must agree to 1e-12 relative, every other cell exactly.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from schrodg.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
RTOL = 1e-12

RUNS = {
    "conv_h_p2_l3": ["conv-h", "--p", "2", "--levels", "3"],
    "conv_h_planewave_p2_l3": ["conv-h", "--space", "planewave", "--p", "2", "--levels", "3"],
    "singular_p1_l3": ["singular", "--p", "1", "--levels", "3"],
    "singular_p2_l3": ["singular", "--p", "2", "--levels", "3"],
    "conditioning_p1_l3": ["conditioning", "--p", "1", "--levels", "3"],
    "conv_p_l2": ["conv-p", "--levels", "2"],
    "conv_p_planewave_l3": ["conv-p", "--space", "planewave", "--levels", "3"],
    "verify_basis_p2": ["verify-basis", "--p", "2"],
}


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def assert_same(got, want, where):
    if isinstance(want, bool) or want is None or isinstance(want, str):
        assert got == want, where
    elif isinstance(want, (int, float)):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0), (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    else:
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")


def assert_same_csv(got: Path, want: Path):
    with open(got, newline="") as fg, open(want, newline="") as fw:
        rows_got, rows_want = list(csv.reader(fg)), list(csv.reader(fw))
    assert len(rows_got) == len(rows_want), got.name
    for r, (row_got, row_want) in enumerate(zip(rows_got, rows_want)):
        assert len(row_got) == len(row_want), (got.name, r)
        for cell_got, cell_want in zip(row_got, row_want):
            g, w = _number(cell_got), _number(cell_want)
            if w is None:
                assert cell_got == cell_want, (got.name, r)
            else:
                assert g is not None, (got.name, r)
                assert math.isclose(g, w, rel_tol=RTOL, abs_tol=0.0), (got.name, r, g, w)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_matches_golden_outputs(name, tmp_path):
    suffix = ".json" if RUNS[name][0] == "verify-basis" else ".csv"  # as the CLI default
    assert main(RUNS[name] + ["--out", str(tmp_path / f"{name}{suffix}")]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in GOLDEN.glob(f"{name}[._]*"))
    for file in written:
        if file.endswith(".json"):
            with open(tmp_path / file) as fg, open(GOLDEN / file) as fw:
                assert_same(json.load(fg), json.load(fw), file)
        else:
            assert_same_csv(tmp_path / file, GOLDEN / file)
