"""CLI output against committed reference files.

``tests/golden/cases.json`` lists the five criterion-9 configs and the five
README examples; each case's data output is ``tests/golden/<name>.out`` and
its printed notes are stored beside its argv.  The files were written by
``python -m entconc.cli <argv> --out tests/golden/<name>.out``.

Cells are compared as numbers at a relative 1e-12, not as bytes: another
LAPACK build may round the last digit differently.  A CSV cell is printed
with 12 significant digits, so it may also differ by one unit in its last
digit; a cell that is exactly 0 may come back as roundoff below 1e-15.
"""

import csv
import io
import json
import math
from pathlib import Path

import pytest

from entconc.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
REL = 1e-12
ZERO = 1e-15


def _table(text: str, is_json: bool) -> list[list]:
    if is_json:
        rows = json.loads(text)
        return [list(rows[0])] + [list(r.values()) for r in rows]
    return list(csv.reader(io.StringIO(text)))


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _close(got, want, printed_digits: int | None) -> bool:
    g, w = _number(got), _number(want)
    if g is None or w is None:
        return got == want
    tol = max(REL * abs(w), ZERO)
    if printed_digits and w != 0.0:
        tol += 10.0 ** (math.floor(math.log10(abs(w))) - printed_digits + 1)
    return abs(g - w) <= tol


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path, capsys):
    case = CASES[name]
    out = tmp_path / f"{name}.out"
    assert main(case["argv"] + ["--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == case["notes"]
    is_json = "json" in case["argv"]
    got = _table(out.read_text(), is_json)
    want = _table((GOLDEN / f"{name}.out").read_text(), is_json)
    assert got[0] == want[0]
    assert len(got) == len(want)
    for row_got, row_want in zip(got[1:], want[1:]):
        for col, g, w in zip(want[0], row_got, row_want):
            assert _close(g, w, None if is_json else 12), f"{name}: {col} {g} vs {w}"
