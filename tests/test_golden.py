"""CLI output against committed reference files.

``tests/golden/cases.json`` lists the five criterion-9 configs, the five
README examples and six ``table_*`` cases that fill whole ``protocol``,
``cascade``, ``sweep-coupling`` and ``hom`` tables (many T points and eps
values, raw filters, feed-forward, a depth-24 cascade at p = 0.85, a
12-coupling cascade at p = 0.3 with its own T at each depth
(``t_list``), a 129-point sweep at p = 0.85 that spans several coupling stacks, and a
53-overlap HOM dip at T = 0.4, where no coincidence rate is 0); each case's
data output is
``tests/golden/<name>.out`` and its printed notes are stored beside its argv.
The files were written by
``python -m entconc.cli <argv> --out tests/golden/<name>.out``.
``tests/golden/protocol_trace.json`` is the ``dump_trace`` file of
:data:`TRACE_ARGV`, written the same way with ``trace_out`` pointing at it.

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


TRACE_ARGV = [
    "protocol", "--set", "t_grid=0.2,0.45,0.8", "--set", "p=0.85",
    "--set", "feed_forward=true", "--set", "dump_trace=true",
]


def test_trace_dump_matches_golden(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert main(TRACE_ARGV + ["--set", f"trace_out={path}", "--out", str(tmp_path / "t.csv")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"trace dump written to {path}"
    got = json.loads(path.read_text())
    want = json.loads((GOLDEN / "protocol_trace.json").read_text())
    assert [g["T"] for g in got] == [w["T"] for w in want]
    for g, w in zip(got, want):
        assert [s["name"] for s in g["steps"]] == [s["name"] for s in w["steps"]]
        for gs, ws in zip(g["steps"], w["steps"]):
            assert _close(gs["prob"], ws["prob"], None)
            for grow, wrow in zip(gs["state"], ws["state"], strict=True):
                for gz, wz in zip(map(complex, grow), map(complex, wrow), strict=True):
                    assert _close(gz.real, wz.real, 12) and _close(gz.imag, wz.imag, 12)
