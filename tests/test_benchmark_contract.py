"""The benchmark's calls, run in-process and checked as the benchmark checks them.

``perfbench/`` builds each workload's ops from a seed and checks every
call's output against closed forms, or against the Fock oracle at p < 1.  A
change that moves a name those checks import, changes a message an op
expects, or gets a cell wrong fails here, in tier-1, instead of only when
the benchmark runs.  The benchmark's files are read, never changed.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from entconc.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SEED = 1
OPS = [(name, op) for name, build in workloads.WORKLOADS.items() for op in build(SEED)]


def _run(call) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(call.argv)
    data = out.getvalue()
    if call.out_file and rc == 0:
        # The benchmark's subprocess runner checks the --out file, then stdout.
        data = Path(call.out_file).read_text() + data
    return rc, data, err.getvalue()


@pytest.mark.parametrize(
    "op", [op for _, op in OPS], ids=[f"{name}-{i}-{op.name}" for i, (name, op) in enumerate(OPS)]
)
def test_op_passes_its_check(op, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    results = [_run(call) for call in op.calls]
    if op.known_failure:
        assert [rc for rc, _, _ in results] == [2]
        assert op.known_failure in results[0][2]
        return
    for call, (rc, data, err) in zip(op.calls, results):
        assert rc == 0, err
        assert call.check(data) > 0
