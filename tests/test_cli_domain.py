"""``entconc cascade``, ``hom``, ``sweep-coupling`` and ``tomo`` over their
whole config domains, run in-process: every draw exits 0 or 2, nothing
escapes ``cli.main``, no warning is raised, a table that is printed holds
finite concurrences, rates, probabilities and fidelities in [0, 1], and a
``tomo`` run that exits 2 names a key and its value."""

import contextlib
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entconc.cli import KEYS, main

SQ3 = 1.0 / np.sqrt(3)
EDGE_TS = [0.0, 0.5, 1.0, float(SQ3), float(1 - SQ3), 5e-324, 1e-160, 1 - 1e-16]
T = st.sampled_from(EDGE_TS) | st.floats(0.0, 1.0)
P = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
EPS = st.sampled_from([1.0, 5e-324]) | st.floats(0.0, 1.0, exclude_min=True)


def _grid(values):
    """A comma-separated list of up to 8 draws, empty included."""
    return st.lists(values, max_size=8).map(lambda xs: ",".join(map(repr, xs)))


# One strategy per key of each command's table, inside the key's domain.
VALUES = {
    "cascade": {
        "n_max": st.integers(1, 1100).map(str),
        # A pattern of T's repeated to a length of up to 1100.
        "t_list": st.tuples(st.lists(T, min_size=1, max_size=4), st.integers(1, 1100)).map(
            lambda pn: ",".join(repr(pn[0][i % len(pn[0])]) for i in range(pn[1]))
        ),
        "t": T.map(repr),
        "eps_list": st.lists(EPS, max_size=3).map(lambda es: ",".join(map(repr, es))),
        "p": P,
    },
    "hom": {"overlap_grid": _grid(P), "t": T.map(repr)},
    "sweep-coupling": {
        "t_grid": _grid(T),
        "t_min": T.map(repr),
        "t_max": T.map(repr),
        "t_steps": st.integers(1, 8).map(str),
        "p": P,
    },
    "tomo": {
        "state": st.sampled_from(["singlet", "sigma2", "sigma3"]),
        "t": T.map(repr),
        "eps": EPS.map(repr),
        "shots": (st.sampled_from([0, 1, 10**5]) | st.integers(0, 10**5)).map(str),
        "seed": st.integers(0, 2**32 - 1).map(str),
    },
}


def _draws(command, required=()):
    """Settings of ``command``'s keys, the ``required`` ones in every draw."""
    keys = VALUES[command]
    optional = {k: v for k, v in keys.items() if k not in required}
    return st.fixed_dictionaries({k: keys[k] for k in required}, optional=optional)


# Without t_steps a sweep runs its 101-point default grid.
SWEEPS = _draws("sweep-coupling", required=("t_steps",))


def _run(command: str, sets: dict[str, str]):
    """Exit code, parsed JSON table and stderr of ``entconc <command>`` with
    ``sets``, any warning raised as an error."""
    argv = [command, "--format", "json"]
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        with contextlib.redirect_stderr(err):
            code = main(argv)
    # The notes follow the table on stdout.
    rows = json.JSONDecoder().raw_decode(out.getvalue())[0] if code == 0 else None
    return code, rows, err.getvalue()


def _check(code, rows, index=()):
    """A documented exit code; on exit 0, every cell but the ``index``
    columns finite and in [0, 1]."""
    assert code in (0, 2)
    if code == 2:
        return
    for row in rows:
        cells = {k: v for k, v in row.items() if k not in index}
        values = np.array(list(cells.values()))
        assert np.isfinite(values).all()
        assert (values >= 0.0).all(), row
        assert (values <= 1.0).all(), row


@pytest.mark.parametrize("command", sorted(VALUES))
def test_every_key_has_a_strategy(command):
    assert set(VALUES[command]) == set(KEYS[command])


@settings(max_examples=100, deadline=None)
@given(sets=_draws("cascade"))
@example(sets={"t": "0.4", "n_max": "148"})
@example(sets={"t": "0.4", "n_max": "296"})
@example(sets={"t": "0.4", "n_max": "1100"})
@example(sets={"t_list": "1e-160,0.3", "n_max": "2"})
@example(sets={"p": "0", "t_list": "0.5,1e-160", "n_max": "2"})
def test_cascade_domain(sets):
    _check(*_run("cascade", sets)[:2], index=("N",))


@settings(max_examples=100, deadline=None)
@given(sets=_draws("hom"))
@example(sets={"t": "0.4", "overlap_grid": "0.0,0.3,0.85,1.0"})
@example(sets={"t": "1.0"})
@example(sets={"t": "5e-324"})
@example(sets={"overlap_grid": ""})
def test_hom_domain(sets):
    _check(*_run("hom", sets)[:2])


def test_hom_p_recovered_at_most_one():
    # visibility * c_dist / (c_dist - c_id) printed 1.0000000000000002 here at overlap 1.
    code, rows, _ = _run("hom", {"t": "0.35154449402376337"})
    _check(code, rows)
    assert rows[-1]["overlap"] == 1.0 and rows[-1]["p_recovered"] == 1.0


@settings(max_examples=100, deadline=None)
@given(sets=SWEEPS)
@example(sets={"t_steps": "8", "p": "0.85"})
@example(sets={"t_steps": "1", "t_min": "0.5", "p": "0.0"})
@example(sets={"t_steps": "3", "t_grid": "5e-324,0.49999999999999994,1.0"})
@example(sets={"t_steps": "2", "t_min": "1.0", "t_max": "0.0"})
@example(sets={"t_steps": "8", "t_grid": ""})
def test_sweep_coupling_domain(sets):
    _check(*_run("sweep-coupling", sets)[:2])


def test_sweep_coupling_success_prob_at_most_one():
    # The coupling weight at T = 0 and 1 printed 1.0000000000000002 here.
    code, rows, _ = _run("sweep-coupling", {"t_steps": "8", "p": "0.85"})
    _check(code, rows)
    assert [r["P_success"] for r in rows if r["T"] in (0.0, 1.0)] == [1.0, 1.0]


def _named(err: str, sets: dict[str, str]) -> list[str]:
    """The keys whose value stderr names as ``key=value``, case aside."""
    return [k for k, v in sets.items() if re.search(rf"\b{k}={re.escape(v)}\b", err, re.I)]


@settings(max_examples=100, deadline=None)
@given(sets=_draws("tomo"))
@example(sets={"state": "sigma3", "t": "0.0"})
@example(sets={"state": "sigma3", "t": "1.0", "eps": "5e-324"})
@example(sets={"state": "sigma2", "t": "1e-160", "shots": "1"})
@example(sets={"state": "singlet", "shots": "100000", "seed": "0"})
def test_tomo_domain(sets):
    code, rows, err = _run("tomo", sets)
    _check(code, rows, index=("state", "shots", "seed"))
    if code == 2:
        # The reader fills in the keys that were not drawn.
        assert _named(err, {"t": "0.4", "eps": "0.25", **sets}), err


@pytest.mark.xfail(
    strict=True,
    reason="sigma3 at a subnormal eps has zero measure at every T, and the error names only T",
)
def test_tomo_zero_measure_names_eps():
    sets = {"state": "sigma3", "t": "0.4", "eps": "5e-324"}
    code, _, err = _run("tomo", sets)
    assert code == 2
    assert "eps" in _named(err, sets), err


def test_deep_chain_closed_form_matches_simulation():
    code, rows, _ = _run("cascade", {"t": "0.4", "n_max": "300"})
    assert code == 0
    for row in rows:
        assert abs(row["C_closed"] - row["C_sim"]) <= 1e-12 * row["C_sim"]


def test_tiny_first_coupling():
    code, rows, _ = _run("cascade", {"t_list": "1e-160,0.3", "n_max": "2"})
    assert code == 0
    assert abs(rows[1]["C_closed"] - rows[1]["C_sim"]) <= 1e-12 * rows[1]["C_sim"]
    assert f"{rows[1]['C_closed']:.12g}" == "3.24324324324e-161"


def test_subnormal_chain_at_p_zero_succeeds():
    assert _run("cascade", {"p": "0", "t_list": "0.5,1e-160", "n_max": "2"})[0] == 0


def test_sim_keeps_the_last_bit_of_t_minus_r_below_half():
    # T - R is 2T - 1 in the coupling too, so C_sim is the closed form here.
    code, rows, _ = _run("cascade", {"t_list": "0.49999999999999994", "n_max": "1"})
    assert code == 0
    assert rows[0]["C_sim"] == rows[0]["C_closed"] == 2.220446049250313e-16
