"""``entconc cascade``, ``hom`` and ``sweep-coupling`` over their whole
config domains, run in-process: every draw exits 0 or 2, nothing escapes
``cli.main``, no warning is raised, and a table that is printed holds finite
concurrences, rates and probabilities in [0, 1]."""

import contextlib
import io
import json
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
}


def _draws(command, required=()):
    """Settings of ``command``'s keys, the ``required`` ones in every draw."""
    keys = VALUES[command]
    optional = {k: v for k, v in keys.items() if k not in required}
    return st.fixed_dictionaries({k: keys[k] for k in required}, optional=optional)


# Without t_steps a sweep runs its 101-point default grid.
SWEEPS = _draws("sweep-coupling", required=("t_steps",))


def _run(command: str, sets: dict[str, str]):
    """Exit code and parsed JSON table of ``entconc <command>`` with ``sets``,
    any warning raised as an error."""
    argv = [command, "--format", "json"]
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        with contextlib.redirect_stderr(err):
            code = main(argv)
    # The notes follow the table on stdout.
    return code, json.JSONDecoder().raw_decode(out.getvalue())[0] if code == 0 else None


def _cascade(sets: dict[str, str]):
    return _run("cascade", sets)


def _check(code, rows, index=(), uncapped=()):
    """A documented exit code; on exit 0, every cell but the ``index``
    columns finite and in [0, 1], the ``uncapped`` ones only >= 0."""
    assert code in (0, 2)
    if code == 2:
        return
    for row in rows:
        cells = {k: v for k, v in row.items() if k not in index}
        values = np.array(list(cells.values()))
        capped = np.array([v for k, v in cells.items() if k not in uncapped])
        assert np.isfinite(values).all()
        assert (values >= 0.0).all(), row
        assert (capped <= 1.0).all(), row


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
    _check(*_cascade(sets), index=("N",))


@settings(max_examples=100, deadline=None)
@given(sets=_draws("hom"))
@example(sets={"t": "0.4", "overlap_grid": "0.0,0.3,0.85,1.0"})
@example(sets={"t": "1.0"})
@example(sets={"t": "5e-324"})
@example(sets={"overlap_grid": ""})
def test_hom_domain(sets):
    # Every bound but p_recovered <= 1, which the test below checks.
    _check(*_run("hom", sets), uncapped=("p_recovered",))


@pytest.mark.xfail(
    strict=True,
    reason="p_recovered at overlap 1 is visibility * c_dist / (c_dist - c_id), "
    "which can round to 1.0000000000000002",
)
@settings(max_examples=100, deadline=None)
@given(sets=_draws("hom"))
@example(sets={"t": "0.35154449402376337"})
def test_hom_p_recovered_at_most_one(sets):
    _check(*_run("hom", sets))


@settings(max_examples=100, deadline=None)
@given(sets=SWEEPS)
@example(sets={"t_steps": "8", "p": "0.85"})
@example(sets={"t_steps": "1", "t_min": "0.5", "p": "0.0"})
@example(sets={"t_steps": "3", "t_grid": "5e-324,0.49999999999999994,1.0"})
@example(sets={"t_steps": "2", "t_min": "1.0", "t_max": "0.0"})
@example(sets={"t_steps": "8", "t_grid": ""})
def test_sweep_coupling_domain(sets):
    # Every bound but P_success <= 1, which the test below checks.
    _check(*_run("sweep-coupling", sets), uncapped=("P_success",))


@pytest.mark.xfail(
    strict=True,
    reason="P_success is p + (1 - p) at T = 0 or 1, which rounds to 1.0000000000000002",
)
@settings(max_examples=100, deadline=None)
@given(sets=SWEEPS)
@example(sets={"t_steps": "8", "p": "0.85"})
def test_sweep_coupling_success_prob_at_most_one(sets):
    _check(*_run("sweep-coupling", sets))


def test_deep_chain_closed_form_matches_simulation():
    code, rows = _cascade({"t": "0.4", "n_max": "300"})
    assert code == 0
    for row in rows:
        assert abs(row["C_closed"] - row["C_sim"]) <= 1e-12 * row["C_sim"]


def test_tiny_first_coupling():
    code, rows = _cascade({"t_list": "1e-160,0.3", "n_max": "2"})
    assert code == 0
    assert abs(rows[1]["C_closed"] - rows[1]["C_sim"]) <= 1e-12 * rows[1]["C_sim"]
    assert f"{rows[1]['C_closed']:.12g}" == "3.24324324324e-161"


def test_subnormal_chain_at_p_zero_succeeds():
    assert _cascade({"p": "0", "t_list": "0.5,1e-160", "n_max": "2"})[0] == 0


def test_sim_keeps_the_last_bit_of_t_minus_r_below_half():
    # T - R is 2T - 1 in the coupling too, so C_sim is the closed form here.
    code, rows = _cascade({"t_list": "0.49999999999999994", "n_max": "1"})
    assert code == 0
    assert rows[0]["C_sim"] == rows[0]["C_closed"] == 2.220446049250313e-16
