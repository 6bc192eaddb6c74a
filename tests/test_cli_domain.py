"""``entconc cascade`` over its whole config domain, run in-process: every
draw exits 0 or 2, nothing escapes ``cli.main``, and a table that is
printed holds finite concurrences and probabilities in [0, 1]."""

import contextlib
import io
import json
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entconc.cli import KEYS, main

SQ3 = 1.0 / np.sqrt(3)
EDGE_TS = [0.0, 0.5, 1.0, float(SQ3), float(1 - SQ3), 5e-324, 1e-160, 1 - 1e-16]
T = st.sampled_from(EDGE_TS) | st.floats(0.0, 1.0)
EPS = st.sampled_from([1.0, 5e-324]) | st.floats(0.0, 1.0, exclude_min=True)

# One strategy per key of the cascade table, inside the key's domain.
VALUES = {
    "n_max": st.integers(1, 1100).map(str),
    # A pattern of T's repeated to a length of up to 1100.
    "t_list": st.tuples(st.lists(T, min_size=1, max_size=4), st.integers(1, 1100)).map(
        lambda pn: ",".join(repr(pn[0][i % len(pn[0])]) for i in range(pn[1]))
    ),
    "t": T.map(repr),
    "eps_list": st.lists(EPS, max_size=3).map(lambda es: ",".join(map(repr, es))),
    "p": st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
}


def _cascade(sets: dict[str, str]):
    """Exit code and parsed JSON table of ``entconc cascade`` with ``sets``,
    any warning raised as an error."""
    argv = ["cascade", "--format", "json"]
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        with contextlib.redirect_stderr(err):
            code = main(argv)
    return code, json.loads(out.getvalue()) if code == 0 else None


def test_every_cascade_key_has_a_strategy():
    assert set(VALUES) == set(KEYS["cascade"])


@settings(max_examples=100, deadline=None)
@given(sets=st.fixed_dictionaries({}, optional=VALUES))
@example(sets={"t": "0.4", "n_max": "148"})
@example(sets={"t": "0.4", "n_max": "296"})
@example(sets={"t": "0.4", "n_max": "1100"})
@example(sets={"t_list": "1e-160,0.3", "n_max": "2"})
@example(sets={"p": "0", "t_list": "0.5,1e-160", "n_max": "2"})
def test_cascade_domain(sets):
    code, rows = _cascade(sets)
    assert code in (0, 2)
    if code == 2:
        return
    for row in rows:
        values = np.array([v for k, v in row.items() if k != "N"])
        assert np.isfinite(values).all()
        assert ((values >= 0.0) & (values <= 1.0)).all(), row


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
