import csv
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entconc
from entconc import protocol, qmath
from entconc.cascade import (
    CascadeParams,
    coefficients,
    filtered_concurrence,
    filtered_success_prob,
    simulate_cascade,
)
from entconc.cli import _GRID_CHUNK, cmd_protocol, main
from entconc.metrics import concurrence
from entconc.protocol import (
    c3_closed_form,
    p3_closed_form,
    raw_attenuations,
    run_protocol,
    sigma3_closed_form,
)


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSweepCoupling:
    def test_threshold_notes(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = _run(
            ["sweep-coupling", "--out", str(out), "--set", "t_steps=201"], capsys
        )
        assert code == 0
        assert "1/sqrt(3)" in stdout
        rows = _read_csv(out)
        assert len(rows) == 201
        by_t = {float(r["T"]): r for r in rows}
        assert float(by_t[1.0]["C_AB"]) == pytest.approx(1.0, abs=1e-9)
        assert float(by_t[0.0]["C_AE"]) == pytest.approx(1.0, abs=1e-9)
        assert float(by_t[0.5]["C_AB"]) == pytest.approx(0.0, abs=1e-9)

    def test_custom_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = _run(
            ["sweep-coupling", "--out", str(out), "--set", "t_grid=0.2,0.4,0.8"], capsys
        )
        assert code == 0
        assert [float(r["T"]) for r in _read_csv(out)] == [0.2, 0.4, 0.8]

    def test_working_set_of_a_dense_sweep(self, tmp_path, capsys):
        # The grid is coupled in bounded stacks: a 1001-point sweep peaks
        # near 0.5 MB, where one stack over the whole grid takes 6 MB.
        warm_up = ["sweep-coupling", "--set", "t_steps=3", "--out", str(tmp_path / "w.csv")]
        assert _run(warm_up, capsys)[0] == 0
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            code = main(
                ["sweep-coupling", "--set", "t_steps=1001", "--out", str(tmp_path / "s.csv")]
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        assert code == 0
        assert peak - base < 2_000_000


class TestProtocolCommand:
    def test_closed_form_columns(self, tmp_path, capsys):
        out = tmp_path / "proto.csv"
        code, _, _ = _run(
            [
                "protocol",
                "--out",
                str(out),
                "--set",
                "t_grid=0.4",
                "--set",
                "eps_list=0.25",
            ],
            capsys,
        )
        assert code == 0
        row = _read_csv(out)[0]
        assert float(row["C_post_meas"]) == pytest.approx(0.08 / 0.28, abs=1e-9)
        # Cumulative probability through the H outcome is exactly P_II.
        assert float(row["P_post_meas"]) == pytest.approx(0.14, abs=1e-9)
        assert float(row["C_eps_0.25"]) == pytest.approx(
            2 * 0.25 * 0.04 / (2 * 0.25 * 0.04 + 0.25**2 * 0.36), abs=1e-9
        )

    def test_reference_annotation_when_partial_overlap(self, tmp_path, capsys):
        out = tmp_path / "proto.csv"
        code, stdout, _ = _run(
            ["protocol", "--out", str(out), "--set", "t_grid=0.4", "--set", "p=0.85"],
            capsys,
        )
        assert code == 0
        assert "reference (experiment, not simulated)" in stdout

    def test_raw_filter_column(self, tmp_path, capsys):
        out = tmp_path / "proto.csv"
        code, _, _ = _run(
            [
                "protocol",
                "--out",
                str(out),
                "--set",
                "t_grid=0.4",
                "--set",
                "a_a=0.12",
                "--set",
                "a_b=0.30",
            ],
            capsys,
        )
        assert code == 0
        row = _read_csv(out)[0]
        assert float(row["C_raw_filter"]) == pytest.approx(0.4616, abs=1e-3)

    @pytest.mark.parametrize("a_a", ["-0.1", "1.2"])
    def test_raw_intensity_outside_unit_interval_exits_2(self, a_a, capsys):
        # Rejected before the square root, so no numpy warning and no NaN.
        code, out, err = _run(
            ["protocol", "--set", "t_grid=0.3,0.7", "--set", f"a_a={a_a}", "--set", "a_b=0.3"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == f"config error: filter intensity {a_a} outside [0, 1]\n"

    @pytest.mark.parametrize("setting", ["a_a=0.12", "a_b=0.3"])
    def test_lone_raw_intensity_exits_2(self, setting, capsys):
        code, out, err = _run(["protocol", "--set", "t_grid=0.3,0.7", "--set", setting], capsys)
        assert code == 2
        assert out == ""
        assert err == "config error: a_a and a_b must be given together\n"

    @pytest.mark.parametrize(
        "settings, message",
        [
            # eps_list is checked before any T is filtered, so T = 0 never
            # reaches its rebalance.
            (["t_grid=0.3,0", "eps_list=2"], "epsilon 2.0 outside (0, 1]"),
            (["t_grid=0.3", "eps_list=0"], "epsilon 0.0 outside (0, 1]"),
            (["t_grid=0.3,0.6", "a_a=0", "a_b=0"], "normalize: zero-measure operator"),
            # eps_list is checked before T = 1/2 is filtered too.
            (["t_grid=0.5,0.3", "eps_list=2", "a_a=0", "a_b=0"], "epsilon 2.0 outside (0, 1]"),
            (["t_grid=0.5", "eps_list=2,-1"], "epsilon 2.0 outside (0, 1]"),
            # With a good eps, T = 1/2's eps filters pass and its raw filter
            # fails first.
            (["t_grid=0.5,0.3", "eps_list=0.25", "a_a=0", "a_b=0"], "normalize: zero-measure operator"),
            # The default grid starts at T = 0, where A = T^2 = 0.
            ([], "normalize: zero-measure operator"),
        ],
        ids=[
            "bad-eps-after-good-t", "zero-eps", "zero-raw", "bad-eps-at-half",
            "bad-eps-only-at-half", "raw-at-half-first", "default",
        ],
    )
    def test_filter_error_is_the_first_per_t_error(self, settings, message, capsys):
        argv = ["protocol"]
        for setting in settings:
            argv += ["--set", setting]
        code, out, err = _run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == f"config error: {message}\n"

    @settings(max_examples=100, deadline=None)
    @given(
        p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        feed=st.booleans(),
        eps=st.sampled_from([1.0]) | st.floats(1e-6, 1.0),
        offset=st.sampled_from([1e-13, -1e-13]) | st.floats(-1e-12, 1e-12).filter(bool),
    )
    def test_half_cells_are_computed(self, p, feed, eps, offset):
        # At T = 1/2 the balancing filter removes Alice's H, so the cell is
        # +0.0 at every p; near it the cell is the closed form at its double.
        near = 0.5 + offset
        cfg = {"t_grid": f"0.5,{near!r}", "p": repr(p), "feed_forward": str(feed),
               "eps_list": repr(eps)}
        buf = io.StringIO()
        cmd_protocol(cfg, buf, "json")
        half, near_row = json.loads(buf.getvalue())
        cell = half[f"C_eps_{eps:g}"]
        assert cell == 0.0 and not np.signbit(cell)
        tr = run_protocol(0.5, eps=eps, feed_forward_enabled=feed)
        assert np.abs(tr.final_state.mat - sigma3_closed_form(0.5, eps).mat).max() < 1e-12
        assert concurrence(tr.final_state).value == 0.0
        want = p3_closed_form(0.5, eps) * (2.0 if feed else 1.0)
        assert tr.cumulative_prob == pytest.approx(want, rel=1e-12)
        tr = run_protocol(near, eps=eps, feed_forward_enabled=feed)
        assert concurrence(tr.final_state).value == pytest.approx(
            c3_closed_form(near, eps), abs=1e-12
        )
        if p == 1.0:
            assert near_row[f"C_eps_{eps:g}"] == pytest.approx(c3_closed_form(near, eps), abs=1e-12)

    def test_one_rebalance_per_t(self, monkeypatch, capsys):
        # Each eps column branches from the one rebalanced stack of its chunk:
        # one filter stack for the rebalance, then one per eps column, each
        # holding every T of the chunk.
        sizes = []
        apply_filter_stack = protocol.apply_filter_stack

        def counting(states, *args, **kwargs):
            sizes.append(len(states))
            return apply_filter_stack(states, *args, **kwargs)

        monkeypatch.setattr(protocol, "apply_filter_stack", counting)
        ts, eps_list = ["0.2", "0.35", "0.7", "0.9"], ["0.4", "0.2", "0.07"]
        argv = ["protocol", "--set", "t_grid=" + ",".join(ts)]
        code, _, _ = _run(argv + ["--set", "eps_list=" + ",".join(eps_list)], capsys)
        assert code == 0
        assert sizes == [len(ts)] * (1 + len(eps_list))

    @pytest.mark.parametrize("feed", ["false", "true"])
    def test_filter_columns_match_separate_runs(self, tmp_path, feed, capsys):
        # The command couples and measures once per T and branches to every
        # filter column; each cell must equal its own full protocol run.
        ts, eps_list, p = [0.15, 0.35, 0.62, 0.9], [0.4, 0.07], 0.85
        out = tmp_path / "proto.json"
        code, _, _ = _run(
            [
                "protocol", "--out", str(out), "--format", "json",
                "--set", "t_grid=" + ",".join(map(str, ts)),
                "--set", "eps_list=" + ",".join(map(str, eps_list)),
                "--set", f"p={p}", "--set", f"feed_forward={feed}",
                "--set", "a_a=0.12", "--set", "a_b=0.30",
            ],
            capsys,
        )
        assert code == 0
        ff = feed == "true"
        for t, row in zip(ts, json.loads(out.read_text())):
            for e in eps_list:
                tr = run_protocol(t, eps=e, p=p, feed_forward_enabled=ff)
                assert row[f"C_eps_{e:g}"] == pytest.approx(
                    concurrence(tr.final_state).value, abs=1e-12
                )
            raw = raw_attenuations(0.12, 0.30)
            tr = run_protocol(t, p=p, feed_forward_enabled=ff, raw_filters=raw)
            assert row["C_raw_filter"] == pytest.approx(
                concurrence(tr.final_state).value, abs=1e-12
            )

    def test_trace_dump(self, tmp_path, capsys):
        out = tmp_path / "proto.csv"
        trace = tmp_path / "trace.json"
        code, stdout, _ = _run(
            [
                "protocol",
                "--out",
                str(out),
                "--set",
                "t_grid=0.4",
                "--set",
                "dump_trace=true",
                "--set",
                f"trace_out={trace}",
            ],
            capsys,
        )
        assert code == 0
        dumped = json.loads(trace.read_text())
        assert [s["name"] for s in dumped[0]["steps"]][:2] == ["input", "coupled"]


class TestCascadeCommand:
    def test_concurrence_decays_with_n(self, tmp_path, capsys):
        out = tmp_path / "casc.csv"
        code, _, _ = _run(
            ["cascade", "--out", str(out), "--set", "t=0.1", "--set", "n_max=4"], capsys
        )
        assert code == 0
        rows = _read_csv(out)
        closed = [float(r["C_closed"]) for r in rows]
        assert all(a > b for a, b in zip(closed, closed[1:]))
        for r in rows:
            assert float(r["C_sim"]) == pytest.approx(float(r["C_closed"]), abs=1e-9)
            assert float(r["C_filt_eps_0.05"]) >= float(r["C_filt_eps_0.25"])

    def test_t_list_length_checked(self, tmp_path, capsys):
        code, _, err = _run(
            ["cascade", "--set", "t_list=0.4,0.5", "--set", "n_max=3"], capsys
        )
        assert code == 2
        assert "config error: t_list shorter than n_max" in err

    def test_prefixes_match_own_simulation(self, tmp_path, capsys):
        # The command simulates to n_max once and reads every prefix from it;
        # each row must equal a separate simulation of that prefix.
        ts, p = [0.3, 0.9, 0.62, 0.45, 0.2, 0.8, 0.7, 0.55], 0.85
        out = tmp_path / "casc.json"
        code, _, _ = _run(
            [
                "cascade", "--out", str(out), "--format", "json",
                "--set", "t_list=" + ",".join(map(str, ts)), "--set", "n_max=8",
                "--set", f"p={p}",
            ],
            capsys,
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert [r["N"] for r in rows] == list(range(1, 9))
        for n, row in enumerate(rows, start=1):
            tr = simulate_cascade(CascadeParams(tuple(ts[:n]), eps=1.0), p=p)
            assert row["C_sim"] == pytest.approx(concurrence(tr.steps[-2].state).value, abs=1e-12)

    def test_filter_columns_are_p1_closed_forms(self, tmp_path, capsys):
        # Only C_sim sees p: the filter columns stay the p = 1 closed forms.
        t, eps, p = 0.4, (0.25, 0.05), 0.85
        out = tmp_path / "casc.json"
        code, _, _ = _run(
            [
                "cascade", "--out", str(out), "--format", "json", "--set", f"t={t}",
                "--set", "n_max=5", "--set", "eps_list=0.25,0.05", "--set", f"p={p}",
            ],
            capsys,
        )
        assert code == 0
        for n, row in enumerate(json.loads(out.read_text()), start=1):
            co = coefficients(CascadeParams((t,) * n))
            for e in eps:
                assert row[f"C_filt_eps_{e:g}"] == filtered_concurrence(co, e)
                assert row[f"P_III_eps_{e:g}"] == filtered_success_prob(co, e)

    def test_zero_transmittivity_in_prefix_exits_2(self, capsys):
        # A_N = 0 from N = 2 on: the single final filtration must still fail.
        code, _, err = _run(
            ["cascade", "--set", "t_list=0.3,0,0.6", "--set", "n_max=3"], capsys
        )
        assert code == 2
        assert "cascade filter needs A_N > 0" in err

    @pytest.mark.parametrize(
        "settings, message",
        [
            (["t=0.4", "n_max=2", "eps_list=2,-1"], "epsilon 2.0 outside (0, 1]"),
            (["eps_list=0"], "epsilon 0.0 outside (0, 1]"),
        ],
        ids=["above-one", "zero"],
    )
    def test_eps_outside_unit_interval_exits_2(self, settings, message, capsys):
        argv = ["cascade"]
        for setting in settings:
            argv += ["--set", setting]
        assert _run(argv, capsys) == (2, "", f"config error: {message}\n")


class TestHomCommand:
    def test_recovers_overlap(self, tmp_path, capsys):
        out = tmp_path / "hom.csv"
        code, stdout, _ = _run(["hom", "--out", str(out)], capsys)
        assert code == 0
        assert "identical=0" in stdout
        for row in _read_csv(out):
            assert float(row["p_recovered"]) == pytest.approx(
                float(row["overlap"]), abs=1e-9
            )

    @pytest.mark.parametrize(
        "settings, message",
        [
            (["overlap_grid=2.0"], "overlap 2.0 outside [0, 1]"),
            (["overlap_grid=0.5,-0.1"], "overlap -0.1 outside [0, 1]"),
            (["t=1.5"], "transmittivity 1.5 outside [0, 1]"),
            (["t=-0.1"], "transmittivity -0.1 outside [0, 1]"),
            # The first bad overlap wins, before a bad T or a later overlap.
            (["overlap_grid=0.5,-0.1,2.0"], "overlap -0.1 outside [0, 1]"),
            (["t=1.5", "overlap_grid=2.0,0.5"], "overlap 2.0 outside [0, 1]"),
            (["t=1.5", "overlap_grid=0.5,2.0"], "transmittivity 1.5 outside [0, 1]"),
            # At T = 0 or 1 the photons never meet: there is no dip to read.
            (["t=0"], "hom: dip has no contrast at this T"),
            (["t=1"], "hom: dip has no contrast at this T"),
            (["t=1", "overlap_grid=0.5,2.0"], "hom: dip has no contrast at this T"),
        ],
    )
    def test_bad_input_exits_2(self, settings, message, capsys):
        argv = ["hom"]
        for setting in settings:
            argv += ["--set", setting]
        assert _run(argv, capsys) == (2, "", f"config error: {message}\n")


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["sweep-coupling"], "t_grid", "0.2,,0.8,"),
        (["protocol", "--set", "t_grid=0.4"], "eps_list", "0.25, ,0.05,"),
        (["cascade", "--set", "n_max=2"], "t_list", ",0.4,,0.6"),
        (["cascade", "--set", "t=0.4", "--set", "n_max=2"], "eps_list", "0.25,,"),
        (["hom"], "overlap_grid", "0,0.5,"),
    ],
)
def test_blank_list_entries_are_skipped(argv, key, value, capsys):
    # Every comma-separated list key skips blank entries the same way.
    compact = ",".join(x for x in value.split(",") if x.strip())
    want = _run(argv + ["--set", f"{key}={compact}"], capsys)
    assert want[0] == 0
    assert _run(argv + ["--set", f"{key}={value}"], capsys) == want


@pytest.mark.parametrize(
    "argv, key, message",
    [
        (["sweep-coupling"], "t_grid", "empty T grid"),
        (["protocol"], "t_grid", "empty T grid"),
        (["hom"], "overlap_grid", "empty overlap grid"),
    ],
)
@pytest.mark.parametrize("value", ["", " , ,"])
def test_empty_grid_is_a_config_error(argv, key, message, value, capsys):
    assert _run(argv + ["--set", f"{key}={value}"], capsys) == (2, "", f"config error: {message}\n")


@pytest.mark.parametrize(
    "argv, n_plain",
    [
        (["protocol", "--set", "t_grid=0.4,0.7", "--set", "p=0.85"], 4),
        (["cascade", "--set", "t=0.4", "--set", "n_max=3"], 4),
    ],
)
def test_empty_eps_list_means_no_filter_columns(argv, n_plain, capsys):
    code, out, _ = _run(argv + ["--set", "eps_list="], capsys)
    assert code == 0
    _, with_filters, _ = _run(argv, capsys)
    # The same table without its filter columns.
    want = [",".join(line.split(",")[:n_plain]) for line in with_filters.splitlines()[:3]]
    assert out.splitlines()[:3] == want
    assert len(out.splitlines()[0].split(",")) == n_plain


class TestTomoCommand:
    @pytest.mark.parametrize("state", ["sigma2", "sigma3"])
    def test_unphysical_t_rejected(self, state, capsys):
        code, out, err = _run(["tomo", "--set", f"state={state}", "--set", "t=1.5"], capsys)
        assert (code, out) == (2, "")
        assert err == "config error: transmittivity 1.5 outside [0, 1]\n"

    @pytest.mark.parametrize("eps, shown", [("0", "0.0"), ("nan", "nan"), ("2", "2.0")])
    def test_sigma3_eps_outside_unit_interval_exits_2(self, eps, shown, capsys):
        # Checked before the closed form divides by it.
        code, out, err = _run(["tomo", "--set", "state=sigma3", "--set", f"eps={eps}"], capsys)
        assert (code, out) == (2, "")
        assert err == f"config error: epsilon {shown} outside (0, 1]\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t", ["0", "5e-324", "1e-160"])
    def test_sigma3_zero_weight_exits_2(self, t, capsys):
        # T^2 underflows, so the filtered state has no weight to divide by.
        code, out, err = _run(["tomo", "--set", "state=sigma3", "--set", f"t={t}"], capsys)
        assert (code, out) == (2, "")
        assert err == f"config error: sigma3_closed_form: zero-measure state at T={float(t)}\n"

    def test_ideal_fidelity(self, tmp_path, capsys):
        out = tmp_path / "tomo.csv"
        code, _, _ = _run(["tomo", "--out", str(out), "--set", "state=sigma2"], capsys)
        assert code == 0
        assert float(_read_csv(out)[0]["fidelity"]) == pytest.approx(1.0, abs=1e-9)

    def test_unknown_state_rejected(self, capsys):
        code, _, err = _run(["tomo", "--set", "state=bogus"], capsys)
        assert code == 2
        assert "unknown tomo state" in err

    def test_negative_shots_rejected(self, capsys):
        assert _run(["tomo", "--set", "shots=-5"], capsys) == (
            2, "", "config error: shots must be >= 0, got -5\n"
        )


class TestInterface:
    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code, _, _ = _run(
            ["sweep-coupling", "--out", str(out), "--format", "json", "--set", "t_grid=0.5"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload[0]["T"] == 0.5

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[protocol]\nt_grid = 0.4\neps_list = 0.25\n")
        out = tmp_path / "proto.csv"
        code, _, _ = _run(["protocol", "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 0
        assert len(_read_csv(out)) == 1

    def test_cli_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[sweep-coupling]\nt_grid = 0.2\n")
        out = tmp_path / "sweep.csv"
        code, _, _ = _run(
            ["sweep-coupling", "--config", str(cfg), "--out", str(out), "--set", "t_grid=0.8"],
            capsys,
        )
        assert code == 0
        assert float(_read_csv(out)[0]["T"]) == 0.8

    def test_missing_config_file(self, capsys):
        code, _, err = _run(["sweep-coupling", "--config", "/nonexistent.ini"], capsys)
        assert code == 2
        assert "not found" in err

    def test_bad_set_syntax(self, capsys):
        code, _, err = _run(["sweep-coupling", "--set", "oops"], capsys)
        assert code == 2

    def test_invalid_grid_value(self, capsys):
        code, _, err = _run(["sweep-coupling", "--set", "t_grid=1.5"], capsys)
        assert code == 2
        assert "outside [0, 1]" in err

    def test_deterministic_output(self, tmp_path, capsys):
        args = ["tomo", "--seed", "42", "--set", "shots=2000", "--format", "json"]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_commands_leave_no_cyclic_garbage(self, capsys):
        # A command run in-process frees what it builds by reference
        # counting; cyclic garbage would make the caller's collector run.
        calls = [
            ["protocol", "--set", "t_grid=0.3,0.4", "--set", "p=0.85"],
            ["cascade", "--set", "n_max=4", "--set", "p=0.85"],
            ["sweep-coupling", "--set", "t_steps=5"],
        ]
        for argv in calls:
            assert main(argv) == 0
        gc.collect()
        gc.disable()
        try:
            for argv in calls:
                assert main(argv) == 0
            found = gc.collect()
        finally:
            gc.enable()
        capsys.readouterr()
        assert found == 0

    def test_import_loads_no_scipy(self):
        # Start-up cost: the CLI must import without pulling in scipy.
        src = str(Path(entconc.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = (
            "import sys, entconc.cli; "
            "print(','.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""


class TestProtocolStacks:
    """protocol couples, measures, traces out E and filters once per chunk
    of T values."""

    @pytest.mark.parametrize(
        "steps, eps_list, per_chunk",
        [(20, "", 0), (20, "0.25,0.05", 3), (197, "", 0), (197, "0.25,0.05", 3)],
    )
    def test_validations_per_chunk(self, steps, eps_list, per_chunk, monkeypatch, capsys):
        sizes = []
        real = qmath._validate

        def counting(mats, dims):
            sizes.append(len(mats))
            return real(mats, dims)

        monkeypatch.setattr(qmath, "_validate", counting)
        argv = ["protocol", "--set", "t_min=0.01", "--set", "t_max=0.99",
                "--set", f"t_steps={steps}", "--set", f"eps_list={eps_list}", "--set", "p=0.85"]
        code, _, err = _run(argv, capsys)
        assert code == 0, err
        chunks = -(-steps // _GRID_CHUNK)
        # Coupling, measurement and the C_no_meas marginals: one stack each
        # per chunk.  With eps values, one rebalance stack and one stack per
        # eps column per chunk, over every row (197 points hold one T = 1/2
        # row).
        assert len(sizes) == (3 + per_chunk) * chunks
        assert sum(sizes) == (3 + per_chunk) * steps

