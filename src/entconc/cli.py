"""Command-line surface: parameter sweeps with CSV/JSON output.

Commands: sweep-coupling, protocol, cascade, hom, tomo.  Each command reads
its parameters from an optional INI-style config file (one section per
command) with CLI flags taking precedence.  Output is plot-ready tabular
data; identical config + seed gives byte-identical files.

Exit codes: 0 success, 2 config error, 3 numeric contract violation.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys

import numpy as np

from .cascade import (
    CascadeParams,
    coefficients,
    closed_form_concurrence,
    filtered_concurrence,
    filtered_success_prob,
    simulate_cascade,
)
from .channel import CouplingParams, IndistinguishabilityModel, couple_mixed_indistinguishability
from .errors import ConfigError, EntconcError, InvariantViolation
from .fock import estimate_overlap, hom_coincidence_prob, hom_scan
from .metrics import concurrence, fidelity, pair_concurrences
from .protocol import (
    filtration,
    raw_attenuations,
    run_protocol,
    sigma2_closed_form,
    sigma3_closed_form,
)
from .states import mixed_env, singlet_standard
from .tomography import default_settings, reconstruct, simulate_counts

# Experimental values quoted for comparison in annotated output; they are
# measured numbers, not reproducible by simulation.
REFERENCE_EXPERIMENT = {
    "p": "0.85 +/- 0.05",
    "C_II_measured": "0.15 +/- 0.03",
    "C_II_model": "0.22",
    "C_III_measured": "0.50 +/- 0.10",
    "C_III_model": "0.47",
    "fidelity_II": "0.96 +/- 0.01",
    "fidelity_III": "0.92 +/- 0.04",
    "filters": "A_A=0.12, A_B=0.30",
}


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def write_table(header: list[str], rows: list[list], out, fmt: str):
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(x) for x in row) for row in rows]
        out.write("\n".join(lines) + "\n")
    else:
        payload = [dict(zip(header, row)) for row in rows]
        out.write(json.dumps(payload, indent=2, default=_fmt) + "\n")


def _grid(cfg: dict) -> np.ndarray:
    if "t_grid" in cfg:
        vals = [float(x) for x in str(cfg["t_grid"]).split(",") if x.strip()]
    else:
        t_min = float(cfg.get("t_min", 0.0))
        t_max = float(cfg.get("t_max", 1.0))
        steps = int(cfg.get("t_steps", 101))
        if steps < 1:
            raise ConfigError("t_steps must be positive")
        vals = list(np.linspace(t_min, t_max, steps))
    if not vals:
        raise ConfigError("empty T grid")
    for v in vals:
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"T={v} outside [0, 1]")
    return np.array(vals)


def _zero_crossing(ts, values, atol=1e-9):
    """First T where the curve leaves (or enters) zero, to grid resolution."""
    above = values > atol
    for i in range(1, len(ts)):
        if above[i] != above[i - 1]:
            return float(ts[i])
    return None


def cmd_sweep_coupling(cfg: dict, out, fmt: str) -> list[str]:
    ts = _grid(cfg)
    env = mixed_env()
    sig = singlet_standard()
    rows = []
    for t in ts:
        ps = couple_mixed_indistinguishability(
            sig, env, CouplingParams(float(t)), IndistinguishabilityModel(float(cfg.get("p", 1.0)))
        )
        c_ab, c_ae, c_be = pair_concurrences(ps.rho)
        rows.append([float(t), c_ab, c_ae, c_be, ps.success_prob])
    write_table(["T", "C_AB", "C_AE", "C_BE", "P_success"], rows, out, fmt)
    arr = np.array(rows)
    notes = []
    x_ab = _zero_crossing(arr[:, 0], arr[:, 1])
    x_ae = _zero_crossing(arr[:, 0], arr[:, 2])
    if x_ab is not None:
        notes.append(f"C_AB threshold near T={x_ab:.6g} (analytic 1/sqrt(3)={1 / np.sqrt(3):.6g})")
    if x_ae is not None:
        notes.append(
            f"C_AE threshold near T={x_ae:.6g} (analytic 1-1/sqrt(3)={1 - 1 / np.sqrt(3):.6g})"
        )
    notes.append(f"C_BE maximal at T={arr[np.argmax(arr[:, 3]), 0]:.6g}")
    return notes


def cmd_protocol(cfg: dict, out, fmt: str) -> list[str]:
    ts = _grid(cfg)
    eps_list = [float(x) for x in str(cfg.get("eps_list", "0.25,0.05")).split(",") if x.strip()]
    p = float(cfg.get("p", 1.0))
    feed = str(cfg.get("feed_forward", "false")).lower() in ("1", "true", "yes")
    a_a = cfg.get("a_a")
    a_b = cfg.get("a_b")
    header = ["T", "C_no_meas", "C_post_meas", "P_post_meas"]
    header += [f"C_eps_{e:g}" for e in eps_list]
    if a_a is not None and a_b is not None:
        header.append("C_raw_filter")
    rows = []
    traces = []
    for t in ts:
        # Couple and measure once; each filter column branches from here.
        tr = run_protocol(float(t), p=p, feed_forward_enabled=feed)
        coupled = tr.steps[1].state
        measured = tr.final_state
        c_no = concurrence(coupled.ptrace((0, 1))).value
        c_post = concurrence(measured).value
        row = [float(t), c_no, c_post, tr.cumulative_prob]
        for e in eps_list:
            if abs(t - 0.5) < 1e-12:
                row.append(0.0)
            else:
                row.append(concurrence(filtration(measured, float(t), eps=e)[-1].state).value)
        if a_a is not None and a_b is not None:
            raw = raw_attenuations(float(a_a), float(a_b))
            row.append(concurrence(filtration(measured, float(t), raw_filters=raw)[-1].state).value)
        rows.append(row)
        if str(cfg.get("dump_trace", "false")).lower() in ("1", "true", "yes"):
            traces.append(
                {
                    "T": float(t),
                    "steps": [
                        {"name": s.name, "prob": s.step_prob, "state": [
                            [f"{z.real:.12g}{z.imag:+.12g}j" for z in rrow] for rrow in s.state.mat
                        ]}
                        for s in tr.steps
                    ],
                }
            )
    write_table(header, rows, out, fmt)
    notes = []
    if p < 1.0:
        notes.append("reference (experiment, not simulated): " + json.dumps(REFERENCE_EXPERIMENT))
    if traces:
        path = cfg.get("trace_out", "protocol_trace.json")
        with open(path, "w") as fh:
            json.dump(traces, fh, indent=2)
        notes.append(f"trace dump written to {path}")
    return notes


def cmd_cascade(cfg: dict, out, fmt: str) -> list[str]:
    n_max = int(cfg.get("n_max", 6))
    if n_max < 1:
        raise ConfigError("n_max must be >= 1")
    if "t_list" in cfg:
        t_all = [float(x) for x in str(cfg["t_list"]).split(",") if x.strip()]
        if len(t_all) < n_max:
            raise ConfigError("t_list shorter than n_max")
    else:
        t_all = [float(cfg.get("t", 0.1))] * n_max
    eps_list = [float(x) for x in str(cfg.get("eps_list", "0.25,0.05")).split(",") if x.strip()]
    p = float(cfg.get("p", 1.0))
    header = ["N", "C_closed", "C_sim", "P_N"]
    for e in eps_list:
        header += [f"C_filt_eps_{e:g}", f"P_III_eps_{e:g}"]
    # Simulate to n_max once and read each prefix from its measured_N step;
    # A_N only shrinks with N, so the one filtration fails iff a prefix's would.
    # Only C_sim sees p: C_closed, P_N and the C_filt_eps_*/P_III_eps_* columns
    # are the p = 1 closed forms of the cascade module, whatever p is.
    steps = simulate_cascade(CascadeParams(tuple(t_all[:n_max]), eps=1.0), p=p).steps
    measured = {s.name: s.state for s in steps}
    rows = []
    for n in range(1, n_max + 1):
        co = coefficients(CascadeParams(tuple(t_all[:n])))
        c_sim = concurrence(measured[f"measured_{n}"]).value
        row = [n, closed_form_concurrence(co), c_sim, co.p_success]
        for e in eps_list:
            row += [filtered_concurrence(co, e), filtered_success_prob(co, e)]
        rows.append(row)
    write_table(header, rows, out, fmt)
    return []


def cmd_hom(cfg: dict, out, fmt: str) -> list[str]:
    overlaps = [float(x) for x in str(cfg.get("overlap_grid", "0,0.25,0.5,0.85,1")).split(",")]
    t = float(cfg.get("t", 0.5))
    rows = []
    for ov in overlaps:
        res = hom_scan(ov, T=t)
        rows.append([ov, min(res.coincidence_rates), res.visibility, estimate_overlap(res)])
    write_table(["overlap", "dip_rate", "visibility", "p_recovered"], rows, out, fmt)
    return [
        f"coincidence at T=0.5: identical={hom_coincidence_prob(0.5, True):.12g}, "
        f"orthogonal-tag={hom_coincidence_prob(0.5, False):.12g}"
    ]


_TOMO_STATES = {
    "singlet": lambda cfg: singlet_standard(),
    "sigma2": lambda cfg: sigma2_closed_form(float(cfg.get("t", 0.4))),
    "sigma3": lambda cfg: sigma3_closed_form(
        float(cfg.get("t", 0.4)), float(cfg.get("eps", 0.25))
    ),
}


def cmd_tomo(cfg: dict, out, fmt: str) -> list[str]:
    name = str(cfg.get("state", "sigma2"))
    if name not in _TOMO_STATES:
        raise ConfigError(f"unknown tomo state {name!r}; choose from {sorted(_TOMO_STATES)}")
    rho = _TOMO_STATES[name](cfg)
    shots = int(cfg.get("shots", 0))
    seed = int(cfg.get("seed", 0))
    settings = default_settings(shots=shots)
    rng = np.random.default_rng(seed)
    counts = simulate_counts(rho, settings, rng)
    rec = reconstruct(counts, settings)
    f = fidelity(rec, rho)
    rows = [[name, shots, seed, f]]
    write_table(["state", "shots", "seed", "fidelity"], rows, out, fmt)
    return []


COMMANDS = {
    "sweep-coupling": cmd_sweep_coupling,
    "protocol": cmd_protocol,
    "cascade": cmd_cascade,
    "hom": cmd_hom,
    "tomo": cmd_tomo,
}


def load_config(path: str | None, section: str) -> dict:
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file {path!r} not found")
    if section not in parser:
        return {}
    return dict(parser[section])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="entconc", description=__doc__)
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", default=None, help="INI config, one section per command")
    ap.add_argument("--seed", type=int, default=None, help="seed for noisy simulations")
    ap.add_argument("--out", default=None, help="output file (default stdout)")
    ap.add_argument("--format", choices=("csv", "json"), default="csv")
    ap.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override a config value, repeatable",
    )
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set needs KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            cfg[key.strip()] = value.strip()
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out is None:
            notes = COMMANDS[args.command](cfg, sys.stdout, args.format)
        else:
            with open(args.out, "w", newline="") as fh:
                notes = COMMANDS[args.command](cfg, fh, args.format)
        for note in notes:
            print(note)
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InvariantViolation,) as exc:
        print(f"numeric contract violation: {exc}", file=sys.stderr)
        return 3
    except EntconcError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
