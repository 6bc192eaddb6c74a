"""Command-line surface: parameter sweeps with CSV/JSON output.

Commands: sweep-coupling, protocol, cascade, hom, tomo.  Each command reads
its parameters from an optional INI-style config file (one section per
command) with CLI flags taking precedence.  Output is plot-ready tabular
data; identical config + seed gives byte-identical files.

Batch rule: ``protocol`` and ``cascade`` put each state whose concurrence
is a table cell into the row itself, and :func:`_fill_concurrences` turns
all of them into numbers with one :func:`entconc.metrics.concurrences` call
per table.  Each state is built once.  ``sweep-coupling`` and ``protocol``
run their T grid in stacks of ``_GRID_CHUNK`` points: ``sweep-coupling``
couples each stack (:func:`entconc.channel.couple_grid`) and computes its
pair concurrences per point; ``protocol`` couples and measures each stack
(:func:`entconc.protocol.couple_measure_grid`), traces out E as one stack
(:func:`entconc.qmath.ptrace_stack`) and filters it with one
:func:`entconc.protocol.filtration` call: one rebalance stack, one eps
stack per column branching from it, and one raw-filter stack.  Every cell
is computed, at T = 1/2 too, and a chunk that fails raises what a per-T
loop raises first.
``cascade`` reads the closed forms of every depth from one pass of the
recurrence (:func:`entconc.cascade.coefficient_prefixes`).

List keys take comma-separated floats, and blank entries are skipped.  An
empty grid (``t_grid``, ``overlap_grid``) or an eps outside (0, 1] is a
config error; an empty ``eps_list`` means no filter columns.

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
    closed_form_concurrence,
    closed_form_state,
    coefficient_prefixes,
    coefficients,
    filtered_concurrence,
    filtered_success_prob,
    simulate_cascade,
)
from .channel import CouplingParams, IndistinguishabilityModel, couple_grid, hom_coincidence
from .errors import ConfigError, EntconcError, InvariantViolation, ZeroProbabilityError
from .metrics import concurrences, fidelity, pair_concurrences
from .protocol import couple_measure_grid, filtration, raw_attenuations, sigma3_closed_form
from .qmath import DensityMatrix, ptrace_stack
from .states import MIXED_ENV, SINGLET_STANDARD, singlet_standard
from .tomography import reconstruct, simulate_counts

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
        # Line by line: the table is never joined into one string here, so a
        # caller's buffer (a StringIO, say) builds the one copy it keeps.
        out.write(",".join(header) + "\n")
        out.writelines(",".join(_fmt(x) for x in row) + "\n" for row in rows)
    else:
        payload = [dict(zip(header, row)) for row in rows]
        out.write(json.dumps(payload, indent=2, default=_fmt) + "\n")


def _floats(cfg: dict, key: str, default: str) -> list[float]:
    """The comma-separated floats under ``key``; blank entries are skipped."""
    return [float(x) for x in str(cfg.get(key, default)).split(",") if x.strip()]


def _grid(cfg: dict) -> np.ndarray:
    if "t_grid" in cfg:
        vals = _floats(cfg, "t_grid", "")
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


def _eps(e: float) -> float:
    """``e``, checked against (0, 1] before any filter or closed form uses it."""
    if not 0.0 < e <= 1.0:
        raise ConfigError(f"epsilon {e} outside (0, 1]")
    return e


def _eps_list(cfg: dict) -> list[float]:
    return [_eps(e) for e in _floats(cfg, "eps_list", "0.25,0.05")]


# T points per stack in sweep-coupling and protocol.  A stack's working set
# grows with its length, so a long grid is coupled in chunks of this size.
# At 32 points a 1001-point sweep peaks at about 0.5 MB (tracemalloc), as
# the point-by-point loop did; at 64 it is 0.8 MB, and one stack over the
# whole grid takes 6 MB.  Longer stacks save little: on a 2-vCPU host a
# 1001-point protocol at p = 0.85 takes 158 ms at 32 points and 141 ms as
# one stack, which peaks at 12.3 MB instead of 8.9 MB.  The batched eigh,
# the set-up of each validated state and the table's one concurrence batch
# dominate.
_GRID_CHUNK = 32


def _zero_crossing(ts, values, atol=1e-9):
    """First T where the curve leaves (or enters) zero, to grid resolution."""
    above = values > atol
    for i in range(1, len(ts)):
        if above[i] != above[i - 1]:
            return float(ts[i])
    return None


def cmd_sweep_coupling(cfg: dict, out, fmt: str) -> list[str]:
    ts = _grid(cfg)
    model = IndistinguishabilityModel(float(cfg.get("p", 1.0)))
    rows = []
    for start in range(0, len(ts), _GRID_CHUNK):
        params = [CouplingParams(t) for t in ts[start : start + _GRID_CHUNK].tolist()]
        for c, ps in zip(params, couple_grid(SINGLET_STANDARD, MIXED_ENV, params, model)):
            rows.append([c.T, *pair_concurrences(ps.rho), ps.success_prob])
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


def _fill_concurrences(rows: list[list]) -> list[list]:
    """The table with each :class:`DensityMatrix` cell replaced by its
    concurrence, all of them computed in one :func:`concurrences` batch."""
    values = iter(concurrences([x for row in rows for x in row if isinstance(x, DensityMatrix)]))
    return [
        [next(values).value if isinstance(x, DensityMatrix) else x for x in row] for row in rows
    ]


def cmd_protocol(cfg: dict, out, fmt: str) -> list[str]:
    ts = _grid(cfg)
    eps_list = _eps_list(cfg)
    p = float(cfg.get("p", 1.0))
    feed = str(cfg.get("feed_forward", "false")).lower() in ("1", "true", "yes")
    dump = str(cfg.get("dump_trace", "false")).lower() in ("1", "true", "yes")
    a_a = cfg.get("a_a")
    a_b = cfg.get("a_b")
    if (a_a is None) != (a_b is None):
        raise ConfigError("a_a and a_b must be given together")
    raw = None if a_a is None else raw_attenuations(float(a_a), float(a_b))
    header = ["T", "C_no_meas", "C_post_meas", "P_post_meas"]
    header += [f"C_eps_{e:g}" for e in eps_list]
    if raw is not None:
        header.append("C_raw_filter")
    rows = []
    traces = []
    for start in range(0, len(ts), _GRID_CHUNK):
        # Couple, measure, trace out E and filter once per chunk; each filter
        # column branches from the measured stack, every eps column from one
        # rebalanced stack.
        chunk = ts[start : start + _GRID_CHUNK].tolist()
        front = couple_measure_grid(chunk, p, feed)
        no_meas = ptrace_stack([tr.steps[1].state for tr in front], (0, 1))
        measured = [tr.final_state for tr in front]
        filtered = filtration(measured, chunk, eps_list=eps_list, raw_filters=raw)
        for t, tr, marginal, steps in zip(chunk, front, no_meas, filtered):
            cells = [s.state for s in steps if s.name != "rebalanced"]
            rows.append([t, marginal, tr.final_state, tr.cumulative_prob, *cells])
            if dump:
                traces.append(
                    {
                        "T": t,
                        "steps": [
                            {"name": s.name, "prob": s.step_prob, "state": [
                                [f"{z.real:.12g}{z.imag:+.12g}j" for z in rrow]
                                for rrow in s.state.mat
                            ]}
                            for s in tr.steps
                        ],
                    }
                )
    write_table(header, _fill_concurrences(rows), out, fmt)
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
        t_all = _floats(cfg, "t_list", "")
        if len(t_all) < n_max:
            raise ConfigError("t_list shorter than n_max")
    else:
        t_all = [float(cfg.get("t", 0.1))] * n_max
    eps_list = _eps_list(cfg)
    p = float(cfg.get("p", 1.0))
    header = ["N", "C_closed", "C_sim", "P_N"]
    for e in eps_list:
        header += [f"C_filt_eps_{e:g}", f"P_III_eps_{e:g}"]
    # Simulate to n_max once and read each prefix from its measured_N step;
    # A_N only shrinks with N, so the one filtration fails iff a prefix's would.
    # Only C_sim sees p: C_closed, P_N and the C_filt_eps_*/P_III_eps_* columns
    # are the p = 1 closed forms of the cascade module, whatever p is.
    params = CascadeParams(tuple(t_all[:n_max]), eps=1.0)
    steps = simulate_cascade(params, p=p).steps
    measured = {s.name: s.state for s in steps}
    rows = []
    for n, co in enumerate(coefficient_prefixes(params), start=1):
        row = [n, closed_form_concurrence(co), measured[f"measured_{n}"], co.p_success]
        for e in eps_list:
            row += [filtered_concurrence(co, e), filtered_success_prob(co, e)]
        rows.append(row)
    write_table(header, _fill_concurrences(rows), out, fmt)
    return []


def cmd_hom(cfg: dict, out, fmt: str) -> list[str]:
    overlaps = _floats(cfg, "overlap_grid", "0,0.25,0.5,0.85,1")
    if not overlaps:
        raise ConfigError("empty overlap grid")
    t = float(cfg.get("t", 0.5))
    rows = []
    for ov in overlaps:
        if not 0.0 <= ov <= 1.0:
            raise ConfigError(f"overlap {ov} outside [0, 1]")
        # Per overlap, so a bad first overlap is reported before a bad T.
        c_id, c_dist = hom_coincidence(t, 1.0), hom_coincidence(t, 0.0)
        if c_dist <= c_id:
            raise ZeroProbabilityError("hom: dip has no contrast at this T")
        dip = hom_coincidence(t, ov)
        visibility = (c_dist - dip) / c_dist
        rows.append([ov, dip, visibility, visibility * c_dist / (c_dist - c_id)])
    write_table(["overlap", "dip_rate", "visibility", "p_recovered"], rows, out, fmt)
    return [
        f"coincidence at T=0.5: identical={hom_coincidence(0.5, 1.0):.12g}, "
        f"orthogonal-tag={hom_coincidence(0.5, 0.0):.12g}"
    ]


_TOMO_STATES = {
    "singlet": lambda cfg: singlet_standard(),
    "sigma2": lambda cfg: closed_form_state(
        coefficients(CascadeParams((float(cfg.get("t", 0.4)),)))
    ),
    "sigma3": lambda cfg: sigma3_closed_form(
        float(cfg.get("t", 0.4)), _eps(float(cfg.get("eps", 0.25)))
    ),
}


def cmd_tomo(cfg: dict, out, fmt: str) -> list[str]:
    name = str(cfg.get("state", "sigma2"))
    if name not in _TOMO_STATES:
        raise ConfigError(f"unknown tomo state {name!r}; choose from {sorted(_TOMO_STATES)}")
    rho = _TOMO_STATES[name](cfg)
    shots = int(cfg.get("shots", 0))
    seed = int(cfg.get("seed", 0))
    rec = reconstruct(simulate_counts(rho, shots, np.random.default_rng(seed)), shots)
    rows = [[name, shots, seed, fidelity(rec, rho)]]
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


# One parser per process.  An ArgumentParser is a web of reference cycles,
# so one per call would leave ~50 objects a call for the cyclic collector,
# whose passes an in-process caller pays for.  Parsing does not change it.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
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
