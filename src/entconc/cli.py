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
as one-coupling chains of :func:`entconc.protocol.couple_measure_chains`,
traces out E as one stack and filters it with one
:func:`entconc.protocol.filtration` call: one rebalance stack, one eps
stack per column branching from it, and one raw-filter stack.  Every cell
is computed, at T = 1/2 too, and a chunk that fails raises what a per-T
loop raises first.  ``cascade`` runs one chain of the same driver and
reads the closed forms of every depth from one pass of the recurrence
(:func:`entconc.cascade.coefficient_prefixes`).

Each command's keys, with their parsers, defaults and domains, are rows of
``_TABLE``, tabulated per command in the README; any other key is an error.

Exit codes: 0 success, 2 config or output error, 3 numeric contract violation.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import sys
from typing import Any, Sequence

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


def _bool(raw: str) -> bool:
    if raw.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"{raw!r} is not one of 1/true/yes/0/false/no")
    return raw.lower() in ("1", "true", "yes")


def _floats(raw: str) -> list[float]:
    return [float(x) for x in raw.split(",") if x.strip()]


_ANY = (lambda v: True, "")
_T = (lambda v: 0.0 <= v <= 1.0, "T={} outside [0, 1]")
_EPS = (lambda v: 0.0 < v <= 1.0, "epsilon {} outside (0, 1]")
_TOMO_STATES = {
    "singlet": lambda t, eps: singlet_standard(),
    "sigma2": lambda t, eps: closed_form_state(coefficients(CascadeParams((t,)))),
    "sigma3": sigma3_closed_form,
}

# Each config key: the commands that read it, its name, parser, default and
# domain (ok, bad[, empty]): a test of the value or of each list entry, the error
# for one that fails and the error for an empty list.  The library checks the
# rest: p, T, a_a and a_b in [0, 1] and shots >= 0.
_TABLE = [
    ("sweep-coupling protocol", "t_grid", _floats, None, (*_T, "empty T grid")),
    ("sweep-coupling protocol", "t_min", float, 0.0, _T),
    ("sweep-coupling protocol", "t_max", float, 1.0, _T),
    ("sweep-coupling protocol", "t_steps", int, 101, (lambda n: n > 0, "t_steps must be positive")),
    ("cascade", "n_max", int, 6, (lambda n: n > 0, "n_max must be >= 1")),
    ("cascade", "t_list", _floats, None, (_T[0], "transmittivity {} outside [0, 1]")),
    ("cascade", "t", float, 0.1, _ANY),
    ("protocol cascade", "eps_list", _floats, (0.25, 0.05), _EPS),
    ("sweep-coupling protocol cascade", "p", float, 1.0, _ANY),
    ("protocol", "feed_forward", _bool, False, _ANY),
    ("protocol", "dump_trace", _bool, False, _ANY),
    ("protocol", "trace_out", str, "protocol_trace.json", _ANY),
    ("protocol", "a_a", float, None, _ANY),
    ("protocol", "a_b", float, None, _ANY),
    ("hom", "overlap_grid", _floats, (0.0, 0.25, 0.5, 0.85, 1.0),
     (_T[0], "overlap {} outside [0, 1]", "empty overlap grid")),
    ("hom", "t", float, 0.5, _ANY),
    ("tomo", "state", str, "sigma2", (_TOMO_STATES.__contains__, "unknown tomo state {!r}; "
                                      f"choose from {sorted(_TOMO_STATES)}")),
    ("tomo", "t", float, 0.4, _ANY),
    ("tomo", "eps", float, 0.25, _EPS),
    ("tomo", "shots", int, 0, _ANY),
    ("tomo", "seed", int, 0, _ANY),
]


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


def _chunks(cfg: dict) -> list[list[float]]:
    ts = cfg["t_grid"]
    if ts is None:
        ts = np.linspace(cfg["t_min"], cfg["t_max"], cfg["t_steps"]).tolist()
    return [ts[i : i + _GRID_CHUNK] for i in range(0, len(ts), _GRID_CHUNK)]


def _zero_crossing(ts, values, atol=1e-9):
    """First T where the curve leaves (or enters) zero, to grid resolution."""
    (changes,) = np.nonzero(np.diff(values > atol))
    return float(ts[changes[0] + 1]) if len(changes) else None


def cmd_sweep_coupling(cfg: dict, out, fmt: str) -> list[str]:
    model = IndistinguishabilityModel(cfg["p"])
    rows = []
    for chunk in _chunks(cfg):
        params = [CouplingParams(t) for t in chunk]
        for c, ps in zip(params, couple_grid(SINGLET_STANDARD, MIXED_ENV, params, model)):
            rows.append([c.T, *pair_concurrences(ps.rho), ps.success_prob])
    write_table(["T", "C_AB", "C_AE", "C_BE", "P_success"], rows, out, fmt)
    t, c_ab, c_ae, c_be, _ = np.array(rows).T
    notes = []
    x_ab = _zero_crossing(t, c_ab)
    x_ae = _zero_crossing(t, c_ae)
    # C_AB vanishes below the root T* of |T (T - pR)| = R^2 / 2, and C_AE above 1 - T*.
    root = (model.p - 1 + np.sqrt((1 - model.p) ** 2 + 1 + 2 * model.p)) / (1 + 2 * model.p)
    ab, ae = ("1/sqrt(3)=", "1-1/sqrt(3)=") if model.p == 1.0 else ("", "")
    if x_ab is not None:
        notes.append(f"C_AB threshold near T={x_ab:.6g} (analytic {ab}{root:.6g})")
    if x_ae is not None:
        notes.append(f"C_AE threshold near T={x_ae:.6g} (analytic {ae}{1.0 - root:.6g})")
    be_note = f"C_BE maximal at T={t[c_be.argmax()]:.6g}" if c_be.any() else "C_BE is 0 at every T"
    notes.append(be_note)
    return notes


def _fill_concurrences(rows: list[list]) -> list[list]:
    """The table with each :class:`DensityMatrix` cell replaced by its
    concurrence, all of them computed in one :func:`concurrences` batch."""
    values = iter(concurrences([x for row in rows for x in row if isinstance(x, DensityMatrix)]))
    return [
        [next(values).value if isinstance(x, DensityMatrix) else x for x in row] for row in rows
    ]


def cmd_protocol(cfg: dict, out, fmt: str) -> list[str]:
    eps_list, p, a_a, a_b = cfg["eps_list"], cfg["p"], cfg["a_a"], cfg["a_b"]
    if (a_a is None) != (a_b is None):
        raise ConfigError("a_a and a_b must be given together")
    raw = None if a_a is None else raw_attenuations(a_a, a_b)
    header = ["T", "C_no_meas", "C_post_meas", "P_post_meas"]
    header += [f"C_eps_{e:g}" for e in eps_list]
    if raw is not None:
        header.append("C_raw_filter")
    rows = []
    traces = []
    for chunk in _chunks(cfg):
        # Couple, measure, trace out E and filter once per chunk; each filter
        # column branches from the measured stack, every eps column from one
        # rebalanced stack.
        front = couple_measure_grid(chunk, p, cfg["feed_forward"])
        no_meas = ptrace_stack([tr.steps[1].state for tr in front], (0, 1))
        measured = [tr.final_state for tr in front]
        filtered = filtration(measured, chunk, eps_list=eps_list, raw_filters=raw)
        for t, tr, marginal, steps in zip(chunk, front, no_meas, filtered):
            cells = [s.state for s in steps if s.name != "rebalanced"]
            rows.append([t, marginal, tr.final_state, tr.cumulative_prob, *cells])
            if cfg["dump_trace"]:
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
    notes = []
    if p < 1.0:
        notes.append("reference (experiment, not simulated): " + json.dumps(REFERENCE_EXPERIMENT))
    if traces:
        with open(cfg["trace_out"], "w") as fh:
            json.dump(traces, fh, indent=2)
        notes.append(f"trace dump written to {cfg['trace_out']}")
    write_table(header, _fill_concurrences(rows), out, fmt)
    return notes


def cmd_cascade(cfg: dict, out, fmt: str) -> list[str]:
    n_max, t_all, eps_list = cfg["n_max"], cfg["t_list"], cfg["eps_list"]
    if t_all is None:
        t_all = [cfg["t"]] * n_max
    elif len(t_all) < n_max:
        raise ConfigError("t_list shorter than n_max")
    header = ["N", "C_closed", "C_sim", "P_N"]
    for e in eps_list:
        header += [f"C_filt_eps_{e:g}", f"P_III_eps_{e:g}"]
    # Simulate to n_max once and read each prefix from its measured_N step; an
    # HV population of 0 stays 0, so the one filtration fails iff a prefix's
    # would.  Only C_sim sees p: C_closed, P_N and the C_filt_eps_*/P_III_eps_*
    # columns are the p = 1 closed forms of one pass of the normalized
    # recursion, whatever p is.
    params = CascadeParams(tuple(t_all[:n_max]), eps=1.0)
    steps = simulate_cascade(params, p=cfg["p"]).steps
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
    t = cfg["t"]
    c_id, c_dist = hom_coincidence(t, 1.0), hom_coincidence(t, 0.0)
    # Below a relative depth of 1e-12 the dip is roundoff, which would already
    # leave p_recovered uncertain in its 4th digit.
    if c_dist - c_id <= 1e-12 * c_dist:
        raise ZeroProbabilityError("hom: dip has no contrast at this T")
    rows = []
    for ov in cfg["overlap_grid"]:
        dip = hom_coincidence(t, ov)
        # Not visibility * c_dist / (c_dist - c_id), which can round above 1.
        rows.append([ov, dip, (c_dist - dip) / c_dist, (c_dist - dip) / (c_dist - c_id)])
    write_table(["overlap", "dip_rate", "visibility", "p_recovered"], rows, out, fmt)
    return [
        f"coincidence at T=0.5: identical={hom_coincidence(0.5, 1.0):.12g}, "
        f"orthogonal-tag={hom_coincidence(0.5, 0.0):.12g}"
    ]


def cmd_tomo(cfg: dict, out, fmt: str) -> list[str]:
    name, shots, seed = cfg["state"], cfg["shots"], cfg["seed"]
    rho = _TOMO_STATES[name](cfg["t"], cfg["eps"])
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
KEYS = {c: {name: key for cs, name, *key in _TABLE if c in cs.split()} for c in COMMANDS}


def read_config(
    command: str, path: str | None = None, sets: Sequence[str] = (), seed: int | None = None
) -> dict[str, Any]:
    """``command``'s keys at their defaults, overridden by the INI file at ``path``
    (``[DEFAULT]`` included), ``sets`` (``KEY=VALUE``) and ``seed``, each parsed and
    checked in that order.  A key outside ``KEYS[command]`` is a config error."""
    raw = {}
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            if not parser.read(path):
                raise ConfigError(f"config file {path!r} not found")
            raw = dict(parser[command]) if parser.has_section(command) else {}
        except configparser.Error as exc:
            raise ConfigError(f"config file {path!r}: {exc}") from None
    for key, sep, value in (item.partition("=") for item in sets):
        if not sep:
            raise ConfigError(f"--set needs KEY=VALUE, got {key!r}")
        raw[key.strip()] = value.strip()
    keys = KEYS[command]
    if seed is not None and "seed" in keys:
        raw["seed"] = str(seed)
    cfg = {name: default for name, (_, default, _) in keys.items()}
    for name, text in raw.items():
        if name not in keys:
            raise ConfigError(f"unknown {command} key {name!r}; choose from {sorted(keys)}")
        parse, _, (ok, bad, *empty) = keys[name]
        try:
            value = cfg[name] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from None
        if value == [] and empty:
            raise ConfigError(*empty)
        for v in value if isinstance(value, list) else [value]:
            if not ok(v):
                raise ConfigError(bad.format(v))
    return cfg


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
        cfg = read_config(args.command, args.config, args.set, args.seed)
        # Open --out only once the command has returned: a failure leaves it as it was.
        buf = sys.stdout if args.out is None else io.StringIO()
        notes = COMMANDS[args.command](cfg, buf, args.format)
        if args.out is not None:
            with open(args.out, "w", newline="") as fh:
                fh.write(buf.getvalue())
        for note in notes:
            print(note)
        return 0
    except InvariantViolation as exc:
        print(f"numeric contract violation: {exc}", file=sys.stderr)
        return 3
    except (EntconcError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
