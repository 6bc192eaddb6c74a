"""The three workloads, built from a seed.

Why each workload exists (see also README.md in this directory):

- ``sweep``: ``entconc sweep-coupling`` at p = 1 over a dense T grid, called
  in-process.  Nearly all the time is the per-point coupling, validation,
  partial traces and concurrences; it never reaches the Fock oracle, scipy,
  the filters or the cascade.  It shows per-point overhead, and is the
  bypass on which a change to those other paths must show no change.
- ``chain``: ``entconc protocol`` at p = 0.85 over a seeded T grid and eps
  list, then a deep ``entconc cascade`` at p = 0.85, called in-process as
  one op.  Most of the time is the Fock oracle (the distinguishable branch),
  the environment measurement and the filters, plus the couplings the CLI
  repeats for each eps and for each cascade prefix.
- ``cli``: cold subprocess runs of the README CLI examples, the
  criterion-9 configs, ``protocol`` with feed-forward on a short grid and a
  bare ``entconc protocol``.  The time is interpreter start-up, imports and
  the Nelder-Mead search of the feed-forward step.

Each op's sizes are fixed; the seed picks only parameter values, so that
every seed asks for the same amount of work.  The value ranges keep away
from T = 0 and T = 1/2, where the filters degenerate, so no op fails by
design.  The one exception is the bare ``entconc protocol``: its default grid
contains T = 0, it exits 2 at the parent commit, and it is kept so that this
known defect stays visible (see ``known_failure``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks

SWEEP_STEPS = 1001
CHAIN_T_POINTS = 20
CHAIN_CASCADE_DEPTH = 24
P_PARTIAL = 0.85


@dataclass
class Call:
    """One ``entconc`` command line and how to check what it printed.

    ``check`` takes the command's data output and returns the number of
    table rows; it raises ``checks.CheckFailed`` on a wrong value.
    """

    argv: list[str]
    check: Callable[[str], int]
    out_file: str | None = None


@dataclass
class Op:
    """One timed operation: one or more calls run back to back."""

    name: str
    calls: list[Call]
    # Set for the bare ``protocol`` run: the stderr text of the known
    # default-config failure.  Reported, but not counted as a failed op.
    known_failure: str | None = None


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _t_away_from_half(rng: random.Random) -> float:
    """T in [0.05, 0.45] or [0.55, 0.95], rounded so the CLI string is exact."""
    if rng.random() < 0.5:
        return round(rng.uniform(0.05, 0.45), 6)
    return round(rng.uniform(0.55, 0.95), 6)


def _eps_pair(rng: random.Random) -> list[float]:
    return [round(rng.uniform(0.15, 0.5), 4), round(rng.uniform(0.02, 0.1), 4)]


# --- checks, one per command ------------------------------------------------


def check_sweep(n_points: int, t_min: float = 0.0, t_max: float = 1.0):
    def check(text: str) -> int:
        header, rows = checks.parse_csv(text, n_points)
        checks.expect_header(header, ["T", "C_AB", "C_AE", "C_BE", "P_success"])
        for i, row in enumerate(rows):
            t = t_min + (t_max - t_min) * i / (n_points - 1) if n_points > 1 else t_min
            checks.expect(f"T[{i}]", row[0], t)
            for name, got, want in zip(header[1:], row[1:], checks.sweep_row(row[0])):
                checks.expect(f"{name} at T={row[0]}", got, want)
        return n_points

    return check


def check_protocol(ts: list[float], eps_list: list[float], p: float, feed_forward: bool = False):
    def check(text: str) -> int:
        header, rows = checks.parse_csv(text, len(ts))
        want_header = ["T", "C_no_meas", "C_post_meas", "P_post_meas"]
        checks.expect_header(header, want_header + [f"C_eps_{e:g}" for e in eps_list])
        for t, row in zip(ts, rows):
            for name, got, want in zip(header, row, checks.protocol_row(t, eps_list, p, feed_forward)):
                checks.expect(f"{name} at T={t}", got, want)
        return len(ts)

    return check


def check_cascade(t: float, n_max: int, eps_list: list[float], p: float, fmt: str = "csv"):
    def check(text: str) -> int:
        if fmt == "csv":
            header, rows = checks.parse_csv(text, n_max)
        else:
            header, rows = checks.parse_json_table(text)
        want_header = ["N", "C_closed", "C_sim", "P_N"]
        for e in eps_list:
            want_header += [f"C_filt_eps_{e:g}", f"P_III_eps_{e:g}"]
        checks.expect_header(header, want_header)
        if len(rows) != n_max:
            raise checks.CheckFailed(f"cascade: {len(rows)} rows, want {n_max}")
        for row, want_row in zip(rows, checks.cascade_rows(t, n_max, eps_list, p)):
            for name, got, want in zip(header, row, want_row):
                checks.expect(f"{name} at N={row[0]}", float(got), want)
        return n_max

    return check


def check_hom(overlaps: list[float]):
    def check(text: str) -> int:
        header, rows = checks.parse_csv(text, len(overlaps))
        checks.expect_header(header, ["overlap", "dip_rate", "visibility", "p_recovered"])
        for ov, row in zip(overlaps, rows):
            for name, got, want in zip(header, row, checks.hom_row(ov)):
                checks.expect(f"{name} at overlap={ov}", got, want)
        return len(overlaps)

    return check


def check_tomo(t: float, shots: int, seed: int, fmt: str):
    def check(text: str) -> int:
        if fmt == "csv":
            lines = text.splitlines()
            header, row = lines[0].split(","), lines[1].split(",")
        else:
            header, (row,) = checks.parse_json_table(text)
        checks.expect_header(header, ["state", "shots", "seed", "fidelity"])
        if (row[0], int(row[1]), int(row[2])) != ("sigma2", shots, seed):
            raise checks.CheckFailed(f"tomo: row {row} does not echo its config")
        want = checks.tomo_fidelity(checks.sigma2(t), shots, seed)
        checks.expect("fidelity", float(row[3]), want, checks.FIDELITY_TOL)
        return 1

    return check


# --- the workloads ----------------------------------------------------------


def sweep(seed: int) -> list[Op]:
    rng = random.Random(seed)
    t_min = round(rng.uniform(0.0, 0.02), 6)
    t_max = round(rng.uniform(0.98, 1.0), 6)
    argv = ["sweep-coupling", "--set", f"t_min={t_min}", "--set", f"t_max={t_max}",
            "--set", f"t_steps={SWEEP_STEPS}"]
    return [Op("sweep-coupling", [Call(argv, check_sweep(SWEEP_STEPS, t_min, t_max))])]


def chain(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ts = sorted({_t_away_from_half(rng) for _ in range(CHAIN_T_POINTS)})
    while len(ts) < CHAIN_T_POINTS:
        ts = sorted(set(ts) | {_t_away_from_half(rng)})
    eps = _eps_pair(rng)
    t_cascade = round(rng.uniform(0.3, 0.45), 6)
    eps_arg = ",".join(_fmt(e) for e in eps)
    protocol = Call(
        ["protocol", "--set", "t_grid=" + ",".join(_fmt(t) for t in ts),
         "--set", f"eps_list={eps_arg}", "--set", f"p={P_PARTIAL}"],
        check_protocol(ts, eps, P_PARTIAL),
    )
    cascade = Call(
        ["cascade", "--set", f"t={t_cascade}", "--set", f"n_max={CHAIN_CASCADE_DEPTH}",
         "--set", f"eps_list={eps_arg}", "--set", f"p={P_PARTIAL}"],
        check_cascade(t_cascade, CHAIN_CASCADE_DEPTH, eps, P_PARTIAL),
    )
    return [Op("protocol+cascade", [protocol, cascade])]


def cli(seed: int) -> list[Op]:
    """README examples, criterion-9 configs, feed-forward and bare protocol.

    Op names are ``<command>`` for the README and criterion-9 runs, plus
    ``protocol_ff`` and ``protocol_default``; per-command wall times are
    reported under these names.
    """
    rng = random.Random(seed)
    default_eps = [0.25, 0.05]
    t_readme = round(rng.uniform(0.3, 0.45), 6)
    eps = _eps_pair(rng)
    t_c9 = sorted([round(rng.uniform(0.3, 0.45), 6), round(rng.uniform(0.55, 0.8), 6)])
    t_ff = sorted([round(rng.uniform(0.3, 0.45), 6), round(rng.uniform(0.55, 0.8), 6)])
    t_casc = [round(rng.uniform(0.3, 0.45), 6) for _ in range(2)]
    overlaps = sorted(round(rng.uniform(0.0, 1.0), 4) for _ in range(5))
    tomo_seeds = [rng.randrange(1, 10_000) for _ in range(2)]
    eps_arg = ",".join(_fmt(e) for e in eps)
    return [
        # README examples
        Op("sweep-coupling", [Call(["sweep-coupling", "--set", "t_steps=201", "--out", "sweep.csv"],
                                   check_sweep(201), out_file="sweep.csv")]),
        Op("protocol", [Call(["protocol", "--set", f"t_grid={t_readme}", "--set", f"eps_list={eps_arg}",
                              "--set", f"p={P_PARTIAL}"],
                             check_protocol([t_readme], eps, P_PARTIAL))]),
        Op("cascade", [Call(["cascade", "--set", f"t={t_casc[0]}", "--set", "n_max=6", "--format", "json"],
                            check_cascade(t_casc[0], 6, default_eps, 1.0, fmt="json"))]),
        Op("hom", [Call(["hom"], check_hom([0.0, 0.25, 0.5, 0.85, 1.0]))]),
        Op("tomo", [Call(["tomo", "--seed", str(tomo_seeds[0]), "--set", "state=sigma2",
                          "--set", "shots=10000"],
                         check_tomo(0.4, 10000, tomo_seeds[0], "csv"))]),
        # criterion-9 configs
        Op("sweep-coupling", [Call(["sweep-coupling", "--set", "t_steps=21"], check_sweep(21))]),
        Op("protocol", [Call(["protocol", "--set", "t_grid=" + ",".join(_fmt(t) for t in t_c9),
                              "--set", f"p={P_PARTIAL}"],
                             check_protocol(t_c9, default_eps, P_PARTIAL))]),
        Op("cascade", [Call(["cascade", "--set", f"t={t_casc[1]}", "--set", "n_max=3"],
                            check_cascade(t_casc[1], 3, default_eps, 1.0))]),
        Op("hom", [Call(["hom", "--set", "overlap_grid=" + ",".join(_fmt(o) for o in overlaps)],
                        check_hom(overlaps))]),
        Op("tomo", [Call(["tomo", "--seed", str(tomo_seeds[1]), "--set", "shots=5000", "--format", "json"],
                         check_tomo(0.4, 5000, tomo_seeds[1], "json"))]),
        # feed-forward on a short grid, and the bare default config
        Op("protocol_ff", [Call(["protocol", "--set", "t_grid=" + ",".join(_fmt(t) for t in t_ff),
                                 "--set", "eps_list=0.25", "--set", "feed_forward=true"],
                                check_protocol(t_ff, [0.25], 1.0, feed_forward=True))]),
        Op("protocol_default", [Call(["protocol"], check_protocol([i / 100 for i in range(101)],
                                                                  default_eps, 1.0))],
           known_failure="config error: normalize: zero-measure operator"),
    ]


WORKLOADS = {"sweep": sweep, "chain": chain, "cli": cli}

# Tiny calls of every command a workload runs: the warm-up that completes
# its set-up (lazy imports, first-call paths) before the first timed op.
WARM_UP = {
    "sweep": [["sweep-coupling", "--set", "t_steps=3"]],
    "chain": [
        ["protocol", "--set", "t_grid=0.3", "--set", "eps_list=0.25", "--set", f"p={P_PARTIAL}"],
        ["cascade", "--set", "t=0.4", "--set", "n_max=2", "--set", f"p={P_PARTIAL}"],
    ],
    "cli": [
        ["sweep-coupling", "--set", "t_steps=3"],
        ["protocol", "--set", "t_grid=0.3", "--set", "eps_list=0.25", "--set", f"p={P_PARTIAL}"],
        ["cascade", "--set", "t=0.4", "--set", "n_max=2"],
        ["hom", "--set", "overlap_grid=0.5"],
        ["tomo", "--set", "shots=100"],
    ],
}
