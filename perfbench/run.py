"""Benchmark of the entconc commands, end to end and layer by layer.

    python3 perfbench/run.py --workload {sweep,chain,cli,all} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root; it tests the package under ``src/``.  One
process drives a closed loop: one op at a time, no worker threads.  The
workloads and why each exists are described in ``workloads.py`` and
``README.md``.

With ``--trace 0`` it reports the end-to-end metrics, each timing scaled to
a reference machine speed that ``calibrate`` measures between ops.  With
``--trace 1`` whole cycles of ops alternate between untraced and traced, and
it reports the per-layer metrics.  Every op's output is checked, untimed, against the
references in ``checks.py``.  A report goes to stdout; the last line of
stdout is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the full results (run stamp, sample counts, the tail percentile, every
latency) go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import importlib.metadata
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import calibrate
import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORK = OUT / "work"

SETUP_REPEATS = 5
# Untimed ops before the timed loop: the first seconds of a busy loop run
# measurably slower on a virtual machine, whatever the code.
SETTLE_S = 2.0
CHILD_TIMEOUT_S = 150
TAIL_SAMPLES_BEYOND = 10
CLI_COMMANDS = ("sweep-coupling", "protocol", "cascade", "hom", "tomo", "protocol_ff", "protocol_default")
CALL_COUNTS = ("qmath.validate", "qmath.normalize", "channel.couple", "fock.oracle_couple",
               "protocol.feed_forward", "metrics.concurrence", "metrics.fidelity")
SELF_TIMES = ("qmath.validate", "qmath.partial_trace", "qmath.psd_sqrt", "channel.couple",
              "fock.oracle_couple", "protocol.measure_env", "protocol.apply_filter",
              "protocol.feed_forward", "cascade.simulate_cascade", "metrics.concurrence",
              "metrics.fidelity", "tomography.simulate_counts", "tomography.reconstruct",
              "fock.hom_scan")
END_TO_END_NAMES = ("setup_s", "points_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")
PER_LAYER_NAMES = (
    *(f"import.{p}_ms" for p in ("numpy", "scipy", "entconc")),
    *(f"{n}.calls" for n in CALL_COUNTS),
    *(f"{n}.self_ms" for n in SELF_TIMES),
    "channel.couplings_per_point", "cascade.couplings_per_depth", "protocol.feed_forward.cost_evals",
    *(f"cli.{c}.wall_ms" for c in CLI_COMMANDS),
    "trace.overhead_ratio",
)


class Sample(NamedTuple):
    op: int  # index into the workload's ops
    latency: float  # seconds
    results: list  # (exit code, data output, stderr) per call
    traced: bool


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on the package under test; killed and reaped on timeout."""
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=child_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )


# --- set-up probes ----------------------------------------------------------


def import_breakdown() -> dict[str, float]:
    """Self time of each package's modules during a cold ``import entconc.cli``."""
    proc = run_child(["-X", "importtime", "-c", "import entconc.cli"])
    if proc.returncode != 0:
        raise RuntimeError(f"import entconc.cli failed: {proc.stderr}")
    self_us = {"numpy": 0, "scipy": 0, "entconc": 0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line.split(":", 1)[1].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        package = fields[2].strip().split(".")[0]
        if package in self_us:
            self_us[package] += int(fields[0])
    return {f"import.{pkg}_ms": us / 1000.0 for pkg, us in self_us.items()}


def setup_times(workload: str, calibration: calibrate.Calibration) -> list[float]:
    """Set-up time of fresh interpreters, with the reference kernel sampled
    before the first and after each, so each is scaled by the speed around it."""
    out = []
    calibration.sample()
    for _ in range(SETUP_REPEATS):
        proc = run_child([str(HERE / "child.py"), "setup", workload])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr}")
        out.append(float(proc.stdout.split()[-1]))
        calibration.sample()
    return out


# --- running ops ------------------------------------------------------------


def run_in_process(op: workloads.Op, tracer=None, op_id: int = 0) -> list[tuple]:
    """Call ``entconc.cli.main`` for each of the op's calls; output captured in memory."""
    import entconc.cli

    results = []
    for call in op.calls:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op_id = op_id
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = entconc.cli.main(call.argv)
        finally:
            if tracer is not None:
                tracer.op_id = None
        results.append((rc, out.getvalue(), err.getvalue()))
    return results


def run_subprocess(op: workloads.Op, tracer=None, op_id: int = 0) -> list[tuple]:
    """Run each call as ``python3 -m entconc.cli`` in a fresh interpreter."""
    results = []
    spans_path = WORK / "spans.json"
    for call in op.calls:
        if call.out_file:
            (WORK / call.out_file).unlink(missing_ok=True)
        if tracer is None:
            argv = ["-m", "entconc.cli", *call.argv]
        else:
            spans_path.unlink(missing_ok=True)
            argv = [str(HERE / "child.py"), "trace", str(spans_path), "--", *call.argv]
        try:
            proc = run_child(argv, cwd=WORK)
        except subprocess.TimeoutExpired:
            results.append((None, "", "timeout"))
            continue
        data = proc.stdout
        if call.out_file and proc.returncode == 0:
            data = (WORK / call.out_file).read_text() + data
        results.append((proc.returncode, data, proc.stderr))
        if tracer is not None and spans_path.exists():
            tracer.extend(json.loads(spans_path.read_text()), op_id)
    return results


def settle(ops, run_op) -> None:
    deadline = time.perf_counter() + SETTLE_S
    for op in itertools.cycle(ops):
        run_op(op)
        calibrate.kernel()
        if time.perf_counter() >= deadline:
            return


def measure(ops, run_op, seconds: float, tracer=None,
            calibration: calibrate.Calibration | None = None) -> list[Sample]:
    """Closed loop over whole cycles of ``ops`` for about ``seconds``.

    ``calibration`` is required untraced and unused with a tracer.

    Every run covers whole cycles, so the mix of ops behind each statistic is
    the same from run to run.  Untraced, the reference kernel runs before the
    first op and after each op (outside the op's timing), so it samples the
    machine under the same load, and the loop ends after the cycle that ends
    nearest ``seconds`` of the ops' scaled time (see ``calibrate``): on a
    fast or a slow machine, a run times the same number of cycles.  With a tracer,
    cycles alternate untraced and traced, so both kinds see the same load
    from outside; the loop ends after the untraced-traced pair that ends
    nearest the deadline on the wall clock.
    """
    samples: list[Sample] = []
    if tracer is None:
        calibration.sample()
    block_start = time.perf_counter()
    deadline = block_start + seconds
    for cycle in itertools.count():
        traced = tracer is not None and cycle % 2 == 1
        if tracer is not None:
            tracer.attach() if traced else tracer.detach()
        for i, op in enumerate(ops):
            start = time.perf_counter()
            results = run_op(op, tracer if traced else None, len(samples))
            samples.append(Sample(i, time.perf_counter() - start, results, traced))
            if tracer is None:
                calibration.sample()
        if tracer is None:
            scaled = sum(s.latency * f for s, f in zip(samples, calibration.factors()))
            if scaled + scaled / (cycle + 1) / 2.0 >= seconds:
                return samples
        elif traced:
            now = time.perf_counter()
            if now + (now - block_start) / 2.0 >= deadline:
                tracer.detach()
                return samples
            block_start = now


# --- checking ---------------------------------------------------------------


def judge(ops, samples: list[Sample]) -> tuple[list[str], list[list[int]], list[str]]:
    """Check each op's first output; later runs must repeat it byte for byte.

    Returns, per sample, its status ("ok", "failed" or "known_failure") and
    the table rows of each of its calls, plus the failure messages.
    """
    reference: dict[int, list] = {}
    verdict: dict[int, tuple[str, list[int]]] = {}
    problems = []
    for sample in samples:
        i = sample.op
        if i in verdict:
            continue
        op = ops[i]
        reference[i] = sample.results
        no_rows = [0] * len(op.calls)
        if op.known_failure and any(rc == 2 and op.known_failure in err for rc, _, err in sample.results):
            verdict[i] = ("known_failure", no_rows)
            continue
        try:
            rows = []
            for call, (rc, out, err) in zip(op.calls, sample.results):
                if rc != 0:
                    raise checks.CheckFailed(f"exit {rc}: {err.strip()[-300:]}")
                rows.append(call.check(out))
            verdict[i] = ("ok", rows)
        except (checks.CheckFailed, ValueError, KeyError, IndexError) as exc:
            verdict[i] = ("failed", no_rows)
            problems.append(f"{op.name} {op.calls[0].argv}: {type(exc).__name__}: {exc}")
    statuses, rows = [], []
    for sample in samples:
        status, n = verdict[sample.op]
        if sample.results != reference[sample.op]:
            op = ops[sample.op]
            status, n = "failed", [0] * len(op.calls)
            problems.append(f"{op.name} {op.calls[0].argv}: output differs between repeated runs")
        statuses.append(status)
        rows.append(n)
    return statuses, rows, problems


# --- metrics ----------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies)
    k = max(len(ordered) - TAIL_SAMPLES_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def median_per_op(n_ops: int, samples: list[Sample]) -> list[float]:
    return [statistics.median(s.latency for s in samples if s.op == i) for i in range(n_ops)]


def end_to_end(samples, rows, statuses, setup: list[float], in_process: bool,
               op_factors: list[float], setup_factors: list[float]) -> dict:
    """The end-to-end metrics, plus ``fail_ratio`` (which counts the known
    failure too) for the report.

    Each op's time and each set-up time is multiplied by its factor from
    ``calibrate``, so the timings read as at the reference speed; ``raw``
    keeps each timing as measured.  ``points_per_s`` is the rows of one
    cycle of ops over the sum of each op's mean latency.
    """
    n = len(samples)
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    cycle_rows = {s.op: sum(r) for s, r in zip(samples, rows)}

    def timings(factors: list[float], setup_factors: list[float]) -> dict:
        latencies = [s.latency * f for s, f in zip(samples, factors)]
        cycle_seconds = sum(statistics.fmean(t for s, t in zip(samples, latencies) if s.op == i)
                            for i in cycle_rows)
        tail_value, tail_pct = tail(latencies)
        return {
            "setup_s": (statistics.median(t * f for t, f in zip(setup, setup_factors)), "s", len(setup), {}),
            "points_per_s": (sum(cycle_rows.values()) / cycle_seconds, "1/s", n, {}),
            "op_p50_ms": (1000.0 * statistics.median(latencies), "ms", n, {}),
            "op_tail_ms": (1000.0 * tail_value, "ms", n, {"percentile": round(tail_pct, 2)}),
        }

    raw = timings([1.0] * n, [1.0] * len(setup))
    metrics = {
        name: {"value": value, "unit": unit, "samples": count, "raw": raw[name][0], **extra}
        for name, (value, unit, count, extra) in timings(op_factors, setup_factors).items()
    }
    metrics["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB", "samples": 1}
    metrics["fail_ratio"] = {"value": sum(st != "ok" for st in statuses) / n, "unit": "ratio", "samples": n}
    return metrics


def per_layer(ops, samples, rows, spans, imports: dict, in_process: bool) -> dict:
    """Counts and self times per traced op, the derived counters, and the
    per-command wall times of untraced subprocess runs."""
    untraced = [s for s in samples if not s.traced]
    traced = [s for s in samples if s.traced]
    n = len(traced)
    summary = tracing.summarize(spans)
    calls, self_ns, couplings = summary["calls"], summary["self_ns"], summary["couplings"]
    points: dict[str, int] = {}
    for sample, sample_rows in zip(samples, rows):
        if sample.traced:
            for call, r in zip(ops[sample.op].calls, sample_rows):
                points[call.argv[0]] = points.get(call.argv[0], 0) + r

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {name: {"value": value, "unit": "ms"} for name, value in imports.items()}
    for name in CALL_COUNTS:
        metrics[f"{name}.calls"] = {"value": calls.get(name, 0) / n, "unit": "calls/op"}
    for name in SELF_TIMES:
        metrics[f"{name}.self_ms"] = {"value": self_ns.get(name, 0) / 1e6 / n, "unit": "ms/op"}
    metrics["channel.couplings_per_point"] = {"unit": "count", "value": ratio(
        couplings.get("cli.cmd_protocol", 0) + couplings.get("cli.cmd_sweep_coupling", 0),
        points.get("protocol", 0) + points.get("sweep-coupling", 0))}
    metrics["cascade.couplings_per_depth"] = {"unit": "count", "value": ratio(
        couplings.get("cli.cmd_cascade", 0), points.get("cascade", 0))}
    metrics["protocol.feed_forward.cost_evals"] = {"unit": "evals/call", "value": ratio(
        summary["cost_evals"], calls.get("protocol.feed_forward", 0))}
    for command in CLI_COMMANDS:
        walls = [s.latency for s in untraced if not in_process and ops[s.op].name == command]
        metrics[f"cli.{command}.wall_ms"] = {
            "value": 1000.0 * statistics.median(walls) if walls else 0.0, "unit": "ms"}
    metrics["trace.overhead_ratio"] = {"unit": "ratio", "value": sum(median_per_op(len(ops), traced))
                                       / sum(median_per_op(len(ops), untraced)) - 1.0}
    return metrics


# --- the run ----------------------------------------------------------------


def stamp(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "entconc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    # The ceiling keeps git from looking for a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"), "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    ops = workloads.WORKLOADS[workload](seed)
    in_process = workload != "cli"
    run_op = run_in_process if in_process else run_subprocess
    result = {"stamp": stamp(workload, seed, seconds, trace)}
    # One CPU for the whole run: the ops, the interpreters they start and the
    # reference kernel then run where the kernel measures the speed.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    result["stamp"]["cpu"] = cpu
    WORK.mkdir(parents=True, exist_ok=True)
    # Compile the package once so that no probe pays for writing .pyc files.
    compileall.compile_dir(str(SRC / "entconc"), quiet=2)
    imports = import_breakdown()
    calibration = setup_calibration = None
    setup = []
    if not trace:
        calibration, setup_calibration = calibrate.Calibration(), calibrate.Calibration()
        setup = setup_times(workload, setup_calibration)
    sys.path.insert(0, str(SRC))
    if in_process:
        import entconc.cli

        if not Path(entconc.cli.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported entconc from {entconc.cli.__file__}, not {SRC}")
    settle(ops, run_op)

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        if in_process:
            tracer.install()
    samples = measure(ops, run_op, seconds, tracer, calibration)
    statuses, rows, problems = judge(ops, samples)
    if trace:
        metrics = per_layer(ops, samples, rows, tracer.spans, imports, in_process)
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "spans" / f"{workload}-seed{seed}.jsonl.gz")
        result["spans"] = len(tracer.spans)
    else:
        metrics = end_to_end(samples, rows, statuses, setup, in_process,
                             calibration.factors(), setup_calibration.factors())
        metrics.update({k: {"value": v, "unit": "ms", "samples": 1} for k, v in imports.items()})
        result["speed"] = {
            "reference_ms": calibrate.REFERENCE_MS,
            **{phase: {"kernel_ms": cal.kernel_ms(), "factors": cal.factors()}
               for phase, cal in (("ops", calibration), ("setup", setup_calibration))},
        }
    result["ops"] = [
        {"name": op.name, "argv": [c.argv for c in op.calls],
         "latencies_ms": [round(1000.0 * s.latency, 3) for s in samples if s.op == i]}
        for i, op in enumerate(ops)
    ]
    result.update(
        attempted=len(samples),
        failed=statuses.count("failed"),
        known_failures=statuses.count("known_failure"),
        problems=sorted(set(problems)),
        metrics=metrics,
    )
    return result


def report(result: dict) -> None:
    st = result["stamp"]
    print(f"entconc benchmark: workload={st['workload']} seed={st['seed']} seconds={st['seconds']} "
          f"trace={int(st['trace'])}")
    print("stamp: " + " ".join(f"{k}={st[k]}" for k in ("commit", "src_sha256", "python", "numpy",
                                                         "scipy", "nproc", "machine")))
    print(f"ops: attempted={result['attempted']} failed={result['failed']} "
          f"known_failures={result['known_failures']}")
    if result["known_failures"]:
        print("known failure: bare 'entconc protocol' exits 2 (T = 0 in its default grid); "
              "left visible on purpose until the command is fixed")
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    if "speed" in result:
        sp = result["speed"]
        for phase in ("ops", "setup"):
            factors = sp[phase]["factors"]
            print(f"reference kernel around {phase}: median {sp[phase]['kernel_ms']:.4g} ms "
                  f"(reference {sp['reference_ms']:g} ms); factors {min(factors):.3g} to {max(factors):.3g}")
    print(f"{'metric':40} {'value':>14} {'unit':10} {'samples':>7}  {'as measured':>14}")
    for name, m in result["metrics"].items():
        raw = f"{m['raw']:14.6g}" if "raw" in m else ""
        note = f"  p{m['percentile']:g}" if "percentile" in m else ""
        print(f"{name:40} {m['value']:14.6g} {m['unit']:10} {m.get('samples', ''):>7}  {raw:>14}{note}")


def result_line(result: dict, names) -> str:
    metrics = result["metrics"]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]} for k in names},
    })


def run_all(args) -> int:
    """Each workload in its own process; their reports and one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines) + "\n", flush=True)
        last = json.loads(last)
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "entconc" / "__init__.py").is_file():
        print(f"run.py: no package at {SRC / 'entconc'}; run from an entconc checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    report(result)
    print(result_line(result, PER_LAYER_NAMES if args.trace else END_TO_END_NAMES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
