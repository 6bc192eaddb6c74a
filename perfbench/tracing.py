"""Spans around the public functions of every ``entconc`` layer.

The tracer wraps functions from outside the package: each public function
defined in a layer module is replaced by a wrapper, and every ``entconc``
module that bound the original (by ``from ... import``, or as a value of a
module-level dict such as ``cli.COMMANDS``) is rebound to the wrapper.
``DensityMatrix.__post_init__`` is wrapped as ``qmath.validate``.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``.  Spans are kept
in memory and written out when the run ends.  Spans are recorded only while
``op_id`` is set, so untimed work (output checks) leaves none.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("qmath", "states", "channel", "fock", "protocol", "cascade", "metrics", "tomography", "cli")
COUPLING_PREFIX = "channel.couple"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id: int | None = None
        self._patches: list[tuple] = []
        self._validate: tuple | None = None

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter_ns()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions and rebind them package-wide."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"entconc.{layer}")
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        # (namespace, key, original, wrapper); a namespace is a dict, such as
        # a module's __dict__ or a module-level table like cli.COMMANDS.
        self._patches = []
        for name, mod in list(sys.modules.items()):
            if name != "entconc" and not name.startswith("entconc."):
                continue
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((vars(mod), attr, obj, wrappers[obj]))
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if inspect.isfunction(value) and value in wrappers:
                            self._patches.append((obj, key, value, wrappers[value]))
        dm = importlib.import_module("entconc.qmath").DensityMatrix
        self._validate = (dm, dm.__post_init__, self.wrap("qmath.validate", dm.__post_init__))
        self.attach()

    def attach(self) -> None:
        for namespace, key, _, wrapper in self._patches:
            namespace[key] = wrapper
        if self._validate:
            cls, _, wrapper = self._validate
            cls.__post_init__ = wrapper

    def detach(self) -> None:
        """Restore the original functions, so untraced ops pay nothing."""
        for namespace, key, original, _ in self._patches:
            namespace[key] = original
        if self._validate:
            cls, original, _ = self._validate
            cls.__post_init__ = original

    def extend(self, spans: list[list], op_id: int) -> None:
        """Append spans recorded by another process, re-indexing parents."""
        base = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op_id])

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ancestor(spans: list[list], idx: int, pred) -> int:
    """Index of the nearest strict ancestor whose name satisfies ``pred``, or -1."""
    idx = spans[idx][3]
    while idx >= 0 and not pred(spans[idx][0]):
        idx = spans[idx][3]
    return idx


def summarize(spans: list[list]) -> dict:
    """Per-name call counts and self time, plus the counters derived from spans.

    Self time is a span's duration minus the durations of its direct
    children.  ``couplings`` counts the outermost ``channel.couple*`` spans,
    keyed by the ``cli.cmd_*`` command they ran under, so a coupling is
    counted once however the channel layer composes it.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    couplings: dict[str, int] = defaultdict(int)
    cost_evals = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        self_ns[name] += end - start - child_ns[i]
        if name.startswith(COUPLING_PREFIX) and _ancestor(spans, i, lambda n: n.startswith(COUPLING_PREFIX)) < 0:
            cmd = _ancestor(spans, i, lambda n: n.startswith("cli.cmd_"))
            couplings[spans[cmd][0] if cmd >= 0 else ""] += 1
        if name == "metrics.fidelity" and _ancestor(spans, i, lambda n: n == "protocol.feed_forward") >= 0:
            cost_evals += 1
    return {"calls": dict(calls), "self_ns": dict(self_ns), "couplings": dict(couplings), "cost_evals": cost_evals}
