"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host, load from other tenants slows every instruction stream
for seconds to minutes at a time: the same op's median moves by 20-30 %
from one run to the next while the code stays the same, and single ops of
one run differ by up to 2x.  The benchmark runs this kernel before the
first op and after every op, under the same load as the ops, and scales
each op's time by ``(REFERENCE_MS + OFFSET_MS) / (k + OFFSET_MS)``, where k
is the median kernel time over the two batches of kernel runs around it.
A time scaled this way reads as it would on the machine at the reference
speed.

The kernel uses numpy and the standard library only, never ``entconc``, so
no change to the package under test can move it.  Its mix is that of the
package's hot paths: tuple-keyed dicts expanded term by term (as in the
Fock-space oracle), small dense Hermitian eigenproblems, and the garbage
collector's young-generation passes that such code triggers.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Median kernel time on the machine the benchmark was written on (2-vCPU
# KVM guest, Intel Xeon family 6 model 143, Python 3.11).  It is only a
# unit: a timing scaled to it stays in milliseconds.
REFERENCE_MS = 3.5
# The ops' times move less than the kernel's with the load, by a share that
# changes from one spell of load to the next (see README.md).  The factor
# treats the kernel as if OFFSET_MS of its time did not move; of the offsets
# tried, 1 ms left the smallest worst-case spread between runs.
OFFSET_MS = 1.0
# Kernel runs per batch: 16 around each op give a steady median, at a few
# per cent of the run's time.
RUNS_PER_BATCH = 8


def _hermitian(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    return a @ a.conj().T


_MATRICES = [_hermitian(seed) for seed in range(8)]


def kernel() -> float:
    """One run of the reference work; the returned value is consumed by the caller."""
    total = 0.0
    for _ in range(6):
        terms: dict[tuple, complex] = {(): 1.0 + 0.5j}
        for i in range(7):
            a, b = math.sqrt((i + 1) / 9), -math.sqrt(1 - (i + 1) / 9)
            expanded: dict[tuple, complex] = {}
            for key, c in terms.items():
                for mode, w in ((("B", i % 2), a), (("E", i % 2), b)):
                    k = tuple(sorted(key + (mode,)))
                    expanded[k] = expanded.get(k, 0.0) + c * w
            terms = expanded
        total += sum(abs(v) ** 2 for v in terms.values())
        for m in _MATRICES:
            w, v = np.linalg.eigh(m)
            total += float(np.einsum("ab,cb->", v, v.conj()).real) + float(w.sum())
    return total


class Calibration:
    """Batches of kernel times, one batch before the first timed interval
    and one after each."""

    def __init__(self):
        self.batches: list[list[float]] = []
        self.checksum = 0.0

    def sample(self, runs: int = RUNS_PER_BATCH) -> None:
        batch = []
        for _ in range(runs):
            start = time.perf_counter()
            self.checksum += kernel()
            batch.append(time.perf_counter() - start)
        self.batches.append(batch)

    def kernel_ms(self) -> float:
        return 1000.0 * statistics.median(t for batch in self.batches for t in batch)

    def factors(self) -> list[float]:
        """Per timed interval, the factor that scales it to the reference speed."""
        return [(REFERENCE_MS + OFFSET_MS) / (1000.0 * statistics.median(before + after) + OFFSET_MS)
                for before, after in zip(self.batches, self.batches[1:])]
