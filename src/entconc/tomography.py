"""Simulated two-qubit state tomography.

The 16 settings of James, Kwiat, Munro & White (PRA 64, 052312, 2001), the
product projectors |x><x| (x) |y><y| for x, y in {H, V, D, R}, are one
informationally complete constant stack, ``PROJECTORS``, built at import; the
only knob is the number of shots per setting.  Reconstruction is linear
inversion against ``BASIS``, then projection onto the nearest (Frobenius) PSD
unit-trace matrix, i.e. of the eigenvalue vector onto the probability simplex.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionError
from .qmath import DensityMatrix, kron

# |H>, |V>, |D> = (|H> + |V>)/sqrt(2) and |R> = (|H> + i|V>)/sqrt(2).
_KETS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0j]], dtype=complex)
_KETS[2:] /= np.sqrt(2)

# Setting 4 i + j measures |x_i><x_i| (x) |x_j><x_j| (HH, HV, ..., RR).
_SQ = [np.outer(k, k.conj()) for k in _KETS]
PROJECTORS = np.array([kron(x, y) for x in _SQ for y in _SQ])
# Row k is vec(P_k)^*, so BASIS @ vec(rho) = tr(P_k rho) for each setting k.
BASIS = PROJECTORS.reshape(16, 16).conj()
PROJECTORS.flags.writeable = BASIS.flags.writeable = False


def simulate_counts(
    rho: DensityMatrix, shots: int = 0, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Born probabilities per setting, or Poisson counts when shots > 0."""
    if rho.dims != (2, 2):
        raise DimensionError(f"simulate_counts: dims {rho.dims}")
    if shots < 0:
        raise ConfigError(f"shots must be >= 0, got {shots}")
    # The stacked trace, not BASIS @ vec(rho): the latter sums in another
    # order, and its last bits can move a seeded Poisson count.
    probs = np.clip(np.trace(PROJECTORS @ rho.mat, axis1=1, axis2=2).real, 0.0, 1.0)
    if shots == 0:
        return probs
    if rng is None:
        rng = np.random.default_rng()
    return rng.poisson(shots * probs).astype(float)


def _simplex_projection(w: np.ndarray) -> np.ndarray:
    # Euclidean projection of a real vector onto {x >= 0, sum x = 1}.
    u = np.sort(w)[::-1]
    css = np.cumsum(u)
    rho_idx = np.nonzero(u * np.arange(1, len(w) + 1) > (css - 1.0))[0][-1]
    theta = (css[rho_idx] - 1.0) / (rho_idx + 1)
    return np.clip(w - theta, 0.0, None)


def reconstruct(counts: np.ndarray, shots: int = 0) -> DensityMatrix:
    """Linear inversion followed by nearest PSD unit-trace projection."""
    freqs = np.asarray(counts, dtype=float)
    if shots > 0:
        freqs = freqs / shots
    raw = np.linalg.solve(BASIS, freqs.astype(complex)).reshape(4, 4)
    w, v = np.linalg.eigh((raw + raw.conj().T) / 2.0)
    return DensityMatrix((v * _simplex_projection(w)) @ v.conj().T, (2, 2))
