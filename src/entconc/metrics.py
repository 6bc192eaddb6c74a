"""Entanglement and distance measures: concurrence, fidelity, purity.

Batch rule: concurrence is one kernel, :func:`_wootters`, over a stack of
two-qubit states.  A caller that needs many concurrences (a whole CLI
table) collects its states and makes one :func:`concurrences` call;
:func:`concurrence` is its k = 1 case.  Each report is bitwise the one the
state gets on its own.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .qmath import DensityMatrix, _validate, kron, psd_sqrt
from .states import SIGMA_Y


@dataclass(frozen=True)
class ConcurrenceReport:
    value: float
    lambdas: tuple[float, float, float, float]


_YY = kron(SIGMA_Y, SIGMA_Y)


# Flat indices into an 8x8 three-qubit matrix that gather its pair marginals
# (0, 1), (0, 2), (1, 2): the reshaped (2,)*6 tensor's diagonal over the
# traced qubit's two axes, shape (3, 4, 4, 2).  Summing the last axis is the
# partial trace, as np.trace computes it.
_PAIR_INDEX = np.stack(
    [np.arange(64).reshape((2,) * 6).diagonal(axis1=q, axis2=q + 3) for q in (2, 1, 0)]
).reshape(3, 4, 4, 2)


def _wootters(w: np.ndarray, v: np.ndarray) -> list[ConcurrenceReport]:
    """Wootters concurrence of each state in a stack of two-qubit states,
    given as its descending eigendecomposition: ``w`` (k, 4), ``V`` (k, 4, 4).

    The lambdas are the square roots of the eigenvalues of rho * rho_tilde
    with rho_tilde = (sy x sy) conj(rho) (sy x sy); conjugation is entrywise
    in the fixed HH/HV/VH/VV basis.  The non-Hermitian product is reduced to
    the Hermitian form sqrt(rho) rho_tilde sqrt(rho) = M M+ with
    M = sqrt(rho) (sy x sy) sqrt(rho)^T, whose singular values are the
    lambdas directly; taking them from the SVD avoids the square-root
    precision loss of near-zero eigenvalues.
    """
    root = psd_sqrt((w, v))
    # Singular values come back in descending order.
    lams = np.linalg.svd(root @ _YY @ root.swapaxes(1, 2), compute_uv=False).tolist()
    return [
        ConcurrenceReport(min(max(l0 - l1 - l2 - l3, 0.0), 1.0), (l0, l1, l2, l3))
        for l0, l1, l2, l3 in lams
    ]


def concurrences(states: Sequence[DensityMatrix]) -> list[ConcurrenceReport]:
    """Wootters concurrence of each two-qubit state, as one :func:`_wootters`
    batch over the states' kept decompositions."""
    for rho in states:
        if rho.dims != (2, 2):
            raise DimensionError(f"concurrence: need two qubits, got dims {rho.dims}")
    if not states:
        return []
    w, v = zip(*(rho.eig for rho in states))
    return _wootters(np.stack(w), np.stack(v))


def concurrence(rho: DensityMatrix) -> ConcurrenceReport:
    """Wootters concurrence of a two-qubit state: :func:`concurrences` with k = 1."""
    return concurrences([rho])[0]


def pair_concurrences(rho: DensityMatrix) -> tuple[float, float, float]:
    """Concurrences (C_01, C_02, C_12) of the three pair marginals of a
    three-qubit state.

    The marginals are traced from the 8x8 matrix in one gather, validated as
    one stack and passed through :func:`_wootters` as one batch; each value
    is bitwise the one ``concurrence(rho.ptrace(keep)).value`` gives.
    """
    if rho.dims != (2, 2, 2):
        raise DimensionError(f"pair_concurrences: need three qubits, got dims {rho.dims}")
    marginals = rho.mat.ravel()[_PAIR_INDEX].sum(-1)
    c01, c02, c12 = _wootters(*_validate(marginals, (2, 2)))
    return c01.value, c02.value, c12.value


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity F = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    if rho.dim != sigma.dim:
        raise DimensionError(f"fidelity: dims {rho.dim} vs {sigma.dim}")
    root = psd_sqrt(rho)
    inner = root @ sigma.mat @ root
    # inner is PSD up to roundoff; clamp its spectrum.
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    f = float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)
    return min(max(f, 0.0), 1.0)


def purity(rho: DensityMatrix) -> float:
    """Tr rho^2, in [1/dim, 1]."""
    return float(np.real(np.trace(rho.mat @ rho.mat)))
