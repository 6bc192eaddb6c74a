"""Entanglement and distance measures: concurrence, fidelity, purity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .qmath import DensityMatrix, kron, psd_sqrt
from .states import SIGMA_Y


@dataclass(frozen=True)
class ConcurrenceReport:
    value: float
    lambdas: tuple[float, float, float, float]


_YY = kron(SIGMA_Y, SIGMA_Y)


def concurrence(rho: DensityMatrix) -> ConcurrenceReport:
    """Wootters concurrence of a two-qubit state.

    The lambdas are the square roots of the eigenvalues of rho * rho_tilde
    with rho_tilde = (sy x sy) conj(rho) (sy x sy); conjugation is entrywise
    in the fixed HH/HV/VH/VV basis.  The non-Hermitian product is reduced to
    the Hermitian form sqrt(rho) rho_tilde sqrt(rho) = M M+ with
    M = sqrt(rho) (sy x sy) sqrt(rho)^T, whose singular values are the
    lambdas directly; taking them from the SVD avoids the square-root
    precision loss of near-zero eigenvalues.
    """
    if rho.dims != (2, 2):
        raise DimensionError(f"concurrence: need two qubits, got dims {rho.dims}")
    root = psd_sqrt(rho)
    m = root @ _YY @ root.T
    # Singular values come back in descending order.
    lam = np.linalg.svd(m, compute_uv=False).tolist()
    value = lam[0] - lam[1] - lam[2] - lam[3]
    value = min(max(value, 0.0), 1.0)
    return ConcurrenceReport(value, tuple(lam))


def concurrence_x_form(rho: DensityMatrix) -> float:
    """Analytic concurrence for X-form states.

    C = 2 max(0, |rho_14| - sqrt(rho_22 rho_33), |rho_23| - sqrt(rho_11 rho_44)).
    """
    m = rho.mat
    inner = abs(m[1, 2]) - np.sqrt(max(m[0, 0].real, 0.0) * max(m[3, 3].real, 0.0))
    outer = abs(m[0, 3]) - np.sqrt(max(m[1, 1].real, 0.0) * max(m[2, 2].real, 0.0))
    return float(max(0.0, 2.0 * inner, 2.0 * outer))


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
