"""Named states and structural classifiers.

Basis convention, fixed globally: H -> 0, V -> 1; two-qubit order
(HH, HV, VH, VV) with Alice's qubit first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import DensityMatrix

SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def ket_density(ket: np.ndarray, dims: tuple[int, ...]) -> DensityMatrix:
    ket = np.asarray(ket, dtype=complex)
    ket = ket / np.linalg.norm(ket)
    return DensityMatrix(np.outer(ket, ket.conj()), dims)


def singlet_ket() -> np.ndarray:
    """(|HV> - i |VH>)/sqrt(2), the -i-phase convention of the source."""
    k = np.zeros(4, dtype=complex)
    k[1] = 1.0 / np.sqrt(2)
    k[2] = -1j / np.sqrt(2)
    return k


def singlet() -> DensityMatrix:
    """Projector onto the -i-phase singlet shared by Alice and Bob."""
    return ket_density(singlet_ket(), (2, 2))


def singlet_standard_ket() -> np.ndarray:
    """(|HV> - |VH>)/sqrt(2), the textbook phase convention.

    Differs from :func:`singlet_ket` by the local phase diag(1, -i) on
    Alice; all closed-form output matrices below are written in this
    convention (they carry real coherences).
    """
    k = np.zeros(4, dtype=complex)
    k[1] = 1.0 / np.sqrt(2)
    k[2] = -1.0 / np.sqrt(2)
    return k


def singlet_standard() -> DensityMatrix:
    return ket_density(singlet_standard_ket(), (2, 2))


def mixed_env() -> DensityMatrix:
    """Completely unpolarized single photon, I/2."""
    return DensityMatrix(np.eye(2, dtype=complex) / 2.0, (2,))


# The protocol's and the cascade's constant inputs, built and validated once
# per process.  A DensityMatrix is immutable, so every run shares them; the
# functions above still return a fresh state on each call.
SINGLET_STANDARD = singlet_standard()
MIXED_ENV = mixed_env()


def werner(q: float, singlet_mat: np.ndarray | None = None) -> DensityMatrix:
    """q * singlet projector + (1-q) * I/4 (uses the -i singlet by default)."""
    if singlet_mat is None:
        singlet_mat = singlet().mat
    return DensityMatrix(q * singlet_mat + (1.0 - q) * np.eye(4) / 4.0, (2, 2))


@dataclass(frozen=True)
class WernerDecomposition:
    singlet_weight: float
    residual: float
    phase_convention: str  # "-i" or "standard"


def _fit_weight(rho: np.ndarray, proj: np.ndarray) -> tuple[float, float]:
    # Least squares over q for rho ~ q*proj + (1-q)*I/4; the direction
    # proj - I/4 has squared Frobenius norm 3/4.
    direction = proj - np.eye(4) / 4.0
    q = float(np.real(np.vdot(direction, rho - np.eye(4) / 4.0)) / 0.75)
    # q = -1/3 is the physical lower edge (maximally mixed minus singlet).
    q = min(max(q, -1.0 / 3.0), 1.0)
    fit = q * proj + (1.0 - q) * np.eye(4) / 4.0
    return q, float(np.linalg.norm(rho - fit))


def classify_werner(rho: DensityMatrix) -> WernerDecomposition:
    """Best Werner fit of a two-qubit state.

    Tries the -i-phase singlet first; if the residual exceeds 1e-6 the
    standard-phase singlet is also tried and the better fit is reported.
    """
    q, res = _fit_weight(rho.mat, singlet().mat)
    convention = "-i"
    if res > 1e-6:
        q2, res2 = _fit_weight(rho.mat, singlet_standard().mat)
        if res2 < res:
            q, res, convention = q2, res2, "standard"
    return WernerDecomposition(q, res, convention)

