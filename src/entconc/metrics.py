"""Entanglement and distance measures: concurrence, fidelity, purity.

Batch rule: a caller that needs many concurrences (a whole CLI table) makes
one :func:`concurrences` call; :func:`concurrence` is its k = 1 case.  An
X-form state (zero off the diagonal and anti-diagonal, as every state the CLI
prints) gets the closed form :func:`_x_form`, any other :func:`_wootters`.
Each report is bitwise the one the state gets on its own.
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

# Flat 4x4 indices of rho_11, rho_44, rho_22, rho_33, rho_23, rho_14, then the off-X entries.
_X_INDEX = np.array([0, 15, 5, 10, 6, 3, 1, 2, 4, 7, 8, 11, 13, 14])


def _x_form(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Yu & Eberly's closed form (QIC 7, 459 (2007)) over a ``(k, 4, 4)`` stack: the
    X-form mask; C = 2 max(0, |rho_23| - sqrt(rho_11 rho_44), |rho_14| - sqrt(rho_22 rho_33))
    in [0, 1], exact where Wootters' lambdas cancel; and the roots and moduli, from
    which the lambdas are root +- the other modulus.  All elementwise."""
    g = m.reshape(-1, 16)[:, _X_INDEX]
    d = np.maximum(g[:, :4].real, 0.0)
    roots, mods = np.sqrt(d[:, ::2] * d[:, 1::2]), np.abs(g[:, 4:6])
    values = np.minimum(2.0 * np.maximum(mods - roots, 0.0).max(1), 1.0)
    return (g[:, 6:] == 0).all(1), values, roots, mods


def _wootters(mats: np.ndarray) -> list[ConcurrenceReport]:
    """Wootters concurrence of each state in a ``(k, 4, 4)`` stack of
    two-qubit states.

    The lambdas are the square roots of the eigenvalues of rho * rho_tilde
    with rho_tilde = (sy x sy) conj(rho) (sy x sy); conjugation is entrywise
    in the fixed HH/HV/VH/VV basis.  The non-Hermitian product is reduced to
    the Hermitian form sqrt(rho) rho_tilde sqrt(rho) = M M+ with
    M = sqrt(rho) (sy x sy) sqrt(rho)^T, whose singular values are the
    lambdas directly; taking them from the SVD avoids the square-root
    precision loss of near-zero eigenvalues.
    """
    root = psd_sqrt(mats)
    # Singular values come back in descending order.
    lams = np.linalg.svd(root @ _YY @ root.swapaxes(1, 2), compute_uv=False).tolist()
    return [
        ConcurrenceReport(min(max(l0 - l1 - l2 - l3, 0.0), 1.0), (l0, l1, l2, l3))
        for l0, l1, l2, l3 in lams
    ]


def concurrences(states: Sequence[DensityMatrix]) -> list[ConcurrenceReport]:
    """Concurrence of each two-qubit state: one :func:`_x_form` pass over the
    stack, and one :func:`_wootters` batch over the states not X-form."""
    for rho in states:
        if rho.dims != (2, 2):
            raise DimensionError(f"concurrence: need two qubits, got dims {rho.dims}")
    if not states:
        return []
    mats = np.stack([rho.mat for rho in states])
    x_form, values, roots, mods = _x_form(mats)
    lams = np.sort(np.concatenate([roots + mods[:, ::-1], roots - mods[:, ::-1]], 1))[:, ::-1]
    reports = list(map(ConcurrenceReport, values.tolist(), map(tuple, lams.tolist())))
    if x_form.all():
        return reports
    rest = iter(_wootters(mats[~x_form]))
    return [r if x else next(rest) for r, x in zip(reports, x_form.tolist())]


def concurrence(rho: DensityMatrix) -> ConcurrenceReport:
    """Concurrence of a two-qubit state: :func:`concurrences` with k = 1."""
    return concurrences([rho])[0]


def pair_concurrences(rho: DensityMatrix) -> tuple[float, float, float]:
    """Concurrences (C_01, C_02, C_12) of the three pair marginals of a
    three-qubit state.

    The marginals are traced from the 8x8 matrix in one gather and validated
    as one stack; their values come from :func:`_x_form` (:func:`_wootters`
    for any not X-form), each bitwise ``concurrence(rho.ptrace(keep)).value``.
    """
    if rho.dims != (2, 2, 2):
        raise DimensionError(f"pair_concurrences: need three qubits, got dims {rho.dims}")
    marginals = rho.mat.ravel()[_PAIR_INDEX].sum(-1)
    _validate(marginals, (2, 2))
    x_form, values, _, _ = _x_form(marginals)
    if not x_form.all():
        values[~x_form] = [r.value for r in _wootters(marginals[~x_form])]
    return tuple(values.tolist())


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity F = (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    if rho.dim != sigma.dim:
        raise DimensionError(f"fidelity: dims {rho.dim} vs {sigma.dim}")
    root = psd_sqrt(rho.mat)
    inner = root @ sigma.mat @ root
    # inner is PSD up to roundoff; clamp its spectrum.
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    f = float(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2)
    return min(max(f, 0.0), 1.0)


def purity(rho: DensityMatrix) -> float:
    """Tr rho^2, in [1/dim, 1]."""
    return float(np.real(np.trace(rho.mat @ rho.mat)))
