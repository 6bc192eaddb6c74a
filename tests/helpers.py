"""Shared test helpers: random states and unitaries, and sigma_II."""

import numpy as np

from entconc.cascade import CascadeParams, closed_form_state, coefficients
from entconc.qmath import DensityMatrix


def sigma2(T: float) -> DensityMatrix:
    """The measured single-coupling state sigma_II: the N = 1 cascade closed form."""
    return closed_form_state(coefficients(CascadeParams((T,))))


def random_psd(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random unit-trace PSD matrix built as G†G / tr."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g.conj().T @ g
    return m / np.trace(m).real


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary from the QR of a Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
