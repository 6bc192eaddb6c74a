"""Linear coupling of the signal photon B with one environment photon E.

The post-selected block (one photon per output mode) of the beam-splitter
action on two photons is, on the polarization basis of B x E:

    |phi phi>      -> (T - R) |phi phi>
    |phi phi_perp> ->  T |phi phi_perp> - R |phi_perp phi>

These are the amplitude rules induced by the creation-operator convention
implemented in :mod:`entconc.fock`, against which this closed-form map is
cross-checked.

When the two photons carry orthogonal internal tags they cannot interfere.
Post-selection then keeps two incoherent events: both photons transmitted
(amplitude T, polarizations stay in their modes) and both reflected
(amplitude -R, the polarizations swap modes).  That is the Kraus pair
{T I, -R SWAP} on B x E:

    rho -> T^2 rho + R^2 SWAP rho SWAP,

with success probability T^2 + R^2 for a normalized input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EntconcError
from .qmath import DensityMatrix, kron, normalize


@dataclass(frozen=True)
class CouplingParams:
    """Beam-splitter transmittivity T and derived reflectivity R = 1 - T."""

    T: float

    def __post_init__(self):
        if not 0.0 <= self.T <= 1.0:
            raise EntconcError(f"transmittivity {self.T} outside [0, 1]")

    @property
    def R(self) -> float:
        return 1.0 - self.T


@dataclass(frozen=True)
class IndistinguishabilityModel:
    """Degree of indistinguishability p between signal and environment."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise EntconcError(f"indistinguishability {self.p} outside [0, 1]")


@dataclass(frozen=True)
class PostSelectedState:
    rho: DensityMatrix
    success_prob: float


# SWAP on B x E: exchanges |HV> and |VH>.
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def coupling_block(params: CouplingParams) -> np.ndarray:
    """The 4x4 post-selected amplitude map on the B x E polarization space."""
    T, R = params.T, params.R
    return np.array(
        [
            [T - R, 0, 0, 0],
            [0, T, -R, 0],
            [0, -R, T, 0],
            [0, 0, 0, T - R],
        ],
        dtype=complex,
    )


def _check_dims(where: str, signal: DensityMatrix, env: DensityMatrix) -> None:
    if signal.dims != (2, 2):
        raise DimensionError(f"{where}: signal dims {signal.dims}, expected (2, 2)")
    if env.dims != (2,):
        raise DimensionError(f"{where}: env dims {env.dims}, expected (2,)")


def couple(signal: DensityMatrix, env: DensityMatrix, params: CouplingParams) -> PostSelectedState:
    """Couple the B qubit of a two-qubit signal state with one environment qubit.

    Returns the normalized three-qubit state on (A, B, E) and the trace of the
    unnormalized one-photon-per-mode block as success probability.
    """
    _check_dims("couple", signal, env)
    op = kron(np.eye(2, dtype=complex), coupling_block(params))
    joint = kron(signal.mat, env.mat)
    unnorm = op @ joint @ op.conj().T
    rho, prob = normalize(unnorm, (2, 2, 2))
    return PostSelectedState(rho, prob)


def couple_distinguishable(
    signal: DensityMatrix, env: DensityMatrix, params: CouplingParams
) -> PostSelectedState:
    """Same coupling when signal and environment photons carry orthogonal
    internal tags, so no two-photon interference occurs: the Kraus pair
    {T I, -R SWAP} on (B, E), with the tag traced out."""
    _check_dims("couple_distinguishable", signal, env)
    swap = kron(np.eye(2, dtype=complex), _SWAP)
    joint = kron(signal.mat, env.mat)
    unnorm = params.T**2 * joint + params.R**2 * (swap @ joint @ swap)
    rho, prob = normalize(unnorm, (2, 2, 2))
    return PostSelectedState(rho, prob)


def couple_mixed_indistinguishability(
    signal: DensityMatrix,
    env: DensityMatrix,
    params: CouplingParams,
    model: IndistinguishabilityModel,
) -> PostSelectedState:
    """Mixture of the interfering and the orthogonal-tag coupling outputs.

    Each branch enters with its own post-selection probability: the
    unnormalized blocks are mixed with weights p and 1-p and renormalized,
    so success_prob = p * prob_coherent + (1-p) * prob_distinguishable.
    """
    coherent = couple(signal, env, params)
    if model.p == 1.0:
        return coherent
    dist = couple_distinguishable(signal, env, params)
    w_c = model.p * coherent.success_prob
    w_d = (1.0 - model.p) * dist.success_prob
    mix = w_c * coherent.rho.mat + w_d * dist.rho.mat
    rho, prob = normalize(mix, (2, 2, 2))
    return PostSelectedState(rho, prob)
