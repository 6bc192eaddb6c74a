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

Partial indistinguishability p mixes the two before post-selection, with K
the interfering block: one Kraus map on B x E, normalized once,

    rho -> p K rho K^dag + (1 - p) (T^2 rho + R^2 SWAP rho SWAP),

so a branch that vanishes (HOM bunching) drops only its own weight.
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


# SWAP on (B, E) of the (A, B, E) space: exchanges |HV> and |VH> of (B, E).
_SWAP_ABE = kron(np.eye(2, dtype=complex), np.eye(4, dtype=complex)[[0, 2, 1, 3]])


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


def couple(signal: DensityMatrix, env: DensityMatrix, params: CouplingParams) -> PostSelectedState:
    """Couple the B qubit of a two-qubit signal state with one environment qubit.

    Returns the normalized three-qubit state on (A, B, E) and the trace of the
    unnormalized one-photon-per-mode block as success probability.
    """
    return couple_mixed_indistinguishability(signal, env, params, IndistinguishabilityModel(1.0))


def couple_distinguishable(
    signal: DensityMatrix, env: DensityMatrix, params: CouplingParams
) -> PostSelectedState:
    """Same coupling when signal and environment photons carry orthogonal
    internal tags, so no two-photon interference occurs: the Kraus pair
    {T I, -R SWAP} on (B, E), with the tag traced out."""
    return couple_mixed_indistinguishability(signal, env, params, IndistinguishabilityModel(0.0))


def couple_mixed_indistinguishability(
    signal: DensityMatrix,
    env: DensityMatrix,
    params: CouplingParams,
    model: IndistinguishabilityModel,
) -> PostSelectedState:
    """Coupling at indistinguishability p: the single Kraus map of the module
    docstring, normalized once, so success_prob = p * prob_coherent +
    (1-p) * prob_distinguishable.  A branch of weight 0 is not computed: p = 1
    is :func:`couple` and p = 0 is :func:`couple_distinguishable`."""
    if signal.dims != (2, 2):
        raise DimensionError(f"couple: signal dims {signal.dims}, expected (2, 2)")
    if env.dims != (2,):
        raise DimensionError(f"couple: env dims {env.dims}, expected (2,)")
    joint = kron(signal.mat, env.mat)
    unnorm = 0.0
    if model.p > 0.0:
        op = kron(np.eye(2, dtype=complex), coupling_block(params))
        unnorm = model.p * (op @ joint @ op.conj().T)
    if model.p < 1.0:
        swapped = _SWAP_ABE @ joint @ _SWAP_ABE
        unnorm = unnorm + (1.0 - model.p) * (params.T**2 * joint + params.R**2 * swapped)
    rho, prob = normalize(unnorm, (2, 2, 2))
    return PostSelectedState(rho, prob)
