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

Hong-Ou-Mandel dip: :func:`hom_coincidence` is the probability that two
photons of one polarization, one per input port, leave one per output mode,
p (T - R)^2 + (1 - p)(T^2 + R^2) in the same mixture form.  It is also the
factor by which one coupling and an H measurement scale the VH population.

Stack contract: the map is one kernel, :func:`couple_grid`, over a vector of
T (a sequence of :class:`CouplingParams`) at one p.  It builds the n
operators as one ``(n, 8, 8)`` stack and normalizes them with
:func:`entconc.qmath.normalize_stack`.  :func:`couple` is its k = 1 case.
Each state and probability is bitwise the one its T gets alone, and a stack
that fails raises what its first bad T raises alone.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EntconcError
from .qmath import DensityMatrix, kron, normalize_stack


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


# SWAP on (B, E) of the (A, B, E) space, which exchanges |HV> and |VH> of
# (B, E), as the row and column permutation SWAP rho SWAP applies.
_SWAP_ABE = np.ix_([0, 2, 1, 3, 4, 6, 5, 7], [0, 2, 1, 3, 4, 6, 5, 7])
# kron(I, block) of the 4x4 post-selected amplitude map on B x E,
#
#     block = [[T - R, 0,  0,  0    ],
#              [0,     T,  -R, 0    ],
#              [0,     -R, T,  0    ],
#              [0,     0,  0,  T - R]],
#
# as indices into the per-T list (T - R, T, -R, 0, 0 (T - R), 0 (-R)).  The
# off-diagonal blocks hold 0 times each entry, zeros with the signs that
# qmath.kron's products give them.
_BLOCK = np.array([[0, 3, 3, 3], [3, 1, 2, 3], [3, 2, 1, 3], [3, 3, 3, 0]])
_ZERO_BLOCK = np.array([4, 3, 5, 3])[_BLOCK]
_OP_INDEX = np.block([[_BLOCK, _ZERO_BLOCK], [_ZERO_BLOCK, _BLOCK]])


def couple(
    signal: DensityMatrix,
    env: DensityMatrix,
    params: CouplingParams,
    model: IndistinguishabilityModel = IndistinguishabilityModel(1.0),
) -> PostSelectedState:
    """Couple the B qubit of a two-qubit signal state with one environment
    qubit at indistinguishability p: :func:`couple_grid` with one T.

    Returns the normalized three-qubit state on (A, B, E) and the trace of the
    unnormalized one-photon-per-mode block as success probability.  p = 1
    (the default) is the interfering block alone; p = 0 is the Kraus pair
    {T I, -R SWAP} of orthogonally tagged photons, with the tag traced out.
    """
    return couple_grid(signal, env, (params,), model)[0]


def couple_grid(
    signal: DensityMatrix,
    env: DensityMatrix,
    params: Sequence[CouplingParams],
    model: IndistinguishabilityModel,
) -> list[PostSelectedState]:
    """The Kraus map of the module docstring at each coupling in ``params``,
    each operator normalized once, so success_prob = p * prob_coherent +
    (1-p) * prob_distinguishable.  A branch of weight 0 is not computed.
    The stack's working set grows with ``len(params)``: chunk long grids."""
    if signal.dims != (2, 2):
        raise DimensionError(f"couple: signal dims {signal.dims}, expected (2, 2)")
    if env.dims != (2,):
        raise DimensionError(f"couple: env dims {env.dims}, expected (2,)")
    # Per coupling: the entries _OP_INDEX picks from, then T^2 and R^2 by
    # Python's float power, which can differ from T * T in the last bit.
    # numpy multiplies a complex array by a float as by the complex float,
    # so storing the squares as complex changes no product.
    entries = np.array(
        [(c.T - c.R, c.T, -c.R, 0.0, 0.0 * (c.T - c.R), -0.0, c.T**2, c.R**2) for c in params],
        dtype=complex,
    ).reshape(-1, 8)
    joint = kron(signal.mat, env.mat)
    unnorm = 0.0
    if model.p > 0.0:
        op = entries[:, _OP_INDEX]
        unnorm = model.p * (op @ joint @ op.conj().swapaxes(-1, -2))
    if model.p < 1.0:
        swapped = joint[_SWAP_ABE]
        t2, r2 = entries[:, 6, None, None], entries[:, 7, None, None]
        unnorm = unnorm + (1.0 - model.p) * (t2 * joint + r2 * swapped)
    states, probs = normalize_stack(unnorm, (2, 2, 2))
    return [PostSelectedState(rho, prob) for rho, prob in zip(states, probs)]


def hom_coincidence(T: float, p: float) -> float:
    """The HOM dip at transmittivity T and overlap p (Hong, Ou & Mandel,
    PRL 59, 2044 (1987)): (T - R)^2 at p = 1 and T^2 + R^2 at p = 0, as the
    tests check against the Fock oracle."""
    R = CouplingParams(T).R
    p = IndistinguishabilityModel(p).p
    return p * (T - R) ** 2 + (1.0 - p) * (T**2 + R**2)
