"""N sequential couplings with fresh mixed environments.

Closed forms.  After each coupling and H measurement the state is X-form
with HV, VH and VV populations (a, b, c) and HV-VH coherence x.  From the
singlet's (1/2, 1/2, 0, -1/2), a coupling with R_i = 1 - T_i maps them as

    a <- T_i^2 a,   b <- (T_i - R_i)^2 b,   c <- R_i^2 b + T_i^2 c,
    x <- T_i (T_i - R_i) x,

then divides all four by their weight s_i = a + b + c, so a + b + c = 1 at
every depth.  P_N = prod (s_i / 2) and the concurrence is 2 |x|.  The final
joint filtration attenuates V on both modes by sqrt(eps) and H on the
majority side by sqrt(m / max(a, b)), m = min(a, b): concurrence
2 m / (2 m + eps c), success probability P_N eps (2 m + eps c).

These closed forms are the p = 1 (fully indistinguishable) ones; at N = 1,
:func:`closed_form_state` and ``p_success`` are the single-coupling sigma_II
and P_II.  :func:`cascade_filter` reads its factor from the populations of
the state it filters, so :func:`simulate_cascade` balances them at any p.
The ``C_filt_eps_*`` and ``P_III_eps_*`` columns of ``entconc cascade`` are
:func:`filtered_concurrence` and :func:`filtered_success_prob` of these
coefficients whatever ``p`` is; only ``C_sim`` depends on ``p``.

Stack contract along the depth axis: :func:`simulate_cascade` is the k = 1
case of :func:`entconc.protocol.couple_measure_chains`, which validates the
N coupled and the N measured states after the last coupling, one stack each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import CouplingParams, PostSelectedState
from .errors import DegenerateCouplingError, EntconcError, ZeroProbabilityError
from .protocol import ProtocolTrace, apply_filter, couple_measure_chains
from .qmath import DensityMatrix


@dataclass(frozen=True)
class CascadeParams:
    transmittivities: tuple[float, ...]
    eps: float = 1.0

    def __post_init__(self):
        if len(self.transmittivities) < 1:
            raise EntconcError("cascade needs at least one coupling")
        for t in self.transmittivities:
            CouplingParams(t)
        if not 0.0 < self.eps <= 1.0:
            raise EntconcError(f"epsilon {self.eps} outside (0, 1]")

    @property
    def n(self) -> int:
        return len(self.transmittivities)


@dataclass(frozen=True)
class CascadeCoefficients:
    """The measured state after N couplings, (a, b, c) summing to 1 and
    coherence x, and P_N, the chance that every environment gave H."""

    a: float
    b: float
    c: float
    x: float
    p_success: float


def coefficient_prefixes(params: CascadeParams) -> list[CascadeCoefficients]:
    """The coefficients of each prefix of the chain, N = 1 .. n, from one
    pass of the normalized recursion."""
    a = b = 0.5
    c = 0.0
    x = -0.5
    prob = 1.0
    prefixes = []
    for t in params.transmittivities:
        # T - R as 2T - 1, exact for T >= 1/4; t - (1 - t) halves it at 0.5 - 2^-54.
        r, u = 1.0 - t, 2.0 * t - 1.0
        a, b, c, x = t**2 * a, u**2 * b, r**2 * b + t**2 * c, t * u * x
        s = a + b + c
        if s == 0.0:
            raise ZeroProbabilityError("cascade state has zero weight")
        a, b, c, x = a / s, b / s, c / s, x / s
        prob *= s / 2.0
        prefixes.append(CascadeCoefficients(a, b, c, x, prob))
    return prefixes


def coefficients(params: CascadeParams) -> CascadeCoefficients:
    """The whole chain's coefficients: the last of :func:`coefficient_prefixes`."""
    return coefficient_prefixes(params)[-1]


def closed_form_state(coeffs: CascadeCoefficients) -> DensityMatrix:
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1], m[2, 2], m[3, 3] = coeffs.a, coeffs.b, coeffs.c
    m[1, 2] = m[2, 1] = coeffs.x
    return DensityMatrix(m, (2, 2))


def closed_form_concurrence(coeffs: CascadeCoefficients) -> float:
    return 2.0 * abs(coeffs.x)


def filtered_concurrence(coeffs: CascadeCoefficients, eps: float) -> float:
    m = min(coeffs.a, coeffs.b)
    if m == 0.0:
        return 0.0
    return 2.0 * m / (2.0 * m + eps * coeffs.c)


def filtered_success_prob(coeffs: CascadeCoefficients, eps: float) -> float:
    """P_III for the cascade: P_N eps (2 m + eps c), m = min(a, b)."""
    m = min(coeffs.a, coeffs.b)
    return coeffs.p_success * eps * (2.0 * m + eps * coeffs.c)


def cascade_filter(state: DensityMatrix, eps: float) -> PostSelectedState:
    """Joint filtration after all couplings, as one local filter stage.

    Both parties attenuate V by sqrt(eps); the side holding the larger
    central population also attenuates H by sqrt(min/max), so every
    amplitude factor stays in [0, 1]: Alice (sqrt(B/A), sqrt(eps)) with Bob
    (1, sqrt(eps)) when B <= A, the mirror image otherwise.  A and B are the
    HV and VH populations of ``state`` itself, so the filter balances them
    at any p.  Which side absorbs the H factor does not change the resulting
    concurrence.
    """
    if not 0.0 < eps <= 1.0:
        raise EntconcError(f"epsilon {eps} outside (0, 1]")
    a, b = state.mat[1, 1].real, state.mat[2, 2].real
    if a <= 0.0:
        raise DegenerateCouplingError("cascade filter needs A_N > 0")
    root = np.sqrt(eps)
    if b <= a:
        return apply_filter(state, (np.sqrt(b / a), root), (1.0, root))
    return apply_filter(state, (1.0, root), (np.sqrt(a / b), root))


def simulate_cascade(params: CascadeParams, p: float = 1.0) -> ProtocolTrace:
    """N couplings, each followed by an H-outcome measurement of the fresh
    environment (:func:`entconc.protocol.couple_measure_chains` with one
    chain), then one joint filtration."""
    (trace,) = couple_measure_chains([params.transmittivities], p)
    filtered = cascade_filter(trace.final_state, params.eps)
    trace.record("filtered", filtered.rho, filtered.success_prob)
    return trace
