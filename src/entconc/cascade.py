"""N sequential couplings with fresh mixed environments.

Closed forms, with R_i = 1 - T_i:

    A_N = prod T_i^2
    B_N = prod (T_i - R_i)^2
    C_N = R_N^2 B_{N-1} + T_N^2 C_{N-1},   C_1 = R_1^2
    P_N = (A_N + B_N + C_N) / 2^(N+1)

The post-measurement state is X-form with populations (A_N, B_N, C_N) and
coherence -sqrt(A_N B_N); its concurrence is sqrt(A_N B_N) / (2^N P_N).
The final joint filtration attenuates V on both modes by sqrt(eps) and the
H component on the majority side by sqrt(min(A,B)/max(A,B)), giving
concurrence 2 B_N / (2 B_N + eps C_N) when B_N <= A_N.

These closed forms are the p = 1 (fully indistinguishable) ones; at N = 1,
:func:`closed_form_state` and ``p_success`` are the single-coupling sigma_II
and P_II.  :func:`cascade_filter` reads its factor from the populations of
the state it filters, so :func:`simulate_cascade` balances them at any p.
The ``C_filt_eps_*`` and ``P_III_eps_*`` columns of ``entconc cascade`` are
:func:`filtered_concurrence` and :func:`filtered_success_prob` of these
coefficients whatever ``p`` is; only ``C_sim`` depends on ``p``.

Stack contract along the depth axis: :func:`simulate_cascade` is the k = 1
case of :func:`entconc.protocol.couple_measure_chains`, which validates each
carrier at its depth and the N coupled snapshots as one stack.
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
    a: float
    b: float
    c: float
    n: int
    # Signed product prod T_i (T_i - R_i); its magnitude is sqrt(a*b).  The
    # N=1 state carries the signed coherence -T(T-R), so the general
    # coherence is -cross_signed (writing it as -sqrt(A B) assumes the
    # product is positive).
    cross_signed: float = 0.0

    @property
    def p_success(self) -> float:
        return (self.a + self.b + self.c) / 2 ** (self.n + 1)


def coefficient_prefixes(params: CascadeParams) -> list[CascadeCoefficients]:
    """The coefficients of each prefix of the chain, N = 1 .. n, from one
    pass of the recurrence."""
    a = b = 1.0
    c = 0.0
    cross = 1.0
    prefixes = []
    for i, t in enumerate(params.transmittivities):
        r = 1.0 - t
        if i == 0:
            c = r**2
        else:
            c = r**2 * b + t**2 * c
        a *= t**2
        b *= (t - r) ** 2
        cross *= t * (t - r)
        prefixes.append(CascadeCoefficients(a, b, c, i + 1, cross))
    return prefixes


def coefficients(params: CascadeParams) -> CascadeCoefficients:
    """The whole chain's coefficients: the last of :func:`coefficient_prefixes`."""
    return coefficient_prefixes(params)[-1]


def closed_form_state(coeffs: CascadeCoefficients) -> DensityMatrix:
    total = coeffs.a + coeffs.b + coeffs.c
    if total <= 0.0:
        raise ZeroProbabilityError("cascade state has zero weight")
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = coeffs.a
    m[2, 2] = coeffs.b
    m[1, 2] = m[2, 1] = -coeffs.cross_signed
    m[3, 3] = coeffs.c
    return DensityMatrix(m / total, (2, 2))


def closed_form_concurrence(coeffs: CascadeCoefficients) -> float:
    return np.sqrt(coeffs.a * coeffs.b) / (2**coeffs.n * coeffs.p_success)


def filtered_concurrence(coeffs: CascadeCoefficients, eps: float) -> float:
    m = min(coeffs.a, coeffs.b)
    if m == 0.0:
        return 0.0
    return 2.0 * m / (2.0 * m + eps * coeffs.c)


def filtered_success_prob(coeffs: CascadeCoefficients, eps: float) -> float:
    """P_III for the cascade: eps (2 B_N + eps C_N) / 2^(N+1) when B <= A."""
    m = min(coeffs.a, coeffs.b)
    return eps * (2.0 * m + eps * coeffs.c) / 2 ** (coeffs.n + 1)


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
