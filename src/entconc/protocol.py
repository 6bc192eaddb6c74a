"""Measurement of the environment and local filtration for a single coupling.

Both are diagonal maps in the H/V basis.  Measuring the environment E with
result i (H -> 0, V -> 1) keeps the i block ``rho[:, i, :, i]`` of the
(A, B, E) state reshaped to (4, 2, 4, 2).  A local filter gives each party
an amplitude pair (h, v) in [0, 1], |H> -> h|H> and |V> -> v|V> (a partial
polarizer); (1, 1) is no filter.  With k = kron(alice, bob) the filtered
state is k_i rho_ij k_j, and :func:`apply_filter_stack` is the one filter
kernel.

The measured state sigma_II = {T^2, -T(T-R), (T-R)^2, R^2} / (4 P_II), with
P_II = (T^2 + (T-R)^2 + R^2) / 4 and C_II = T |T-R| / (2 P_II), is the N = 1
case of :mod:`entconc.cascade` (``closed_form_state``, ``p_success`` and
``closed_form_concurrence`` of ``coefficients(CascadeParams((T,)))``).

Stack contract: :func:`couple_measure_grid` runs the coupling (I) and the
measurement (II) of a whole T grid, as one :func:`entconc.channel.couple_grid`
stack and one :func:`measure_env_stack`, whose E blocks are normalized by
one :func:`entconc.qmath.normalize_stack` call.  :func:`measure_env` and
:func:`run_protocol` are their k = 1 cases, and each state and probability
is bitwise the one its T gets alone; a failing stack raises what its first
bad state raises alone.  The filters (III) follow the same contract:
:func:`apply_filter_stack` filters k states, each with its own amplitude
pairs, and normalizes them with one ``normalize_stack`` call.
:func:`apply_filter` is its k = 1 case, and :func:`rebalance_filter`,
:func:`epsilon_filter` and :func:`filtration` take stacks.  A failing
:func:`apply_filter_stack` or :func:`filtration` stack is filtered again one
state at a time (:func:`stacked`).

Closed forms implemented here (checked against the simulator), after the
rebalancing + epsilon filters:

    sigma_III = {eps*alpha, -eps*alpha, eps*alpha, eps^2*delta} / (4 P_III),
    C_III     = 2 eps alpha / (2 eps alpha + eps^2 delta),
    P_III     = (2 eps alpha + eps^2 delta) / 4,

with (alpha, delta) = ((2T-1)^2, R^2) for T > |2T-1| and
(T^2, (TR/(R-T))^2) otherwise.

Note on the rebalancing filter: balancing the central populations T^2 and
(2T-1)^2 while leaving the VV corner at R^2 (which the sigma_III form above
requires) forces the H-attenuation onto Alice's mode in the T > |2T-1|
branch, matching the N-coupling rule |H>_A -> sqrt(B_N/A_N) |H>_A.  At
T = 1/2 the (2T-1)^2 population is 0: the filter removes Alice's H, and
every filtered state has C_III = 0 (at p = 1, sigma_III = |VV><VV|).
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .channel import CouplingParams, IndistinguishabilityModel, PostSelectedState, couple_grid
from .errors import DimensionError, EntconcError, ZeroProbabilityError
from .qmath import _TINY, DensityMatrix, normalize_stack
from .states import MIXED_ENV, SINGLET_STANDARD

# A party's filter: amplitude factors (h, v) on |H> and |V>.
Amplitudes = tuple[float, float]


def raw_attenuations(a_alice: float, a_bob: float) -> tuple[Amplitudes, Amplitudes]:
    """(Alice, Bob) filters that attenuate V by intensity factors A_i
    (|V> -> sqrt(A_i) |V>)."""
    for a in (a_alice, a_bob):
        if not 0.0 <= a <= 1.0:
            raise EntconcError(f"filter intensity {a} outside [0, 1]")
    return (1.0, np.sqrt(a_alice)), (1.0, np.sqrt(a_bob))


@dataclass
class ProtocolStep:
    name: str
    state: DensityMatrix
    step_prob: float


@dataclass
class ProtocolTrace:
    steps: list[ProtocolStep] = field(default_factory=list)

    def record(self, name: str, state: DensityMatrix, prob: float):
        self.steps.append(ProtocolStep(name, state, prob))

    @property
    def cumulative_prob(self) -> float:
        out = 1.0
        for s in self.steps:
            out *= s.step_prob
        return out

    @property
    def final_state(self) -> DensityMatrix:
        return self.steps[-1].state


def measure_env(state: PostSelectedState, result: str) -> PostSelectedState:
    """Project the environment qubit onto |H> or |V>, trace it out:
    :func:`measure_env_stack` with one state.

    The returned success probability is the input one multiplied by the
    outcome probability, so the H branch of the ideal chain carries exactly
    P_II.
    """
    return measure_env_stack([state], result)[0]


def measure_env_stack(states: Sequence[PostSelectedState], result: str) -> list[PostSelectedState]:
    """:func:`measure_env` of each three-qubit state, as one stack of E
    blocks normalized by one :func:`entconc.qmath.normalize_stack` call."""
    for state in states:
        if state.rho.dims != (2, 2, 2):
            raise DimensionError(f"measure_env: dims {state.rho.dims}, expected 3 qubits")
    if not states:
        return []
    i = {"H": 0, "V": 1}[result]
    # One state is stacked as a view; the blocks below are a new array.
    if len(states) == 1:
        mats = states[0].rho.mat[None]
    else:
        mats = np.array([state.rho.mat for state in states])
    # Rows and columns with E = i: the [:, i, :, i] block of each state
    # reshaped to (4, 2, 4, 2).  The + 0.0 turns -0.0 into +0.0, the sign
    # the projector product gives.
    rhos, probs = normalize_stack(mats[:, i::2, i::2] + 0.0, (2, 2))
    return [PostSelectedState(rho, s.success_prob * w) for rho, s, w in zip(rhos, states, probs)]


def outcome_probabilities(state: PostSelectedState) -> tuple[float, float]:
    """(P(H), P(V)) of the environment qubit: the sums of the even and odd
    diagonal entries of the (A, B, E) state, added in the order the partial
    trace over B, then A, would add them."""
    if state.rho.dims != (2, 2, 2):
        raise DimensionError(f"outcome_probabilities: dims {state.rho.dims}, expected 3 qubits")
    d = state.rho.mat.diagonal().real
    return float((d[0] + d[2]) + (d[4] + d[6])), float((d[1] + d[3]) + (d[5] + d[7]))


def stacked(stage):
    """Give ``stage`` the stack contract of :func:`entconc.qmath._validate`.
    Each positional argument of ``stage`` holds one entry per state, and
    its keyword arguments are shared.  If the stack raises, its states are
    run one at a time, in order, so the error is the one that the first
    bad state raises alone."""

    @functools.wraps(stage)
    def run(*columns, **shared):
        try:
            return stage(*columns, **shared)
        except EntconcError:
            if len(columns[0]) > 1:
                for entries in zip(*columns):
                    stage(*([x] for x in entries), **shared)
            raise

    return run


@stacked
def apply_filter_stack(
    states: Sequence[DensityMatrix], alice: Sequence[Amplitudes], bob: Sequence[Amplitudes]
) -> list[PostSelectedState]:
    """Local attenuation of each two-qubit state, state i by the amplitude
    pairs ``alice[i]`` and ``bob[i]`` (each ``(h, v)`` in [0, 1]), as one
    stack normalized by one :func:`entconc.qmath.normalize_stack` call;
    trace-decreasing, probabilistic."""
    for pair in (*alice, *bob):
        for factor in pair:
            if not 0.0 <= factor <= 1.0:
                raise EntconcError(f"filter factor {factor} outside [0, 1]")
    if not states:
        return []
    # kk[n] = kron(alice[n], bob[n]); kk_i rho_ij kk_j is K rho K^dag for the
    # diagonal K = diag(kk).  The + 0.0 gives each zero entry the sign the
    # matrix product gives it.
    a, b = np.array(alice, dtype=float), np.array(bob, dtype=float)
    kk = (a[:, :, None] * b[:, None, :]).reshape(-1, 4)
    unnorm = (kk[:, :, None] * np.array([rho.mat for rho in states])) * kk[:, None, :] + 0.0
    rhos, probs = normalize_stack(unnorm, (2, 2))
    return [PostSelectedState(rho, prob) for rho, prob in zip(rhos, probs)]


def apply_filter(
    state: DensityMatrix, alice: Amplitudes = (1.0, 1.0), bob: Amplitudes = (1.0, 1.0)
) -> PostSelectedState:
    """Local attenuation on a two-qubit state: :func:`apply_filter_stack`
    with one state."""
    return apply_filter_stack([state], [alice], [bob])[0]


def rebalance_branch(T: float) -> Amplitudes:
    """Alice's population-balancing filter (h, v) at this T; Bob is not
    filtered.  At T = 1/2 the (T-R)^2 population is 0, and so is h."""
    d = abs(2.0 * T - 1.0)
    if T > d:
        return d / T, 1.0
    return 1.0, T / d


def rebalance_filter(
    states: Sequence[DensityMatrix], ts: Sequence[float]
) -> list[PostSelectedState]:
    """Balance the central populations of each sigma_II-form state at its T,
    as one filter stack."""
    return apply_filter_stack(states, [rebalance_branch(t) for t in ts], [(1.0, 1.0)] * len(ts))


def epsilon_filter(states: Sequence[DensityMatrix], eps: float) -> list[PostSelectedState]:
    """Attenuate the V component on both modes of each state, |V> ->
    sqrt(eps) |V>, as one filter stack."""
    if not 0.0 < eps <= 1.0:
        raise EntconcError(f"epsilon {eps} outside (0, 1]")
    pairs = [(1.0, np.sqrt(eps))] * len(states)
    return apply_filter_stack(states, pairs, pairs)


# --- closed forms -----------------------------------------------------------


def sigma3_params(T: float) -> tuple[float, float]:
    """(alpha, delta) of the filtered-state closed form at this T."""
    R = CouplingParams(T).R
    d = abs(2.0 * T - 1.0)
    if T > d:
        return (2.0 * T - 1.0) ** 2, R**2
    return T**2, (T * R / (R - T)) ** 2


def sigma3_closed_form(T: float, eps: float) -> DensityMatrix:
    """Filtered-state closed form.

    The coherence keeps the sign inherited from sigma_II, -sign(T - R):
    writing it as -eps*alpha assumes T > 1/2.  A weight below the normal
    range is zero measure, as in :func:`entconc.qmath.normalize_stack`.
    """
    alpha, delta = sigma3_params(T)
    weight = 2.0 * eps * alpha + eps**2 * delta
    if weight < _TINY:
        raise ZeroProbabilityError(f"sigma3_closed_form: zero-measure state at T={T}")
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[2, 2] = eps * alpha
    m[1, 2] = m[2, 1] = -np.sign(2.0 * T - 1.0) * eps * alpha
    m[3, 3] = eps**2 * delta
    return DensityMatrix(m / weight, (2, 2))


def c3_closed_form(T: float, eps: float) -> float:
    alpha, delta = sigma3_params(T)
    return 2.0 * eps * alpha / (2.0 * eps * alpha + eps**2 * delta)


def p3_closed_form(T: float, eps: float) -> float:
    alpha, delta = sigma3_params(T)
    return (2.0 * eps * alpha + eps**2 * delta) / 4.0


# --- full protocol ----------------------------------------------------------


def run_protocol(
    T: float,
    eps: float | None = None,
    p: float = 1.0,
    feed_forward_enabled: bool = False,
    raw_filters: tuple[Amplitudes, Amplitudes] | None = None,
) -> ProtocolTrace:
    """Chain coupling, environment measurement and filtration of the singlet:
    :func:`couple_measure_grid` at this one T, then :func:`filtration`."""
    if eps is not None and raw_filters is not None:
        raise EntconcError("run_protocol: give either eps or raw_filters, not both")
    trace = couple_measure_grid((T,), p, feed_forward_enabled)[0]
    eps_list = () if eps is None else (eps,)
    steps = filtration([trace.final_state], [T], eps_list=eps_list, raw_filters=raw_filters)
    trace.steps += steps[0]
    return trace


def couple_measure_grid(
    ts: Sequence[float], p: float = 1.0, feed_forward_enabled: bool = False
) -> list[ProtocolTrace]:
    """The input, coupled and measured stages of :func:`run_protocol` at
    each T: one :func:`entconc.channel.couple_grid` stack, then one
    :func:`measure_env_stack`.  The stack's working set grows with
    ``len(ts)``: chunk long grids.

    The filtered chain follows the H measurement branch.  With feed-forward
    enabled the V branch is kept too, corrected by the local unitary
    X_A x X_B: its weight adds to the measured step's probability, and no V
    state is built.  Without it the branch is discarded and the cumulative
    probability is halved.

    The correction maps the V branch exactly onto the H branch for every T
    and p.  X_A x X_B x X_E leaves the coupled three-qubit state invariant
    whenever the two-qubit input is X x X invariant (the singlet, any
    Werner state): the unpolarized environment I/2 is invariant under X_E,
    and both coupling maps on (B, E), the interfering block and the
    distinguishable Kraus pair {T I, -R SWAP}, commute with X_B x X_E.
    Projecting E onto |V> = X|H> therefore gives exactly X_A X_B (H branch)
    X_A X_B.
    """
    params = [CouplingParams(t) for t in ts]
    coupled = couple_grid(SINGLET_STANDARD, MIXED_ENV, params, IndistinguishabilityModel(p))
    traces = []
    for ps, h_branch in zip(coupled, measure_env_stack(coupled, "H")):
        prob_h, prob_v = outcome_probabilities(ps)
        trace = ProtocolTrace()
        trace.record("input", SINGLET_STANDARD, 1.0)
        trace.record("coupled", ps.rho, ps.success_prob)
        # The correction is unitary and both branches have unit trace, so the
        # kept mixture's weight is prob_h + prob_v.
        trace.record("measured", h_branch.rho, prob_h + prob_v if feed_forward_enabled else prob_h)
        traces.append(trace)
    return traces


@stacked
def filtration(
    measured: Sequence[DensityMatrix],
    ts: Sequence[float],
    *,
    eps_list: Sequence[float] = (),
    raw_filters: tuple[Amplitudes, Amplitudes] | None = None,
) -> list[list[ProtocolStep]]:
    """Filter stages on each measured H branch at its coupling T, one stack
    per stage: with ``eps_list``, the rebalance filter, then one eps filter
    per value, each from the rebalanced state; with ``raw_filters``, the
    (Alice, Bob) raw filter of the measured state."""
    stages = []
    # An empty stack has no state to raise an error, a bad eps included.
    if eps_list and measured:
        rebalanced = rebalance_filter(measured, ts)
        stages.append(("rebalanced", rebalanced))
        stages += [("filtered", epsilon_filter([r.rho for r in rebalanced], e)) for e in eps_list]
    if raw_filters is not None:
        n = len(measured)
        raw = apply_filter_stack(measured, [raw_filters[0]] * n, [raw_filters[1]] * n)
        stages.append(("filtered_raw", raw))
    return [
        [ProtocolStep(name, out[i].rho, out[i].success_prob) for name, out in stages]
        for i in range(len(measured))
    ]
