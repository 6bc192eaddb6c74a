"""Shared test helpers: random states and unitaries, sigma_II, and the
reference forms (kets, X-form test and concurrence, feed-forward
correction, per-projector Born probabilities, the coupling-by-coupling
front and cascade, the exact cascade concurrences and the sweep's closed
forms) that only the tests use."""

from fractions import Fraction

import numpy as np

from entconc.cascade import CascadeParams, cascade_filter, closed_form_state, coefficients
from entconc.channel import CouplingParams, IndistinguishabilityModel, couple
from entconc.protocol import ProtocolTrace, measure_env, outcome_probabilities
from entconc.qmath import ATOL, DensityMatrix, kron
from entconc.states import MIXED_ENV, SINGLET_STANDARD
from entconc.tomography import PROJECTORS

KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


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


def born_probabilities_per_projector(rho: DensityMatrix) -> np.ndarray:
    """tr(P rho) for each tomography setting P, one projector at a time."""
    return np.array([np.trace(p @ rho.mat).real for p in PROJECTORS])


def feed_forward(v_branch: DensityMatrix) -> tuple[DensityMatrix, np.ndarray]:
    """The local correction X_A x X_B of the V measurement branch, which
    ``couple_measure_grid`` keeps only as a weight: the corrected state and
    the 4x4 correcting unitary."""
    u = kron(SIGMA_X, SIGMA_X)
    return DensityMatrix(u @ v_branch.mat @ u.conj().T, (2, 2)), u


def is_x_form(rho: DensityMatrix, tol: float = ATOL) -> bool:
    """True iff all entries off the diagonal and anti-diagonal are ~0."""
    m = rho.mat
    mask = np.ones((4, 4), dtype=bool)
    for i in range(4):
        mask[i, i] = False
        mask[i, 3 - i] = False
    return bool(np.abs(m[mask]).max() <= tol)


def concurrence_x_form(rho: DensityMatrix) -> float:
    """Analytic concurrence for X-form states.

    C = 2 max(0, |rho_14| - sqrt(rho_22 rho_33), |rho_23| - sqrt(rho_11 rho_44)).
    """
    m = rho.mat
    inner = abs(m[1, 2]) - np.sqrt(max(m[0, 0].real, 0.0) * max(m[3, 3].real, 0.0))
    outer = abs(m[0, 3]) - np.sqrt(max(m[1, 1].real, 0.0) * max(m[2, 2].real, 0.0))
    return float(max(0.0, 2.0 * inner, 2.0 * outer))


def stepwise_coupling(carrier: DensityMatrix, T: float, p: float):
    """The reference for one stage of ``couple_measure_chains``: one
    ``couple``, ``outcome_probabilities`` and ``measure_env`` call, each
    state validated as it is built.  Returns the coupled state, its
    (P(H), P(V)) and the measured H branch."""
    coupled = couple(carrier, MIXED_ENV, CouplingParams(T), IndistinguishabilityModel(p))
    return coupled, outcome_probabilities(coupled), measure_env(coupled, "H")


def stepwise_cascade(params: CascadeParams, p: float) -> ProtocolTrace:
    """The reference for ``simulate_cascade``: one :func:`stepwise_coupling`
    per coupling, then ``cascade_filter``."""
    trace = ProtocolTrace()
    state = SINGLET_STANDARD
    trace.record("input", state, 1.0)
    for i, t in enumerate(params.transmittivities):
        coupled, (prob_h, _), measured = stepwise_coupling(state, t, p)
        trace.record(f"coupled_{i + 1}", coupled.rho, coupled.success_prob)
        trace.record(f"measured_{i + 1}", measured.rho, prob_h)
        state = measured.rho
    filtered = cascade_filter(state, params.eps)
    trace.record("filtered", filtered.rho, filtered.success_prob)
    return trace


def exact_chain_concurrences(ts, p) -> list[Fraction]:
    """The exact concurrence of the measured state after each coupling of a
    chain, from the four-number recursion in ``fractions.Fraction`` on the
    exact values of the float T's and p.

    Every measured state is X-form with HH = 0: populations A (HV), B (VH),
    C (VV) and the HV-VH coherence X.  One coupling with the H measurement
    of I/2 maps them (unnormalized, from A = B = 1/2, C = 0, X = -1/2) as

        A' = T^2 A,  B' = (T^2 + R^2 - 2pTR) B,  C' = T^2 C + R^2 B,
        X' = T (T - pR) X,

    and the concurrence is 2 |X| / (A + B + C).
    """
    p = Fraction(p)
    a, b, c, x = Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(-1, 2)
    out = []
    for t in map(Fraction, ts):
        r = 1 - t
        a, b, c, x = (
            t * t * a,
            (t * t + r * r - 2 * p * t * r) * b,
            t * t * c + r * r * b,
            t * (t - p * r) * x,
        )
        s = a + b + c
        # Normalizing keeps the denominators from growing with every step.
        a, b, c, x = a / s, b / s, c / s, x / s
        out.append(2 * abs(x))
    return out


def sweep_closed_forms(T: float, p: float) -> tuple[float, float, float, float]:
    """(C_AB, C_AE, C_BE, P_success) of one coupling of the standard singlet
    with I/2 at indistinguishability p: the three X-form pair marginals of
    the post-selected (A, B, E) state.  With R = 1 - T, the HOM coincidence
    h = p (T - R)^2 + (1 - p)(T^2 + R^2) and the success probability
    P = p (T^2 + R^2 + (T - R)^2) / 2 + (1 - p)(T^2 + R^2):

        C_AB = max(0, |T (T - pR)| - R^2 / 2) / P
        C_AE = max(0, |R (R - pT)| - T^2 / 2) / P
        C_BE = max(0, pTR - h / 2) / P
    """
    R = 1.0 - T
    h = p * (T - R) ** 2 + (1 - p) * (T * T + R * R)
    P = p * (T * T + R * R + (T - R) ** 2) / 2 + (1 - p) * (T * T + R * R)
    return (
        max(0.0, abs(T * (T - p * R)) - R * R / 2) / P,
        max(0.0, abs(R * (R - p * T)) - T * T / 2) / P,
        max(0.0, p * T * R - h / 2) / P,
        P,
    )
