"""Shared test helpers: random states and unitaries, sigma_II, and the
reference forms (kets, X-form test and concurrence, feed-forward
correction, per-projector Born probabilities, the coupling-by-coupling
front and cascade, the exact cascade concurrences and closed-form cells,
and the sweep's closed forms) that only the tests use."""

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


def exact_cascade_cells(ts, eps_list=()) -> list[list[float] | None]:
    """The closed-form cells of ``entconc cascade`` after each coupling of
    the chain ``ts``: [C_closed, P_N] and one (C_filt, P_III) pair per eps,
    each the double nearest its exact value.  A prefix of zero weight gives
    None, and the list ends there.  It also ends, without a marker, before
    the first coupling at which the weight s, a factor, a product or a
    normalized value of the recursion is below the smallest normal double
    without being 0: a double keeps only its bits above 2^-1074 there, so
    doubles cannot follow the recursion to 1e-12 from that depth on.

    Each T is n/d exactly (``float.as_integer_ratio``), so the p = 1
    recursion of ``entconc.cascade`` runs in integers from A = B = 1,
    C = 0, X = -1:

        A' = n^2 A,  B' = (2n - d)^2 B,  C' = (d - n)^2 B + n^2 C,
        X' = n (2n - d) X,

    with the scale prod 2 d^2 kept apart.  With S = A + B + C, the
    normalized (a, b, c, x) is (A, B, C, X) / S and P_N = S / (2 scale), so
    with m = min(A, B) and eps = e/f every cell is one int / int, which
    Python rounds correctly.  This is the p = 1 case of
    :func:`exact_chain_concurrences` without its ``Fraction`` gcds, which
    make that one take tens of seconds at depth 1100.
    """

    def subnormal(num, den):
        return num != 0 and abs(num) << 1022 < den

    eps = [e.as_integer_ratio() for e in eps_list]
    A, B, C, X, scale = 1, 1, 0, -1, 1
    out = []
    for t in ts:
        n, d = float(t).as_integer_ratio()
        tt, uu, rr, tu = n * n, (2 * n - d) ** 2, (d - n) ** 2, n * (2 * n - d)
        products = (tt * A, uu * B, rr * B, tt * C, tu * X)
        prev = A + B + C
        A, B, C, X = products[0], products[1], products[2] + products[3], products[4]
        S = A + B + C
        scale *= 2 * d * d
        if S == 0:
            out.append(None)
            break
        # The doubles: each factor (over d^2), product and sum (over d^2 times
        # the previous weight) and normalized value (over S).
        if (
            any(subnormal(f, d * d) for f in (tt, uu, rr, tu))
            or any(subnormal(v, d * d * prev) for v in (*products, C, S))
            or any(subnormal(v, S) for v in (A, B, C, X))
        ):
            break
        m = min(A, B)
        row = [2 * abs(X) / S, S / (2 * scale)]
        for e, f in eps:
            w = 2 * m * f + e * C
            row += [2 * m * f / w if m else 0.0, e * w / (2 * scale * f * f)]
        out.append(row)
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
