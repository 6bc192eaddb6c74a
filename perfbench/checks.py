"""Reference values the benchmark checks each command's output against.

The references are written here with numpy alone, so that a change inside
``entconc`` cannot move the value it is checked against.  The one exception
is the p < 1 coupling, which has no closed form: it is recomputed with the
brute-force Fock-space oracle ``entconc.fock.oracle_couple``, followed by
this file's own measurement, filters and concurrence.

Every check parses the text the command printed (``%.12g`` numbers) and
compares each cell with a relative-or-absolute tolerance of 1e-9, so a
refactor that only changes the last printed digit still passes.
"""

from __future__ import annotations

import json
import math

import numpy as np

TOL = 1e-9
# Fidelities sum square roots of eigenvalues that are zero up to roundoff,
# so the printed value itself carries noise of order sqrt(machine eps).
FIDELITY_TOL = 1e-7


class CheckFailed(Exception):
    """A command's output disagrees with its reference."""


def expect(label: str, got: float, want: float, tol: float = TOL) -> None:
    """Compare one printed cell; a NaN reference (0/0 closed form) is unchecked."""
    if math.isnan(want):
        return
    if not abs(got - want) <= tol * max(1.0, abs(want)):
        raise CheckFailed(f"{label}: got {got!r}, want {want!r}")


def parse_csv(text: str, n_rows: int) -> tuple[list[str], list[list[float]]]:
    """Header and the first ``n_rows`` data rows; later lines are notes."""
    lines = text.splitlines()
    if len(lines) < 1 + n_rows:
        raise CheckFailed(f"expected {n_rows} rows, got {len(lines) - 1} lines")
    header = lines[0].split(",")
    rows = []
    for line in lines[1 : 1 + n_rows]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise CheckFailed(f"row {line!r} does not match header {header}")
        rows.append([float(c) if c.strip() else math.nan for c in cells])
    return header, rows


def parse_json_table(text: str) -> tuple[list[str], list[list]]:
    end = text.rindex("]") + 1
    payload = json.loads(text[:end])
    if not payload:
        raise CheckFailed("empty JSON table")
    header = list(payload[0])
    return header, [[row[h] for h in header] for row in payload]


def expect_header(got: list[str], want: list[str]) -> None:
    if got != want:
        raise CheckFailed(f"header {got} != {want}")


# --- small linear algebra ---------------------------------------------------

_YY = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex)
_SIGMA2_KET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def _sqrtm(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence from the singular values of sqrt(rho) YY sqrt(rho)^T."""
    root = _sqrtm(rho)
    lam = np.sort(np.linalg.svd(root @ _YY @ root.T, compute_uv=False))[::-1]
    return float(min(max(lam[0] - lam[1] - lam[2] - lam[3], 0.0), 1.0))


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    root = _sqrtm(rho)
    inner = root @ sigma @ root
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    return float(min(max(np.sum(np.sqrt(np.clip(w, 0.0, None))) ** 2, 0.0), 1.0))


def singlet() -> np.ndarray:
    return np.outer(_SIGMA2_KET, _SIGMA2_KET.conj())


def _filter(rho: np.ndarray, alice: np.ndarray, bob: np.ndarray) -> tuple[np.ndarray, float]:
    k = np.kron(np.diag(alice).astype(complex), np.diag(bob).astype(complex))
    out = k @ rho @ k.conj().T
    w = float(np.trace(out).real)
    return out / w, w


# --- closed forms -----------------------------------------------------------


def sweep_row(T: float) -> list[float]:
    """(C_AB, C_AE, C_BE, P_success) of singlet x I/2 after one coupling, p = 1.

    Each reduced state is X-form; with n = T^2 + R^2 + (T-R)^2 the Wootters
    formula gives C_AB = (2|T(T-R)| - R^2)/n, C_AE = (2|R(T-R)| - T^2)/n and
    C_BE = (2TR - (T-R)^2)/n, each clipped at 0, and P_success = n/2.
    """
    R = 1.0 - T
    n = T * T + R * R + (T - R) ** 2
    return [
        max(0.0, 2.0 * abs(T * (T - R)) - R * R) / n,
        max(0.0, 2.0 * abs(R * (T - R)) - T * T) / n,
        max(0.0, 2.0 * T * R - (T - R) ** 2) / n,
        n / 2.0,
    ]


def p2(T: float) -> float:
    R = 1.0 - T
    return (T * T + (T - R) ** 2 + R * R) / 4.0


def c2(T: float) -> float:
    return T * abs(2.0 * T - 1.0) / (2.0 * p2(T))


def c3(T: float, eps: float) -> float:
    R = 1.0 - T
    d = abs(2.0 * T - 1.0)
    alpha, delta = ((2.0 * T - 1.0) ** 2, R * R) if T > d else (T * T, (T * R / (R - T)) ** 2)
    den = 2.0 * eps * alpha + eps * eps * delta
    return 2.0 * eps * alpha / den if den else math.nan


def cascade_coefficients(ts: list[float]) -> list[tuple[float, float, float]]:
    """(A_N, B_N, C_N) for every prefix of the transmittivity list."""
    out = []
    a = b = 1.0
    c = 0.0
    for i, t in enumerate(ts):
        r = 1.0 - t
        c = r * r if i == 0 else r * r * b + t * t * c
        a *= t * t
        b *= (t - r) ** 2
        out.append((a, b, c))
    return out


# --- the Fock-oracle chain for p < 1 ----------------------------------------


class OracleChain:
    """Coupling with partial indistinguishability p, recomputed from the
    second-quantized oracle, then H measurement of the environment."""

    def __init__(self, p: float):
        from entconc.fock import oracle_couple
        from entconc.qmath import DensityMatrix

        self.p = p
        self._oracle = oracle_couple
        self._dm = DensityMatrix
        self._env = DensityMatrix(np.eye(2, dtype=complex) / 2.0, (2,))

    def couple(self, rho_ab: np.ndarray, T: float) -> tuple[np.ndarray, float]:
        sig = self._dm(rho_ab, (2, 2))
        coh = self._oracle(sig, self._env, T, distinguishable=False)
        if self.p == 1.0:
            return coh.rho.mat, coh.success_prob
        dis = self._oracle(sig, self._env, T, distinguishable=True)
        mix = self.p * coh.success_prob * coh.rho.mat + (1.0 - self.p) * dis.success_prob * dis.rho.mat
        w = float(np.trace(mix).real)
        return mix / w, w

    @staticmethod
    def measure_h(rho_abe: np.ndarray) -> tuple[np.ndarray, float]:
        block = rho_abe.reshape(4, 2, 4, 2)[:, 0, :, 0]
        w = float(np.trace(block).real)
        return block / w, w

    @staticmethod
    def trace_env(rho_abe: np.ndarray) -> np.ndarray:
        return np.einsum("aebe->ab", rho_abe.reshape(4, 2, 4, 2))


def protocol_row(T: float, eps_list: list[float], p: float, feed_forward: bool) -> list[float]:
    """(T, C_no_meas, C_post_meas, P_post_meas, C_eps_*) of ``entconc protocol``."""
    if p == 1.0:
        prob = 2.0 * p2(T) if feed_forward else p2(T)
        row = [T, sweep_row(T)[0], c2(T), prob]
        return row + [c3(T, e) for e in eps_list]
    chain = OracleChain(p)
    coupled, w = chain.couple(singlet(), T)
    measured, prob_h = chain.measure_h(coupled)
    row = [T, concurrence(chain.trace_env(coupled)), concurrence(measured), w * (1.0 if feed_forward else prob_h)]
    d = abs(2.0 * T - 1.0)
    rebalance = np.array([d / T, 1.0]) if T > d else np.array([1.0, T / d])
    balanced, _ = _filter(measured, rebalance, np.ones(2))
    for e in eps_list:
        root = np.array([1.0, math.sqrt(e)])
        filtered, _ = _filter(balanced, root, root)
        row.append(concurrence(filtered))
    return row


def cascade_rows(t: float, n_max: int, eps_list: list[float], p: float) -> list[list[float]]:
    """Rows (N, C_closed, C_sim, P_N, C_filt_eps_*, P_III_eps_*) of ``entconc cascade``."""
    rows = []
    if p < 1.0:
        chain = OracleChain(p)
        state = singlet()
    for n, (a, b, c) in enumerate(cascade_coefficients([t] * n_max), start=1):
        c_closed = 2.0 * math.sqrt(a * b) / (a + b + c)
        if p < 1.0:
            coupled, _ = chain.couple(state, t)
            state, _ = chain.measure_h(coupled)
            c_sim = concurrence(state)
        else:
            c_sim = c_closed
        row = [n, c_closed, c_sim, (a + b + c) / 2 ** (n + 1)]
        m = min(a, b)
        for e in eps_list:
            row += [0.0 if m == 0.0 else 2.0 * m / (2.0 * m + e * c), e * (2.0 * m + e * c) / 2 ** (n + 1)]
        rows.append(row)
    return rows


def hom_row(overlap: float, T: float = 0.5) -> list[float]:
    """(overlap, dip_rate, visibility, p_recovered) of ``entconc hom``.

    Identical photons coincide with probability (T-R)^2, tagged ones with
    T^2 + R^2; the dip floor mixes them with weight ``overlap``.
    """
    R = 1.0 - T
    c_id, c_dist = (T - R) ** 2, T * T + R * R
    return [overlap, c_dist - overlap * (c_dist - c_id), overlap * (c_dist - c_id) / c_dist, overlap]


def sigma2(T: float) -> np.ndarray:
    R = 1.0 - T
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = T * T
    m[1, 2] = m[2, 1] = -T * (T - R)
    m[2, 2] = (T - R) ** 2
    m[3, 3] = R * R
    return m / (4.0 * p2(T))


def tomo_fidelity(rho: np.ndarray, shots: int, seed: int) -> float:
    """Fidelity printed by ``entconc tomo``: Poisson counts over the 16
    HVDR x HVDR projectors, linear inversion, projection onto the simplex."""
    s = 1.0 / math.sqrt(2.0)
    kets = [np.array(k, dtype=complex) for k in ([1, 0], [0, 1], [s, s], [s, 1j * s])]
    projs = [np.kron(np.outer(x, x.conj()), np.outer(y, y.conj())) for x in kets for y in kets]
    probs = np.clip(np.array([np.trace(pr @ rho).real for pr in projs]), 0.0, 1.0)
    freqs = probs
    if shots > 0:
        freqs = np.random.default_rng(seed).poisson(shots * probs).astype(float) / shots
    basis = np.array([pr.reshape(-1).conj() for pr in projs])
    raw = np.linalg.solve(basis, freqs.astype(complex)).reshape(4, 4)
    w, v = np.linalg.eigh((raw + raw.conj().T) / 2.0)
    u = np.sort(w)[::-1]
    css = np.cumsum(u)
    k = np.nonzero(u * np.arange(1, 5) > css - 1.0)[0][-1]
    w = np.clip(w - (css[k] - 1.0) / (k + 1), 0.0, None)
    return fidelity((v * w) @ v.conj().T, rho)
