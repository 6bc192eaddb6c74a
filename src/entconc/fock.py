"""Brute-force second-quantized simulator for the two-photon coupling.

Photons live in modes labelled (spatial, polarization, tag) with spatial in
{"B", "E"}, polarization in {0, 1} (H, V) and an internal tag in {"s", "e"}
used to model distinguishable photons.  States are superpositions of
occupation-number basis states; the beam splitter acts on creation
operators as

    b+ -> sqrt(T) b'+ + sqrt(R) e'+
    e+ -> sqrt(T) e'+ - sqrt(R) b'+

independently of polarization and tag.  This convention induces exactly the
post-selected two-photon amplitude rules used by :mod:`entconc.channel`
(coefficients T - R, T and -R).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EntconcError
from .qmath import DensityMatrix, normalize

Mode = tuple[str, int, str]  # (spatial, polarization, tag)
OccKey = tuple[tuple[Mode, int], ...]  # sorted ((mode, count), ...)
FockSuperposition = dict[OccKey, complex]

TAGS = ("s", "e")


def occ_key(modes: list[Mode]) -> OccKey:
    counts: dict[Mode, int] = {}
    for m in modes:
        counts[m] = counts.get(m, 0) + 1
    return tuple(sorted(counts.items()))


def _norm_factor(key: OccKey) -> float:
    # <0| prod a  prod a+ |0> = prod n!, so a normalized basis state equals
    # the operator monomial divided by sqrt(prod n!).
    out = 1.0
    for _, n in key:
        out *= math.factorial(n)
    return math.sqrt(out)


def state_norm(state: FockSuperposition) -> float:
    return math.sqrt(sum(abs(a) ** 2 for a in state.values()))


def bs_unitary_apply(state: FockSuperposition, T: float) -> FockSuperposition:
    """Apply the beam-splitter unitary to a superposition of Fock states."""
    if not 0.0 <= T <= 1.0:
        raise EntconcError(f"transmittivity {T} outside [0, 1]")
    st, sr = math.sqrt(T), math.sqrt(1.0 - T)
    out: FockSuperposition = {}
    for key, amp in state.items():
        ops: list[Mode] = []
        for mode, n in key:
            ops.extend([mode] * n)
        coeff = amp / _norm_factor(key)
        # Expand the substituted product of creation operators.
        terms: list[tuple[list[Mode], complex]] = [([], coeff)]
        for spatial, pol, tag in ops:
            if spatial == "B":
                branches = [(("B", pol, tag), st), (("E", pol, tag), sr)]
            else:
                branches = [(("E", pol, tag), st), (("B", pol, tag), -sr)]
            terms = [
                (modes + [new_mode], c * w)
                for modes, c in terms
                for new_mode, w in branches
                if w != 0.0
            ]
        for modes, c in terms:
            k = occ_key(modes)
            out[k] = out.get(k, 0.0) + c * _norm_factor(k)
    return {k: a for k, a in out.items() if a != 0.0}


def _one_per_spatial_mode(key: OccKey) -> bool:
    per_spatial = {"B": 0, "E": 0}
    for (spatial, _, _), n in key:
        per_spatial[spatial] += n
    return per_spatial["B"] == 1 and per_spatial["E"] == 1


def postselect_one_per_mode(
    joint: dict[tuple[int, OccKey], complex],
) -> tuple[np.ndarray, float]:
    """Project a joint (Alice qubit x Fock) pure state onto one photon per
    spatial output mode, trace the tag, and return the unnormalized density
    matrix on (A, B-polarization, E-polarization) plus its trace."""
    # Amplitude tensor indexed (a, polB, tagB, polE, tagE).
    psi = np.zeros((2, 2, 2, 2, 2), dtype=complex)
    for (a, key), amp in joint.items():
        if not _one_per_spatial_mode(key):
            continue
        pol = {}
        tag = {}
        for (spatial, p, t), n in key:
            assert n == 1
            pol[spatial] = p
            tag[spatial] = TAGS.index(t)
        psi[a, pol["B"], tag["B"], pol["E"], tag["E"]] += amp
    rho = np.einsum("abtcu,xytzu->abcxyz", psi, psi.conj()).reshape(8, 8)
    return rho, float(np.trace(rho).real)


def oracle_couple(
    signal: DensityMatrix, env: DensityMatrix, T: float, distinguishable: bool = False
):
    """Full second-quantized version of the coupling step.

    Decomposes signal and environment into pure components, propagates each
    through the beam splitter, post-selects one photon per output mode and
    mixes the results.  With ``distinguishable=True`` the environment photon
    carries an orthogonal internal tag.
    """
    from .channel import PostSelectedState  # local import, avoids a cycle

    env_tag = "e" if distinguishable else "s"
    sig_w, sig_v = signal.eig
    env_w, env_v = env.eig
    total = np.zeros((8, 8), dtype=complex)
    for i, ws in enumerate(sig_w):
        if ws <= 1e-14:
            continue
        sig_ket = sig_v[:, i].reshape(2, 2)  # (a, b_pol)
        for j, we in enumerate(env_w):
            if we <= 1e-14:
                continue
            env_ket = env_v[:, j]
            joint: dict[tuple[int, OccKey], complex] = {}
            for a in range(2):
                for b in range(2):
                    if sig_ket[a, b] == 0:
                        continue
                    for e in range(2):
                        if env_ket[e] == 0:
                            continue
                        amp = sig_ket[a, b] * env_ket[e]
                        key = occ_key([("B", b, "s"), ("E", e, env_tag)])
                        joint[(a, key)] = joint.get((a, key), 0.0) + amp
            # The BS acts only on the Fock factor; group by Alice index.
            evolved: dict[tuple[int, OccKey], complex] = {}
            for a in range(2):
                sub = {k: v for (ai, k), v in joint.items() if ai == a}
                for k, v in bs_unitary_apply(sub, T).items():
                    evolved[(a, k)] = v
            block, _ = postselect_one_per_mode(evolved)
            total += ws * we * block
    rho, prob = normalize(total, (2, 2, 2))
    return PostSelectedState(rho, prob)
