"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(run with -s to see them).  Criterion 6 is model-dependent: if the quoted
post-measurement target misses its band, the discrepancy against the
orthogonal-tag distinguishable-branch model is reported instead of being
tuned away.
"""

import json
import time

import numpy as np
import pytest

from entconc.cascade import (
    CascadeParams,
    cascade_filter,
    closed_form_concurrence,
    closed_form_state,
    coefficients,
    filtered_success_prob,
    simulate_cascade,
)
from entconc.channel import CouplingParams, couple, hom_coincidence
from entconc.cli import main
from entconc.metrics import concurrence, fidelity
from entconc.protocol import (
    c3_closed_form,
    measure_env,
    raw_attenuations,
    run_protocol,
    sigma3_closed_form,
)
from entconc.states import mixed_env, singlet, singlet_standard, werner
from entconc.tomography import reconstruct, simulate_counts
from helpers import sigma2


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    return ok


def test_criterion_1_closed_form_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    worst_state = worst_prob = 0.0
    for T in rng.uniform(0.0, 1.0, 20):
        T = float(T)
        got = measure_env(couple(singlet_standard(), mixed_env(), CouplingParams(T)), "H")
        worst_state = max(worst_state, np.abs(got.rho.mat - sigma2(T).mat).max())
        p2 = coefficients(CascadeParams((T,))).p_success
        worst_prob = max(worst_prob, abs(got.success_prob - p2))
    elapsed = time.perf_counter() - start
    ok = worst_state <= 1e-10 and worst_prob <= 1e-10 and elapsed < 1.0
    assert _report(
        "criterion 1: simulated state/probability vs closed form",
        ok,
        f"state diff {worst_state:.2e}, prob diff {worst_prob:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_concurrence_formulas():
    start = time.perf_counter()
    worst = 0.0
    for T in np.linspace(0.005, 0.995, 50):
        T = float(T)
        c2 = closed_form_concurrence(coefficients(CascadeParams((T,))))
        worst = max(worst, abs(concurrence(sigma2(T)).value - c2))
        if abs(T - 0.5) < 1e-3:
            continue
        for eps in (0.02, 0.1, 0.25, 0.5, 1.0):
            worst = max(
                worst,
                abs(concurrence(sigma3_closed_form(T, eps)).value - c3_closed_form(T, eps)),
            )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    assert _report(
        "criterion 2: concurrence closed forms on 50x5 grid",
        ok,
        f"max diff {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_thresholds():
    start = time.perf_counter()
    ts = np.arange(0.0, 1.0 + 1e-9, 1e-3)
    sig, env = singlet_standard(), mixed_env()
    c_ab = np.empty(len(ts))
    c_ae = np.empty(len(ts))
    c_be = np.empty(len(ts))
    for i, T in enumerate(ts):
        ps = couple(sig, env, CouplingParams(float(T)))
        c_ab[i] = concurrence(ps.rho.ptrace((0, 1))).value
        c_ae[i] = concurrence(ps.rho.ptrace((0, 2))).value
        c_be[i] = concurrence(ps.rho.ptrace((1, 2))).value

    def crossing(vals):
        above = vals > 1e-9
        idx = np.nonzero(above[1:] != above[:-1])[0]
        return ts[idx[-1] + 1]

    x_ab = crossing(c_ab)
    x_ae = crossing(c_ae)
    t_be = ts[np.argmax(c_be)]
    c2_ends = max(closed_form_concurrence(coefficients(CascadeParams((T,)))) for T in (0.0, 0.5))
    elapsed = time.perf_counter() - start
    ok = (
        abs(x_ab - 1 / np.sqrt(3)) <= 1e-3
        and abs(x_ae - (1 - 1 / np.sqrt(3))) <= 1e-3
        and abs(t_be - 0.5) <= 1e-3
        and c2_ends <= 1e-12
        and elapsed < 10.0
    )
    assert _report(
        "criterion 3: entanglement thresholds on 1e-3 grid",
        ok,
        f"C_AB at {x_ab:.4f} (1/sqrt3), C_AE at {x_ae:.4f}, C_BE peak {t_be:.4f}, "
        f"C_II ends {c2_ends:.1e}, {elapsed:.2f}s",
    )


def test_criterion_4_cascade_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_state = worst_conc = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        ts = tuple(float(t) for t in rng.uniform(0.02, 0.98, n))
        params = CascadeParams(ts)
        coeffs = coefficients(params)
        trace = simulate_cascade(params)
        pre_filter = trace.steps[-2].state
        worst_state = max(
            worst_state, np.abs(pre_filter.mat - closed_form_state(coeffs).mat).max()
        )
        worst_conc = max(
            worst_conc,
            abs(concurrence(pre_filter).value - closed_form_concurrence(coeffs)),
        )
    co2 = coefficients(CascadeParams((0.4, 0.4)))
    # Unnormalized (0.0256, 0.0016, 0.072), of weight 0.0992 = 8 P_2.
    eq1 = (
        abs(co2.a - 0.0256 / 0.0992) <= 1e-12
        and abs(co2.b - 0.0016 / 0.0992) <= 1e-12
        and abs(co2.c - 0.072 / 0.0992) <= 1e-12
        and abs(co2.p_success - 0.0124) <= 1e-12
    )
    elapsed = time.perf_counter() - start
    ok = worst_state <= 1e-10 and worst_conc <= 1e-12 and eq1 and elapsed < 10.0
    assert _report(
        "criterion 4: cascade simulation vs closed form (50 random chains)",
        ok,
        f"state diff {worst_state:.2e}, concurrence diff {worst_conc:.2e}, "
        f"N=2 coefficients {'ok' if eq1 else 'WRONG'}, {elapsed:.2f}s",
    )


def test_criterion_5_asymptotic_filtration():
    worst_prob = 0.0
    eps_needed = {}
    for T in (0.1, 0.3, 0.7, 0.9):
        for n in (1, 3, 5):
            params_ts = (T,) * n
            coeffs = coefficients(CascadeParams(params_ts))
            state = closed_form_state(coeffs)
            found = None
            for eps in (0.1, 0.01, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 1e-13):
                out = cascade_filter(state, eps)
                worst_prob = max(
                    worst_prob,
                    abs(
                        out.success_prob * coeffs.p_success
                        - filtered_success_prob(coeffs, eps)
                    ),
                )
                if found is None and concurrence(out.rho).value > 0.999:
                    found = eps
            eps_needed[(T, n)] = found
    probs_decreasing = all(
        filtered_success_prob(coefficients(CascadeParams((0.3,) * n)), 0.1)
        > filtered_success_prob(coefficients(CascadeParams((0.3,) * (n + 1))), 0.1)
        for n in (1, 2, 3, 4, 5)
    )
    ok = (
        all(e is not None for e in eps_needed.values())
        and worst_prob <= 1e-12
        and probs_decreasing
    )
    detail = ", ".join(f"T={t} N={n}: eps<={e:g}" for (t, n), e in eps_needed.items())
    assert _report(
        "criterion 5: C > 0.999 for small eps; P_III closed form",
        ok,
        f"prob diff {worst_prob:.2e}; {detail}",
    )


def test_criterion_6_experimental_comparison_soft():
    # Post-measurement concurrence at p = 0.85, T = 0.4, quoted model value
    # 0.22 +/- 0.03.
    tr = run_protocol(0.4, p=0.85)
    c_post = concurrence(tr.final_state).value
    hit_022 = abs(c_post - 0.22) <= 0.03
    in_measured_band = abs(c_post - 0.15) <= 0.03

    # Post-filtration concurrence with the quoted intensity attenuations
    # A_A = 0.12, A_B = 0.30; quoted value 0.47 +/- 0.05.
    filters = raw_attenuations(0.12, 0.30)
    c_filt_ideal = concurrence(run_protocol(0.4, raw_filters=filters).final_state).value
    c_filt_partial = concurrence(
        run_protocol(0.4, p=0.85, raw_filters=filters).final_state
    ).value
    hit_047 = abs(c_filt_ideal - 0.47) <= 0.05

    if not hit_022:
        print(
            "[REPORT] criterion 6 discrepancy: post-measurement concurrence at "
            f"p=0.85, T=0.4 is {c_post:.4f}, outside 0.22 +/- 0.03. The faithful "
            "orthogonal-tag model keeps the distinguishable branch's singlet "
            "coherence, whose sign partially cancels the coherent branch at "
            "T < 1/2; a model that dephases that branch lands near 0.215. The "
            f"simulated value sits inside the measured band 0.15 +/- 0.03 "
            f"({'yes' if in_measured_band else 'no'}). Post-filtration at "
            f"p=0.85 gives {c_filt_partial:.4f} (quoted measurement 0.50 +/- 0.10 "
            "was taken with the same filters)."
        )
    ok = hit_047
    assert _report(
        "criterion 6 (soft): quoted-value comparison",
        ok,
        f"C_post(p=0.85)={c_post:.4f} vs 0.22+/-0.03 "
        f"({'hit' if hit_022 else 'miss, reported above'}); "
        f"C_filtered={c_filt_ideal:.4f} vs 0.47+/-0.05 "
        f"({'hit' if hit_047 else 'miss'})",
    )


def test_criterion_7_hom_round_trip(tmp_path):
    out = tmp_path / "hom.json"
    assert main(["hom", "--set", "overlap_grid=0.85", "--format", "json", "--out", str(out)]) == 0
    (row,) = json.loads(out.read_text())
    err = abs(row["p_recovered"] - 0.85)
    c_id, c_dist = hom_coincidence(0.5, 1.0), hom_coincidence(0.5, 0.0)
    ok = err <= 1e-12 and abs(c_id) <= 1e-12 and abs(c_dist - 0.5) <= 1e-12
    assert _report(
        "criterion 7: HOM visibility estimator and balanced-BS rates",
        ok,
        f"overlap error {err:.2e}, identical {c_id:.2e}, orthogonal {c_dist:.6f}",
    )


def test_criterion_8_tomography():
    states = {
        "singlet": singlet(),
        "singlet_std": singlet_standard(),
        "werner_0.5": werner(0.5),
        "sigma2_T0.4": sigma2(0.4),
        "sigma3_T0.4_e0.25": sigma3_closed_form(0.4, 0.25),
    }
    worst_ideal = 1.0
    for rho in states.values():
        rec = reconstruct(simulate_counts(rho))
        worst_ideal = min(worst_ideal, fidelity(rec, rho))
    worst_noisy = 1.0
    rng = np.random.default_rng(102)
    for rho in states.values():
        rec = reconstruct(simulate_counts(rho, 10**4, rng), 10**4)
        worst_noisy = min(worst_noisy, fidelity(rec, rho))
    ok = worst_ideal >= 0.999999 and worst_noisy >= 0.98
    assert _report(
        "criterion 8: tomography round-trip fidelities",
        ok,
        f"ideal min {worst_ideal:.8f}, 1e4-shot min {worst_noisy:.4f}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    cases = [
        ["sweep-coupling", "--set", "t_steps=21"],
        ["protocol", "--set", "t_grid=0.4,0.7", "--set", "p=0.85"],
        ["cascade", "--set", "t=0.4", "--set", "n_max=3"],
        ["hom"],
        ["tomo", "--seed", "11", "--set", "shots=5000", "--format", "json"],
    ]
    ok = True
    for i, args in enumerate(cases):
        a = tmp_path / f"{i}a.out"
        b = tmp_path / f"{i}b.out"
        ok = ok and main(args + ["--out", str(a)]) == 0
        ok = ok and main(args + ["--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    assert _report(
        "criterion 9: byte-identical CLI output for identical config+seed",
        ok,
        f"{len(cases)} commands checked",
    )
