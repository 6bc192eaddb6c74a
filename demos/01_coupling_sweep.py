"""Sweep the beam-splitter transmittivity and watch entanglement migrate.

A polarization singlet shared by Alice and Bob meets an unpolarized
environment photon on Bob's side.  Post-selecting one photon per output mode
and sweeping T shows three regimes:

  T > 1/sqrt(3)        Alice-Bob entanglement survives
  1-1/sqrt(3) < T < 1/sqrt(3)   all pairwise entanglement involving Alice gone
  T < 1-1/sqrt(3)      entanglement has swapped onto Alice-environment

Run:  python3 demos/01_coupling_sweep.py
"""

import numpy as np

from entconc.channel import CouplingParams, couple
from entconc.metrics import pair_concurrences
from entconc.states import classify_werner, mixed_env, singlet_standard

ts = np.linspace(0.0, 1.0, 21)
sig, env = singlet_standard(), mixed_env()

print(f"{'T':>5} {'C_AB':>8} {'C_AE':>8} {'C_BE':>8} {'P_sel':>8}")
for t in ts:
    ps = couple(sig, env, CouplingParams(float(t)))
    c_ab, c_ae, c_be = pair_concurrences(ps.rho)
    print(f"{t:5.2f} {c_ab:8.4f} {c_ae:8.4f} {c_be:8.4f} {ps.success_prob:8.4f}")

print()
print(f"analytic thresholds: 1-1/sqrt(3) = {1 - 1 / np.sqrt(3):.4f}, "
      f"1/sqrt(3) = {1 / np.sqrt(3):.4f}")

# The Alice-Bob marginal is always a Werner state (singlet + white noise);
# the weight crosses the 1/3 separability edge exactly at the threshold.
print("\nWerner weight of the A-B marginal:")
for t in (0.3, 0.5, 1 / np.sqrt(3), 0.8, 1.0):
    marg = couple(sig, env, CouplingParams(float(t))).rho.ptrace((0, 1))
    dec = classify_werner(marg)
    print(f"  T={t:.4f}: q={dec.singlet_weight:+.4f} (residual {dec.residual:.1e})")
