"""Diagnostics: Hong-Ou-Mandel overlap estimation and state tomography.

The degree of indistinguishability p between signal and environment photons
is what the coupling model needs as input; the visibility of the
Hong-Ou-Mandel dip recovers it.  Tomography closes the loop: simulate
measurement counts on the protocol's output state and reconstruct it.

Run:  python3 demos/04_hom_and_tomography.py
"""

import numpy as np

from entconc.cascade import CascadeParams, closed_form_state, coefficients
from entconc.channel import hom_coincidence
from entconc.metrics import concurrence, fidelity
from entconc.tomography import reconstruct, simulate_counts

c_id, c_dist = hom_coincidence(0.5, 1.0), hom_coincidence(0.5, 0.0)
print("balanced-BS coincidence rates:")
print(f"  identical photons:      {c_id:.4f}")
print(f"  orthogonal-tag photons: {c_dist:.4f}")

print("\nHOM dip scans:")
for p in (1.0, 0.85, 0.5):
    # The dip's floor is the coincidence rate at overlap p; its visibility,
    # scaled by the contrast, gives p back.
    dip = hom_coincidence(0.5, p)
    visibility = (c_dist - dip) / c_dist
    print(f"  overlap {p:4.2f}: dip rate {dip:.4f}, visibility {visibility:.4f}, "
          f"recovered p = {visibility * c_dist / (c_dist - c_id):.4f}")

# Tomography of the post-measurement state at T = 0.4: sigma_II, the
# one-coupling cascade closed form.
rho = closed_form_state(coefficients(CascadeParams((0.4,))))
rec = reconstruct(simulate_counts(rho))
print(f"\nideal tomography of the post-measurement state: "
      f"fidelity {fidelity(rec, rho):.8f}")

print("finite statistics (Poisson counts):")
for shots in (500, 5000, 50000):
    counts = simulate_counts(rho, shots, np.random.default_rng(1))
    rec = reconstruct(counts, shots)
    print(f"  {shots:6d} shots/setting: fidelity {fidelity(rec, rho):.4f}, "
          f"concurrence {concurrence(rec).value:.4f} (true {concurrence(rho).value:.4f})")
