"""N successive couplings, each with a fresh unpolarized environment photon.

Every coupling is followed by an H-outcome measurement of its environment
photon; one joint filtration at the end concentrates whatever entanglement
survived.  The closed forms, one normalized recursion over the measured
state's populations and coherence, track the simulation to machine
precision.

Run:  python3 demos/03_cascade.py
"""

from entconc.cascade import (
    CascadeParams,
    closed_form_concurrence,
    coefficients,
    filtered_concurrence,
    filtered_success_prob,
    simulate_cascade,
)
from entconc.metrics import concurrence

T = 0.4
EPS = 0.05

print(f"identical couplings, T = {T}, final filtration eps = {EPS}")
print(f"{'N':>3} {'C_raw':>8} {'C_filtered':>11} {'P_N':>10} {'P_III':>10}")
for n in range(1, 7):
    params = CascadeParams((T,) * n, eps=EPS)
    co = coefficients(params)
    trace = simulate_cascade(params)
    c_raw = closed_form_concurrence(co)
    c_sim = concurrence(trace.final_state).value
    assert abs(c_sim - filtered_concurrence(co, EPS)) < 1e-10
    print(f"{n:3d} {c_raw:8.4f} {c_sim:11.4f} "
          f"{co.p_success:10.3e} {filtered_success_prob(co, EPS):10.3e}")

print("\nunfiltered entanglement decays exponentially with N; a fixed eps")
print("helps less and less, but shrinking eps with N recovers C -> 1 at an")
print("exponentially shrinking success rate:")
for n in (3, 5):
    co = coefficients(CascadeParams((T,) * n))
    eps_n = min(co.a, co.b) / co.c * 1e-2
    print(f"  N={n}, eps={eps_n:.1e}: C = {filtered_concurrence(co, eps_n):.4f}, "
          f"P_III = {filtered_success_prob(co, eps_n):.2e}")

# Mixed transmittivities work too; the closed form keeps track of the sign
# of the coherence x, which a naive -sqrt(a b) would get wrong here.
params = CascadeParams((0.7, 0.3, 0.8), eps=0.1)
co = coefficients(params)
trace = simulate_cascade(params)
print(f"\nmixed chain {params.transmittivities}: "
      f"C = {concurrence(trace.final_state).value:.4f}, "
      f"signed coherence x {co.x:+.5f}")
