"""Exact replica contractions: leading orders and finite-size scaling.

The circuit-averaged generalized frame potential F^(k,n) is a partition
function of a permutation chain; contracting it is exact and cheap: the
engine works on the orbit space of the chain's symmetry (13 values at m = 4,
95 at m = 8).  This script shows the approach to the chi -> infinity
leading order for the staircase, reproduces the glued-circuit scaling
plot (the ratio F^(2,0)/(F^(1,0))^2, normalized by its leading order,
approaches the excitation-exponent prediction exp(19 x) with finite-size
residuals shrinking like 1/sqrt(N_A)), contracts the m = 8 staircase
chain at N_A = 6, N_B = 14 in milliseconds, and follows the glued circuit
at x = N_A / chi^2 = 1 out to chi = 2^14, N_A = 2^28, where log F minus its
leading order reaches the excitation exponent times x.  A chain is held as
runs of a repeated cell, and a long run is applied by binary powering, so
each of those chains takes milliseconds.
"""

import math
import time

from rmpslab import replica as rp
from rmpslab.mps import Circuit
from rmpslab import theory as th
from rmpslab.permutations import ReplicaShape

d = 2

print("staircase: engine vs exact chi -> infinity limit, (k=1, n=1), N_A=2, N_B=4")
for chi in (32, 128, 512, 2048):
    eng = rp.frame_potential_chain(Circuit("staircase", 2, d, chi, n_b=4), 1, 1)
    lead = th.leading_order_log(ReplicaShape(1, 1), d, float(chi), 2, 4, "staircase")
    print(f"  chi={chi:5d}: F = {eng.value:.6e}   engine/leading - 1 = {math.exp(eng.log - lead) - 1:+.2e}")

print()
print("glued: normalized moment ratio vs the confinement prediction at x = 0.05")
x = 0.05
e2 = th.setup2_excitation_exponent(2, 0, d)
e1 = th.setup2_excitation_exponent(1, 0, d)
pred_factor = e2 - 2 * e1
print(f"  prediction: exp({pred_factor:g} x) = {math.exp(pred_factor * x):.4f} as N_A -> infinity")
print(f"  {'N_A':>5} {'chi':>4} {'ratio':>8} {'delta':>8} {'delta*sqrt(N_A)':>16}")
for chi in (20, 40, 80, 160):
    n_a = int(round(x * chi * chi))
    circuit = Circuit("glued", n_a, d, chi)
    f2 = rp.frame_potential_chain(circuit, 2, 0)
    f1 = rp.frame_potential_chain(circuit, 1, 0)
    lead2 = th.leading_order_log(ReplicaShape(0, 2), d, float(chi), n_a, None, "glued")
    lead1 = th.leading_order_log(ReplicaShape(0, 1), d, float(chi), n_a, None, "glued")
    rho = math.exp(f2.log - 2 * f1.log - (lead2 - 2 * lead1))
    delta = rho - math.exp(pred_factor * x)
    print(f"  {n_a:5d} {chi:4d} {rho:8.4f} {delta:+8.4f} {delta * math.sqrt(n_a):16.3f}")

print()
print("the log-scaled contraction survives deep underflow: at N_A = 100 the")
print("raw potentials are ~1e-700 yet the normalized ratio stays regular:")
circuit = Circuit("glued", 100, d, 44)
f2 = rp.frame_potential_chain(circuit, 2, 0)
f1 = rp.frame_potential_chain(circuit, 1, 0)
lead2 = th.leading_order_log(ReplicaShape(0, 2), d, 44.0, 100, None, "glued")
lead1 = th.leading_order_log(ReplicaShape(0, 1), d, 44.0, 100, None, "glued")
rho = math.exp(f2.log - 2 * f1.log - (lead2 - 2 * lead1))
print(f"  log10 F(2,0) = {f2.log / math.log(10):.1f},  normalized F(2,0)/F(1,0)^2 = {rho:.4f}")

print()
print("m = 8: staircase F(4,0) at N_A = 6, N_B = 14 over the 95 orbits of 8! = 40320 elements")
print("(the first call builds the orbit-space kernel tables)")
shape = ReplicaShape(0, 4)
for chi in (64, 1024, 16384):
    t0 = time.perf_counter()
    f4 = rp.frame_potential_chain(Circuit("staircase", 6, d, chi, n_b=14), 4, 0)
    seconds = time.perf_counter() - t0
    lead = th.leading_order_log(shape, d, float(chi), 6, 14, "staircase")
    print(f"  chi={chi:6d}: log F = {f4.log:+.6f}   engine/leading - 1 = "
          f"{math.exp(f4.log - lead) - 1:+.2e}   ({seconds * 1e3:.1f} ms)")

print()
print("glued scaling limit at x = N_A / chi^2 = 1: log(F / F_leading) -> e_k x")
print("(k = 1 converges as 1/chi^2; past chi = 2^12 its gap meets rounding, a few")
print("1e-7 in a log F of -1.9e8)")
print(f"  {'chi':>6} {'N_A':>10}  k   log(F/F_lead)   e_k x   chi*(diff)    ms")
for k in (1, 2):
    e_k = th.setup2_excitation_exponent(k, 0, d)
    for chi in (2**j for j in range(6, 15)):
        n_a = chi * chi
        t0 = time.perf_counter()
        fk = rp.frame_potential_chain(Circuit("glued", n_a, d, chi), k, 0)
        seconds = time.perf_counter() - t0
        lead = th.leading_order_log(ReplicaShape(0, k), d, float(chi), n_a, None, "glued")
        gap = fk.log - lead
        print(f"  {chi:6d} {n_a:10d}  {k}   {gap:13.6f} {e_k:7.2f} {chi * (gap - e_k):+11.4f}"
              f"  {seconds * 1e3:5.1f}")
