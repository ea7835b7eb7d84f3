"""Three-way crosscheck at tiny sizes: oracle vs replica engine vs sampler.

At (N_A, N_B, d, chi) = (2, 2, 2, 2) the full Hilbert space is 16
dimensional, so the projected ensemble can be enumerated exhaustively by
dense simulation (``oracle_frame_potentials`` does it for stacks of
realizations at once).  Averaged over circuit realizations, those exact frame
potentials must agree with the replica-chain contraction (an exact average)
and with the Monte-Carlo sampler.
"""

import numpy as np

from rmpslab import estimator as es
from rmpslab import mps
from rmpslab import replica as rp

circuit = mps.Circuit("staircase", n_a=2, d=2, chi=2, n_b=2)
pairs = [(1, 0), (2, 0), (1, 1)]
reals = 4000
per = mps.oracle_frame_potentials(circuit, 123, reals, pairs)
mean, err = es.jackknife_mean(per)

print("staircase (2, 2, 2, 2), generalized frame potentials F^(k,n)")
print(f"  {'(k,n)':>7} {'oracle mean':>14} {'engine (exact)':>15} {'pull':>6}")
for (k, n), mu, se in zip(pairs, mean, err):
    eng = rp.frame_potential_chain(circuit, k, n).value
    print(f"  ({k},{n})  {mu:11.6f} ± {se:.6f} {eng:15.6f} {abs(eng - mu) / se:6.2f}")

print()
print("the same states drive the Born sampler; its k = 1 moment estimates")
print("D_A * E[F^(1)] and must land on the engine's m = 2 purity:")
cfg = es.EnsembleConfig(
    setup="staircase", n_a=2, n_b=2, d=2, chi=2, k_max=1,
    pairs_per_state=100, realizations=400, seed=123,
)
est = es.sample_moments(cfg)[0]
target = 4 * rp.frame_potential_chain(circuit, 1, 0).value
print(f"  sampler: {est.mean:.4f} ± {est.stderr:.4f}   engine: {target:.4f} "
      f"  pull: {abs(est.mean - target) / est.stderr:.2f}")

print()
print("per-realization identity (same gate stream feeds both code paths):")
state, layout = mps.build_staircase(circuit, mps.stream(123, 0))
ens = mps.statevector_oracle(circuit, mps.stream(123, 0))
worst = 0.0
for z in range(ens.amplitudes.shape[1]):
    amp = mps.project_outcomes(state, layout, ens.outcome_tuple(z))
    worst = max(worst, float(np.abs(amp - ens.amplitudes[:, z]).max()))
print(f"  max |MPS amplitude - dense amplitude| over all outcomes = {worst:.2e}")
