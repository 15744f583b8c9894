"""Click statistics of an exchangeable mixture of i.i.d. sources.

A mixture of Bernoulli sources ("hypotheses") produces exchangeable +/-1
protocols.  Frequency bands classify protocols back to hypotheses; band
masses converge to the prior weights; cross-band masses decay at the binary
divergence rate; the posterior over hypotheses purifies; and the minimal
divergence sets a physical detection time scale.  A commuting diagonal
model reproduces exactly the same protocol probabilities as a sequential
history measure.

Run with:  python demos/04_mixture_statistics.py
"""

import numpy as np

from qevents import (ClassificationBand, DeFinettiModel, MeasurementProtocol,
                     born_rule_experiments, commuting_realization, detection_time,
                     exact_protocol_probability, lsw_probability, posterior,
                     posterior_entropies, relative_entropy, sample_protocols,
                     sanov_check)

model = DeFinettiModel(np.array([0.4, 0.6]), np.array([0.8, 0.3]))
print("== The reference model ==")
print(f"  weights {model.weights}, click probabilities {model.p_plus}, "
      f"gap kappa={model.kappa}")

print("\n== Band masses converge to the weights ==")
# one pass of the click stream serves all three lengths
bands = [ClassificationBand.from_schedule(n) for n in (70, 200, 500)]
for exp in born_rule_experiments(model, bands, 20_000, seed=0):
    print(f"  n={exp.band.n:4d}: sampled mass(0)={exp.empirical[0]:.4f} "
          f"(exact {exp.exact_mass[0]:.4f}, weight 0.4), "
          f"coverage={exp.coverage:.4f}")

print("\n== Posterior purification ==")
post = posterior(model, (1, 1))
print(f"  two +1 clicks: posterior {({k: round(v, 4) for k, v in post.weights.items()})}, "
      f"entropy {post.entropy_bits:.4f} bits")
sample = sample_protocols(model, 200, 10_000, seed=0)
mean_bits = float(posterior_entropies(model, sample).mean())
print(f"  mean posterior entropy over 1e4 protocols of length 200: "
      f"{mean_bits:.2e} bits")

print("\n== Large-deviation decay of misclassification ==")
print(f"  divergences: sigma(0||1)={relative_entropy(model, 0, 1):.4f} bits, "
      f"sigma(1||0)={relative_entropy(model, 1, 0):.4f} bits")
rep = sanov_check(model, 0, 1, [50, 100, 200, 400])
for row in rep.rows:
    print(f"  n={row.n:4d}: cross-band mass {row.mass:.3e}, "
          f"empirical rate {row.empirical_rate:.4f} nats "
          f"(band divergence {row.band_kl_rate:.4f})")
print(f"  certified envelope mass <= C exp(-n sigma): {rep.certified}")

print("\n== Detection time ==")
dt = detection_time(model)
print(f"  sigma_min = {dt.sigma_min_bits:.4f} bits  ->  "
      f"T = tau/sigma_min = {dt.time_scale:.4f}")
print(f"  band calibration: n* = {dt.n_star} clicks suffice at threshold "
      f"{dt.threshold:.3f} (cross mass {dt.n_star_mass:.3f})")

print("\n== A commuting model with the same history measure ==")
n = 4
frame, state = commuting_realization(model, n)
worst = 0.0
for word in np.ndindex(*(2,) * n):
    proto = tuple(1 if b else -1 for b in word)
    lhs = lsw_probability(frame, state, MeasurementProtocol(proto, frame.times[:n]))
    worst = max(worst, abs(lhs - exact_protocol_probability(model, proto)))
print(f"  dim {frame.dim} diagonal realization, all {2 ** n} protocols of "
      f"length {n}: worst deviation {worst:.2e}")
