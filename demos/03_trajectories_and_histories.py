"""Stochastic trajectories and the sequential history measure.

States never evolve between events: all time dependence lives in the
transported projections, and the state only changes when an event fires
(collapse if recorded, dephasing if not).  The induced distribution over
outcome sequences is the ordered-sandwich history measure, and a seeded
sampler reproduces it.

Run with:  python demos/03_trajectories_and_histories.py
"""

import numpy as np

from qevents import (DensityState, HeisenbergFrame, MeasurementProtocol,
                     PartitionOfUnity, consistency_check, enumerate_protocols,
                     lsw_probability, run_trajectory, sample_trajectories,
                     sampler_vs_measure, substream)

E11 = np.diag([1.0, 0.0]).astype(complex)
E22 = np.diag([0.0, 1.0]).astype(complex)
PART = PartitionOfUnity(("+", "-"), (E11, E22))
HAD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

frame = HeisenbergFrame.build((1.0, 2.0, 3.0), PART, step_propagator=HAD)
rho = DensityState(np.diag([0.3, 0.7]).astype(complex))
plus = DensityState(np.full((2, 2), 0.5, dtype=complex))

print("== One detection-gated trajectory ==")
res = run_trajectory(frame, rho, rng_seed=substream(3, 0))
for b in res.branch_log:
    if b.fired:
        print(f"  t={b.time}: event '{b.outcome}' with probability "
              f"{b.probability:.3f} (recorded={b.recorded})")
    else:
        print(f"  t={b.time}: no event "
              f"({'inadmissible weights' if not b.admissible else 'too coherent'})")
print(f"  final state diagonal: {np.round(np.diag(res.final_state.matrix).real, 6)}")

print("\n== The history measure over full protocols ==")
for proto in enumerate_protocols(frame, 3):
    p = lsw_probability(frame, plus, proto)
    print(f"  mu{proto.outcomes} = {p:.6f}")
rep = consistency_check(frame, plus, 3)
print(f"  normalization residual {rep.normalization_residual:.1e}, "
      f"worst prefix-marginal residual {rep.max_marginal_residual:.1e}")

print("\n== Sampler versus measure ==")
tv = sampler_vs_measure(frame, plus, 3, 50_000, seed=0)
print(f"  empirical TV distance at 5e4 samples: {tv:.4f}")

print("\n== Unrecorded events still decohere ==")
res_never = run_trajectory(frame, rho, record_policy="never",
                           rng_seed=substream(3, 1))
print(f"  recorded history length: {len(res_never.history)}")
print(f"  branch log still shows {sum(b.fired for b in res_never.branch_log)} "
      f"events; the final state is the dephased (not collapsed) update")

print("\n== Determinism by construction ==")
a = run_trajectory(frame, rho, rng_seed=substream(5, 0))
b = run_trajectory(frame, rho, rng_seed=substream(5, 0))
print(f"  same seed, same history: "
      f"{[r.outcome for r in a.history] == [r.outcome for r in b.history]}")
# sample k of the batch is the trajectory run_trajectory gives on substream(5, k)
seqs = {path.outcomes for path in sample_trajectories(frame, rho, 12, seed=5)}
print(f"  12 streams produce {len(seqs)} distinct outcome sequences")
