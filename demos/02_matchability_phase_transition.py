#!/usr/bin/env python3
"""Matchability phase transition, desk scale.

Reproduces the shape of the edge-disagreement experiment: at high
correlation the latent alignment is a local optimum of the matching
objective (matching from it goes nowhere), while at low correlation
matching strictly improves on the truth, i.e. the pair stops being
matchable. The transposition sweep shows the same transition through
single swaps.
"""

from corrmatch import (
    BlockPartition,
    SbmParams,
    phase_transition_experiment,
    sample_rho_sbm,
    stream,
    three_block_params,
    transposition_sweep,
)

# smaller blocks and fewer replicates than the full study so this runs in seconds
params = SbmParams(BlockPartition((30, 30, 30)), three_block_params().lam)
rows = phase_transition_experiment(mc_reps=30, master_seed=7, params=params)

print("rho      identity-dis   matched-dis   corr(matched)  corr(shuffled)")
grid = sorted({r["rho"] for r in rows})
by = {(r["rho"], r["variant"]): r["mean"] for r in rows}
for rho in grid:
    print(f"{rho:6.4f}  {by[(rho, 'disagreements_identity')]:12.1f} "
          f"{by[(rho, 'disagreements_matched')]:12.1f} "
          f"{by[(rho, 'correlation_matched')]:14.3f} "
          f"{by[(rho, 'correlation_shuffled')]:14.3f}")

print("\nimproving within-block transposition found? (50 trials each)")
for rho in (0.02, 0.5, 0.9):
    found = 0
    for rep in range(50):
        a, b = sample_rho_sbm(params, rho, stream(8, rep))
        hit, pair, delta = transposition_sweep(a, b, params.partition)
        found += int(hit)
    print(f"rho={rho:<5} found in {found}/50 trials")
