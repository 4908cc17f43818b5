#!/usr/bin/env python3
"""Correlated graph pairs and their shared information.

Samples edge-correlated SBM pairs, checks the empirical edge
correlation against the target, and evaluates the closed-form mutual
information against a brute-force enumeration oracle on a tiny model.
"""

import numpy as np

from corrmatch import (
    BlockPartition,
    SbmParams,
    brute_force_pair_mi,
    er_params,
    mi_small_rho_ratio,
    rho_sbm_mi,
    sample_edge_correlation,
    sample_rho_sbm,
    sbm_entropy,
    stream,
)

# -- sample a correlated pair and look at the edge correlation --------------

params = SbmParams(BlockPartition((60, 60)), np.array([[0.5, 0.2], [0.2, 0.5]]))
print("rho  ->  mean sample edge correlation over 30 draws")
for rho in (0.0, 0.3, 0.7, 1.0):
    corrs = [
        sample_edge_correlation(*sample_rho_sbm(params, rho, stream(1, i)))
        for i in range(30)
    ]
    print(f"{rho:4.2f} ->  {np.mean(corrs):6.3f}")

# -- closed-form mutual information vs enumeration over all graph pairs -----

tiny = SbmParams(BlockPartition((2, 2)), np.array([[0.5, 0.3], [0.3, 0.5]]))
print("\nrho   closed-form I     brute-force I")
for rho in (0.0, 0.25, 0.5, 0.9, 1.0):
    closed = rho_sbm_mi(tiny, rho)
    brute = brute_force_pair_mi(tiny, rho)
    print(f"{rho:4.2f}  {closed:14.9f}  {brute:14.9f}")
print(f"entropy H(G1) = {sbm_entropy(tiny):.9f} nats (upper bound for I)")

# -- the small-correlation law I ~ rho^2 C(n,2) / 2 -------------------------

print("\nsmall-rho diagnostic I / (rho^2 C(n,2)/2) at n=200, p=0.3:")
for rho in (0.5, 0.1, 0.01, 0.001):
    print(f"rho={rho:<6} ratio={mi_small_rho_ratio(er_params(200, 0.3), rho):.4f}")
