"""Restricted isometries of subsampled Fourier matrices, end to end.

Subsamples rows of a DFT with Bernoulli selectors, computes exact sparse
distortion constants through the DFT's circulant Gram (the values support
enumeration gives, bit for bit), estimates the failure curve over the
subsampling rate, and evaluates the sample-complexity recipe.
"""

import numpy as np

import chainbounds as cb

N = 16
print(f"DFT({N}): unitary, flat entries scaled by sqrt(N) -> K = 1")

inst = cb.subsampled_instance(N, 6, seed=3)
print(f"\none draw at m=6: kept rows {list(inst.I)} (realized {inst.realized_rows})")
for s in (1, 2, 3):
    rep = inst.delta(s)
    print(f"  delta_{s} = {rep.delta_s:.4f}  witness support {list(rep.witness_support)}")

# The witness direction reproduces the constant by a direct product.
rep = inst.delta(2)
x = rep.witness_direction
gap = abs(np.linalg.norm(inst.U_I @ x) ** 2 - 1)
print(f"  witness check: | ||Ax||^2 - 1 | = {gap:.6f} (= delta_2 above)")

# Failure probability of hitting delta_2 < 1/2 as m grows.
print("\nfailure curve P(delta_2 >= 0.5) over 200 draws:")
for m in (4, 8, 12, 16):
    r = cb.estimate_failure_probability(N, m, 2, 0.5, 200, seed=101)
    print(f"  m={m:>2}: estimate {r['estimate']:.3f}  99% CI [{r['ci_lower']:.3f}, {r['ci_upper']:.3f}]")

# The DFT's Gram is circulant, so a draw costs one length-N FFT and no
# N x N Gram: 200 draws at N = 1024 take about as long as the N = 16 curve
# above.
r = cb.estimate_failure_probability(1024, 64, 2, 0.5, 200, seed=101)
print(f"\nN=1024, m=64: P(delta_2 >= 0.5) ~ {r['estimate']:.3f}  "
      f"99% CI [{r['ci_lower']:.3f}, {r['ci_upper']:.3f}]")

# Sample-complexity recipe with fitted front factors.
m_star = cb.sample_complexity(s=4, K=1.0, delta=0.25, eta=1e-3, d1_fit=1.0, d2_fit=1.0, N=1024)
print(f"\nminimal m for (N=1024, s=4, delta=0.25, eta=1e-3) with unit fit factors: {m_star}")
