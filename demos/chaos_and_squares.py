"""Quadratic chaos and squared-average processes on small families.

Small enough that everything stochastic can be cross-checked against the
exhaustive sign-pattern law: Schatten radii, the quadratic tail bound,
and the centered squared-average bound with its increment lemma.
"""

import numpy as np

import chainbounds as cb

rng = np.random.default_rng(5)

# --- Schatten radii of a matrix family -------------------------------------
mats = [rng.normal(size=(3, 4)) for _ in range(3)]
radii = cb.schatten_radii(mats)
print("Schatten radii (S2 / S4 / operator):",
      f"{radii.delta_2:.3f} / {radii.delta_4:.3f} / {radii.delta_inf:.3f}")
print("interpolation delta_4^2 <= delta_2 * delta_inf:",
      radii.delta_4**2 <= radii.delta_2 * radii.delta_inf + 1e-12)

# --- quadratic-form tail vs the exhaustive law ------------------------------
B = rng.choice([-1.0, 1.0], size=(8, 8))
signs = cb.sign_patterns(8)
quad = np.einsum("ai,ij,aj->a", signs, B, signs)
vals = np.abs(quad - np.trace(B))
bound = cb.hanson_wright_tail(B, u=0.0,
                              registry=cb.DEFAULT_REGISTRY.with_fitted(hanson_wright_c=0.25))
print("\nquadratic tail on an 8x8 sign matrix (exhaustive 256-pattern law):")
for u in (8.0, 16.0, 24.0):
    exact = float(np.mean(vals >= u))
    print(f"  u={u:>4}: exact P = {exact:.4f}   fitted envelope (c=1/4) = {bound.probability(u):.4f}")

# --- chaos supremum moment bound --------------------------------------------
exact = cb.exact_chaos_distribution(mats)
xi = cb.psi_norm_analytic("symmetric-sign", 1.0, 2.0)
print("\nchaos supremum moments (exact over 16 sign patterns):")
for p in (1.0, 2.0, 4.0):
    emp = float(np.mean(exact**p) ** (1 / p))
    mb = cb.chaos_supremum_bound(cb.schatten_radii(mats, p=p), xi, p=p,
                                 registry=cb.DEFAULT_REGISTRY.with_fitted(chaos_C=1.0, chaos_c=1.0))
    print(f"  p={p}: exact {emp:.3f}  fitted bound {mb.value:.3f}")

# --- squared averages --------------------------------------------------------
coeffs = rng.normal(size=(5, 4))
model = cb.squares_model(coeffs, cb.RowDistribution("gaussian"))
sample = cb.simulate_squares(model, 4, 50_000, seed=77)
est = cb.estimate_moments(sample, [2.0])[0]
# each end is one-sided at 99%, so the two together hold at 98%
print(f"\nsquared-average supremum, second moment: {est.estimate:.3f} "
      f"(98% interval [{est.ci_low:.3f}, {est.ci_high:.3f}], method {est.method})")

# increment lemma: empirical L2 distance of one pair against its envelope
scale = cb.psi_norm_analytic("gaussian", 1.0, 2.0).value
d = scale * float(np.abs(coeffs[0] - coeffs[1]).max())
tail = cb.squares_l2_increment_tail(d, 4, u=1.0)
pair = cb.simulate_squares_increment(model, 0, 1, 4, 50_000, seed=78)
rep = cb.validate_bound(pair, tail, u_grid=[1.0, 1.5])
print("increment lemma verdict:", rep.verdict,
      "(threshold", f"{tail.threshold(1.0):.3f},", "envelope", f"{tail.probability(1.0):.4f})")
