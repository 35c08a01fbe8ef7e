"""Look inside one divergence estimate.

Walks through the pieces the mixture estimator assembles: the per-sample
evidence curves over the concentration parameter, the peak of the
mixture weight, the prior means that anchor the hyper-prior, and finally
the posterior mean with its spread next to the point estimate at the
peak, with the quadrature diagnostics that back it.
"""

import numpy as np

from bayesdiv import (
    HyperParams,
    build_table,
    estimate_dkl_dp,
    estimate_dkl_dpm,
    exact_dkl,
    log_evidence,
    posterior_dkl,
    prior_mean_crossentropy,
    prior_mean_entropy,
    sample_dirichlet,
    sample_multinomial,
)

K = 400
SIZE = 500

rng = np.random.default_rng(3)
q = sample_dirichlet(K, 1.0, rng)
t = sample_dirichlet(K, 1.0, rng)
table = build_table(sample_multinomial(q, SIZE, rng), sample_multinomial(t, SIZE, rng), K)
truth = exact_dkl(q, t)

print("evidence ln P(n | alpha) along a log grid (first sample):")
for alpha in (0.01, 0.1, 1.0, 10.0, 100.0):
    print(f"  alpha = {alpha:7.2f}   {log_evidence(table, alpha):10.2f}")

dpm = estimate_dkl_dpm(table)
diag = dpm.diagnostics
print(f"\npeak node of the mixture weight: alpha* = {diag['alpha_star']:.3f}, "
      f"beta* = {diag['beta_star']:.3f}")

print("\nprior means that the hyper-prior is built from (ln K = "
      f"{np.log(K):.3f}):")
for alpha in (0.1, 1.0, 10.0):
    a = prior_mean_entropy(alpha, K)
    b = prior_mean_crossentropy(alpha, K)
    print(f"  x = {alpha:5.1f}   entropy side {a:6.3f} < ln K < cross side {b:6.3f}")

at_peak = posterior_dkl(table, HyperParams(diag["alpha_star"], diag["beta_star"], K))
dp = estimate_dkl_dp(table)
print(f"\nposterior mean divergence at the maximum: {at_peak:.4f}")
print(f"dp  (point estimate at evidence maximum): {dp.value:.4f}")
print(f"dpm (mixture over the hyper-prior):       {dpm.value:.4f} "
      f"+- {dpm.posterior_std:.4f}")
print(f"exact divergence of the truth pair:       {truth:.4f}")

print(f"\nquadrature: {diag['grid_bins_alpha']} x {diag['grid_bins_beta']} nodes, "
      f"error estimate {diag['quad_error']:.1e}, "
      f"weight near the box edge {diag['edge_mass']:.1e}")
